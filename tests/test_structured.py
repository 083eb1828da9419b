"""Structured-input corpus: synthesis beyond Haar-random unitaries.

Identity, permutations, single GCX/CINC gates, diagonals, tensor
products, the QFT and near-identity matrices have exactly-zero,
repeated or tiny principal angles at every recursion level, which
Haar inputs never produce.  Each must compile within tolerance and
never cost more two-qutrit gates than the closed form for Haar inputs.
"""

import numpy as np
import pytest
import scipy.linalg

from trisect.algebra import cinc_matrix, gcx_matrix
from trisect.linalg import haar_unitary
from trisect.synth import GateSet, SynthesisOptions, expected_count, synthesize

KINDS = ("identity", "permutation", "gcx", "cinc", "diagonal", "tensor", "qft", "near-identity")


def structured_input(kind: str, n: int) -> np.ndarray:
    d = 3**n
    rng = np.random.default_rng([n, KINDS.index(kind)])
    if kind == "identity":
        return np.eye(d)  # every principal angle at every level is exactly zero
    if kind == "permutation":
        return np.eye(d)[:, rng.permutation(d)]
    if kind == "gcx":
        return gcx_matrix(n, 0, 2, n - 1, "12")
    if kind == "cinc":
        return cinc_matrix(n, n - 1, 1, 0)
    if kind == "diagonal":
        return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d)))
    if kind == "tensor":
        out = np.eye(1)
        for _ in range(n):
            out = np.kron(out, haar_unitary(3, rng))
        return out
    if kind == "qft":
        jk = np.outer(np.arange(d), np.arange(d))
        return np.exp(2j * np.pi * jk / d) / np.sqrt(d)
    if kind == "near-identity":
        return scipy.linalg.expm(1e-3 * scipy.linalg.logm(haar_unitary(d, rng)))
    raise ValueError(kind)


@pytest.mark.parametrize("gate_set", list(GateSet), ids=lambda g: g.value)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_structured_input_synthesizes(kind, n, gate_set):
    # at n = 4 the top split of every kind takes csd's batched route
    u = structured_input(kind, n)
    _, rep = synthesize(u, SynthesisOptions(gate_set=gate_set))
    assert rep.ok
    assert rep.distance <= 1e-10
    assert rep.two_qutrit_count <= expected_count(n, gate_set)
