"""Seeded inputs, the operation each workload times, and its verdict.

An operation is one call a user of the compiler makes and waits for.  The
program receives only the generated matrices.  Every call into ``trisect``
looks its function up on the module at call time, so the traced run can
swap those attributes for timing wrappers.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

import simulator
import trisect.cartan as cartan
import trisect.circuit as circuit
import trisect.synth as synth
from trisect.linalg import haar_unitary
from trisect.synth import GateSet, SynthesisOptions

TOLERANCE = SynthesisOptions().tolerance
CHECK_VECTORS = 3


@dataclass(frozen=True)
class Input:
    label: str
    matrix: np.ndarray
    gate_set: GateSet | None  # None: a factorization, not a synthesis
    haar: bool


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str
    digest: str  # hash of the serialized output, for the traced-run comparison
    two_qutrit: int | None = None
    excess: int | None = None  # two_qutrit - expected_count
    distance: float | None = None  # worst of report.distance and the own check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[np.random.Generator], list[Input]]
    op: Callable[[Input], object]
    check: Callable[[Input, object, np.random.Generator], Verdict]
    # A run completes whole passes of this many ops, so a share of inputs
    # of each kind does not depend on where the clock stopped.
    cycle: int = 1


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def synth_op(inp: Input):
    return synth.synthesize(inp.matrix, SynthesisOptions(gate_set=inp.gate_set))


def factor_tree_op(inp: Input):
    """Factorize, then recurse into every K entry down to two qutrits."""
    nodes = []

    def recurse(m: np.ndarray) -> None:
        node = cartan.factorize(m, absorb=True)
        nodes.append((m, node))
        if node.n > 2:
            for e in node.entries:
                if e.kind == "K":
                    recurse(e.matrix)

    recurse(inp.matrix)
    return nodes


def check_synth(inp: Input, result, rng: np.random.Generator) -> Verdict:
    circ, report = result
    text = circuit.serialize(circ)
    digest = hashlib.sha256(text.encode()).hexdigest()
    u = inp.matrix
    own = simulator.distance(text, u, simulator.random_vectors(rng, u.shape[0], CHECK_VECTORS))
    two = text.count("\nGCX ") + text.count("\nCINC ")
    n = round(math.log(u.shape[0], 3))
    excess = two - synth.expected_count(n, inp.gate_set)
    dist = max(own, float(report.distance))
    if not dist <= TOLERANCE:
        reason = f"distance {dist:.3e} (own check {own:.3e}) exceeds {TOLERANCE:g}"
    elif inp.haar and excess > 0:
        reason = f"{two} two-qutrit gates, {excess} above the closed form"
    else:
        reason = ""
    return Verdict(not reason, reason, digest, two, excess, dist)


def check_factor_tree(inp: Input, nodes, rng: np.random.Generator) -> Verdict:
    h = hashlib.sha256()
    worst = 0.0
    for m, node in nodes:
        worst = max(worst, float(np.linalg.norm(cartan.reassemble(node) - m)))
        for e in node.entries:
            h.update(np.ascontiguousarray(e.matrix if e.kind == "K" else e.angles).tobytes())
    reason = "" if worst <= TOLERANCE else f"reassemble misses its input by {worst:.3e}"
    return Verdict(not reason, reason, h.hexdigest(), distance=worst)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _haar_pool(n: int, size: int, gate_sets: tuple[GateSet | None, ...]):
    def make(rng: np.random.Generator) -> list[Input]:
        return [
            Input(f"haar-{i}", haar_unitary(3**n, rng), gate_sets[i % len(gate_sets)], True)
            for i in range(size)
        ]

    return make


def _gate_unitary(n: int, line: str) -> np.ndarray:
    return simulator.apply(f"QUTRITS {n}\n{line}\n", np.eye(3**n))


def structured_corpus(rng: np.random.Generator) -> list[Input]:
    """Identity, permutation, GCX, CINC, diagonal, tensor product, QFT and
    near-identity inputs at two and three qutrits."""
    out = []
    for n in (2, 3):
        d = 3**n
        c, t = (int(x) for x in rng.permutation(n)[:2])
        value = int(rng.integers(3))
        level = ("01", "02", "12")[int(rng.integers(3))]
        tensor = np.eye(1, dtype=complex)
        for _ in range(n):
            tensor = np.kron(tensor, haar_unitary(3, rng))
        jk = np.outer(np.arange(d), np.arange(d))
        eps = 1e-3
        kinds = {
            "identity": np.eye(d, dtype=complex),
            "permutation": np.eye(d, dtype=complex)[:, rng.permutation(d)],
            "gcx": _gate_unitary(n, f"GCX q{c}={value} q{t} {level}"),
            "cinc": _gate_unitary(n, f"CINC q{c}={value} q{t}"),
            "diagonal": np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d))),
            "tensor": tensor,
            "qft": np.exp(2j * np.pi * jk / d) / np.sqrt(d),
            "near-identity": scipy.linalg.expm(eps * scipy.linalg.logm(haar_unitary(d, rng))),
        }
        out += [Input(f"{k}-n{n}", m, GateSet.GCX_CINC, False) for k, m in kinds.items()]
    return out


_MIXED = (GateSet.GCX_ONLY, GateSet.GCX_CINC)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "haar-n4",
            "one Haar 81x81 synthesis; verification by dense simulation dominates",
            _haar_pool(4, 32, (GateSet.GCX_CINC,)),
            synth_op,
            check_synth,
        ),
        Workload(
            "haar-n3-mixed",
            "short Haar 27x27 syntheses alternating gcx and gcx+cinc; per-gate Python overhead and passes",
            _haar_pool(3, 256, _MIXED),
            synth_op,
            check_synth,
            cycle=len(_MIXED),
        ),
        Workload(
            "structured-n3",
            "identity, permutations, GCX, CINC, diagonals, tensor products, QFT, near-identity at n=2,3",
            structured_corpus,
            synth_op,
            check_synth,
            cycle=16,
        ),
        Workload(
            "factor-tree-n5",
            "full recursive factorize of a Haar 243x243 (820 calls); CSD and eigen-splits dominate",
            _haar_pool(5, 12, (None,)),
            factor_tree_op,
            check_factor_tree,
        ),
    )
}


def rng_for(seed: int, workload: str, stream: int) -> np.random.Generator:
    """Independent generator per (seed, workload, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), stream])


def fingerprint(inputs: list[Input]) -> str:
    h = hashlib.sha256()
    for inp in inputs:
        h.update(f"{inp.label}|{inp.gate_set.value if inp.gate_set else '-'}|".encode())
        h.update(np.ascontiguousarray(inp.matrix, dtype=complex).tobytes())
    return h.hexdigest()
