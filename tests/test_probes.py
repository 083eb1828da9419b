"""Verification on probe columns: ``eval_circuit`` on a block, and ``probe_distance``.

``synthesize`` and ``trisect verify`` report the phase-aligned distance
estimated on a fixed block of probe columns.  These tests check the
block path of the simulator against the exact unitary, that the estimate
tracks the exact distance on Haar inputs (``test_circuit`` checks it on
the structured corpus), and that a circuit with one gate removed or one
angle moved fails the check.
"""

import functools

import numpy as np
import pytest

from trisect.circuit import CINC, GCX, ROT, Circuit, eval_circuit
from trisect.linalg import haar_unitary, unitary_distance
from trisect.synth import GateSet, SynthesisOptions, probe_distance, synthesize

# Probe/exact distance ratios measured over the Haar n=1..5 (seeds 0-2 and n)
# and structured corpora, both gate sets, lay in [0.716, 1.097]; n=1 has
# the widest spread, since its rounding error has rank at most 3.  For a
# rank-1 error the ratio is sqrt(Gamma(8, 1) / 8), outside this bound with
# probability 1.1e-3, and errors of higher rank concentrate more.
RATIO_BOUND = (0.5, 2.0)

_HAAR = [(n, seed, gate_set) for n in range(1, 6) for seed in range(3) for gate_set in GateSet]


def _id(case) -> str:
    n, seed, gate_set = case
    return f"n{n}-seed{seed}-{gate_set.value}"


@functools.cache
def _compiled(n: int, seed: int, gate_set: GateSet) -> tuple[np.ndarray, Circuit]:
    m = haar_unitary(3**n, np.random.default_rng(seed))
    return m, synthesize(m, SynthesisOptions(gate_set=gate_set))[0]


@functools.cache
def _exact(n: int, seed: int, gate_set: GateSet) -> np.ndarray:
    return eval_circuit(_compiled(n, seed, gate_set)[1])


@pytest.mark.parametrize("n", range(1, 6))
def test_eval_on_a_block_is_the_unitary_times_the_block(n):
    c = _compiled(n, 0, GateSet.GCX_CINC)[1]
    rng = np.random.default_rng(700 + n)
    z = rng.standard_normal((3**n, 5)) + 1j * rng.standard_normal((3**n, 5))
    u, kept = _exact(n, 0, GateSet.GCX_CINC), z.copy()
    assert np.max(np.abs(eval_circuit(c, z) - u @ z)) <= 1e-12
    assert np.array_equal(z, kept)  # the block is the run's first state at n <= 3, and stays unwritten
    assert np.max(np.abs(eval_circuit(c, z.real) - u @ z.real)) <= 1e-12  # a real block is taken as complex


@pytest.mark.parametrize("case", _HAAR, ids=_id)
def test_probe_distance_tracks_the_exact_one_and_fails_a_circuit_one_gate_or_one_angle_off(case):
    # one gate removed: the middle GCX/CINC (at n=1, the rotation that turns farthest);
    # one angle moved: the middle rotation's, by 1e-6
    m, c = _compiled(*case)
    tolerance = SynthesisOptions().tolerance
    t = c.table
    probe = probe_distance(c, m)
    assert probe <= tolerance
    assert RATIO_BOUND[0] <= probe / unitary_distance(_exact(*case), m) <= RATIO_BOUND[1]
    two = np.flatnonzero((t["op"] == GCX) | (t["op"] == CINC))
    rot = np.flatnonzero(t["op"] == ROT)
    gone = two[len(two) // 2] if len(two) else rot[np.argmax(np.abs(np.sin(t["angle"][rot] / 2)))]
    assert probe_distance(Circuit(c.n, np.delete(t, gone)), m) > tolerance
    moved = t.copy()
    moved["angle"][rot[len(rot) // 2]] += 1e-6
    assert probe_distance(Circuit(c.n, moved), m) > tolerance


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("shape", ["vector", "short", "long", "empty", "stacked", "transposed"])
def test_eval_refuses_an_operand_of_the_wrong_shape(n, shape):
    d = 3**n
    sizes = {"vector": (d,), "short": (d - 1, 8), "long": (d + 1, 8), "empty": (d, 0),
             "stacked": (2, d, 8), "transposed": (8, d)}
    c = _compiled(n, 0, GateSet.GCX_CINC)[1]
    with pytest.raises(ValueError, match="block"):
        eval_circuit(c, np.ones(sizes[shape], dtype=complex))
