"""Rewrite passes: structural commutation, cancellation, fusion, pipeline.

Every pass must preserve the dense circuit matrix; the checks here
compare before/after evaluations on top of the targeted rewrites.
"""

import dataclasses
import math

import numpy as np
import pytest

from trisect import circuit, passes, synth
from trisect.circuit import (
    Circuit,
    Cinc,
    Gcx,
    GlobalPhase,
    LocalX,
    Rotation,
    _row,
    count_gates,
    eval_circuit,
    parse,
    serialize,
)
from trisect.linalg import haar_unitary, unitary_distance
from trisect.passes import (
    _shape_codes,
    commutes,
    pass_cancel,
    pass_fuse_cinc,
    simplify,
)
from trisect.synth import GateSet, SynthesisOptions, synthesize

from oracle import _merge_pair, gate_matrix, reference_cancel, reference_fuse_cinc
from test_structured import KINDS, structured_input

TOL = 1e-11


def _same_matrix(a: Circuit, b: Circuit, tol: float = TOL) -> bool:
    return float(np.max(np.abs(eval_circuit(a) - eval_circuit(b)))) <= tol


_GATE_POOL = (
    Rotation("x", "01", 0, 0.7),
    Rotation("z", "12", 0, -1.2),
    Rotation("z", "02", 1, 0.4),
    Rotation("y", "01", 1, 2.2),
    LocalX("01", 0),
    LocalX("12", 1),
    Gcx(0, 1, 1, "01"),
    Gcx(0, 2, 1, "01"),
    Gcx(0, 1, 1, "12"),
    Gcx(1, 0, 0, "01"),
    Gcx(1, 1, 0, "02"),
    Cinc(0, 1, 1),
    Cinc(1, 2, 0),
    GlobalPhase(0.9),
)


def _every_gate_kind(n: int) -> list:
    """One gate of each kind, axis, level, qutrit and control pattern on n qutrits."""
    levels = ("01", "02", "12")
    pool = [GlobalPhase(0.3)]
    for q in range(n):
        pool += [Rotation(axis, lv, q, 0.7) for axis in "xyz" for lv in levels]
        pool += [LocalX(lv, q) for lv in levels]
    for c in range(n):
        for t in range(n):
            if c != t:
                for v in range(3):
                    pool += [Gcx(c, v, t, lv) for lv in levels] + [Cinc(c, v, t)]
    return pool


def test_commutes_is_sound():
    # whenever the structural rule says True, the matrices must commute
    pool = _every_gate_kind(3)
    assert len(pool) == 109
    rows = Circuit(3, tuple(pool)).table.tolist()
    mats = [gate_matrix(g, 3) for g in pool]
    commuting = 0
    for a, ra, ma in zip(pool, rows, mats):
        for b, rb, mb in zip(pool, rows, mats):
            if commutes(ra, rb):
                commuting += 1
                assert np.max(np.abs(ma @ mb - mb @ ma)) < 1e-12, (a, b)
    # the exact count pins the rules: any change in what they admit moves it
    assert commuting == 5077


def _with_angle(g, angle: float):
    """g with its rotation angle or global phase set to ``angle``; other gates unchanged."""
    if isinstance(g, Rotation):
        return dataclasses.replace(g, theta=angle)
    if isinstance(g, GlobalPhase):
        return dataclasses.replace(g, phi=angle)
    return g


def test_commutes_reads_no_angle():
    # pass_cancel looks commutes() up per pair of shapes, which holds only
    # if no angle can change its answer
    pool = _every_gate_kind(3)
    rows = [_row(g) for g in pool]
    for angle in (0.0, -2.9, 5.1):
        moved = [_row(_with_angle(g, angle)) for g in pool]
        for a, a2 in zip(rows, moved):
            for b, b2 in zip(rows, moved):
                assert commutes(a2, b) == commutes(a, b2) == commutes(a, b), (a, b, angle)


def test_merge_needs_equal_shapes():
    # pass_cancel tries a merge only on equal shape codes; by the reference
    # merge rules that skips no rewrite
    pool = _every_gate_kind(3)
    shape = dict(zip(map(id, pool), _shape_codes(Circuit(3, tuple(pool)).table, 3).tolist()))
    assert len(set(shape.values())) == len(pool)  # one shape per gate kind
    merges = 0
    for a in pool:
        for b in pool:
            if shape[id(a)] != shape[id(b)]:
                assert _merge_pair(a, b) is None, (a, b)
            elif _merge_pair(a, b) is not None:
                merges += 1
    # every rotation, LocalX and GCX merges with itself; CINC and phases never
    assert merges == 3 * 9 + 3 * 3 + 6 * 3 * 3


def test_commutes_specific_rules():
    def commutes(a, b):
        return passes.commutes(_row(a), _row(b))

    # disjoint supports
    assert commutes(Rotation("x", "01", 0, 1.0), Rotation("y", "12", 1, 2.0))
    # z rotation through the control of a controlled gate
    assert commutes(Rotation("z", "02", 0, 1.0), Gcx(0, 1, 1, "01"))
    assert commutes(Rotation("z", "02", 0, 1.0), Cinc(0, 1, 1))
    # not through the target
    assert not commutes(Rotation("z", "02", 1, 1.0), Gcx(0, 1, 1, "01"))
    # same-control different-value controlled pairs
    assert commutes(Gcx(0, 1, 1, "01"), Gcx(0, 2, 1, "12"))
    # same target and level, different controls values
    assert commutes(Gcx(0, 1, 1, "01"), Gcx(0, 2, 1, "01"))
    # x rotation and the matching swap on one qutrit
    assert commutes(LocalX("01", 0), Rotation("x", "01", 0, 0.3))
    assert not commutes(LocalX("01", 0), Rotation("z", "01", 0, 0.3))
    # global phase with anything
    assert commutes(GlobalPhase(1.0), Gcx(0, 1, 1, "01"))


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


def test_cancel_annihilates_involution_pairs():
    c = Circuit(2, (Gcx(0, 1, 1, "01"), Gcx(0, 1, 1, "01"), LocalX("12", 0), LocalX("12", 0)))
    out = pass_cancel(c)
    assert out.gates == ()


def test_cancel_merges_rotations_and_phases():
    c = Circuit(
        1,
        (
            Rotation("z", "01", 0, 1.0),
            Rotation("z", "01", 0, 2.5),
            GlobalPhase(0.4),
            GlobalPhase(-0.4),
        ),
    )
    out = pass_cancel(c)
    assert out.gates == (Rotation("z", "01", 0, 3.5),)
    assert _same_matrix(c, out)


def test_cancel_wraps_rotation_angle_mod_4pi():
    c = Circuit(1, (Rotation("y", "02", 0, 3 * math.pi), Rotation("y", "02", 0, 2 * math.pi)))
    out = pass_cancel(c)
    assert len(out.gates) == 1
    assert out.gates[0].theta == pytest.approx(math.pi, abs=1e-12)  # 5*pi mod 4*pi
    assert _same_matrix(c, out)


@pytest.mark.parametrize(
    "text",
    ["PHASE 1e308\nPHASE 1e308", "R z 01 q0 1e308\nR z 01 q0 1e308", "R y 12 q0 -1.7e308\nR y 12 q0 -1.7e308"],
)
def test_overflowing_angle_sums(text):
    # every angle is finite, only their sum overflows: merged and simulated modulo the period
    c = parse(f"QUTRITS 1\n{text}\n")
    u = eval_circuit(c)
    assert np.all(np.isfinite(u))
    assert unitary_distance(eval_circuit(simplify(c)), u) < 1e-9


def test_cancel_sums_overflowing_phases_as_the_loop_does():
    phases = (1e308, 1e308, -0.5, 3.0)
    loop = 0.0
    for p in phases:
        loop = circuit._add_angles(loop, p)
    out = pass_cancel(Circuit(1, tuple(GlobalPhase(p) for p in phases)))
    assert out.gates == (GlobalPhase(passes._wrap(loop, 2 * math.pi)),)


def test_cancel_drops_negligible_angles():
    c = Circuit(1, (Rotation("x", "01", 0, 1e-15), GlobalPhase(2 * math.pi)))
    assert pass_cancel(c).gates == ()


def test_cancel_cascades_through_merges():
    # after the inner pair cancels, the outer rotations become adjacent
    c = Circuit(
        2,
        (
            Rotation("z", "01", 0, 0.3),
            Gcx(0, 1, 1, "12"),
            Gcx(0, 1, 1, "12"),
            Rotation("z", "01", 0, -0.3),
        ),
    )
    assert pass_cancel(c).gates == ()


def _random_circuit(rng: np.random.Generator, pool: list, length: int) -> Circuit:
    """A circuit over a few gate kinds of ``pool``, so that partners meet often."""
    kinds = rng.choice(len(pool), size=8, replace=False)
    angles = (0.7, -0.7, 1.3, 4 * math.pi - 0.7)
    gates = (_with_angle(pool[i], float(rng.choice(angles))) for i in rng.choice(kinds, size=length))
    return Circuit(3, tuple(gates))


def _fresh_angles(c: Circuit, rng: np.random.Generator) -> Circuit:
    """``c`` with new nonzero angles on its rotations and phases: the same gate skeleton."""
    t = c.table.copy()
    angled = (t["op"] == circuit.ROT) | (t["op"] == circuit.PHASE)
    t["angle"][angled] = rng.choice((0.7, -0.7, 1.3, 4 * math.pi - 0.7), size=np.count_nonzero(angled))
    return Circuit(c.n, t)


def test_cancel_matches_reference_on_random_circuits(monkeypatch):
    monkeypatch.setattr(passes, "_PLANS", {})
    pool = _every_gate_kind(3)
    rng = np.random.default_rng(16)
    removed = 0
    for _ in range(200):
        c = _random_circuit(rng, pool, int(rng.integers(1, 60)))
        out = pass_cancel(c)
        assert out.gates == reference_cancel(c).gates
        again = _fresh_angles(c, rng)  # replays the plan just recorded, or sweeps where a merge vanishes anew
        assert pass_cancel(again).gates == reference_cancel(again).gates
        removed += len(c.gates) - len(out.gates)
    assert removed > 1000  # the corpus exercises merges, not just appends


@pytest.mark.parametrize(
    "recorded, replayed",
    [((0.3, 0.4), (0.3, -0.3)), ((0.3, -0.3), (0.3, 0.4)), ((0.3, 0.4), (0.3, 1e-13 - 0.3))],
    ids=["merge-vanishes-on-replay", "annihilation-stays-on-replay", "merge-falls-below-eps"],
)
def test_replay_that_meets_another_vanishing_sweeps_again(monkeypatch, recorded, replayed):
    # the q1 merge is replayed before the q0 one disagrees, so its angle must be put back;
    # whether the q0 rotations vanish decides whether the X12 pair around them annihilates
    monkeypatch.setattr(passes, "_PLANS", {})
    sweeps = []
    monkeypatch.setattr(passes, "_sweep", lambda *a, _sweep=passes._sweep: sweeps.append(1) or _sweep(*a))

    def circuit_of(a, b):
        text = f"R z 01 q1 0.2\nR z 01 q1 0.5\nX 12 q0\nR y 01 q0 {a!r}\nR y 01 q0 {b!r}\nX 12 q0\n"
        return parse(f"QUTRITS 2\n{text}")

    first, second = circuit_of(*recorded), circuit_of(*replayed)
    assert pass_cancel(first).gates == reference_cancel(first).gates
    out = pass_cancel(second)
    assert out.gates == reference_cancel(second).gates
    assert out.gates[0] == Rotation("z", "01", 1, 0.2 + 0.5)
    assert len(sweeps) == 2 and len(passes._PLANS) == 1  # the new plan replaced the old one
    assert pass_cancel(second) == out and len(sweeps) == 2  # and is replayed


def test_synthesis_with_a_filled_plan_store_equals_a_cold_one(monkeypatch):
    runs = [(haar_unitary(3**n, np.random.default_rng(seed)), g) for n in (2, 3, 4) for seed in range(3) for g in GateSet]
    runs += [(structured_input(kind, n), g) for kind in KINDS for n in (2, 3) for g in GateSet]
    text = lambda m, g: f"{serialize((out := synthesize(m, SynthesisOptions(gate_set=g)))[0])}{out[1].distance!r}"
    monkeypatch.setattr(passes, "_PLANS", {})
    cold = []
    for m, g in runs:  # with the sweep plans and the factor maps emptied
        passes._PLANS.clear()
        synth._factor_map.cache_clear()
        cold.append(text(m, g))
    passes._PLANS.clear()
    sweeps = []
    monkeypatch.setattr(passes, "_sweep", lambda *a, _sweep=passes._sweep: sweeps.append(1) or _sweep(*a))
    assert [text(m, g) for m, g in runs] == cold
    # the later Haar inputs of each width and every gcx+cinc run replay a plan of another run
    assert len(sweeps) <= 3 + 2 * len(KINDS)


def test_only_a_sweep_computes_shape_codes(monkeypatch):
    monkeypatch.setattr(passes, "_PLANS", {})
    made = []
    monkeypatch.setattr(passes, "_shape_codes", lambda *a, _codes=passes._shape_codes: made.append(1) or _codes(*a))
    rng = np.random.default_rng(4)
    skeleton = _random_circuit(rng, _every_gate_kind(3), 60).table

    def with_angles() -> Circuit:  # positive angles summing below 4 pi: no merge vanishes, so the plan replays
        t = skeleton.copy()
        t["angle"][t["op"] == circuit.ROT] = rng.uniform(0.1, 0.2, np.count_nonzero(t["op"] == circuit.ROT))
        return Circuit(3, t)

    first, again = with_angles(), with_angles()
    assert pass_cancel(first).gates == reference_cancel(first).gates
    assert len(made) == 1  # a miss sweeps, and computes the codes once
    assert pass_cancel(again).gates == reference_cancel(again).gates
    assert len(made) == 1 and len(passes._PLANS) == 1  # the replay computes none


def test_cancel_leaves_its_input_unchanged(monkeypatch):
    monkeypatch.setattr(passes, "_PLANS", {})
    rng = np.random.default_rng(3)
    c = _random_circuit(rng, _every_gate_kind(3), 60)
    before = c.table.copy()
    for _ in range(2):  # a sweep, then a replay
        out = pass_cancel(c)
        assert c.table.tobytes() == before.tobytes()
        assert not out.table.flags.writeable
    assert len(passes._PLANS) == 1


def test_plan_store_stays_at_its_bound(monkeypatch):
    monkeypatch.setattr(passes, "_PLANS", {})
    circuits = [Circuit(2, (Rotation("x", "01", 0, 0.5),) * k) for k in range(1, passes._PLANS_MAX + 6)]
    for c in circuits:
        pass_cancel(c)
        assert len(passes._PLANS) <= passes._PLANS_MAX
    assert len(passes._PLANS) == passes._PLANS_MAX
    for c in (circuits[0], circuits[-1]):  # a dropped plan and a kept one
        assert pass_cancel(c) == reference_cancel(c)


def _input(kind: str, n: int) -> np.ndarray:
    """A seed-0 Haar unitary, or one of the structured corpus."""
    return haar_unitary(3**n, np.random.default_rng(0)) if kind == "haar" else structured_input(kind, n)


@pytest.mark.parametrize("gate_set", list(GateSet), ids=lambda g: g.value)
@pytest.mark.parametrize(
    "kind, n",
    [("haar", n) for n in (2, 3, 4)]
    + [(k, n) for k in ("identity", "permutation", "gcx", "cinc", "diagonal") for n in (2, 3)],
)
def test_cancel_matches_reference_on_synthesis_output(monkeypatch, kind, n, gate_set):
    monkeypatch.setattr(synth, "simplify", lambda c, **_: c)  # the unswept circuit
    c, _ = synthesize(_input(kind, n), SynthesisOptions(gate_set=gate_set))
    assert pass_cancel(c).gates == reference_cancel(c).gates


@pytest.mark.parametrize("gate_set", list(GateSet), ids=lambda g: g.value)
@pytest.mark.parametrize("kind, n", [("haar", n) for n in (2, 3, 4)] + [(k, n) for k in KINDS for n in (2, 3)])
def test_synthesis_output_is_a_fixed_point_of_simplify(kind, n, gate_set):
    c, _ = synthesize(_input(kind, n), SynthesisOptions(gate_set=gate_set))
    assert simplify(c, use_cinc=gate_set is GateSet.GCX_CINC).gates == c.gates


# ---------------------------------------------------------------------------
# reordering
# ---------------------------------------------------------------------------


def test_reorder_moves_partner_through_commuting_blocker():
    # the z rotation on the control commutes with the GCX in between
    c = Circuit(
        2,
        (
            Rotation("z", "01", 0, 0.8),
            Gcx(0, 1, 1, "01"),
            Rotation("z", "01", 0, -0.8),
        ),
    )
    out = pass_cancel(c)
    assert count_gates(out).rotations == 0
    assert _same_matrix(c, out)


def test_reorder_respects_noncommuting_blockers():
    c = Circuit(
        1,
        (
            Rotation("z", "01", 0, 0.8),
            Rotation("x", "01", 0, 1.0),
            Rotation("z", "01", 0, -0.8),
        ),
    )
    out = pass_cancel(c)
    assert count_gates(out).rotations == 3  # nothing may move
    assert _same_matrix(c, out)


def test_cancel_reaches_partner_past_nine_commuting_gates():
    # every GCX controlled by q0 commutes with a z rotation on q0, so the
    # pair meets however many of them sit in between
    theta = 0.6
    blockers = tuple(Gcx(0, v, 1, lvl) for v in range(3) for lvl in ("01", "02", "12"))
    c = Circuit(2, (Rotation("z", "01", 0, theta),) + blockers + (Rotation("z", "01", 0, -theta),))
    out = pass_cancel(c)
    assert out.gates == blockers
    assert _same_matrix(c, out)


def test_reorder_preserves_matrix_on_random_circuits():
    rng = np.random.default_rng(7)
    for _ in range(5):
        gates = tuple(_GATE_POOL[i] for i in rng.integers(0, len(_GATE_POOL), size=25))
        c = Circuit(2, gates)
        assert _same_matrix(c, pass_cancel(c))


# ---------------------------------------------------------------------------
# targeted rewrites
# ---------------------------------------------------------------------------


def test_fuse_cinc_rewrites_adjacent_pair():
    for value in range(3):
        c = Circuit(2, (Gcx(0, value, 1, "01"), Gcx(0, value, 1, "02")))
        out = pass_fuse_cinc(c)
        assert out.gates == (Cinc(0, value, 1),)
        assert _same_matrix(c, out)


def test_fuse_cinc_requires_01_then_02_order():
    # the reversed application order is a different operator; no fusion
    c = Circuit(2, (Gcx(0, 1, 1, "02"), Gcx(0, 1, 1, "01")))
    assert pass_fuse_cinc(c).gates == c.gates


@pytest.mark.parametrize(
    "prev",
    [Gcx(0, 1, 1, "02"), Gcx(0, 1, 1, "12"), Gcx(0, 2, 1, "01"), Gcx(1, 1, 0, "01"), Gcx(0, 1, 2, "01"),
     LocalX("01", 1), Cinc(0, 1, 1)],
)
def test_fuse_cinc_needs_the_matching_01_gcx(prev):
    # only GCX(c=v -> t, 01) directly before GCX(c=v -> t, 02) fuses
    c = Circuit(3, (prev, Gcx(0, 1, 1, "02")))
    assert pass_fuse_cinc(c).gates == c.gates


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("use_cinc", [False, True])
def test_simplify_preserves_matrix(use_cinc):
    rng = np.random.default_rng(11)
    for _ in range(5):
        gates = tuple(_GATE_POOL[i] for i in rng.integers(0, len(_GATE_POOL), size=30))
        c = Circuit(2, gates)
        out = simplify(c, use_cinc=use_cinc)
        assert _same_matrix(c, out)
        if use_cinc is False:
            assert count_gates(out).cinc == count_gates(c).cinc  # none created


def test_simplify_collapses_circuit_times_inverse():
    # a circuit followed by its inverse simplifies to (almost) nothing
    fwd = (
        Rotation("z", "01", 0, 0.5),
        Gcx(0, 1, 1, "01"),
        Rotation("y", "12", 1, 1.1),
    )
    inv = (
        Rotation("y", "12", 1, -1.1),
        Gcx(0, 1, 1, "01"),
        Rotation("z", "01", 0, -0.5),
    )
    out = simplify(Circuit(2, fwd + inv))
    assert out.gates == ()


def test_simplify_pulls_phase_to_front():
    c = Circuit(1, (Rotation("x", "01", 0, 1.0), GlobalPhase(0.3), GlobalPhase(0.4)))
    out = simplify(c)
    assert isinstance(out.gates[0], GlobalPhase)
    assert out.gates[0].phi == pytest.approx(0.7)
    assert count_gates(out).phases == 1


def test_simplify_idempotent():
    rng = np.random.default_rng(13)
    gates = tuple(_GATE_POOL[i] for i in rng.integers(0, len(_GATE_POOL), size=30))
    once = simplify(Circuit(2, gates))
    twice = simplify(once)
    assert once.gates == twice.gates


_FUSE_RUNS = {
    "gcx01-gcx01-gcx02": [Gcx(0, 1, 1, "01"), Gcx(0, 1, 1, "01"), Gcx(0, 1, 1, "02")],
    "gcx01-cinc": [Gcx(0, 1, 1, "01"), Cinc(0, 1, 1)],
    "gcx01-gcx02-gcx02": [Gcx(0, 1, 1, "01"), Gcx(0, 1, 1, "02"), Gcx(0, 1, 1, "02")],
    "gcx02-gcx01-gcx02": [Gcx(0, 1, 1, "02"), Gcx(0, 1, 1, "01"), Gcx(0, 1, 1, "02")],
    "two-pairs": [Gcx(0, 1, 1, "01"), Gcx(0, 1, 1, "02"), Gcx(1, 2, 0, "01"), Gcx(1, 2, 0, "02")],
    "pair-at-the-end": [Rotation("z", "01", 0, 0.3), Gcx(1, 0, 0, "01"), Gcx(1, 0, 0, "02")],
}


@pytest.mark.parametrize("run", _FUSE_RUNS.values(), ids=_FUSE_RUNS.keys())
def test_fuse_cinc_matches_reference_scan(run):
    c = Circuit(2, tuple(run))
    assert pass_fuse_cinc(c) == reference_fuse_cinc(c)


def test_fuse_cinc_matches_reference_on_random_runs():
    # runs drawn from the near misses, so pairs overlap, chain and break
    rng = np.random.default_rng(31)
    pool = [Gcx(0, 1, 1, "01"), Gcx(0, 1, 1, "02"), Gcx(0, 2, 1, "02"), Gcx(1, 1, 0, "02"), Cinc(0, 1, 1)]
    fused = 0
    for _ in range(300):
        c = Circuit(2, tuple(pool[i] for i in rng.integers(0, len(pool), rng.integers(0, 12))))
        got = pass_fuse_cinc(c)
        assert got == reference_fuse_cinc(c)
        fused += count_gates(got).cinc - count_gates(c).cinc
    assert fused > 30  # the runs do fuse
