"""Circuit container, evaluation, counting, and the text format."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from trisect import algebra, circuit
from trisect.algebra import LEVELS
from trisect.circuit import (
    GATE_DTYPE,
    Circuit,
    CircuitParseError,
    Cinc,
    Gcx,
    GlobalPhase,
    LocalX,
    Rotation,
    count_gates,
    eval_circuit,
    parse,
    serialize,
)
from trisect.linalg import haar_unitary, unitary_distance
from trisect.synth import GateSet, SynthesisOptions, probe_distance, synthesize

from oracle import gate_matrix
from test_probes import RATIO_BOUND
from test_structured import KINDS, structured_input


def _random_circuit(n: int, length: int, rng: np.random.Generator) -> Circuit:
    gates = []
    levels = ("01", "02", "12")
    for _ in range(length):
        kind = rng.integers(0, 5)
        q = int(rng.integers(0, n))
        lv = levels[rng.integers(0, 3)]
        if kind == 0:
            gates.append(Rotation("xyz"[rng.integers(0, 3)], lv, q, float(rng.uniform(-7, 7))))
        elif kind == 1:
            gates.append(LocalX(lv, q))
        elif kind == 4:
            gates.append(GlobalPhase(float(rng.uniform(-3, 3))))
        else:
            t = int(rng.integers(0, n))
            if t == q:
                t = (q + 1) % n
            v = int(rng.integers(0, 3))
            gates.append(Gcx(q, v, t, lv) if kind == 2 else Cinc(q, v, t))
    return Circuit(n, tuple(gates))


# ---------------------------------------------------------------------------
# gate records, checked when a Circuit takes them
# ---------------------------------------------------------------------------


def test_gate_validation():
    # a gate object is a plain record: the Circuit that takes it names the rule it breaks
    for gate, fragment in [
        (Rotation("q", "01", 0, 1.0), "bad rotation"),
        (Rotation("xy", "01", 0, 1.0), "bad rotation"),  # a substring of "xyz" is not an axis
        (Rotation("x", "10", 0, 1.0), "bad rotation"),
        (Rotation("x", "01", 0, float("nan")), "finite"),
        (LocalX("21", 0), "bad level"),
        (Gcx(0, 1, 1, "21"), "bad level"),
        (Gcx(1, 1, 1, "01"), "must differ"),  # control == target
        (Gcx(0, 5, 1, "01"), "control value must be 0, 1 or 2, got 5"),
        (Cinc(0, -1, 1), "control value must be 0, 1 or 2, got -1"),
        (GlobalPhase(float("inf")), "finite"),
    ]:
        with pytest.raises(ValueError, match=fragment):
            Circuit(2, (gate,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_angles_must_be_finite(bad):
    for value in (bad, np.float64(bad)):
        with pytest.raises(ValueError, match="finite"):
            Circuit(1, (Rotation("z", "12", 0, value),))
        with pytest.raises(ValueError, match="finite"):
            Circuit(1, (GlobalPhase(value),))
    # numpy scalars are accepted and kept as given
    assert Rotation("z", "12", 0, np.float64(0.5)).theta == 0.5
    assert GlobalPhase(np.float64(-0.25)).phi == -0.25
    c = Circuit(1, (Rotation("z", "12", 0, np.float64(0.5)), GlobalPhase(np.float64(-0.25))))
    assert c.gates == (Rotation("z", "12", 0, 0.5), GlobalPhase(-0.25))
    # an angle that is not a real number is refused, not converted ("1.5" would read as 1.5)
    for value in ("1.5", None, 1 + 2j):
        for gate in (Rotation("z", "12", 0, value), GlobalPhase(value)):
            with pytest.raises(TypeError, match="angles must be real numbers"):
                Circuit(1, (gate,))


_NON_INTEGER_FIELDS = {
    "rotation-float-qutrit": lambda: Rotation("z", "01", 1.0, 0.5),
    "rotation-bool-qutrit": lambda: Rotation("z", "01", True, 0.5),
    "localx-numpy-float-qutrit": lambda: LocalX("01", np.float64(0.0)),
    "gcx-float-control": lambda: Gcx(0.0, 1, 1, "01"),
    "gcx-bool-value": lambda: Gcx(0, True, 1, "01"),
    "gcx-float-target": lambda: Gcx(0, 1, 1.0, "01"),
    "cinc-bool-control": lambda: Cinc(False, 1, 1),
    "cinc-float-value": lambda: Cinc(0, 2.0, 1),
    "cinc-numpy-bool-target": lambda: Cinc(0, 1, np.True_),
}


@pytest.mark.parametrize("build", _NON_INTEGER_FIELDS.values(), ids=_NON_INTEGER_FIELDS.keys())
def test_gate_fields_must_be_integers(build):
    # a float or bool would serialize as q1.0 or q0=True, which parse refuses
    with pytest.raises(ValueError, match="must be integers"):
        Circuit(3, (build(),))


@pytest.mark.parametrize("to_int", [int, np.int64, np.int32, np.uint8, np.intp])
def test_accepted_gates_round_trip(to_int):
    gates = (
        Rotation("y", "02", to_int(1), 0.25),
        LocalX("12", to_int(0)),
        Gcx(to_int(0), to_int(2), to_int(1), "01"),
        Cinc(to_int(1), to_int(0), to_int(0)),
        GlobalPhase(np.float64(0.5)),
    )
    c = Circuit(2, gates)
    assert parse(serialize(c)) == c


def test_circuit_validates_width():
    with pytest.raises(ValueError):
        Circuit(0, ())
    for width in (2.0, True):  # would serialize as "QUTRITS 2.0" or "QUTRITS True"
        with pytest.raises(ValueError, match="must be integers"):
            Circuit(width, ())
    assert parse(serialize(Circuit(np.int64(2), ()))).n == 2
    with pytest.raises(ValueError, match="outside width"):
        Circuit(2, (Rotation("x", "01", 2, 1.0),))
    with pytest.raises(ValueError, match="outside width"):
        Circuit(2, (Gcx(0, 1, 2, "01"),))
    # the table's qutrit columns are int16: anything wider is refused, never wrapped
    with pytest.raises(ValueError, match="the gate table's range"):
        Circuit(2**15, ())
    for gate in (Rotation("x", "01", 40000, 1.0), Cinc(0, 1, 2**40), Gcx(2**70, 1, 0, "01")):
        with pytest.raises(ValueError, match="outside width"):
            Circuit(3, (gate,))


def _table_with(gate, **fields) -> np.ndarray:
    """The one-row table of ``gate`` with some columns overwritten."""
    t = Circuit(3, (gate,)).table.copy()
    for name, value in fields.items():
        t[name] = value
    return t


# (valid gate, columns to overwrite, the gate that breaks the same rule, a fragment of that rule's message)
_BAD_ROWS = {
    "qutrit-outside-width": (
        Rotation("x", "01", 0, 1.0), {"q0": 3, "q1": 3}, Rotation("x", "01", 3, 1.0), "touches qutrit 3 outside width 3"
    ),
    "target-outside-width": (Gcx(0, 1, 2, "01"), {"q1": 5}, Gcx(0, 1, 5, "01"), "touches qutrit 5 outside width 3"),
    "control-is-target": (Gcx(0, 1, 2, "01"), {"q1": 0}, Gcx(0, 1, 0, "01"), "control and target must differ"),
    "cinc-control-is-target": (Cinc(1, 1, 2), {"q0": 2}, Cinc(2, 1, 2), "control and target must differ"),
    "value-3": (Gcx(0, 1, 2, "12"), {"value": 3}, Gcx(0, 3, 2, "12"), "control value must be 0, 1 or 2, got 3"),
    "value-negative": (Cinc(0, 1, 2), {"value": -1}, Cinc(0, -1, 2), "control value must be 0, 1 or 2, got -1"),
    "nan-angle": (
        Rotation("y", "02", 1, 0.5), {"angle": np.nan}, Rotation("y", "02", 1, np.nan), "rotation angle must be finite"
    ),
    "inf-phase": (GlobalPhase(0.5), {"angle": -np.inf}, GlobalPhase(-np.inf), "phase must be finite"),
}


@pytest.mark.parametrize("case", _BAD_ROWS.values(), ids=_BAD_ROWS.keys())
def test_table_rejects_a_bad_field_with_the_gate_error(case):
    gate, fields, bad_gate, fragment = case
    with pytest.raises(ValueError, match=fragment) as want:
        Circuit(3, (bad_gate,))
    with pytest.raises(ValueError) as got:
        Circuit(3, _table_with(gate, **fields))
    assert str(got.value) == str(want.value)


def test_table_rejects_rows_off_canonical_form():
    # an unused field that is not 0 would give one gate two rows
    for gate, fields in [
        (Rotation("x", "01", 0, 1.0), {"q1": 1}),
        (LocalX("01", 1), {"angle": 0.5}),
        (Cinc(0, 1, 2), {"level": 2}),
        (GlobalPhase(0.5), {"q0": 1, "q1": 1}),
        (Gcx(0, 1, 2, "01"), {"axis": 1}),
    ]:
        with pytest.raises(ValueError, match="canonical"):
            Circuit(3, _table_with(gate, **fields))
    with pytest.raises(ValueError, match="code"):
        Circuit(3, _table_with(Rotation("x", "01", 0, 1.0), axis=3))
    with pytest.raises(TypeError, match="GATE_DTYPE"):
        Circuit(3, np.zeros(2))
    with pytest.raises(ValueError, match="read-only"):
        Circuit(3, _table_with(GlobalPhase(0.5))).table["angle"][0] = 1.0


def test_table_is_a_copy_of_the_callers_array():
    gates = (Gcx(0, 1, 2, "01"), Rotation("x", "01", 1, 0.5))
    source = Circuit(3, gates).table.copy()
    c = Circuit(3, source)
    source["q1"][0], source["op"][1] = 7, 9  # out of width and no op code: must not reach c
    assert not np.shares_memory(c.table, source)
    assert c == Circuit(3, gates) and c.gates == gates


@pytest.mark.parametrize("step", [1, 3], ids=["contiguous", "strided"])
def test_stored_table_is_a_read_only_copy_of_its_source(step):
    source = np.repeat(_random_circuit(3, 40, np.random.default_rng(5)).table, step)[::step]
    c = Circuit(3, source)
    assert source.flags.writeable and not c.table.flags.writeable
    assert not np.shares_memory(c.table, source) and c.table.dtype == GATE_DTYPE
    assert c.table.tobytes() == np.ascontiguousarray(source).tobytes()


@pytest.mark.parametrize("join", [np.concatenate, np.hstack])
def test_circuit_takes_a_joined_table(join):
    a, b = (_random_circuit(3, 20, np.random.default_rng(seed)) for seed in (6, 7))
    joined = join([a.table, b.table])
    assert joined.dtype != GATE_DTYPE  # numpy packs GATE_DTYPE's fields
    c = Circuit(3, joined)
    assert c.table.dtype == GATE_DTYPE and not c.table.flags.writeable
    assert c.gates == a.gates + b.gates
    with pytest.raises(ValueError, match="outside width"):  # still checked, before the conversion
        Circuit(2, joined)
    names = list(GATE_DTYPE.names)
    swapped = joined.astype([(name, GATE_DTYPE[name].newbyteorder(">")) for name in names])
    assert Circuit(3, swapped) == c  # the fields in the other byte order are converted too
    for other in (
        [(name, "i8") for name in names[:-1]] + [("angle", "f8")],  # the names, other types
        [(name.upper(), GATE_DTYPE[name]) for name in names],  # the types, other names
        [(name, GATE_DTYPE[name]) for name in names[::-1]],  # the fields in another order
        [(name, GATE_DTYPE[name]) for name in names[:-1]],  # a field short
    ):
        with pytest.raises(TypeError, match="GATE_DTYPE"):
            Circuit(3, np.zeros(len(joined), other))


def _same_table(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal in every column, angles bit for bit."""
    return a.dtype == b.dtype == GATE_DTYPE and all(
        np.array_equal(a[name].view(np.int64) if name == "angle" else a[name],
                       b[name].view(np.int64) if name == "angle" else b[name])
        for name in GATE_DTYPE.names
    )


_SYNTHESES = [("haar", n) for n in (2, 3, 4)] + [(kind, n) for kind in KINDS for n in (2, 3)]


@pytest.mark.parametrize("gate_set", list(GateSet), ids=lambda g: g.value)
@pytest.mark.parametrize("kind,n", _SYNTHESES)
def test_gate_objects_reproduce_the_table(kind, n, gate_set):
    u = haar_unitary(3**n, np.random.default_rng(n)) if kind == "haar" else structured_input(kind, n)
    c, _ = synthesize(u, SynthesisOptions(gate_set=gate_set))
    again = Circuit(c.n, c.gates)
    assert _same_table(again.table, c.table)
    assert serialize(again) == serialize(c) and again == c and parse(serialize(c)) == c


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_gate_matrix_matches_algebra_builders():
    r = Rotation("y", "02", 1, 0.9)
    want = algebra.embed_local(algebra.rotation("y", "02", 0.9), 2, 1)
    assert np.array_equal(gate_matrix(r, 2), want)

    g = Gcx(1, 2, 0, "12")
    assert np.array_equal(gate_matrix(g, 2), algebra.gcx_matrix(2, 1, 2, 0, "12"))

    c = Cinc(0, 0, 1)
    assert np.array_equal(gate_matrix(c, 2), algebra.cinc_matrix(2, 0, 0, 1))

    x = LocalX("02", 0)
    want = algebra.embed_local(algebra.generator(algebra.GeneratorId.X02), 2, 0)
    assert np.array_equal(gate_matrix(x, 2), want)

    p = gate_matrix(GlobalPhase(0.5), 1)
    assert np.max(np.abs(p - np.exp(0.5j) * np.eye(3))) < 1e-15


def test_eval_applies_first_gate_first():
    # gates[0] acts first, so the matrix is (second gate) @ (first gate)
    a = Rotation("x", "01", 0, 1.1)
    b = Rotation("z", "01", 0, 0.7)
    got = eval_circuit(Circuit(1, (a, b)))
    want = gate_matrix(b, 1) @ gate_matrix(a, 1)
    assert np.max(np.abs(got - want)) < 1e-15
    # and the other order differs (these two do not commute)
    other = eval_circuit(Circuit(1, (b, a)))
    assert np.max(np.abs(got - other)) > 1e-3


def _every_gate_kind(n: int, rng: np.random.Generator) -> list:
    """Every rotation axis/level and LocalX level on each qutrit, every
    GCX/CINC control value, level and ordered (control, target) pair, and
    global phases, shuffled."""
    gates: list = [GlobalPhase(float(rng.uniform(-3, 3))) for _ in range(2)]
    for q in range(n):
        gates += [Rotation(a, lv, q, float(rng.uniform(-7, 7))) for a in "xyz" for lv in LEVELS]
        gates += [LocalX(lv, q) for lv in LEVELS]
    for c, t in itertools.permutations(range(n), 2):
        for v in range(3):
            gates += [Gcx(c, v, t, lv) for lv in LEVELS] + [Cinc(c, v, t)]
    rng.shuffle(gates)
    return gates


def _dense_product(gates, n: int) -> np.ndarray:
    want = np.eye(3**n, dtype=complex)
    for g in gates:
        want = gate_matrix(g, n) @ want
    return want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eval_matches_dense_gate_product(n):
    rng = np.random.default_rng(100 + n)
    gates = _every_gate_kind(n, rng) + _every_gate_kind(n, rng)
    got = eval_circuit(Circuit(n, tuple(gates)))
    assert got.shape == (3**n, 3**n) and got.dtype == np.complex128 and got.flags.c_contiguous
    assert np.max(np.abs(got - _dense_product(gates, n))) <= 1e-13


def _segment(qs: tuple[int, ...], rng: np.random.Generator, axes: str = "xyz") -> list:
    """Gates first touching the qutrits ``qs`` in that order, with rotations
    (about ``axes``) pending on both ends of every two-qutrit gate and at the end."""

    def rot(q):
        return Rotation(axes[rng.integers(0, len(axes))], LEVELS[rng.integers(0, 3)], q,
                        float(rng.uniform(-7, 7)))

    gates = [rot(q) for q in qs] + [LocalX(LEVELS[rng.integers(0, 3)], qs[0])]
    for c, t in itertools.permutations(qs, 2):
        v = int(rng.integers(0, 3))
        gates += [Gcx(c, v, t, LEVELS[rng.integers(0, 3)]), rot(c), rot(t), Cinc(t, v, c), rot(c)]
    return gates + [GlobalPhase(float(rng.uniform(-3, 3)))] + [rot(q) for q in qs]


# Hand-placed runs, one per segment (first-touch order; each segment starts
# on a qutrit the previous one left alone, so every run spills at the
# fourth qutrit): runs first touched in unsorted order (q2 then q0), a
# two-qutrit run at the end and, at n=5, the non-adjacent run {0, 2, 4}.
_RUNS = {
    4: [(0, 1, 2), (3, 1, 0), (2, 0, 1), (3, 2)],
    5: [(0, 2, 4), (3, 4, 1), (2, 0, 3), (4, 1)],
}
# The axes each run is applied on: its qutrits, padded to three with the lowest untouched ones.
_RUN_AXES = {4: _RUNS[4][:3] + [(3, 2, 0)], 5: _RUNS[5][:3] + [(4, 1, 0)]}


@pytest.mark.parametrize("n", [4, 5])
def test_eval_hand_placed_runs(n, monkeypatch):
    rng = np.random.default_rng(200 + n)
    gates = [g for qs in _RUNS[n] for g in _segment(qs, rng)]
    seen = []
    apply_run = circuit._apply_run
    monkeypatch.setattr(circuit, "_apply_run", lambda u, m, axes: seen.append(tuple(axes)) or apply_run(u, m, axes))
    got = eval_circuit(Circuit(n, tuple(gates)))
    assert seen == _RUN_AXES[n]
    assert got.shape == (3**n, 3**n) and got.dtype == np.complex128 and got.flags.c_contiguous
    _assert_gate_by_gate(got, gates, n, rng, 1e-13 if n == 4 else 1e-12)


def _assert_gate_by_gate(got: np.ndarray, gates: list, n: int, rng: np.random.Generator, tol: float = 1e-12):
    """``got`` against the gates' dense product, or at n=5 against the gates
    applied one by one to three seeded vectors."""
    if n < 5:
        assert np.max(np.abs(got - _dense_product(gates, n))) <= tol
        return
    v = rng.standard_normal((3**n, 3)) + 1j * rng.standard_normal((3**n, 3))
    want = v
    for g in gates:
        want = gate_matrix(g, n) @ want
    assert np.max(np.abs(got @ v - want)) <= tol


@pytest.mark.parametrize("spill", [0, 1, 20])
def test_eval_cuts_a_run_across_a_chunk_boundary(spill, monkeypatch):
    # n=4: a run on q0, q1, q2 fills the first chunk and its last ``spill`` rows
    # open the second, where the next segment's q3 cuts it (spill 0: the cut
    # comes before the second chunk's first row); the hand-placed runs follow
    rng = np.random.default_rng(400 + spill)
    segments = [_segment(qs, rng) for qs in _RUNS[4]]
    lead = [Rotation("x", "01", q, 0.3) for q in range(3)]  # first touch in order q0, q1, q2
    lead += _random_circuit(3, circuit._CHUNK + spill - len(segments[0]) - len(lead), rng).gates
    gates = lead + [g for seg in segments for g in seg]
    assert len(lead + segments[0]) == circuit._CHUNK + spill
    seen = []
    apply_run = circuit._apply_run
    monkeypatch.setattr(circuit, "_apply_run", lambda u, m, axes: seen.append(tuple(axes)) or apply_run(u, m, axes))
    c = Circuit(4, tuple(gates))
    got = eval_circuit(c)
    assert seen == _RUN_AXES[4]
    assert np.max(np.abs(got - _dense_product(gates, 4))) <= 1e-12
    z = rng.standard_normal((81, 3)) + 1j * rng.standard_normal((81, 3))  # a block takes the same runs
    assert np.max(np.abs(eval_circuit(c, z) - got @ z)) <= 1e-12
    assert seen == _RUN_AXES[4] * 2


def test_eval_matches_dense_product_across_chunks():
    # more than two chunks of random gates; a stretch of one-qutrit gates on q0
    # crosses the first chunk boundary, and two rotations on q1 with only a
    # phase between them form one stretch, as phases are left out first
    rng = np.random.default_rng(300)
    gates = list(_random_circuit(3, 2 * circuit._CHUNK + 100, rng).gates)
    b = circuit._CHUNK
    gates[b - 3 : b + 3] = [
        Rotation("x", "01", 0, 0.3), LocalX("12", 0), Rotation("y", "02", 0, -1.2),
        Rotation("z", "12", 0, 2.0), LocalX("01", 0), Rotation("x", "12", 0, 0.7),
    ]
    gates[b + 500 : b + 503] = [Rotation("y", "01", 1, 0.4), GlobalPhase(0.9), Rotation("x", "02", 1, -2.5)]
    got = eval_circuit(Circuit(3, tuple(gates)))
    assert np.max(np.abs(got - _dense_product(gates, 3))) <= 1e-12


def test_eval_keeps_nothing_of_an_applied_run():
    # each run is applied as it is cut, so the peak is a few copies of the
    # 81x81 unitary (~0.1 MB each) and one chunk's arrays: the 3x3 matrices
    # of its general stretches (~0.1 MB), and a (rows, 27) array each of its
    # monomial rows' gather indices (int16), their angles and the flat
    # positions of one doubling round (up to ~0.2 MB each)
    circ, _ = synthesize(haar_unitary(81, np.random.default_rng(1)))
    tracemalloc.start()
    try:
        eval_circuit(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


@pytest.mark.parametrize("n", [2, 4, 5])
def test_eval_phase_only_circuit_is_exact(n):
    got = eval_circuit(Circuit(n, (GlobalPhase(0.3), GlobalPhase(-1.1))))
    assert np.array_equal(got, np.exp(1j * (0.0 + 0.3 + -1.1)) * np.eye(3**n))
    assert got.dtype == np.complex128 and got.flags.c_contiguous


@pytest.fixture(scope="module")
def haar_n5_probes():
    """The Haar seed-0 n=5 circuit applied to a probe block at the default run width."""
    c, _ = synthesize(haar_unitary(243, np.random.default_rng(0)))
    z = np.random.default_rng(1).standard_normal((243, 16)).view(complex)
    return c, z, eval_circuit(c, z)


@pytest.mark.parametrize("width", [4, 5])
def test_eval_at_a_wider_run_width_agrees(haar_n5_probes, width, monkeypatch):
    # a run of 243 states gathers rows past 127, where a signed 8-bit index table would wrap
    c, z, want = haar_n5_probes
    monkeypatch.setattr(circuit, "RUN_QUTRITS", width)
    assert np.max(np.abs(eval_circuit(c, z) - want)) <= 1e-12


def test_eval_rejects_non_gate():
    with pytest.raises(TypeError, match="not a gate"):
        eval_circuit(Circuit(1, ("R x 01 q0 1.0",)))


@pytest.mark.parametrize("entry", ["foo", None, 1.0, (0, 1)], ids=["str", "none", "float", "tuple"])
def test_circuit_refuses_non_gate(entry):
    with pytest.raises(TypeError, match="not a gate"):
        Circuit(1, (Rotation("x", "01", 0, 1.0), entry))


def test_eval_empty_circuit_is_identity():
    assert np.array_equal(eval_circuit(Circuit(2, ())), np.eye(9))


_EDGES = [circuit._CHUNK - 1, circuit._CHUNK, circuit._CHUNK + 1, 2 * circuit._CHUNK + 5]


@pytest.mark.parametrize("rows", sorted({0, 1, 1023, 1024, 1025, 2053, *_EDGES}))
def test_run_plan_has_one_record_per_chunk(rows):
    # no chunk, partial chunks, and tables that end on, just before and just past a chunk's edge
    gates = (Rotation("x", "01", 0, 0.5), Rotation("z", "12", 0, 0.25), Gcx(0, 1, 1, "12"), LocalX("02", 2))
    c = Circuit(3, (gates * rows)[:rows])
    assert np.max(np.abs(eval_circuit(c) - _dense_product(c.gates, 3))) <= 1e-12


def test_eval_is_unitary_on_random_circuit():
    c = _random_circuit(2, 30, np.random.default_rng(0))
    u = eval_circuit(c)
    assert np.max(np.abs(u.conj().T @ u - np.eye(9))) < 1e-12


def test_phases_that_overflow_sum_as_the_loop_does():
    # finite phases whose running sum overflows, then a long finite run: both bit for bit as _add_angles in order
    rng = np.random.default_rng(8)
    for phases in ([1e308, 1e308, -0.5, 3.0], [-1.7e308, -1.7e308, 2.5], rng.uniform(-3, 3, 5000).tolist(), [-0.0]):
        loop = 0.0
        for p in phases:
            loop = circuit._add_angles(loop, p)
        assert math.isfinite(loop)
        assert circuit._sum_angles(np.array(phases)).hex() == loop.hex()
        c = Circuit(2, tuple(GlobalPhase(p) for p in phases))
        assert np.array_equal(eval_circuit(c), np.exp(1j * loop) * np.eye(9))


_REPLAYS = [("haar", n) for n in (1, 2, 3, 4, 5)] + [(kind, n) for kind in KINDS for n in (2, 3)]


@pytest.mark.parametrize("gate_set", list(GateSet), ids=lambda g: g.value)
@pytest.mark.parametrize("kind,n", _REPLAYS)
def test_replayed_eval_equals_a_cold_one(kind, n, gate_set):
    # an eval run again, with the shared permutations that earlier evals used, equals
    # one with them made afresh, bit for bit; the probe distance run again is synthesize's,
    # bit for bit, the exact distance is within tolerance, and the probe one tracks it
    m = haar_unitary(3**n, np.random.default_rng(n)) if kind == "haar" else structured_input(kind, n)
    c, report = synthesize(m, SynthesisOptions(gate_set=gate_set))  # its verification evaluated c
    warm = eval_circuit(c)
    assert probe_distance(c, m) == report.distance
    exact = unitary_distance(warm, m)
    assert exact < 1e-8
    if exact == 0.0:
        assert report.distance == 0.0
    else:
        assert RATIO_BOUND[0] <= report.distance / exact <= RATIO_BOUND[1]
    circuit._monomials.cache_clear()
    circuit._orders.cache_clear()
    assert eval_circuit(c).tobytes() == warm.tobytes()


@pytest.mark.parametrize("field", ["value", "qutrit"])
def test_eval_of_a_table_one_field_off_a_stored_skeleton_misses(field):
    # every gate kind twice, with one GCX's value or target changed, against the dense product
    gates = _every_gate_kind(4, np.random.default_rng(9)) * 2
    i = next(i for i, g in enumerate(gates) if isinstance(g, Gcx) and 3 not in (g.control, g.target))
    g = gates[i]
    value, target = ((g.value + 1) % 3, g.target) if field == "value" else (g.value, 3)
    gates[i] = Gcx(g.control, value, target, g.level)
    got = eval_circuit(Circuit(4, tuple(gates)))
    assert np.max(np.abs(got - _dense_product(gates, 4))) <= 1e-13


def _monomial_gates(n: int, length: int, rng: np.random.Generator) -> list:
    """Seeded z rotations, LocalX, GCX, CINC and phases: every step is monomial, so every run is regions alone."""
    gates = []
    for _ in range(length):
        kind, q, lv = int(rng.integers(0, 5 if n > 1 else 3)), int(rng.integers(0, n)), LEVELS[rng.integers(0, 3)]
        if kind == 0:
            gates.append(Rotation("z", lv, q, float(rng.uniform(-7, 7))))
        elif kind == 1:
            gates.append(LocalX(lv, q))
        elif kind == 2:
            gates.append(GlobalPhase(float(rng.uniform(-3, 3))))
        else:
            t, v = (q + int(rng.integers(1, n))) % n, int(rng.integers(0, 3))
            gates.append(Gcx(q, v, t, lv) if kind == 3 else Cinc(q, v, t))
    return gates


def _xy_gates(n: int, length: int, rng: np.random.Generator) -> list:
    """Seeded x and y rotations: every step is a general stretch, so no run has a region."""
    return [Rotation("xy"[rng.integers(0, 2)], LEVELS[rng.integers(0, 3)], int(rng.integers(0, n)),
                     float(rng.uniform(-7, 7))) for _ in range(length)]


@pytest.mark.parametrize("build", [_monomial_gates, _xy_gates], ids=["monomial", "xy"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_eval_of_regions_alone_and_of_general_stretches_alone(n, build):
    rng = np.random.default_rng(500 + n)
    gates = build(n, 300, rng)
    _assert_gate_by_gate(eval_circuit(Circuit(n, tuple(gates))), gates, n, rng)


def test_eval_region_across_a_chunk_boundary():
    # general stretches up to 5 rows before the chunk's edge, then monomial steps
    # only (each two-qutrit gate starts a step of its own) up to 5 rows past it
    rng = np.random.default_rng(600)
    lead = _xy_gates(3, circuit._CHUNK - 5, rng)
    region = [Gcx(0, 1, 1, "01"), Rotation("z", "02", 2, 1.3), Cinc(1, 2, 0), LocalX("12", 2), GlobalPhase(0.4),
              Gcx(2, 0, 1, "12"), Rotation("z", "12", 0, -0.8), Cinc(0, 0, 2), Rotation("z", "01", 1, 2.9),
              Gcx(1, 2, 2, "02")]
    gates = lead + region + _xy_gates(3, 20, rng)
    _assert_gate_by_gate(eval_circuit(Circuit(3, tuple(gates))), gates, 3, rng)


def test_eval_region_of_huge_z_angles():
    # a region's z angles are summed, each reduced first: finite angles whose sum
    # would overflow, or lose the phase to rounding, still simulate to the gates
    gates = [Rotation("z", "01", 0, 1e308), Rotation("z", "01", 0, 1e308), Gcx(0, 1, 1, "02"),
             Rotation("z", "12", 1, -1.7e308), LocalX("02", 1), Rotation("z", "02", 1, 3e15),
             Rotation("z", "02", 1, 1e10)]
    assert np.max(np.abs(eval_circuit(Circuit(2, tuple(gates))) - _dense_product(gates, 2))) <= 1e-13


@pytest.mark.parametrize("n", [4, 5])
def test_eval_regions_end_at_run_cuts(n, monkeypatch):
    # the hand-placed runs with z rotations alone: one region would span each cut
    rng = np.random.default_rng(700 + n)
    gates = [g for qs in _RUNS[n] for g in _segment(qs, rng, axes="z")]
    seen = []
    apply_run = circuit._apply_run
    monkeypatch.setattr(circuit, "_apply_run", lambda u, m, axes: seen.append(tuple(axes)) or apply_run(u, m, axes))
    got = eval_circuit(Circuit(n, tuple(gates)))
    assert seen == _RUN_AXES[n]
    _assert_gate_by_gate(got, gates, n, rng)


def _group(qs: tuple[int, ...], rng: np.random.Generator) -> list:
    """A general stretch on each qutrit of ``qs`` in turn: an x or y rotation, then a z rotation or a LocalX."""
    gates = []
    for q in qs:
        gates.append(Rotation("xy"[rng.integers(0, 2)], LEVELS[rng.integers(0, 3)], q, float(rng.uniform(-7, 7))))
        gates.append(Rotation("z", LEVELS[rng.integers(0, 3)], q, float(rng.uniform(-7, 7)))
                     if rng.integers(0, 2) else LocalX(LEVELS[rng.integers(0, 3)], q))
    return gates


@pytest.mark.parametrize("n,size", [(n, size) for n in (2, 3, 4, 5) for size in (2, 3) if size <= n])
def test_eval_groups_in_every_axis_order(n, size):
    # stretches on every ordered choice of ``size`` of three qutrits (of two at n=2), each choice followed
    # by every other: back to back (the second one splits into groups of its own, which meet their axes
    # leading or not) and then with a region before the next pair; the highest qutrit is touched first,
    # so at n >= 4 the run's axes are not the qutrits' numbers
    rng = np.random.default_rng(800 + 10 * n + size)
    orders = list(itertools.permutations((n - 1, 0, 1)[: min(n, 3)], size))
    gates = []
    for p, r in itertools.product(orders, repeat=2):
        if p[-1] != r[0]:  # else their stretches on one qutrit would be one
            gates += _group(p, rng) + _group(r, rng) + [Gcx(p[0], 2, p[1], "01"), Rotation("z", "02", r[0], 1.1)]
    _assert_gate_by_gate(eval_circuit(Circuit(n, tuple(gates))), gates, n, rng)


@pytest.mark.parametrize("head", ["q0", "q1", "region"])
def test_eval_reorders_rows_at_a_chunk_start_and_after_a_cut(head, monkeypatch):
    # n=4: the first chunk ends with a group on q1 and q2, so the second starts in a row order that leads
    # with their axes; it opens with a group on q0 (which has to move the rows first), on q1 (whose axis
    # already leads) or with a region.  The hand-placed runs follow, and the second of them starts with a
    # GCX cut, then a group on q1 alone, whose axis the cut's region moves to the front
    rng = np.random.default_rng(900 + len(head))
    lead = [Rotation("x", "01", q, 0.3) for q in range(3)]  # first touch in order q0, q1, q2
    tail = [Gcx(0, 1, 1, "01"), Rotation("y", "12", 1, 0.6), Rotation("x", "02", 2, -1.4)]
    lead += [*_random_circuit(3, circuit._CHUNK - len(lead) - len(tail), rng).gates, *tail]
    assert len(lead) == circuit._CHUNK
    first = {"q0": Rotation("x", "12", 0, 0.9), "q1": Rotation("y", "01", 1, 2.2), "region": Cinc(2, 0, 0)}[head]
    segments = [_segment(qs, rng) for qs in _RUNS[4]]
    segments[1] = [Gcx(3, 0, 1, "01"), Rotation("x", "01", 1, 0.4), Cinc(1, 2, 3)] + segments[1]
    gates = lead + [first] + [g for seg in segments for g in seg]
    seen = []
    apply_run = circuit._apply_run
    monkeypatch.setattr(circuit, "_apply_run", lambda u, m, axes: seen.append(tuple(axes)) or apply_run(u, m, axes))
    got = eval_circuit(Circuit(4, tuple(gates)))
    assert seen == _RUN_AXES[4]
    assert np.max(np.abs(got - _dense_product(gates, 4))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_leaves_its_operand_untouched(n):
    # a writable operand compares equal before and after, and a read-only one (as the probe block is) is taken
    rng = np.random.default_rng(1000 + n)
    c = _random_circuit(n, 300, rng)
    z = rng.standard_normal((3**n, 4)) + 1j * rng.standard_normal((3**n, 4))
    before = z.copy()
    got = eval_circuit(c, z)
    assert np.array_equal(z, before)
    z.flags.writeable = False
    assert np.array_equal(eval_circuit(c, z), got)
    assert np.max(np.abs(got - eval_circuit(c) @ before)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_sees_every_row(n):
    # a synthesized circuit with one row dropped, of each kind, or one z angle moved by 1e-6,
    # no longer simulates to its input: no row of a region or a stretch goes missing
    m = haar_unitary(3**n, np.random.default_rng(n))
    c, report = synthesize(m, SynthesisOptions(gate_set=GateSet.GCX_CINC))
    assert report.distance < 1e-10
    t = c.table
    kept = np.flatnonzero(t["op"] != circuit.PHASE)
    op, q0, axis, angle = (t[name][kept] for name in ("op", "q0", "axis", "angle"))
    one = op <= circuit.LOCAL_X
    # a z rotation with no one-qutrit gate on its qutrit next to it is a stretch of its own, so in a region
    alone = one & np.r_[True, ~one[:-1] | (q0[:-1] != q0[1:])] & np.r_[~one[1:] | (q0[1:] != q0[:-1]), True]
    z = (op == circuit.ROT) & (axis == 2)
    xy = (op == circuit.ROT) & (axis != 2)
    weight = np.abs(np.sin(angle / 4))  # 0 only where the rotation is the identity

    def pick(mask: np.ndarray) -> int:
        assert mask.any()
        return int(kept[np.flatnonzero(mask)[np.argmax(weight[mask])]])

    rows = {"z in a region": pick(z & alone), "gcx": pick(op == circuit.GCX), "cinc": pick(op == circuit.CINC),
            "local x": pick(op == circuit.LOCAL_X), "x/y in a stretch": pick(xy & ~alone)}
    mutants = {f"without {kind}": np.delete(t, i) for kind, i in rows.items()}
    moved = t.copy()
    moved["angle"][rows["z in a region"]] += 1e-6
    mutants["z moved by 1e-6"] = moved
    for kind, table in mutants.items():
        assert unitary_distance(eval_circuit(Circuit(n, table)), m) > 1e-7, kind


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_count_gates_by_kind():
    c = Circuit(
        2,
        (
            Rotation("x", "01", 0, 1.0),
            Rotation("z", "12", 1, 2.0),
            LocalX("01", 0),
            Gcx(0, 1, 1, "01"),
            Cinc(1, 0, 0),
            GlobalPhase(0.3),
        ),
    )
    rep = count_gates(c)
    assert rep.rotations == 2
    assert rep.local_x == 1
    assert rep.gcx == 1
    assert rep.cinc == 1
    assert rep.phases == 1
    assert rep.two_qutrit == 2
    assert rep.total == 6
    assert rep.as_dict()["two_qutrit"] == 2


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_serialize_parse_round_trip_exact():
    c = _random_circuit(3, 40, np.random.default_rng(1))
    again = parse(serialize(c))
    # %.17g float formatting round-trips doubles exactly
    assert again == c


def test_parse_comments_blank_lines_and_case():
    text = """
    # a comment
    qutrits 2

    r Z 01 q0 1.25   # trailing comment
    X 12 q1
    gcx q1=2 q0 01
    CINC q0=0 q1
    phase -0.5
    """
    c = parse(text)
    assert c.n == 2
    assert c.gates == (
        Rotation("z", "01", 0, 1.25),
        LocalX("12", 1),
        Gcx(1, 2, 0, "01"),
        Cinc(0, 0, 1),
        GlobalPhase(-0.5),
    )


def test_serialize_format_lines():
    c = Circuit(2, (Rotation("z", "01", 0, math.pi), Gcx(1, 2, 0, "01")))
    lines = serialize(c).splitlines()
    assert lines[0] == "QUTRITS 2"
    assert lines[1].startswith("R z 01 q0 3.14159265358979")
    assert lines[2] == "GCX q1=2 q0 01"


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("R x 01 q0 1.0", 1, "QUTRITS"),
        ("QUTRITS 0", 1, "positive integer"),
        ("QUTRITS 2\nQUTRITS 2", 2, "duplicate"),
        ("QUTRITS 2\nR x 01 0 1.0", 2, "expected qutrit"),
        ("QUTRITS 2\nR x 01 q0 abc", 2, "bad number"),
        ("QUTRITS 2\nGCX q0 q1 01", 2, "expected control"),
        ("QUTRITS 2\nFOO 1 2", 2, "unknown gate"),
        ("QUTRITS 2\nR x 01 q0", 2, "R needs"),
        ("QUTRITS 2\nR x 33 q0 1.0", 2, "bad rotation"),
        ("QUTRITS 1\nGCX q0=1 q0 01", 2, "must differ"),
        ("QUTRITS 2\nR x 01 q0 1.0\nGCX q0=1 q7 01\n", 3, "outside width"),
        ("# past the widest table\nQUTRITS 32768", 2, "the gate table's range"),
        ("QUTRITS 2\nR x 01 q40000 1.0", 2, "outside width"),
        ("QUTRITS 2\nX 01 q1\nCINC q0=300 q1", 3, "control value must be 0, 1 or 2, got 300"),
        ("QUTRITS 2\nR x 01 q0 1.0\nR y 12 q99999999999999999999 1.0", 3, "qutrit 99999999999999999999 outside"),
        # fields are checked with the table, after later lines' tokens: the earlier line is still the one reported
        ("QUTRITS 2\nGCX q0=1 q5 01\nR x 01 zz 1.0", 2, "outside width"),
        ("QUTRITS 2\nGCX q0=1 q1 01\nR x 01 zz 1.0\nGCX q0=1 q5 01", 3, "expected qutrit"),
        # digits are ASCII: other scripts' digits and superscripts, which str.isdigit takes, are refused
        ("QUTRITS 2\nX 01 q\u0661", 2, "expected qutrit like 'q0'"),
        ("QUTRITS \u0662", 1, "QUTRITS needs a positive integer"),
        ("QUTRITS 2\nX 01 q\u00b2", 2, "expected qutrit like 'q0'"),
        ("QUTRITS 2\nGCX q0=\u00b2 q1 01", 2, "expected control like 'q0=1'"),
        ("QUTRITS \u00b2", 1, "QUTRITS needs a positive integer"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(CircuitParseError) as exc:
        parse(text)
    assert exc.value.line_no == line_no
    assert fragment in str(exc.value)
    assert str(exc.value).startswith(f"line {line_no}:")


def test_parse_checks_a_valid_file_once(monkeypatch):
    checked = []
    monkeypatch.setattr(circuit, "_fault", lambda n, t, rows, _fault=circuit._fault: checked.append(len(t)) or _fault(n, t, rows))
    c = parse("QUTRITS 2\nR x 01 q0 1.0\nGCX q0=1 q1 01\n")
    assert checked == [2]
    assert not c.table.flags.writeable and c.table.base is None


def test_parse_empty_file():
    with pytest.raises(CircuitParseError, match="missing QUTRITS"):
        parse("# nothing here\n")


def test_parse_rejects_gate_outside_width():
    with pytest.raises(CircuitParseError, match="outside width"):
        parse("QUTRITS 2\nR x 01 q5 1.0")
