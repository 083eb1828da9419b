"""Gate emission, counting formulas, and end-to-end synthesis.

The mux emitters are checked against scipy.linalg.expm oracles of the
generator exponentials they claim to realize, and the five width-2
factor circuits against independently transcribed closed-form gate
products (``golden_cases``), including the primed-angle substitutions.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from trisect import cartan, circuit, cli, linalg, passes, synth
from trisect.algebra import GeneratorId, gcx_matrix, generator, rotation
from trisect.cartan import _absorption_signs, factorize, factorize_stack
from trisect.circuit import (
    Cinc,
    Circuit,
    Gcx,
    GlobalPhase,
    LocalX,
    Rotation,
    count_gates,
    eval_circuit,
    serialize,
)
from trisect.linalg import haar_unitary, unitarity_defect, unitary_distance
from trisect.passes import pass_cancel, pass_fuse_cinc
from trisect.synth import (
    CITED_CINC_TOTALS,
    GateSet,
    SynthesisOptions,
    cinc_savings,
    d_mux_gates,
    expected_count,
    measured_operator_counts,
    operator_count,
    probe_distance,
    single_qutrit_gates,
    synthesize,
    w_mux_gates,
    x_mux_gates,
    z_mux_gates,
)

_SZ = {ij: generator(GeneratorId[f"SZ{ij}"]) for ij in ("01", "02", "12")}
_SX = {ij: generator(GeneratorId[f"SX{ij}"]) for ij in ("01", "12")}
_D = generator(GeneratorId.D)
_DBAR = generator(GeneratorId.DBAR)


def _expm(h: np.ndarray) -> np.ndarray:
    return scipy.linalg.expm(-1j * h)


def _eval(n: int, gates) -> np.ndarray:
    return eval_circuit(Circuit(n, tuple(gates)))


# ---------------------------------------------------------------------------
# multiplexed rotation emitters vs. exponential oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("reverse", [False, True])
def test_z_mux_matches_oracle(n, reverse):
    rng = np.random.default_rng(10 * n + reverse)
    lam = rng.uniform(-1.5, 1.5, size=3 ** (n - 1))
    gates = z_mux_gates("12", list(range(n)), lam, reverse=reverse)
    want = _expm(np.kron(_SZ["12"], np.diag(lam))) if n > 1 else _expm(_SZ["12"] * lam[0])
    assert np.max(np.abs(_eval(n, gates) - want)) < 1e-12


def test_z_mux_raw_gate_counts():
    # the emitter's own output is already at the closed form of operator_count
    for n, gcx in ((1, 0), (2, 3), (3, 10), (4, 29)):
        assert n == 1 or gcx == operator_count("z12", n)
        gates = z_mux_gates("01", list(range(n)), np.ones(3 ** (n - 1)))
        rep = count_gates(Circuit(n, tuple(gates)))
        assert rep.gcx == gcx, n
        assert rep.rotations == 3 ** (n - 1)


def test_z_mux_reverse_is_reversed_list():
    lam = np.array([0.2, 0.5, -0.3])
    fwd = z_mux_gates("01", [0, 1], lam)
    rev = z_mux_gates("01", [0, 1], lam, reverse=True)
    assert rev == fwd[::-1]


def test_z_mux_rejects_wrong_angle_count():
    with pytest.raises(ValueError, match="angles"):
        z_mux_gates("01", [0, 1], np.ones(4))


_EMITTERS = {
    "z": lambda qs, lam: z_mux_gates("01", qs, lam),
    "w": lambda qs, lam: w_mux_gates("01", qs, lam),
    "x": lambda qs, lam: x_mux_gates("01", qs, lam),
    "d": lambda qs, lam: d_mux_gates("d", qs, lam),
}


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("emitter", sorted(_EMITTERS))
def test_mux_emitters_reject_wrong_angle_count(emitter, size):
    # two qutrits take exactly three angles; none is dropped or padded
    with pytest.raises(ValueError, match=f"need 3 angles for 2 qutrits, got {size}"):
        _EMITTERS[emitter]([0, 1], np.arange(float(size)))


@pytest.mark.parametrize("emitter", sorted(_EMITTERS))
def test_mux_emitters_reject_complex_angles_and_no_qutrits(emitter):
    # a complex angle is refused, not silently cut to its real part
    with pytest.raises(ValueError, match="real angles, got 2 and complex128"):
        _EMITTERS[emitter]([0, 1], (1 + 1j) * np.ones(3))
    with pytest.raises(ValueError, match="one or more qutrits and real angles, got 0 and float64"):
        _EMITTERS[emitter]([], np.ones(1))
    # a negative qutrit is named, also when no qutrit is in range
    for qutrits in ([0, -1], [-2, -1]):
        with pytest.raises(ValueError, match="touches qutrit -[12] outside width 1"):
            _EMITTERS[emitter](qutrits, np.ones(3))
    # a bad level or kind is named
    emit = {"z": z_mux_gates, "w": w_mux_gates, "x": x_mux_gates, "d": d_mux_gates}[emitter]
    with pytest.raises(ValueError, match="'03'"):
        emit("03", [0, 1], np.ones(3))


@pytest.mark.parametrize("n", [2, 3])
def test_w_mux_matches_oracle(n):
    # same mux with the rotation on the last qutrit instead of the first
    rng = np.random.default_rng(20 + n)
    lam = rng.uniform(-1.5, 1.5, size=3 ** (n - 1))
    gates = w_mux_gates("02", list(range(n)), lam)
    want = _expm(np.kron(np.diag(lam), _SZ["02"]))
    assert np.max(np.abs(_eval(n, gates) - want)) < 1e-12


@pytest.mark.parametrize("level", ["01", "12"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_x_mux_matches_oracle(level, n):
    rng = np.random.default_rng(30 + n)
    lam = rng.uniform(-1.5, 1.5, size=3 ** (n - 1))
    full = _expm(np.kron(_SX[level], np.diag(lam)))
    qutrits = list(range(n))

    plain = x_mux_gates(level, qutrits, lam, absorb=False)
    assert np.max(np.abs(_eval(n, plain) - full)) < 1e-12

    # absorbed emission realizes the sign factor times the exponential
    absorbed = x_mux_gates(level, qutrits, lam, absorb=True)
    want = _absorption_signs(f"x{level}", 3 ** (n - 1)).reshape(-1, 1) * full
    assert np.max(np.abs(_eval(n, absorbed) - want)) < 1e-12
    # it is the plain list without the n-1 gates before the final y rotation,
    # each a value-1 GCX on the lead qutrit
    assert absorbed == plain[:-n] + plain[-1:]
    tail = plain[-n:-1]
    assert all(isinstance(g, Gcx) and (g.value, g.target, g.level) == (1, qutrits[0], level) for g in tail)


def test_x_mux_rejects_level_02():
    with pytest.raises(ValueError, match="levels 01 and 12"):
        x_mux_gates("02", [0, 1], np.ones(3))


@pytest.mark.parametrize("kind", ["d", "dbar"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_d_mux_matches_oracle(kind, n):
    rng = np.random.default_rng(40 + n)
    lam = rng.uniform(-1.5, 1.5, size=3 ** (n - 1))
    sigma = _D if kind == "d" else _DBAR
    gates = d_mux_gates(kind, list(range(n)), lam)
    want = _expm(np.kron(sigma, np.diag(lam))) if n > 1 else _expm(sigma * lam[0])
    assert np.max(np.abs(_eval(n, gates) - want)) < 1e-12
    assert len(gates) == 3**n  # 3, 9, 27 gates at spans 1, 2, 3


def test_d_mux_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        d_mux_gates("z12", [0, 1], np.ones(3))


# ---------------------------------------------------------------------------
# golden width-2 circuits (closed forms with primed-angle captions)
# ---------------------------------------------------------------------------


def _k0(m: np.ndarray) -> np.ndarray:
    """Single-qutrit operator on the leading qutrit of two."""
    return np.kron(m, np.eye(3))


def golden_cases(rng: np.random.Generator) -> list[tuple[str, np.ndarray, list, np.ndarray]]:
    """(name, operator, emitted gates, reference closed-form matrix).

    Each reference product is transcribed independently of the emitters,
    carrying the primed-angle substitutions of the standard width-2
    closed forms; the swap expansions contribute a global e^{i pi/3}.
    """
    cases = []
    ph3 = np.exp(1j * np.pi / 3)

    # --- x01 flavor: exp[-i sx01 (x) (t1 sz01 + t2 sz02 + t3 I)]
    t1, t2, t3 = rng.uniform(0.1, 1.2, size=3)
    lam = np.array([t1 + t2 + t3, t3 - t1, t3 - t2])
    op = _expm(np.kron(_SX["01"], t1 * _SZ["01"] + t2 * _SZ["02"] + t3 * np.eye(3)))
    g = lambda m: gcx_matrix(2, 1, m, 0, "01")  # noqa: E731
    a1p, a2p, a3p = 2 * t3 - t1 - t2, t1 + 2 * t2 + np.pi / 3, 2 * t1 + t2
    ref = (
        ph3
        * _k0(rotation("y", "01", np.pi / 2)) @ g(1) @ _k0(rotation("z", "01", a3p))
        @ g(0) @ _k0(rotation("x", "01", np.pi)) @ _k0(rotation("z", "02", -2 * np.pi / 3))
        @ _k0(rotation("z", "01", a2p)) @ g(2) @ _k0(rotation("z", "01", a1p))
        @ _k0(rotation("y", "01", -np.pi / 2))
    )
    cases.append(("x01", op, x_mux_gates("01", [0, 1], lam, absorb=False), ref))

    # --- x12 flavor: exp[-i sx12 (x) (t4 sz01 + t5 sz02 + t6 I)]
    t4, t5, t6 = rng.uniform(0.1, 1.2, size=3)
    lam = np.array([t4 + t5 + t6, t6 - t4, t6 - t5])
    op = _expm(np.kron(_SX["12"], t4 * _SZ["01"] + t5 * _SZ["02"] + t6 * np.eye(3)))
    g = lambda m: gcx_matrix(2, 1, m, 0, "12")  # noqa: E731
    a4p, a5p, a6p = 2 * t6 - t4 - t5, t4 + 2 * t5 + np.pi / 3, 2 * t4 + t5
    ref = (
        ph3
        * _k0(rotation("y", "12", np.pi / 2)) @ g(1) @ _k0(rotation("z", "12", a6p))
        @ g(0) @ _k0(rotation("x", "12", np.pi)) @ _k0(rotation("z", "01", 2 * np.pi / 3))
        @ _k0(rotation("z", "12", a5p)) @ g(2) @ _k0(rotation("z", "12", a4p))
        @ _k0(rotation("y", "12", -np.pi / 2))
    )
    cases.append(("x12", op, x_mux_gates("12", [0, 1], lam, absorb=False), ref))

    # --- z12 flavor: exp[-i sz12 (x) (t7 I + t8 D + t9 sz12)]
    t7, t8, t9 = rng.uniform(0.1, 1.2, size=3)
    lam = np.array([t7 + t8, t7 - t8 + t9, t7 - t8 - t9])
    op = _expm(np.kron(_SZ["12"], t7 * np.eye(3) + t8 * _D + t9 * _SZ["12"]))
    g = lambda m: gcx_matrix(2, 1, m, 0, "12")  # noqa: E731
    a7p, a8p, a9p = 2 * t7 - 2 * t8, 2 * t8 + t9 + np.pi / 3, 2 * t8 - t9
    ref = (
        ph3
        * g(1) @ _k0(rotation("z", "12", a9p))
        @ g(0) @ _k0(rotation("x", "12", np.pi)) @ _k0(rotation("z", "01", 2 * np.pi / 3))
        @ _k0(rotation("z", "12", a8p)) @ g(2) @ _k0(rotation("z", "12", a7p))
    )
    cases.append(("z12", op, z_mux_gates("12", [0, 1], lam), ref))

    # --- d flavor: exp[-i D (x) (t10 I + t11 D + t12 sz12)]
    t10, t11, t12 = rng.uniform(0.1, 1.2, size=3)
    lam = np.array([t10 + t11, t10 - t11 + t12, t10 - t11 - t12])
    op = _expm(np.kron(_D, t10 * np.eye(3) + t11 * _D + t12 * _SZ["12"]))
    a10p = 4 * t10 / 3 - 4 * t11 / 9
    a11p = -2 * t12 - 4 * t11 / 3
    a12p = 2 * t12 - 4 * t11 / 3
    g01 = gcx_matrix(2, 0, 0, 1, "01")
    g02 = gcx_matrix(2, 0, 0, 1, "02")
    ref = (
        np.exp(1j * a10p / 4)
        * g02 @ np.kron(rotation("z", "02", a10p), rotation("z", "02", a11p)) @ g02
        @ g01 @ np.kron(rotation("z", "01", a10p), rotation("z", "01", a12p)) @ g01
    )
    cases.append(("d", op, d_mux_gates("d", [0, 1], lam), ref))

    # --- dbar flavor: exp[-i Dbar (x) (t13 I + t14 Dbar + t15 sz01)]
    t13, t14, t15 = rng.uniform(0.1, 1.2, size=3)
    lam = np.array([t13 - t14 + t15, t13 - t14 - t15, t13 + t14])
    op = _expm(np.kron(_DBAR, t13 * np.eye(3) + t14 * _DBAR + t15 * _SZ["01"]))
    a13p = 4 * t13 / 3 - 4 * t14 / 9
    a14p = 8 * t14 / 3
    a15p = -2 * t15 - 4 * t14 / 3
    g01 = gcx_matrix(2, 0, 2, 1, "01")
    g02 = gcx_matrix(2, 0, 2, 1, "02")
    ref = (
        np.exp(1j * a13p / 4)
        * g02 @ np.kron(rotation("z", "02", -2 * a13p), rotation("z", "02", a14p)) @ g02
        @ g01 @ np.kron(rotation("z", "01", a13p), rotation("z", "01", a15p)) @ g01
    )
    cases.append(("dbar", op, d_mux_gates("dbar", [0, 1], lam), ref))
    return cases


def test_golden_two_qutrit_forms():
    rng = np.random.default_rng(99)
    for name, op, gates, ref in golden_cases(rng):
        emitted = _eval(2, gates)
        assert np.max(np.abs(emitted - op)) < 1e-10, f"{name}: emission != operator"
        assert np.max(np.abs(ref - op)) < 1e-10, f"{name}: closed form != operator"


def test_golden_two_qutrit_gate_budgets():
    # fixed per-circuit budgets: 3 GCX for the mixing flavors,
    # 4 GCX (or 2 GCX + 1 CINC) for the diagonal d/dbar flavors
    rng = np.random.default_rng(100)
    for name, _, gates, _ in golden_cases(rng):
        rep = count_gates(Circuit(2, tuple(gates)))
        if name in ("x01", "x12", "z12"):
            assert rep.gcx == 3, name
        else:
            assert rep.gcx == 4, name


# ---------------------------------------------------------------------------
# counting formulas
# ---------------------------------------------------------------------------


def test_expected_count_values():
    assert [expected_count(n, GateSet.GCX_ONLY) for n in (2, 3, 4)] == [25, 315, 3094]
    assert [expected_count(n, GateSet.GCX_CINC) for n in (2, 3, 4)] == [21, 271, 2686]
    with pytest.raises(ValueError):
        expected_count(1)


def test_cinc_savings_consistency():
    assert [cinc_savings(n) for n in (2, 3, 4)] == [4, 44, 408]
    # expected_count(n, GCX_ONLY) is defined as the fused count plus the
    # savings; check it against the independent gcx-only closed form
    for n in range(2, 15):
        gcx_only = (
            Fraction(47, 96) * 9**n - 4 * 3 ** (n - 1) - (Fraction(n * n, 2) + Fraction(3 * n, 4) - Fraction(27, 32))
        )
        assert expected_count(n, GateSet.GCX_ONLY) == gcx_only
        assert cinc_savings(n) == expected_count(n, GateSet.GCX_ONLY) - expected_count(n, GateSet.GCX_CINC)


def test_operator_count_table():
    table = {
        2: (2, 2, 3, 4, 4),
        3: (8, 8, 10, 14, 14),
        4: (26, 26, 29, 38, 38),
    }
    kinds = ("x01", "x12", "z12", "d", "dbar")
    for n, row in table.items():
        got = tuple(operator_count(k, n, GateSet.GCX_ONLY) for k in kinds)
        assert got == row, n
    # the CINC gate set saves n-1 gates in each diagonal flavor
    for n in (2, 3, 4):
        assert operator_count("d", n, GateSet.GCX_CINC) == operator_count(
            "d", n, GateSet.GCX_ONLY
        ) - (n - 1)


def test_total_count_recursion():
    # one recursion level costs 9 child syntheses plus the eight factors:
    # kind multiplicities along the chain are x01:1, x12:2, z12:1, d:2, dbar:2
    for gate_set in GateSet:
        for n in (3, 4, 5):
            nonlocal_cost = (
                operator_count("x01", n, gate_set)
                + 2 * operator_count("x12", n, gate_set)
                + operator_count("z12", n, gate_set)
                + 2 * operator_count("d", n, gate_set)
                + 2 * operator_count("dbar", n, gate_set)
            )
            assert expected_count(n, gate_set) == 9 * expected_count(n - 1, gate_set) + nonlocal_cost


@pytest.mark.parametrize("gate_set", list(GateSet))
@pytest.mark.parametrize("n", [2, 3])
def test_measured_operator_counts_match_formulas(gate_set, n):
    meas = measured_operator_counts(n, gate_set)
    for kind, got in meas.items():
        assert got == operator_count(kind, n, gate_set), (kind, n, gate_set)


def test_measured_operator_counts_reject_one_qutrit():
    with pytest.raises(ValueError, match="n >= 2"):
        measured_operator_counts(1)


# A gate set given by its name once counted as the other set, and a float width failed inside fractions.
_NOT_A_GATE_SET = ("gcx", "gcx+cinc", None)
_NOT_A_WIDTH = (2.0, True, "3", np.float64(3.0))


def _refuses_what_it_cannot_count(count):
    for gate_set in _NOT_A_GATE_SET:
        with pytest.raises(ValueError, match="gate_set must be a GateSet"):
            count(3, gate_set)
    for n in _NOT_A_WIDTH:
        with pytest.raises(ValueError, match="must be integers"):
            count(n, GateSet.GCX_CINC)


def test_expected_count_refuses_what_it_cannot_count():
    for gate_set in GateSet:  # memoized first, so np.float64(3.0) below meets a cached equal width
        assert expected_count(3, gate_set) is expected_count(3, gate_set)  # 271 and 315 are not interned
    _refuses_what_it_cannot_count(expected_count)
    assert expected_count(np.int64(3), GateSet.GCX_ONLY) == 315


def test_cinc_savings_refuses_a_non_integer_width():
    for n in _NOT_A_WIDTH:
        with pytest.raises(ValueError, match="must be integers"):
            cinc_savings(n)
    assert cinc_savings(np.int64(3)) == 44


def test_operator_count_refuses_what_it_cannot_count():
    _refuses_what_it_cannot_count(lambda n, gate_set: operator_count("d", n, gate_set))
    assert operator_count("d", 3, GateSet.GCX_CINC) == 12


def test_measured_operator_counts_refuse_what_they_cannot_count():
    _refuses_what_it_cannot_count(measured_operator_counts)


@pytest.mark.parametrize("kind", synth.FACTOR_KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_factor_emission_is_at_the_closed_form(kind, n):
    # one factor emitted standalone with generic angles
    angles = np.random.default_rng(n).uniform(0.2, 1.3, size=3 ** (n - 1))
    c = Circuit(n, synth._table(*synth._factor_block(kind, tuple(range(n)), angles[None]))[0])
    two = count_gates(c).two_qutrit
    assert two == operator_count(kind, n, GateSet.GCX_ONLY)
    # no within-factor GCX is left for the sweep to cancel ...
    assert count_gates(pass_cancel(c)).two_qutrit == two
    # ... and CINC fusion alone reaches the fused count
    assert count_gates(pass_fuse_cinc(c)).two_qutrit == operator_count(kind, n, GateSet.GCX_CINC)


@pytest.mark.parametrize("kind", synth.FACTOR_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_factor_map_is_the_emitter(kind, k):
    qutrits = tuple(range(4 - k, 4))  # a factor's qutrits run to the last, as in synthesis
    lam = np.random.default_rng(k).uniform(-np.pi, np.pi, size=(5, 3 ** (k - 1)))
    rows, m, c = synth._factor_map(kind, qutrits)
    want_rows, want = synth._factor_block(kind, qutrits, lam)
    assert np.array_equal(rows, want_rows)
    assert np.max(np.abs(lam @ m + c - want)) <= 1e-15 * max(1.0, np.abs(lam).max())
    assert not any(a.flags.writeable for a in (rows, m, c))


def test_factor_levels_keep_eight_angle_stacks_in_chain_order():
    n, m = 3, haar_unitary(27, np.random.default_rng(2))
    levels, leaves = synth._factor_levels(m, n)
    chain, _ = factorize_stack(m[None], absorb=True)
    nonlocal_entries = [(kind, x) for kind, x in chain if kind != "K"]
    assert [kind for kind, _ in nonlocal_entries] == list(cartan.NONLOCAL_ORDER)
    assert all(np.array_equal(lam, x) for lam, (_, x) in zip(levels[0][0], nonlocal_entries, strict=True))
    assert len(levels) == n - 1 and leaves.shape == (9 ** (n - 1), 3, 3)
    for depth, (stacks, _) in enumerate(levels):  # one line per node of the level, 3^(n-1-depth) angles each
        assert len(stacks) == 8 and all(lam.shape == (9**depth, 3 ** (n - 1 - depth)) for lam in stacks)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unswept_synthesis_is_at_the_closed_form(monkeypatch, n):
    monkeypatch.setattr(synth, "simplify", lambda c, **_: c)
    circ, rep = synthesize(haar_unitary(3**n, np.random.default_rng(0)))
    counts = count_gates(circ)
    assert counts.gcx == counts.two_qutrit == expected_count(n, GateSet.GCX_ONLY)
    assert rep.ok


def test_cited_totals_flag_the_inconsistent_entry():
    # the previously reported n=3 total disagrees with the closed form;
    # the other entries agree
    mismatches = {
        n for n, cited in CITED_CINC_TOTALS.items()
        if cited != expected_count(n, GateSet.GCX_CINC)
    }
    assert mismatches == {3}
    assert CITED_CINC_TOTALS[3] == 217


# ---------------------------------------------------------------------------
# single-qutrit synthesis
# ---------------------------------------------------------------------------


def test_single_qutrit_nine_rotations():
    rng = np.random.default_rng(50)
    u = haar_unitary(3, rng)
    gates = single_qutrit_gates(u)
    rep = count_gates(Circuit(1, tuple(gates)))
    assert rep.rotations == 9 and rep.two_qutrit == 0 and rep.phases == 1
    assert np.max(np.abs(_eval(1, gates) - u)) < 1e-12


_DEGENERATE_1Q = [
    np.eye(3, dtype=complex),
    np.diag(np.exp(1j * np.array([0.3, -1.1, 2.0]))),
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),  # 01 swap
    np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex),  # cycle
    rotation("y", "02", 2.2),
]


@pytest.mark.parametrize("u", _DEGENERATE_1Q)
def test_single_qutrit_degenerate_inputs(u):
    # permutations and diagonals hit the zero-pivot branches of the
    # column-zeroing mixes and the z-y-z extraction
    gates = single_qutrit_gates(u)
    assert np.max(np.abs(_eval(1, gates) - u)) < 1e-12


def test_single_qutrit_placement():
    rng = np.random.default_rng(51)
    u = haar_unitary(3, rng)
    gates = single_qutrit_gates(u, qutrit=1)
    got = eval_circuit(Circuit(2, tuple(gates)))
    assert np.max(np.abs(got - np.kron(np.eye(3), u))) < 1e-12


def test_single_qutrit_rejects_bad_input():
    with pytest.raises(ValueError, match="3x3"):
        single_qutrit_gates(np.eye(9, dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        single_qutrit_gates(np.ones((3, 3)))
    with pytest.raises(ValueError, match="touches qutrit -1 outside width 1"):
        single_qutrit_gates(np.eye(3), qutrit=-1)


def _same_gates(got, want, atol):
    """Same gate sequence, with rotation angles and phases within atol."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(g, Rotation):
            assert (g.axis, g.level, g.qutrit) == (w.axis, w.level, w.qutrit)
            assert abs(g.theta - w.theta) <= atol
        elif isinstance(g, GlobalPhase):
            assert abs(g.phi - w.phi) <= atol
        else:
            assert g == w


def _branch_leaves():
    """3x3 unitaries whose decomposition takes each degenerate branch."""
    phases = np.diag(np.exp(1j * np.array([0.4, -1.3, 0.7])))
    swap01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    return [
        # zero lower first column: the first Givens mix is the identity (r < 1e-15)
        rotation("y", "12", 1.1) @ phases,
        # diagonal det-1 blocks: s < 1e-12 in every z-y-z triple
        phases,
        rotation("y", "01", 1e-13) @ phases,
        # a zero corner in a det-1 block: c < 1e-12
        swap01 @ phases,
        rotation("y", "01", np.pi) @ rotation("y", "12", 0.6),
    ]


def test_single_qutrit_stack_matches_single_calls():
    rng = np.random.default_rng(52)
    leaves = [haar_unitary(3, rng) for _ in range(6)]
    leaves += _DEGENERATE_1Q + _branch_leaves()
    rng.shuffle(leaves)
    assert any(abs(u[1, 0]) + abs(u[2, 0]) == 0 for u in leaves)
    gates = single_qutrit_gates(np.stack(leaves), qutrit=2)
    assert len(gates) == 10 * len(leaves)
    angles = []
    for i, u in enumerate(leaves):
        chunk = gates[10 * i : 10 * i + 10]
        assert all(isinstance(g, Rotation) for g in chunk[:9])
        assert isinstance(chunk[9], GlobalPhase)
        assert np.max(np.abs(_eval(3, chunk) - np.kron(np.eye(9), u))) < 1e-12
        _same_gates(chunk, single_qutrit_gates(u, qutrit=2), 1e-14)
        angles += [(g.theta, g.axis) for g in chunk[:9]]
    # the s < 1e-12 and c < 1e-12 branches zero gamma and leave beta at 0 or pi
    zyz = [angles[j : j + 3] for j in range(0, len(angles), 3)]
    assert any(t[0][0] == 0.0 and t[1][0] == 0.0 for t in zyz)
    assert any(t[0][0] == 0.0 and abs(t[1][0] - np.pi) < 1e-12 for t in zyz)
    # angles stay Python floats so reprs and serialized text keep their form
    assert all(type(theta) is float for theta, _ in angles)


def test_single_qutrit_stack_rejects_bad_input():
    rng = np.random.default_rng(53)
    stack = np.stack([haar_unitary(3, rng) for _ in range(4)])
    # one bad leaf fails the whole stack (NaN leaves: test_linalg's GUARDED)
    stack[2] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not unitary"):
        single_qutrit_gates(stack)
    for shape in [(9, 9), (2, 2, 3, 3), (3,), (4, 3, 2)]:
        with pytest.raises(ValueError, match="3x3"):
            single_qutrit_gates(np.zeros(shape, dtype=complex))
    assert single_qutrit_gates(np.zeros((0, 3, 3), dtype=complex)) == []


# ---------------------------------------------------------------------------
# end-to-end synthesis
# ---------------------------------------------------------------------------


def test_synthesize_single_qutrit():
    u = haar_unitary(3, np.random.default_rng(60))
    circ, rep = synthesize(u)
    assert rep.n == 1
    assert rep.distance < 1e-12
    assert rep.expected_two_qutrit is None
    assert count_gates(circ).two_qutrit == 0


@pytest.mark.parametrize(
    "gate_set,count", [(GateSet.GCX_ONLY, 25), (GateSet.GCX_CINC, 21)]
)
def test_synthesize_two_qutrits_exact_counts(gate_set, count):
    u = haar_unitary(9, np.random.default_rng(61))
    circ, rep = synthesize(u, SynthesisOptions(gate_set=gate_set))
    assert rep.two_qutrit_count == count
    assert rep.expected_two_qutrit == count
    assert rep.distance < 1e-8
    assert probe_distance(circ, u) == rep.distance
    assert unitary_distance(eval_circuit(circ), u) < 1e-8
    if gate_set is GateSet.GCX_ONLY:
        assert count_gates(circ).cinc == 0


@pytest.mark.parametrize(
    "gate_set,count", [(GateSet.GCX_ONLY, 315), (GateSet.GCX_CINC, 271)]
)
def test_synthesize_three_qutrits_exact_counts(gate_set, count):
    u = haar_unitary(27, np.random.default_rng(62))
    circ, rep = synthesize(u, SynthesisOptions(gate_set=gate_set))
    assert rep.two_qutrit_count == count
    assert rep.distance < 1e-8


@pytest.mark.parametrize(
    "gate_set,count", [(GateSet.GCX_ONLY, 3094), (GateSet.GCX_CINC, 2686)]
)
def test_synthesize_four_qutrits_exact_counts(gate_set, count):
    # n=4 is the smallest size whose mux boundaries cancel two levels deep
    u = haar_unitary(81, np.random.default_rng(69))
    _, rep = synthesize(u, SynthesisOptions(gate_set=gate_set))
    assert rep.two_qutrit_count == count == expected_count(4, gate_set)
    assert rep.ok


def test_synthesize_five_qutrits_exact_count(tmp_path):
    u = haar_unitary(243, np.random.default_rng(70))
    circ, rep = synthesize(u, SynthesisOptions(gate_set=GateSet.GCX_CINC))
    assert rep.two_qutrit_count == expected_count(5) == 24882
    assert rep.ok
    # the same circuit survives the text format and the CLI's own check
    circ_file, mat_file = tmp_path / "c.txt", tmp_path / "m.json"
    circ_file.write_text(serialize(circ))
    entries = [[float(z.real), float(z.imag)] for z in u.ravel()]
    mat_file.write_text(json.dumps({"qutrits": 5, "dim": 243, "matrix": entries}))
    assert cli.main(["verify", str(circ_file), str(mat_file)]) == 0


def test_synthesize_report_serialization():
    u = haar_unitary(9, np.random.default_rng(65))
    _, rep = synthesize(u)
    d = rep.as_dict()
    assert d["qutrits"] == 2
    assert d["gate_set"] == "gcx+cinc"
    assert d["two_qutrit_count"] == d["counts"]["two_qutrit"] == 21
    assert any("two-qutrit gates" in line for line in rep.lines())


def test_synthesize_reports_tolerance():
    u = haar_unitary(9, np.random.default_rng(67))
    _, rep = synthesize(u)
    assert rep.ok is True and rep.as_dict()["ok"] is True
    assert "within tolerance: yes" in rep.lines()
    # any floating-point synthesis sits above 1e-16
    _, strict = synthesize(u, SynthesisOptions(tolerance=1e-16))
    assert strict.ok is False and strict.as_dict()["ok"] is False
    assert strict.distance == rep.distance
    assert "within tolerance: no" in strict.lines()


@pytest.mark.parametrize(
    "field, value",
    [("gate_set", "gcx+cinc"), ("gate_set", None)]
    + [("tolerance", t) for t in (float("nan"), 0.0, -1e-8, float("inf"), float("-inf"), True, "1e-8")],
)
def test_synthesis_options_check_their_fields(field, value):
    # a gate-set string would give a GCX-only circuit and a report that cannot print;
    # a tolerance outside (0, inf) would make ok constant; a bool or a string is no tolerance
    with pytest.raises(ValueError, match=field):
        SynthesisOptions(**{field: value})


def test_synthesize_report_flags_count_above_closed_form():
    _, rep = synthesize(haar_unitary(9, np.random.default_rng(68)))
    assert "two-qutrit gates: 21 (expected 21)" in rep.lines()
    over = dataclasses.replace(rep, counts=dataclasses.replace(rep.counts, gcx=rep.counts.gcx + 3))
    assert "two-qutrit gates: 24 (expected 21; 3 above the closed form)" in over.lines()


def test_synthesize_rejects_bad_input():
    with pytest.raises(ValueError, match="3\\^n"):
        synthesize(np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        synthesize(np.ones((9, 9)))


def test_synthesize_deterministic():
    u = haar_unitary(9, np.random.default_rng(66))
    c1, _ = synthesize(u)
    c2, _ = synthesize(u)
    assert c1 == c2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_synthesize_decomposes_all_leaves_in_one_call(monkeypatch, n):
    calls = []
    leaf_block = synth._leaf_block

    def spy(u, qutrit):
        calls.append((np.shape(u), qutrit))
        return leaf_block(u, qutrit)

    monkeypatch.setattr(synth, "_leaf_block", spy)
    u = haar_unitary(3**n, np.random.default_rng(67 + n))
    _, rep = synthesize(u)
    assert calls == [((9 ** (n - 1), 3, 3), n - 1)]
    assert rep.ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_synthesize_factorizes_each_level_in_one_call(monkeypatch, n):
    shapes = []

    def spy(ms, *args, **kwargs):
        shapes.append(np.shape(ms))
        return factorize_stack(ms, *args, **kwargs)

    monkeypatch.setattr(synth, "factorize_stack", spy)
    u = haar_unitary(3**n, np.random.default_rng(75 + n))
    _, rep = synthesize(u)
    assert shapes == [(9**j, 3 ** (n - j), 3 ** (n - j)) for j in range(n - 1)]
    assert rep.ok


def test_synthesize_leaf_batch_matches_per_leaf_calls(monkeypatch):
    u = haar_unitary(27, np.random.default_rng(72))
    for gate_set in GateSet:
        options = SynthesisOptions(gate_set=gate_set)
        batched, _ = synthesize(u, options)
        with monkeypatch.context() as m:
            leaf_block = synth._leaf_block
            m.setattr(
                synth,
                "_leaf_block",
                lambda us, q: (leaf_block(us[:1], q)[0], np.concatenate([leaf_block(u[None], q)[1] for u in us])),
            )
            per_leaf, _ = synthesize(u, options)
        _same_gates(batched.gates, per_leaf.gates, 1e-14)


# ---------------------------------------------------------------------------
# unitarity is checked once, where a matrix enters
# ---------------------------------------------------------------------------


def _at_defect(n: int, target: float) -> np.ndarray:
    """A Haar unitary times I + eps G, with eps set so the defect is ``target``."""
    rng = np.random.default_rng(90 + n)
    u = haar_unitary(3**n, rng)
    g = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    eps = 1e-6 * target / unitarity_defect(u @ (np.eye(3**n) + 1e-6 * g))
    m = u @ (np.eye(3**n) + eps * g)
    assert unitarity_defect(m) == pytest.approx(target, rel=1e-3)
    return m


@pytest.mark.parametrize("n", [2, 3])
def test_kernels_only_see_unitary_input_at_the_tolerance_edge(monkeypatch, n):
    # csd and unitary_eig do not check their input: inside the pipeline it
    # is a product of unitary LAPACK factors.  Even for an input just inside
    # UNITARY_ATOL, only stage 1's CSD of that very input (checked on entry)
    # sees its defect; every other kernel input is unitary to rounding.
    m = _at_defect(n, 0.9e-10)
    seen = []

    def record(kernel):
        def wrapped(u, *args):
            entry = u.size == m.size and np.array_equal(u.reshape(m.shape), m)
            seen.append((entry, unitarity_defect(u)))
            return kernel(u, *args)

        return wrapped

    monkeypatch.setattr(cartan, "csd", record(linalg.csd))
    monkeypatch.setattr(cartan, "unitary_eig", record(linalg.unitary_eig))
    _, rep = synthesize(m)
    node = factorize(m)
    assert rep.ok
    assert max(node.residuals.values()) <= 1e-9
    internal = [defect for entry, defect in seen if not entry]
    assert [defect for entry, defect in seen if entry] == [unitarity_defect(m)] * 2
    # Four kernel passes per level (two csd, two unitary_eig; synthesize's
    # n - 1 levels, factorize's one), less the two entry CSDs.
    assert len(internal) == 4 * n - 2 and max(internal) <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_input_just_past_the_tolerance_is_refused(n):
    m = _at_defect(n, 1.1e-10)
    with pytest.raises(ValueError, match="not unitary"):
        synthesize(m)
    with pytest.raises(ValueError, match="not unitary"):
        factorize(m)


def test_unitarity_is_checked_once_per_entry(monkeypatch):
    # One guard per factorize_stack level and one for the leaf stack.
    calls = []

    def counted(u):
        calls.append(np.shape(u))
        return unitarity_defect(u)

    for module in (cartan, synth, linalg):
        monkeypatch.setattr(module, "unitarity_defect", counted)
    u = haar_unitary(27, np.random.default_rng(93))
    synthesize(u)
    assert calls == [(1, 27, 27), (9, 9, 9), (81, 3, 3)]
    calls.clear()
    factorize(u)
    assert calls == [(1, 27, 27)]


def test_synthesis_builds_no_gate_object(monkeypatch):
    # emission, the sweep (from a cold commutation table), fusion, counting
    # and verification all run on the gate table
    def refuse(self, *fields):
        raise AssertionError(f"built a gate object: {type(self).__name__}")

    for cls in (Rotation, LocalX, Gcx, Cinc, GlobalPhase):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(circuit, "_gates", lambda rows: refuse(None))  # the path from table rows, which skips __init__
    monkeypatch.setattr(passes, "_COMMUTES", {})
    for gate_set in GateSet:
        circ, rep = synthesize(haar_unitary(27, np.random.default_rng(0)), SynthesisOptions(gate_set=gate_set))
        assert rep.ok and rep.two_qutrit_count == expected_count(3, gate_set)
        assert serialize(circ).count("\nR ") == rep.counts.rotations
    with pytest.raises(AssertionError, match="built a gate object"):
        Rotation("x", "01", 0, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_synthesis_builds_no_factorization_node(monkeypatch, n):
    # each level goes from factorize_stack to the emitters as stacks, at every width
    def refuse(*args, **kwargs):
        raise AssertionError("built a factorization node")

    monkeypatch.setattr(cartan, "FactorizationNode", refuse)
    monkeypatch.setattr(cartan, "NodeEntry", refuse)
    _, rep = synthesize(haar_unitary(3**n, np.random.default_rng(84 + n)))
    assert rep.ok and len(rep.split_residuals) == n - 1
    with pytest.raises(AssertionError, match="built a factorization node"):
        factorize(haar_unitary(9, np.random.default_rng(84)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_residuals_are_reported_per_level(n):
    _, rep = synthesize(haar_unitary(3**n, np.random.default_rng(80 + n)))
    assert len(rep.split_residuals) == n - 1 and all(r < 1e-10 for r in rep.split_residuals)
    assert all(type(r) is float for r in rep.split_residuals)  # so the repr is the same as before
    assert rep.as_dict()["split_residuals"] == list(rep.split_residuals)
    line = next(line for line in rep.lines() if line.startswith("split residuals:"))
    assert line.split()[2:] == ([f"{r:.1e}" for r in rep.split_residuals] or ["none"]) + ["(worst", "per", "level)"]


def test_a_broken_split_shows_in_its_level(monkeypatch):
    # the d split at level 1 (3x3 blocks at n=3) returns angles off by 0.1;
    # the circuit may still be emitted, but the level's residual says so
    split = cartan.split_off_d

    def broken(k):
        v, lam, w = split(k)
        return v, lam + 0.1 if k.shape[-1] == 3 else lam, w

    monkeypatch.setattr(cartan, "split_off_d", broken)
    _, rep = synthesize(haar_unitary(27, np.random.default_rng(82)))
    top, level1 = rep.split_residuals
    assert top < 1e-10 < 1e-8 < level1
    assert rep.as_dict()["split_residuals"][1] == level1
