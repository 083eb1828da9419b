"""Generator table, embedded gates, and the Lie-algebra closure checks."""

import numpy as np
import pytest

from trisect.algebra import (
    LEVELS,
    CheckReport,
    GeneratorId,
    SubspaceId,
    cinc_matrix,
    commutation_selftest,
    diagonal_basis,
    embed_local,
    gcx_matrix,
    generator,
    maximal_abelian_check,
    place,
    random_subspace_element,
    rotation,
    rotations_by_code,
    subspace_membership,
    subspace_project,
)

_RNG = np.random.default_rng(2024)


def _ket(n: int, digits: tuple[int, ...]) -> np.ndarray:
    idx = 0
    for d in digits:
        idx = idx * 3 + d
    v = np.zeros(3**n, dtype=complex)
    v[idx] = 1.0
    return v


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generator_z_diagonals():
    assert np.array_equal(generator(GeneratorId.SZ01), np.diag([1, -1, 0]).astype(complex))
    assert np.array_equal(generator(GeneratorId.SZ02), np.diag([1, 0, -1]).astype(complex))
    assert np.array_equal(generator(GeneratorId.SZ12), np.diag([0, 1, -1]).astype(complex))


def test_generator_d_family_from_z_span():
    # D and Dbar lie in the span of {I3, sz01, sz02}
    i3 = generator(GeneratorId.I3)
    z01 = generator(GeneratorId.SZ01)
    z02 = generator(GeneratorId.SZ02)
    assert np.array_equal(generator(GeneratorId.D), (-i3 + 2 * z01 + 2 * z02) / 3)
    assert np.array_equal(generator(GeneratorId.DBAR), (-i3 + 2 * z01 - 4 * z02) / 3)


def test_generator_swaps_and_inc():
    x01 = generator(GeneratorId.X01)
    x12 = generator(GeneratorId.X12)
    inc = generator(GeneratorId.INC)
    for x in (x01, x12, generator(GeneratorId.X02)):
        assert np.array_equal(x @ x, np.eye(3))  # involutions
    # INC cycles |0> -> |1> -> |2> -> |0>
    for v in range(3):
        out = inc @ _ket(1, (v,))
        assert np.array_equal(out, _ket(1, ((v + 1) % 3,)))
    assert np.array_equal(inc, generator(GeneratorId.X02) @ x01)


def test_generator_returns_copies():
    a = generator(GeneratorId.SX01)
    a[0, 0] = 99.0
    assert generator(GeneratorId.SX01)[0, 0] == 0.0


def test_generator_override_hook():
    fake = np.full((3, 3), 7.0, dtype=complex)
    assert np.array_equal(generator(GeneratorId.SY12, {GeneratorId.SY12: fake}), fake)
    # other ids unaffected
    assert generator(GeneratorId.SY01, {GeneratorId.SY12: fake})[0, 1] == -1j


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("ij", LEVELS)
def test_rotation_is_special_unitary(axis, ij):
    r = rotation(axis, ij, 0.83)
    assert np.max(np.abs(r.conj().T @ r - np.eye(3))) < 1e-15
    assert abs(np.linalg.det(r) - 1.0) < 1e-14  # 2x2 block has det 1


def test_rotation_group_law_and_period():
    a = rotation("y", "02", 0.55)
    b = rotation("y", "02", -1.3)
    assert np.max(np.abs(a @ b - rotation("y", "02", 0.55 - 1.3))) < 1e-15
    # period 4*pi: the generator has eigenvalues +-1 on the active block
    full = rotation("x", "12", 4 * np.pi)
    half = rotation("x", "12", 2 * np.pi)
    assert np.max(np.abs(full - np.eye(3))) < 1e-12
    assert np.max(np.abs(half - np.eye(3))) > 1.0  # -1 on the block


def test_rotation_matches_exponential():
    # r = exp(-i theta/2 sigma) checked via eigendecomposition-free series
    import scipy.linalg

    for axis, gid in (("x", GeneratorId.SX01), ("y", GeneratorId.SY12), ("z", GeneratorId.SZ02)):
        ij = gid.value[-2:]
        th = 0.77
        want = scipy.linalg.expm(-0.5j * th * generator(gid))
        assert np.max(np.abs(rotation(axis, ij, th) - want)) < 1e-13


def test_rotation_rejects_bad_args():
    with pytest.raises(ValueError):
        rotation("w", "01", 1.0)
    with pytest.raises(ValueError):
        rotation("x", "21", 1.0)


def test_rotations_match_exponential_for_every_axis_and_level():
    import scipy.linalg

    rng = np.random.default_rng(7)
    axes = [a for a in "xyz" for _ in LEVELS for _ in range(4)]
    levels = [ij for _ in "xyz" for ij in LEVELS for _ in range(4)]
    thetas = rng.uniform(-4 * np.pi, 4 * np.pi, size=len(axes))
    codes = np.array([3 * "xyz".index(a) + LEVELS.index(ij) for a, ij in zip(axes, levels)])
    got = rotations_by_code(codes, thetas)
    assert got.shape == (len(axes), 3, 3)
    for r, a, ij, th in zip(got, axes, levels, thetas):
        want = scipy.linalg.expm(-0.5j * th * generator(GeneratorId[f"S{a.upper()}{ij}"]))
        assert np.max(np.abs(r - want)) < 1e-13
        assert np.array_equal(rotation(a, ij, th), r)


def test_rotations_empty_and_bad_input():
    assert rotations_by_code(np.zeros(0, dtype=int), []).shape == (0, 3, 3)
    for axis, ij in (("w", "01"), ("x", "21"), ("xy", "01"), ("x", "0")):
        with pytest.raises(ValueError, match="bad rotation axis/level"):
            rotation(axis, ij, 1.0)


def test_swap_closed_forms():
    # three rotations and a phase make each two-level swap exactly
    ph = np.exp(1j * np.pi / 3)
    x01 = ph * rotation("x", "01", np.pi) @ rotation("z", "02", -2 * np.pi / 3) @ rotation("z", "01", np.pi / 3)
    assert np.max(np.abs(x01 - generator(GeneratorId.X01))) < 1e-12
    x12 = ph * rotation("x", "12", np.pi) @ rotation("z", "01", 2 * np.pi / 3) @ rotation("z", "12", np.pi / 3)
    assert np.max(np.abs(x12 - generator(GeneratorId.X12))) < 1e-12
    x02 = generator(GeneratorId.X01) @ generator(GeneratorId.X12) @ generator(GeneratorId.X01)
    assert np.max(np.abs(x02 - generator(GeneratorId.X02))) < 1e-15


# ---------------------------------------------------------------------------
# embedding and controlled gates
# ---------------------------------------------------------------------------


def test_place_and_embed_local():
    a = generator(GeneratorId.X01)
    m = place(2, {1: a})
    assert np.array_equal(m, np.kron(np.eye(3), a))
    assert np.array_equal(embed_local(a, 3, 0), np.kron(a, np.eye(9)))
    with pytest.raises(ValueError):
        embed_local(a, 2, 2)


def test_gcx_action_on_basis_states():
    # qutrit 0 is the most significant digit; control reads its value
    g = gcx_matrix(2, 0, 2, 1, "01")
    for c in range(3):
        for t in range(3):
            out = g @ _ket(2, (c, t))
            if c == 2 and t in (0, 1):
                want = _ket(2, (c, 1 - t))
            else:
                want = _ket(2, (c, t))
            assert np.array_equal(out, want), (c, t)


def test_gcx_control_target_roles_swap():
    a = gcx_matrix(2, 0, 1, 1, "12")
    b = gcx_matrix(2, 1, 1, 0, "12")
    assert np.max(np.abs(a - b)) > 0.5  # genuinely different operators
    assert np.array_equal(a @ a, np.eye(9))  # controlled involution


def test_gcx_matches_projector_sum():
    for value in range(3):
        g = gcx_matrix(2, 1, value, 0, "02")
        x = generator(GeneratorId.X02)
        want = np.zeros((9, 9), dtype=complex)
        for v in range(3):
            proj = np.zeros((3, 3), dtype=complex)
            proj[v, v] = 1.0
            want += np.kron(x if v == value else np.eye(3), proj)
        assert np.array_equal(g, want)


def test_cinc_is_gcx_product():
    for value in range(3):
        lhs = cinc_matrix(2, 0, value, 1)
        rhs = gcx_matrix(2, 0, value, 1, "02") @ gcx_matrix(2, 0, value, 1, "01")
        assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_controlled_gates_reject_self_control():
    with pytest.raises(ValueError):
        gcx_matrix(2, 0, 1, 0, "01")
    with pytest.raises(ValueError):
        cinc_matrix(2, 1, 3, 0)


@pytest.mark.parametrize("ij", ["03", "10", "x"])
def test_gcx_rejects_unknown_level(ij):
    with pytest.raises(ValueError, match="level"):
        gcx_matrix(2, 0, 0, 1, ij)


# ---------------------------------------------------------------------------
# diagonal basis
# ---------------------------------------------------------------------------


def test_diagonal_basis_shape_and_commutativity():
    basis = diagonal_basis(2)
    assert len(basis) == 9
    for b in basis:
        assert np.max(np.abs(b - np.diag(np.diagonal(b)))) == 0.0  # diagonal
        assert np.max(np.abs(b + b.conj().T)) == 0.0  # skew-Hermitian


def test_diagonal_bases_span_the_same_space():
    # the basis spans the full 3^n-dimensional imaginary diagonals
    for n in (1, 2, 3):
        s = np.stack([np.real(-1j * np.diagonal(b)) for b in diagonal_basis(n)])
        assert s.shape == (3**n, 3**n)
        assert np.linalg.matrix_rank(s) == 3**n, n


# ---------------------------------------------------------------------------
# subspace projections
# ---------------------------------------------------------------------------


def _random_skew(d: int) -> np.ndarray:
    a = _RNG.standard_normal((d, d)) + 1j * _RNG.standard_normal((d, d))
    return (a - a.conj().T) / 2


@pytest.mark.parametrize("sid", list(SubspaceId))
def test_projection_idempotent_and_orthogonal(sid):
    m = _random_skew(9)
    p = subspace_project(m, sid)
    p2 = subspace_project(p, sid)
    assert np.max(np.abs(p2 - p)) < 1e-12
    # Frobenius-orthogonal: residual has no overlap with the projection
    overlap = np.abs(np.trace((m - p).conj().T @ p))
    assert overlap < 1e-10


_SAMPLED = [
    SubspaceId.EVEN0, SubspaceId.ODD0, SubspaceId.EVEN1, SubspaceId.ODD1,
    SubspaceId.EVEN2, SubspaceId.ODD2, SubspaceId.EVEN2R, SubspaceId.ODD2R,
    SubspaceId.EVEN3, SubspaceId.ODD3, SubspaceId.ODD3R,
]


@pytest.mark.parametrize("sid", _SAMPLED)
def test_random_elements_live_in_their_subspace(sid):
    for n in (2, 3):
        m = random_subspace_element(sid, n, _RNG)
        assert np.max(np.abs(m + m.conj().T)) < 1e-12  # skew-Hermitian
        ok, resid = subspace_membership(m, sid)
        assert ok, (sid, n, resid)


def test_complementary_subspaces_are_disjoint():
    m = random_subspace_element(SubspaceId.ODD0, 2, _RNG)
    ok, resid = subspace_membership(m, SubspaceId.EVEN0)
    assert not ok and resid > 1e-3


# ---------------------------------------------------------------------------
# self-tests
# ---------------------------------------------------------------------------


def test_commutation_selftest_passes_n2():
    report = commutation_selftest(2, seed=0, trials=10)
    assert report.passed
    assert len(report.results) == 18  # 6 stages x 3 closure relations
    assert all("stage" in name for name, _, _ in report.results)


def test_commutation_selftest_catches_wrong_level():
    # generator transcribed on the wrong level: its elements leak outside
    # the claimed block support
    bad = {GeneratorId.SY12: np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)}
    report = commutation_selftest(2, seed=0, trials=10, override=bad)
    assert not report.passed


def test_commutation_selftest_catches_nonhermitian():
    # sign slip making the generator non-Hermitian: sampled elements stop
    # being skew-Hermitian, which the per-trial input check flags
    bad = {GeneratorId.SY12: np.array([[0, 0, 0], [0, 0, 1j], [0, 1j, 0]], dtype=complex)}
    report = commutation_selftest(2, seed=0, trials=10, override=bad)
    assert not report.passed


def test_commutation_selftest_deterministic():
    a = commutation_selftest(2, seed=5, trials=5)
    b = commutation_selftest(2, seed=5, trials=5)
    assert a.results == b.results


def test_maximal_abelian_check_passes():
    report = maximal_abelian_check(2, seed=0, trials=10)
    assert report.passed
    assert report.worst_residual < 1e-10
    assert len(report.lines()) == 4


def test_check_report_rows_pass_within_their_tolerance():
    report = CheckReport(n=2, trials=1, results=(("exact", 0.0, 0.0), ("loose", 5e-11, 1e-10)))
    assert report.passed and report.worst_residual == 5e-11
    for bad in (1e-300, float("nan")):
        failing = CheckReport(n=2, trials=1, results=report.results + (("strict", bad, 0.0),))
        assert not failing.passed
        assert failing.lines()[-1].startswith("[FAIL]")
    # one column layout for every row, whatever the name's length
    assert len({line.index("residual") for line in failing.lines()}) == 1
