"""Generator table, embedded gates, and the Lie-algebra closure checks.

The recursion rests on two facts about the paper's algebra, which no
synthesis reads: each stage's involution splits the skew-Hermitian matrices
into k + m with [k,k] <= k, [k,m] <= m and [m,m] <= k, and the diagonal middle
factors span a maximal abelian subalgebra.  Both are checked here on random
elements built from the generator table; ``test_acceptance`` runs the full
suites as criterion 6.
"""

import enum

import numpy as np
import pytest

from trisect import algebra
from trisect.algebra import (
    LEVELS,
    GeneratorId,
    cinc_matrix,
    embed_local,
    gcx_matrix,
    generator,
    place,
    rotation,
    rotations_by_code,
)

_RNG = np.random.default_rng(2024)

# Largest residual the sampled subspace and span checks accept.
CHECK_TOL = 1e-10


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


def diagonal_basis(n: int) -> list[np.ndarray]:
    """The 3^n commuting skew-Hermitian diagonals i * {I3, sz01, sz02}^(x)n."""
    mats = [generator(g) for g in (GeneratorId.I3, GeneratorId.SZ01, GeneratorId.SZ02)]
    basis = [1j * m for m in mats]
    for _ in range(n - 1):
        basis = [np.kron(m, b) for m in mats for b in basis]
    return basis


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
# block subspaces
# ---------------------------------------------------------------------------


class SubspaceId(enum.Enum):
    """Stages of the recursive splitting of skew-Hermitian n-qutrit matrices.

    Stage 0 separates the top-row/column coupling (odd) from the
    block-preserving part (even); stage 1 splits the even part into
    block-diagonal and the 12-coupling; stage 2 compares the two lower
    blocks (the reflected chain, tagged R, the two upper blocks); stage 3
    leaves I3 (x) u(3^{n-1}) plus one diagonal direction.
    """

    EVEN0 = "even0"
    ODD0 = "odd0"
    EVEN1 = "even1"
    ODD1 = "odd1"
    EVEN2 = "even2"
    ODD2 = "odd2"
    EVEN2R = "even2r"
    ODD2R = "odd2r"
    EVEN3 = "even3"
    ODD3 = "odd3"
    ODD3R = "odd3r"


def _units(*ijs: str) -> list[np.ndarray]:
    return [np.outer(np.eye(3)[int(ij[0])], np.eye(3)[int(ij[1])]) for ij in ijs]


def _diags(*rows: tuple[int, int, int]) -> list[np.ndarray]:
    return [np.diag(np.array(w, dtype=float)) for w in rows]


# Each subspace is span{P (x) X} over its pairwise-orthogonal 3x3 block
# patterns P and all p x p blocks X.  The patterns are literals, not read
# from the generator table, so a corrupted generator corrupts the sampler
# below but not this oracle.
_STAGE_PATTERNS: dict[SubspaceId, list[np.ndarray]] = {
    SubspaceId.EVEN0: _units("00", "11", "22", "12", "21"),
    SubspaceId.ODD0: _units("01", "02", "10", "20"),
    SubspaceId.EVEN1: _units("00", "11", "22"),
    SubspaceId.ODD1: _units("12", "21"),
    SubspaceId.EVEN2: _diags((1, 0, 0), (0, 1, 1)),
    SubspaceId.ODD2: _diags((0, 1, -1)),
    SubspaceId.EVEN2R: _diags((1, 1, 0), (0, 0, 1)),
    SubspaceId.ODD2R: _diags((1, -1, 0)),
    SubspaceId.EVEN3: _diags((1, 1, 1)),
    SubspaceId.ODD3: _diags((1, -1, -1)),
    SubspaceId.ODD3R: _diags((-1, -1, 1)),
}


def subspace_project(m: np.ndarray, s: SubspaceId) -> np.ndarray:
    """Frobenius-orthogonal projection of m onto the tagged subspace.

    Sum over the patterns P of P (x) (sum_ij P_ij B_ij) / |P|^2, where B_ij
    are the p x p blocks of m.  The patterns of one subspace have disjoint
    supports, so each writes its own blocks.
    """
    p = m.shape[0] // 3
    b = m.reshape(3, p, 3, p)
    out = np.zeros_like(b)
    for pattern in _STAGE_PATTERNS[s]:
        i, j = np.nonzero(pattern)
        w = pattern[i, j][:, None, None]
        out[i, :, j] = w * ((w * b[i, :, j]).sum(0) / (w * w).sum())
    return out.reshape(m.shape)


def subspace_residual(m: np.ndarray, s: SubspaceId) -> float:
    """Max-entry distance from m to its projection onto the tagged subspace."""
    return float(np.max(np.abs(m - subspace_project(m, s))))


# Each subspace is span{ i * g (x) H : H Hermitian } over the listed 3x3
# factors: generators (read through ``generator``, so a patched table
# bites), diagonal projectors e0, e1, e2, or sums of those (tuples).
_E_DIAG = {f"e{i}": np.diag(np.eye(3, dtype=complex)[i]) for i in range(3)}

_SPAN_RECIPES: dict[SubspaceId, tuple] = {
    SubspaceId.EVEN0: ("e0", "e1", "e2", GeneratorId.SX12, GeneratorId.SY12),
    SubspaceId.ODD0: (GeneratorId.SX01, GeneratorId.SY01, GeneratorId.SX02, GeneratorId.SY02),
    SubspaceId.EVEN1: ("e0", "e1", "e2"),
    SubspaceId.ODD1: (GeneratorId.SX12, GeneratorId.SY12),
    SubspaceId.EVEN2: ("e0", ("e1", "e2")),
    SubspaceId.ODD2: (GeneratorId.SZ12,),
    SubspaceId.EVEN2R: (("e0", "e1"), "e2"),
    SubspaceId.ODD2R: (GeneratorId.SZ01,),
    SubspaceId.EVEN3: (GeneratorId.I3,),
    SubspaceId.ODD3: (GeneratorId.D,),
    SubspaceId.ODD3R: (GeneratorId.DBAR,),
}


def _recipe_factor(item) -> np.ndarray:
    if isinstance(item, GeneratorId):
        return generator(item)
    if isinstance(item, tuple):
        return sum(_recipe_factor(x) for x in item)
    return _E_DIAG[item]


def _random_hermitian(p: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return (a + a.conj().T) / 2.0


def random_subspace_element(s: SubspaceId, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random element i * sum_k g_k (x) H_k of the tagged subspace at width n."""
    p = 3 ** (n - 1)
    out = np.zeros((3**n, 3**n), dtype=complex)
    for item in _SPAN_RECIPES[s]:
        out += 1j * np.kron(_recipe_factor(item), _random_hermitian(p, rng))
    return out


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


@pytest.mark.parametrize("sid", list(SubspaceId))
def test_random_elements_live_in_their_subspace(sid):
    for n in (2, 3):
        m = random_subspace_element(sid, n, _RNG)
        assert np.max(np.abs(m + m.conj().T)) < 1e-12  # skew-Hermitian
        resid = subspace_residual(m, sid)
        assert resid <= CHECK_TOL, (sid, n, resid)


def test_complementary_subspaces_are_disjoint():
    m = random_subspace_element(SubspaceId.ODD0, 2, _RNG)
    assert subspace_residual(m, SubspaceId.EVEN0) > 1e-3


# ---------------------------------------------------------------------------
# closure and abelian-span suites
# ---------------------------------------------------------------------------

# Each stage: ([even, even] in even, [even, odd] in odd, [odd, odd] in even),
# for the main chain and the reflected chain.
_STAGE_RELATIONS: tuple[tuple[str, SubspaceId, SubspaceId], ...] = (
    ("stage0", SubspaceId.EVEN0, SubspaceId.ODD0),
    ("stage1", SubspaceId.EVEN1, SubspaceId.ODD1),
    ("stage2", SubspaceId.EVEN2, SubspaceId.ODD2),
    ("stage3", SubspaceId.EVEN3, SubspaceId.ODD3),
    ("stage2r", SubspaceId.EVEN2R, SubspaceId.ODD2R),
    ("stage3r", SubspaceId.EVEN3, SubspaceId.ODD3R),
)


def rows_pass(rows) -> bool:
    """Whether every (name, residual, tolerance) row is within its tolerance."""
    return all(res <= tol for _, res, tol in rows)


def commutation_selftest(n: int, seed: int = 0, trials: int = 50) -> list[tuple[str, float, float]]:
    """(relation, worst residual, tolerance) rows of [k,k]<=k, [k,m]<=m, [m,m]<=k at every stage.

    The block-support part of each relation is automatic for matrices with
    the right sparsity, so every trial also checks that the sampled inputs
    are skew-Hermitian members of their claimed subspace; that part is
    what a corrupted generator (wrong level, wrong Hermiticity) violates.
    A row's residual is the worst of the input checks and the commutator
    membership.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for stage, k_id, m_id in _STAGE_RELATIONS:
        for pair, target in (((k_id, k_id), k_id), ((k_id, m_id), m_id), ((m_id, m_id), k_id)):
            worst = 0.0
            for _ in range(trials):
                x = random_subspace_element(pair[0], n, rng)
                y = random_subspace_element(pair[1], n, rng)
                for elem, sid in ((x, pair[0]), (y, pair[1])):
                    scale = max(1.0, float(np.max(np.abs(elem))))
                    skew = float(np.max(np.abs(elem + elem.conj().T)))
                    worst = max(worst, subspace_residual(elem, sid) / scale, skew / scale)
                comm = x @ y - y @ x
                scale = max(1.0, float(np.max(np.abs(comm))))
                worst = max(worst, subspace_residual(comm, target) / scale)
            rows.append((f"{stage}:[{pair[0].value},{pair[1].value}]<={target.value}", worst, CHECK_TOL))
    return rows


def maximal_abelian_check(n: int, seed: int = 0, trials: int = 50) -> list[tuple[str, float, float]]:
    """The diagonal basis is maximally abelian inside the skew-Hermitians.

    Rows: the largest pairwise commutator entry, the rank deficit of the
    basis, the worst residual of projecting a random skew-Hermitian's
    commutant (its diagonal) onto the span, and the number of off-diagonal
    samples that commute with every basis element.
    """
    rng = np.random.default_rng(seed)
    basis = diagonal_basis(n)
    d = 3**n

    pairwise = max(
        (float(np.max(np.abs(basis[i] @ basis[j] - basis[j] @ basis[i])))
         for i in range(len(basis)) for j in range(i + 1, len(basis))),
        default=0.0,
    )

    stacked = np.stack([np.real(-1j * np.diagonal(b)) for b in basis])
    deficit = float(d - np.linalg.matrix_rank(stacked))

    worst = 0.0
    missed = 0
    for _ in range(trials):
        raw = 1j * _random_hermitian(d, rng)
        commutant = np.diag(np.diagonal(raw))  # the only part commuting with all diagonals
        coeffs, *_ = np.linalg.lstsq(stacked.T, np.imag(np.diagonal(commutant)), rcond=None)
        recon = stacked.T @ coeffs
        worst = max(worst, float(np.max(np.abs(recon - np.imag(np.diagonal(commutant))))))
        off = raw - commutant
        if np.max(np.abs(off)) > 1e-3:
            missed += max(float(np.max(np.abs(off @ b - b @ off))) for b in basis) <= CHECK_TOL
    return [
        ("diagonal basis pairwise commuting", pairwise, 0.0),
        ("basis spans all 3^n imaginary diagonals", deficit, 0.0),
        ("commutant elements lie in the span", worst, CHECK_TOL),
        ("off-diagonal element rejected", float(missed), 0.0),
    ]


def test_commutation_selftest_passes_n2():
    rows = commutation_selftest(2, seed=0, trials=10)
    assert rows_pass(rows)
    assert len(rows) == 18  # 6 stages x 3 closure relations
    assert all("stage" in name for name, _, _ in rows)


def test_commutation_selftest_catches_wrong_level(monkeypatch):
    # generator transcribed on the wrong level: its elements leak outside
    # the claimed block support
    bad = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    monkeypatch.setitem(algebra._GENERATORS, GeneratorId.SY12, bad)
    assert not rows_pass(commutation_selftest(2, seed=0, trials=10))


def test_commutation_selftest_catches_nonhermitian(monkeypatch):
    # sign slip making the generator non-Hermitian: sampled elements stop
    # being skew-Hermitian, which the per-trial input check flags
    bad = np.array([[0, 0, 0], [0, 0, 1j], [0, 1j, 0]], dtype=complex)
    monkeypatch.setitem(algebra._GENERATORS, GeneratorId.SY12, bad)
    assert not rows_pass(commutation_selftest(2, seed=0, trials=10))


def test_commutation_selftest_deterministic():
    assert commutation_selftest(2, seed=5, trials=5) == commutation_selftest(2, seed=5, trials=5)


def test_maximal_abelian_check_passes():
    rows = maximal_abelian_check(2, seed=0, trials=10)
    assert rows_pass(rows)
    assert max(res for _, res, _ in rows) < 1e-10
    assert len(rows) == 4
