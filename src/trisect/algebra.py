"""Single-qutrit generators, embedded gates, and the Lie-algebra scaffolding.

Index convention: qutrit 0 is the leftmost (most significant) tensor
factor, so a basis state of an n-qutrit register reads as an n-digit
base-3 number.  Level labels "01", "02", "12" name the pair of basis
states an operator acts on; e.g. sz("01") = diag(1, -1, 0).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeneratorId",
    "SubspaceId",
    "AXES",
    "LEVELS",
    "CHECK_TOL",
    "CheckReport",
    "check_line",
    "commutation_selftest",
    "cinc_matrix",
    "diagonal_basis",
    "embed_local",
    "gcx_matrix",
    "generator",
    "maximal_abelian_check",
    "place",
    "random_subspace_element",
    "rotation",
    "rotations_by_code",
    "subspace_membership",
    "subspace_project",
]

AXES = ("x", "y", "z")
LEVELS = ("01", "02", "12")

# Largest residual the sampled subspace and span checks accept.
CHECK_TOL = 1e-10


class GeneratorId(enum.Enum):
    SX01 = "sx01"
    SX02 = "sx02"
    SX12 = "sx12"
    SY01 = "sy01"
    SY02 = "sy02"
    SY12 = "sy12"
    SZ01 = "sz01"
    SZ02 = "sz02"
    SZ12 = "sz12"
    D = "d"
    DBAR = "dbar"
    I3 = "i3"
    X01 = "x01"
    X02 = "x02"
    X12 = "x12"
    INC = "inc"


def _two_level(ij: str, block: np.ndarray) -> np.ndarray:
    i, j = int(ij[0]), int(ij[1])
    m = np.zeros((3, 3), dtype=complex)
    m[i, i], m[i, j] = block[0, 0], block[0, 1]
    m[j, i], m[j, j] = block[1, 0], block[1, 1]
    return m


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _build_generator_table() -> dict[GeneratorId, np.ndarray]:
    t: dict[GeneratorId, np.ndarray] = {}
    for axis in "xyz":
        for ij in LEVELS:
            gid = GeneratorId[f"S{axis.upper()}{ij}"]
            t[gid] = _two_level(ij, _PAULI[axis])
    t[GeneratorId.D] = np.diag([1.0, -1.0, -1.0]).astype(complex)
    t[GeneratorId.DBAR] = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    t[GeneratorId.I3] = np.eye(3, dtype=complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    for ij in LEVELS:
        x = _two_level(ij, swap)
        k = 3 - int(ij[0]) - int(ij[1])
        x[k, k] = 1.0
        t[GeneratorId[f"X{ij}"]] = x
    t[GeneratorId.INC] = t[GeneratorId.X02] @ t[GeneratorId.X01]
    return t


_GENERATORS = _build_generator_table()


def generator(gid: GeneratorId, override: dict[GeneratorId, np.ndarray] | None = None) -> np.ndarray:
    """Fresh copy of a named 3x3 generator; ``override`` swaps entries in
    (used by the self-test fault injection)."""
    if override is not None and gid in override:
        return np.array(override[gid], dtype=complex)
    return _GENERATORS[gid].copy()


# (axis, level) -> code 3 * axis + level (indices into AXES and LEVELS); code -> (i, j, spectator) of its 2x2 block
_ROTATION_CODE = {(a, ij): 3 * ia + il for ia, a in enumerate(AXES) for il, ij in enumerate(LEVELS)}
_ROTATION_SLOTS = np.array([(int(ij[0]), int(ij[1]), 3 - int(ij[0]) - int(ij[1])) for ij in LEVELS] * 3)


def rotations_by_code(code: np.ndarray, thetas) -> np.ndarray:
    """Stack of rotations exp(-i theta_r/2 sigma_axis^level), shape (R, 3, 3), for integer codes 3 * axis + level.

    ``axis`` and ``level`` index AXES and LEVELS.  One vectorised pass over
    all R angles; each entry has period 4*pi.
    """
    half = 0.5 * np.asarray(thetas, dtype=float).reshape(-1)
    ax = code // 3
    i, j, k = _ROTATION_SLOTS[code].T
    c, s = np.cos(half), np.sin(half)
    is_z = ax == 2
    # x: [[c, -is], [-is, c]]   y: [[c, -s], [s, c]]   z: diag(e^{-i half}, e^{i half})
    off = np.where(ax == 0, -1j * s, -s)
    # e^{-i half} set field by field and e^{i half} as c + i s: bit for bit np.exp's.
    z_minus = np.empty(half.size, dtype=complex)
    z_minus.real, z_minus.imag = c, -s
    r = np.arange(half.size)
    m = np.zeros((half.size, 3, 3), dtype=complex)
    m[r, i, i] = np.where(is_z, z_minus, c)
    m[r, j, j] = np.where(is_z, c + 1j * s, c)
    m[r, i, j] = np.where(is_z, 0.0, off)
    m[r, j, i] = np.where(is_z, 0.0, np.where(ax == 0, off, s))
    m[r, k, k] = 1.0
    return m


def rotation(axis: str, ij: str, theta: float) -> np.ndarray:
    """Single-qutrit rotation exp(-i theta/2 sigma_axis^ij); period 4*pi."""
    code = _ROTATION_CODE.get((axis, ij))
    if code is None:
        raise ValueError(f"bad rotation axis/level: {axis!r}/{ij!r}")
    return rotations_by_code(np.array([code]), theta)[0]


def place(n: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product over n qutrit slots, identity where unspecified."""
    m = np.eye(1, dtype=complex)
    for pos in range(n):
        m = np.kron(m, ops.get(pos, _GENERATORS[GeneratorId.I3]))
    return m


def embed_local(g: np.ndarray, n: int, target: int) -> np.ndarray:
    """Single-qutrit operator g acting on ``target`` within n qutrits."""
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for {n} qutrits")
    return place(n, {target: np.asarray(g, dtype=complex)})


def _controlled(n: int, control: int, value: int, target: int, g: np.ndarray) -> np.ndarray:
    """Apply g on ``target`` when ``control`` reads ``value``: a dense sum of
    control projectors over :func:`place`, independent of the simulator."""
    if control == target:
        raise ValueError("control and target must differ")
    if value not in (0, 1, 2):
        raise ValueError(f"control value must be a trit, got {value}")
    m = np.zeros((3**n, 3**n), dtype=complex)
    for v in range(3):
        tgt = g if v == value else _GENERATORS[GeneratorId.I3]
        m += place(n, {control: np.diag(np.eye(3, dtype=complex)[v]), target: tgt})
    return m


def gcx_matrix(n: int, control: int, value: int, target: int, ij: str) -> np.ndarray:
    """GCX: apply X^ij on ``target`` when ``control`` reads ``value``."""
    if ij not in LEVELS:
        raise ValueError(f"bad level {ij!r}")
    return _controlled(n, control, value, target, _GENERATORS[GeneratorId[f"X{ij}"]])


def cinc_matrix(n: int, control: int, value: int, target: int) -> np.ndarray:
    """Controlled increment: |t> -> |t+1 mod 3> when ``control`` reads ``value``.

    Equals gcx(value -> X02) @ gcx(value -> X01) as matrices.
    """
    return _controlled(n, control, value, target, _GENERATORS[GeneratorId.INC])


# ---------------------------------------------------------------------------
# Diagonal (Cartan subalgebra) basis
# ---------------------------------------------------------------------------


def diagonal_basis(n: int) -> list[np.ndarray]:
    """The 3^n commuting skew-Hermitian diagonals i * {I3, sz01, sz02}^(x)n.

    Built recursively: base {i*I3, i*sz01, i*sz02} multiplied through by
    {I3, sz01, sz02} on the leading qutrit.
    """
    mats = [_GENERATORS[g] for g in (GeneratorId.I3, GeneratorId.SZ01, GeneratorId.SZ02)]
    basis = [1j * m for m in mats]
    for _ in range(n - 1):
        basis = [np.kron(m, b) for m in mats for b in basis]
    return basis


# ---------------------------------------------------------------------------
# Subspace membership
# ---------------------------------------------------------------------------


class SubspaceId(enum.Enum):
    """Stages of the recursive splitting of skew-Hermitian n-qutrit matrices.

    Each stage is the even/odd split of an involution: stage 0 separates
    the top-row/column coupling (odd) from the block-preserving part
    (even); stage 1 splits the even part into block-diagonal and the
    12-coupling; stage 2 compares the two lower blocks (the reflected
    chain, tagged R, compares the two upper blocks); stage 3 leaves
    I3 (x) u(3^{n-1}) plus one diagonal direction.
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
# patterns P and all p x p blocks X.  The patterns are literals, not derived
# from _GENERATORS or _SPAN_RECIPES: subspace_project is the oracle the
# generator-driven sampler is checked against, so a corrupted generator
# table (the self-test fault injection) must not corrupt it as well.
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
    are the p x p blocks of m.  Only the nonzero pattern entries enter, and
    each pattern's blocks are written in place, since the patterns of one
    subspace have disjoint supports.
    """
    m = np.asarray(m, dtype=complex)
    p = m.shape[0] // 3
    b = m.reshape(3, p, 3, p)
    out = np.zeros_like(b)
    for pattern in _STAGE_PATTERNS[s]:
        i, j = np.nonzero(pattern)
        w = pattern[i, j][:, None, None]
        out[i, :, j] = w * ((w * b[i, :, j]).sum(0) / (w * w).sum())
    return out.reshape(m.shape)


def subspace_membership(m: np.ndarray, s: SubspaceId) -> tuple[bool, float]:
    """(member?, residual): max-entry distance from m to its projection."""
    resid = float(np.max(np.abs(m - subspace_project(m, s)))) if m.size else 0.0
    return resid <= CHECK_TOL, resid


# ---------------------------------------------------------------------------
# Random subspace elements (generator-table driven, so fault injection bites)
# ---------------------------------------------------------------------------

# Tensor-factor recipes: subspace = span{ i * g (x) H : H Hermitian } summed
# over the listed generators.  I3E0/E1/E2 are the diagonal projectors.
_E_DIAG = {
    "e0": np.diag([1.0, 0.0, 0.0]).astype(complex),
    "e1": np.diag([0.0, 1.0, 0.0]).astype(complex),
    "e2": np.diag([0.0, 0.0, 1.0]).astype(complex),
}

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


def _recipe_factor(item, override) -> np.ndarray:
    if isinstance(item, GeneratorId):
        return generator(item, override)
    if isinstance(item, tuple):
        return sum(_recipe_factor(x, override) for x in item)
    return _E_DIAG[item].copy()


def _random_hermitian(p: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return (a + a.conj().T) / 2.0


def random_subspace_element(
    s: SubspaceId,
    n: int,
    rng: np.random.Generator,
    override: dict[GeneratorId, np.ndarray] | None = None,
) -> np.ndarray:
    """Random element i * sum_k g_k (x) H_k of the tagged subspace at width n."""
    recipe = _SPAN_RECIPES[s]
    p = 3 ** (n - 1)
    out = np.zeros((3**n, 3**n), dtype=complex)
    for item in recipe:
        out += 1j * np.kron(_recipe_factor(item, override), _random_hermitian(p, rng))
    return out


def check_line(name: str, residual: float, tol: float) -> str:
    """One self-check row: it passes when its residual is within its tolerance."""
    return f"{'[ok]' if residual <= tol else '[FAIL]':<6} {name:<44s} residual {residual:.3e}"


@dataclass(frozen=True)
class CheckReport:
    n: int
    trials: int
    results: tuple[tuple[str, float, float], ...]  # (check, worst residual, tolerance)

    @property
    def passed(self) -> bool:
        return all(res <= tol for _, res, tol in self.results)

    @property
    def worst_residual(self) -> float:
        return max(res for _, res, _ in self.results)

    def lines(self) -> list[str]:
        return [check_line(*row) for row in self.results]


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


def commutation_selftest(
    n: int,
    seed: int = 0,
    trials: int = 50,
    override: dict[GeneratorId, np.ndarray] | None = None,
) -> CheckReport:
    """Verify the closure pattern [k,k]<=k, [k,m]<=m, [m,m]<=k at every stage.

    The block-support part of each relation is automatic for matrices with
    the right sparsity, so every trial also checks that the sampled inputs
    are skew-Hermitian members of their claimed subspace; that part is
    what a corrupted generator table (wrong level, wrong Hermiticity --
    see the CLI fault-injection flag) actually violates.  Each relation's
    recorded residual is the worst of the input checks and the commutator
    membership.
    """
    rng = np.random.default_rng(seed)
    results = []
    for stage, k_id, m_id in _STAGE_RELATIONS:
        for pair, target in (
            ((k_id, k_id), k_id),
            ((k_id, m_id), m_id),
            ((m_id, m_id), k_id),
        ):
            worst = 0.0
            for _ in range(trials):
                x = random_subspace_element(pair[0], n, rng, override)
                y = random_subspace_element(pair[1], n, rng, override)
                for elem, sid in ((x, pair[0]), (y, pair[1])):
                    scale = max(1.0, float(np.max(np.abs(elem))))
                    _, resid = subspace_membership(elem, sid)
                    skew = float(np.max(np.abs(elem + elem.conj().T)))
                    worst = max(worst, resid / scale, skew / scale)
                comm = x @ y - y @ x
                scale = max(1.0, float(np.max(np.abs(comm))))
                _, resid = subspace_membership(comm, target)
                worst = max(worst, resid / scale)
            name = f"{stage}:[{pair[0].value},{pair[1].value}]<={target.value}"
            results.append((name, worst, CHECK_TOL))
    return CheckReport(n=n, trials=trials, results=tuple(results))


def maximal_abelian_check(n: int, seed: int = 0, trials: int = 50) -> CheckReport:
    """The diagonal basis is maximally abelian inside the skew-Hermitians.

    Pairwise commutators of basis elements are exactly zero (they are
    diagonal), and the basis has full rank 3^n.  A random skew-Hermitian
    forced to commute with the whole basis (i.e. projected onto the
    diagonal) must land in the span, and a matrix with any off-diagonal
    entry must fail to commute with at least one basis element.  The rows'
    residuals are the largest commutator entry, the rank deficit, the
    worst span residual and the number of off-diagonal samples that
    commute with the basis.
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
    return CheckReport(
        n=n,
        trials=trials,
        results=(
            ("diagonal basis pairwise commuting", pairwise, 0.0),
            ("basis spans all 3^n imaginary diagonals", deficit, 0.0),
            ("commutant elements lie in the span", worst, CHECK_TOL),
            ("off-diagonal element rejected", float(missed), 0.0),
        ),
    )
