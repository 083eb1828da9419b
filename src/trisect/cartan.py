"""Recursive block factorization of n-qutrit unitaries.

One level of the recursion rewrites a 3^n x 3^n unitary M as a chain of
seventeen factors

    M = K1 . F1 . K2 . F2 . ... . F8 . K9

where every K_i is I3 (x) W for an (n-1)-qutrit unitary W and the eight
interleaved factors F_j are exponentials of a fixed single-qutrit
generator tensored with a real diagonal (see :func:`nonlocal_matrix`
for the five kinds and :data:`NONLOCAL_ORDER` for their sequence).
The machinery: two cosine-sine splits (:func:`stage1`, :func:`stage2`),
a block rearrangement that regroups the four outer factors into
splittable shapes (:func:`rearrange`), and three eigenvalue-based
splitters.  From :func:`stage2` on, every K is block diagonal with
three p x p blocks (p = 3^(n-1)) and is carried as the (..., 3, p, p)
stack of those blocks, never as a zero-padded 3p x 3p matrix.

Level j of the recursion holds 9^j independent matrices, so every step
also takes a (k, d, d) stack: :func:`factorize_stack` runs one level
for a whole stack in one pass of array operations, with only the LAPACK
drivers looping per matrix, and returns one stack per chain factor;
:func:`factorize` is its one-matrix case, read off as a node.  Steps
are called through this module's names (``csd``, ``unitary_eig``,
``split_off_*``), so they can be wrapped from outside.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import UNITARY_ATOL, csd, unitarity_defect, unitary_eig

__all__ = [
    "FactorizationNode",
    "NodeEntry",
    "NONLOCAL_ORDER",
    "factorize",
    "factorize_stack",
    "nonlocal_matrix",
    "rearrange",
    "reassemble",
    "split_off_d",
    "split_off_dbar",
    "split_off_z12",
    "stage1",
    "stage2",
]

# Kinds of the eight interleaved non-K factors, in chain order.
NONLOCAL_ORDER = ("dbar", "x12", "d", "x01", "dbar", "x12", "z12", "d")


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """The dense 3p x 3p matrix of a (..., 3, p, p) diagonal-block stack."""
    p = blocks.shape[-1]
    out = np.zeros((*blocks.shape[:-3], 3 * p, 3 * p), dtype=complex)
    for i in range(3):
        out[..., i * p : (i + 1) * p, i * p : (i + 1) * p] = blocks[..., i, :, :]
    return out


def _diag_matrix(e: np.ndarray) -> np.ndarray:
    """diag(e) for a vector, or one diagonal matrix per row of a (k, p) stack."""
    p = e.shape[-1]
    out = np.zeros((*e.shape, p), dtype=complex)
    out.reshape(*e.shape[:-1], p * p)[..., :: p + 1] = e
    return out


# Block b of a diagonal kind is diag(exp(i * sign_b * lam)); i times the signs.
_BLOCK_SIGNS = {
    "z12": 1j * np.array([0, -1, 1]),
    "d": 1j * np.array([-1, 1, 1]),
    "dbar": 1j * np.array([1, 1, -1]),
}


def _block_phases(kind: str, lam: np.ndarray) -> np.ndarray:
    """The diagonals of the three blocks of a z12, d or dbar factor, (..., 3, p)."""
    return np.exp(_BLOCK_SIGNS[kind][:, None] * lam[..., None, :])


def nonlocal_matrix(kind: str, angles: np.ndarray) -> np.ndarray:
    """Dense matrix of one interleaved factor from its diagonal angles.

    x01  = exp(-i sx01 (x) diag)   -- cosine/sine mixing of blocks 0,1
    x12  = exp(-i sx12 (x) diag)   -- same on blocks 1,2
    z12  = exp(-i sz12 (x) diag)   -- diagonal, blocks (1, 2) get (-, +)
    d    = exp(-i D    (x) diag)   -- diagonal, blocks (0, 1, 2) get (-, +, +)
    dbar = exp(-i Dbar (x) diag)   -- diagonal, blocks (0, 1, 2) get (+, +, -)

    with D = diag(1, -1, -1) and Dbar = diag(-1, -1, 1).
    """
    lam = np.asarray(angles, dtype=float)
    if kind in ("x01", "x12"):
        return _mix_columns(np.eye(3 * lam.size, dtype=complex), kind, lam)
    if kind not in _BLOCK_SIGNS:
        raise ValueError(f"unknown factor kind {kind!r}")
    return _block_diag(_diag_matrix(_block_phases(kind, lam)))


def _mix_columns(a: np.ndarray, kind: str, angles: np.ndarray) -> np.ndarray:
    """``a`` times an x01 or x12 factor, without forming the factor.

    Column j of block 0 (x01) or 1 (x12) and its partner in the next block
    mix by [[cos, -i sin], [-i sin, cos]] of angle j.  A (k, d, d) stack
    takes (k, p) angles, one row per matrix.
    """
    p = angles.shape[-1]
    off = 0 if kind == "x01" else p
    c = np.cos(angles)[..., None, :]
    s = -1j * np.sin(angles)[..., None, :]
    a0 = a[..., off : off + p]
    a1 = a[..., off + p : off + 2 * p]
    out = a.copy()
    out[..., off : off + p] = a0 * c + a1 * s
    out[..., off + p : off + 2 * p] = a0 * s + a1 * c
    return out


def _worst(a: np.ndarray) -> np.ndarray:
    """Max-abs entry of each item of a stack, shape (k,)."""
    return np.abs(a).max(axis=tuple(range(1, a.ndim)))


# ---------------------------------------------------------------------------
# the two cosine-sine stages
# ---------------------------------------------------------------------------
#
# Every step from here on takes one matrix or a (k, ...) stack of them,
# and returns stacks in the second case.  From stage2 on, a K is its
# (3, p, p) block stack, so a stack of them is (k, 3, p, p).


def stage1(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split U = L . exp(-i sx01 (x) diag(theta)) . R† at partition (p, 2p).

    L and R are block diagonal over (p, 2p).  The CSD middle factor is
    real; scaling the second block column of both L and R by i turns it
    into the generator exponential with -i*sin off-diagonals.  The other
    columns are scaled by 1, as ``x * (1+0j)`` makes an imaginary -0.0
    +0.0, and signs of zeros pick eigenbases on degenerate splits.
    """
    d = u.shape[-1]
    p = d // 3
    res = csd(u, p, 2 * p)
    phase = np.repeat((1.0, 1j, 1.0), p)
    left = np.zeros(u.shape, dtype=complex)
    left[..., :p, :p] = res.l1
    left[..., p:, p:] = res.l2
    right = np.zeros(u.shape, dtype=complex)
    right[..., :p, :p] = res.r1
    right[..., p:, p:] = res.r2
    return left * phase, res.theta, right * phase


def stage2(l: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split block-diagonal L = left3 . exp(-i sx12 (x) diag(theta)) . right3†.

    L must be unitary and block diagonal over (p, 2p), as :func:`stage1`
    builds it; neither is checked.  Only the diagonal blocks are read:
    the CSD runs on the lower 2p x 2p block at partition (p, p), and the
    top block rides along in left3.  Both outputs are block diagonal over
    (p, p, p) and come as their (..., 3, p, p) block stacks.
    """
    p = l.shape[-1] // 3
    res = csd(l[..., p:, p:], p, p)
    left3 = np.stack((l[..., :p, :p], res.l1, 1j * res.l2), axis=-3)
    right3 = np.stack((res.r1, res.r1, 1j * res.r2), axis=-3)
    right3[..., 0, :, :] = np.eye(p)  # the first r1 only set block 0's shape
    return left3, res.theta, right3


def rearrange(
    k1: np.ndarray, k2: np.ndarray, k3: np.ndarray, k4: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Regroup four block stacks around the fixed mixing factors.

    Factors of the form diag(X, I, I) slide through the blocks-1/2 mixers
    and diag(I, I, X) through the blocks-0/1 mixer, so each K can donate
    a block to its right neighbour.  The product K1.x12.K2.x01.K3.x12.K4
    (mixer angles arbitrary) is preserved exactly, while the outputs
    gain the shapes the splitters need: K1', K3' get equal blocks 0 and
    1; K2' gets equal blocks 1 and 2.
    """
    (u11, u12, u13), (u21, u22, u23), (u31, u32, u33), (u41, u42, u43) = (
        [k[..., i, :, :] for i in range(3)] for k in (k1, k2, k3, k4)
    )
    k1n = np.stack((u12, u12, u13), axis=-3)
    k2n = np.stack((u12.conj().mT @ u11 @ u21, u22, u22), axis=-3)
    k3n = np.stack((u32, u32, u22.conj().mT @ u23 @ u33), axis=-3)
    k4n = np.stack((u32.conj().mT @ u31 @ u41, u42, u43), axis=-3)
    return k1n, k2n, k3n, k4n


# ---------------------------------------------------------------------------
# block splitters
# ---------------------------------------------------------------------------


def _split_conjugated_diag(prod: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V and lam with prod = V exp(-2i lam) V†, lam in (-pi/2, pi/2]."""
    eig = unitary_eig(prod)
    lam = -eig.phases / 2.0
    lam[lam <= -np.pi / 2] += np.pi
    return eig.vectors, lam


def split_off_z12(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split diag(U1,U2,U3) = (I3 (x) V) . exp(-i sz12 (x) lam) . K'.

    V and lam come from the eigenstructure of U2 U3†; the remainder
    K' = diag(V†U1, W, W), returned as its block stack, has equal lower
    blocks, ready for :func:`split_off_d`.
    """
    u1, u2, u3 = (k[..., i, :, :] for i in range(3))
    v, lam = _split_conjugated_diag(u2 @ u3.conj().mT)
    w = _diag_matrix(np.exp(1j * lam)) @ v.conj().mT @ u2
    rest = np.stack((v.conj().mT @ u1, w, w), axis=-3)
    return v, lam, rest


def split_off_d(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split diag(P,Q,Q) = (I3 (x) V) . exp(-i D (x) lam) . (I3 (x) W)."""
    return _split_off_outer(k[..., 0, :, :], k[..., 1, :, :])


def split_off_dbar(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split diag(Q,Q,P) = (I3 (x) V) . exp(-i Dbar (x) lam) . (I3 (x) W)."""
    return _split_off_outer(k[..., 2, :, :], k[..., 0, :, :])


def _split_off_outer(p_blk: np.ndarray, q_blk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The d / dbar split from its outer block P and one copy of its repeated block Q."""
    v, lam = _split_conjugated_diag(p_blk @ q_blk.conj().mT)
    w = _diag_matrix(np.exp(-1j * lam)) @ v.conj().mT @ q_blk
    return v, lam, w


# ---------------------------------------------------------------------------
# the full one-level factorization
# ---------------------------------------------------------------------------


@functools.cache
def _absorption_signs(kind: str, p: int) -> np.ndarray:
    """Diagonal sign compensation left over when the trailing all-value-1
    GCX run of an x01 or x12 multiplexed-rotation circuit is left out,
    as (3, p) block signs, read-only.

    The omitted run applies the level X once per control reading 1; after
    the y-conjugation that collapses to a -1 on one block per odd-parity
    control pattern:  diag(Zd, I, I) for x01, diag(I, Zd, I) for x12,
    where Zd is the tensor power of diag(1, -1, 1).  The absorbed
    circuit's matrix is this diagonal times the full exponential.
    """
    if kind not in ("x01", "x12"):
        raise ValueError(f"no absorption for factor kind {kind!r}")
    zd = np.ones(1)
    while zd.size < p:
        zd = np.kron(zd, [1.0, -1.0, 1.0])
    signs = np.ones((3, p))
    signs[0 if kind == "x01" else 1] = zd
    signs.flags.writeable = False
    return signs


# Slotted: a tree of factorize calls holds (9^(n-1) - 1) / 8 nodes of 17 entries each.
@dataclass(frozen=True, slots=True)
class NodeEntry:
    """One factor of the chain: a K (matrix) or an angle-vector factor."""

    kind: str  # 'K' | 'x01' | 'x12' | 'z12' | 'd' | 'dbar'
    matrix: np.ndarray | None = None
    angles: np.ndarray | None = None

    def dense(self, absorbed: bool = False) -> np.ndarray:
        if self.kind == "K":
            return np.kron(np.eye(3), self.matrix)
        m = nonlocal_matrix(self.kind, self.angles)
        if absorbed and self.kind in ("x01", "x12"):
            return _absorption_signs(self.kind, self.angles.size).reshape(-1, 1) * m
        return m


@dataclass(frozen=True, slots=True)
class FactorizationNode:
    """One level of the recursion: 9 K entries interleaved with 8 others.

    ``entries`` is in chain (matrix-product) order, starting and ending
    with a K.  ``residuals`` records the numerical health of each
    internal step.
    """

    n: int
    entries: tuple[NodeEntry, ...]
    residuals: dict[str, float]
    absorbed: bool = False


def _qutrit_count(d: int) -> int | None:
    """n with 3^n == d, or None; integer arithmetic, so any d is safe."""
    n, power = 0, 1
    while power < d:
        n, power = n + 1, power * 3
    return n if power == d else None


def factorize_stack(ms: np.ndarray, absorb: bool = False) -> tuple[list[tuple[str, np.ndarray]], dict[str, np.ndarray]]:
    """One full level for each matrix of a (k, 3^n, 3^n) stack, n >= 2.

    Every step runs once over the whole stack: one pass of array
    operations plus the per-matrix LAPACK calls.  Returns the chain in
    matrix-product order as 17 ``(kind, stack)`` pairs (K factors
    (k, p, p), angle factors (k, p), p = 3^(n-1)) and each step's worst
    residual as a (k,) array by name; line i is what ``ms[i]`` alone
    gives.  With ``absorb=True`` the sign compensation of the absorbed
    x01 and x12 circuits is folded into the neighbouring K factors
    before the block rearrangement, so the chain reconstructs against
    the absorbed gate lists instead of the plain exponentials (see
    :func:`_absorption_signs`).
    """
    ms = np.asarray(ms, dtype=complex)
    n = _qutrit_count(ms.shape[-1]) if ms.ndim == 3 and ms.shape[1] == ms.shape[2] else None
    if n is None:
        raise ValueError(f"expected a (k, 3^n, 3^n) stack, got shape {ms.shape}")
    if n < 2:
        raise ValueError("factorize needs at least two qutrits; n=1 is a local gate")
    defect = unitarity_defect(ms)
    if defect > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")

    residuals: dict[str, np.ndarray] = {}

    left, th_a, right = stage1(ms)
    residuals["stage1"] = _worst(_mix_columns(left, "x01", th_a) @ right.conj().mT - ms)

    # From here on every K is a (k, 3, p, p) block stack.
    k1p, th_l, r3 = stage2(left)
    k2p = r3.conj().mT
    residuals["stage2_left"] = _worst(_mix_columns(_block_diag(k1p), "x12", th_l) @ _block_diag(k2p) - left)
    l3r, th_r_raw, r3r = stage2(right)
    k3p = r3r
    k4p = l3r.conj().mT
    th_r = -th_r_raw
    r3r_h = _block_diag(r3r).conj().mT
    residuals["stage2_right"] = _worst(_mix_columns(_block_diag(l3r), "x12", th_r_raw) @ r3r_h - right)

    if absorb:
        # Fold each absorbed factor's sign diagonal into the K on its left as
        # column signs.  ``+ 0.0`` turns -0.0 into +0.0, as a BLAS product
        # with the dense diagonal does: on degenerate splits the signs of
        # exact zeros decide which eigenbasis LAPACK returns, so without it
        # some structured inputs get other (equally valid) circuits.
        p = ms.shape[-1] // 3
        za1 = _absorption_signs("x12", p)[:, None, :]
        za = _absorption_signs("x01", p)[:, None, :]
        k1p = k1p * za1 + 0.0
        k2p = k2p * za + 0.0
        k3p = k3p * za1 + 0.0

    k1n, k2n, k3n, k4n = rearrange(k1p, k2p, k3p, k4p)

    v1, lam_b1, w1 = split_off_dbar(k1n)
    v3, lam_d1, w3 = split_off_d(k2n)
    v5, lam_b2, w5 = split_off_dbar(k3n)
    v7, lam_e, k8n = split_off_z12(k4n)
    v8, lam_d2, w8 = split_off_d(k8n)

    # (name, (left, kind, angles, right), target).  split_z12 alone leaves
    # a full right block stack, k8n, which split_d_2 splits in turn.  The
    # residual is the worst entry over the three blocks.
    splits = (
        ("split_dbar_1", (v1, "dbar", lam_b1, w1[:, None]), k1n),
        ("split_d_1", (v3, "d", lam_d1, w3[:, None]), k2n),
        ("split_dbar_2", (v5, "dbar", lam_b2, w5[:, None]), k3n),
        ("split_z12", (v7, "z12", lam_e, k8n), k4n),
        ("split_d_2", (v8, "d", lam_d2, w8[:, None]), k8n),
    )
    for name, (v, kind, lam, w), target in splits:
        prod = (v[:, None] * _block_phases(kind, lam)[..., None, :]) @ w
        residuals[name] = _worst(prod - target)

    # The chain in matrix-product order: the nine K block stacks
    # interleaved with the eight angle stacks of NONLOCAL_ORDER.
    ks = (v1, w1, v3, w3, v5, w5, v7, v8, w8)
    angles = (lam_b1, th_l, lam_d1, th_a, lam_b2, th_r, lam_e, lam_d2)
    chain = [("K", ks[0])]
    for kind, lam, k in zip(NONLOCAL_ORDER, angles, ks[1:], strict=True):
        chain += [(kind, lam), ("K", k)]
    return chain, residuals


def factorize(m: np.ndarray, absorb: bool = False) -> FactorizationNode:
    """One full level: M in U(3^n), n >= 2, into the 17-factor chain.

    Line 0 of :func:`factorize_stack` on the one-matrix stack; the
    entries are views into its stacks.
    """
    chain, residuals = factorize_stack(np.asarray(m)[None], absorb)
    return FactorizationNode(
        n=_qutrit_count(np.shape(m)[-1]),
        entries=tuple(NodeEntry(kind, x[0]) if kind == "K" else NodeEntry(kind, None, x[0]) for kind, x in chain),
        residuals={name: float(r[0]) for name, r in residuals.items()},
        absorbed=absorb,
    )


def reassemble(node: FactorizationNode) -> np.ndarray:
    """Multiply the chain back out (entries are in matrix-product order)."""
    d = 3**node.n
    u = np.eye(d, dtype=complex)
    for e in node.entries:
        u = u @ e.dense(absorbed=node.absorbed)
    return u
