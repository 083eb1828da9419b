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
splittable shapes (:func:`rearrange`), and eigenvalue-based splits of
block ratios (:func:`split_off_d`).  Each cosine-sine stage keeps the
(2, ..., d, d) buffer of its L and R factors that ``csd`` fills; after
stage 2 every K is block diagonal with three p x p blocks
(p = 3^(n-1)) and is carried as the (..., 3, p, p) stack of those
blocks, the four around the mixers as one (4, ..., 3, p, p) stack,
never as a zero-padded 3p x 3p matrix.

Level j of the recursion holds 9^j independent matrices, so every step
also takes a (k, d, d) stack: :func:`factorize_stack` runs one level
for a whole stack in two ``csd`` and two ``unitary_eig`` passes (see
there), with only the LAPACK drivers looping per matrix, and returns
one stack per chain factor; :func:`factorize` is its one-matrix case,
read off as a node.  Kernels are called through this module's names
(``csd``, ``unitary_eig``, ``split_off_d``), so they can be wrapped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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
    "stage1",
    "stage2",
]

# Kinds of the eight interleaved non-K factors, in chain order.
NONLOCAL_ORDER = ("dbar", "x12", "d", "x01", "dbar", "x12", "z12", "d")


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """The dense bp x bp matrix of a (..., b, p, p) stack of b diagonal blocks."""
    b, p = blocks.shape[-3], blocks.shape[-1]
    out = np.zeros((*blocks.shape[:-3], b * p, b * p), dtype=complex)
    for i in range(b):
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


def _worst(a: np.ndarray, target: np.ndarray, lead: int = 1) -> np.ndarray:
    """Max-abs entry of a - target over all but the ``lead`` leading axes; a is overwritten."""
    a -= target
    return np.abs(a).max(axis=tuple(range(lead, a.ndim)))


def _cs_worst(lr: np.ndarray, theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each line's worst entry of L . exp(-i sx01 (x) diag(theta)) . R† - U.

    ``lr`` is the (2, k, d, d) buffer of L and R, block diagonal over
    (p, d - p), as a cosine-sine stage leaves it.  Only blocks that can be
    nonzero are multiplied: with M = L . exp(...), column block 0 of the
    product is M[:, :p] R1† and the rest M[:, p:] R2†.
    """
    p = theta.shape[-1]
    m = _mix_columns(lr[0], "x01", theta)
    rh = lr[1].conj().mT
    return _worst(np.concatenate((m[..., :p] @ rh[..., :p, :p], m[..., p:] @ rh[..., p:, p:]), axis=-1), u)


# ---------------------------------------------------------------------------
# the two cosine-sine stages
# ---------------------------------------------------------------------------
#
# Every step from here on takes one matrix or a (k, ...) stack of them,
# and returns stacks in the second case.  After stage2, a K is its
# (3, p, p) block stack, so a stack of them is (k, 3, p, p).


def stage1(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split U = L . exp(-i sx01 (x) diag(theta)) . R† at partition (p, 2p).

    Returns L and R as one (2, ..., d, d) buffer, and theta.  L and R are
    block diagonal over (p, 2p).  The CSD middle factor is real; scaling
    the second block column of both L and R by i turns it into the
    generator exponential with -i*sin off-diagonals.  The other columns
    are scaled by 1, as ``x * (1+0j)`` makes an imaginary -0.0 +0.0, and
    signs of zeros pick eigenbases on degenerate splits.
    """
    p = u.shape[-1] // 3
    res = csd(u, p, 2 * p)
    lr = res.lr
    lr *= np.array((1.0, 1j, 1.0)).repeat(p)
    return lr, res.theta


def stage2(l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the lower 2p x 2p block L' of L = diag(L0, L') at partition (p, p).

    L must be unitary and block diagonal over (p, 2p), as :func:`stage1`
    builds it; neither is checked, and only L' is read.  Returns the
    factors of L' = left . exp(-i sx01 (x) diag(theta)) . right† as one
    (2, ..., 2p, 2p) buffer, both block diagonal over (p, p), and theta;
    the lower blocks are scaled by i as in :func:`stage1`.  So
    L = diag(L0, left) . exp(-i sx12 (x) diag(theta)) . diag(I, right)†:
    the top block rides along unsplit.
    """
    p = l.shape[-1] // 3
    res = csd(l[..., p:, p:], p, p)
    lr = res.lr
    lr[..., p:, p:] *= 1j
    return lr, res.theta


def rearrange(kk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regroup the (4, ..., 3, p, p) block stack of K1..K4 around the fixed mixing factors.

    Factors of the form diag(X, I, I) slide through the blocks-1/2 mixers
    and diag(I, I, X) through the blocks-0/1 mixer, so each K can donate
    a block to its right neighbour.  The product K1.x12.K2.x01.K3.x12.K4
    (mixer angles arbitrary) is preserved exactly by K1' = diag(B0, B0, A0),
    K2' = diag(A1, B1, B1), K3' = diag(B2, B2, A2) and K4' = diag(Z, A3, B3),
    whose shapes the splitters need: each split factors its A B†.  Returns
    the (4, ..., 2, p, p) buffer of the pairs (A, B), and Z.  With Ki the
    blocks (ui1, ui2, ui3): A1, A2 and Z are u12† u11 u21, u22† u23 u33 and
    u32† u31 u41, one batched product.
    """
    x = kk[:3, ..., 1, :, :]  # u12, u22, u32
    y = kk[(0, 1, 2, 1, 2, 3), ..., (0, 2, 0, 0, 2, 0), :, :]  # u11, u23, u31, then u21, u33, u41
    prod = x.conj().mT @ y[:3] @ y[3:]
    ab = np.empty((4, *kk.shape[1:-3], 2, *kk.shape[-2:]), dtype=complex)
    ab[0] = kk[0, ..., :0:-1, :, :]  # (u13, u12)
    ab[1:3, ..., 0, :, :], ab[1:3, ..., 1, :, :] = prod[:2], x[1:]
    ab[3] = kk[3, ..., 1:, :, :]  # (u42, u43)
    return ab, prod[2]


# ---------------------------------------------------------------------------
# block splitters
# ---------------------------------------------------------------------------


def _split_conjugated_diag(prod: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V, lam in (-pi/2, pi/2] and the (..., 2, p) phases exp(-+i lam), with prod = V exp(-2i lam) V†, any leading axes."""
    eig = unitary_eig(prod.reshape(-1, *prod.shape[-2:]))
    lam = eig.phases.reshape(prod.shape[:-1]) * -0.5
    np.add(lam, np.pi, out=lam, where=lam <= -np.pi / 2)
    return eig.vectors.reshape(prod.shape), lam, np.exp(_BLOCK_SIGNS["z12"][1:, None] * lam[..., None, :])


def split_off_d(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split diag(P,Q,Q) = (I3 (x) V) . exp(-i D (x) lam) . (I3 (x) W)."""
    p_blk, q_blk = k[..., 0, :, :], k[..., 1, :, :]
    v, lam, ph = _split_conjugated_diag(p_blk @ q_blk.conj().mT)
    return v, lam, _diag_matrix(ph[..., 0, :]) @ v.conj().mT @ q_blk


def _pair_worst(v: np.ndarray, phases: np.ndarray, w: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Each line's worst entry of V diag(phases) W - (A, B); phases is (..., 2, p)."""
    return _worst((v[..., None, :, :] * phases[..., None, :]) @ w[..., None, :, :], ab, phases.ndim - 2)


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


# A tuple: a tree of factorize calls holds (9^(n-1) - 1) / 8 nodes of 17 entries each.
class NodeEntry(NamedTuple):
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

    Four kernel passes over stacks, each followed by its residual checks:
    ``csd`` of the k matrices (stage 1) and of their L and R halves (2k
    lines, stage 2); ``unitary_eig`` of the dbar, d, dbar and z12 splits
    of the rearranged blocks (4k lines) and of the d split that the z12
    split leaves (k lines).  Returns the chain in
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

    k, p = len(ms), ms.shape[-1] // 3
    residuals: dict[str, np.ndarray] = {}

    lr, th_a = stage1(ms)
    residuals["stage1"] = _cs_worst(lr, th_a, ms)

    # One stage-2 pass splits L (lines [0, k)) and R (lines [k, 2k)).  Its
    # check rebuilds only the lower 2p x 2p block that the CSD split: the top
    # block rides along as block 0 of the left K, against the identity as
    # block 0 of the right one, so the rest reconstructs exactly.
    lr2 = lr.reshape(2 * k, 3 * p, 3 * p)
    lr3, th_lr = stage2(lr2)
    worst = _cs_worst(lr3, th_lr, lr2[:, p:, p:])
    residuals["stage2_left"], residuals["stage2_right"] = worst[:k], worst[k:]
    th_l, th_r = th_lr[:k], -th_lr[k:]

    # From here on every K is a block stack.  The four around the mixers are
    # one (4, k, 3, p, p) stack: K1 and K2† are the left and right factors of
    # L's lines, K3 and K4† the right and left factors of R's.
    kk = np.zeros((4, k, 3, p, p), dtype=complex)
    blocks = lr3.reshape(2, 2, k, 2, p, 2, p).diagonal(axis1=3, axis2=5).transpose(0, 1, 2, 5, 3, 4)
    kk[::3, :, 0] = lr2[:, :p, :p].reshape(2, k, p, p)
    kk[::3, :, 1:], kk[1:3, :, 1:] = blocks
    kk[1:3, :, 0].reshape(2, k, p * p)[..., :: p + 1] = 1.0  # identities; the reshape is a view
    kk[1::2] = kk[1::2].conj().mT

    if absorb:
        # Fold each absorbed factor's sign diagonal into the K on its left as
        # column signs.  ``+ 0.0`` turns -0.0 into +0.0, as a BLAS product
        # with the dense diagonal does: on degenerate splits the signs of
        # exact zeros decide which eigenbasis LAPACK returns, so without it
        # some structured inputs get other (equally valid) circuits.
        kk[:3] *= np.array([_absorption_signs(kind, p) for kind in ("x12", "x01", "x12")])[:, None, :, None, :]
        kk[:3] += 0.0

    # One eigen-split pass for the four splits of the rearranged blocks,
    # group g on lines [gk, (g+1)k): dbar of K1', d of K2', dbar of K3' and
    # z12 of K4', each of A B† for its pair (A, B) (see rearrange).  A split
    # leaves W = diag(exp(-i lam)) V† B, the z12 split diag(exp(i lam)) V† A.
    ab, z = rearrange(kk)
    a, b = ab[:, :, 0], ab[:, :, 1]
    v, lam, ph = _split_conjugated_diag(a @ b.conj().mT)
    vw = _diag_matrix(ph[(0, 1, 2, 3), :, (0, 0, 0, 1)]) @ v.conj().mT
    w = np.empty((5, k, p, p), dtype=complex)  # the four W, then the z12 split's V†Z
    np.matmul(vw[:3], b[:3], out=w[:3])
    np.matmul(vw[3], a[3], out=w[3])
    np.matmul(v[3].conj().mT, z, out=w[4])
    # The z12 split leaves diag(V†Z, W, W), split on its own; k8 is its pair.
    k8 = w[4:2:-1].swapaxes(0, 1)
    v8, lam_d2, w8 = split_off_d(k8)

    # Residuals, one array operation per pass: every split's V exp(-+i lam) W
    # against its pair (A, B), as the phases of z12's blocks 1 and 2, and the
    # z12 split's block 0, V V†Z against Z.
    worst = _pair_worst(v, ph, w[:4], ab)
    worst_z = _worst(v[3] @ w[4], z)
    residuals.update(zip(("split_dbar_1", "split_d_1", "split_dbar_2"), worst[:3]))
    residuals["split_z12"] = np.maximum(worst[3], worst_z)
    residuals["split_d_2"] = _pair_worst(v8, _block_phases("z12", lam_d2)[:, 1:], w8, k8)

    # The chain in matrix-product order: the nine K block stacks
    # interleaved with the eight angle stacks of NONLOCAL_ORDER.
    ks = (v[0], w[0], v[1], w[1], v[2], w[2], v[3], v8, w8)
    angles = (lam[0], th_l, lam[1], th_a, lam[2], th_r, lam[3], lam_d2)
    chain = [("K", ks[0])]
    for kind, x, kx in zip(NONLOCAL_ORDER, angles, ks[1:], strict=True):
        chain += [(kind, x), ("K", kx)]
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
