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
splitters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import UNITARY_ATOL, csd, unitarity_defect, unitary_eig

__all__ = [
    "FactorizationNode",
    "NodeEntry",
    "NONLOCAL_ORDER",
    "absorption_factor",
    "equal_blocks_residual",
    "factorize",
    "nonlocal_matrix",
    "rearrange",
    "reassemble",
    "split_off_d",
    "split_off_dbar",
    "split_off_z12",
    "stage1",
    "stage2",
    "tensor_identity_residual",
    "three_block_residual",
]

# Kinds of the eight interleaved non-K factors, in chain order.
NONLOCAL_ORDER = ("dbar", "x12", "d", "x01", "dbar", "x12", "z12", "d")


def _blocks3(m: np.ndarray) -> list[list[np.ndarray]]:
    p = m.shape[0] // 3
    return [[m[i * p : (i + 1) * p, j * p : (j + 1) * p] for j in range(3)] for i in range(3)]


def _bd3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a.shape[0]
    out = np.zeros((3 * p, 3 * p), dtype=complex)
    out[:p, :p] = a
    out[p : 2 * p, p : 2 * p] = b
    out[2 * p :, 2 * p :] = c
    return out


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
    p = lam.size
    i3 = np.eye(p, dtype=complex)
    if kind in ("x01", "x12"):
        c = np.diag(np.cos(lam)).astype(complex)
        s = np.diag(np.sin(lam)).astype(complex)
        m = np.eye(3 * p, dtype=complex)
        off = 0 if kind == "x01" else p
        m[off : off + p, off : off + p] = c
        m[off : off + p, off + p : off + 2 * p] = -1j * s
        m[off + p : off + 2 * p, off : off + p] = -1j * s
        m[off + p : off + 2 * p, off + p : off + 2 * p] = c
        return m
    e_plus = np.diag(np.exp(1j * lam))
    e_minus = np.diag(np.exp(-1j * lam))
    if kind == "z12":
        return _bd3(i3, e_minus, e_plus)
    if kind == "d":
        return _bd3(e_minus, e_plus, e_plus)
    if kind == "dbar":
        return _bd3(e_plus, e_plus, e_minus)
    raise ValueError(f"unknown factor kind {kind!r}")


# ---------------------------------------------------------------------------
# group-shape residuals
# ---------------------------------------------------------------------------


def tensor_identity_residual(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Best W with u ~ I3 (x) W, and the max-entry residual."""
    b = _blocks3(u)
    w = (b[0][0] + b[1][1] + b[2][2]) / 3.0
    return w, float(np.max(np.abs(u - np.kron(np.eye(3), w))))


def three_block_residual(u: np.ndarray) -> float:
    """Leakage outside the three diagonal blocks."""
    b = _blocks3(u)
    return float(
        max(np.max(np.abs(b[i][j])) if b[i][j].size else 0.0 for i in range(3) for j in range(3) if i != j)
    )


def equal_blocks_residual(u: np.ndarray, pair: tuple[int, int]) -> float:
    """Off-block leakage plus mismatch of the two nominally equal blocks."""
    b = _blocks3(u)
    return max(three_block_residual(u), float(np.max(np.abs(b[pair[0]][pair[0]] - b[pair[1]][pair[1]]))))


# ---------------------------------------------------------------------------
# the two cosine-sine stages
# ---------------------------------------------------------------------------


def stage1(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split U = L . exp(-i sx01 (x) diag(theta)) . R† at partition (p, 2p).

    L and R are block diagonal over (p, 2p).  The CSD middle factor is
    real; scaling the second block column of both L and R by i turns it
    into the generator exponential with -i*sin off-diagonals.
    """
    d = u.shape[0]
    p = d // 3
    res = csd(u, p, 2 * p)
    phase = np.concatenate([np.ones(p), 1j * np.ones(p), np.ones(p)])
    left = np.zeros((d, d), dtype=complex)
    left[:p, :p] = res.l1
    left[p:, p:] = res.l2
    right = np.zeros((d, d), dtype=complex)
    right[:p, :p] = res.r1
    right[p:, p:] = res.r2
    return left * phase, res.theta, right * phase


def stage2(l: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split block-diagonal L = left3 . exp(-i sx12 (x) diag(theta)) . right3†.

    L must be block diagonal over (p, 2p); the CSD runs on the lower
    2p x 2p block at partition (p, p), and the top block rides along in
    left3.  Both outputs are block diagonal over (p, p, p).
    """
    d = l.shape[0]
    p = d // 3
    if np.max(np.abs(l[:p, p:])) > 1e-9 or np.max(np.abs(l[p:, :p])) > 1e-9:
        raise ValueError("stage2 input is not block diagonal over (p, 2p)")
    v = l[:p, :p]
    w = l[p:, p:]
    res = csd(w, p, p)
    left3 = _bd3(v, res.l1, 1j * res.l2)
    right3 = _bd3(np.eye(p, dtype=complex), res.r1, 1j * res.r2)
    return left3, res.theta, right3


def rearrange(
    k1: np.ndarray, k2: np.ndarray, k3: np.ndarray, k4: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Regroup four block-diagonal factors around the fixed mixing factors.

    Factors of the form diag(X, I, I) slide through the blocks-1/2 mixers
    and diag(I, I, X) through the blocks-0/1 mixer, so each K can donate
    a block to its right neighbour.  The product K1.x12.K2.x01.K3.x12.K4
    (mixer angles arbitrary) is preserved exactly, while the outputs
    gain the shapes the splitters need: K1', K3' get equal blocks 0 and
    1; K2' gets equal blocks 1 and 2.
    """
    b1, b2, b3, b4 = (_blocks3(k) for k in (k1, k2, k3, k4))
    u11, u12, u13 = b1[0][0], b1[1][1], b1[2][2]
    u21, u22, u23 = b2[0][0], b2[1][1], b2[2][2]
    u31, u32, u33 = b3[0][0], b3[1][1], b3[2][2]
    u41, u42, u43 = b4[0][0], b4[1][1], b4[2][2]
    k1n = _bd3(u12, u12, u13)
    k2n = _bd3(u12.conj().T @ u11 @ u21, u22, u22)
    k3n = _bd3(u32, u32, u22.conj().T @ u23 @ u33)
    k4n = _bd3(u32.conj().T @ u31 @ u41, u42, u43)
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
    K' = diag(V†U1, W, W) has equal lower blocks, ready for
    :func:`split_off_d`.
    """
    b = _blocks3(k)
    u1, u2, u3 = b[0][0], b[1][1], b[2][2]
    v, lam = _split_conjugated_diag(u2 @ u3.conj().T)
    w = np.diag(np.exp(1j * lam)) @ v.conj().T @ u2
    rest = _bd3(v.conj().T @ u1, w, w)
    return v, lam, rest


def split_off_d(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split diag(P,Q,Q) = (I3 (x) V) . exp(-i D (x) lam) . (I3 (x) W)."""
    b = _blocks3(k)
    p_blk, q_blk = b[0][0], b[1][1]
    v, lam = _split_conjugated_diag(p_blk @ q_blk.conj().T)
    w = np.diag(np.exp(-1j * lam)) @ v.conj().T @ q_blk
    return v, lam, w


def split_off_dbar(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split diag(Q,Q,P) = (I3 (x) V) . exp(-i Dbar (x) lam) . (I3 (x) W)."""
    b = _blocks3(k)
    q_blk, p_blk = b[0][0], b[2][2]
    v, lam = _split_conjugated_diag(p_blk @ q_blk.conj().T)
    w = np.diag(np.exp(-1j * lam)) @ v.conj().T @ q_blk
    return v, lam, w


# ---------------------------------------------------------------------------
# the full one-level factorization
# ---------------------------------------------------------------------------


def absorption_factor(kind: str, p: int) -> np.ndarray:
    """Diagonal sign compensation left over when the trailing all-value-1
    GCX run of an x01 or x12 multiplexed-rotation circuit is dropped.

    The dropped run applies the level X once per control reading 1; after
    the y-conjugation that collapses to a -1 on one block per odd-parity
    control pattern:  diag(Zd, I, I) for x01, diag(I, Zd, I) for x12,
    where Zd is the tensor power of diag(1, -1, 1).  The stripped
    circuit's matrix is this factor times the full exponential.
    """
    k = round(np.log(p) / np.log(3))
    zd = np.eye(1)
    for _ in range(k):
        zd = np.kron(zd, np.diag([1.0, -1.0, 1.0]))
    i_p = np.eye(p)
    if kind == "x01":
        return _bd3(zd.astype(complex), i_p, i_p)
    if kind == "x12":
        return _bd3(i_p.astype(complex), zd, i_p)
    raise ValueError(f"no absorption for factor kind {kind!r}")


@dataclass(frozen=True)
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
            return absorption_factor(self.kind, self.angles.size) @ m
        return m


@dataclass(frozen=True)
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

    @property
    def k_factors(self) -> list[np.ndarray]:
        return [e.matrix for e in self.entries if e.kind == "K"]

    @property
    def angle_factors(self) -> list[NodeEntry]:
        return [e for e in self.entries if e.kind != "K"]


def factorize(
    m: np.ndarray, atol: float = UNITARY_ATOL, absorb: bool = False
) -> FactorizationNode:
    """One full level: M in U(3^n), n >= 2, into the 17-factor chain.

    With ``absorb=True`` the sign compensation of the stripped x01 and
    x12 circuits is folded into the neighbouring K factors before the
    block rearrangement, so the node reconstructs against the stripped
    gate lists instead of the plain exponentials (see
    ``absorption_factor``).
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    n = round(np.log(d) / np.log(3))
    if 3**n != d or m.shape != (d, d):
        raise ValueError(f"dimension {m.shape} is not a 3^n square")
    if n < 2:
        raise ValueError("factorize needs at least two qutrits; n=1 is a local gate")
    defect = unitarity_defect(m)
    if defect > atol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")

    residuals: dict[str, float] = {}

    left, th_a, right = stage1(m)
    residuals["stage1"] = float(
        np.max(np.abs(left @ nonlocal_matrix("x01", th_a) @ right.conj().T - m))
    )

    k1p, th_l, r3 = stage2(left)
    k2p = r3.conj().T
    residuals["stage2_left"] = float(
        np.max(np.abs(k1p @ nonlocal_matrix("x12", th_l) @ r3.conj().T - left))
    )
    l3r, th_r_raw, r3r = stage2(right)
    k3p = r3r
    k4p = l3r.conj().T
    th_r = -th_r_raw
    residuals["stage2_right"] = float(
        np.max(np.abs(l3r @ nonlocal_matrix("x12", th_r_raw) @ r3r.conj().T - right))
    )

    if absorb:
        # Fold each stripped factor's sign diagonal into the K on its left.
        za1 = absorption_factor("x12", d // 3)
        za = absorption_factor("x01", d // 3)
        k1p = k1p @ za1
        k2p = k2p @ za
        k3p = k3p @ za1

    k1n, k2n, k3n, k4n = rearrange(k1p, k2p, k3p, k4p)

    v1, lam_b1, w1 = split_off_dbar(k1n)
    v3, lam_d1, w3 = split_off_d(k2n)
    v5, lam_b2, w5 = split_off_dbar(k3n)
    v7, lam_e, k8n = split_off_z12(k4n)
    v8, lam_d2, w8 = split_off_d(k8n)

    def ik(w: np.ndarray) -> np.ndarray:
        return np.kron(np.eye(3), w)

    # (name, (left, kind, angles, right), target).  split_z12 alone leaves
    # a full-size right factor, k8n, which split_d_2 splits in turn.  The
    # dense factors are built one split at a time to keep peak memory low.
    splits = (
        ("split_dbar_1", (v1, "dbar", lam_b1, w1), k1n),
        ("split_d_1", (v3, "d", lam_d1, w3), k2n),
        ("split_dbar_2", (v5, "dbar", lam_b2, w5), k3n),
        ("split_z12", (v7, "z12", lam_e, None), k4n),
        ("split_d_2", (v8, "d", lam_d2, w8), k8n),
    )
    for name, (v, kind, lam, w), target in splits:
        right = k8n if w is None else ik(w)
        residuals[name] = float(np.max(np.abs(ik(v) @ nonlocal_matrix(kind, lam) @ right - target)))

    def k(mat: np.ndarray) -> NodeEntry:
        return NodeEntry(kind="K", matrix=mat)

    def ang(kind: str, angles: np.ndarray) -> NodeEntry:
        return NodeEntry(kind=kind, angles=np.asarray(angles, dtype=float))

    entries = (
        k(v1), ang("dbar", lam_b1), k(w1),
        ang("x12", th_l),
        k(v3), ang("d", lam_d1), k(w3),
        ang("x01", th_a),
        k(v5), ang("dbar", lam_b2), k(w5),
        ang("x12", th_r),
        k(v7), ang("z12", lam_e),
        k(v8), ang("d", lam_d2), k(w8),
    )
    return FactorizationNode(n=n, entries=entries, residuals=residuals, absorbed=absorb)


def reassemble(node: FactorizationNode) -> np.ndarray:
    """Multiply the chain back out (entries are in matrix-product order)."""
    d = 3**node.n
    u = np.eye(d, dtype=complex)
    for e in node.entries:
        u = u @ e.dense(absorbed=node.absorbed)
    return u
