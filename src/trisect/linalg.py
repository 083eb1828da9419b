"""Dense linear-algebra kernels used by the synthesis pipeline.

Everything here works on plain complex ndarrays.  The eigen-split
:func:`unitary_eig` is the complex Schur form ``zgees``, called
directly.  The cosine-sine decomposition :func:`csd`, with its factors
ordered for the middle factor [[C, -S, 0], [S, C, 0], [0, 0, I]] of the
principal angles, has two routes chosen by the smaller block size p
alone.  Below ``CSD_BATCHED_P`` it calls ``zuncsd`` (Sutton's algorithm)
once per matrix; from there on it is the classic construction from
batched SVDs and a QR (:func:`_csd_batched`), in which every step is one
numpy call over the whole stack.  The constant sits at the measured
crossover (per matrix, one BLAS thread, stacks of one and two matrices,
both partitions): ``zuncsd`` is 1.7-2.9x faster at p = 9 and still
1.3x faster for one matrix at p = 15, while the batched route is
1.0-1.25x faster at p = 18, 1.5-1.8x at p = 27 and 2-3x at p = 81.  So
the splits of 27 x 27 and smaller matrices (p <= 9) stay on ``zuncsd``,
and those of 81 x 81 and larger ones take the batched route.  The
LAPACK calls pass the workspace sizes that each driver's own query
reports (cached per shape), which is what ``scipy.linalg.cossin`` and
``scipy.linalg.schur`` do, so their results are bitwise theirs without
their per-call argument handling.  Both kernels take only a (k, d, d)
stack and return a plain tuple of stacked arrays, and line i of a
result is what ``us[i]`` alone gives: a driver runs once per matrix
into preallocated outputs, and everything around it is one array
operation over the stack.  ``csd`` writes the four factors straight
into the one buffer of L and R that ``cartan``'s stages keep.  A level
of ``cartan.factorize_stack`` is two ``csd`` passes (its k matrices,
then their 2k halves) and two ``unitary_eig`` passes (4k block products
of four splits, then k of the last split).

Each LAPACK pass first runs :func:`_clear_upper_state`: numpy's complex
matrix product (OpenBLAS's AVX-512 gemm) can leave the upper vector
register state dirty, and scipy's SSE-compiled LAPACK then runs at about
half speed until a ``VZEROUPPER``.  No operand or result changes.

Both decompositions require a unitary input and do not check it: the
guards run once per ``cartan.factorize_stack`` level and once per leaf
stack in ``synth._leaf_block``, and the per-split residuals catch the rest.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "csd",
    "haar_unitary",
    "nearest_unitary",
    "unitarity_defect",
    "unitary_distance",
    "unitary_eig",
]

# Entry-wise bound on |U†U - I| below which a matrix is accepted as unitary.
UNITARY_ATOL = 1e-10

# Smallest block size p that csd splits with batched SVDs rather than zuncsd.
CSD_BATCHED_P = 18

# The LAPACK drivers, looked up at call time so tests can replace them.
_zuncsd = lapack.zuncsd
_zuncsd_lwork = lapack.zuncsd_lwork
_zgees = lapack.zgees
_UPPER_SCRATCH = np.zeros(16)  # the operand of _clear_upper_state


def _clear_upper_state() -> None:
    """Run numpy's AVX-512 float64 add loop, which ends with ``VZEROUPPER`` (8 elements do not reach it)."""
    np.add(_UPPER_SCRATCH, _UPPER_SCRATCH, out=_UPPER_SCRATCH)


def _check_info(driver: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {driver} failed (info={info})")


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity; inf if U is not finite.

    ``u`` is one square matrix or a stack of them (the worst one counts;
    an empty stack has defect 0).  A NaN would otherwise compare False
    against every tolerance and pass the unitarity guards.  Non-square
    input raises ``ValueError``: an isometry's U†U is the identity too.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {u.shape}")
    d = u.shape[-1]
    g = u.conj().mT @ u
    g.reshape(*g.shape[:-2], d * d)[..., :: d + 1] -= 1.0  # a view: the product is contiguous
    defect = float(np.abs(g).max(initial=0.0))
    return defect if math.isfinite(defect) else math.inf


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Closest unitary in Frobenius norm (polar factor, via SVD)."""
    w, _, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return w @ vh


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-aligned Frobenius distance  min_phi ||U - e^{i phi} V||_F.

    U and V have one shape: d x d unitaries, or (d, k) blocks of probes.
    Zero iff U = e^{i phi} V; for d x d unitaries the value lies in
    [0, sqrt(2d)].  Insensitive to global phase, which the gate
    factorizations only determine up to the explicit PHASE gate.
    Computed from the aligned difference rather than the equivalent
    sqrt(2d - 2|tr(U†V)|), whose cancellation would floor the result
    near sqrt(d * eps).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    t = np.vdot(u, v)  # tr(U^dagger V), in O(d^2) without forming the product
    phase = np.conj(t) / abs(t) if abs(t) > 1e-300 else 1.0
    return float(np.linalg.norm(u - phase * v, "fro"))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, R-phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # Fix the gauge so the distribution is exactly Haar, not QR-biased.
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


@functools.cache
def _zgees_lwork(n: int) -> int:
    *_, work, info = _zgees(_no_sort, np.eye(n, dtype=complex), lwork=-1)
    _check_info("zgees", info)
    return int(work[0].real)


def _no_sort(x):
    return None


def unitary_eig(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of each unitary of a (k, n, n) stack via a complex Schur form (``zgees``).

    Returns ``(phases, vectors)``, (k, n) and (k, n, n), with
    ``us[i] = vectors[i] @ diag(exp(1j * phases[i])) @ vectors[i]†``;
    anything but a (k, n, n) stack raises ``ValueError``.  ``us`` must be
    unitary; this is not checked here but at trisect's entry points.
    Phases are returned ascending in [-pi, pi]: an eigenvalue -1 gives pi,
    or -pi (sorted first) when its imaginary part is -0.0.  Within a
    degenerate cluster the Schur vectors are kept in their incoming column
    order (stable sort), so identical inputs give identical outputs.
    """
    us = np.asarray(us, dtype=complex)
    if us.ndim != 3 or us.shape[1] != us.shape[2]:
        raise ValueError(f"expected a (k, n, n) stack of square matrices, got shape {us.shape}")
    lwork = _zgees_lwork(us.shape[-1])
    eigvals = np.empty(us.shape[:2], dtype=complex)
    vecs = np.empty(us.shape, dtype=complex)
    _clear_upper_state()
    for i, x in enumerate(us):
        _, _, eigvals[i], vecs[i], _, info = _zgees(_no_sort, x, lwork=lwork)
        _check_info("zgees", info)
    phases = np.arctan2(eigvals.imag, eigvals.real)  # np.angle without its Python wrapper
    order = phases.argsort(kind="stable")
    rows = np.arange(len(us))[:, None]
    return phases[rows, order], vecs.mT[rows, order].mT


@functools.cache
def _zuncsd_lwork_for(m: int, p: int) -> tuple[int, int]:
    work, rwork, info = _zuncsd_lwork(m, p, p)
    _check_info("zuncsd", info)
    return int(work.real), int(rwork)


def csd(us: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine-sine decomposition of each (p+q) x (p+q) unitary of a (k, d, d) stack, 1 <= p <= q.

    Returns ``(lr, theta)`` with ``us[i] = lr[0, i] @ Sigma(theta[i]) @ lr[1, i]†``.
    ``lr`` is the (2, k, d, d) buffer of L = diag(L1, L2) and R = diag(R1, R2),
    block diagonal over (p, q); ``theta`` holds the (k, p) principal angles
    in [0, pi/2]; Sigma is the real orthogonal
    [[C, -S, 0], [S, C, 0], [0, 0, I_{q-p}]] with C = diag(cos theta) and
    S = diag(sin theta).  Anything but a (k, d, d) stack, or a partition
    with p > q or p < 1, raises ``ValueError``.

    For p < ``CSD_BATCHED_P`` it is computed by LAPACK ``zuncsd``
    (B. D. Sutton, "Computing the complete CS decomposition", Numer.
    Algorithms 50, 2009) on the four blocks of the (p, q) x (p, q)
    partition, one matrix at a time; it stays accurate for exactly-zero,
    tiny and clustered principal angles alike.  Its middle factor is
    [[C, 0, -S], [0, I, 0], [S, 0, C]]; moving the last p columns of L2
    and R2 to the front puts the C/S columns before the identity, as
    Sigma has them, so each driver output is written straight into its
    place in the zeroed ``lr`` buffer.  For larger p, where batched SVDs
    cost less than ``zuncsd`` (see the module docstring), it is
    :func:`_csd_batched`, with the angles ascending.  The route depends on
    p alone, never on the stack height.  ``us`` must be unitary; this is
    not checked here but at trisect's entry points.
    """
    us = np.asarray(us, dtype=complex)
    d = p + q
    if us.ndim != 3 or us.shape[1:] != (d, d) or p > q or p < 1:
        raise ValueError(f"bad partition ({p},{q}) for shape {us.shape}: expected (k, p+q, p+q) and 1 <= p <= q")
    if p >= CSD_BATCHED_P:
        return _csd_batched(us, p, q)
    lwork, lrwork = _zuncsd_lwork_for(d, p)
    lr = np.zeros((2, len(us), d, d), dtype=complex)  # R† in lr[1] until the loop ends
    theta = np.empty((len(us), p))
    _clear_upper_state()
    for i, x in enumerate(us):
        *_, theta[i], lr[0, i, :p, :p], u2, lr[1, i, :p, :p], v2h, info = _zuncsd(
            x[:p, :p], x[:p, p:], x[p:, :p], x[p:, p:], lwork=lwork, lrwork=lrwork
        )
        _check_info("zuncsd", info)
        lr[0, i, p:, p : 2 * p], lr[0, i, p:, 2 * p :] = u2[:, -p:], u2[:, :-p]
        lr[1, i, p : 2 * p, p:], lr[1, i, 2 * p :, p:] = v2h[-p:], v2h[:-p]
    lr[1] = lr[1].conj().mT
    return lr, theta


def _csd_batched(us: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`csd` from batched SVDs and a QR (C. F. Van Loan, Numer. Math. 46, 1985), one array operation per step.

    With the blocks Q11 (p x p), Q12, Q21 and Q22 of each line:

    * The SVD Q11 = U1 C V1† gives the angles, ascending.
    * The columns whose angles lie below a split point are refined by an
      SVD of Q21 V1, so that their angles come from the sines, which fix
      small angles better than the cosines do; their U1 columns become
      the columns of Q11 V1, normalized.  The split point is the widest
      gap of the angles inside [pi/6, pi/3] (an end of the spectrum
      counts as a gap), so no cluster of angles is cut in two, the
      cosines stay >= 1/2 on the refined side and the sines >= 1/2 on
      the other.
    * The paired columns of U2 are Q21 V1 / s.  A complete QR of Q21 V1,
      largest sine first, orthonormalizes them in the order in which
      they are well determined and completes U2, so the columns of zero
      sines span the complement of the others.
    * R2† is the lower block of Sigma^T L† U: c U2†Q22 - s U1†Q12 on the
      paired rows (Q22†U2/c and -Q12†U1/s, whichever is well
      conditioned, in one formula without a division) and U2†Q22 on the
      rest, followed by one Newton-Schulz step.
    """
    k = len(us)
    x11, x12, x21, x22 = us[:, :p, :p], us[:, :p, p:], us[:, p:, :p], us[:, p:, p:]
    u1, c, v1h = np.linalg.svd(x11)  # c descending: angles ascending
    v1 = v1h.conj().mT
    angle = np.arccos(np.minimum(c, 1.0))
    # the split point r: columns [0, r) are refined
    end = np.full((k, 1), np.inf)
    upper = np.minimum(np.concatenate((angle, end), axis=1), np.pi / 3)
    gap = upper - np.maximum(np.concatenate((-end, angle), axis=1), np.pi / 6)
    small = np.arange(p) < gap.argmax(axis=1)[:, None]
    # Scaling the other columns to unit norm puts their singular values
    # above the refined ones (s <= sin(pi/3)), so the r smallest right
    # vectors, ascending, stay in the span of V1's first r columns.  A
    # larger scale would separate them further, but would also raise the
    # floor of the small singular values, which is eps times the largest.
    z = x21 @ v1
    z /= np.where(small, 1.0, np.sin(angle))[:, None, :]
    _, s, wh = np.linalg.svd(z, full_matrices=False)
    # Orders are stable sorts, so that the columns of equal values keep
    # their order: an exact cluster, as structured inputs have, keeps the
    # basis the SVD of Q11 gave it instead of coming back reversed.
    ascending = s.argsort(axis=1, kind="stable")[:, None, :]
    wh = np.take_along_axis(wh.conj().mT, ascending, axis=2)
    v1 = v1 @ np.where(small[:, None, :], wh, np.eye(p))
    s = np.take_along_axis(s, ascending[:, 0], axis=1)
    theta = np.where(small, np.arcsin(np.minimum(s, 1.0)), angle)
    cos, sin = np.cos(theta)[..., None], np.sin(theta)[..., None]
    y = x11 @ v1  # normalized rather than divided by c, so the input's scale drops out
    np.divide(y, np.linalg.norm(y, axis=1, keepdims=True), out=u1, where=small[:, None, :])
    # U2's paired columns are Q of the complete QR of Q21 V1, columns
    # largest angle first, each times the sign of its entry of diag(R),
    # which LAPACK's Householder QR (zgeqrf) makes real.
    descending = (-theta).argsort(axis=1, kind="stable")[:, None, :]
    u2, r2 = np.linalg.qr(np.take_along_axis(x21 @ v1, descending, axis=2), mode="complete")
    u2[..., :p] *= np.where(np.diagonal(r2, axis1=1, axis2=2).real < 0, -1.0, 1.0)[:, None, :]
    lr = np.zeros((2, k, p + q, p + q), dtype=complex)
    lr[0, :, :p, :p], lr[1, :, :p, :p] = u1, v1
    lr[0, :, p:, p : 2 * p] = np.take_along_axis(u2[..., :p], descending.argsort(axis=2), axis=2)
    lr[0, :, p:, 2 * p :] = u2[..., p:]
    v2h = lr[0, :, p:, p:].conj().mT @ x22
    v2h[:, :p] = cos * v2h[:, :p] - sin * (u1.conj().mT @ x12)
    # R2 is built from products with the input, so it carries the input's
    # own distance from unitary over (the QFT's np.exp phases leave ~1e-14).
    # One Newton-Schulz step R2 (I - G / 2), G = R2†R2 - I, squares that
    # distance, which takes it to rounding level, as zuncsd has it.
    v2 = v2h.conj().mT
    g = v2h @ v2
    g.reshape(k, q * q)[:, :: q + 1] -= 1.0
    lr[1, :, p:, p:] = v2 - 0.5 * (v2 @ g)
    return lr, theta
