"""Dense linear-algebra kernels used by the synthesis pipeline.

Everything here works on plain complex ndarrays.  The two
decompositions call their LAPACK drivers directly: the cosine-sine
decomposition :func:`csd` is ``zuncsd`` (Sutton's algorithm) with its
factors reordered to the middle factor [[C, -S, 0], [S, C, 0], [0, 0, I]]
of the principal angles, and :func:`unitary_eig` is the complex
Schur form ``zgees``.  Both pass the workspace sizes that each driver's
own query reports (cached per shape), which is what
``scipy.linalg.cossin`` and ``scipy.linalg.schur`` do, so the results
are bitwise theirs without their per-call argument handling.  Both also
take a (k, d, d) stack: the driver runs once per matrix into
preallocated outputs, and everything around it is one array operation
over the stack.  ``csd`` writes the four factors straight into the one
buffer of L and R that ``cartan``'s stages keep, so a factor is copied
once after the driver returns it.  A level of ``cartan.factorize_stack``
is two ``csd`` passes (its k matrices, then their 2k halves) and two
``unitary_eig`` passes (4k block products of four splits, then k of the
last split).

Each pass first runs :func:`_clear_upper_state`: numpy's complex matrix
product (OpenBLAS's AVX-512 gemm) can leave the upper vector register
state dirty, and scipy's SSE-compiled LAPACK then runs at about half
speed until a ``VZEROUPPER``.  No operand or result changes.

Both decompositions require a unitary input and do not check it: the
guards run once per ``cartan.factorize_stack`` level and once per leaf
stack in ``synth._leaf_block``, and the per-split residuals catch the rest.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "CSDResult",
    "EigResult",
    "csd",
    "haar_unitary",
    "nearest_unitary",
    "unitarity_defect",
    "unitary_distance",
    "unitary_eig",
]

# Entry-wise bound on |U†U - I| below which a matrix is accepted as unitary.
UNITARY_ATOL = 1e-10

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


def _not_square(u: np.ndarray) -> ValueError:
    return ValueError(f"expected a square matrix or a stack of them, got shape {u.shape}")


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity; inf if U is not finite.

    ``u`` is one square matrix or a stack of them (the worst one counts;
    an empty stack has defect 0).  A NaN would otherwise compare False
    against every tolerance and pass the unitarity guards.  Non-square
    input raises ``ValueError``: an isometry's U†U is the identity too.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise _not_square(u)
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


@dataclass(frozen=True)
class EigResult:
    """Spectral data of a normal matrix: ``vectors @ diag(f(phases)) @ vectors†``."""

    phases: np.ndarray
    vectors: np.ndarray


@functools.cache
def _zgees_lwork(n: int) -> int:
    *_, work, info = _zgees(_no_sort, np.eye(n, dtype=complex), lwork=-1)
    _check_info("zgees", info)
    return int(work[0].real)


def _no_sort(x):
    return None


def unitary_eig(u: np.ndarray) -> EigResult:
    """Eigen-decomposition of a unitary via a complex Schur form (``zgees``).

    ``u`` is one square matrix or a (k, n, n) stack; the result's fields
    gain the same leading axis.  ``u`` must be unitary; this is not
    checked here but at trisect's entry points.  Phases are returned
    ascending in [-pi, pi]: an eigenvalue -1 gives pi, or -pi (sorted
    first) when its imaginary part is -0.0.  Within a degenerate cluster
    the Schur vectors are kept in their incoming column order (stable
    sort), so identical inputs give identical outputs.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-1] != u.shape[-2]:
        raise _not_square(u)
    n = u.shape[-1]
    stack = u.reshape(-1, n, n)
    lwork = _zgees_lwork(n)
    eigvals = np.empty(stack.shape[:2], dtype=complex)
    vecs = np.empty(stack.shape, dtype=complex)
    _clear_upper_state()
    for i, x in enumerate(stack):
        _, _, eigvals[i], vecs[i], _, info = _zgees(_no_sort, x, lwork=lwork)
        _check_info("zgees", info)
    phases = np.arctan2(eigvals.imag, eigvals.real)  # np.angle without its Python wrapper
    order = phases.argsort(kind="stable")
    rows = np.arange(len(stack))[:, None]
    phases = phases[rows, order]
    vecs = vecs.mT[rows, order].mT
    return EigResult(phases[0], vecs[0]) if u.ndim == 2 else EigResult(phases, vecs)


@dataclass(frozen=True)
class CSDResult:
    """Cosine-sine factors:  U = L @ Sigma(theta) @ R†.

    ``lr`` holds L = diag(L1, L2) and R = diag(R1, R2), block diagonal over
    (p, q), as ``lr[0]`` and ``lr[1]``.  ``theta`` holds the p principal
    angles in [0, pi/2]; Sigma is the real orthogonal
    [[C, -S, 0], [S, C, 0], [0, 0, I_{q-p}]] with C = diag(cos theta) and
    S = diag(sin theta).
    """

    lr: np.ndarray
    theta: np.ndarray


@functools.cache
def _zuncsd_lwork_for(m: int, p: int) -> tuple[int, int]:
    work, rwork, info = _zuncsd_lwork(m, p, p)
    _check_info("zuncsd", info)
    return int(work.real), int(rwork)


def csd(u: np.ndarray, p: int, q: int) -> CSDResult:
    """Cosine-sine decomposition of a (p+q) x (p+q) unitary, p <= q.

    Computed by LAPACK ``zuncsd`` (B. D. Sutton, "Computing the complete
    CS decomposition", Numer. Algorithms 50, 2009) on the four blocks of
    the (p, q) x (p, q) partition; it stays accurate for exactly-zero,
    tiny and clustered principal angles alike.  Its middle factor is
    [[C, 0, -S], [0, I, 0], [S, 0, C]]; moving the last p columns of L2
    and R2 to the front puts the C/S columns before the identity, as
    :class:`CSDResult`'s Sigma has them, so each driver output is written
    straight into its place in the zeroed ``lr`` buffer.  ``u`` may also be a
    (k, d, d) stack; ``lr`` is then (2, k, d, d) and ``theta`` (k, p).  ``u``
    must be unitary; this is not checked here but at trisect's entry points.
    """
    u = np.asarray(u, dtype=complex)
    d = p + q
    if u.ndim not in (2, 3) or u.shape[-2:] != (d, d) or p > q or p < 1:
        raise ValueError(f"bad partition ({p},{q}) for shape {u.shape}")
    stack = u.reshape(-1, d, d)
    lwork, lrwork = _zuncsd_lwork_for(d, p)
    lr = np.zeros((2, len(stack), d, d), dtype=complex)  # R† in lr[1] until the loop ends
    theta = np.empty((len(stack), p))
    _clear_upper_state()
    for i, x in enumerate(stack):
        *_, theta[i], lr[0, i, :p, :p], u2, lr[1, i, :p, :p], v2h, info = _zuncsd(
            x[:p, :p], x[:p, p:], x[p:, :p], x[p:, p:], lwork=lwork, lrwork=lrwork
        )
        _check_info("zuncsd", info)
        lr[0, i, p:, p : 2 * p], lr[0, i, p:, 2 * p :] = u2[:, -p:], u2[:, :-p]
        lr[1, i, p : 2 * p, p:], lr[1, i, 2 * p :, p:] = v2h[-p:], v2h[:-p]
    lr[1] = lr[1].conj().mT
    return CSDResult(lr, theta) if u.ndim == 3 else CSDResult(lr[:, 0], theta[0])
