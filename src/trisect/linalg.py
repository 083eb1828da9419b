"""Dense linear-algebra kernels used by the synthesis pipeline.

Everything here works on plain complex ndarrays.  The two
decompositions call their LAPACK drivers directly: the cosine-sine
decomposition :func:`csd` is ``zuncsd`` (Sutton's algorithm) with its
factors reordered to our layout, and :func:`unitary_eig` is the complex
Schur form ``zgees``.  Both pass the workspace sizes that each driver's
own query reports (cached per shape), which is what
``scipy.linalg.cossin`` and ``scipy.linalg.schur`` do, so the results
are bitwise theirs without their per-call argument handling.
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
    "csd_sigma",
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


def _check_info(driver: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {driver} failed (info={info})")


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity; inf if U is not finite.

    A NaN would otherwise compare False against every tolerance and pass
    the unitarity guards.
    """
    u = np.asarray(u, dtype=complex)
    g = u.conj().T @ u
    np.fill_diagonal(g, g.diagonal() - 1)
    defect = float(np.abs(g).max())
    return defect if math.isfinite(defect) else math.inf


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Closest unitary in Frobenius norm (polar factor, via SVD)."""
    w, _, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return w @ vh


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-aligned Frobenius distance  min_phi ||U - e^{i phi} V||_F.

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
    t = np.trace(u.conj().T @ v)
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
    *_, work, info = _zgees(lambda x: None, np.eye(n, dtype=complex), lwork=-1)
    _check_info("zgees", info)
    return int(work[0].real)


def unitary_eig(u: np.ndarray, atol: float = UNITARY_ATOL) -> EigResult:
    """Eigen-decomposition of a unitary via a complex Schur form (``zgees``).

    Phases are returned ascending in (-pi, pi].  Within a degenerate
    cluster the Schur vectors are kept in their incoming column order
    (stable sort), so identical inputs give identical outputs.
    """
    u = np.asarray(u, dtype=complex)
    defect = unitarity_defect(u)
    if defect > atol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {atol:.1e})")
    t, _, _, vecs, _, info = _zgees(lambda x: None, u, lwork=_zgees_lwork(u.shape[0]))
    _check_info("zgees", info)
    phases = np.angle(np.diagonal(t))
    order = np.argsort(phases, kind="stable")
    return EigResult(phases[order], vecs[:, order])


@dataclass(frozen=True)
class CSDResult:
    """Cosine-sine factors:  U = diag(L1,L2) @ Sigma(theta) @ diag(R1,R2)†.

    ``theta`` holds the p principal angles in [0, pi/2]; Sigma is the
    real orthogonal middle factor produced by :func:`csd_sigma`.
    """

    l1: np.ndarray
    l2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    theta: np.ndarray


def csd_sigma(theta: np.ndarray, p: int, q: int) -> np.ndarray:
    """Middle CS factor: [[C, -S, 0], [S, C, 0], [0, 0, I_{q-p}]]."""
    c = np.cos(theta)
    s = np.sin(theta)
    sig = np.zeros((p + q, p + q))
    sig[:p, :p] = np.diag(c)
    sig[:p, p : 2 * p] = -np.diag(s)
    sig[p : 2 * p, :p] = np.diag(s)
    sig[p : 2 * p, p : 2 * p] = np.diag(c)
    sig[2 * p :, 2 * p :] = np.eye(q - p)
    return sig


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
    :func:`csd_sigma` has them.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.shape != (d, d) or d != p + q or p > q or p < 1:
        raise ValueError(f"bad partition ({p},{q}) for shape {u.shape}")
    defect = unitarity_defect(u)
    if defect > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")

    lwork, lrwork = _zuncsd_lwork_for(d, p)
    *_, theta, l1, l2, r1h, r2h, info = _zuncsd(
        u[:p, :p], u[:p, p:], u[p:, :p], u[p:, p:], lwork=lwork, lrwork=lrwork
    )
    _check_info("zuncsd", info)
    l2 = np.concatenate((l2[:, -p:], l2[:, :-p]), axis=1)
    r2 = np.concatenate((r2h[-p:], r2h[:-p])).conj().T
    return CSDResult(l1=l1, l2=l2, r1=r1h.conj().T, r2=r2, theta=theta)
