"""Kernel tests: distance, Haar sampling, eigendecompositions, CSD."""

import numpy as np
import pytest
import scipy.linalg

from trisect import linalg
from trisect.cartan import factorize
from trisect.linalg import (
    CSDResult,
    csd,
    csd_sigma,
    haar_unitary,
    nearest_unitary,
    unitarity_defect,
    unitary_distance,
    unitary_eig,
)
from trisect.synth import single_qutrit_gates, synthesize

X01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def _csd_reconstruct(res: CSDResult, p: int, q: int) -> np.ndarray:
    left = scipy.linalg.block_diag(res.l1, res.l2)
    right = scipy.linalg.block_diag(res.r1, res.r2)
    return left @ csd_sigma(res.theta, p, q) @ right.conj().T


# ---------------------------------------------------------------------------
# defect / projection / distance
# ---------------------------------------------------------------------------


def test_unitarity_defect_zero_for_unitary():
    assert unitarity_defect(np.eye(5)) == 0.0
    rng = np.random.default_rng(0)
    assert unitarity_defect(haar_unitary(9, rng)) < 1e-14


def test_unitarity_defect_grows_with_scaling():
    assert unitarity_defect(2.0 * np.eye(3)) == pytest.approx(3.0)


# Every entry point that takes a unitary, with an input size it accepts.
GUARDED = {
    "factorize": (factorize, 9),
    "csd": (lambda u: csd(u, 3, 6), 9),
    "unitary_eig": (unitary_eig, 9),
    "synthesize": (synthesize, 9),
    "single_qutrit_gates": (single_qutrit_gates, 3),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(GUARDED))
def test_non_finite_input_is_not_unitary(name, bad):
    # A NaN defect compares False against any tolerance; the guard must
    # still refuse the matrix.
    call, d = GUARDED[name]
    u = haar_unitary(d, np.random.default_rng(5))
    u[d // 2, 1] = bad
    assert unitarity_defect(u) == np.inf
    with pytest.raises(ValueError, match="not unitary"):
        call(u)


def test_nearest_unitary_projects_and_fixes_noisy_input():
    rng = np.random.default_rng(1)
    u = haar_unitary(9, rng)
    noisy = u + 1e-6 * rng.standard_normal((9, 9))
    fixed = nearest_unitary(noisy)
    assert unitarity_defect(fixed) < 1e-13
    # the polar factor of a small perturbation stays near the original
    assert np.max(np.abs(fixed - u)) < 1e-5


def test_nearest_unitary_identity_on_unitary():
    rng = np.random.default_rng(2)
    u = haar_unitary(3, rng)
    assert np.max(np.abs(nearest_unitary(u) - u)) < 1e-14


def test_unitary_distance_frozen_value():
    # I3 and the 01 swap differ by a full basis-state exchange: the
    # phase-aligned Frobenius distance is exactly 2.
    assert unitary_distance(np.eye(3), X01) == pytest.approx(2.0, abs=1e-12)


def test_unitary_distance_phase_invariance():
    rng = np.random.default_rng(3)
    u = haar_unitary(9, rng)
    for phi in (0.0, 0.7, -2.9, np.pi):
        assert unitary_distance(u, np.exp(1j * phi) * u) < 1e-13


def test_unitary_distance_no_noise_floor():
    # Machine-exact pairs must give ~machine-epsilon distances, not the
    # ~sqrt(d*eps) floor of the trace-cancellation formula.
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = haar_unitary(27, rng)
        d = unitary_distance(u, u * np.exp(0.31j))
        assert d < 1e-12, d


def test_unitary_distance_symmetric_and_triangle():
    rng = np.random.default_rng(5)
    u, v, w = (haar_unitary(9, rng) for _ in range(3))
    duv = unitary_distance(u, v)
    assert duv == pytest.approx(unitary_distance(v, u), abs=1e-12)
    # triangle inequality for the phase-aligned metric, sampled
    assert duv <= unitary_distance(u, w) + unitary_distance(w, v) + 1e-12


def test_unitary_distance_shape_mismatch():
    with pytest.raises(ValueError):
        unitary_distance(np.eye(3), np.eye(9))


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def test_haar_unitary_is_unitary_and_seed_deterministic():
    a = haar_unitary(27, np.random.default_rng(42))
    b = haar_unitary(27, np.random.default_rng(42))
    assert unitarity_defect(a) < 1e-13
    assert np.array_equal(a, b)
    c = haar_unitary(27, np.random.default_rng(43))
    assert np.max(np.abs(a - c)) > 0.1


def test_haar_unitary_consumes_rng_state():
    rng = np.random.default_rng(0)
    a = haar_unitary(9, rng)
    b = haar_unitary(9, rng)
    assert np.max(np.abs(a - b)) > 0.1


# ---------------------------------------------------------------------------
# eigendecompositions
# ---------------------------------------------------------------------------


def test_unitary_eig_reconstructs_and_sorts():
    rng = np.random.default_rng(6)
    u = haar_unitary(9, rng)
    res = unitary_eig(u)
    recon = res.vectors @ np.diag(np.exp(1j * res.phases)) @ res.vectors.conj().T
    assert np.max(np.abs(recon - u)) < 1e-12
    assert np.all(np.diff(res.phases) >= 0)
    assert np.all(res.phases > -np.pi) and np.all(res.phases <= np.pi)


def test_unitary_eig_degenerate_spectrum():
    # repeated eigenvalues: vectors must still diagonalize exactly
    u = np.diag([1.0, 1.0, -1.0, 1j]).astype(complex)
    res = unitary_eig(u)
    recon = res.vectors @ np.diag(np.exp(1j * res.phases)) @ res.vectors.conj().T
    assert np.max(np.abs(recon - u)) < 1e-14


def test_unitary_eig_rejects_nonunitary():
    with pytest.raises(ValueError, match="not unitary"):
        unitary_eig(np.ones((3, 3)))


@pytest.mark.parametrize("d", [3, 9, 27])
def test_unitary_eig_equals_scipy_schur(d):
    # zgees is called directly; the result must be bitwise scipy's.
    rng = np.random.default_rng(100 + d)
    for u in (haar_unitary(d, rng), np.eye(d, dtype=complex)[rng.permutation(d)]):
        t, z = scipy.linalg.schur(u, output="complex")
        phases = np.angle(np.diagonal(t))
        order = np.argsort(phases, kind="stable")
        res = unitary_eig(u)
        assert np.array_equal(res.phases, phases[order])
        assert np.array_equal(res.vectors, z[:, order])


# ---------------------------------------------------------------------------
# cosine-sine decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,p", [(9, 3), (27, 9)])
def test_csd_reconstructs_haar(d, p):
    rng = np.random.default_rng(d)
    for _ in range(10):
        u = haar_unitary(d, rng)
        res = csd(u, p, d - p)
        assert np.max(np.abs(_csd_reconstruct(res, p, d - p) - u)) < 1e-10
        assert unitarity_defect(res.l2) < 1e-10
        assert unitarity_defect(res.r2) < 1e-10
        assert np.all(res.theta >= 0.0) and np.all(res.theta <= np.pi / 2 + 1e-12)


def test_csd_square_partition():
    rng = np.random.default_rng(8)
    for p in (3, 9):
        u = haar_unitary(2 * p, rng)
        res = csd(u, p, p)
        assert np.max(np.abs(_csd_reconstruct(res, p, p) - u)) < 1e-10


def test_csd_identity_input():
    # all principal angles are exactly zero; the factors must still be
    # consistent unitaries
    res = csd(np.eye(9, dtype=complex), 3, 6)
    assert np.max(np.abs(res.theta)) == 0.0
    assert np.max(np.abs(_csd_reconstruct(res, 3, 6) - np.eye(9))) < 1e-12


def test_csd_block_diagonal_input():
    # blockdiag input has zero coupling: every angle is exactly 0
    rng = np.random.default_rng(9)
    u = np.zeros((9, 9), dtype=complex)
    u[:3, :3] = haar_unitary(3, rng)
    u[3:, 3:] = haar_unitary(6, rng)
    res = csd(u, 3, 6)
    assert np.max(np.abs(res.theta)) == 0.0
    assert np.max(np.abs(_csd_reconstruct(res, 3, 6) - u)) < 1e-10


def test_csd_pure_mixing_input():
    # the generator exponential itself: angles must come back (sorted)
    angles = np.array([0.3, 0.7, 1.1])
    c, s = np.diag(np.cos(angles)), np.diag(np.sin(angles))
    u = np.eye(9, dtype=complex)
    u[:3, :3] = c
    u[:3, 3:6] = -1j * s
    u[3:6, :3] = -1j * s
    u[3:6, 3:6] = c
    res = csd(u, 3, 6)
    assert np.max(np.abs(np.sort(res.theta) - angles)) < 1e-12
    assert np.max(np.abs(_csd_reconstruct(res, 3, 6) - u)) < 1e-10


# Exactly-zero, tiny, repeated and right angles mixed with generic ones.
MIXED_ANGLES = [
    [0.0, 0.7, 1.1],
    [1e-9, 0.3, 0.5],
    [0.0, 0.0, np.pi / 2],
    [0.4, 0.4, 1e-12],
]


@pytest.mark.parametrize("q", [6, 3], ids=["p-2p", "p-p"])
@pytest.mark.parametrize("theta", MIXED_ANGLES, ids=["zero", "tiny", "zeros-right", "repeated-tiny"])
def test_csd_reconstructs_mixed_angles(theta, q):
    # U = diag(L1, L2) Sigma(theta) diag(R1, R2)† with Haar blocks: the
    # split must reproduce U and recover the planted angles.
    p = 3
    theta = np.array(theta)
    rng = np.random.default_rng(13)
    left = scipy.linalg.block_diag(haar_unitary(p, rng), haar_unitary(q, rng))
    right = scipy.linalg.block_diag(haar_unitary(p, rng), haar_unitary(q, rng))
    u = left @ csd_sigma(theta, p, q) @ right.conj().T
    res = csd(u, p, q)
    assert np.max(np.abs(_csd_reconstruct(res, p, q) - u)) < 1e-12
    for f in (res.l1, res.l2, res.r1, res.r2):
        assert unitarity_defect(f) < 1e-12
    assert np.max(np.abs(np.sort(res.theta) - np.sort(theta))) < 1e-12


def test_csd_deterministic():
    u = haar_unitary(9, np.random.default_rng(12))
    r1 = csd(u, 3, 6)
    r2 = csd(u, 3, 6)
    for field in ("l1", "l2", "r1", "r2", "theta"):
        assert np.array_equal(getattr(r1, field), getattr(r2, field))


@pytest.mark.parametrize("square", [False, True], ids=["p-2p", "p-p"])
@pytest.mark.parametrize("p", [3, 9])
def test_csd_equals_scipy_cossin(p, square):
    # zuncsd is called directly; the result must be bitwise cossin's,
    # with the columns of L2 and R2 rolled by p.
    q = p if square else 2 * p
    rng = np.random.default_rng(200 + p)
    for _ in range(3):
        u = haar_unitary(p + q, rng)
        (l1, l2), theta, (r1h, r2h) = scipy.linalg.cossin(u, p=p, q=p, separate=True)
        res = csd(u, p, q)
        assert np.array_equal(res.l1, l1)
        assert np.array_equal(res.l2, np.roll(l2, p, axis=1))
        assert np.array_equal(res.r1, r1h.conj().T)
        assert np.array_equal(res.r2, np.roll(r2h.conj().T, p, axis=1))
        assert np.array_equal(res.theta, theta)


def _info_1(driver):
    def call(*args, **kwargs):
        *out, _ = driver(*args, **kwargs)
        return (*out, 1)

    return call


@pytest.mark.parametrize(
    "driver,run",
    [
        ("_zuncsd", lambda u: csd(u, 3, 6)),
        ("_zuncsd_lwork", lambda u: csd(u, 3, 6)),
        ("_zgees", unitary_eig),
    ],
    ids=["zuncsd", "zuncsd_lwork", "zgees"],
)
def test_lapack_failure_raises(monkeypatch, driver, run):
    u = haar_unitary(9, np.random.default_rng(14))
    run(u)  # the workspace query of this shape is now cached
    if driver == "_zuncsd_lwork":
        linalg._zuncsd_lwork_for.cache_clear()
    monkeypatch.setattr(linalg, driver, _info_1(getattr(linalg, driver)))
    with pytest.raises(np.linalg.LinAlgError, match="info=1"):
        run(u)


def test_csd_rejects_bad_input():
    with pytest.raises(ValueError, match="not unitary"):
        csd(np.ones((9, 9)), 3, 6)
    with pytest.raises(ValueError, match="partition"):
        csd(np.eye(9, dtype=complex), 4, 6)
    with pytest.raises(ValueError, match="partition"):
        csd(np.eye(9, dtype=complex), 6, 3)  # needs p <= q
