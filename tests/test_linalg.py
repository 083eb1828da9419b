"""Kernel tests: distance, Haar sampling, eigendecompositions, CSD."""

import numpy as np
import pytest
import scipy.linalg

from trisect import linalg
from trisect.cartan import factorize, factorize_stack
from trisect.linalg import (
    csd,
    haar_unitary,
    nearest_unitary,
    unitarity_defect,
    unitary_distance,
    unitary_eig,
)
from trisect.synth import single_qutrit_gates, synthesize

from oracle import csd_sigma
from test_structured import KINDS, structured_input

X01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def _csd_one(u: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """``csd`` of the one-matrix stack ``u[None]``: L and R as a (2, d, d) pair, and theta."""
    lr, theta = csd(u[None], p, q)
    return lr[:, 0], theta[0]


def _eig_one(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``unitary_eig`` of the one-matrix stack ``u[None]``: phases and vectors."""
    phases, vectors = unitary_eig(u[None])
    return phases[0], vectors[0]


def _csd_reconstruct(lr: np.ndarray, theta: np.ndarray, p: int, q: int) -> np.ndarray:
    left, right = lr
    return left @ csd_sigma(theta, p, q) @ right.conj().T


# ---------------------------------------------------------------------------
# defect / projection / distance
# ---------------------------------------------------------------------------


def test_unitarity_defect_zero_for_unitary():
    assert unitarity_defect(np.eye(5)) == 0.0
    rng = np.random.default_rng(0)
    assert unitarity_defect(haar_unitary(9, rng)) < 1e-14


def test_unitarity_defect_grows_with_scaling():
    assert unitarity_defect(2.0 * np.eye(3)) == pytest.approx(3.0)


def test_unitarity_defect_of_a_stack_is_the_worst_matrix():
    rng = np.random.default_rng(3)
    stack = np.stack([haar_unitary(3, rng) for _ in range(5)])
    stack[3] *= 1.5
    assert unitarity_defect(stack) == max(unitarity_defect(u) for u in stack)
    assert unitarity_defect(stack) == pytest.approx(1.25)
    assert unitarity_defect(np.zeros((0, 3, 3))) == 0.0


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (4, 3, 2), (3,), ()])
def test_non_square_input_is_refused(shape):
    # A 3x2 isometry has U†U = I, so without a shape check it would pass
    # as unitary and fail later inside LAPACK.
    u = np.eye(3)[:, :2] if shape == (3, 2) else np.ones(shape)
    with pytest.raises(ValueError, match="square"):
        unitarity_defect(u)
    with pytest.raises(ValueError, match="square"):
        unitary_eig(u[None])


def test_kernels_take_only_stacks():
    # both kernels take a (k, d, d) stack and nothing else: one matrix is refused
    with pytest.raises(ValueError, match="square"):
        unitary_eig(np.eye(3)[None, None])
    with pytest.raises(ValueError, match=r"\(k, n, n\) stack"):
        unitary_eig(np.eye(3))
    with pytest.raises(ValueError, match=r"\(k, p\+q, p\+q\)"):
        csd(np.eye(9, dtype=complex), 3, 6)
    with pytest.raises(ValueError, match=r"\(k, p\+q, p\+q\)"):
        csd(np.eye(9, dtype=complex)[None, None], 3, 6)


# Every entry point that checks a unitary, with an input size it accepts.
GUARDED = {
    "factorize": (factorize, 9),
    "synthesize": (synthesize, 9),
    "single_qutrit_gates": (single_qutrit_gates, 3),
    "single_qutrit_gates stack": (lambda u: single_qutrit_gates(np.stack([np.eye(3), u])), 3),
    "factorize_stack": (lambda u: factorize_stack(np.stack([np.eye(9), u])), 9),
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
    phases, vectors = _eig_one(u)
    recon = vectors @ np.diag(np.exp(1j * phases)) @ vectors.conj().T
    assert np.max(np.abs(recon - u)) < 1e-12
    assert np.all(np.diff(phases) >= 0)
    assert np.all(phases > -np.pi) and np.all(phases <= np.pi)


def test_unitary_eig_degenerate_spectrum():
    # repeated eigenvalues: vectors must still diagonalize exactly
    u = np.diag([1.0, 1.0, -1.0, 1j]).astype(complex)
    phases, vectors = _eig_one(u)
    recon = vectors @ np.diag(np.exp(1j * phases)) @ vectors.conj().T
    assert np.max(np.abs(recon - u)) < 1e-14


@pytest.mark.parametrize("d", [3, 9, 81])
def test_stacked_decompositions_match_single_calls(d):
    rng = np.random.default_rng(40 + d)
    us = np.stack([haar_unitary(d, rng) for _ in range(3)] + [np.eye(d, dtype=complex)])
    phases, vectors = unitary_eig(us)
    p = d // 3
    lr, theta = csd(us, p, d - p)
    for i, u in enumerate(us):
        one_phases, one_vectors = _eig_one(u)
        assert np.array_equal(phases[i], one_phases)
        assert np.array_equal(vectors[i], one_vectors)
        one_lr, one_theta = _csd_one(u, p, d - p)
        assert np.array_equal(lr[:, i], one_lr) and np.array_equal(theta[i], one_theta)
    assert unitary_eig(np.zeros((0, d, d)))[1].shape == (0, d, d)


@pytest.mark.parametrize("d", [3, 9, 27])
def test_unitary_eig_equals_scipy_schur(d):
    # zgees is called directly; the result must be bitwise scipy's.
    rng = np.random.default_rng(100 + d)
    for u in (haar_unitary(d, rng), np.eye(d, dtype=complex)[rng.permutation(d)]):
        t, z = scipy.linalg.schur(u, output="complex")
        phases = np.angle(np.diagonal(t))
        order = np.argsort(phases, kind="stable")
        got_phases, got_vectors = _eig_one(u)
        assert np.array_equal(got_phases, phases[order])
        assert np.array_equal(got_vectors, z[:, order])


# ---------------------------------------------------------------------------
# cosine-sine decomposition
# ---------------------------------------------------------------------------


# A block size below CSD_BATCHED_P (zuncsd) and one at or above it (batched SVDs).
ROUTES = [3, 27]


def test_routes_split_at_the_constant(monkeypatch):
    # zuncsd takes p = 9, the batched route p = 27, and nothing else moves them
    assert 9 < linalg.CSD_BATCHED_P <= 27
    rng = np.random.default_rng(15)
    calls = []
    monkeypatch.setattr(linalg, "_zuncsd", lambda *a, **kw: calls.append(None) or linalg.lapack.zuncsd(*a, **kw))
    csd(haar_unitary(27, rng)[None], 9, 18)
    assert len(calls) == 1
    csd(haar_unitary(81, rng)[None], 27, 54)
    csd(haar_unitary(54, rng)[None], 27, 27)
    assert len(calls) == 1


@pytest.mark.parametrize("d,p", [(9, 3), (27, 9), (81, 27)])
def test_csd_reconstructs_haar(d, p):
    rng = np.random.default_rng(d)
    for _ in range(10):
        u = haar_unitary(d, rng)
        lr, theta = _csd_one(u, p, d - p)
        assert np.max(np.abs(_csd_reconstruct(lr, theta, p, d - p) - u)) < 1e-10
        assert unitarity_defect(lr) < 1e-10  # L and R
        assert np.all(theta >= 0.0) and np.all(theta <= np.pi / 2 + 1e-12)


def test_csd_square_partition():
    rng = np.random.default_rng(8)
    for p in (3, 9, 27):
        u = haar_unitary(2 * p, rng)
        lr, theta = _csd_one(u, p, p)
        assert np.max(np.abs(_csd_reconstruct(lr, theta, p, p) - u)) < 1e-10


@pytest.mark.parametrize("p", ROUTES)
def test_csd_identity_input(p):
    # all principal angles are exactly zero; the factors must still be
    # consistent unitaries
    d = 3 * p
    lr, theta = _csd_one(np.eye(d, dtype=complex), p, 2 * p)
    assert np.max(np.abs(theta)) == 0.0
    assert np.max(np.abs(_csd_reconstruct(lr, theta, p, 2 * p) - np.eye(d))) < 1e-12
    # the factors are the identity itself: a cluster of equal angles keeps
    # the basis it comes with, on both routes
    assert np.array_equal(lr, np.broadcast_to(np.eye(d), lr.shape))


@pytest.mark.parametrize("p", ROUTES)
def test_csd_block_diagonal_input(p):
    # blockdiag input has zero coupling: every angle is exactly 0
    rng = np.random.default_rng(9)
    u = scipy.linalg.block_diag(haar_unitary(p, rng), haar_unitary(2 * p, rng))
    lr, theta = _csd_one(u, p, 2 * p)
    assert np.max(np.abs(theta)) == 0.0
    assert np.max(np.abs(_csd_reconstruct(lr, theta, p, 2 * p) - u)) < 1e-10


@pytest.mark.parametrize("p", ROUTES)
def test_csd_pure_mixing_input(p):
    # the generator exponential itself: angles must come back (sorted)
    angles = np.array([0.3, 0.7, 1.1]) if p == 3 else np.linspace(0.05, 1.5, p)
    c, s = np.diag(np.cos(angles)), np.diag(np.sin(angles))
    u = np.eye(3 * p, dtype=complex)
    u[:p, :p] = c
    u[:p, p : 2 * p] = -1j * s
    u[p : 2 * p, :p] = -1j * s
    u[p : 2 * p, p : 2 * p] = c
    lr, theta = _csd_one(u, p, 2 * p)
    assert np.max(np.abs(np.sort(theta) - angles)) < 1e-12
    assert np.max(np.abs(_csd_reconstruct(lr, theta, p, 2 * p) - u)) < 1e-10


# Exactly-zero, tiny, repeated and right angles mixed with generic ones.
MIXED_ANGLES = [
    [0.0, 0.7, 1.1],
    [1e-9, 0.3, 0.5],
    [0.0, 0.0, np.pi / 2],
    [0.4, 0.4, 1e-12],
]


def _check_planted(theta: np.ndarray, q: int, rng: np.random.Generator) -> None:
    # U = diag(L1, L2) Sigma(theta) diag(R1, R2)† with Haar blocks, p = len(theta):
    # the split must reproduce U and recover the planted angles.
    p = len(theta)
    left = scipy.linalg.block_diag(haar_unitary(p, rng), haar_unitary(q, rng))
    right = scipy.linalg.block_diag(haar_unitary(p, rng), haar_unitary(q, rng))
    u = left @ csd_sigma(theta, p, q) @ right.conj().T
    lr, got = _csd_one(u, p, q)
    assert np.max(np.abs(_csd_reconstruct(lr, got, p, q) - u)) < 1e-12
    assert unitarity_defect(lr) < 1e-12  # L and R
    assert np.max(np.abs(np.sort(got) - np.sort(theta))) < 1e-12


@pytest.mark.parametrize("p", ROUTES)
@pytest.mark.parametrize("square", [False, True], ids=["p-2p", "p-p"])
@pytest.mark.parametrize("theta", MIXED_ANGLES, ids=["zero", "tiny", "zeros-right", "repeated-tiny"])
def test_csd_reconstructs_mixed_angles(theta, square, p):
    # each angle of the list p // 3 times, so the batched route meets the
    # same exact zeros, tiny, right and repeated angles in clusters
    _check_planted(np.repeat(theta, p // 3), p if square else 2 * p, np.random.default_rng(13))


@pytest.mark.parametrize("spread", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("square", [False, True], ids=["p-2p", "p-p"])
@pytest.mark.parametrize("p", [27, 81])
def test_csd_reconstructs_angle_clusters(p, square, spread):
    # Three clusters at 0, pi/4 and pi/2 whose members lie `spread` apart:
    # the pi/4 cluster straddles c = 1/sqrt(2), where the cosines and the
    # sines fix the angles equally well, and no cluster may be cut in two.
    m = p // 3
    step = spread * np.arange(m)
    theta = np.concatenate((step, np.pi / 4 + step - step[m // 2], np.pi / 2 - step))
    rng = np.random.default_rng([p, int(square), int(-np.log10(spread))])
    _check_planted(rng.permutation(theta), p if square else 2 * p, rng)


@pytest.mark.parametrize("square", [False, True], ids=["p-2p", "p-p"])
@pytest.mark.parametrize("d", [81, 243])
def test_csd_of_permutations(d, square):
    # Every angle is exactly 0 or pi/2, each many times over: the U2
    # columns of the zero sines must complete the others to a unitary.
    p = d // 3
    rng = np.random.default_rng(d + square)
    size = 2 * p if square else d
    for _ in range(3):
        u = np.eye(size, dtype=complex)[rng.permutation(size)]
        lr, theta = _csd_one(u, p, size - p)
        assert np.max(np.abs(_csd_reconstruct(lr, theta, p, size - p) - u)) < 1e-12
        assert unitarity_defect(lr) < 1e-12
        assert np.all((np.abs(theta) < 1e-15) | (np.abs(theta - np.pi / 2) < 1e-15))


@pytest.mark.parametrize("p", ROUTES)
def test_csd_factors_are_unitary_for_a_nearly_unitary_input(p):
    # An input 2e-12 from unitary (within the entry points' 1e-10) still
    # gets L and R unitary to rounding level; its own defect shows in the
    # reconstruction instead, as it does with zuncsd.
    u = haar_unitary(3 * p, np.random.default_rng(16)) * (1 + 1e-12)
    lr, theta = _csd_one(u, p, 2 * p)
    assert unitarity_defect(lr) < 1e-14
    assert np.max(np.abs(_csd_reconstruct(lr, theta, p, 2 * p) - u)) < 1e-11


def test_csd_of_an_empty_stack():
    for p in ROUTES:
        lr, theta = csd(np.zeros((0, 3 * p, 3 * p), dtype=complex), p, 2 * p)
        assert lr.shape == (2, 0, 3 * p, 3 * p) and theta.shape == (0, p)


def test_csd_deterministic():
    u = haar_unitary(9, np.random.default_rng(12))
    r1 = csd(u[None], 3, 6)
    r2 = csd(u[None], 3, 6)
    for a, b in zip(r1, r2, strict=True):  # lr, then theta
        assert np.array_equal(a, b)


@pytest.mark.parametrize("square", [False, True], ids=["p-2p", "p-p"])
@pytest.mark.parametrize("p", [3, 9])
def test_csd_equals_scipy_cossin(p, square):
    # Below CSD_BATCHED_P, zuncsd is called directly; the result must be
    # bitwise cossin's, with the columns of L2 and R2 rolled by p.  The
    # batched route at and above the constant is not cossin's.
    q = p if square else 2 * p
    rng = np.random.default_rng(200 + p)
    for _ in range(3):
        u = haar_unitary(p + q, rng)
        (l1, l2), theta, (r1h, r2h) = scipy.linalg.cossin(u, p=p, q=p, separate=True)
        lr, got = _csd_one(u, p, q)
        (left, right) = lr
        assert np.array_equal(left[:p, :p], l1)
        assert np.array_equal(left[p:, p:], np.roll(l2, p, axis=1))
        assert np.array_equal(right[:p, :p], r1h.conj().T)
        assert np.array_equal(right[p:, p:], np.roll(r2h.conj().T, p, axis=1))
        assert not lr[:, :p, p:].any() and not lr[:, p:, :p].any()  # block diagonal
        assert np.array_equal(got, theta)


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
    u = haar_unitary(9, np.random.default_rng(14))[None]
    run(u)  # the workspace query of this shape is now cached
    if driver == "_zuncsd_lwork":
        linalg._zuncsd_lwork_for.cache_clear()
    monkeypatch.setattr(linalg, driver, _info_1(getattr(linalg, driver)))
    with pytest.raises(np.linalg.LinAlgError, match="info=1"):
        run(u)


def test_csd_rejects_bad_input():
    with pytest.raises(ValueError, match="partition"):
        csd(np.eye(9, dtype=complex)[None], 4, 6)
    with pytest.raises(ValueError, match="partition"):
        csd(np.eye(9, dtype=complex)[None], 6, 3)  # needs p <= q


# ---------------------------------------------------------------------------
# the vector-state clear before each LAPACK pass
# ---------------------------------------------------------------------------

# One pass of each kind that factorize runs: (label, matrix size, pass).
_PASSES = [
    ("csd-3-6", 9, lambda s: csd(s, 3, 6)),
    ("csd-3-3", 6, lambda s: csd(s, 3, 3)),
    ("eig-3", 3, unitary_eig),
    ("eig-9", 9, unitary_eig),
]


@pytest.mark.parametrize("shape", [(), (1,), (36,)], ids=["matrix", "stack-1", "stack-36"])
@pytest.mark.parametrize("d,run", [p[1:] for p in _PASSES], ids=[p[0] for p in _PASSES])
def test_each_pass_clears_the_vector_state_once(monkeypatch, d, run, shape):
    # a stack is one pass and one clear; one matrix is refused before any
    rng = np.random.default_rng(len(shape) + d)
    u = np.stack([haar_unitary(d, rng) for _ in range(shape[0] if shape else 1)]).reshape(*shape, d, d)
    calls = []
    monkeypatch.setattr(linalg, "_clear_upper_state", lambda: calls.append(None))
    if not shape:
        with pytest.raises(ValueError):
            run(u)
        assert not calls
        return
    run(u)
    assert len(calls) == 1


def test_the_vector_state_clear_touches_no_data(monkeypatch):
    # Every pass, and whole factorize levels of the structured corpus, give
    # the same bytes with the clear replaced by a no-op.
    rng = np.random.default_rng(32)
    cases = [(run, np.stack([haar_unitary(d, rng) for _ in range(5)])) for _, d, run in _PASSES]
    corpus = {n: np.stack([structured_input(kind, n) for kind in KINDS]).astype(complex) for n in (2, 3)}
    cases += [(lambda s: csd(s, 3, 6), corpus[2]), (unitary_eig, corpus[2])]

    def outputs():
        out = [a for run, u in cases for a in run(u)]
        for ms in corpus.values():
            chain, residuals = factorize_stack(ms)
            out += [stack for _, stack in chain] + list(residuals.values())
        return out

    cleared = outputs()
    monkeypatch.setattr(linalg, "_clear_upper_state", lambda: None)
    plain = outputs()
    assert len(cleared) == len(plain)
    for a, b in zip(cleared, plain):
        assert (a.shape, a.dtype) == (b.shape, b.dtype) and a.tobytes() == b.tobytes()
