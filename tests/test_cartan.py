"""Block factorization: stages, rearrangement, splitters, full chain."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from trisect import cartan
from trisect.algebra import GeneratorId, generator
from trisect.cartan import (
    NONLOCAL_ORDER,
    NodeEntry,
    FactorizationNode,
    absorption_factor,
    equal_blocks_residual,
    factorize,
    nonlocal_matrix,
    rearrange,
    reassemble,
    split_off_d,
    split_off_dbar,
    split_off_z12,
    stage1,
    stage2,
    tensor_identity_residual,
    three_block_residual,
)
from trisect.linalg import haar_unitary, unitarity_defect

_KIND_GENERATOR = {
    "x01": GeneratorId.SX01,
    "x12": GeneratorId.SX12,
    "z12": GeneratorId.SZ12,
    "d": GeneratorId.D,
    "dbar": GeneratorId.DBAR,
}


def _bd(*blocks: np.ndarray) -> np.ndarray:
    return scipy.linalg.block_diag(*blocks).astype(complex)


def _random_block_diag(p: int, rng: np.random.Generator) -> np.ndarray:
    return _bd(*(haar_unitary(p, rng) for _ in range(3)))


# ---------------------------------------------------------------------------
# the five factor kinds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(NONLOCAL_ORDER))
@pytest.mark.parametrize("p", [3, 9])
def test_nonlocal_matrix_matches_exponential(kind, p):
    rng = np.random.default_rng(p)
    lam = rng.uniform(-2.0, 2.0, size=p)
    got = nonlocal_matrix(kind, lam)
    want = scipy.linalg.expm(-1j * np.kron(generator(_KIND_GENERATOR[kind]), np.diag(lam)))
    assert np.max(np.abs(got - want)) < 1e-13


def test_nonlocal_order_is_the_eight_factor_chain():
    assert NONLOCAL_ORDER == ("dbar", "x12", "d", "x01", "dbar", "x12", "z12", "d")


def test_nonlocal_matrix_rejects_unknown_kind():
    with pytest.raises(ValueError):
        nonlocal_matrix("x02", np.zeros(3))


# ---------------------------------------------------------------------------
# shape residuals
# ---------------------------------------------------------------------------


def test_tensor_identity_residual():
    rng = np.random.default_rng(0)
    w = haar_unitary(3, rng)
    u = np.kron(np.eye(3), w)
    got_w, resid = tensor_identity_residual(u)
    assert resid < 1e-15
    assert np.max(np.abs(got_w - w)) < 1e-15
    _, bad = tensor_identity_residual(haar_unitary(9, rng))
    assert bad > 1e-2


def test_block_residuals():
    rng = np.random.default_rng(1)
    w = haar_unitary(3, rng)
    bd = _bd(w, w, haar_unitary(3, rng))
    assert three_block_residual(bd) == 0.0
    assert equal_blocks_residual(bd, (0, 1)) == 0.0
    assert equal_blocks_residual(bd, (1, 2)) > 1e-2
    assert three_block_residual(haar_unitary(9, rng)) > 1e-2


# ---------------------------------------------------------------------------
# cosine-sine stages
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [9, 27])
def test_stage1_reconstructs_with_block_diagonal_factors(d):
    rng = np.random.default_rng(d)
    p = d // 3
    u = haar_unitary(d, rng)
    left, theta, right = stage1(u)
    recon = left @ nonlocal_matrix("x01", theta) @ right.conj().T
    assert np.max(np.abs(recon - u)) < 1e-10
    for f in (left, right):
        assert unitarity_defect(f) < 1e-10
        assert np.max(np.abs(f[:p, p:])) < 1e-12  # block diagonal over (p, 2p)
        assert np.max(np.abs(f[p:, :p])) < 1e-12


@pytest.mark.parametrize("d", [9, 27])
def test_stage2_reconstructs_three_blocks(d):
    rng = np.random.default_rng(d + 1)
    p = d // 3
    l = _bd(haar_unitary(p, rng), haar_unitary(2 * p, rng))
    left3, theta, right3 = stage2(l)
    recon = left3 @ nonlocal_matrix("x12", theta) @ right3.conj().T
    assert np.max(np.abs(recon - l)) < 1e-10
    assert three_block_residual(left3) < 1e-12
    assert three_block_residual(right3) < 1e-12


def test_stage2_rejects_coupled_input():
    with pytest.raises(ValueError, match="block diagonal"):
        stage2(haar_unitary(9, np.random.default_rng(2)))


# ---------------------------------------------------------------------------
# rearrangement
# ---------------------------------------------------------------------------


def test_block_factors_slide_through_mixers():
    # diag(X,I,I) commutes with the blocks-1/2 mixer, diag(I,I,X) with the
    # blocks-0/1 mixer -- the identities behind the rearrangement
    rng = np.random.default_rng(3)
    x = haar_unitary(3, rng)
    lam = rng.uniform(-1, 1, size=3)
    i3 = np.eye(3, dtype=complex)
    a = _bd(x, i3, i3)
    m12 = nonlocal_matrix("x12", lam)
    assert np.max(np.abs(a @ m12 - m12 @ a)) < 1e-14
    b = _bd(i3, i3, x)
    m01 = nonlocal_matrix("x01", lam)
    assert np.max(np.abs(b @ m01 - m01 @ b)) < 1e-14


@pytest.mark.parametrize("p", [3, 9])
def test_rearrange_preserves_product_and_fixes_shapes(p):
    rng = np.random.default_rng(p + 4)
    ks = [_random_block_diag(p, rng) for _ in range(4)]
    a, b, c = (rng.uniform(-1.5, 1.5, size=p) for _ in range(3))

    def chain(k1, k2, k3, k4):
        return (
            k1 @ nonlocal_matrix("x12", a) @ k2 @ nonlocal_matrix("x01", b)
            @ k3 @ nonlocal_matrix("x12", c) @ k4
        )

    k1n, k2n, k3n, k4n = rearrange(*ks)
    assert np.max(np.abs(chain(k1n, k2n, k3n, k4n) - chain(*ks))) < 1e-12
    # shapes required by the splitters
    assert equal_blocks_residual(k1n, (0, 1)) < 1e-12
    assert equal_blocks_residual(k2n, (1, 2)) < 1e-12
    assert equal_blocks_residual(k3n, (0, 1)) < 1e-12
    assert three_block_residual(k4n) < 1e-12
    for k in (k1n, k2n, k3n, k4n):
        assert unitarity_defect(k) < 1e-12


# ---------------------------------------------------------------------------
# splitters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 9])
def test_split_off_z12(p):
    rng = np.random.default_rng(p + 5)
    k = _random_block_diag(p, rng)
    v, lam, rest = split_off_z12(k)
    recon = np.kron(np.eye(3), v) @ nonlocal_matrix("z12", lam) @ rest
    assert np.max(np.abs(recon - k)) < 1e-10
    assert np.all(lam > -np.pi / 2) and np.all(lam <= np.pi / 2 + 1e-12)
    assert equal_blocks_residual(rest, (1, 2)) < 1e-10  # ready for the d split


@pytest.mark.parametrize("p", [3, 9])
def test_split_off_d_and_dbar(p):
    rng = np.random.default_rng(p + 6)
    q = haar_unitary(p, rng)
    pm = haar_unitary(p, rng)

    v, lam, w = split_off_d(_bd(pm, q, q))
    recon = np.kron(np.eye(3), v) @ nonlocal_matrix("d", lam) @ np.kron(np.eye(3), w)
    assert np.max(np.abs(recon - _bd(pm, q, q))) < 1e-10

    v, lam, w = split_off_dbar(_bd(q, q, pm))
    recon = np.kron(np.eye(3), v) @ nonlocal_matrix("dbar", lam) @ np.kron(np.eye(3), w)
    assert np.max(np.abs(recon - _bd(q, q, pm))) < 1e-10


def test_split_identity_input():
    # degenerate case: unit block ratios, all angles zero
    v, lam, w = split_off_d(np.eye(9, dtype=complex))
    assert np.max(np.abs(lam)) < 1e-12
    recon = np.kron(np.eye(3), v) @ nonlocal_matrix("d", lam) @ np.kron(np.eye(3), w)
    assert np.max(np.abs(recon - np.eye(9))) < 1e-12


# ---------------------------------------------------------------------------
# absorption
# ---------------------------------------------------------------------------


def test_absorption_factor_values():
    za = absorption_factor("x01", 3)
    zd = np.diag([1.0, -1.0, 1.0])
    assert np.array_equal(za, _bd(zd, np.eye(3), np.eye(3)))
    zb = absorption_factor("x12", 9)
    assert np.array_equal(
        zb, _bd(np.eye(9), np.kron(zd, zd), np.eye(9))
    )
    with pytest.raises(ValueError):
        absorption_factor("z12", 3)


def test_absorption_factor_is_an_involution():
    z = absorption_factor("x12", 9)
    assert np.array_equal(z @ z, np.eye(27))


# ---------------------------------------------------------------------------
# full chain
# ---------------------------------------------------------------------------

_EXPECTED_KINDS = (
    "K", "dbar", "K", "x12", "K", "d", "K", "x01",
    "K", "dbar", "K", "x12", "K", "z12", "K", "d", "K",
)


def test_factorize_chain_structure():
    u = haar_unitary(9, np.random.default_rng(8))
    node = factorize(u)
    assert node.n == 2
    assert tuple(e.kind for e in node.entries) == _EXPECTED_KINDS
    assert len(node.k_factors) == 9
    assert [e.kind for e in node.angle_factors] == list(NONLOCAL_ORDER)
    assert set(node.residuals) == {
        "stage1", "stage2_left", "stage2_right",
        "split_dbar_1", "split_d_1", "split_dbar_2", "split_z12", "split_d_2",
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_factorize_reconstructs(n):
    d = 3**n
    u = haar_unitary(d, np.random.default_rng(d))
    node = factorize(u)
    assert np.max(np.abs(reassemble(node) - u)) < 1e-9 * d
    assert max(node.residuals.values()) < 1e-10
    for w in node.k_factors:
        assert w.shape == (d // 3, d // 3)
        assert unitarity_defect(w) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_factorize_absorbed_reconstructs(n):
    # absorbed mode folds the stripped-mux sign factors into the K's;
    # reassembly multiplies them back through NodeEntry.dense(absorbed=...)
    d = 3**n
    u = haar_unitary(d, np.random.default_rng(d + 9))
    node = factorize(u, absorb=True)
    assert node.absorbed
    assert np.max(np.abs(reassemble(node) - u)) < 1e-9 * d


# An error of 1e-3 planted in one step, and the residuals that must see it.
_FAULT = 1e-3
_FAULT_KEYS = {
    "split_off_d": {"split_d_1", "split_d_2"},
    "split_off_dbar": {"split_dbar_1", "split_dbar_2"},
    "split_off_z12": {"split_z12"},
    "csd": {"stage1", "stage2_left", "stage2_right"},
}


def _with_fault(name, original):
    if name == "csd":
        def shifted(u, p, q):
            res = original(u, p, q)
            return dataclasses.replace(res, theta=res.theta + _FAULT)

        return shifted

    def phased(k):
        v, lam, w = original(k)
        return v, lam, w * np.exp(1j * _FAULT)

    return phased


@pytest.mark.parametrize("absorb", [False, True], ids=["plain", "absorbed"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", list(_FAULT_KEYS))
def test_residuals_see_an_injected_fault(monkeypatch, name, n, absorb):
    # The per-block residuals must still measure the product: a fault in
    # one step shows in its own keys and nowhere else.
    monkeypatch.setattr(cartan, name, _with_fault(name, getattr(cartan, name)))
    u = haar_unitary(3**n, np.random.default_rng(20 + n))
    residuals = factorize(u, absorb=absorb).residuals
    for key, value in residuals.items():
        if key in _FAULT_KEYS[name]:
            assert 1e-4 < value < 1e-2, (key, value)
        else:
            assert value < 1e-10, (key, value)


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError, match="3\\^n"):
        factorize(np.eye(8, dtype=complex))
    with pytest.raises(ValueError, match="two qutrits"):
        factorize(np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        factorize(np.ones((9, 9)))


def test_factorize_deterministic():
    u = haar_unitary(9, np.random.default_rng(10))
    n1, n2 = factorize(u), factorize(u)
    for e1, e2 in zip(n1.entries, n2.entries):
        assert e1.kind == e2.kind
        if e1.kind == "K":
            assert np.array_equal(e1.matrix, e2.matrix)
        else:
            assert np.array_equal(e1.angles, e2.angles)


def test_reassemble_synthetic_node():
    rng = np.random.default_rng(12)
    w1, w2 = haar_unitary(3, rng), haar_unitary(3, rng)
    lam = rng.uniform(-1, 1, size=3)
    node = FactorizationNode(
        n=2,
        entries=(
            NodeEntry(kind="K", matrix=w1),
            NodeEntry(kind="z12", angles=lam),
            NodeEntry(kind="K", matrix=w2),
        ),
        residuals={},
    )
    want = np.kron(np.eye(3), w1) @ nonlocal_matrix("z12", lam) @ np.kron(np.eye(3), w2)
    assert np.max(np.abs(reassemble(node) - want)) < 1e-13
