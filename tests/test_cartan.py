"""Block factorization: stages, rearrangement, splitters, full chain."""

import numpy as np
import pytest
import scipy.linalg

from trisect import cartan
from trisect.algebra import GeneratorId, generator
from trisect.cartan import (
    NONLOCAL_ORDER,
    NodeEntry,
    FactorizationNode,
    factorize,
    factorize_stack,
    nonlocal_matrix,
    rearrange,
    reassemble,
    split_off_d,
    stage1,
    stage2,
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


def _random_blocks(p: int, rng: np.random.Generator) -> np.ndarray:
    """A block-diagonal K as the (3, p, p) stack of its blocks."""
    return np.stack([haar_unitary(p, rng) for _ in range(3)])


def z12_split(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split diag(U1,U2,U3) = (I3 (x) V) . exp(-i sz12 (x) lam) . diag(V†U1, W, W), as a block stack.

    V and lam are those of the d split of diag(U2, U3, U3): both factor
    U2 U3† = V exp(-2i lam) V†, and the d split's W = exp(-i lam) V† U3
    equals exp(i lam) V† U2, the lower blocks of the z12 split.
    """
    v, lam, w = split_off_d(k[[1, 2, 2]])
    return v, lam, np.stack((v.conj().mT @ k[0], w, w))


def tensor_identity_residual(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Best W with u ~ I3 (x) W, and the max-entry residual."""
    p = u.shape[0] // 3
    b = u.reshape(3, p, 3, p)
    w = (b[0, :, 0] + b[1, :, 1] + b[2, :, 2]) / 3.0
    return w, float(np.max(np.abs(u - np.kron(np.eye(3), w))))


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


# ---------------------------------------------------------------------------
# cosine-sine stages
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [9, 27])
def test_stage1_reconstructs_with_block_diagonal_factors(d):
    rng = np.random.default_rng(d)
    p = d // 3
    u = haar_unitary(d, rng)
    lr, theta = stage1(u[None])
    (left, right), theta = lr[:, 0], theta[0]
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
    lr, theta = stage2(l[None])
    assert lr.shape == (2, 1, 2 * p, 2 * p)  # the factors of the lower 2p x 2p block
    (left, right), theta = lr[:, 0], theta[0]
    for f in (left, right):  # block diagonal over (p, p)
        assert not f[:p, p:].any() and not f[p:, :p].any()
    # block 0 rides along untouched, so factorize_stack checks only the lower block
    recon = _bd(l[:p, :p], left) @ nonlocal_matrix("x12", theta) @ _bd(np.eye(p), right).conj().T
    assert np.max(np.abs(recon - l)) < 1e-10


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
    ks = [_random_blocks(p, rng) for _ in range(4)]
    a, b, c = (rng.uniform(-1.5, 1.5, size=p) for _ in range(3))

    def chain(k1, k2, k3, k4):
        return (
            _bd(*k1) @ nonlocal_matrix("x12", a) @ _bd(*k2) @ nonlocal_matrix("x01", b)
            @ _bd(*k3) @ nonlocal_matrix("x12", c) @ _bd(*k4)
        )

    ab, z = rearrange(np.stack(ks))
    assert ab.shape == (4, 2, p, p) and z.shape == (p, p)
    # the shapes the splitters need: K1' = diag(B0, B0, A0), K2' = diag(A1, B1, B1),
    # K3' = diag(B2, B2, A2) and K4' = diag(Z, A3, B3)
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = ab
    k1n, k2n, k3n, k4n = (b1, b1, a1), (a2, b2, b2), (b3, b3, a3), (z, a4, b4)
    assert np.max(np.abs(chain(k1n, k2n, k3n, k4n) - chain(*ks))) < 1e-12
    assert np.array_equal(a1, ks[0][2]) and np.array_equal(b1, ks[0][1])
    assert np.array_equal(a4, ks[3][1]) and np.array_equal(b4, ks[3][2])
    for k in (k1n, k2n, k3n, k4n):
        assert unitarity_defect(np.stack(k)) < 1e-12  # every block is unitary


# ---------------------------------------------------------------------------
# splitters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 9])
def test_split_off_z12(p):
    rng = np.random.default_rng(p + 5)
    k = _random_blocks(p, rng)
    v, lam, rest = z12_split(k)
    assert rest.shape == (3, p, p)
    recon = np.kron(np.eye(3), v) @ nonlocal_matrix("z12", lam) @ _bd(*rest)
    assert np.max(np.abs(recon - _bd(*k))) < 1e-10
    assert np.all(lam > -np.pi / 2) and np.all(lam <= np.pi / 2 + 1e-12)
    # block 1 formed as the batched z12 split forms it equals block 2: ready for the d split
    assert np.max(np.abs(np.exp(1j * lam)[:, None] * (v.conj().T @ k[1]) - rest[2])) < 1e-10


@pytest.mark.parametrize("p", [3, 9])
def test_split_off_d_and_dbar(p):
    rng = np.random.default_rng(p + 6)
    q = haar_unitary(p, rng)
    pm = haar_unitary(p, rng)

    v, lam, w = split_off_d(np.stack((pm, q, q)))
    recon = np.kron(np.eye(3), v) @ nonlocal_matrix("d", lam) @ np.kron(np.eye(3), w)
    assert np.max(np.abs(recon - _bd(pm, q, q))) < 1e-10

    # Dbar's signs are D's with the outer block moved last: the same
    # factors split diag(Q, Q, P)
    recon = np.kron(np.eye(3), v) @ nonlocal_matrix("dbar", lam) @ np.kron(np.eye(3), w)
    assert np.max(np.abs(recon - _bd(q, q, pm))) < 1e-10


def test_split_identity_input():
    # degenerate case: unit block ratios, all angles zero
    v, lam, w = split_off_d(np.stack([np.eye(3, dtype=complex)] * 3))
    assert np.max(np.abs(lam)) < 1e-12
    recon = np.kron(np.eye(3), v) @ nonlocal_matrix("d", lam) @ np.kron(np.eye(3), w)
    assert np.max(np.abs(recon - np.eye(9))) < 1e-12


# ---------------------------------------------------------------------------
# absorption
# ---------------------------------------------------------------------------


def _absorption_factor(kind: str, p: int) -> np.ndarray:
    return np.diag(cartan._absorption_signs(kind, p).ravel())


def test_absorption_factor_values():
    za = _absorption_factor("x01", 3)
    zd = np.diag([1.0, -1.0, 1.0])
    assert np.array_equal(za, _bd(zd, np.eye(3), np.eye(3)))
    zb = _absorption_factor("x12", 9)
    assert np.array_equal(
        zb, _bd(np.eye(9), np.kron(zd, zd), np.eye(9))
    )
    with pytest.raises(ValueError):
        _absorption_factor("z12", 3)


def test_absorption_factor_is_an_involution():
    z = _absorption_factor("x12", 9)
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
    assert sum(e.kind == "K" for e in node.entries) == 9
    assert [e.kind for e in node.entries if e.kind != "K"] == list(NONLOCAL_ORDER)
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
    for w in (e.matrix for e in node.entries if e.kind == "K"):
        assert w.shape == (d // 3, d // 3)
        assert unitarity_defect(w) < 1e-10


_ABSORB_CASES = [(kind, n) for kind in ("haar", "identity", "permutation", "diagonal") for n in (2, 3)]


@pytest.mark.parametrize(
    "kind, n", _ABSORB_CASES, ids=[str(n) if k == "haar" else f"{k}-{n}" for k, n in _ABSORB_CASES]
)
def test_factorize_absorbed_reconstructs(kind, n):
    # absorbed mode folds the stripped-mux sign factors into the K's;
    # reassembly multiplies them back through NodeEntry.dense(absorbed=...).
    # Identity, permutation and diagonal inputs have degenerate splits,
    # where the folded signs meet exact zeros.
    d = 3**n
    rng = np.random.default_rng(d + 9)
    u = {
        "haar": lambda: haar_unitary(d, rng),
        "identity": lambda: np.eye(d, dtype=complex),
        "permutation": lambda: np.eye(d, dtype=complex)[:, rng.permutation(d)],
        "diagonal": lambda: np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d))),
    }[kind]()
    node = factorize(u, absorb=True)
    assert node.absorbed
    assert np.max(np.abs(reassemble(node) - u)) < 1e-9 * d
    assert max(node.residuals.values()) < 1e-10


# An error of 1e-3 planted in one line group of one batched kernel call of a
# level, by step and by the residual that must see it: (kernel, call, group).
# Stage 1 is csd's first call; its second splits L on lines [0, k) and R on
# [k, 2k).  unitary_eig's first call holds the four splits of the rearranged
# blocks, group g on lines [gk, (g+1)k); its second is split_d_2 alone.
_FAULT = 1e-3
_FAULT_SITES = {
    "split_off_d": {"split_d_1": ("unitary_eig", 0, 1), "split_d_2": ("unitary_eig", 1, 0)},
    "split_off_dbar": {"split_dbar_1": ("unitary_eig", 0, 0), "split_dbar_2": ("unitary_eig", 0, 2)},
    "split_off_z12": {"split_z12": ("unitary_eig", 0, 3)},
    "csd": {"stage1": ("csd", 0, 0), "stage2_left": ("csd", 1, 0), "stage2_right": ("csd", 1, 1)},
}


def _with_fault(kernel, call, group, k):
    """``cartan.<kernel>`` with _FAULT added to the angles of lines [group k, (group+1) k) of its call-th call."""
    original = getattr(cartan, kernel)
    field = 1 if kernel == "csd" else 0  # theta of (lr, theta), phases of (phases, vectors)
    calls = []

    def faulty(u, *args):
        out = list(original(u, *args))
        calls.append(u.shape)
        if len(calls) - 1 != call:
            return tuple(out)
        out[field] = out[field].copy()
        out[field][group * k : (group + 1) * k] += _FAULT
        return tuple(out)

    return faulty, calls


@pytest.mark.parametrize("absorb", [False, True], ids=["plain", "absorbed"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", list(_FAULT_SITES))
def test_residuals_see_an_injected_fault(monkeypatch, name, n, absorb):
    # The residuals must still measure the product: a fault in one line
    # group of a batched pass shows in its own key, on every line of the
    # stack, and in no other key.  At n = 4 both cosine-sine stages take
    # csd's batched route (p = 27), at n = 2, 3 zuncsd.
    rng = np.random.default_rng(20 + n)
    ms = np.stack([haar_unitary(3**n, rng) for _ in range(2)])
    for key, (kernel, call, group) in _FAULT_SITES[name].items():
        faulty, calls = _with_fault(kernel, call, group, len(ms))
        with monkeypatch.context() as patch:
            patch.setattr(cartan, kernel, faulty)
            _, residuals = factorize_stack(ms, absorb=absorb)
        # two passes of each kernel per level, over these many lines
        assert [shape[0] for shape in calls] == {"csd": [2, 4], "unitary_eig": [8, 2]}[kernel]
        for other, values in residuals.items():
            for value in values:
                if other == key:
                    assert 1e-4 < value < 1e-2, (key, value)
                else:
                    assert value < 1e-10, (key, other, value)


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError, match="3\\^n"):
        factorize(np.eye(8, dtype=complex))
    with pytest.raises(ValueError, match="two qutrits"):
        factorize(np.eye(3, dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        factorize(np.ones((9, 9)))
    for bad in (np.zeros((0, 0)), np.eye(9)[:, :3], np.zeros(9)):
        with pytest.raises(ValueError, match="3\\^n"):
            factorize(bad)


@pytest.mark.parametrize("absorb", [False, True], ids=["plain", "absorbed"])
@pytest.mark.parametrize("n", [2, 3])
def test_factorize_stack_matches_single_calls(n, absorb):
    # One stacked pass gives line i of every stack exactly what a call on
    # matrix i alone gives, bit for bit: the batched kernel passes must not
    # couple lines.  Identity, permutation, diagonal and permuted diagonal
    # inputs have degenerate splits, where the signs of exact zeros pick
    # the eigenbasis.
    d = 3**n
    rng = np.random.default_rng(30 + n)
    haar = [haar_unitary(d, rng) for _ in range(4)]
    perm = np.eye(d, dtype=complex)[rng.permutation(d)]
    diag = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d)))
    ms = np.stack(haar + [np.eye(d, dtype=complex), perm, diag, perm @ diag])
    chain, residuals = factorize_stack(ms, absorb=absorb)
    assert [kind for kind, _ in chain] == [kind for f in NONLOCAL_ORDER for kind in ("K", f)] + ["K"]
    assert len(residuals) == 8 and all(r.shape == (len(ms),) for r in residuals.values())
    for i, m in enumerate(ms):
        line = FactorizationNode(
            n=n,
            entries=tuple(NodeEntry(kind, x[i]) if kind == "K" else NodeEntry(kind, None, x[i]) for kind, x in chain),
            residuals={name: float(r[i]) for name, r in residuals.items()},
            absorbed=absorb,
        )
        assert np.max(np.abs(reassemble(line) - m)) < 1e-10
        assert max(line.residuals.values()) < 1e-10
        single = factorize(m, absorb=absorb)
        assert single.n == n and single.absorbed == absorb
        assert line.residuals == single.residuals
        for (kind, x), e in zip(chain, single.entries, strict=True):
            assert e.kind == kind
            ref = e.matrix if kind == "K" else e.angles
            assert x[i].shape == ref.shape
            assert np.ascontiguousarray(x[i]).tobytes() == np.ascontiguousarray(ref).tobytes()  # signed zeros too


def test_factorize_stack_shapes():
    chain, residuals = factorize_stack(np.zeros((0, 9, 9)))
    assert len(chain) == 17 and all(x.shape == ((0, 3, 3) if kind == "K" else (0, 3)) for kind, x in chain)
    assert len(residuals) == 8 and all(r.shape == (0,) for r in residuals.values())
    for bad in (np.eye(9), np.zeros((1, 1, 9, 9)), np.zeros(9), np.zeros((2, 9, 3)), np.zeros((2, 8, 8))):
        with pytest.raises(ValueError, match="stack"):
            factorize_stack(bad)
    with pytest.raises(ValueError, match="two qutrits"):
        factorize_stack(np.eye(3)[None])
    ms = np.stack([np.eye(9), 2.0 * np.eye(9)])
    with pytest.raises(ValueError, match="not unitary"):
        factorize_stack(ms)


@pytest.mark.parametrize("absorb", [False, True], ids=["plain", "absorbed"])
@pytest.mark.parametrize("n", [2, 3])
def test_factorize_output_does_not_depend_on_input_layout(n, absorb):
    # C order, Fortran order and strided views of one matrix give the same
    # bytes (signed zeros included): a factor tree feeds the Fortran-ordered
    # V's of unitary_eig back into factorize.  Identity, permutation and
    # diagonal inputs have degenerate splits, where the signs of exact
    # zeros pick the eigenbasis.
    d = 3**n
    rng = np.random.default_rng(50 + n)
    perm = np.eye(d, dtype=complex)[rng.permutation(d)]
    diag = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d)))
    for m in (haar_unitary(d, rng), np.eye(d, dtype=complex), perm, diag):
        wide = np.zeros((d, 2 * d), dtype=complex)
        wide[:, ::2] = m
        flipped = np.flipud(m).copy()
        layouts = [np.ascontiguousarray(m), np.asfortranarray(m), wide[:, ::2], flipped[::-1]]
        nodes = [factorize(x, absorb=absorb) for x in layouts]
        for node in nodes[1:]:
            for e, f in zip(nodes[0].entries, node.entries, strict=True):
                a, b = (e.matrix, f.matrix) if e.kind == "K" else (e.angles, f.angles)
                assert e.kind == f.kind and a.shape == b.shape
                assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
            assert list(node.residuals) == list(nodes[0].residuals)
            assert np.array(list(node.residuals.values())).tobytes() == np.array(list(nodes[0].residuals.values())).tobytes()


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
