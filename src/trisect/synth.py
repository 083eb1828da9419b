"""Gate-level synthesis of n-qutrit unitaries.

Turns the recursive block factorization (:mod:`trisect.cartan`) into an
explicit circuit over single-qutrit rotations and two-qutrit GCX gates
(optionally fused into CINC), in register application order.  The five
interleaved factor kinds map to multiplexed-rotation circuits:

    x01 / x12   y-conjugated multiplexed z rotation on the lead qutrit
    z12         plain multiplexed z rotation on the lead qutrit
    d / dbar    nested diagonal circuit with paired boundary GCX gates

:func:`synthesize` factorizes the recursion tree breadth-first, one
:func:`~trisect.cartan.factorize_stack` call per level (stacks of 1, 9,
81, ... matrices), then emits the stored nodes depth-first in
application order.  The recursion bottoms out in 9^(n-1) single-qutrit
leaves, all on the last qutrit; :func:`synthesize` decomposes them in
one batched :func:`single_qutrit_gates` call before the emission, and
leaf j takes its gates 10j..10j+9.  Each factor circuit is emitted at the
closed-form size of :func:`operator_count`, which is also here.
"""

from __future__ import annotations

import enum
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cartan import FactorizationNode, _qutrit_count, factorize_stack
from .circuit import (
    Circuit,
    CountReport,
    Gate,
    Gcx,
    GlobalPhase,
    LocalX,
    Rotation,
    count_gates,
    eval_circuit,
)
from .linalg import UNITARY_ATOL, unitarity_defect, unitary_distance
from .passes import pass_fuse_cinc, simplify

__all__ = [
    "CITED_CINC_TOTALS",
    "FACTOR_KINDS",
    "GateSet",
    "SynthesisOptions",
    "SynthesisReport",
    "cinc_savings",
    "d_mux_gates",
    "expected_count",
    "measured_operator_counts",
    "operator_count",
    "single_qutrit_gates",
    "synthesize",
    "w_mux_gates",
    "x_mux_gates",
    "z_mux_gates",
]


class GateSet(enum.Enum):
    """Two-qutrit vocabulary of the output circuit."""

    GCX_ONLY = "gcx"
    GCX_CINC = "gcx+cinc"


# ---------------------------------------------------------------------------
# multiplexed rotation emission
# ---------------------------------------------------------------------------


def _mux_args(qutrits: Sequence[int], angles: np.ndarray) -> tuple[list[int], np.ndarray]:
    """``qutrits`` as a list and ``angles`` flattened, one real angle per control pattern."""
    qutrits = list(qutrits)
    angles = np.asarray(angles).ravel()
    if not qutrits or angles.dtype.kind == "c":
        raise ValueError(f"need one or more qutrits and real angles, got {len(qutrits)} and {angles.dtype}")
    if angles.size != 3 ** (len(qutrits) - 1):
        raise ValueError(
            f"need {3 ** (len(qutrits) - 1)} angles for {len(qutrits)} qutrits, got {angles.size}"
        )
    return qutrits, angles.astype(float, copy=False)


def _closing_run(level: str, qutrits: list[int]) -> list[Gate]:
    """The value-1 GCX run, one per control, that closes a mux on ``qutrits[0]``."""
    return [Gcx(q, 1, qutrits[0], level) for q in qutrits[1:]]


def z_mux_gates(
    level: str, qutrits: Sequence[int], angles: np.ndarray, reverse: bool = False
) -> list[Gate]:
    """Gates for exp(-i sz^level (x) diag(angles)) in application order.

    The rotation acts on ``qutrits[0]``; the remaining qutrits control
    it, with ``angles`` indexed big-endian by their computational
    values.  ``reverse=True`` emits the same gates back to front, which
    is an equally valid realization: every gate in the list is its own
    transpose in the computational basis, and the operator is diagonal.
    """
    qutrits, angles = _mux_args(qutrits, angles)
    gates = _z_mux_core(level, qutrits, angles) + _closing_run(level, qutrits)
    return gates[::-1] if reverse else gates


def _z_mux_core(level: str, qutrits: list[int], angles: np.ndarray) -> list[Gate]:
    """The z mux on k qutrits in application order without its closing run: 3^(k-1) - 1 GCX.

    Each sub-mux drops its run too: the ``dv`` run and the reversed ``b``
    run commute with the GCX between them and cancel, and the ``a`` run is
    part of this mux's own run.
    """
    t = qutrits[0]
    if len(qutrits) == 1:
        return [Rotation("z", level, t, 2.0 * float(angles[0]))]
    c = qutrits[-1]
    sub = qutrits[:-1]
    tri = angles.reshape(-1, 3)  # columns = value of the control peeled off
    a = (tri[:, 0] - tri[:, 1]) / 2.0
    b = (tri[:, 0] - tri[:, 2]) / 2.0
    dv = (tri[:, 1] + tri[:, 2]) / 2.0
    return (
        _z_mux_core(level, sub, dv)
        + [Gcx(c, 2, t, level)]
        + _z_mux_core(level, sub, b)[::-1]
        + [LocalX(level, t), Gcx(c, 0, t, level)]
        + _z_mux_core(level, sub, a)
    )


def _trit_reversal(k: int) -> np.ndarray:
    """Permutation sending each index to the one with reversed base-3 digits."""
    return np.arange(3**k).reshape((3,) * k).T.ravel()


def w_mux_gates(level: str, qutrits: Sequence[int], angles: np.ndarray) -> list[Gate]:
    """Gates for exp(-i diag(angles) (x) sz^level): rotation on the *last* qutrit.

    Same mux as :func:`z_mux_gates` with the roles flipped: the target is
    ``qutrits[-1]`` and ``qutrits[:-1]`` control, big-endian.  Realized by
    handing the emitter the reversed qutrit list and trit-reversed angles.
    """
    qutrits, angles = _mux_args(qutrits[::-1], angles)
    return _z_mux_core(level, qutrits, angles[_trit_reversal(len(qutrits) - 1)]) + _closing_run(level, qutrits)


def x_mux_gates(
    level: str, qutrits: Sequence[int], angles: np.ndarray, absorb: bool = True
) -> list[Gate]:
    """Gates for exp(-i sx^level (x) diag(angles)): a y-conjugated z mux.

    With ``absorb=True`` the closing run of value-1 GCX gates (one per
    control) is not emitted; the omitted product equals a diagonal sign
    factor that the factorization folds into the neighbouring block
    (see :func:`trisect.cartan.absorption_factor`).
    """
    if level not in ("01", "12"):
        raise ValueError(f"x mux is emitted for levels 01 and 12 only, got {level!r}")
    qutrits, angles = _mux_args(qutrits, angles)
    t = qutrits[0]
    return [
        Rotation("y", level, t, -math.pi / 2.0),
        *_z_mux_core(level, qutrits, angles),
        *([] if absorb else _closing_run(level, qutrits)),
        Rotation("y", level, t, math.pi / 2.0),
    ]


def d_mux_gates(kind: str, qutrits: Sequence[int], angles: np.ndarray) -> list[Gate]:
    """Gates for exp(-i D (x) diag) ("d") or exp(-i Dbar (x) diag) ("dbar").

    D = diag(1,-1,-1) and Dbar = diag(-1,-1,1) act on ``qutrits[0]``.
    The circuit peels the last qutrit: two multiplexed rotations on it,
    each sandwiched between GCX gates controlled by the lead qutrit
    (value 0 for "d", 2 for "dbar"), then recurses on the mean angles.
    The adjacent mid GCX pair fuses into one CINC when that gate set is
    enabled.
    """
    if kind not in ("d", "dbar"):
        raise ValueError(f"unknown diagonal mux kind {kind!r}")
    qutrits, lam = _mux_args(qutrits, angles)
    if len(qutrits) == 1:
        q = qutrits[0]
        tp = 4.0 * float(lam[0]) / 3.0
        return [
            GlobalPhase(tp / 4.0),
            Rotation("z", "01", q, tp),
            Rotation("z", "02", q, tp if kind == "d" else -2.0 * tp),
        ]
    value = 0 if kind == "d" else 2
    c, t = qutrits[0], qutrits[-1]
    tri = lam.reshape(-1, 3)
    th02 = (2.0 * tri[:, 2] - tri[:, 0] - tri[:, 1]) / 3.0
    th01 = (2.0 * tri[:, 1] - tri[:, 0] - tri[:, 2]) / 3.0
    mean = (tri[:, 0] + tri[:, 1] + tri[:, 2]) / 3.0
    g01 = Gcx(c, value, t, "01")
    g02 = Gcx(c, value, t, "02")
    inner = qutrits[1:]
    return (
        d_mux_gates(kind, qutrits[:-1], mean)
        + [g01, *w_mux_gates("01", inner, th01), g01]
        + [g02, *w_mux_gates("02", inner, th02), g02]
    )


def _factor_gates(kind: str, qutrits: list[int], angles: np.ndarray) -> list[Gate]:
    """Gates of one interleaved factor of the chain, x factors absorbed."""
    if kind in ("x01", "x12"):
        return x_mux_gates(kind[1:], qutrits, angles)
    if kind == "z12":
        return z_mux_gates("12", qutrits, angles)
    return d_mux_gates(kind, qutrits, angles)


# ---------------------------------------------------------------------------
# single-qutrit synthesis
# ---------------------------------------------------------------------------


# Each matrix becomes three z-y-z triples on these levels, in this order.
_TRIPLE_LEVELS = ("12", "01", "12")


def _givens2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(k, 2, 2) unit-determinant unitaries g with g @ (a, b) = (r, 0), r >= 0.

    A pair with r < 1e-15 gets the identity.
    """
    r = np.hypot(np.abs(a), np.abs(b))
    flat = r < 1e-15
    g = np.stack([np.conj(a), np.conj(b), -b, a], axis=-1) / np.where(flat, 1.0, r)[:, None]
    g[flat] = (1.0, 0.0, 0.0, 1.0)
    return g.reshape(-1, 2, 2)


def _embed2(blocks: np.ndarray, ij: str) -> np.ndarray:
    """(k, 3, 3) identities with the (k, 2, 2) blocks on levels i, j."""
    i, j = int(ij[0]), int(ij[1])
    m = np.zeros((len(blocks), 3, 3), dtype=complex)
    m[:, range(3), range(3)] = 1.0
    m[:, [[i], [j]], [i, j]] = blocks
    return m


def _zyz_angles(b: np.ndarray) -> np.ndarray:
    """(gamma, beta, alpha) of z(alpha) y(beta) z(gamma) = b for det-1 (..., 2, 2) b."""
    c = np.abs(b[..., 0, 0])
    s = np.abs(b[..., 1, 0])
    beta = 2.0 * np.arctan2(s, c)
    f1 = -np.angle(b[..., 0, 0])
    f2 = np.angle(b[..., 1, 0])
    # a vanishing column entry leaves one phase free; put it all in alpha
    alpha = np.where(s < 1e-12, 2.0 * f1, np.where(c < 1e-12, 2.0 * f2, f1 + f2))
    gamma = np.where((s < 1e-12) | (c < 1e-12), 0.0, f1 - f2)
    return np.stack([gamma, beta, alpha], axis=-1)


def single_qutrit_gates(u: np.ndarray, qutrit: int = 0) -> list[Gate]:
    """Any U(3) as nine rotations plus a global phase, for one matrix or a stack.

    ``u`` is a (3, 3) matrix or a (k, 3, 3) stack; the result holds ten
    gates per matrix, in stack order: nine rotations on ``qutrit``, then
    the phase.  Pull out the determinant phase, zero the lower first
    column with two unit-determinant two-level mixes, and expand each of
    the three resulting det-1 blocks as a z-y-z rotation triple.  The
    whole stack goes through each step as one array operation.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or a stack of them, got {u.shape}")
    u = u.reshape(-1, 3, 3)
    defect = unitarity_defect(u)
    if defect > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    phi = np.angle(np.linalg.det(u)) / 3.0
    v = u * np.exp(-1j * phi)[:, None, None]

    ga = _givens2(v[:, 1, 0], v[:, 2, 0])  # rows 1,2 -> zero v[2,0]
    v1 = _embed2(ga, "12") @ v
    gb = _givens2(v1[:, 0, 0], v1[:, 1, 0])  # rows 0,1 -> zero v[1,0]
    v2 = _embed2(gb, "01") @ v1
    # The mixes leave v2 = diag(1, B): the corner entry is the first
    # column's norm (gb's pivot never degenerates since |v1[0,0]|^2 +
    # |v1[1,0]|^2 = 1), and det B = det v2 = 1.
    dagger = (0, 2, 1)
    blocks = np.stack([v2[:, 1:, 1:], gb.conj().transpose(dagger), ga.conj().transpose(dagger)], 1)
    gates: list[Gate] = []
    for triples, p in zip(_zyz_angles(blocks).tolist(), phi.tolist()):
        for level, (gamma, beta, alpha) in zip(_TRIPLE_LEVELS, triples):
            gates += (
                Rotation("z", level, qutrit, gamma),
                Rotation("y", level, qutrit, beta),
                Rotation("z", level, qutrit, alpha),
            )
        gates.append(GlobalPhase(p))
    return gates


# ---------------------------------------------------------------------------
# gate counting
# ---------------------------------------------------------------------------

# Previously reported two-qutrit totals for the gcx+cinc gate set.  The
# n=3 entry disagrees with the closed-form count (271); the counts
# command calls that out rather than silently preferring either number.
CITED_CINC_TOTALS = {2: 21, 3: 217, 4: 2686}

# The nonlocal factor kinds, in the column order of the count tables.
FACTOR_KINDS = ("x01", "x12", "z12", "d", "dbar")


def expected_count(n: int, gate_set: GateSet = GateSet.GCX_CINC) -> int:
    """Closed-form two-qutrit gate count of a generic n-qutrit synthesis."""
    if n < 2:
        raise ValueError("two-qutrit counts are defined for n >= 2")
    if gate_set is GateSet.GCX_ONLY:
        return expected_count(n) + cinc_savings(n)
    val = (
        Fraction(41, 96) * Fraction(9) ** n
        - 4 * Fraction(3) ** (n - 1)
        - (Fraction(n * n, 2) + Fraction(n, 4) - Fraction(29, 32))
    )
    if val.denominator != 1:
        raise ArithmeticError(f"count formula did not give an integer: {val}")
    return int(val)


def cinc_savings(n: int) -> int:
    """Two-qutrit gates saved by fusing GCX pairs into CINC gates."""
    if n < 2:
        raise ValueError("two-qutrit counts are defined for n >= 2")
    val = Fraction(9) ** n / 16 - Fraction(n, 2) - Fraction(1, 16)
    if val.denominator != 1:
        raise ArithmeticError(f"savings formula did not give an integer: {val}")
    return int(val)


def operator_count(kind: str, n: int, gate_set: GateSet = GateSet.GCX_CINC) -> int:
    """Two-qutrit gates that the emitters spend on one factor circuit spanning n qutrits."""
    if n < 2:
        raise ValueError("two-qutrit counts are defined for n >= 2")
    p = 3 ** (n - 1)
    if kind in ("x01", "x12"):
        return p - 1
    if kind == "z12":
        return p + n - 2
    if kind in ("d", "dbar"):
        fused = n - 1 if gate_set is GateSet.GCX_CINC else 0
        return p + n * n - n - 1 - fused
    raise ValueError(f"unknown factor kind {kind!r}")


def measured_operator_counts(
    n: int, gate_set: GateSet = GateSet.GCX_CINC, seed: int = 0
) -> dict[str, int]:
    """Emit each factor kind standalone with generic angles and count.

    Cross-checks :func:`operator_count` by counting the emitters' own
    output, after :func:`~trisect.passes.pass_fuse_cinc` for
    ``GateSet.GCX_CINC``; no cancellation pass runs.
    """
    if n < 2:
        raise ValueError("two-qutrit counts are defined for n >= 2")
    rng = np.random.default_rng(seed)
    counts: dict[str, int] = {}
    for kind in FACTOR_KINDS:
        angles = rng.uniform(0.2, 1.3, size=3 ** (n - 1))
        circ = Circuit(n, tuple(_factor_gates(kind, list(range(n)), angles)))
        if gate_set is GateSet.GCX_CINC:
            circ = pass_fuse_cinc(circ)
        counts[kind] = count_gates(circ).two_qutrit
    return counts


# ---------------------------------------------------------------------------
# full synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesisOptions:
    gate_set: GateSet = GateSet.GCX_CINC
    tolerance: float = 1e-8


@dataclass(frozen=True)
class SynthesisReport:
    n: int
    gate_set: GateSet
    counts: CountReport
    distance: float
    ok: bool  # distance within SynthesisOptions.tolerance
    expected_two_qutrit: int | None
    elapsed_s: float

    @property
    def two_qutrit_count(self) -> int:
        return self.counts.two_qutrit

    def as_dict(self) -> dict:
        return {
            "qutrits": self.n,
            "gate_set": self.gate_set.value,
            "counts": self.counts.as_dict(),
            "two_qutrit_count": self.two_qutrit_count,
            "expected_two_qutrit": self.expected_two_qutrit,
            "distance": self.distance,
            "ok": self.ok,
            "elapsed_s": self.elapsed_s,
        }

    def lines(self) -> list[str]:
        expect = ""
        if self.expected_two_qutrit is not None:
            excess = self.two_qutrit_count - self.expected_two_qutrit
            expect = f" (expected {self.expected_two_qutrit}"
            expect += f"; {excess} above the closed form)" if excess > 0 else ")"
        return [
            f"qutrits:          {self.n}",
            f"gate set:         {self.gate_set.value}",
            f"two-qutrit gates: {self.two_qutrit_count}{expect}",
            f"rotations:        {self.counts.rotations}",
            f"total gates:      {self.counts.total}",
            f"distance:         {self.distance:.3e}",
            f"within tolerance: {'yes' if self.ok else 'no'}",
            f"elapsed:          {self.elapsed_s:.3f} s",
        ]


def _factor_levels(m: np.ndarray, n: int) -> list[list[FactorizationNode]]:
    """The recursion tree breadth-first: one :func:`factorize_stack` call per level.

    Level j holds 9^j nodes; the children of node i of level j are nodes
    9i..9i+8 of level j+1, its K factors in entry order.
    """
    levels = [factorize_stack(m[None], absorb=True)]
    while len(levels) < n - 1:
        stack = np.stack([w for node in levels[-1] for w in node.k_factors])
        levels.append(factorize_stack(stack, absorb=True))
    return levels


def _emit_node(levels: list[list[FactorizationNode]], depth: int, i: int, leaf_gates: list[Gate]) -> list[Gate]:
    """Gates for node i of level ``depth``.

    ``leaf_gates`` holds the last level's K factors decomposed in stack
    order, ten gates each, so single-qutrit leaf j is gates 10j..10j+9.
    """
    node = levels[depth][i]
    qs = list(range(depth, depth + node.n))
    gates: list[Gate] = []
    child = 9 * i + 9
    # entries are in matrix order; emission is in application order
    for e in reversed(node.entries):
        if e.kind != "K":
            gates += _factor_gates(e.kind, qs, e.angles)
            continue
        child -= 1
        if depth + 1 < len(levels):
            gates += _emit_node(levels, depth + 1, child, leaf_gates)
        else:
            gates += leaf_gates[10 * child : 10 * child + 10]
    return gates


def synthesize(
    m: np.ndarray, options: SynthesisOptions | None = None
) -> tuple[Circuit, SynthesisReport]:
    """Factor an n-qutrit unitary into gates and verify it by simulation.

    Returns the circuit and a report carrying the measured gate counts,
    the closed-form expected two-qutrit count (generic inputs; n >= 2),
    the phase-aligned Frobenius distance (:func:`unitary_distance`)
    between the circuit's full simulated unitary and the input, and
    whether that distance is within ``options.tolerance``.  A non-unitary
    matrix raises ``ValueError`` from :func:`factorize_stack` (n = 1:
    :func:`single_qutrit_gates`).
    """
    options = options or SynthesisOptions()
    m = np.asarray(m, dtype=complex)
    n = _qutrit_count(m.shape[0]) if m.ndim == 2 and m.shape[0] == m.shape[1] else None
    if n is None or n < 1:
        raise ValueError(f"matrix shape {m.shape} is not 3^n square")

    t0 = time.perf_counter()
    if n == 1:
        gates = single_qutrit_gates(m[None])
    else:
        levels = _factor_levels(m, n)
        leaves = np.stack([w for node in levels[-1] for w in node.k_factors])
        gates = _emit_node(levels, 0, 0, single_qutrit_gates(leaves, n - 1))
    circ = simplify(Circuit(n, tuple(gates)), use_cinc=options.gate_set is GateSet.GCX_CINC)
    dist = unitary_distance(eval_circuit(circ), m)
    elapsed = time.perf_counter() - t0

    report = SynthesisReport(
        n=n,
        gate_set=options.gate_set,
        counts=count_gates(circ),
        distance=float(dist),
        ok=dist <= options.tolerance,
        expected_two_qutrit=expected_count(n, options.gate_set) if n >= 2 else None,
        elapsed_s=elapsed,
    )
    return circ, report
