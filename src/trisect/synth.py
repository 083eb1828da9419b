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
81, ... matrices, none at n = 1), keeping per level only its angle stacks.
It then emits the tree bottom up into one gate table (:mod:`trisect.circuit`),
a level at a time: the 9^(n-1) single-qutrit leaves, all on the last
qutrit, in one batched call, and each factor position of a level as one
affine map of its angle stack, so no per-node or gate object is built.
Every factor emitter is affine in its angles, so its rows and its map
``(M, c)`` are built once per factor kind and qutrits from two emitter
calls (:func:`_factor_map`), and a level's stack ``lam`` then costs one
``lam @ M + c``; the emitters stay the one definition of each circuit.
Each factor circuit is emitted at the closed-form size of
:func:`operator_count`, which is also here.  The public ``*_gates``
emitters return the same circuits as gate objects.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import time
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AXES, LEVELS
from .cartan import NONLOCAL_ORDER, _qutrit_count, factorize_stack
from .circuit import (
    GATE_DTYPE,
    GCX,
    LOCAL_X,
    PHASE,
    ROT,
    Circuit,
    CountReport,
    Gate,
    _adopt,
    _check_ints,
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
    "probe_distance",
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
# An emitter returns a block ``(rows, angles)`` for a (batch, 3^(k-1)) angle
# stack: integer gate-table columns (op, q0, q1, value, level, axis) shared
# by every line, and per line the angles of its rotation and phase rows.

_L01, _L02, _L12 = range(len(LEVELS))
_Y, _Z = AXES.index("y"), AXES.index("z")


def _rows(*rows: tuple) -> np.ndarray:
    return np.array(rows, dtype=np.int16).reshape(-1, 6)


def _join(*blocks) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of one batch in application order; a bare rows array carries no angles."""
    pairs = [b if isinstance(b, tuple) else (b, None) for b in blocks]
    return np.concatenate([r for r, _ in pairs]), np.concatenate([a for _, a in pairs if a is not None], axis=1)


def _table(rows: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The block as gate-table lines, shape (batch, R)."""
    t = np.zeros((len(angles), len(rows)), GATE_DTYPE)
    for name, column in zip(GATE_DTYPE.names, rows.T):
        t[name] = column
    t["angle"][:, (rows[:, 0] == ROT) | (rows[:, 0] == PHASE)] = angles
    return t


def _as_gates(block: tuple[np.ndarray, np.ndarray]) -> list[Gate]:
    """The block's lines as gate objects, checked as one circuit on qutrits 0..max (at least one)."""
    return list(Circuit(max(int(block[0][:, 1:3].max()) + 1, 1), _table(*block).reshape(-1)).gates)


def _mux_args(qutrits: Sequence[int], angles: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """``qutrits`` as a tuple and ``angles`` as a (1, 3^(k-1)) stack of real angles."""
    qutrits = tuple(qutrits)
    angles = np.asarray(angles).ravel()
    if not qutrits or angles.dtype.kind == "c":
        raise ValueError(f"need one or more qutrits and real angles, got {len(qutrits)} and {angles.dtype}")
    if angles.size != 3 ** (len(qutrits) - 1):
        raise ValueError(
            f"need {3 ** (len(qutrits) - 1)} angles for {len(qutrits)} qutrits, got {angles.size}"
        )
    _check_ints(*qutrits)
    return qutrits, angles.astype(float, copy=False)[None]


def _z_core_rows(level: int, qutrits: tuple[int, ...]) -> np.ndarray:
    """The z mux on k qutrits in application order without its closing run: 3^(k-1) - 1 GCX.

    Each sub-mux drops its run too: the ``dv`` run and the reversed ``b``
    run commute with the GCX between them and cancel, and the ``a`` run is
    part of this mux's own run.
    """
    t, c = qutrits[0], qutrits[-1]
    if len(qutrits) == 1:
        return _rows((ROT, t, t, 0, level, _Z))
    sub = _z_core_rows(level, qutrits[:-1])
    gcx2, x_gcx0 = _rows((GCX, c, t, 2, level, 0)), _rows((LOCAL_X, t, t, 0, level, 0), (GCX, c, t, 0, level, 0))
    return np.concatenate([sub, gcx2, sub[::-1], x_gcx0, sub])


def _z_core_angles(angles: np.ndarray) -> np.ndarray:
    """The rotation angles of :func:`_z_core_rows`, in row order, for a (batch, 3^(k-1)) stack.

    Each step splits all vectors by the value of the peeled control into the sub-mux angles dv, b, a.
    """
    if angles.shape[1] == 1:
        return 2.0 * angles
    t0, t1, t2 = angles.reshape(len(angles), -1, 3).transpose(2, 0, 1)
    parts = np.stack([(t1 + t2) / 2.0, (t0 - t2) / 2.0, (t0 - t1) / 2.0], axis=1)  # dv, b, a
    out = _z_core_angles(parts.reshape(-1, parts.shape[-1])).reshape(parts.shape)
    out[:, 1] = out[:, 1, ::-1].copy()
    return out.reshape(len(angles), -1)


def _z_mux(level: int, qutrits: tuple[int, ...], angles: np.ndarray, closing: bool = True):
    """exp(-i sz^level (x) diag(angles)) on ``qutrits[0]``, closed by the value-1 GCX run, one per control."""
    run = [(GCX, q, qutrits[0], 1, level, 0) for q in qutrits[1:]] if closing else []
    return _join((_z_core_rows(level, qutrits), _z_core_angles(angles)), _rows(*run))


def _w_mux(level: int, qutrits: tuple[int, ...], angles: np.ndarray):
    """The z mux with the rotation on ``qutrits[-1]``: reversed qutrits, angles at base-3 reversed indices."""
    k = len(qutrits) - 1
    return _z_mux(level, qutrits[::-1], angles[:, np.arange(3**k).reshape((3,) * k).T.ravel()])


def _x_mux(level: int, qutrits: tuple[int, ...], angles: np.ndarray, absorb: bool):
    """The y-conjugated z mux; ``absorb`` drops its closing run."""
    y = _rows((ROT, qutrits[0], qutrits[0], 0, level, _Y))
    quarter = np.full((len(angles), 1), math.pi / 2.0)
    return _join((y, -quarter), _z_mux(level, qutrits, angles, closing=not absorb), (y, quarter))


def _d_mux(kind: str, qutrits: tuple[int, ...], lam: np.ndarray):
    """exp(-i D (x) diag(lam)) ("d") or exp(-i Dbar (x) diag(lam)) ("dbar"), see :func:`d_mux_gates`."""
    if len(qutrits) == 1:
        q = qutrits[0]
        tp = 4.0 * lam / 3.0
        rows = _rows((PHASE, 0, 0, 0, 0, 0), (ROT, q, q, 0, _L01, _Z), (ROT, q, q, 0, _L02, _Z))
        return rows, np.concatenate([tp / 4.0, tp, tp if kind == "d" else -2.0 * tp], axis=1)
    value = 0 if kind == "d" else 2
    c, t = qutrits[0], qutrits[-1]
    t0, t1, t2 = lam.reshape(len(lam), -1, 3).transpose(2, 0, 1)
    th02 = (2.0 * t2 - t0 - t1) / 3.0
    th01 = (2.0 * t1 - t0 - t2) / 3.0
    mean = (t0 + t1 + t2) / 3.0
    g01, g02 = _rows((GCX, c, t, value, _L01, 0)), _rows((GCX, c, t, value, _L02, 0))
    inner = qutrits[1:]
    return _join(
        _d_mux(kind, qutrits[:-1], mean), g01, _w_mux(_L01, inner, th01), g01, g02, _w_mux(_L02, inner, th02), g02
    )


def _factor_block(kind: str, qutrits: tuple[int, ...], angles: np.ndarray):
    """One interleaved factor of the chain per line of ``angles``, x factors absorbed."""
    if kind in ("x01", "x12"):
        return _x_mux(LEVELS.index(kind[1:]), qutrits, angles, absorb=True)
    if kind == "z12":
        return _z_mux(_L12, qutrits, angles)
    return _d_mux(kind, qutrits, angles)


@functools.lru_cache(maxsize=256)
def _factor_map(kind: str, qutrits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, M, c)`` with ``_factor_block(kind, qutrits, lam)`` equal to ``(rows, lam @ M + c)``.

    Every emitter is affine in its angles, so ``c`` is its angles on a zero
    line and ``M + c`` those on the identity stack; the emitters stay the
    one definition of each factor circuit.  Read-only, as the cache shares them.
    """
    p = 3 ** (len(qutrits) - 1)
    rows, c = _factor_block(kind, qutrits, np.zeros((1, p)))
    m = _factor_block(kind, qutrits, np.eye(p))[1] - c
    for a in (rows, m, c):
        a.flags.writeable = False
    return rows, m, c[0]


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
    if level not in LEVELS:
        raise ValueError(f"z mux level must be one of {', '.join(LEVELS)}, got {level!r}")
    qutrits, angles = _mux_args(qutrits, angles)
    gates = _as_gates(_z_mux(LEVELS.index(level), qutrits, angles))
    return gates[::-1] if reverse else gates


def w_mux_gates(level: str, qutrits: Sequence[int], angles: np.ndarray) -> list[Gate]:
    """Gates for exp(-i diag(angles) (x) sz^level): rotation on the *last* qutrit.

    Same mux as :func:`z_mux_gates` with the roles flipped: the target is
    ``qutrits[-1]`` and ``qutrits[:-1]`` control, big-endian.  Realized by
    handing the emitter the reversed qutrit list and trit-reversed angles.
    """
    if level not in LEVELS:
        raise ValueError(f"w mux level must be one of {', '.join(LEVELS)}, got {level!r}")
    qutrits, angles = _mux_args(qutrits, angles)
    return _as_gates(_w_mux(LEVELS.index(level), qutrits, angles))


def x_mux_gates(
    level: str, qutrits: Sequence[int], angles: np.ndarray, absorb: bool = True
) -> list[Gate]:
    """Gates for exp(-i sx^level (x) diag(angles)): a y-conjugated z mux.

    With ``absorb=True`` the closing run of value-1 GCX gates (one per
    control) is not emitted; the omitted product equals a diagonal sign
    factor that the factorization folds into the neighbouring block
    (see :func:`trisect.cartan._absorption_signs`).
    """
    if level not in ("01", "12"):
        raise ValueError(f"x mux is emitted for levels 01 and 12 only, got {level!r}")
    qutrits, angles = _mux_args(qutrits, angles)
    return _as_gates(_x_mux(LEVELS.index(level), qutrits, angles, absorb))


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
    qutrits, angles = _mux_args(qutrits, angles)
    return _as_gates(_d_mux(kind, qutrits, angles))


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


def _leaf_block(u: np.ndarray, qutrit: int):
    """Block of each matrix of a (k, 3, 3) stack as nine rotations on ``qutrit``, then its phase.

    Pull out the determinant phase, zero the lower first column with two
    unit-determinant two-level mixes, and expand each of the three
    resulting det-1 blocks as a z-y-z rotation triple.  The whole stack
    goes through each step as one array operation.
    """
    _check_ints(qutrit)
    defect = unitarity_defect(u)
    if defect > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    phi = np.angle(np.linalg.det(u)) / 3.0
    v = u * np.exp(-1j * phi)[:, None, None]

    ga = _givens2(v[:, 1, 0], v[:, 2, 0])  # rows 1,2 -> zero v[2,0]
    v[:, 1:] = ga @ v[:, 1:]
    gb = _givens2(v[:, 0, 0], v[:, 1, 0])  # rows 0,1 -> zero v[1,0]
    v[:, :2] = gb @ v[:, :2]
    # The mixes leave v = diag(1, B): the corner entry is the first
    # column's norm (gb's pivot never degenerates since |v[0,0]|^2 +
    # |v[1,0]|^2 = 1), and det B = det v = 1.
    dagger = (0, 2, 1)
    blocks = np.stack([v[:, 1:, 1:], gb.conj().transpose(dagger), ga.conj().transpose(dagger)], 1)
    rows = [(ROT, qutrit, qutrit, 0, LEVELS.index(lv), axis) for lv in _TRIPLE_LEVELS for axis in (_Z, _Y, _Z)]
    angles = np.concatenate([_zyz_angles(blocks).reshape(len(u), 9), phi[:, None]], axis=1)
    return _rows(*rows, (PHASE, 0, 0, 0, 0, 0)), angles


def single_qutrit_gates(u: np.ndarray, qutrit: int = 0) -> list[Gate]:
    """Any U(3) as nine rotations plus a global phase, for one matrix or a stack.

    ``u`` is a (3, 3) matrix or a (k, 3, 3) stack; the result holds ten
    gates per matrix, in stack order: nine rotations on ``qutrit``, then
    the phase (see :func:`_leaf_block`).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or a stack of them, got {u.shape}")
    return _as_gates(_leaf_block(u.reshape(-1, 3, 3), qutrit))


# ---------------------------------------------------------------------------
# gate counting
# ---------------------------------------------------------------------------

# Previously reported two-qutrit totals for the gcx+cinc gate set.  The
# n=3 entry disagrees with the closed-form count (271); the counts
# command calls that out rather than silently preferring either number.
CITED_CINC_TOTALS = {2: 21, 3: 217, 4: 2686}

# The nonlocal factor kinds, in the column order of the count tables.
FACTOR_KINDS = ("x01", "x12", "z12", "d", "dbar")


def _check_gate_set(gate_set) -> None:
    if not isinstance(gate_set, GateSet):
        raise ValueError(f"gate_set must be a GateSet, got {gate_set!r}")


def _check_count(n, gate_set=GateSet.GCX_CINC) -> None:
    """Refuse to count for a width that is not an integer n >= 2 or a gate_set that is not a GateSet."""
    _check_ints(n)
    if n < 2:
        raise ValueError("two-qutrit counts are defined for n >= 2")
    _check_gate_set(gate_set)


@functools.lru_cache(typed=True)  # typed, so 3.0 misses the entry of 3 and reaches _check_count
def expected_count(n: int, gate_set: GateSet = GateSet.GCX_CINC) -> int:
    """Closed-form two-qutrit gate count of a generic n-qutrit synthesis."""
    _check_count(n, gate_set)
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
    _check_count(n)
    val = Fraction(9) ** n / 16 - Fraction(n, 2) - Fraction(1, 16)
    if val.denominator != 1:
        raise ArithmeticError(f"savings formula did not give an integer: {val}")
    return int(val)


def operator_count(kind: str, n: int, gate_set: GateSet = GateSet.GCX_CINC) -> int:
    """Two-qutrit gates that the emitters spend on one factor circuit spanning n qutrits."""
    _check_count(n, gate_set)
    p = 3 ** (n - 1)
    if kind in ("x01", "x12"):
        return p - 1
    if kind == "z12":
        return p + n - 2
    if kind in ("d", "dbar"):
        fused = n - 1 if gate_set is GateSet.GCX_CINC else 0
        return p + n * n - n - 1 - fused
    raise ValueError(f"unknown factor kind {kind!r}")


def measured_operator_counts(n: int, gate_set: GateSet = GateSet.GCX_CINC) -> dict[str, int]:
    """Emit each factor kind standalone and count.

    Cross-checks :func:`operator_count` by counting the emitters' own
    output, after :func:`~trisect.passes.pass_fuse_cinc` for
    ``GateSet.GCX_CINC``.  No cancellation pass runs, so the angles never
    reach a count and are all zero.
    """
    _check_count(n, gate_set)
    counts: dict[str, int] = {}
    for kind in FACTOR_KINDS:
        circ = Circuit(n, _table(*_factor_block(kind, tuple(range(n)), np.zeros((1, 3 ** (n - 1)))))[0])
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

    def __post_init__(self) -> None:
        _check_gate_set(self.gate_set)
        t = self.tolerance
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not 0 < t < math.inf:
            raise ValueError(f"tolerance must be a finite positive number, got {t!r}")


@dataclass(frozen=True)
class SynthesisReport:
    n: int
    gate_set: GateSet
    counts: CountReport
    distance: float  # probe_distance of the circuit to the input
    ok: bool  # distance within SynthesisOptions.tolerance
    expected_two_qutrit: int | None
    elapsed_s: float
    split_residuals: tuple[float, ...] = ()  # worst split residual per recursion level, top first

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
            "split_residuals": list(self.split_residuals),
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
            f"split residuals:  {' '.join(f'{r:.1e}' for r in self.split_residuals) or 'none'} (worst per level)",
            f"within tolerance: {'yes' if self.ok else 'no'}",
            f"elapsed:          {self.elapsed_s:.3f} s",
        ]


def _factor_levels(m: np.ndarray, n: int) -> tuple[list, np.ndarray]:
    """The recursion tree breadth-first: one :func:`factorize_stack` call per level.

    Level j is a stack of 9^j matrices; the children of matrix i are lines
    9i..9i+8 of level j+1, its K factors in chain order.  A level keeps only
    what the emission reads: its eight angle stacks in chain order, of the
    kinds NONLOCAL_ORDER, and its worst split residual.  The last level's K
    factors, the single-qutrit leaves, come back stacked; for n = 1, ``m``.
    """
    levels, stack = [], m[None]
    for _ in range(n - 1):
        chain, residuals = factorize_stack(stack, absorb=True)
        levels.append(([x for kind, x in chain if kind != "K"], max(float(r.max()) for r in residuals.values())))
        p = stack.shape[-1] // 3
        stack = np.stack([x for kind, x in chain if kind == "K"], axis=1).reshape(-1, p, p)
    return levels, stack


def _emit_tree(levels: list, leaves: np.ndarray, n: int) -> np.ndarray:
    """The whole recursion tree as one gate table, in application order, built a level at a time.

    A level is one block whose line i is its node i: the nodes share their rows, each factor
    position is one product with its cached :func:`_factor_map`, and node i's K entries are
    lines 9i..9i+8 of the level below.
    """
    rows, angles = _leaf_block(leaves, n - 1)
    for depth in range(n - 2, -1, -1):
        kids = angles.reshape(9**depth, 9, -1)
        blocks = [(rows, kids[:, 8])]  # the chain is in matrix order: emit it from its last K down
        for j in range(7, -1, -1):
            factor_rows, m, c = _factor_map(NONLOCAL_ORDER[j], tuple(range(depth, n)))
            blocks += [(factor_rows, levels[depth][0][j] @ m + c), (rows, kids[:, j])]
        rows, angles = _join(*blocks)
    return _table(rows, angles).reshape(-1)


PROBES, PROBE_SEED = 8, 1977  # probe columns of the verification distance, and the seed they are drawn from


@functools.cache
def _probe_block(d: int) -> np.ndarray:
    """The (d, PROBES) block of complex Gaussian probes, unit variance per entry; read-only, as callers share it."""
    z = (np.random.default_rng(PROBE_SEED).standard_normal((d, 2 * PROBES)) * math.sqrt(0.5)).view(complex)
    z.flags.writeable = False
    return z


def probe_distance(c: Circuit, m: np.ndarray) -> float:
    """The circuit's distance to ``m`` on the fixed probe block Z: ``unitary_distance(C Z, m Z) / sqrt(PROBES)``.

    For unit-variance complex Gaussian Z, E ||(C - m) Z||_F^2 = PROBES ||C - m||_F^2 (Freivalds; Hutchinson).  At the
    phase optimal for the exact distance, a rank-1 error's squared estimate is below a tenth of the true one with
    probability P(Gamma(8, 1) < 0.8) = 2.1e-6; minimizing the phase on Z only lowers it.  Z is fixed: a circuit crafted
    against it is not caught, and ``unitary_distance(eval_circuit(c), m)`` is the exact check.
    """
    z = _probe_block(3**c.n)
    return unitary_distance(eval_circuit(c, z), m @ z) / math.sqrt(PROBES)


def synthesize(
    m: np.ndarray, options: SynthesisOptions | None = None
) -> tuple[Circuit, SynthesisReport]:
    """Factor an n-qutrit unitary into gates and verify it by simulation.

    Returns the circuit and a report carrying the measured gate counts,
    the closed-form expected two-qutrit count (generic inputs; n >= 2),
    the phase-aligned Frobenius distance between the circuit and the
    input, estimated on probe columns (:func:`probe_distance`), whether
    that distance is within ``options.tolerance``, and the worst split
    residual of each recursion level.  A non-unitary matrix raises
    ``ValueError`` from :func:`factorize_stack`, or at n = 1, where the
    input is the one leaf, from the leaf decomposition.
    """
    options = options or SynthesisOptions()
    m = np.asarray(m, dtype=complex)
    n = _qutrit_count(m.shape[0]) if m.ndim == 2 and m.shape[0] == m.shape[1] else None
    if n is None or n < 1:
        raise ValueError(f"matrix shape {m.shape} is not 3^n square")

    t0 = time.perf_counter()
    levels, leaves = _factor_levels(m, n)
    circ = _adopt(n, _emit_tree(levels, leaves, n))
    circ = simplify(circ, use_cinc=options.gate_set is GateSet.GCX_CINC)
    dist = probe_distance(circ, m)
    elapsed = time.perf_counter() - t0

    report = SynthesisReport(
        n=n,
        gate_set=options.gate_set,
        counts=count_gates(circ),
        distance=float(dist),
        ok=dist <= options.tolerance,
        expected_two_qutrit=expected_count(n, options.gate_set) if n >= 2 else None,
        elapsed_s=elapsed,
        split_residuals=tuple(worst for _, worst in levels),
    )
    return circ, report
