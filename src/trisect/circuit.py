"""Gate-list representation of qutrit circuits, plus a structured simulator.

Gates are stored in application order: ``gates[0]`` acts first, so the
circuit matrix is the reversed product of the individual gate matrices.
:func:`eval_circuit` builds that exact 3^n x 3^n unitary without forming
any gate's full matrix: it cuts the gate list into runs on at most three
qutrits, simulates each run on its own matrix of at most 27 x 27 (3x3
rotations and row permutations) and applies it to the full unitary in
one tensor contraction as soon as the run is cut, keeping nothing of it.

Text format (one gate per line, '#' starts a comment):

    QUTRITS 2
    PHASE 1.0471975511965976
    R z 01 q0 1.25
    X 12 q1
    GCX q1=2 q0 01
    CINC q0=0 q1
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from . import algebra
from .algebra import LEVELS

__all__ = [
    "Circuit",
    "CircuitParseError",
    "Cinc",
    "CountReport",
    "Gate",
    "Gcx",
    "GlobalPhase",
    "LocalX",
    "Rotation",
    "count_gates",
    "eval_circuit",
    "parse",
    "serialize",
]


def _check_ints(*values) -> None:
    """Qutrits, widths and control values are Python or numpy integers, not floats or bools."""
    for v in values:
        if type(v) is not int and not isinstance(v, np.integer):  # exact type, so bool fails
            raise ValueError(f"qutrits and control values must be integers, got {v!r}")


def _check_controlled(g: Gcx | Cinc) -> None:
    """Control and target are distinct qutrits and the control value is a trit."""
    _check_ints(g.control, g.value, g.target)
    if g.control == g.target:
        raise ValueError("control and target must differ")
    if g.value not in (0, 1, 2):
        raise ValueError(f"control value must be 0, 1 or 2, got {g.value}")


@dataclass(frozen=True)
class Rotation:
    axis: str  # 'x' | 'y' | 'z'
    level: str  # '01' | '02' | '12'
    qutrit: int
    theta: float

    def __post_init__(self):
        _check_ints(self.qutrit)
        if self.axis not in ("x", "y", "z") or self.level not in LEVELS:
            raise ValueError(f"bad rotation {self.axis!r}/{self.level!r}")
        if not math.isfinite(self.theta):
            raise ValueError("rotation angle must be finite")


@dataclass(frozen=True)
class LocalX:
    level: str
    qutrit: int

    def __post_init__(self):
        _check_ints(self.qutrit)
        if self.level not in LEVELS:
            raise ValueError(f"bad level {self.level!r}")


@dataclass(frozen=True)
class Gcx:
    control: int
    value: int  # trit the control must read
    target: int
    level: str

    def __post_init__(self):
        _check_controlled(self)
        if self.level not in LEVELS:
            raise ValueError(f"bad level {self.level!r}")


@dataclass(frozen=True)
class Cinc:
    control: int
    value: int
    target: int

    __post_init__ = _check_controlled


@dataclass(frozen=True)
class GlobalPhase:
    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError("phase must be finite")


Gate = Union[Rotation, LocalX, Gcx, Cinc, GlobalPhase]


def _gate_qutrits(g: Gate) -> tuple[int, ...]:
    if isinstance(g, (Rotation, LocalX)):
        return (g.qutrit,)
    if isinstance(g, (Gcx, Cinc)):
        return (g.control, g.target)
    if isinstance(g, GlobalPhase):
        return ()
    raise TypeError(f"not a gate: {g!r}")


def _check_width(gates, n: int) -> None:
    for g in gates:
        for qt in _gate_qutrits(g):
            if not 0 <= qt < n:
                raise ValueError(f"gate {g} touches qutrit {qt} outside width {n}")


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        _check_ints(self.n)
        if self.n < 1:
            raise ValueError("circuit needs at least one qutrit")
        object.__setattr__(self, "gates", tuple(self.gates))
        _check_width(self.gates, self.n)

    def __len__(self) -> int:
        return len(self.gates)


# Widest support a run may have; its local matrix is at most 27 x 27.
RUN_QUTRITS = 3

# X01, X02, X12; a chain reaches them by negative index, after its run's rotations.
_LOCAL_X = np.array([algebra.generator(algebra.GeneratorId[f"X{lv}"]) for lv in LEVELS])


@functools.lru_cache(maxsize=None)
def _local_permutation(gid: str, target: int, control: int, value: int, width: int) -> np.ndarray:
    """Index array p with ``m[p]`` applying a controlled generator to a width-qutrit ``m``.

    ``gid`` names the 3x3 permutation applied to ``target`` when ``control``
    reads ``value``.  Cached and read-only, since every caller shares it.
    """
    # row i of the 3x3 generator has its single 1 in column src[i]
    src = np.abs(algebra.generator(algebra.GeneratorId[gid])).argmax(axis=1)
    idx = np.arange(3**width).reshape((3,) * width)
    fires = (np.arange(3) == value).reshape([3 if k == control else 1 for k in range(width)])
    p = np.where(fires, np.take(idx, src, axis=target), idx).ravel()
    p.flags.writeable = False
    return p


def _chain_products(stack: np.ndarray, chains: list[list[int]]) -> np.ndarray:
    """Product of each chain of ``stack`` indices (first index acts first), (len(chains), 3, 3).

    The chains of one length are multiplied together, step t of all of
    them in one batched matmul, so the work is the total chain length.
    """
    out = np.empty((len(chains), 3, 3), dtype=complex)
    for length in set(map(len, chains)):
        rows = [i for i, ch in enumerate(chains) if len(ch) == length]
        mats = stack[np.array([chains[i] for i in rows])]
        prod = mats[:, 0]
        for t in range(1, length):
            prod = mats[:, t] @ prod
        out[rows] = prod
    return out


def _apply_local(m: np.ndarray, r: np.ndarray, axis: int) -> np.ndarray:
    """``r`` (3x3) applied on the left to qutrit ``axis`` of the square matrix ``m``."""
    return np.matmul(r, m.reshape(3**axis, 3, -1)).reshape(m.shape)


def _run_matrix(steps: list, support: list[int], prods: np.ndarray) -> np.ndarray:
    """The 3^k x 3^k matrix of a run's steps on its k qutrits ``support``, in sorted order.

    A step ``(q, chain)`` applies the product of the single-qutrit gates
    deferred on qutrit q; ``(gid, control, target, value)`` is a row gather.
    """
    width = len(support)
    local = {q: i for i, q in enumerate(sorted(support))}
    m = np.eye(3**width, dtype=complex)
    for step in steps:
        if len(step) == 2:
            m = _apply_local(m, prods[step[1]], local[step[0]])
        else:
            gid, control, target, value = step
            m = m.take(_local_permutation(gid, local[target], local[control], value, width), axis=0)
    return m


def eval_circuit(c: Circuit) -> np.ndarray:
    """Exact 3^n x 3^n unitary of the circuit (later gates multiply on the left).

    One pass cuts the gate list, in order, into maximal runs on at most
    :data:`RUN_QUTRITS` qutrits.  Each run is simulated on its own 3^k x
    3^k matrix and applied to the full unitary, with one ``tensordot`` on
    its qutrit axes, as soon as it is cut (the next gate would widen it,
    or the circuit ends); nothing of it is kept.  Within a run a
    single-qutrit gate is deferred into a chain on its qutrit, whose
    product is applied only when a GCX/CINC (a cached row permutation)
    touches that qutrit or the run ends; this is exact, since a deferred
    gate commutes with every gate on other qutrits.  A run's rotation
    matrices and chain products are built in batched numpy passes.
    Global phases are summed and applied once.
    """
    n, d = c.n, 3**c.n
    u = np.eye(d, dtype=complex).reshape((3,) * n + (d,))
    rots: list[Rotation] = []  # the run's rotations; chains index them, then _LOCAL_X
    chains: list[list[int]] = []  # indices deferred on one qutrit, first acting first
    support: list[int] = []  # the run's qutrits in first-touch order
    steps: list = []
    pending: dict[int, list[int]] = {}

    def flush(q: int) -> None:
        chains.append(pending.pop(q))
        steps.append((q, len(chains) - 1))

    def apply_run(u: np.ndarray) -> np.ndarray:
        for q in list(pending):
            flush(q)
        if steps:
            axes, k = sorted(support), len(support)
            stack = np.concatenate(
                [algebra.rotations([g.axis for g in rots], [g.level for g in rots], [g.theta for g in rots]), _LOCAL_X]
            )
            m = _run_matrix(steps, support, _chain_products(stack, chains)).reshape((3,) * (2 * k))
            u = np.moveaxis(np.tensordot(m, u, axes=(range(k, 2 * k), axes)), range(k), axes)
        for part in (rots, chains, support, steps):
            part.clear()
        return u

    phase = 0.0
    for g in c.gates:
        if isinstance(g, (Rotation, LocalX)):
            qs = (g.qutrit,)
        elif isinstance(g, (Gcx, Cinc)):
            qs = (g.control, g.target)
        else:  # GlobalPhase; Circuit admits only the five gate classes
            phase += g.phi
            continue
        if qs[0] not in support or qs[-1] not in support:
            new = [q for q in qs if q not in support]
            if len(support) + len(new) > RUN_QUTRITS:
                u = apply_run(u)
                new = list(qs)
            support += new
        if len(qs) == 2:
            for q in qs:
                if q in pending:
                    flush(q)
            steps.append((f"X{g.level}" if isinstance(g, Gcx) else "INC", g.control, g.target, g.value))
        elif isinstance(g, Rotation):
            pending.setdefault(g.qutrit, []).append(len(rots))
            rots.append(g)
        else:
            pending.setdefault(g.qutrit, []).append(LEVELS.index(g.level) - len(_LOCAL_X))
    u = apply_run(u)
    return np.exp(1j * phase) * np.ascontiguousarray(u).reshape(d, d)


@dataclass(frozen=True)
class CountReport:
    rotations: int
    local_x: int
    gcx: int
    cinc: int
    phases: int

    @property
    def two_qutrit(self) -> int:
        return self.gcx + self.cinc

    @property
    def total(self) -> int:
        return sum(asdict(self).values())

    def as_dict(self) -> dict[str, int]:
        return {**asdict(self), "two_qutrit": self.two_qutrit, "total": self.total}


def count_gates(c: Circuit) -> CountReport:
    kinds = Counter(map(type, c.gates))
    return CountReport(kinds[Rotation], kinds[LocalX], kinds[Gcx], kinds[Cinc], kinds[GlobalPhase])


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------


class CircuitParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def serialize(c: Circuit) -> str:
    lines = [f"QUTRITS {c.n}"]
    for g in c.gates:
        if isinstance(g, Rotation):
            lines.append(f"R {g.axis} {g.level} q{g.qutrit} {_fmt(g.theta)}")
        elif isinstance(g, LocalX):
            lines.append(f"X {g.level} q{g.qutrit}")
        elif isinstance(g, Gcx):
            lines.append(f"GCX q{g.control}={g.value} q{g.target} {g.level}")
        elif isinstance(g, Cinc):
            lines.append(f"CINC q{g.control}={g.value} q{g.target}")
        else:  # GlobalPhase
            lines.append(f"PHASE {_fmt(g.phi)}")
    return "\n".join(lines) + "\n"


def _parse_qutrit(tok: str, line_no: int) -> int:
    if not tok.startswith("q") or not tok[1:].isdigit():
        raise CircuitParseError(line_no, f"expected qutrit like 'q0', got {tok!r}")
    return int(tok[1:])


def _parse_control(tok: str, line_no: int) -> tuple[int, int]:
    head, sep, val = tok.partition("=")
    if not sep or not val.isdigit():
        raise CircuitParseError(line_no, f"expected control like 'q0=1', got {tok!r}")
    return _parse_qutrit(head, line_no), int(val)


def _parse_float(tok: str, line_no: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise CircuitParseError(line_no, f"bad number {tok!r}") from None


def parse(text: str) -> Circuit:
    n: int | None = None
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind, args = toks[0].upper(), toks[1:]
        try:
            if n is None:
                if kind != "QUTRITS":
                    raise CircuitParseError(line_no, "file must start with 'QUTRITS <n>'")
                if len(args) != 1 or not args[0].isdigit() or int(args[0]) < 1:
                    raise CircuitParseError(line_no, "QUTRITS needs a positive integer")
                n = int(args[0])
                continue
            if kind == "QUTRITS":
                raise CircuitParseError(line_no, "duplicate QUTRITS header")
            elif kind == "R":
                if len(args) != 4:
                    raise CircuitParseError(line_no, "R needs: axis level qutrit angle")
                gate = Rotation(args[0].lower(), args[1], _parse_qutrit(args[2], line_no),
                                _parse_float(args[3], line_no))
            elif kind == "X":
                if len(args) != 2:
                    raise CircuitParseError(line_no, "X needs: level qutrit")
                gate = LocalX(args[0], _parse_qutrit(args[1], line_no))
            elif kind == "GCX":
                if len(args) != 3:
                    raise CircuitParseError(line_no, "GCX needs: control=value target level")
                ctl, val = _parse_control(args[0], line_no)
                gate = Gcx(ctl, val, _parse_qutrit(args[1], line_no), args[2])
            elif kind == "CINC":
                if len(args) != 2:
                    raise CircuitParseError(line_no, "CINC needs: control=value target")
                ctl, val = _parse_control(args[0], line_no)
                gate = Cinc(ctl, val, _parse_qutrit(args[1], line_no))
            elif kind == "PHASE":
                if len(args) != 1:
                    raise CircuitParseError(line_no, "PHASE needs one angle")
                gate = GlobalPhase(_parse_float(args[0], line_no))
            else:
                raise CircuitParseError(line_no, f"unknown gate {toks[0]!r}")
            _check_width((gate,), n)
            gates.append(gate)
        except CircuitParseError:
            raise
        except ValueError as exc:  # gate constructor or width check rejected the fields
            raise CircuitParseError(line_no, str(exc)) from None
    if n is None:
        raise CircuitParseError(0, "empty circuit file (missing QUTRITS header)")
    return Circuit(n, tuple(gates))
