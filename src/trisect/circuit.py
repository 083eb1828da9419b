"""Gate-list representation of qutrit circuits, plus a structured simulator.

Gates are stored in application order: ``gates[0]`` acts first, so the
circuit matrix is the reversed product of the individual gate matrices.
:func:`eval_circuit` builds that exact 3^n x 3^n unitary without forming
any gate's full matrix: a rotation is a 3x3 contraction on one qutrit
axis and LocalX/GCX/CINC are row permutations, so each gate costs
O(9^n).  :func:`gate_matrix` gives the dense per-gate matrix, which the
tests use as the reference.

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
from dataclasses import dataclass
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
    "gate_matrix",
    "parse",
    "serialize",
]


@dataclass(frozen=True)
class Rotation:
    axis: str  # 'x' | 'y' | 'z'
    level: str  # '01' | '02' | '12'
    qutrit: int
    theta: float

    def __post_init__(self):
        if self.axis not in "xyz" or self.level not in LEVELS:
            raise ValueError(f"bad rotation {self.axis!r}/{self.level!r}")
        if not np.isfinite(self.theta):
            raise ValueError("rotation angle must be finite")


@dataclass(frozen=True)
class LocalX:
    level: str
    qutrit: int

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"bad level {self.level!r}")


@dataclass(frozen=True)
class Gcx:
    control: int
    value: int  # trit the control must read
    target: int
    level: str

    def __post_init__(self):
        if self.control == self.target:
            raise ValueError("control and target must differ")
        if self.value not in (0, 1, 2):
            raise ValueError(f"control value must be 0, 1 or 2, got {self.value}")
        if self.level not in LEVELS:
            raise ValueError(f"bad level {self.level!r}")


@dataclass(frozen=True)
class Cinc:
    control: int
    value: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise ValueError("control and target must differ")
        if self.value not in (0, 1, 2):
            raise ValueError(f"control value must be 0, 1 or 2, got {self.value}")


@dataclass(frozen=True)
class GlobalPhase:
    phi: float

    def __post_init__(self):
        if not np.isfinite(self.phi):
            raise ValueError("phase must be finite")


Gate = Union[Rotation, LocalX, Gcx, Cinc, GlobalPhase]


def _gate_qutrits(g: Gate) -> tuple[int, ...]:
    if isinstance(g, (Rotation, LocalX)):
        return (g.qutrit,)
    if isinstance(g, (Gcx, Cinc)):
        return (g.control, g.target)
    return ()


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("circuit needs at least one qutrit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for qt in _gate_qutrits(g):
                if not 0 <= qt < self.n:
                    raise ValueError(f"gate {g} touches qutrit {qt} outside width {self.n}")

    def __len__(self) -> int:
        return len(self.gates)


def gate_matrix(g: Gate, n: int) -> np.ndarray:
    if isinstance(g, Rotation):
        return algebra.embed_local(algebra.rotation(g.axis, g.level, g.theta), n, g.qutrit)
    if isinstance(g, LocalX):
        gid = algebra.GeneratorId[f"X{g.level}"]
        return algebra.embed_local(algebra.generator(gid), n, g.qutrit)
    if isinstance(g, Gcx):
        return algebra.gcx_matrix(n, g.control, g.value, g.target, g.level)
    if isinstance(g, Cinc):
        return algebra.cinc_matrix(n, g.control, g.value, g.target)
    if isinstance(g, GlobalPhase):
        return np.exp(1j * g.phi) * np.eye(3**n, dtype=complex)
    raise TypeError(f"not a gate: {g!r}")


@functools.lru_cache(maxsize=None)
def _row_permutation(g: Gate, n: int) -> np.ndarray:
    """Index array p with ``gate_matrix(g, n) @ u == u[p]`` for a permutation gate.

    Cached per (gate, width); for a given width there are finitely many
    LocalX, Gcx and Cinc gates.  The result is read-only because every
    caller shares it.
    """
    if isinstance(g, LocalX):
        gid, target, control, value = f"X{g.level}", g.qutrit, None, None
    elif isinstance(g, Gcx):
        gid, target, control, value = f"X{g.level}", g.target, g.control, g.value
    else:  # Cinc
        gid, target, control, value = "INC", g.target, g.control, g.value
    # row i of the 3x3 generator has its single 1 in column src[i]
    src = np.abs(algebra.generator(algebra.GeneratorId[gid])).argmax(axis=1)
    idx = np.arange(3**n).reshape((3,) * n)
    p = np.take(idx, src, axis=target)
    if control is not None:
        fires = (np.arange(3) == value).reshape([3 if k == control else 1 for k in range(n)])
        p = np.where(fires, p, idx)
    p = p.ravel()
    p.flags.writeable = False
    return p


def eval_circuit(c: Circuit) -> np.ndarray:
    """Exact 3^n x 3^n unitary of the circuit (later gates multiply on the left).

    Updates the matrix gate by gate without building gate matrices: a
    rotation contracts its 3x3 matrix with the gate's qutrit axis, a
    LocalX/GCX/CINC gathers rows by a cached permutation, and the global
    phases are summed and applied once.  O(len(gates) * 9^n) time.
    """
    d = 3**c.n
    u = np.eye(d, dtype=complex)
    phase = 0.0
    for g in c.gates:
        if isinstance(g, Rotation):
            r = algebra.rotation(g.axis, g.level, g.theta)
            u = np.matmul(r, u.reshape(3**g.qutrit, 3, -1)).reshape(d, d)
        elif isinstance(g, GlobalPhase):
            phase += g.phi
        elif isinstance(g, (LocalX, Gcx, Cinc)):
            u = u[_row_permutation(g, c.n)]
        else:
            raise TypeError(f"not a gate: {g!r}")
    return np.exp(1j * phase) * u


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
        return self.rotations + self.local_x + self.gcx + self.cinc + self.phases

    def as_dict(self) -> dict[str, int]:
        return {
            "rotations": self.rotations,
            "local_x": self.local_x,
            "gcx": self.gcx,
            "cinc": self.cinc,
            "phases": self.phases,
            "two_qutrit": self.two_qutrit,
            "total": self.total,
        }


def count_gates(c: Circuit) -> CountReport:
    kinds = {Rotation: 0, LocalX: 0, Gcx: 0, Cinc: 0, GlobalPhase: 0}
    for g in c.gates:
        kinds[type(g)] += 1
    return CountReport(
        rotations=kinds[Rotation],
        local_x=kinds[LocalX],
        gcx=kinds[Gcx],
        cinc=kinds[Cinc],
        phases=kinds[GlobalPhase],
    )


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
        elif isinstance(g, GlobalPhase):
            lines.append(f"PHASE {_fmt(g.phi)}")
        else:
            raise TypeError(f"not a gate: {g!r}")
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
            elif kind == "QUTRITS":
                raise CircuitParseError(line_no, "duplicate QUTRITS header")
            elif kind == "R":
                if len(args) != 4:
                    raise CircuitParseError(line_no, "R needs: axis level qutrit angle")
                gates.append(
                    Rotation(args[0].lower(), args[1], _parse_qutrit(args[2], line_no),
                             _parse_float(args[3], line_no))
                )
            elif kind == "X":
                if len(args) != 2:
                    raise CircuitParseError(line_no, "X needs: level qutrit")
                gates.append(LocalX(args[0], _parse_qutrit(args[1], line_no)))
            elif kind == "GCX":
                if len(args) != 3:
                    raise CircuitParseError(line_no, "GCX needs: control=value target level")
                ctl, val = _parse_control(args[0], line_no)
                gates.append(Gcx(ctl, val, _parse_qutrit(args[1], line_no), args[2]))
            elif kind == "CINC":
                if len(args) != 2:
                    raise CircuitParseError(line_no, "CINC needs: control=value target")
                ctl, val = _parse_control(args[0], line_no)
                gates.append(Cinc(ctl, val, _parse_qutrit(args[1], line_no)))
            elif kind == "PHASE":
                if len(args) != 1:
                    raise CircuitParseError(line_no, "PHASE needs one angle")
                gates.append(GlobalPhase(_parse_float(args[0], line_no)))
            else:
                raise CircuitParseError(line_no, f"unknown gate {toks[0]!r}")
        except CircuitParseError:
            raise
        except ValueError as exc:  # gate constructor rejected the fields
            raise CircuitParseError(line_no, str(exc)) from None
    if n is None:
        raise CircuitParseError(0, "empty circuit file (missing QUTRITS header)")
    try:
        return Circuit(n, tuple(gates))
    except ValueError as exc:
        raise CircuitParseError(0, str(exc)) from None
