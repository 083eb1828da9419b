"""Qutrit circuits as one gate table, plus a structured simulator.

A :class:`Circuit` is a width n and a numpy structured array of
:data:`GATE_DTYPE`, one row per gate in application order (row 0 acts
first).  Its columns: ``op`` (ROT, LOCAL_X, GCX, CINC, PHASE), ``q0`` (the
qutrit, or a GCX/CINC control), ``q1`` (the target; q0 for a one-qutrit
gate), ``value`` (control value), ``level`` and ``axis`` (indices into
LEVELS and AXES) and ``angle`` (rotation angle or phase).  Unused fields
are 0, so each gate has one row.  The table is checked once, against one
list of gate rules applied with array operations (:func:`_fault`), and
kept read-only: a copy (of the rows' bytes, through :data:`_ROW`), unless
parsing, synthesis or a pass built it (:func:`_adopt`).  Gate objects
(:class:`Rotation`, ...) are plain records: ``Circuit(n, gates)`` turns
them into rows and checks them with the same rules, and
``Circuit.gates`` makes them on demand.  Counting,
the passes, the text format and the simulator read the columns.  The
simulator (:func:`eval_circuit`) walks the table once, a chunk of rows at
a time, and applies each run of gates on at most three qutrits to its
operand block as soon as the run ends; it keeps nothing between calls.
Within a run, each region of monomial gates (z rotations, LocalX, GCX and
CINC: each a permutation times a diagonal) is one gather and one phase,
and each group of x and y rotations on distinct qutrits one 2-D product.

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
import gc
import itertools
import math
import numbers
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from . import algebra
from .algebra import AXES, LEVELS

__all__ = [
    "Circuit",
    "CircuitParseError",
    "GATE_DTYPE",
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


@dataclass(frozen=True)
class Rotation:
    axis: str  # 'x' | 'y' | 'z'
    level: str  # '01' | '02' | '12'
    qutrit: int
    theta: float


@dataclass(frozen=True)
class LocalX:
    level: str
    qutrit: int


@dataclass(frozen=True)
class Gcx:
    control: int
    value: int  # trit the control must read
    target: int
    level: str


@dataclass(frozen=True)
class Cinc:
    control: int
    value: int
    target: int


@dataclass(frozen=True)
class GlobalPhase:
    phi: float


Gate = Union[Rotation, LocalX, Gcx, Cinc, GlobalPhase]


# Op codes of the gate table, in CountReport's field order.
ROT, LOCAL_X, GCX, CINC, PHASE = range(5)
GATE_DTYPE = np.dtype({  # 16 bytes a row, the angle 8-byte aligned
    "names": ["op", "q0", "q1", "value", "level", "axis", "angle"],
    "formats": ["i1", "i2", "i2", "i1", "i1", "i1", "f8"],
    "offsets": [0, 4, 6, 1, 2, 3, 8],
})
_ROW = np.dtype((np.void, GATE_DTYPE.itemsize))  # rows as bytes: numpy moves structured rows ~10x slower
_CHUNK = 2048  # rows read at a time: an n=3 circuit (~1400 rows) is one chunk, and no whole column is ever a list
_CLASSES = (Rotation, LocalX, Gcx, Cinc, GlobalPhase)
_AXIS = {a: i for i, a in enumerate(AXES)}
_LEVEL = {lv: i for i, lv in enumerate(LEVELS)}


def _add_angles(a: float, b: float) -> float:
    """``a + b`` modulo 4 pi, so also modulo 2 pi: the plain sum when it is finite.

    Only a sum that overflows takes each term reduced first, as twice the
    ``atan2`` of the sine and cosine of its half angle (whose argument
    reduction is exact), so finite angles never sum to inf or NaN.
    """
    s = a + b
    if math.isfinite(s):
        return s
    return sum(2 * math.atan2(math.sin(x / 2), math.cos(x / 2)) for x in (a, b))


def _sum_angles(angles: np.ndarray) -> float:
    """:func:`_add_angles` folded over ``angles`` in order, from 0.0.

    ``np.add.accumulate`` adds strictly in order, so while the running sum
    stays finite its last entry is the loop's result (``0.0 +`` turns a -0.0
    into the loop's +0.0); only a sum that overflows takes the loop.
    """
    with np.errstate(over="ignore"):
        s = 0.0 + float(np.add.accumulate(angles)[-1]) if len(angles) else 0.0
    return s if math.isfinite(s) else functools.reduce(_add_angles, angles.tolist(), 0.0)


def _named_row(op: int, q0, q1, value, level, axis, angle) -> tuple:
    """A table row with the level and axis by name (axis None: the gate has none); an unknown name is refused."""
    try:
        return (op, q0, q1, value, _LEVEL[level], 0 if axis is None else _AXIS[axis], angle)
    except (KeyError, TypeError):  # TypeError: a name that is not even hashable
        raise ValueError(f"bad level {level!r}" if axis is None else f"bad rotation {axis!r}/{level!r}") from None


def _row(g: Gate) -> tuple:
    """The table row of one gate.  Its names and field types are checked here, the rest by :func:`_fault`."""
    if isinstance(g, Rotation):
        row = _named_row(ROT, g.qutrit, g.qutrit, 0, g.level, g.axis, g.theta)
    elif isinstance(g, LocalX):
        row = _named_row(LOCAL_X, g.qutrit, g.qutrit, 0, g.level, None, 0.0)
    elif isinstance(g, Gcx):
        row = _named_row(GCX, g.control, g.target, g.value, g.level, None, 0.0)
    elif isinstance(g, Cinc):
        row = (CINC, g.control, g.target, g.value, 0, 0, 0.0)
    elif isinstance(g, GlobalPhase):
        row = (PHASE, 0, 0, 0, 0, 0, g.phi)
    else:
        raise TypeError(f"not a gate: {g!r}")
    _check_ints(*row[1:4])  # a float or bool would serialize as q1.0 or q0=True, which parse refuses
    if not isinstance(row[6], numbers.Real):  # the table would read "1.5" as 1.5
        raise TypeError(f"angles must be real numbers, got {row[6]!r}")
    return row


def _columns(t: np.ndarray, names: tuple[str, ...] = GATE_DTYPE.names):
    """The rows of ``t`` as tuples of Python scalars, one per column name, converted _CHUNK rows at a time."""
    return itertools.chain.from_iterable(
        zip(*(t[name][start : start + _CHUNK].tolist() for name in names)) for start in range(0, len(t), _CHUNK)
    )


def _gates(rows) -> list[Gate]:
    """Gate objects of table rows, their fields set directly rather than through the constructors.

    The collector is paused meanwhile: the new gates hold no cycles, and
    each collection it would run walks every gate made so far (with it
    running, ``Circuit.gates`` of a 120k-gate circuit takes 1.6x as long).
    """
    enabled, out = gc.isenabled(), []
    gc.disable()
    try:
        for op, q0, q1, value, level, axis, angle in rows:
            out.append(g := object.__new__(_CLASSES[op]))
            f = vars(g)
            if op == ROT:
                f["axis"], f["level"], f["qutrit"], f["theta"] = AXES[axis], LEVELS[level], q0, angle
            elif op == LOCAL_X:
                f["level"], f["qutrit"] = LEVELS[level], q0
            elif op in (GCX, CINC):
                f["control"], f["value"], f["target"] = q0, value, q1
                if op == GCX:
                    f["level"] = LEVELS[level]
            else:
                f["phi"] = angle
    finally:
        if enabled:
            gc.enable()
    return out


def _fault(n: int, t: np.ndarray, rows) -> tuple[int, str] | None:
    """The first row of ``t`` that is not one gate on n qutrits, and the message of its first broken rule, or None.

    Each gate rule is one (mask of the rows that break it, message) pair;
    a message names the row's columns as fields.  Unused fields must be 0,
    so each gate has one row.  ``rows`` holds the rows as given (tuples, or
    ``t`` itself), so a field too wide for ``t`` is reported as it was.
    """
    op, q0, q1, value, level, axis, angle = (t[name] for name in GATE_DTYPE.names)
    two, rot, phase, same, finite = (op == GCX) | (op == CINC), op == ROT, op == PHASE, q0 == q1, np.isfinite(angle)
    canonical = (two | same & (value == 0)) & (rot | (axis == 0)) & (rot | phase | (angle == 0))
    canonical &= (~phase | (q0 == 0) & (level == 0)) & ((op != CINC) | (level == 0))
    rules = [
        ((op < 0) | (op > PHASE) | (level < 0) | (level > 2) | (axis < 0) | (axis > 2),
         "bad op, level or axis code in gate row {row}"),
        (two & same, "control and target must differ"),
        (two & ((value < 0) | (value > 2)), "control value must be 0, 1 or 2, got {value}"),
        (rot & ~finite, "rotation angle must be finite"),
        (phase & ~finite, "phase must be finite"),
        ((q0 < 0) | (q0 >= n), "gate row {row} touches qutrit {q0} outside width {n}"),
        ((q1 < 0) | (q1 >= n), "gate row {row} touches qutrit {q1} outside width {n}"),
        (~canonical, "gate row {row} is not in canonical form"),
    ]
    bad = functools.reduce(np.logical_or, (mask for mask, _ in rules))
    if not bad.any():
        return None
    i = int(bad.argmax())
    row = rows[i].item() if isinstance(rows, np.ndarray) else rows[i]
    message = next(message for mask, message in rules if mask[i])
    return i, message.format(n=n, row=row, **dict(zip(GATE_DTYPE.names, row)))


# The table's columns at full width: rows made from gates or text are checked at this
# width before they are narrowed, so no field can overflow on the way in.
_WIDE = np.dtype([(name, "i8") for name in GATE_DTYPE.names[:-1]] + [("angle", "f8")])
_MAX_QUTRITS = int(np.iinfo(GATE_DTYPE["q0"]).max)


def _wide(rows: list[tuple]) -> np.ndarray:
    """Rows as a full-width table; a field past int64, outside every range, is stored as -1 for the check to refuse."""
    try:
        return np.array(rows, _WIDE)
    except OverflowError:
        return np.array([(*(v if -(2**63) <= v < 2**63 else -1 for v in r[:-1]), r[-1]) for r in rows], _WIDE)


def _check_width(n) -> int:
    _check_ints(n)
    if not 1 <= n <= _MAX_QUTRITS:
        raise ValueError(f"circuit needs 1 to {_MAX_QUTRITS} qutrits (the gate table's range), got {n}")
    return n


@dataclass(frozen=True, eq=False)
class Circuit:
    """A width n and its gate table (module docstring), checked once.

    ``table`` is a 1-D array of :data:`GATE_DTYPE`, whose rows are copied as
    bytes (or converted, if its fields are laid out otherwise, as joined
    tables are), or a sequence of gate objects.  The stored table is read-only.
    """

    n: int
    table: np.ndarray

    def __post_init__(self):
        _check_width(self.n)
        t = rows = self.table
        if not isinstance(t, np.ndarray):
            t = _wide(rows := [_row(g) for g in t])
        elif t.ndim != 1 or not np.can_cast(t.dtype, GATE_DTYPE, "equiv"):  # its fields in any layout or byte order
            raise TypeError(f"a gate table is a 1-D array of GATE_DTYPE, got {t.dtype} {t.shape}")
        if fault := _fault(self.n, t, rows):
            raise ValueError(fault[1])
        # a copy, so no caller's array can change the checked table; other layouts, and
        # the full-width rows of gate objects, are converted (and narrowed) field by field
        t = t.view(_ROW).copy().view(GATE_DTYPE) if t.dtype == GATE_DTYPE else t.astype(GATE_DTYPE)
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The table's gates as objects, made on each access."""
        return tuple(_gates(_columns(self.table)))

    def __len__(self) -> int:
        return len(self.table)

    def __eq__(self, other) -> bool:
        return isinstance(other, Circuit) and self.n == other.n and np.array_equal(self.table, other.table)


def _adopt(n: int, t: np.ndarray, check: bool = True) -> Circuit:
    """The circuit of a GATE_DTYPE table made for it alone: checked unless its maker did, then kept uncopied."""
    if check and (fault := _fault(n, t, t)):
        raise ValueError(fault[1])
    t.flags.writeable = False
    c = object.__new__(Circuit)
    vars(c).update(n=n, table=t)
    return c


# Widest support a run may have; its matrix is 3^k x 3^k for k = min(n, RUN_QUTRITS).
RUN_QUTRITS = 3

_LOCAL_X = np.array([algebra.generator(algebra.GeneratorId[f"X{lv}"]) for lv in LEVELS])  # X01, X02, X12


@functools.cache
def _monomials(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each monomial gate on a width-qutrit run as a gather index and a phase sign per state.

    Both tables are indexed by a table row's fields ``[op, level, value,
    target, axis]``, the qutrits by their axes in the run (a one-qutrit gate
    has target = axis = its qutrit's, a GCX/CINC its control on ``axis``).
    Entry p of the index table gives ``m.take(p, axis=0)``, the gate applied
    to a run matrix m: the identity for a z rotation, the LocalX of its
    level, or the 3x3 permutation of a GCX's level (INC for a CINC) on
    ``target`` when the control reads ``value``.  Entry c of the sign table
    gives each state's phase under a z rotation by theta as c * theta / 2:
    -1 and 1 on the level's two trits, 0 on the third and for other gates.
    Entries no gate has hold the identity and 0.  Both are read-only, since
    every caller shares them.
    """
    idx, digits = np.arange(3**width).reshape((3,) * width), np.indices((3,) * width).reshape(width, -1)
    index = np.tile(idx.ravel().astype(np.int8), (4, 3, 3, width, width, 1))  # 3^width <= 27 states
    sign = np.zeros_like(index)
    # row i of each 3x3 generator has its single 1 in column src[g][i]
    src = [np.abs(algebra.generator(algebra.GeneratorId[g])).argmax(axis=1) for g in ("X01", "X02", "X12", "INC")]
    for lv, a in itertools.product(range(3), range(width)):
        index[LOCAL_X, lv, 0, a, a] = np.take(idx, src[lv], axis=a).ravel()
        sign[ROT, lv, 0, a, a] = np.select([digits[a] == int(LEVELS[lv][0]), digits[a] == int(LEVELS[lv][1])], [-1, 1])
    for g, target, control, value in itertools.product(range(4), range(width), range(width), range(3)):
        if target != control:
            fires = (np.arange(3) == value).reshape([3 if a == control else 1 for a in range(width)])
            index[CINC if g == 3 else GCX, g % 3, value, target, control] = np.where(
                fires, np.take(idx, src[g], axis=target), idx).ravel()
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def _doubling(first: np.ndarray, rows: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The rounds that fold each group of consecutive rows into its first row, pairwise.

    Group g is rows ``first[g]`` up to the next group's first row (the last
    up to ``rows``).  Round h is a pair (left, right = left + h) of index
    arrays: the rows at an offset in their group divisible by 2h that have
    h more rows of it after them.  Folding each right row into its left row,
    round by round, leaves each group's first row holding all of the group.
    """
    if not rows:
        return []
    count = np.empty_like(first)
    count[:-1], count[-1] = first[1:] - first[:-1], rows - first[-1]
    pos = np.arange(rows) - np.repeat(first, count)  # offset in its group
    rest = np.repeat(count, count) - pos  # rows from it to its group's end
    rounds, h = [], 1
    while len(left := ((pos & (2 * h - 1) == 0) & (rest > h)).nonzero()[0]):
        rounds.append((left, left + h))
        h *= 2
    return rounds


def _stretch_products(op, level, axis, angle, first: np.ndarray) -> np.ndarray:
    """The 3x3 product of each stretch of one-qutrit rows (stretch g from row ``first[g]``), later rows on the left.

    The rows' matrices, and the products returned, are laid out as (3, 3, rows),
    so that each pairwise round (:func:`_doubling`) multiplies all its pairs in one ``einsum``.
    """
    mats = algebra.rotations_by_code(3 * axis + level, angle)
    x = op == LOCAL_X
    mats[x] = _LOCAL_X[level[x]]
    mats = np.ascontiguousarray(mats.transpose(1, 2, 0))  # entry (i, j) of every factor in a row of its own
    for left, right in _doubling(first, len(op)):  # row E then row L: L @ E
        mats[..., left] = np.einsum("ijs,jks->iks", mats.take(right, axis=2), mats.take(left, axis=2))
    return mats.take(first, axis=2)


def _regions(index: np.ndarray, alpha: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each region of monomial rows (region g from row ``first[g]``) as one gather index and one phase per state.

    Row r maps a run matrix m to ``exp(1j * alpha[r])[:, None] * m[index[r]]``,
    and row L after row E composes to (p_E[p_L], a_L + a_E[p_L]), pairwise
    (:func:`_doubling`); each region's angles take one ``exp`` at the end.
    """
    for left, right in _doubling(first, len(index)):
        at = (left * index.shape[1])[:, None] + index[right]  # the flat positions of p_E[p_L]
        a = alpha.take(at)
        a += alpha[right]
        alpha[left] = a
        index[left] = index.take(at)
    return index[first], np.exp(1j * alpha[first])[:, :, None]


def _apply_run(u: np.ndarray, m: np.ndarray, axes: list[int]) -> np.ndarray:
    """The run matrix ``m``, its local qutrit i on axis ``axes[i]``, applied on the left of ``u``."""
    k = len(axes)
    return np.moveaxis(np.tensordot(m.reshape((3,) * (2 * k)), u, axes=(range(k, 2 * k), axes)), range(k), axes)


@functools.cache
def _orders(width: int) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row order of a width-qutrit run state: its rows row-major over a permutation of its axes.

    Order 0 is the natural one.  Row i of order o is natural row ``nat[o, i]``, natural row r is row ``pos[o, r]``,
    ``canon[mask]`` leads with the axes in the bit mask (each part ascending), and ``rank[o, a]`` is axis a's place.
    """
    perms = list(itertools.permutations(range(width)))
    nat = np.array([np.arange(3**width).reshape((3,) * width).transpose(p).ravel() for p in perms])
    rank = [tuple(p.index(a) for a in range(width)) for p in perms]  # each order's inverse, so pos[o] = nat[rank[o]]
    canon = [perms.index(tuple(sorted(range(width), key=lambda a: (not mask >> a & 1, a)))) for mask in range(2**width)]
    tables = nat, nat[[perms.index(r) for r in rank]], np.array(canon), np.array(rank)
    for table in tables:
        table.flags.writeable = False
    return perms, *tables


def eval_circuit(c: Circuit, operand: np.ndarray | None = None) -> np.ndarray:
    """The circuit applied to ``operand``, a (3^n, w) block; by default the identity, which gives the exact unitary.

    An operand of another shape raises ``ValueError``; the operand is only
    read.  Later gates multiply on the left.  Global phases are summed apart
    (:func:`_sum_angles`).  The rest is simulated in steps: a stretch, a
    maximal sequence of one-qutrit gates on one qutrit with no GCX/CINC
    between them, or a GCX/CINC.  The table is walked :data:`_CHUNK` rows at
    a time, and the steps are applied in order to a run, a 3^k x 3^k matrix
    on at most k = min(n, :data:`RUN_QUTRITS`) qutrits.  When a step would
    take the run past k qutrits, the run is applied to the block with one
    ``tensordot`` (:func:`_apply_run`) and a new one starts; nothing of it
    is kept.  A run's axes are its qutrits in first-touch order, padded
    with the lowest untouched ones, and a run carries over from one chunk
    to the next.  When n <= k the register is the one run, qutrit q on axis
    q, and the block its state, so no Python pass over the steps looks for cuts.

    A group (consecutive stretches with x or y rotations on distinct axes of
    a run) is one 2-D matmul by the Kronecker product of their 3x3 products
    (:func:`_stretch_products`), its axes leading the state's rows; a region
    (a maximal sequence of the other steps) is one gather and one phase per
    row (:func:`_monomials`, :func:`_regions`).  The rows stand in a row
    order (:func:`_orders`) that each region's gather also moves into the
    one the next group needs, or the natural one in which a run is applied
    and returned; only a group after no region whose axes do not lead, and
    the end of a run after a group, take a gather of their own.
    """
    n, d, t = c.n, 3**c.n, c.table
    u = np.eye(d, dtype=complex) if operand is None else np.asarray(operand, dtype=complex)
    if u.ndim != 2 or u.shape[0] != d or not u.shape[1]:
        raise ValueError(f"operand of shape {u.shape} is not a ({d}, w) block, w >= 1")
    k = min(n, RUN_QUTRITS)
    index, sign = _monomials(k)
    perms, nat, pos, canon, rank = _orders(k)
    m = eye = u if n == k else np.eye(3**k, dtype=complex)  # if n == k the register is the one run, the block its state
    local, o = {}, 0  # the run's qutrits so far, in first-touch order, to their axes in it; the state's row order
    u = u.reshape((3,) * n + (-1,))

    def padded(run: dict) -> list[int]:  # a run's qutrits, then the lowest untouched ones
        return [*run, *[q for q in range(n) if q not in run][: k - len(run)]]

    for s in range(0, len(t), _CHUNK):
        rows = t[s : s + _CHUNK]
        rows = rows.view(_ROW)[rows["op"] != PHASE].view(GATE_DTYPE)  # phases are summed apart
        if not len(rows):
            continue
        op, q0, q1, level, axis, angle = (rows[name] for name in ("op", "q0", "q1", "level", "axis", "angle"))
        two = op >= GCX
        first = np.ones(len(rows), dtype=bool)  # a step starts at a GCX/CINC, past one, or at a new qutrit
        first[1:] = two[1:] | two[:-1] | (q0[1:] != q0[:-1])
        st = first.nonzero()[0]
        step = np.cumsum(first) - 1  # per row, its step
        general = np.logical_or.reduceat((op == ROT) & (axis != 2), st)
        cut = np.zeros(len(st), dtype=bool)  # the steps that cut a run
        ja, jb = q0, q1  # per row, the axes of its qutrit (or control) and target
        if n > k:
            runs = [local]  # the runs the steps fall in
            for i, (a, b) in enumerate(zip(q0[st].tolist(), q1[st].tolist())):
                if a not in local or b not in local:  # only a step that brings in a qutrit can cut
                    if len(local) + (a not in local) + (b != a and b not in local) > k:
                        runs.append(local := {})
                        cut[i] = True
                    local.setdefault(a, len(local))
                    local.setdefault(b, len(local))
            axis_of = np.zeros((len(runs), n), dtype=np.intp)  # per run, each qutrit's axis in it
            for r, run in enumerate(runs):
                axis_of[r, list(run)] = range(len(run))
            in_run = np.cumsum(cut)[step]  # per row, its run's place in runs
            ja, jb, done = axis_of[in_run, q0], axis_of[in_run, q1], iter(runs)
        item = cut | np.concatenate(([True], general[1:] != general[:-1]))  # steps that start a region or a group
        gax, gnew = ja[st[general]], item[general]  # per general stretch, its axis and whether it starts a group
        for i in (~gnew & ~np.concatenate(([True], gnew[:-1]))).nonzero()[0].tolist():  # a third stretch or later
            gnew[i] = gax[i] in gax[i - 1 - gnew[i - 1 :: -1].argmax() : i]  # repeats an axis of its group
        item[general] = gnew
        it = item.nonzero()[0]  # per item, its first step
        group, icut, sizes = general[it], cut[it], np.add.reduceat(general, it, dtype=np.intp)
        mask = np.bitwise_or.reduceat(1 << ja[st], it)  # per item, its axes as bits (a group's)
        leaves = canon[mask] * group  # per item, the row order it leaves: a group's leads with its axes
        for j in (group & np.concatenate(([True], icut[1:] | group[:-1]))).nonzero()[0].tolist():
            was = 0 if icut[j] else leaves[j - 1] if j else o  # after no region, kept where its axes lead
            leaves[j] = was if sum(1 << a for a in perms[was][: sizes[j]]) == mask[j] else leaves[j]
        leaves[~group] = np.concatenate((leaves[1:] * ~icut[1:], [0]))[~group]  # a region's: the next group's, or 0
        meets = np.concatenate(([o], leaves[:-1]))[~group] * ~icut[~group]  # per region, the order it meets
        in_general = general[step]
        mono = (~in_general).nonzero()[0]  # the rows of regions
        fields = (op[mono], level[mono], rows["value"][mono], jb[mono], ja[mono])
        half = 0.5 * angle[mono]  # reduced to (-pi, pi] by its sine and cosine first, so no sum overflows
        sigmas, phases = _regions(index[fields], sign[fields] * np.arctan2(np.sin(half), np.cos(half))[:, None],
                                  np.searchsorted(mono, st[item & ~general]))
        to = nat[leaves[~group]] + np.arange(0, sigmas.size, sigmas.shape[1])[:, None]  # rows of the order it leaves
        sigmas = iter(pos.take(sigmas.take(to) + meets[:, None] * sigmas.shape[1]))
        phases = iter(phases.take(to)[:, :, None])
        rot = in_general.nonzero()[0]  # the rows of general stretches
        prods = _stretch_products(op[rot], level[rot], axis[rot], angle[rot], np.searchsorted(rot, st[general]))
        gfirst, size, order, krons = gnew.nonzero()[0], sizes[group], leaves[group], {}  # per group
        slot = np.empty_like(gfirst, shape=len(gax))  # the general stretches by group, each in its order's axis order
        slot[np.repeat(gfirst, size) + rank[np.repeat(order, size), gax]] = np.arange(len(gax))
        for g in set(size.tolist()):  # the Kronecker products of the groups of g stretches, leading axis first
            kron, *factors = (prods.take(slot[gfirst[size == g] + p], axis=2) for p in range(g))
            for b in factors:
                kron = (kron[:, None, :, None] * b[:, None]).reshape(3 * len(kron), 3 * len(kron), -1)
            krons[g] = iter(np.ascontiguousarray(kron.transpose(2, 0, 1)))
        for g, cuts, want in zip(sizes.tolist(), icut.tolist(), leaves.tolist()):
            if cuts:
                u, m, o = _apply_run(u, m.take(pos[o], axis=0) if o else m, padded(next(done))), eye, 0
            if g:
                kron, m = next(krons[g]), m if want == o else m.take(pos[o][nat[want]], axis=0)
                m = (kron @ m.reshape(len(kron), -1)).reshape(m.shape)
            else:
                m = next(phases) * m.take(next(sigmas), axis=0)
            o = want
    m = m.take(pos[o], axis=0) if o else m
    if n > k:
        m = np.ascontiguousarray(_apply_run(u, m, padded(local))).reshape(d, -1)
    phase = _sum_angles(t["angle"][t["op"] == PHASE])
    return np.exp(1j * phase) * m


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
    return CountReport(*np.bincount(c.table["op"], minlength=len(_CLASSES)).tolist())


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------


class CircuitParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def serialize(c: Circuit) -> str:
    lines = [f"QUTRITS {c.n}"]
    for op, q0, q1, value, level, axis, angle in _columns(c.table):
        if op == ROT:
            lines.append(f"R {AXES[axis]} {LEVELS[level]} q{q0} {angle:.17g}")
        elif op == LOCAL_X:
            lines.append(f"X {LEVELS[level]} q{q0}")
        elif op == GCX:
            lines.append(f"GCX q{q0}={value} q{q1} {LEVELS[level]}")
        elif op == CINC:
            lines.append(f"CINC q{q0}={value} q{q1}")
        else:
            lines.append(f"PHASE {angle:.17g}")
    return "\n".join(lines) + "\n"


def _parse_qutrit(tok: str, line_no: int) -> int:
    digits = tok[1:]
    if tok[:1] != "q" or not (digits.isascii() and digits.isdigit()):  # isdigit alone takes other scripts' digits
        raise CircuitParseError(line_no, f"expected qutrit like 'q0', got {tok!r}")
    return int(digits)


def _parse_control(tok: str, line_no: int) -> tuple[int, int]:
    head, sep, val = tok.partition("=")
    if not sep or not (val.isascii() and val.isdigit()):
        raise CircuitParseError(line_no, f"expected control like 'q0=1', got {tok!r}")
    return _parse_qutrit(head, line_no), int(val)


def _parse_float(tok: str, line_no: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise CircuitParseError(line_no, f"bad number {tok!r}") from None


# Tokens after the kind on each gate line, and what a line of each kind must hold, said when it does not.
_ARITY = {"R": 4, "X": 2, "GCX": 3, "CINC": 2, "PHASE": 1}
_SYNTAX = {
    "QUTRITS": "duplicate QUTRITS header",
    "R": "R needs: axis level qutrit angle",
    "X": "X needs: level qutrit",
    "GCX": "GCX needs: control=value target level",
    "CINC": "CINC needs: control=value target",
    "PHASE": "PHASE needs one angle",
}


def _parse_row(toks: list[str], line_no: int) -> tuple:
    """The table row of a gate line.  Its tokens and names are checked here, its fields with the table's."""
    kind, args = toks[0].upper(), toks[1:]
    if len(args) != _ARITY.get(kind):
        raise CircuitParseError(line_no, _SYNTAX.get(kind, f"unknown gate {toks[0]!r}"))
    if kind == "R":
        q, th = _parse_qutrit(args[2], line_no), _parse_float(args[3], line_no)
        return _named_row(ROT, q, q, 0, args[1], args[0].lower(), th)
    if kind == "X":
        q = _parse_qutrit(args[1], line_no)
        return _named_row(LOCAL_X, q, q, 0, args[0], None, 0.0)
    if kind == "PHASE":
        return (PHASE, 0, 0, 0, 0, 0, _parse_float(args[0], line_no))
    ctl, val = _parse_control(args[0], line_no)
    tgt = _parse_qutrit(args[1], line_no)
    if kind == "CINC":
        return (CINC, ctl, tgt, val, 0, 0, 0.0)
    return _named_row(GCX, ctl, tgt, val, args[2], None, 0.0)


def parse(text: str) -> Circuit:
    """The circuit of a text file, one table row per gate line.

    The first faulty line raises :class:`CircuitParseError`, with the message of the gate rule its fields break.
    """
    n, rows, line_nos = None, [], []

    def checked() -> np.ndarray:  # the rows read so far, in full-width columns
        t = _wide(rows)
        fault = _fault(n, t, rows)
        if fault:
            raise CircuitParseError(line_nos[fault[0]], fault[1])
        return t

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.partition("#")[0].split()
        if not toks:
            continue
        try:
            if n is not None:
                rows.append(_parse_row(toks, line_no))
                line_nos.append(line_no)
            elif toks[0].upper() != "QUTRITS":
                raise CircuitParseError(line_no, "file must start with 'QUTRITS <n>'")
            elif len(toks) != 2 or not (toks[1].isascii() and toks[1].isdigit()) or int(toks[1]) < 1:
                raise CircuitParseError(line_no, "QUTRITS needs a positive integer")
            else:
                n = _check_width(int(toks[1]))
        except ValueError as exc:
            if n is not None:
                checked()  # an earlier line with bad fields is the first faulty one
            if isinstance(exc, CircuitParseError):
                raise
            raise CircuitParseError(line_no, str(exc)) from None
    if n is None:
        raise CircuitParseError(0, "empty circuit file (missing QUTRITS header)")
    return _adopt(n, checked().astype(GATE_DTYPE), check=False)
