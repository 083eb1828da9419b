"""Rewrite passes over gate lists.

:func:`pass_cancel` is one sweep in which each gate looks back for a
partner to cancel or merge with, past the gates it commutes with;
:func:`pass_fuse_cinc` then fuses GCX pairs into CINCs.  Both preserve
the circuit matrix exactly (up to floating-point rounding in merged
rotation angles) and are deterministic.  The commutation test is
structural -- a small set of sufficient rules -- never numerical, so a
gate only moves past gates it provably commutes with.  Synthesis emits each
factor at its closed-form size; there the sweep merges rotations across
factor and leaf boundaries, folds the phases into one and, on structured
inputs, drops zero-angle rotations and the GCX pairs they leave adjacent.

Neither the commutation rules nor the merge rules read an angle.  The
sweep therefore decides both on gate *shapes* (every field but the
angle): each commutation answer is worked out once per ordered pair of
shapes and looked up after that, and a merge is tried only between
gates of equal shape, the one case in which a rule can apply.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator

from .circuit import Circuit, Cinc, Gate, Gcx, GlobalPhase, LocalX, Rotation, _gate_qutrits

__all__ = [
    "commutes",
    "pass_cancel",
    "pass_fuse_cinc",
    "simplify",
]

# Angles below this are dropped after merging.
ANGLE_EPS = 1e-12


def _wrap(theta: float, period: float) -> float:
    """Wrap into (-period/2, period/2]."""
    t = math.fmod(theta, period)
    if t > period / 2:
        t -= period
    elif t <= -period / 2:
        t += period
    return t


# ---------------------------------------------------------------------------
# structural commutation rules
# ---------------------------------------------------------------------------


def commutes(a: Gate, b: Gate) -> bool:
    """Sufficient structural test that a and b commute as matrices.

    Rules (conservative -- may return False for commuting pairs):
      * a global phase commutes with everything;
      * disjoint supports commute;
      * controlled gates sharing the control qutrit commute if they
        trigger on different values (disjoint blocks) or act on
        different targets (both diagonal in the control);
      * two GCX with the same target and level commute (their X blocks
        coincide); a LocalX on that target at the same level commutes too;
      * z-rotations are diagonal: they commute with each other on any
        levels and with any controlled gate through its control qutrit;
      * same-axis same-level rotations on one qutrit commute; LocalX
        commutes with an x-rotation or a LocalX at its own level.
    """
    if isinstance(a, GlobalPhase) or isinstance(b, GlobalPhase):
        return True
    if set(_gate_qutrits(a)).isdisjoint(_gate_qutrits(b)):
        return True
    # Controlled gate first, then LocalX; the rules below are symmetric.
    if isinstance(b, (Gcx, Cinc)) or isinstance(b, LocalX) and isinstance(a, Rotation):
        a, b = b, a
    if isinstance(a, (Gcx, Cinc)):
        if isinstance(b, Rotation):
            return b.axis == "z" and b.qutrit == a.control
        if isinstance(b, LocalX):
            return isinstance(a, Gcx) and (b.qutrit, b.level) == (a.target, a.level)
        if a.control == b.control and (a.value != b.value or a.target != b.target):
            return True
        return isinstance(a, Gcx) and isinstance(b, Gcx) and (a.target, a.level) == (b.target, b.level)
    if isinstance(a, LocalX):
        return a.level == b.level and (isinstance(b, LocalX) or b.axis == "x")
    # two rotations on one qutrit
    return a.axis == b.axis and (a.axis == "z" or a.level == b.level)


# ---------------------------------------------------------------------------
# cancellation sweep
# ---------------------------------------------------------------------------


def _merge_pair(a: Gate, b: Gate) -> list[Gate] | None:
    """Rewrite for the pair [a, b] brought adjacent; None means 'no rule applies'.

    Every rule needs ``_shape(a) == _shape(b)``, which :func:`pass_cancel` checks first.
    """
    if isinstance(a, (Gcx, LocalX)) and a == b:
        return []
    if isinstance(a, Rotation) and isinstance(b, Rotation):
        if (a.axis, a.level, a.qutrit) == (b.axis, b.level, b.qutrit):
            theta = _wrap(a.theta + b.theta, 4 * math.pi)
            return [] if abs(theta) < ANGLE_EPS else [Rotation(a.axis, a.level, a.qutrit, theta)]
    return None


def _shape(g: Gate) -> tuple:
    """Every field of g but its angle: all that :func:`commutes` and :func:`_merge_pair` read."""
    if isinstance(g, Rotation):
        return (g.axis, g.level, g.qutrit)
    if isinstance(g, LocalX):
        return ("X", g.level, g.qutrit)
    if isinstance(g, Gcx):
        return ("GCX", g.control, g.value, g.target, g.level)
    if isinstance(g, Cinc):
        return ("CINC", g.control, g.value, g.target)
    if isinstance(g, GlobalPhase):
        return ("PHASE",)
    raise TypeError(f"not a gate: {g!r}")


# commutes() answer per ordered pair of shapes, filled the first time a pair is seen
_COMMUTES: dict[tuple[tuple, tuple], bool] = {}


def _latest_first(a: list[int], b: list[int]) -> Iterator[int]:
    """Merge ascending index lists, latest first, shared indices once."""
    i, j = len(a) - 1, len(b) - 1
    while i >= 0 or j >= 0:
        x = a[i] if i >= 0 else -1
        y = b[j] if j >= 0 else -1
        if x >= y:
            i -= 1
        if y >= x:
            j -= 1
        yield max(x, y)


def pass_cancel(c: Circuit) -> Circuit:
    """One sweep that cancels and merges gates across commuting neighbours.

    Each gate walks back over the earlier gates on its own qutrits while
    :func:`commutes` lets it pass, and merges into the first one that
    :func:`_merge_pair` accepts: involution pairs annihilate, rotations
    add their angles and vanish below ``ANGLE_EPS``.  A gate with no
    partner is appended.  A per-qutrit list of live gate indices (the
    frontier) keeps the walk off gates on other qutrits, which commute
    by support.  Global phases are summed into one leading phase.

    Each gate's :func:`_shape` is computed once.  :func:`commutes` is
    answered from a table keyed by the ordered pair of shapes, filled by
    calling it the first time a pair is met, and :func:`_merge_pair` is
    called only when the two shapes are equal, since it rewrites no
    other pair.
    """
    phi = 0.0
    out: list[Gate | None] = []
    shapes: list[tuple] = []
    frontier: list[list[int]] = [[] for _ in range(c.n)]
    for g in c.gates:
        if isinstance(g, GlobalPhase):
            phi += g.phi
            continue
        if isinstance(g, Rotation) and abs(g.theta) < ANGLE_EPS:
            continue
        s = _shape(g)
        if isinstance(g, (Rotation, LocalX)):
            fronts = (frontier[g.qutrit],)
            walk = reversed(fronts[0])
        else:
            fronts = (frontier[g.control], frontier[g.target])
            walk = _latest_first(*fronts)
        merged = None
        for k in walk:
            if shapes[k] == s:
                merged = _merge_pair(out[k], g)
                if merged is not None:
                    break
            pair = (shapes[k], s)
            ok = _COMMUTES.get(pair)
            if ok is None:
                ok = _COMMUTES[pair] = commutes(out[k], g)
            if not ok:
                break
        if merged is None:
            for lst in fronts:
                lst.append(len(out))
            out.append(g)
            shapes.append(s)
        elif merged:
            out[k] = merged[0]
        else:
            out[k] = None
            for lst in fronts:
                del lst[bisect_left(lst, k)]
    phi = _wrap(phi, 2 * math.pi)
    lead = [GlobalPhase(phi)] if abs(phi) >= ANGLE_EPS else []
    return Circuit(c.n, tuple(lead + [g for g in out if g is not None]))


# ---------------------------------------------------------------------------
# targeted rewrites
# ---------------------------------------------------------------------------


def pass_fuse_cinc(c: Circuit) -> Circuit:
    """Fuse an adjacent [GCX(m->X01), GCX(m->X02)] pair (same control,
    value and target, applied in that order) into a single CINC."""
    out: list[Gate] = []
    for g in c.gates:
        if isinstance(g, Gcx) and g.level == "02" and out and type(prev := out[-1]) is Gcx and prev.level == "01":
            if (prev.control, prev.value, prev.target) == (g.control, g.value, g.target):
                out[-1] = Cinc(g.control, g.value, g.target)
                continue
        out.append(g)
    return Circuit(c.n, tuple(out))


def simplify(c: Circuit, use_cinc: bool = False) -> Circuit:
    """Default pipeline: the :func:`pass_cancel` sweep, then optionally
    :func:`pass_fuse_cinc`."""
    c = pass_cancel(c)
    return pass_fuse_cinc(c) if use_cinc else c
