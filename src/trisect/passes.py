"""Rewrite passes over gate tables.

:func:`pass_cancel` is one sweep in which each gate looks back for a
partner to cancel or merge with, past the gates it commutes with;
:func:`pass_fuse_cinc` then fuses GCX pairs into CINCs.  Both preserve
the circuit matrix exactly (up to floating-point rounding in merged
rotation angles) and are deterministic.  The commutation test is
structural -- a small set of sufficient rules -- never numerical, so a
gate only moves past gates it provably commutes with.  :func:`commutes`
reads two table rows as tuples; no pass builds a gate object.  Synthesis emits each
factor at its closed-form size; there the sweep merges rotations across
factor and leaf boundaries, folds the phases into one and, on structured
inputs, drops zero-angle rotations and the GCX pairs they leave adjacent.

Neither the commutation rules nor the merge rules read an angle.  The
sweep therefore decides both on integer *shape codes* (every column of
the gate table but the angle), computed for the whole table in one array
operation: each commutation answer is worked out once per ordered pair
of codes and looked up after that, and a merge is tried only between
gates of equal code, the one case in which a rule can apply.

Angles only decide which rotation merges vanish, so the sweep records its
merges under the table's :func:`_skeleton_key` (its width and a digest of
every column but the angle), and a later table of that skeleton (every
Haar input of one width) replays the same :func:`_merged_angle` calls, to
the bit, with no shape codes.  If a merge vanishes unlike its record, it
sweeps.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from bisect import bisect_left
from collections.abc import Iterator

import numpy as np

from .algebra import AXES, LEVELS
from .circuit import _ROW, CINC, GATE_DTYPE, GCX, LOCAL_X, PHASE, ROT, Circuit, _add_angles, _adopt, _columns
from .circuit import _sum_angles

__all__ = [
    "commutes",
    "pass_cancel",
    "pass_fuse_cinc",
    "simplify",
]

# Angles below this are dropped after merging.
ANGLE_EPS = 1e-12
_X, _Z = AXES.index("x"), AXES.index("z")


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


def commutes(a: tuple, b: tuple) -> bool:
    """Sufficient structural test that two gate-table rows, as tuples, commute as matrices.

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
    if PHASE in (a[0], b[0]) or {a[1], a[2]}.isdisjoint((b[1], b[2])):
        return True
    # Controlled gate first, then LocalX; the rules below are symmetric.
    if b[0] in (GCX, CINC) or b[0] == LOCAL_X and a[0] == ROT:
        a, b = b, a
    op, control, target, value, level, axis, _ = a
    b_op, b_q0, b_q1, b_value, b_level, b_axis, _ = b
    if op in (GCX, CINC):
        if b_op == ROT:
            return b_axis == _Z and b_q0 == control
        if b_op == LOCAL_X:
            return op == GCX and (b_q0, b_level) == (target, level)
        if control == b_q0 and (value != b_value or target != b_q1):
            return True
        return op == b_op == GCX and (target, level) == (b_q1, b_level)
    if op == LOCAL_X:
        return level == b_level and (b_op == LOCAL_X or b_axis == _X)
    # two rotations on one qutrit
    return axis == b_axis and (axis == _Z or level == b_level)


# ---------------------------------------------------------------------------
# cancellation sweep
# ---------------------------------------------------------------------------


def _merged_angle(op: int, a: float, b: float) -> float | None:
    """Rewrite of two gates of equal shape brought adjacent: None for no rule, else the merged
    angle, 0.0 when the pair vanishes (involutions annihilate, rotations add and vanish below ``ANGLE_EPS``)."""
    if op == ROT:
        theta = _wrap(_add_angles(a, b), 4 * math.pi)
        return 0.0 if abs(theta) < ANGLE_EPS else theta
    return 0.0 if op in (LOCAL_X, GCX) else None


def _shape_codes(t: np.ndarray, n: int) -> np.ndarray:
    """One integer per row of a gate table on n qutrits for every column but the angle."""
    columns = tuple(t[name] for name in GATE_DTYPE.names[:-1])
    return np.ravel_multi_index(columns, (PHASE + 1, n, n, 3, 3, len(AXES)))


# commutes() answer per width and ordered pair of shape codes, filled the first time a pair is met
_COMMUTES: dict[int, dict[int, bool]] = {}
_PLANS: dict[tuple[int, bytes], np.ndarray] = {}  # _sweep's plan per skeleton key of the swept table
_PLANS_MAX = 16  # plans kept; the oldest goes first


def _skeleton_key(n: int, t: np.ndarray) -> tuple[int, bytes]:
    """``n`` and a digest of the first 8 bytes of each row of the contiguous table ``t``: every column but the angle."""
    return n, hashlib.blake2b(np.ascontiguousarray(t.view(np.int64)[::2])).digest()


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


def _sweep(t: np.ndarray, n: int) -> np.ndarray:
    """The walk of :func:`pass_cancel` over a table without phases or zero rotations.

    Merges rotation angles into ``t`` in place and returns the plan, one
    ``(k, i, vanished)`` row per merge of row i into k.  Shape codes, ops and
    angles are read through memoryviews, which keep no Python object per
    row, and the frontier lists are freed on return.
    """
    codes, ops, angles = memoryview(_shape_codes(t, n)), memoryview(t["op"]), memoryview(t["angle"])
    merges = array("q")  # k, i, vanished per merge: 24 bytes, no Python object
    frontier: list[list[int]] = [[] for _ in range(n)]
    known, size = _COMMUTES.setdefault(n, {}), (PHASE + 1) * n * n * 3 * 3 * len(AXES)
    for i, (s, (a, b)) in enumerate(zip(codes, _columns(t, ("q0", "q1")))):
        if a == b:
            fronts = (frontier[a],)
            walk = reversed(fronts[0])
        else:
            fronts = (frontier[a], frontier[b])
            walk = _latest_first(*fronts)
        merged = None
        for k in walk:
            if codes[k] == s:
                merged = _merged_angle(ops[i], angles[k], angles[i])
                if merged is not None:
                    break
            key = codes[k] * size + s
            ok = known.get(key)
            if ok is None:
                ok = known[key] = commutes(t[k].item(), t[i].item())
            if not ok:
                break
        if merged is None:
            for lst in fronts:
                lst.append(i)
            continue
        merges.extend((k, i, not merged))
        if merged:
            angles[k] = merged
        else:
            for lst in fronts:
                del lst[bisect_left(lst, k)]
    return np.frombuffer(merges, dtype=np.int64).reshape(-1, 3)


def _replay(t: np.ndarray, plan: np.ndarray) -> bool:
    """Redo the merges of ``plan`` on ``t`` in place; False, with ``t`` as it was, if one vanishes unlike its record."""
    ops, angles, saved = memoryview(t["op"]), memoryview(t["angle"]), t["angle"][plan[:, 0]]
    for k, i, vanished in plan.tolist():
        merged = _merged_angle(ops[i], angles[k], angles[i])
        if (not merged) != vanished:
            t["angle"][plan[:, 0]] = saved
            return False
        if merged:
            angles[k] = merged
    return True


def pass_cancel(c: Circuit) -> Circuit:
    """One sweep that cancels and merges gates across commuting neighbours.

    Each gate walks back over the earlier live gates on its own qutrits
    (per qutrit, the frontier) while :func:`commutes`, looked up per pair
    of shape codes, lets it pass, and merges into the first one that
    :func:`_merged_angle` rewrites; a gate with no partner is kept.  Global
    phases are summed into one leading phase, and zero rotations dropped.
    A table of a skeleton swept before replays that sweep's plan (module docstring).
    """
    op, angle = c.table["op"], c.table["angle"]
    t = c.table.view(_ROW)[(op != PHASE) & ~((op == ROT) & (np.abs(angle) < ANGLE_EPS))].view(GATE_DTYPE)
    key = _skeleton_key(c.n, t)
    if (plan := _PLANS.get(key)) is None or not _replay(t, plan):
        if key not in _PLANS and len(_PLANS) >= _PLANS_MAX:
            _PLANS.pop(next(iter(_PLANS)), None)  # None: another thread may have dropped it
        plan = _PLANS[key] = _sweep(t, c.n)
    keep = np.ones(len(t), dtype=bool)
    keep[np.concatenate((plan[:, 1], plan[plan[:, 2] == 1, 0]))] = False
    phi = _wrap(_sum_angles(angle[op == PHASE]), 2 * math.pi)  # in order: sum() compensates from 3.12 on
    lead = int(abs(phi) >= ANGLE_EPS)
    out = np.zeros(lead + np.count_nonzero(keep), GATE_DTYPE)
    out[:lead] = (PHASE, 0, 0, 0, 0, 0, phi)
    np.compress(keep, t.view(_ROW), out=out[lead:].view(_ROW))
    return _adopt(c.n, out)


# ---------------------------------------------------------------------------
# targeted rewrites
# ---------------------------------------------------------------------------


def pass_fuse_cinc(c: Circuit) -> Circuit:
    """Fuse each adjacent [GCX(m->X01), GCX(m->X02)] pair (same control,
    value and target, applied in that order) into a single CINC.  Pairs,
    found by comparing each row with the next, never overlap."""
    t = c.table
    a, b = t[:-1], t[1:]
    first = np.flatnonzero(
        (a["op"] == GCX) & (a["level"] == LEVELS.index("01")) & (b["op"] == GCX) & (b["level"] == LEVELS.index("02"))
        & (a["q0"] == b["q0"]) & (a["value"] == b["value"]) & (a["q1"] == b["q1"])
    )
    out = np.delete(t.view(_ROW), first + 1).view(GATE_DTYPE)
    fused = first - np.arange(len(first))  # the first gates' rows once the second ones are gone
    out["op"][fused] = CINC
    out["level"][fused] = 0
    return _adopt(c.n, out)


def simplify(c: Circuit, use_cinc: bool = False) -> Circuit:
    """Default pipeline: the :func:`pass_cancel` sweep, then optionally
    :func:`pass_fuse_cinc`."""
    c = pass_cancel(c)
    return pass_fuse_cinc(c) if use_cinc else c
