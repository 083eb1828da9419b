"""Peephole rewrite passes over gate lists.

All passes preserve the circuit matrix exactly (up to floating-point
rounding in merged rotation angles) and are deterministic.  The
commutation test is structural -- a small set of sufficient rules --
never numerical, so a pass can only reorder gates it can prove safe.
"""

from __future__ import annotations

import math

from .circuit import Circuit, Cinc, Gate, Gcx, GlobalPhase, LocalX, Rotation

__all__ = [
    "commutes",
    "pass_cancel",
    "pass_commute_reorder",
    "pass_fuse_cinc",
    "simplify",
]

# Angles below this are dropped after merging.
ANGLE_EPS = 1e-12

DEFAULT_WINDOW = 8


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


def _support(g: Gate) -> frozenset[int]:
    if isinstance(g, (Rotation, LocalX)):
        return frozenset((g.qutrit,))
    if isinstance(g, (Gcx, Cinc)):
        return frozenset((g.control, g.target))
    return frozenset()


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
        commutes with an x-rotation at its own level.
    """
    if isinstance(a, GlobalPhase) or isinstance(b, GlobalPhase):
        return True
    if not (_support(a) & _support(b)):
        return True

    if isinstance(a, (Gcx, Cinc)) and isinstance(b, (Gcx, Cinc)):
        if a.control == b.control:
            if a.value != b.value or a.target != b.target:
                # different blocks, or diagonal-in-control with separate targets
                if b.target != a.control and a.target != b.control:
                    return True
        if (
            isinstance(a, Gcx)
            and isinstance(b, Gcx)
            and a.target == b.target
            and a.level == b.level
            and a.control != b.target
            and b.control != a.target
        ):
            return True
        return False

    # rotation / controlled-gate pairs
    for rot, ctl in ((a, b), (b, a)):
        if isinstance(rot, Rotation) and isinstance(ctl, (Gcx, Cinc)):
            return rot.axis == "z" and rot.qutrit == ctl.control

    for loc, ctl in ((a, b), (b, a)):
        if isinstance(loc, LocalX) and isinstance(ctl, Gcx):
            return loc.qutrit == ctl.target and loc.level == ctl.level and ctl.control != loc.qutrit

    if isinstance(a, Rotation) and isinstance(b, Rotation):
        # same qutrit here (disjoint handled above)
        if a.axis == "z" and b.axis == "z":
            return True
        return a.axis == b.axis and a.level == b.level

    for loc, rot in ((a, b), (b, a)):
        if isinstance(loc, LocalX) and isinstance(rot, Rotation):
            return rot.axis == "x" and rot.level == loc.level

    if isinstance(a, LocalX) and isinstance(b, LocalX):
        return a.level == b.level

    return False


# ---------------------------------------------------------------------------
# adjacent cancellation / merging
# ---------------------------------------------------------------------------


def _merge_pair(a: Gate, b: Gate) -> list[Gate] | None:
    """Rewrite for the adjacent pair [a, b]; None means 'no rule applies'."""
    if isinstance(a, Gcx) and a == b:
        return []
    if isinstance(a, LocalX) and a == b:
        return []
    if isinstance(a, Rotation) and isinstance(b, Rotation):
        if (a.axis, a.level, a.qutrit) == (b.axis, b.level, b.qutrit):
            theta = _wrap(a.theta + b.theta, 4 * math.pi)
            return [] if abs(theta) < ANGLE_EPS else [Rotation(a.axis, a.level, a.qutrit, theta)]
    if isinstance(a, GlobalPhase) and isinstance(b, GlobalPhase):
        phi = _wrap(a.phi + b.phi, 2 * math.pi)
        return [] if abs(phi) < ANGLE_EPS else [GlobalPhase(phi)]
    return None


def pass_cancel(c: Circuit) -> Circuit:
    """Adjacent-pair cleanup: involution pairs annihilate, rotations and
    phases merge by angle addition, negligible angles are dropped."""
    out: list[Gate] = []
    for g in c.gates:
        if isinstance(g, Rotation) and abs(g.theta) < ANGLE_EPS:
            continue
        if isinstance(g, GlobalPhase) and abs(_wrap(g.phi, 2 * math.pi)) < ANGLE_EPS:
            continue
        out.append(g)
        # fold back while the new tail keeps merging
        while len(out) >= 2:
            merged = _merge_pair(out[-2], out[-1])
            if merged is None:
                break
            out[-2:] = merged
    return Circuit(c.n, tuple(out))


def pass_commute_reorder(c: Circuit, window: int = DEFAULT_WINDOW) -> Circuit:
    """Move mergeable partners adjacent when the gates in between provably
    commute with the moved gate.  Pure reordering; pairing is left to
    :func:`pass_cancel`."""
    gates = list(c.gates)
    i = 0
    while i < len(gates) - 1:
        g = gates[i]
        if not isinstance(g, GlobalPhase):
            for j in range(i + 2, min(i + 1 + window, len(gates))):
                h = gates[j]
                if _merge_pair(g, h) is None:
                    continue
                if all(commutes(gates[k], h) for k in range(i + 1, j)):
                    gates.insert(i + 1, gates.pop(j))
                    break
        i += 1
    return Circuit(c.n, tuple(gates))


# ---------------------------------------------------------------------------
# targeted rewrites
# ---------------------------------------------------------------------------


def pass_fuse_cinc(c: Circuit) -> Circuit:
    """Fuse an adjacent [GCX(m->X01), GCX(m->X02)] pair (same control,
    value and target, applied in that order) into a single CINC."""
    out: list[Gate] = []
    for g in c.gates:
        top = out[-1] if out else None
        if (
            isinstance(g, Gcx)
            and isinstance(top, Gcx)
            and g.level == "02"
            and top.level == "01"
            and top.control == g.control
            and top.value == g.value
            and top.target == g.target
        ):
            out[-1] = Cinc(g.control, g.value, g.target)
        else:
            out.append(g)
    return Circuit(c.n, tuple(out))


def _coalesce_phases(c: Circuit) -> Circuit:
    phi = 0.0
    rest: list[Gate] = []
    for g in c.gates:
        if isinstance(g, GlobalPhase):
            phi += g.phi
        else:
            rest.append(g)
    phi = _wrap(phi, 2 * math.pi)
    gates = ([GlobalPhase(phi)] if abs(phi) > ANGLE_EPS else []) + rest
    return Circuit(c.n, tuple(gates))


def simplify(c: Circuit, use_cinc: bool = False, window: int = DEFAULT_WINDOW) -> Circuit:
    """Default pipeline: cancel/reorder to a fixpoint, optionally fuse
    GCX pairs into CINCs, and pull the accumulated phase to the front."""
    prev = None
    while prev != c.gates:
        prev = c.gates
        c = pass_cancel(c)
        c = pass_commute_reorder(c, window)
    c = pass_cancel(c)
    if use_cinc:
        c = pass_fuse_cinc(c)
    return _coalesce_phases(c)
