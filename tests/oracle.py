"""Reference implementations the tests compare against.

:func:`gate_matrix` is the dense matrix of one gate, the simulator's
oracle.  :func:`reference_cancel` is the cancellation sweep in its plain
form on gate objects, with its own walk order and merge rules, calling
the rules on every pair it visits; ``pass_cancel`` must give the same
gates.  :func:`reference_fuse_cinc` is the CINC fusion as a
left-to-right scan over gate objects.  :func:`csd_sigma` is the dense
middle factor of a cosine-sine split, for reconstructing one.
"""

import math
from bisect import bisect_left
from collections.abc import Iterator, Sequence

import numpy as np

from trisect import algebra
from trisect.circuit import Circuit, Cinc, Gate, Gcx, GlobalPhase, LocalX, Rotation, _row
from trisect.passes import ANGLE_EPS, _wrap, commutes


def gate_matrix(g: Gate, n: int) -> np.ndarray:
    """The full 3^n x 3^n matrix of one gate, built from the :mod:`trisect.algebra` builders."""
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


def csd_sigma(theta: np.ndarray, p: int, q: int) -> np.ndarray:
    """Middle CS factor: [[C, -S, 0], [S, C, 0], [0, 0, I_{q-p}]]."""
    c = np.cos(theta)
    s = np.sin(theta)
    sig = np.zeros((p + q, p + q))
    sig[:p, :p] = np.diag(c)
    sig[:p, p : 2 * p] = -np.diag(s)
    sig[p : 2 * p, :p] = np.diag(s)
    sig[p : 2 * p, p : 2 * p] = np.diag(c)
    sig[2 * p :, 2 * p :] = np.eye(q - p)
    return sig


def _gate_qutrits(g: Gate) -> tuple[int, ...]:
    if isinstance(g, (Rotation, LocalX)):
        return (g.qutrit,)
    if isinstance(g, (Gcx, Cinc)):
        return (g.control, g.target)
    return ()


def _merge_pair(a: Gate, b: Gate) -> list[Gate] | None:
    """Rewrite for the pair [a, b] brought adjacent; None means 'no rule applies'."""
    if isinstance(a, (Gcx, LocalX)) and a == b:
        return []
    if isinstance(a, Rotation) and isinstance(b, Rotation):
        if (a.axis, a.level, a.qutrit) == (b.axis, b.level, b.qutrit):
            theta = _wrap(a.theta + b.theta, 4 * math.pi)
            return [] if abs(theta) < ANGLE_EPS else [Rotation(a.axis, a.level, a.qutrit, theta)]
    return None


def _latest_first(a: list[int], b: Sequence[int] = ()) -> Iterator[int]:
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


def reference_cancel(c: Circuit) -> Circuit:
    """The cancellation sweep with :func:`commutes` and :func:`_merge_pair` called on every visited pair."""
    phi = 0.0
    out: list[Gate | None] = []
    frontier: list[list[int]] = [[] for _ in range(c.n)]
    for g in c.gates:
        if isinstance(g, GlobalPhase):
            phi += g.phi
            continue
        if isinstance(g, Rotation) and abs(g.theta) < ANGLE_EPS:
            continue
        fronts = [frontier[q] for q in _gate_qutrits(g)]
        merged = None
        for k in _latest_first(*fronts):
            merged = _merge_pair(out[k], g)
            if merged is not None or not commutes(_row(out[k]), _row(g)):
                break
        if merged is None:
            for lst in fronts:
                lst.append(len(out))
            out.append(g)
        elif merged:
            out[k] = merged[0]
        else:
            out[k] = None
            for lst in fronts:
                del lst[bisect_left(lst, k)]
    phi = _wrap(phi, 2 * math.pi)
    lead = [GlobalPhase(phi)] if abs(phi) >= ANGLE_EPS else []
    return Circuit(c.n, tuple(lead + [g for g in out if g is not None]))


def reference_fuse_cinc(c: Circuit) -> Circuit:
    """Fuse an adjacent [GCX(m->X01), GCX(m->X02)] pair (same control, value and target) into a CINC."""
    out: list[Gate] = []
    for g in c.gates:
        if isinstance(g, Gcx) and g.level == "02" and out and type(prev := out[-1]) is Gcx and prev.level == "01":
            if (prev.control, prev.value, prev.target) == (g.control, g.value, g.target):
                out[-1] = Cinc(g.control, g.value, g.target)
                continue
        out.append(g)
    return Circuit(c.n, tuple(out))
