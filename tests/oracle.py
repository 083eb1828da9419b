"""Dense reference matrices for single gates, the oracle the simulator tests compare against."""

import numpy as np

from trisect import algebra
from trisect.circuit import Cinc, Gate, Gcx, GlobalPhase, LocalX, Rotation


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
