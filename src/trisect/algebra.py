"""Single-qutrit generators, rotations, and embedded gates.

Index convention: qutrit 0 is the leftmost (most significant) tensor
factor, so a basis state of an n-qutrit register reads as an n-digit
base-3 number.  Level labels "01", "02", "12" name the pair of basis
states an operator acts on; e.g. sz("01") = diag(1, -1, 0).
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "GeneratorId",
    "AXES",
    "LEVELS",
    "cinc_matrix",
    "embed_local",
    "gcx_matrix",
    "generator",
    "place",
    "rotation",
    "rotations_by_code",
]

AXES = ("x", "y", "z")
LEVELS = ("01", "02", "12")


class GeneratorId(enum.Enum):
    SX01 = "sx01"
    SX02 = "sx02"
    SX12 = "sx12"
    SY01 = "sy01"
    SY02 = "sy02"
    SY12 = "sy12"
    SZ01 = "sz01"
    SZ02 = "sz02"
    SZ12 = "sz12"
    D = "d"
    DBAR = "dbar"
    I3 = "i3"
    X01 = "x01"
    X02 = "x02"
    X12 = "x12"
    INC = "inc"


def _two_level(ij: str, block: np.ndarray) -> np.ndarray:
    i, j = int(ij[0]), int(ij[1])
    m = np.zeros((3, 3), dtype=complex)
    m[i, i], m[i, j] = block[0, 0], block[0, 1]
    m[j, i], m[j, j] = block[1, 0], block[1, 1]
    return m


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _build_generator_table() -> dict[GeneratorId, np.ndarray]:
    t: dict[GeneratorId, np.ndarray] = {}
    for axis in "xyz":
        for ij in LEVELS:
            gid = GeneratorId[f"S{axis.upper()}{ij}"]
            t[gid] = _two_level(ij, _PAULI[axis])
    t[GeneratorId.D] = np.diag([1.0, -1.0, -1.0]).astype(complex)
    t[GeneratorId.DBAR] = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    t[GeneratorId.I3] = np.eye(3, dtype=complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    for ij in LEVELS:
        x = _two_level(ij, swap)
        k = 3 - int(ij[0]) - int(ij[1])
        x[k, k] = 1.0
        t[GeneratorId[f"X{ij}"]] = x
    t[GeneratorId.INC] = t[GeneratorId.X02] @ t[GeneratorId.X01]
    return t


_GENERATORS = _build_generator_table()


def generator(gid: GeneratorId) -> np.ndarray:
    """Fresh copy of a named 3x3 generator."""
    return _GENERATORS[gid].copy()


# (axis, level) -> code 3 * axis + level (indices into AXES and LEVELS); code -> (i, j, spectator) of its 2x2 block
_ROTATION_CODE = {(a, ij): 3 * ia + il for ia, a in enumerate(AXES) for il, ij in enumerate(LEVELS)}
_ROTATION_SLOTS = np.array([(int(ij[0]), int(ij[1]), 3 - int(ij[0]) - int(ij[1])) for ij in LEVELS] * 3)


def rotations_by_code(code: np.ndarray, thetas) -> np.ndarray:
    """Stack of rotations exp(-i theta_r/2 sigma_axis^level), shape (R, 3, 3), for integer codes 3 * axis + level.

    ``axis`` and ``level`` index AXES and LEVELS.  One vectorised pass over
    all R angles; each entry has period 4*pi.
    """
    half = 0.5 * np.asarray(thetas, dtype=float).reshape(-1)
    ax = code // 3
    i, j, k = _ROTATION_SLOTS[code].T
    c, s = np.cos(half), np.sin(half)
    is_z = ax == 2
    # x: [[c, -is], [-is, c]]   y: [[c, -s], [s, c]]   z: diag(e^{-i half}, e^{i half})
    off = np.where(ax == 0, -1j * s, -s)
    # e^{-i half} set field by field and e^{i half} as c + i s: bit for bit np.exp's.
    z_minus = np.empty(half.size, dtype=complex)
    z_minus.real, z_minus.imag = c, -s
    r = np.arange(half.size)
    m = np.zeros((half.size, 3, 3), dtype=complex)
    m[r, i, i] = np.where(is_z, z_minus, c)
    m[r, j, j] = np.where(is_z, c + 1j * s, c)
    m[r, i, j] = np.where(is_z, 0.0, off)
    m[r, j, i] = np.where(is_z, 0.0, np.where(ax == 0, off, s))
    m[r, k, k] = 1.0
    return m


def rotation(axis: str, ij: str, theta: float) -> np.ndarray:
    """Single-qutrit rotation exp(-i theta/2 sigma_axis^ij); period 4*pi."""
    code = _ROTATION_CODE.get((axis, ij))
    if code is None:
        raise ValueError(f"bad rotation axis/level: {axis!r}/{ij!r}")
    return rotations_by_code(np.array([code]), theta)[0]


def place(n: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product over n qutrit slots, identity where unspecified."""
    m = np.eye(1, dtype=complex)
    for pos in range(n):
        m = np.kron(m, ops.get(pos, _GENERATORS[GeneratorId.I3]))
    return m


def embed_local(g: np.ndarray, n: int, target: int) -> np.ndarray:
    """Single-qutrit operator g acting on ``target`` within n qutrits."""
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for {n} qutrits")
    return place(n, {target: np.asarray(g, dtype=complex)})


def _controlled(n: int, control: int, value: int, target: int, g: np.ndarray) -> np.ndarray:
    """Apply g on ``target`` when ``control`` reads ``value``: a dense sum of
    control projectors over :func:`place`, independent of the simulator."""
    if control == target:
        raise ValueError("control and target must differ")
    if value not in (0, 1, 2):
        raise ValueError(f"control value must be a trit, got {value}")
    m = np.zeros((3**n, 3**n), dtype=complex)
    for v in range(3):
        tgt = g if v == value else _GENERATORS[GeneratorId.I3]
        m += place(n, {control: np.diag(np.eye(3, dtype=complex)[v]), target: tgt})
    return m


def gcx_matrix(n: int, control: int, value: int, target: int, ij: str) -> np.ndarray:
    """GCX: apply X^ij on ``target`` when ``control`` reads ``value``."""
    if ij not in LEVELS:
        raise ValueError(f"bad level {ij!r}")
    return _controlled(n, control, value, target, _GENERATORS[GeneratorId[f"X{ij}"]])


def cinc_matrix(n: int, control: int, value: int, target: int) -> np.ndarray:
    """Controlled increment: |t> -> |t+1 mod 3> when ``control`` reads ``value``.

    Equals gcx(value -> X02) @ gcx(value -> X01) as matrices.
    """
    return _controlled(n, control, value, target, _GENERATORS[GeneratorId.INC])
