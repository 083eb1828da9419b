"""Independent per-gate simulator for the circuit text format.

Written from the conventions in the project README, not from
``trisect.circuit``: qutrit 0 is the most significant trit, rotations are
``exp(-i theta/2 sigma_axis^{ij})`` embedded in the 3x3 identity, ``X ij``
swaps levels i and j, ``GCX qc=v qt ij`` applies ``X ij`` to the target
when the control reads v, ``CINC qc=v qt`` maps ``|t> -> |t+1 mod 3>`` when
the control reads v, and ``PHASE phi`` multiplies by ``exp(i phi)``.  Gates
apply in file order.

The simulator applies a circuit to a few vectors instead of building its
matrix, so a check costs O(k * 3^n) per gate.
"""

from __future__ import annotations

import numpy as np


def _levels(tok: str) -> tuple[int, int]:
    if tok not in ("01", "02", "12"):
        raise ValueError(f"bad level {tok!r}")
    return int(tok[0]), int(tok[1])


def _qutrit(tok: str) -> int:
    if not tok.startswith("q") or not tok[1:].isdigit():
        raise ValueError(f"bad qutrit {tok!r}")
    return int(tok[1:])


def rotation(axis: str, level: str, theta: float) -> np.ndarray:
    """3x3 matrix of exp(-i theta/2 sigma_axis^level)."""
    i, j = _levels(level)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if axis == "x":
        block = [[c, -1j * s], [-1j * s, c]]
    elif axis == "y":
        block = [[c, -s], [s, c]]
    elif axis == "z":
        block = [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]]
    else:
        raise ValueError(f"bad axis {axis!r}")
    m = np.eye(3, dtype=complex)
    m[i, i], m[i, j], m[j, i], m[j, j] = block[0][0], block[0][1], block[1][0], block[1][1]
    return m


def _swap(view: np.ndarray, axis: int, i: int, j: int) -> None:
    moved = np.moveaxis(view, axis, 0)
    moved[[i, j]] = moved[[j, i]]


def _control_slice(state: np.ndarray, control: int, value: int, target: int):
    """View of the states whose control trit reads ``value``, and the
    target's axis inside that view."""
    index = [slice(None)] * state.ndim
    index[control] = value
    return state[tuple(index)], target if target < control else target - 1


def apply(text: str, vectors: np.ndarray) -> np.ndarray:
    """Apply the circuit in ``text`` to the columns of ``vectors`` (3^n x k)."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows or rows[0][0].upper() != "QUTRITS" or len(rows[0]) != 2:
        raise ValueError("circuit text must start with 'QUTRITS <n>'")
    n = int(rows[0][1])
    d, k = vectors.shape
    if d != 3**n:
        raise ValueError(f"{d} rows do not fit {n} qutrits")
    state = np.array(vectors, dtype=complex).reshape((3,) * n + (k,))
    for toks in rows[1:]:
        kind = toks[0].upper()
        if kind == "PHASE":
            state *= np.exp(1j * float(toks[1]))
        elif kind == "R":
            q = _qutrit(toks[3])
            m = rotation(toks[1].lower(), toks[2], float(toks[4]))
            state = np.moveaxis(np.tensordot(m, state, axes=([1], [q])), 0, q)
        elif kind == "X":
            _swap(state, _qutrit(toks[2]), *_levels(toks[1]))
        elif kind in ("GCX", "CINC"):
            head, _, value = toks[1].partition("=")
            view, axis = _control_slice(state, _qutrit(head), int(value), _qutrit(toks[2]))
            if kind == "GCX":
                _swap(view, axis, *_levels(toks[3]))
            else:
                view[...] = np.roll(view, 1, axis=axis)
        else:
            raise ValueError(f"unknown gate {toks[0]!r}")
    return state.reshape(d, k)


def random_vectors(rng: np.random.Generator, d: int, k: int = 3) -> np.ndarray:
    """k complex Gaussian columns with E|v_i|^2 = 1."""
    return (rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))) / np.sqrt(2)


def distance(text: str, u: np.ndarray, vectors: np.ndarray) -> float:
    """Estimate of min_phi ||C - e^{i phi} U||_F from C V and U V.

    For Gaussian columns with unit variance, ||A V||_F^2 / k is an unbiased
    estimate of ||A||_F^2, so the value is on the scale of
    ``SynthesisReport.distance``.  It is probabilistic: an error orthogonal
    to every column would go unseen.
    """
    out = apply(text, vectors)
    ref = u @ vectors
    inner = np.vdot(ref, out)
    phase = inner / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(out - phase * ref) / np.sqrt(vectors.shape[1]))
