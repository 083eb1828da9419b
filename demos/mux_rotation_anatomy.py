"""
Anatomy of a multiplexed rotation
=================================

A multiplexed rotation applies exp(-i theta_k sigma / 2)-style phases
on one qutrit where the angle depends on the computational value of the
others: exp(-i sigma (x) diag(angles)).  The emitters turn these into
rotation + GCX ladders.  This script shows the emitted gates for a
two-qutrit example, checks them against the matrix exponential, and
demonstrates the absorption trick that drops one GCX per span level.
"""

import numpy as np
import scipy.linalg

from trisect import Circuit, eval_circuit, x_mux_gates, z_mux_gates
from trisect.algebra import GeneratorId, generator
from trisect.circuit import count_gates

rng = np.random.default_rng(21)
angles = rng.uniform(-1.0, 1.0, size=3)
sz12 = generator(GeneratorId.SZ12)

# --- a z-type mux on the 12 level -------------------------------------
gates = z_mux_gates("12", [0, 1], angles)
print("z-type multiplexed rotation, angles", np.round(angles, 3))
for g in gates:
    print(f"  {g}")
want = scipy.linalg.expm(-1j * np.kron(sz12, np.diag(angles)))
got = eval_circuit(Circuit(2, tuple(gates)))
print(f"deviation from the matrix exponential: {np.max(np.abs(got - want)):.3e}\n")

# --- absorption: the trailing value-1 GCX run is removable -------------
sx01 = generator(GeneratorId.SX01)
full = x_mux_gates("01", [0, 1], angles, absorb=False)
stripped = x_mux_gates("01", [0, 1], angles, absorb=True)
print("x-type mux, full emission:")
print(f"  {count_gates(Circuit(2, tuple(full))).gcx} GCX gates")
print("with the trailing value-1 gate absorbed into the neighbouring factor:")
print(f"  {count_gates(Circuit(2, tuple(stripped))).gcx} GCX gates")

# the stripped circuit differs from the exponential only by a diagonal
# sign factor on the first block row, which the caller folds into the
# neighbouring I3 (x) W factor of the chain -- that is where the saved
# gate goes.  Read it off the two circuits' matrices.
op = scipy.linalg.expm(-1j * np.kron(sx01, np.diag(angles)))
full_u = eval_circuit(Circuit(2, tuple(full)))
print(f"full emission == exponential to {np.max(np.abs(full_u - op)):.3e}")
sign = eval_circuit(Circuit(2, tuple(stripped))) @ full_u.conj().T
print("sign factor diagonal:", np.real(np.diag(sign)).round().astype(int))
diff = np.max(np.abs(sign - np.diag(np.diag(sign).real.round())))
print(f"stripped emission == sign factor . exponential to {diff:.3e}")
