"""
One qutrit, nine rotations
==========================

Any 3x3 unitary factors into two-level Givens mixes that zero the
off-diagonal column entries, followed by z-y-z triples on the two-level
subspaces -- nine rotations plus a global phase in total.  A stack of
matrices goes through the same steps as whole-array operations.
"""

import numpy as np

from trisect import Circuit, eval_circuit, haar_unitary, single_qutrit_gates

u = haar_unitary(3, np.random.default_rng(4))
gates = single_qutrit_gates(u)

print("target U(3):")
print(np.round(u, 3))
print(f"\n{len(gates)} gates:")
for g in gates:
    print(f"  {g}")

got = eval_circuit(Circuit(1, tuple(gates)))
print(f"\nreconstruction deviation: {np.max(np.abs(got - u)):.3e}")

# A (k, 3, 3) stack is decomposed in one call, ten gates per matrix in
# stack order; synthesize hands all its single-qutrit leaves over this way.
# The degenerate inputs take the zero-pivot branches but still come out exact.
names = ("identity", "diagonal phases", "trit cycle")
stack = np.stack(
    [
        np.eye(3, dtype=complex),
        np.diag(np.exp(1j * np.array([0.2, -0.9, 1.4]))),
        np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex),
    ]
)
gates = single_qutrit_gates(stack)
for i, (name, m) in enumerate(zip(names, stack)):
    chunk = gates[10 * i : 10 * i + 10]
    err = np.max(np.abs(eval_circuit(Circuit(1, tuple(chunk))) - m))
    print(f"{name:<16s} -> {len(chunk)} gates, deviation {err:.3e}")
