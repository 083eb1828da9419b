"""
Factor one Haar-random two-qutrit unitary, stage by stage
=========================================================

One recursion level rewrites a 9x9 unitary as a chain of seventeen
factors: nine block factors of the form I3 (x) W interleaved with eight
fixed-generator exponentials.  This script prints the chain, the
residuals of the internal splits, and the final gate circuits in both
two-qutrit vocabularies.
"""

import numpy as np

from trisect import GateSet, SynthesisOptions, factorize, haar_unitary, serialize, synthesize
from trisect.cartan import reassemble

rng = np.random.default_rng(7)
u = haar_unitary(9, rng)
print("input: Haar-random U(9); qutrit 0 is the most significant trit\n")

# --- the factor chain -------------------------------------------------
node = factorize(u)
print(f"one recursion level yields {len(node.entries)} factors:")
print("  " + " . ".join(e.kind for e in node.entries))
print("\ninternal split residuals (machine precision expected):")
for name, resid in sorted(node.residuals.items()):
    print(f"  {name:<14s} {resid:.3e}")
recon = float(np.max(np.abs(reassemble(node) - u)))
print(f"\nreassembling the chain reproduces the input to {recon:.3e}")

# --- from factors to gates --------------------------------------------
for gate_set in (GateSet.GCX_ONLY, GateSet.GCX_CINC):
    circuit, report = synthesize(u, SynthesisOptions(gate_set=gate_set))
    print(f"\n--- gate set {gate_set.value} ---")
    for line in report.lines():
        print(f"  {line}")

# --- what the circuit file looks like ----------------------------------
circuit, _ = synthesize(u)
text = serialize(circuit)
head = text.splitlines()
print(f"\nfirst 8 of {len(head)} circuit file lines:")
for line in head[:8]:
    print(f"  {line}")
