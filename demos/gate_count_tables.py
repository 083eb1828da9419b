"""
Two-qutrit gate counts: closed forms vs. measurements
=====================================================

The synthesis cost is exactly predictable.  This script tabulates the
closed-form totals for both gate sets, the per-factor costs, and then
synthesizes real Haar instances to show the measured counts landing on
the formulas.  The previously reported three-qutrit total (217) is
inconsistent with its own closed form (271); the table marks it.
"""

import numpy as np

from trisect import GateSet, SynthesisOptions, haar_unitary, synthesize
from trisect.synth import (
    CITED_CINC_TOTALS,
    cinc_savings,
    expected_count,
    measured_operator_counts,
    operator_count,
)

print("closed-form totals")
print(f"{'n':>2} {'gcx-only':>9} {'gcx+cinc':>9} {'savings':>8} {'cited':>9}")
for n in range(2, 6):
    cinc = expected_count(n, GateSet.GCX_CINC)
    cited = CITED_CINC_TOTALS.get(n)
    mark = " (!)" if cited is not None and cited != cinc else ""
    cited_txt = f"{cited}{mark}" if cited is not None else "-"
    print(
        f"{n:>2} {expected_count(n, GateSet.GCX_ONLY):>9} {cinc:>9} "
        f"{cinc_savings(n):>8} {cited_txt:>9}"
    )
print("(!) previously reported value; differs from the closed form\n")

KINDS = ("x01", "x12", "z12", "d", "dbar")
print("per-factor costs (gcx-only), formula vs. measured emission")
print(f"{'n':>2} " + " ".join(f"{k:>9}" for k in KINDS))
for n in (2, 3):
    formula = [operator_count(k, n, GateSet.GCX_ONLY) for k in KINDS]
    meas = measured_operator_counts(n, GateSet.GCX_ONLY)
    print(f"{n:>2} " + " ".join(f"{v:>9}" for v in formula))
    print("   " + " ".join(f"{meas[k]:>9}" for k in KINDS) + "  (measured)")

print("\nfull syntheses of Haar instances")
rng = np.random.default_rng(0)
for n in (2, 3):
    u = haar_unitary(3**n, rng)
    for gate_set in GateSet:
        _, rep = synthesize(u, SynthesisOptions(gate_set=gate_set))
        want = expected_count(n, gate_set)
        print(
            f"  n={n} {gate_set.value:<9}: {rep.two_qutrit_count:>3} two-qutrit "
            f"(formula {want}), distance {rep.distance:.2e}"
        )
