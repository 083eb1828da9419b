"""Acceptance checklist for the package.

Every numbered criterion from the build contract runs here at its
stated tolerance and prints one PASS/FAIL line (visible under
``pytest -s`` or in the captured output of a failing run).  The checks
deliberately go through the public entry points -- ``synthesize``, the
factorization node, the CLI -- rather than poking internals.
"""

import time

import numpy as np

from oracle import csd_sigma
from test_algebra import commutation_selftest, maximal_abelian_check, rows_pass
from test_cartan import tensor_identity_residual, z12_split
from test_synth import golden_cases

from trisect.cartan import factorize, nonlocal_matrix, reassemble, split_off_d, stage2
from trisect.cli import _identity_checks, main
from trisect.circuit import Circuit, eval_circuit
from trisect.linalg import (
    csd,
    haar_unitary,
    unitarity_defect,
    unitary_distance,
)
from trisect.synth import (
    CITED_CINC_TOTALS,
    GateSet,
    SynthesisOptions,
    expected_count,
    measured_operator_counts,
    synthesize,
)


def _report(idx: int, ok: bool, detail: str) -> None:
    print(f"criterion {idx}: {'PASS' if ok else 'FAIL'} -- {detail}")


def _bd3(a, b, c):
    p = a.shape[0]
    out = np.zeros((3 * p, 3 * p), dtype=complex)
    out[:p, :p], out[p : 2 * p, p : 2 * p], out[2 * p :, 2 * p :] = a, b, c
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_two_qutrit_counts_on_100_instances():
    rng = np.random.default_rng(1001)
    budget = {GateSet.GCX_CINC: 21, GateSet.GCX_ONLY: 25}
    worst_dist, count_ok = 0.0, True
    start = time.perf_counter()
    for _ in range(100):
        u = haar_unitary(9, rng)
        for gate_set, want in budget.items():
            _, rep = synthesize(u, SynthesisOptions(gate_set=gate_set))
            count_ok &= rep.two_qutrit_count == want
            worst_dist = max(worst_dist, rep.distance)
    elapsed = time.perf_counter() - start
    ok = count_ok and worst_dist < 1e-8 and elapsed < 10.0
    _report(
        1,
        ok,
        f"100 U(9) x both gate sets at 21/25 two-qutrit gates "
        f"(exact: {count_ok}), worst distance {worst_dist:.2e}, {elapsed:.1f} s",
    )
    assert count_ok, "a synthesized circuit missed its exact two-qutrit budget"
    assert worst_dist < 1e-8
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f} s exceeds 10 s"


def test_criterion_2_per_operator_count_table():
    # (mixing x01/x12, shift z12, diagonal d/dbar) per width, as emitted
    want = {2: (2, 3, 4), 3: (8, 10, 14), 4: (26, 29, 38)}
    ok = True
    for n, (x, z, dd) in want.items():
        meas = measured_operator_counts(n, GateSet.GCX_ONLY)
        ok &= meas == {"x01": x, "x12": x, "z12": z, "d": dd, "dbar": dd}
    _report(2, ok, f"measured per-factor counts equal {want} exactly")
    assert ok


def test_criterion_3_total_counts_and_cited_flag(capsys):
    totals_ok = True
    rng = np.random.default_rng(1003)
    measured = {}
    for n in (2, 3):
        u = haar_unitary(3**n, rng)
        for gate_set in GateSet:
            _, rep = synthesize(u, SynthesisOptions(gate_set=gate_set))
            measured[(n, gate_set.value)] = rep.two_qutrit_count
    totals_ok &= measured[(2, "gcx")] == 25 and measured[(3, "gcx")] == 315
    totals_ok &= measured[(2, "gcx+cinc")] == 21 and measured[(3, "gcx+cinc")] == 271
    formula_ok = expected_count(4, GateSet.GCX_CINC) == 2686

    # the previously reported n=3 total must be flagged by the counts table
    code = main(["counts"])
    out = capsys.readouterr().out
    flag_ok = (
        code == 0
        and CITED_CINC_TOTALS[3] == 217
        and "217 (!)" in out
        and "previously reported total differs" in out
    )
    ok = totals_ok and formula_ok and flag_ok
    _report(
        3,
        ok,
        f"measured totals {measured} (want 25/315 gcx, 21/271 gcx+cinc), "
        f"n=4 formula 2686: {formula_ok}, cited 217 flagged: {flag_ok}",
    )
    assert totals_ok and formula_ok and flag_ok


def test_criterion_4_end_to_end_distance():
    rng = np.random.default_rng(1004)
    worst9 = 0.0
    for _ in range(100):
        u = haar_unitary(9, rng)
        circuit, _ = synthesize(u)
        worst9 = max(worst9, unitary_distance(eval_circuit(circuit), u))
    start = time.perf_counter()
    worst27 = 0.0
    for _ in range(20):
        u = haar_unitary(27, rng)
        circuit, _ = synthesize(u)
        worst27 = max(worst27, unitary_distance(eval_circuit(circuit), u))
    elapsed27 = time.perf_counter() - start
    ok = worst9 < 1e-8 and worst27 < 1e-8 and elapsed27 < 60.0
    _report(
        4,
        ok,
        f"worst distance {worst9:.2e} over 100 U(9), {worst27:.2e} over "
        f"20 U(27); three-qutrit batch {elapsed27:.1f} s",
    )
    assert worst9 < 1e-8 and worst27 < 1e-8
    assert elapsed27 < 60.0


def test_criterion_5_factorization_soundness():
    rng = np.random.default_rng(1005)
    worst_recon, worst_shape, worst_stage, worst_defect = 0.0, 0.0, 0.0, 0.0
    for dim, repeats in ((9, 100), (27, 20)):
        for _ in range(repeats):
            u = haar_unitary(dim, rng)
            node = factorize(u)
            worst_recon = max(
                worst_recon, float(np.max(np.abs(reassemble(node) - u))) / dim
            )
            worst_stage = max(worst_stage, max(node.residuals.values()))
            for w in (e.matrix for e in node.entries if e.kind == "K"):
                worst_defect = max(worst_defect, unitarity_defect(w))
                recovered, resid = tensor_identity_residual(np.kron(np.eye(3), w))
                worst_shape = max(worst_shape, resid, float(np.max(np.abs(recovered - w))))
    ok = (
        worst_recon < 1e-9
        and worst_shape < 1e-10
        and worst_stage < 1e-10
        and worst_defect < 1e-10
    )
    _report(
        5,
        ok,
        f"reconstruction {worst_recon:.2e} (x dim), K-factor shape residual "
        f"{worst_shape:.2e}, stage residuals {worst_stage:.2e}, "
        f"K unitarity defect {worst_defect:.2e}",
    )
    assert ok


def test_criterion_6_commutation_and_abelian_suites():
    worst = 0.0
    ok = True
    for n in (2, 3):
        rows = commutation_selftest(n, seed=1006, trials=50)
        ok &= rows_pass(rows)
        worst = max(worst, max(res for _, res, _ in rows))
    abelian_ok = rows_pass(maximal_abelian_check(2, seed=1006))
    ok &= abelian_ok
    _report(
        6,
        ok,
        f"all stage relations at n=2,3 (50 trials each), worst residual "
        f"{worst:.2e}; abelian span check: {abelian_ok}",
    )
    assert ok and worst < 1e-10


def test_criterion_7_closed_form_identities():
    checks = _identity_checks()
    worst = max(resid for _, resid, _ in checks)
    ok = all(resid <= tol <= 1e-12 for _, resid, tol in checks)
    _report(7, ok, f"{len(checks)} identity families, worst residual {worst:.2e}")
    assert ok


def test_criterion_8_golden_two_qutrit_closed_forms():
    rng = np.random.default_rng(1008)
    worst_emit, worst_ref = 0.0, 0.0
    cases = golden_cases(rng)
    for _, op, gates, ref in cases:
        emitted = eval_circuit(Circuit(2, tuple(gates)))
        worst_emit = max(worst_emit, float(np.max(np.abs(emitted - op))))
        worst_ref = max(worst_ref, float(np.max(np.abs(ref - op))))
    ok = worst_emit < 1e-10 and worst_ref < 1e-10
    _report(
        8,
        ok,
        f"{len(cases)} flavors: emission deviation {worst_emit:.2e}, "
        f"closed-form (primed-angle) deviation {worst_ref:.2e}",
    )
    assert ok


def test_criterion_9_kernel_reconstruction_and_determinism():
    rng = np.random.default_rng(1009)
    worst_csd, worst_demux = 0.0, 0.0
    deterministic = True
    for dim in (9, 27):
        p = dim // 3
        for _ in range(50):
            u = haar_unitary(dim, rng)
            lr, theta = csd(u[None], p, 2 * p)
            left, right = lr[:, 0]
            recon = left @ csd_sigma(theta[0], p, 2 * p) @ right.conj().T
            worst_csd = max(worst_csd, float(np.max(np.abs(recon - u))))

            blocks = [haar_unitary(p, rng) for _ in range(3)]
            k = _bd3(*blocks)
            v1, lam1, rest = z12_split(np.stack(blocks))
            v2, lam2, w2 = split_off_d(rest)
            redone = (
                np.kron(np.eye(3), v1)
                @ nonlocal_matrix("z12", lam1)
                @ np.kron(np.eye(3), v2)
                @ nonlocal_matrix("d", lam2)
                @ np.kron(np.eye(3), w2)
            )
            worst_demux = max(worst_demux, float(np.max(np.abs(redone - k))))

        # repeated runs on one instance must agree bit for bit
        u = haar_unitary(dim, rng)
        r1, r2 = csd(u[None], p, 2 * p), csd(u[None], p, 2 * p)
        deterministic &= all(np.array_equal(a, b) for a, b in zip(r1, r2))  # lr, then theta
        bd = _bd3(haar_unitary(p, rng), haar_unitary(p, rng), haar_unitary(p, rng))[None]
        deterministic &= all(
            np.array_equal(a, b) for a, b in zip(stage2(bd), stage2(bd))
        )
    ok = worst_csd < 1e-10 and worst_demux < 1e-10 and deterministic
    _report(
        9,
        ok,
        f"50 instances each at d=9,27: CSD reconstruction {worst_csd:.2e}, "
        f"demultiplex reconstruction {worst_demux:.2e}, deterministic: {deterministic}",
    )
    assert ok
