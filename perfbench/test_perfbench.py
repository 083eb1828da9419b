"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import importlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import simulator  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trisect.circuit import (  # noqa: E402
    Circuit,
    Cinc,
    Gcx,
    GlobalPhase,
    LocalX,
    Rotation,
    eval_circuit,
    serialize,
)
from trisect.linalg import haar_unitary  # noqa: E402
from trisect.synth import (  # noqa: E402
    GateSet,
    SynthesisOptions,
    d_mux_gates,
    single_qutrit_gates,
    synthesize,
    w_mux_gates,
    x_mux_gates,
    z_mux_gates,
)

LEVELS = ("01", "02", "12")


def _every_gate_kind(rng):
    gates = [GlobalPhase(0.3)]
    for q in (0, 1):
        for level in LEVELS:
            gates += [Rotation(axis, level, q, rng.uniform(-4, 4)) for axis in "xyz"]
            gates.append(LocalX(level, q))
    for c, t in ((0, 1), (1, 0)):
        for v in range(3):
            gates += [Gcx(c, v, t, level) for level in LEVELS]
            gates.append(Cinc(c, v, t))
    return [gates[i] for i in rng.permutation(len(gates))]


N2_CIRCUITS = {
    "every-gate-kind": _every_gate_kind,
    "z_mux": lambda rng: z_mux_gates("12", [0, 1], rng.uniform(-1, 1, 3)),
    "z_mux-reversed": lambda rng: z_mux_gates("01", [1, 0], rng.uniform(-1, 1, 3), reverse=True),
    "w_mux": lambda rng: w_mux_gates("02", [0, 1], rng.uniform(-1, 1, 3)),
    "x_mux-absorbed": lambda rng: x_mux_gates("12", [0, 1], rng.uniform(-1, 1, 3), absorb=True),
    "d_mux": lambda rng: d_mux_gates("d", [0, 1], rng.uniform(-1, 1, 3)),
    "dbar_mux": lambda rng: d_mux_gates("dbar", [1, 0], rng.uniform(-1, 1, 3)),
    "single_qutrit": lambda rng: single_qutrit_gates(haar_unitary(3, rng), 1),
    "synthesize-gcx": lambda rng: synthesize(
        haar_unitary(9, rng), SynthesisOptions(gate_set=GateSet.GCX_ONLY))[0].gates,
    "synthesize-cinc": lambda rng: synthesize(haar_unitary(9, rng))[0].gates,
}


@pytest.mark.parametrize("name", sorted(N2_CIRCUITS))
def test_simulator_matches_eval_circuit(name):
    circ = Circuit(2, tuple(N2_CIRCUITS[name](np.random.default_rng(7))))
    got = simulator.apply(serialize(circ), np.eye(9))
    assert np.max(np.abs(got - eval_circuit(circ))) < 1e-12


def _haar_n2(seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(9, rng)
    return workloads.Input("haar", u, GateSet.GCX_CINC, True), synthesize(u), rng


def test_check_passes_a_correct_circuit():
    inp, out, rng = _haar_n2(5)
    v = workloads.check_synth(inp, out, rng)
    assert v.ok and v.two_qutrit == 21 and v.excess == 0 and v.distance < 1e-12


def test_one_perturbed_angle_is_reported_failed():
    inp, (circ, report), rng = _haar_n2(5)
    gates = list(circ.gates)
    k = next(i for i, g in enumerate(gates) if isinstance(g, Rotation))
    g = gates[k]
    gates[k] = Rotation(g.axis, g.level, g.qutrit, g.theta + 1e-6)
    v = workloads.check_synth(inp, (Circuit(2, tuple(gates)), report), rng)
    assert not v.ok and "own check" in v.reason


def test_haar_circuit_above_closed_form_is_reported_failed():
    inp, (circ, report), rng = _haar_n2(6)
    pair = (Gcx(0, 1, 1, "01"), Gcx(0, 1, 1, "01"))  # cancels: same matrix
    v = workloads.check_synth(inp, (Circuit(2, circ.gates + pair), report), rng)
    assert not v.ok and v.excess == 2 and "above the closed form" in v.reason


def test_raising_input_counts_as_failed_and_infinitely_slow():
    w = workloads.WORKLOADS["haar-n3-mixed"]
    bad = workloads.Input("not-unitary", np.ones((27, 27), dtype=complex), GateSet.GCX_CINC, True)
    rec = run.run_op(workloads, w, bad, seed=0, i=0)
    assert not rec.ok and rec.reason.startswith("raised ValueError")
    ref = speed.REFERENCE_S  # machine at reference speed: scaled == wall
    good = run.Record(1, "good", 0.5, True, "", "digest", 21, 0, 1e-14, ref)
    assert run.end_to_end([rec, good, good], 1.0, ref)["op_s_p50"] == pytest.approx(0.5)
    e2e = run.end_to_end([rec, rec, good], 1.0, ref)
    assert e2e["op_s_p50"] == math.inf and e2e["op_wall_s_p50"] == math.inf
    assert e2e["fail_rate"] == pytest.approx(2 / 3)
    assert run.finite(e2e["op_s_p50"]) == sys.float_info.max
    many = run.end_to_end([good] * 29 + [rec], 1.0, ref)
    assert many["op_s_tail"]["percentile"] == 66 and many["op_s_tail"]["value"] == pytest.approx(0.5)
    slow = run.end_to_end([replace(good, ref_s=2 * ref)], 3.0, 2 * ref)  # machine at half speed
    assert slow["op_s_p50"] == pytest.approx(0.25) and slow["setup_s"] == pytest.approx(1.5)


def test_self_time_on_nested_spans():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["a", 2.0, 3.0, 1, 0],
        ["b", 3.5, 5.0, 1, 0],
        ["c", 7.0, 9.0, 0, 0],
        ["op", 11.0, 12.0, -1, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0, 1.0])


def test_traced_run_is_transparent_and_restores_every_attribute():
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.TARGETS}
    u = haar_unitary(9, np.random.default_rng(3))
    plain = serialize(synthesize(u)[0])
    tracer = tracing.Tracer()
    with tracer, tracer.op(0):
        traced = serialize(workloads.synth_op(workloads.Input("h", u, GateSet.GCX_CINC, True))[0])
    assert traced == plain
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn
    names = {s[0] for s in tracer.spans}
    assert {"synth.synthesize", "cartan.factorize", "linalg.csd", "linalg.unitary_eig",
            "passes.simplify", "passes.reorder", "circuit.eval_circuit", "circuit.gate_matrix",
            "synth.emit.d_mux", "synth.emit.w_mux", "synth.emit.z_mux"} <= names
    # Self times partition the op span, nested emitter recursion included.
    op = tracer.spans[0]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(op[2] - op[1])
    layers = tracer.layer_metrics(1, 0.0)
    assert set(layers) == set(tracing.LAYER_METRICS)
    assert layers["synth.two_qutrit_emitted"] - layers["passes.two_qutrit_removed"] == 21
    assert layers["cartan.factorize.calls"] == 1 and layers["circuit.gate_matrix.calls"] > 0
