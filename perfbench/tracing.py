"""Spans around calls into each layer, taken from outside the program.

While a :class:`Tracer` is active it replaces the module attributes that
the pipeline looks up at call time with timing wrappers, and it puts the
originals back when it exits.  Spans stay in memory as
``[name, start, end, parent, op]`` lists; the caller writes them out when
the run ends.  Payloads the per-layer counts need (returned gate lists,
circuits before and after a pass) are kept by reference and counted after
each operation, outside its timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

from trisect.circuit import Cinc, Gcx

# (module, attribute, span name).  A function that two modules import by
# name is wrapped in each, since each module calls its own binding.
TARGETS = (
    ("trisect.synth", "synthesize", "synth.synthesize"),
    ("trisect.synth", "factorize", "cartan.factorize"),
    ("trisect.cartan", "factorize", "cartan.factorize"),
    ("trisect.synth", "x_mux_gates", "synth.emit.x_mux"),
    ("trisect.synth", "z_mux_gates", "synth.emit.z_mux"),
    ("trisect.synth", "w_mux_gates", "synth.emit.w_mux"),
    ("trisect.synth", "d_mux_gates", "synth.emit.d_mux"),
    ("trisect.synth", "single_qutrit_gates", "synth.emit.single_qutrit"),
    ("trisect.synth", "simplify", "passes.simplify"),
    ("trisect.passes", "pass_cancel", "passes.cancel"),
    ("trisect.passes", "pass_commute_reorder", "passes.reorder"),
    ("trisect.passes", "pass_fuse_cinc", "passes.fuse_cinc"),
    ("trisect.synth", "eval_circuit", "circuit.eval_circuit"),
    ("trisect.circuit", "gate_matrix", "circuit.gate_matrix"),
    ("trisect.cartan", "csd", "linalg.csd"),
    ("trisect.cartan", "unitary_eig", "linalg.unitary_eig"),
    ("trisect.cartan", "unitarity_defect", "linalg.unitarity_defect"),
    ("trisect.synth", "unitarity_defect", "linalg.unitarity_defect"),
    ("trisect.linalg", "unitarity_defect", "linalg.unitarity_defect"),
    ("trisect.synth", "unitary_distance", "linalg.unitary_distance"),
)

EMIT = "synth.emit."

# Per-layer metrics: name -> unit.  Times and counts are per traced op.
LAYER_METRICS = {
    "circuit.gate_matrix.s": "s/op",
    "circuit.gate_matrix.calls": "count/op",
    "circuit.eval_circuit.self_s": "s/op",
    "circuit.eval.flops_computed": "flop/op",
    "linalg.csd.s": "s/op",
    "linalg.csd.calls": "count/op",
    "linalg.unitary_eig.s": "s/op",
    "linalg.unitary_eig.calls": "count/op",
    "linalg.unitarity_defect.s": "s/op",
    "linalg.unitarity_defect.calls": "count/op",
    "linalg.unitary_distance.s": "s/op",
    "cartan.factorize.self_s": "s/op",
    "cartan.factorize.calls": "count/op",
    "cartan.max_residual": "max-abs",
    "synth.emit.self_s": "s/op",
    "synth.emit.calls": "count/op",
    "synth.gates_emitted": "count/op",
    "synth.two_qutrit_emitted": "count/op",
    "synth.synthesize.self_s": "s/op",
    "passes.simplify.s": "s/op",
    "passes.cancel.s": "s/op",
    "passes.cancel.calls": "count/op",
    "passes.reorder.s": "s/op",
    "passes.reorder.calls": "count/op",
    "passes.fuse_cinc.s": "s/op",
    "passes.gates_removed": "count/op",
    "passes.two_qutrit_removed": "count/op",
    "passes.useful_round_ratio": "ratio",
    "trace.overhead": "ratio",
}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest properly, so children of one
    parent never overlap and their durations add up.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _two_qutrit(gates) -> int:
    return sum(1 for g in gates if isinstance(g, (Gcx, Cinc)))


class Tracer:
    """Context manager that wraps :data:`TARGETS` and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = -1
        self.max_residual = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self._emitted: list = []
        self._evals: list = []
        self._simplified: list = []
        self._rounds: list = []
        self._round_start = None
        self._hooks = {
            "cartan.factorize": self._on_factorize,
            "circuit.eval_circuit": lambda args, out: self._evals.append(args[0]),
            "passes.simplify": lambda args, out: self._simplified.append((args[0], out)),
            "passes.cancel": self._on_cancel,
            "passes.reorder": lambda args, out: self._rounds.append((self._round_start, out.gates)),
        }

    # -- wrapping -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod_name, attr, name in TARGETS:
            try:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
            except (ImportError, AttributeError):
                continue  # removed by a refactor: its metrics read 0
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        emit = name.startswith(EMIT)
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self._op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if emit and (parent < 0 or not spans[parent][0].startswith(EMIT)):
                self._emitted.append(out)
            elif hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _on_factorize(self, args, node) -> None:
        self.max_residual = max(self.max_residual, *node.residuals.values())

    def _on_cancel(self, args, out) -> None:
        self._round_start = args[0].gates

    # -- operations -----------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Span one operation; its payloads are counted when it ends."""
        self._op = op_id
        span = ["bench.op", 0.0, 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._count_payloads()

    def _count_payloads(self) -> None:
        c = self.counts
        for gates in self._emitted:
            c["synth.gates_emitted"] += len(gates)
            c["synth.two_qutrit_emitted"] += _two_qutrit(gates)
        for circ in self._evals:
            c["circuit.eval.flops_computed"] += 8.0 * (3**circ.n) ** 3 * len(circ.gates)
        for before, after in self._simplified:
            c["passes.gates_removed"] += len(before.gates) - len(after.gates)
            c["passes.two_qutrit_removed"] += _two_qutrit(before.gates) - _two_qutrit(after.gates)
        for start, end in self._rounds:
            c["rounds"] += 1
            c["useful_rounds"] += start != end
        self._emitted.clear()
        self._evals.clear()
        self._simplified.clear()
        self._rounds.clear()
        self._round_start = None

    # -- per-layer metrics ----------------------------------------------

    def layer_metrics(self, ops: int, overhead: float) -> dict[str, float]:
        """Every metric of :data:`LAYER_METRICS`.  ``<span>.s`` is the
        span's total time, ``.self_s`` its self time and ``.calls`` its
        count; the rest come from the payload counts.  All but the ratios
        and the worst residual are per op over ``ops`` traced operations."""
        by_kind = {"s": defaultdict(float), "self_s": defaultdict(float), "calls": defaultdict(float)}
        for (name, start, end, _, _), self_s in zip(self.spans, self_times(self.spans)):
            key = "synth.emit" if name.startswith(EMIT) else name
            by_kind["s"][key] += end - start
            by_kind["self_s"][key] += self_s
            by_kind["calls"][key] += 1
        c = self.counts
        values = {}
        for metric in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            values[metric] = (by_kind[kind][span] if kind in by_kind else c[metric]) / ops
        values["cartan.max_residual"] = self.max_residual
        values["passes.useful_round_ratio"] = c["useful_rounds"] / c["rounds"] if c["rounds"] else 0.0
        values["trace.overhead"] = overhead
        return values
