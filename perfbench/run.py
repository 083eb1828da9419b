"""Benchmark for trisect: what a caller of ``synthesize`` / ``factorize``
pays (compile time, set-up, memory) and gets (correct, closed-form-sized
circuits).

    python3 perfbench/run.py --workload haar-n3-mixed --seed 1 --seconds 40 --trace 0

One process drives the program in a closed loop: the next input goes in
only after the previous call has returned.  Inputs come from ``--seed``;
the program sees only the generated matrices.  Every operation is checked
outside its timed region (see ``workloads.py``); a failed operation
counts as infinitely slow.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
input untraced and then traced, checks that each traced output is
byte-identical to the untraced one, and reports the per-layer metrics of
``tracing.py`` with the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, input
fingerprint, every op, the spans of a traced run) goes to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

# numpy, the program and the benchmark modules that use them are imported
# inside functions, after BLAS threads are fixed and the set-up clock runs.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh processes that repeat import + input generation; set-up time is
# their median (with this process's own) plus one warm-up op.
SETUP_PROBES = 3

# Time spent on the speed reference after each op, as a share of the op.
REFERENCE_SHARE = 0.1

END_TO_END = {"op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Record:
    op: int
    label: str
    seconds: float  # wall time of the call, whatever its outcome
    ok: bool
    reason: str
    digest: str
    two_qutrit: int | None
    excess: int | None
    distance: float | None
    ref_s: float = math.nan  # reference kernel time around the call


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load(workload: str, seed: int):
    """Import the program from this checkout and make the inputs."""
    if not (SRC / "trisect" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trisect source under {SRC}")
    sys.path.insert(0, str(SRC))
    import trisect
    import workloads

    if Path(trisect.__file__).resolve().parent != SRC / "trisect":
        raise SystemExit(f"perfbench: imported trisect from {trisect.__file__}, not {SRC}")
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; have {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[workload]
    return workloads, w, w.make_inputs(workloads.rng_for(seed, workload, 0))


def setup_probe(args: argparse.Namespace) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def call(fn, arg):
    t = time.perf_counter()
    try:
        result, exc = fn(arg), None
    except Exception as e:  # a raising op is a failed op, not a crash
        result, exc = None, e
    return result, exc, time.perf_counter() - t


def run_op(wl, w, inp, seed: int, i: int, tracer=None) -> Record:
    if tracer:
        with tracer, tracer.op(i):
            result, exc, dt = call(w.op, inp)
    else:
        result, exc, dt = call(w.op, inp)
    if exc is not None:
        v = wl.Verdict(False, f"raised {type(exc).__name__}: {exc}"[:300], "")
    else:
        try:
            v = w.check(inp, result, wl.rng_for(seed, w.name, 1 + i))
        except Exception as e:  # an output the check cannot read is wrong
            v = wl.Verdict(False, f"check raised {type(e).__name__}: {e}"[:300], "")
    return Record(i, inp.label, dt, **asdict(v))


def measure(wl, w, inputs, seed: int, seconds: float, tracer=None):
    """Run ops back to back until ``seconds`` pass, in whole cycles, and
    check each one after it returns.  The reference kernel runs before and
    after each untraced op.  With a tracer, every op runs again traced
    right after its untraced run, so both see the same machine."""
    import speed

    if len(inputs) % w.cycle:
        raise ValueError(f"{len(inputs)} inputs do not fill whole cycles of {w.cycle}")
    deadline = time.perf_counter() + seconds
    records, traced = [], []
    before = speed.reference_seconds(REFERENCE_SHARE)
    i = 0
    while i == 0 or i % w.cycle or time.perf_counter() < deadline:
        inp = inputs[i % len(inputs)]
        rec = run_op(wl, w, inp, seed, i)
        after = speed.reference_seconds(REFERENCE_SHARE * rec.seconds)
        records.append(replace(rec, ref_s=(before + after) / 2))
        if tracer:
            traced.append(run_op(wl, w, inp, seed, i, tracer))
            after = speed.reference_seconds(REFERENCE_SHARE * rec.seconds)
        before = after
        i += 1
    return records, traced


def tail(times: list[float]):
    """Highest percentile above the median with at least ten samples beyond it."""
    n = len(times)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return {"percentile": p, "value": times[rank - 1], "samples": n}
    return None


def end_to_end(records: list[Record], setup_wall_s: float, setup_ref_s: float) -> dict:
    """Every named end-to-end metric.  ``*_s`` times are at reference
    speed (see ``speed.py``); ``*_wall_s`` are the raw wall times."""
    import speed

    scale = speed.REFERENCE_S
    wall = sorted(r.seconds if r.ok else math.inf for r in records)
    scaled = sorted(scale * r.seconds / r.ref_s if r.ok else math.inf for r in records)
    excess = [r.excess for r in records if r.ok and r.excess is not None]
    failed = sum(not r.ok for r in records)
    return {
        "setup_s": scale * setup_wall_s / setup_ref_s,
        "op_s_p50": statistics.median(scaled),
        "op_s_tail": tail(scaled),
        "fail_rate": failed / len(records),
        "two_qutrit_excess": sum(excess) if excess else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_wall_s": setup_wall_s,
        "op_wall_s_p50": statistics.median(wall),
        "op_wall_s_tail": tail(wall),
        "reference_s_p50": statistics.median(r.ref_s for r in records),
    }


def environment(tracing: bool, workload: str, samples: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "tracing": tracing,
        "samples": {workload: samples},
    }


def e2e_lines(e2e: dict, ops: int, failed: int) -> list[str]:
    def tail_text(t):
        return "n/a (fewer than 21 samples)" if t is None else f"{t['value']:.4f} s (p{t['percentile']} of {t['samples']})"

    excess = e2e["two_qutrit_excess"]
    return [
        f"setup_s            {e2e['setup_s']:.4f} s (wall {e2e['setup_wall_s']:.4f} s)",
        f"op_s_p50           {e2e['op_s_p50']:.4f} s (wall {e2e['op_wall_s_p50']:.4f} s)",
        f"op_s_tail          {tail_text(e2e['op_s_tail'])} (wall {tail_text(e2e['op_wall_s_tail'])})",
        f"fail_rate          {e2e['fail_rate']:.4f} ({failed}/{ops})",
        f"two_qutrit_excess  " + ("n/a (no circuits)" if excess is None else f"{excess} gates"),
        f"peak_rss_mb        {e2e['peak_rss_mb']:.1f} MB",
        f"reference kernel   {e2e['reference_s_p50']:.4f} s median wall",
    ]


def finite(x: float) -> float:
    """JSON has no infinity; an infinitely slow op reads as the largest float."""
    return x if math.isfinite(x) else sys.float_info.max


def strict(obj):
    """``obj`` with every non-finite float made JSON-safe (NaN becomes null)."""
    if isinstance(obj, float):
        return None if math.isnan(obj) else finite(obj)
    if isinstance(obj, dict):
        return {k: strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict(v) for v in obj]
    return obj


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads; setup probes inherit it
        os.environ[var] = str(BLAS_THREADS)
    t0 = time.perf_counter()
    wl, w, inputs = load(args.workload, args.seed)
    load_s = time.perf_counter() - t0
    if args.setup_probe:
        print(load_s)
        return 0
    import speed

    refs = [speed.reference_seconds()]
    _, _, warm_s = call(w.op, inputs[0])
    loads = [load_s]
    for _ in range(SETUP_PROBES):
        refs.append(speed.reference_seconds())
        loads.append(setup_probe(args))
    refs.append(speed.reference_seconds())
    setup_wall_s = statistics.median(loads) + warm_s

    detail = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs": {"count": len(inputs), "sha256": wl.fingerprint(inputs)},
    }
    if args.trace == 0:
        records, _ = measure(wl, w, inputs, args.seed, args.seconds)
        e2e = end_to_end(records, setup_wall_s, statistics.median(refs + [r.ref_s for r in records]))
        failed = sum(not r.ok for r in records)
        correct = failed == 0
        metrics = {k: {"value": finite(e2e[k]), "unit": u} for k, u in END_TO_END.items()}
        detail["end_to_end"] = e2e
        lines = e2e_lines(e2e, len(records), failed)
    else:
        from tracing import LAYER_METRICS, Tracer

        tracer = Tracer()
        records, traced = measure(wl, w, inputs, args.seed, args.seconds, tracer)
        differ = [t.op for r, t in zip(records, traced) if r.digest != t.digest]
        overhead = sum(t.seconds for t in traced) / sum(r.seconds for r in records) - 1.0
        layers = tracer.layer_metrics(len(traced), overhead)
        failed = sum(not r.ok for r in records) + sum(not t.ok or t.op in differ for t in traced)
        records += traced
        correct = failed == 0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}
        detail.update(per_layer=layers, traced_outputs_differ=differ, spans=tracer.spans)
        lines = [f"{k:<30} {v:.6g} {LAYER_METRICS[k]}" for k, v in layers.items()]
        lines.append(f"traced outputs identical: {not differ} ({len(traced)} ops)")

    detail["environment"] = environment(args.trace == 1, w.name, len(records))
    detail["records"] = [asdict(r) for r in records]
    bad = [r for r in records if not r.ok]
    print(f"# {w.name} seed={args.seed} trace={args.trace} ops={len(records)} failed={failed}"
          f" inputs={detail['inputs']['sha256'][:16]}")
    env = detail["environment"]
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    for r in bad[:20]:
        print(f"  FAILED op {r.op} {r.label}: {r.reason}")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(strict(detail), f)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
