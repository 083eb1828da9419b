"""Wall time per layer of a Haar synthesis, for two checkouts, written as ``BENCH_<label>.json``.

    OPENBLAS_NUM_THREADS=1 python3 tools/bench_layers.py LABEL PARENT CHANGE

PARENT and CHANGE are checkout roots (``git archive`` or ``git clone``
copies).  For each width n = 2..6 and each of five rounds, each
checkout runs one fresh process (``tools/bench_layers.py --worker
CHECKOUT N``, with ``trisect`` imported from ``CHECKOUT/src``), and the
side that runs first alternates from round to round.  A process synthesizes the Haar inputs
``haar_unitary(3**n, numpy.random.default_rng(seed))`` for seeds 0 and
then 1 with the default options (``gcx+cinc``); the second call of a
width replays what the first one cached.  Each call records the wall
time of its layers, read by wrapping the module functions that
``synthesize`` calls:

* ``factorize``: ``synth._factor_levels`` (every ``factorize_stack`` level);
* ``csd`` and ``eig``: ``cartan.csd`` and ``cartan.unitary_eig``, the two
  LAPACK kernels inside ``factorize``, each summed over its passes;
* ``emit``: ``synth._emit_tree`` (leaves and factor maps, one gate table);
* ``cancel`` and ``fuse``: ``passes.pass_cancel`` and ``passes.pass_fuse_cinc``;
* ``verify``: from the return of ``simplify`` to the return of the
  ``unitary_distance`` call that gives the reported distance (the
  simulation and the comparison);
* ``synthesize``: the whole call.

It also records the gate counts, the reported distance, the split
residuals (worst per recursion level) and, for n <= 5,
the exact distance ``unitary_distance(eval_circuit(c), m)`` (untimed),
and the peak RSS of the process.  The JSON gives, per width, seed and
side, the median over processes of every time and of the peak RSS.  The
parent and change processes of one round and width form a pair; per
layer, ``paired_ratio`` gives the median and quartiles of the pairs'
change/parent ratios, and ``per_pair`` every ratio.  Every process's
times are under ``per_process_s``.

Last, ``interleaved`` times ``factorize(m, absorb=True)``, the call that
perfbench's ``factor-tree-n5`` makes at every node, of both checkouts in
this one process (each loaded as its own package), for n = 2..5: per
round, each side factorizes the same Haar matrices, the first side
alternating, and each round's two mean times form a pair.  In one
process the pairs resolve a change of a few percent, which fresh
processes per side do not.

Then one process per side (``--worker CHECKOUT 7 0``) synthesizes the
seed-0 Haar n = 7 input alone, and ``n7`` records its layer times and
the process's peak RSS (about 2 minutes and 1.3 GB a side on a 2-core
machine).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

LAYERS = ("factorize", "csd", "eig", "emit", "cancel", "fuse", "verify", "synthesize")
SEEDS = (0, 1)
ROUNDS = 5
WIDTHS = range(2, 7)
INTERLEAVED = {2: (100, 60), 3: (20, 60), 4: (4, 30), 5: (1, 20)}  # n: (Haar matrices, rounds)
WIDEST = 7  # one seed-0 synthesis per side, after the rest


def worker(root: Path, n: int, seeds: tuple[int, ...] = SEEDS) -> dict:
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import trisect
    from trisect import cartan, eval_circuit, haar_unitary, linalg, passes, synth

    if not Path(trisect.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"trisect was imported from {trisect.__file__}, not from {root}")
    marks: dict[str, float] = {}

    def timed(module, name: str, layer: str | None, mark: str | None = None) -> None:
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            if layer:
                marks[layer] = marks.get(layer, 0.0) + end - start
            if mark:
                marks[mark] = end
            return out

        setattr(module, name, wrapper)

    timed(synth, "_factor_levels", "factorize")
    timed(cartan, "csd", "csd")
    timed(cartan, "unitary_eig", "eig")
    timed(synth, "_emit_tree", "emit")
    timed(passes, "pass_cancel", "cancel")
    timed(passes, "pass_fuse_cinc", "fuse")
    timed(synth, "simplify", None, "simplified")
    timed(synth, "unitary_distance", None, "distance")
    out = {}
    for seed in seeds:
        m = haar_unitary(3**n, np.random.default_rng(seed))
        marks.clear()
        start = time.perf_counter()
        circ, report = synth.synthesize(m)
        times = {layer: marks.get(layer, 0.0) for layer in LAYERS[:-2]}
        times["verify"] = marks["distance"] - marks["simplified"]
        times["synthesize"] = time.perf_counter() - start
        counts = report.counts
        out[seed] = {
            "times_s": times,
            "gates": counts.total,
            "two_qutrit": counts.two_qutrit,
            "rotations": counts.rotations,
            "distance": report.distance,
            "split_residuals": report.split_residuals,
            "exact_distance": linalg.unitary_distance(eval_circuit(circ), m) if n <= 5 else None,
        }
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def run(root: Path, n: int, *seeds: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(root), str(n), *map(str, seeds)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def src_lines(root: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (root / "src" / "trisect").glob("*.py"))


def summary(samples: list[dict], seed: str) -> dict:
    first = samples[0][seed]
    times = {layer: statistics.median(s[seed]["times_s"][layer] for s in samples) for layer in LAYERS}
    return {
        "median_s": {layer: round(t, 6) for layer, t in times.items()},
        "gates": first["gates"],
        "two_qutrit": first["two_qutrit"],
        "rotations": first["rotations"],
        "distance": first["distance"],
        "split_residuals": first["split_residuals"],
        "exact_distance": first["exact_distance"],
        "peak_rss_mb": round(statistics.median(s["peak_rss_mb"] for s in samples), 1),
        "per_process_s": {layer: [round(s[seed]["times_s"][layer], 6) for s in samples] for layer in LAYERS},
    }


def paired(parent: list[dict], change: list[dict], seed: str) -> tuple[dict, dict]:
    """Per layer, the quartiles of the pairs' change/parent ratios, and every ratio."""
    per_pair = {
        layer: [round(c[seed]["times_s"][layer] / p[seed]["times_s"][layer], 4) for p, c in zip(parent, change)]
        for layer in LAYERS
        if all(p[seed]["times_s"][layer] > 0 for p in parent)
    }
    return {layer: quartiles(r) for layer, r in per_pair.items()}, per_pair


def quartiles(ratios: list[float]) -> dict:
    return dict(zip(("q1", "median", "q3"), (round(q, 4) for q in statistics.quantiles(ratios, n=4))))


def load(name: str, root: Path):
    """The trisect package of checkout ``root``, imported as ``name``."""
    package = root / "src" / "trisect"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def interleaved(sides: dict[str, Path]) -> list[dict]:
    """Per width, the per-call time of factorize(m, absorb=True) of both checkouts, alternating in one process."""
    import numpy as np

    libs = {side: load(f"trisect_{side}", root) for side, root in sides.items()}
    rows = []
    for n, (count, rounds) in INTERLEAVED.items():
        ms = [libs["parent"].haar_unitary(3**n, np.random.default_rng(seed)) for seed in range(count)]
        for lib in libs.values():
            lib.factorize(ms[0], absorb=True)  # warm the per-shape caches
        per_call = {side: [] for side in sides}
        for r in range(rounds):
            for side in list(sides) if r % 2 == 0 else list(sides)[::-1]:
                start = time.perf_counter()
                for m in ms:
                    libs[side].factorize(m, absorb=True)
                per_call[side].append((time.perf_counter() - start) / count)
            print(f"interleaved n={n} round {r}", file=sys.stderr)
        rows.append(
            {
                "n": n,
                "matrices": count,
                "rounds": rounds,
                "median_s": {side: round(statistics.median(t), 7) for side, t in per_call.items()},
                "paired_ratio": quartiles([c / p for p, c in zip(per_call["parent"], per_call["change"])]),
            }
        )
    return rows


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        print(json.dumps(worker(Path(argv[1]), int(argv[2]), tuple(map(int, argv[3:])) or SEEDS)))
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    samples = {(side, n): [] for side in sides for n in WIDTHS}
    for r in range(ROUNDS):
        for n in WIDTHS:
            order = list(sides) if (r + n) % 2 == 0 else list(sides)[::-1]
            for side in order:
                samples[side, n].append(run(sides[side], n))
                print(f"round {r} n={n} {side}", file=sys.stderr)
    rows = []
    for n in WIDTHS:
        for seed in map(str, SEEDS):
            row = {"n": n, "seed": int(seed)}
            row.update({side: summary(samples[side, n], seed) for side in sides})
            row["paired_ratio"], row["per_pair"] = paired(samples["parent", n], samples["change", n], seed)
            rows.append(row)
    per_call = interleaved(sides)
    widest = {}
    for side, root in sides.items():
        sample = run(root, WIDEST, 0)
        widest[side] = {"times_s": sample["0"]["times_s"], "peak_rss_mb": round(sample["peak_rss_mb"], 1)}
        widest[side].update({key: sample["0"][key] for key in ("two_qutrit", "distance", "split_residuals")})
        print(f"n={WIDEST} {side}", file=sys.stderr)
    import numpy
    import scipy

    doc = {
        "what": "wall time per layer of synthesize on Haar inputs (default options, gcx+cinc), parent against change",
        "command": f"OPENBLAS_NUM_THREADS=1 python3 tools/bench_layers.py {args.label} PARENT CHANGE",
        "timing": f"{ROUNDS} rounds; per round and width one fresh process per side, the first side "
        "alternating; in each process seed 0, then seed 1 (which replays the caches seed 0 filled). median_s "
        "and peak_rss_mb are medians over processes; the two processes of a round form a pair, and paired_ratio "
        "gives the quartiles (statistics.quantiles) of the pairs' change/parent ratios.",
        "environment": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
        },
        "src_lines": {side: src_lines(root) for side, root in sides.items()},
        "rows": rows,
        "interleaved": {
            "what": "factorize(m, absorb=True) per call, both checkouts in one process, Haar seeds 0.., "
            "alternating per round; paired_ratio gives the quartiles of the rounds' change/parent ratios",
            "rows": per_call,
        },
        f"n{WIDEST}": {
            "what": f"one process per side (parent first) synthesizing the seed-0 Haar n={WIDEST} input alone: "
            "its layer times and the process's peak RSS",
            **widest,
        },
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
