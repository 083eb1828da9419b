"""Command-line interface.

Subcommands:

    synth     factor a unitary (JSON matrix file) into a simplified, verified circuit
    verify    re-simulate a circuit file against a matrix file, on probe columns (an estimate)
    random    emit a Haar-random n-qutrit unitary as a matrix file
    counts    closed-form and measured two-qutrit gate counts
    selftest  closed-form identities and factorization checks

Matrix files are JSON objects {"qutrits": n, "dim": 3^n, "matrix": [[re,
im], ...]} with row-major, finite entries.  Exit codes: 0 success, 2
unreadable input, unwritable output or out-of-range option, 3 non-unitary
matrix without --sanitize, 4 verification failure.
Diagnostics go to stderr; machine-readable output goes to stdout or -o.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import (
    LEVELS,
    GeneratorId,
    cinc_matrix,
    embed_local,
    gcx_matrix,
    generator,
    rotation,
)
from .cartan import _qutrit_count, factorize, factorize_stack, reassemble
from .circuit import (
    CircuitParseError,
    count_gates,
    eval_circuit,
    parse,
    serialize,
)
from .linalg import UNITARY_ATOL, haar_unitary, nearest_unitary, unitarity_defect
from .passes import pass_fuse_cinc
from .synth import (
    CITED_CINC_TOTALS,
    FACTOR_KINDS,
    GateSet,
    SynthesisOptions,
    cinc_savings,
    expected_count,
    measured_operator_counts,
    operator_count,
    probe_distance,
    synthesize,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NONUNITARY = 3
EXIT_VERIFY = 4


def _err(msg: str) -> None:
    print(f"trisect: {msg}", file=sys.stderr)


class _BadInput(Exception):
    """Unreadable or malformed input, or an unwritable output: :func:`main` prints it and exits 2."""


def _read_text(path: str) -> str:
    """Text of ``path``, or of stdin for ``-``."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        reason = (exc.strerror or str(exc)).lower()
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise _BadInput(f"cannot read {path}: {reason}")


def _cannot_write(path: str, exc: OSError) -> _BadInput:
    return _BadInput(f"cannot write {path}: {(exc.strerror or str(exc)).lower()}")


def _write_text(path: str | None, text: str) -> None:
    """Write ``text``, ending in a newline, to ``path``, or to stdout for None or ``-``."""
    text = text if text.endswith("\n") else text + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _check_writable(*paths: str | None) -> None:
    """Fail now, as :func:`_write_text` would later, on any unwritable path; leave no new file."""
    for path in paths:
        if path is None or path == "-":
            continue
        created = not os.path.lexists(path)
        try:
            open(path, "a").close()  # append mode leaves an existing file as it is
        except OSError as exc:
            raise _cannot_write(path, exc) from None
        if created:
            os.remove(path)


def _matrix_to_json(m: np.ndarray, n: int) -> str:
    entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return json.dumps({"qutrits": n, "dim": m.shape[0], "matrix": entries})


def _matrix_from_json(text: str) -> tuple[np.ndarray, int]:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("matrix file must be a JSON object")
    for key in ("qutrits", "dim", "matrix"):
        if key not in data:
            raise ValueError(f"matrix file is missing the {key!r} field")
    n, dim = data["qutrits"], data["dim"]
    # JSON integers only: bool is an int subclass, and int() would truncate a float.
    if type(n) is not int or type(dim) is not int:
        raise ValueError("qutrits and dim must be JSON integers")
    if n < 1 or _qutrit_count(dim) != n:
        raise ValueError(f"dim {dim} does not match 3^qutrits for qutrits={n}")
    try:
        arr = np.asarray(data["matrix"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError("matrix entries must be [re, im] number pairs") from None
    if arr.shape != (dim * dim, 2):
        raise ValueError(
            f"expected {dim * dim} [re, im] entries, got shape {arr.shape}"
        )
    # Python's json reads NaN and Infinity; no unitary contains them.
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite numbers")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(dim, dim), n


def _load_matrix(path: str) -> tuple[np.ndarray, int]:
    """Matrix and width from a matrix file."""
    text = _read_text(path)
    try:
        return _matrix_from_json(text)
    except ValueError as exc:  # json.JSONDecodeError included
        raise _BadInput(f"cannot read matrix file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    if args.report == "-" and args.output in (None, "-"):
        raise _BadInput("the circuit and the --report JSON cannot both go to stdout; give -o or a --report path")
    files = [path for path in (args.output, args.report) if path not in (None, "-")]
    if len(files) == 2 and (
        os.path.realpath(files[0]) == os.path.realpath(files[1])  # one path, however spelled
        or all(map(os.path.exists, files)) and os.path.samefile(*files)  # or one file under two names
    ):
        raise _BadInput(f"the circuit and the --report JSON cannot both go to {args.report}; give two paths")
    m, _ = _load_matrix(args.matrix)
    defect = unitarity_defect(m)
    if defect > UNITARY_ATOL:
        if not args.sanitize:
            _err(
                f"matrix is not unitary (defect {defect:.3e}); "
                "re-run with --sanitize to project onto the nearest unitary"
            )
            return EXIT_NONUNITARY
        m = nearest_unitary(m)
        _err(f"sanitized input (unitarity defect was {defect:.3e})")

    options = SynthesisOptions(gate_set=GateSet(args.gate_set), tolerance=args.tolerance)
    _check_writable(args.output, args.report)
    circuit, report = synthesize(m, options)
    _write_text(args.output, serialize(circuit))
    for line in report.lines():
        print(line, file=sys.stderr)
    if args.report:
        _write_text(args.report, json.dumps(report.as_dict(), indent=2))
    if not report.ok:
        _err(
            f"verification failed: distance {report.distance:.3e} "
            f"exceeds tolerance {args.tolerance:.1e}"
        )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.circuit == args.matrix == "-":
        raise _BadInput("stdin can supply only one of the circuit and the matrix")
    text = _read_text(args.circuit)
    try:
        circuit = parse(text)
    except CircuitParseError as exc:
        raise _BadInput(f"cannot parse circuit {args.circuit}: {exc}") from None
    m, n = _load_matrix(args.matrix)
    if n != circuit.n:
        raise _BadInput(f"circuit is on {circuit.n} qutrits but the matrix is on {n}")
    dist = probe_distance(circuit, m)
    ok = dist <= args.tolerance
    counts = count_gates(circuit)
    print(
        f"distance {dist:.3e} (tolerance {args.tolerance:.1e}): "
        f"{'ok' if ok else 'FAIL'}  [{counts.two_qutrit} two-qutrit / "
        f"{counts.total} total gates]"
    )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_random(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    m = haar_unitary(3**args.qutrits, rng)
    _write_text(args.output, _matrix_to_json(m, args.qutrits))
    return EXIT_OK


def cmd_counts(args: argparse.Namespace) -> int:
    status = EXIT_OK
    print(f"{'n':>2}  {'gcx-only':>10}  {'gcx+cinc':>10}  {'fused pairs':>11}  {'cited':>8}")
    flagged = False
    for n in range(2, args.n_max + 1):
        gcx = expected_count(n, GateSet.GCX_ONLY)
        cinc = expected_count(n, GateSet.GCX_CINC)
        cited = CITED_CINC_TOTALS.get(n)
        mark = ""
        if cited is not None and cited != cinc:
            mark, flagged = " (!)", True
        cited_txt = f"{cited}{mark}" if cited is not None else "-"
        print(f"{n:>2}  {gcx:>10}  {cinc:>10}  {cinc_savings(n):>11}  {cited_txt:>8}")
    if flagged:
        print("(!) previously reported total differs from the closed-form count")

    if args.operators:
        print()
        print(f"{'n':>2}  " + "  ".join(f"{k:>6}" for k in FACTOR_KINDS))
        for n in range(2, args.n_max + 1):
            row = [operator_count(k, n, GateSet(args.gate_set)) for k in FACTOR_KINDS]
            print(f"{n:>2}  " + "  ".join(f"{v:>6}" for v in row))
            if args.measured and n <= 4:
                measured = measured_operator_counts(n, GateSet(args.gate_set))
                meas = [measured[k] for k in FACTOR_KINDS]
                print(f"    " + "  ".join(f"{v:>6}" for v in meas) + "  (measured)")
                if meas != row:
                    status = EXIT_VERIFY

    if args.measured:
        print()
        rng = np.random.default_rng(args.seed)
        for n in range(2, min(3, args.n_max) + 1):
            m = haar_unitary(3**n, rng)
            for gs in (GateSet.GCX_ONLY, GateSet.GCX_CINC):
                _, rep = synthesize(m, SynthesisOptions(gate_set=gs))
                want = expected_count(n, gs)
                ok = rep.two_qutrit_count == want and rep.ok
                if not ok:
                    status = EXIT_VERIFY
                print(
                    f"measured n={n} {gs.value:<9}: {rep.two_qutrit_count:>4} two-qutrit "
                    f"(formula {want}), distance {rep.distance:.2e} "
                    f"[{'ok' if ok else 'FAIL'}]"
                )
    return status


def _gap(pairs) -> float:
    """Worst entry-wise difference over (lhs, rhs) pairs."""
    return float(np.max([np.max(np.abs(lhs - rhs)) for lhs, rhs in pairs]))


def _identity_checks() -> list[tuple[str, float, float]]:
    """(name, worst residual, tolerance) for the closed-form identities."""
    thetas = (-5.1, -2.0, -0.7, 0.3, 1.9, 4.4)
    y_conjugated = [
        (rotation("x", ij, th),
         rotation("y", ij, np.pi / 2) @ rotation("z", ij, th) @ rotation("y", ij, -np.pi / 2))
        for ij in LEVELS
        for th in thetas
    ]
    gcx_pairs = [
        (gcx_matrix(2, 0, m, 1, ij) @ gcx_matrix(2, 0, mp, 1, ij),
         gcx_matrix(2, 0, 3 - m - mp, 1, ij) @ embed_local(generator(GeneratorId[f"X{ij}"]), 2, 1))
        for ij in LEVELS
        for m in range(3)
        for mp in range(3)
        if m != mp
    ]
    cincs = [
        (cinc_matrix(2, 0, m, 1), gcx_matrix(2, 0, m, 1, "02") @ gcx_matrix(2, 0, m, 1, "01"))
        for m in range(3)
    ]
    raws = [parse(f"QUTRITS 2\nGCX q0={m} q1 01\nGCX q0={m} q1 02") for m in range(3)]
    fused = [pass_fuse_cinc(raw) for raw in raws]
    if all(count_gates(f).cinc == len(f) == 1 for f in fused):
        fusion = _gap((eval_circuit(f), eval_circuit(raw)) for f, raw in zip(fused, raws))
    else:
        fusion = math.inf
    ph = np.exp(1j * np.pi / 3)
    x01 = ph * rotation("x", "01", np.pi) @ rotation("z", "02", -2 * np.pi / 3) @ rotation("z", "01", np.pi / 3)
    x12 = ph * rotation("x", "12", np.pi) @ rotation("z", "01", 2 * np.pi / 3) @ rotation("z", "12", np.pi / 3)
    x02 = generator(GeneratorId.X01) @ generator(GeneratorId.X12) @ generator(GeneratorId.X01)
    return [
        ("x rotation = y-conjugated z rotation", _gap(y_conjugated), 1e-12),
        ("GCX pair collapses to third value + X", _gap(gcx_pairs), 1e-12),
        ("CINC = X02-GCX after X01-GCX", _gap(cincs), 1e-12),
        ("fusion pass rewrites the GCX pair", fusion, 1e-12),
        ("X01 from three rotations + phase", _gap([(x01, generator(GeneratorId.X01))]), 1e-12),
        ("X12 from three rotations + phase", _gap([(x12, generator(GeneratorId.X12))]), 1e-12),
        ("X02 = X01.X12.X01", _gap([(x02, generator(GeneratorId.X02))]), 1e-12),
    ]


def _factorization_checks(seed: int) -> list[tuple[str, float, float]]:
    """Rows read off one ``factorize_stack`` call per width on (identity, permutation, Haar).

    The calls absorb, as ``synthesize`` runs them, so the rows cover the absorption signs too.
    """
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float, float]] = []
    for n in (2, 3, 4):
        d = 3**n
        # Identity and permutations have exactly-zero angles next to
        # nonzero ones (or only zeros), which Haar inputs never produce.
        # At d = 81 both cosine-sine stages take csd's batched route.
        perm = np.eye(d)[rng.permutation(d)]
        ms = np.stack([np.eye(d), perm, haar_unitary(d, rng)])
        chain, residuals = factorize_stack(ms, absorb=True)
        nodes = [factorize(m, absorb=True) for m in ms]
        stacked = _gap(
            (x[i], e.matrix if kind == "K" else e.angles)
            for i, node in enumerate(nodes)
            for (kind, x), e in zip(chain, node.entries, strict=True)
        )
        checks += [
            (f"cosine-sine split {what} (d={d})", float(res), 1e-10)
            for what, res in zip(("of the identity", "of a permutation", "reconstructs"), residuals["stage1"])
        ]
        checks += [
            (f"factorization reconstructs (d={d})", _gap([(reassemble(nodes[2]), ms[2])]), 1e-9 * d),
            (f"factorization stage residuals (d={d})", max(float(r[2]) for r in residuals.values()), 1e-10),
            (f"stacked factorize equals per-matrix (d={d})", stacked, 0.0),
        ]
    return checks


def check_line(name: str, residual: float, tol: float) -> str:
    """One self-check row: it passes when its residual is within its tolerance."""
    return f"{'[ok]' if residual <= tol else '[FAIL]':<6} {name:<44s} residual {residual:.3e}"


def cmd_selftest(args: argparse.Namespace) -> int:
    rows = _identity_checks() + _factorization_checks(args.seed)
    print("closed-form identities:")
    for row in rows:
        print(f"  {check_line(*row)}")
    ok = all(res <= tol for _, res, tol in rows)
    print(f"selftest: {'all checks passed' if ok else 'FAILURES detected'}")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type for an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # so a non-integer gets argparse's "invalid int value" message
    return parse


def _tolerance(text: str) -> float:
    """argparse type for a finite positive float."""
    if not 0 < (value := float(text)) < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return value


_tolerance.__name__ = "float"  # so a non-number gets argparse's "invalid float value" message


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trisect",
        description="Compile n-qutrit unitaries into rotation + GCX/CINC circuits.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="factor a matrix file into a simplified, verified circuit")
    sp.add_argument("matrix", help="JSON matrix file, or - for stdin")
    sp.add_argument("-o", "--output", help="circuit file (default: stdout)")
    sp.add_argument(
        "--gate-set",
        choices=[g.value for g in GateSet],
        default=GateSet.GCX_CINC.value,
        help="two-qutrit vocabulary (default: %(default)s)",
    )
    sp.add_argument(
        "--tolerance", type=_tolerance, default=SynthesisOptions().tolerance, help="verification bound"
    )
    sp.add_argument(
        "--sanitize",
        action="store_true",
        help="project a slightly non-unitary input onto the nearest unitary",
    )
    sp.add_argument("--report", help="write a JSON synthesis report to this path (- for stdout)")
    sp.set_defaults(func=cmd_synth)

    vp = sub.add_parser("verify", help="simulate a circuit against a matrix on probe columns (an estimate)")
    vp.add_argument("circuit", help="circuit file, or - for stdin")
    vp.add_argument("matrix", help="JSON matrix file, or - for stdin")
    vp.add_argument("--tolerance", type=_tolerance, default=SynthesisOptions().tolerance)
    vp.set_defaults(func=cmd_verify)

    rp = sub.add_parser("random", help="emit a Haar-random unitary matrix file")
    rp.add_argument("qutrits", type=int, choices=range(1, 8), help="register width")
    rp.add_argument("-o", "--output", help="matrix file (default: stdout)")
    rp.add_argument("--seed", type=_int_at_least(0), default=0)
    rp.set_defaults(func=cmd_random)

    cp = sub.add_parser("counts", help="two-qutrit gate-count tables")
    cp.add_argument("--n-max", type=_int_at_least(2), default=4, help="largest width to tabulate")
    cp.add_argument(
        "--measured",
        action="store_true",
        help="also synthesize Haar instances (n<=3) and count for real",
    )
    cp.add_argument("--operators", action="store_true", help="per-factor count table")
    cp.add_argument(
        "--gate-set",
        choices=[g.value for g in GateSet],
        default=GateSet.GCX_CINC.value,
    )
    cp.add_argument("--seed", type=_int_at_least(0), default=0)
    cp.set_defaults(func=cmd_counts)

    tp = sub.add_parser("selftest", help="check closed-form identities and the factorization")
    tp.add_argument("--seed", type=_int_at_least(0), default=0)
    tp.set_defaults(func=cmd_selftest)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _BadInput as exc:
        _err(str(exc))
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
