"""Digest of trisect's outputs on a fixed set of inputs, for comparing two checkouts.

    python3 tools/output_digest.py CHECKOUT

imports ``trisect`` from ``CHECKOUT/src`` (and the input builders from
``CHECKOUT/perfbench``) and synthesizes, with both gate sets:

* Haar unitaries at n = 1..5, seeds 0-2 (``numpy.random.default_rng(seed)``);
* perfbench's structured corpus for seeds 21-23.

Each case prints one line: the SHA-256 of the serialized circuit, then
``repr`` of the reported distance (the estimate on probe columns of
``synth.probe_distance``, so a change to the probes or to the simulation
arithmetic moves it) and of the split residuals.  One more
line gives the ``check_factor_tree`` digest of the first ``factor-tree-n5``
input of benchmark seed 0, and one the SHA-256 of the chain stacks and
residuals of ``factorize_stack(ms, absorb=False)`` (plain mode, which
``synthesize`` does not run) on a Haar unitary and the structured corpus
of seed 21, at n = 2 and n = 3.  Then ``circuit-texts`` gives the
SHA-256 of each case's label, gate set and circuit SHA (no distance, no
residuals) and of the factor-tree line, ``skeletons`` that of the lines
with the distance dropped and each circuit's angle tokens left out of
its text (the last token of every ``R`` and ``PHASE`` line),
``circuits`` that of the lines with the distance dropped, and ``total`` that of the lines as printed.
Two checkouts that print the same total produce the same circuits,
distances, residuals and factor trees on this machine; the same
``circuits`` line alone says that only the distances moved, as a change
to the simulation arithmetic does, and the case lines show by how much;
the same ``skeletons`` line alone says that the gates, residuals and
factor trees are the same and only angles moved, as a change to the
angle arithmetic of emission does; the same ``circuit-texts`` line alone
says that the circuits and factor trees are the same and only distances
or residuals moved, as a change to the rounding of a residual check does.

The cases then run a second time in the same process, where the
cancellation sweep may replay plans that the first run recorded, and
``repeat identical: yes`` says that every case line came out the same
again (``no`` names the first that did not).  Last, ``src lines`` gives
the total line count of the checkout's ``src/trisect/*.py``, which none
of the digests covers, and ``src code lines`` the lines of those files
that hold a token other than a comment, less the lines of module, class
and function docstrings, so that deleting comments or prose does not
read as less code.  A full run takes about 30 s on a 2-core machine
with one BLAS thread.
"""

from __future__ import annotations

import ast
import hashlib
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The lines of a Python file that hold a token other than a comment, less its docstrings' lines."""
    text = path.read_text()
    lines = {
        line
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type not in _NOT_CODE
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import numpy as np
    import trisect
    import workloads
    from trisect import GateSet, SynthesisOptions, haar_unitary, serialize, synthesize

    if not Path(trisect.__file__).resolve().is_relative_to(root):
        print(f"trisect was imported from {trisect.__file__}, not from {root}", file=sys.stderr)
        return 2

    cases = [
        (f"haar-n{n}-seed{seed}", haar_unitary(3**n, np.random.default_rng(seed)))
        for n in range(1, 6)
        for seed in range(3)
    ]
    cases += [
        (f"{inp.label}-seed{seed}", inp.matrix)
        for seed in (21, 22, 23)
        for inp in workloads.structured_corpus(np.random.default_rng(seed))
    ]

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    def case_lines(echo: bool) -> tuple[list[str], list[str], list[str], list[str]]:
        # as printed; without the distance; without the angles too; the circuit alone
        lines, circuits, skeletons, texts = [], [], [], []
        for label, m in cases:
            for gate_set in GateSet:
                circ, rep = synthesize(m, SynthesisOptions(gate_set=gate_set))
                text = serialize(circ)
                gates = "\n".join(
                    line.rsplit(" ", 1)[0] if line.startswith(("R ", "PHASE ")) else line for line in text.splitlines()
                )
                lines.append(f"{label} {gate_set.value} {sha(text)} {rep.distance!r} {rep.split_residuals!r}")
                circuits.append(f"{label} {gate_set.value} {sha(text)} {rep.split_residuals!r}")
                skeletons.append(f"{label} {gate_set.value} {sha(gates)} {rep.split_residuals!r}")
                texts.append(f"{label} {gate_set.value} {sha(text)}")
                if echo:
                    print(lines[-1], flush=True)
        return lines, circuits, skeletons, texts

    lines, circuits, skeletons, texts = case_lines(echo=True)

    rng = workloads.rng_for(0, "factor-tree-n5", 0)
    tree = workloads.WORKLOADS["factor-tree-n5"]
    inp = tree.make_inputs(rng)[0]
    lines.append(f"factor-tree-n5 {tree.check(inp, tree.op(inp), rng).digest}")
    texts.append(lines[-1])
    corpus = workloads.structured_corpus(np.random.default_rng(21))
    plain = hashlib.sha256()
    for n in (2, 3):
        ms = [haar_unitary(3**n, np.random.default_rng(n))] + [inp.matrix for inp in corpus if inp.matrix.shape[0] == 3**n]
        chain, residuals = trisect.factorize_stack(np.stack(ms), absorb=False)
        for x in [x for _, x in chain] + list(residuals.values()):
            plain.update(np.ascontiguousarray(x).tobytes())
    lines.append(f"factorize-stack-plain {plain.hexdigest()}")
    for line in lines[-2:]:
        circuits.append(line)
        skeletons.append(line)
        print(line)
    parts = (("circuit-texts", texts), ("skeletons", skeletons), ("circuits", circuits), ("total", lines))
    for name, part in parts:
        print(name, sha("\n".join(part)))
    repeat = case_lines(echo=False)[0]
    differ = [a for a, b in zip(lines, repeat) if a != b]  # zip stops before the factor-tree lines
    print("repeat identical:", f"no, first at {differ[0]}" if differ else "yes")
    sources = sorted((root / "src" / "trisect").glob("*.py"))
    print("src lines", sum(len(f.read_text().splitlines()) for f in sources))
    print("src code lines", sum(code_lines(f) for f in sources))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
