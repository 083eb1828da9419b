"""What callers import from trisect still exists, and what the benchmark needs still runs.

Every name in the package's ``__all__`` lists must resolve.  The tier-1
suite does not collect perfbench/, and the benchmark may change only on
its own.  So every name it imports from trisect must resolve, the calls it
makes with keyword options must still accept them, and its two timed
operations must pass their own checks.  perfbench/ is only read.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import trisect
from trisect import cartan
from trisect.circuit import Gcx
from trisect.linalg import haar_unitary
from trisect.synth import GateSet, operator_count, x_mux_gates, z_mux_gates

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imported_names() -> list[tuple[str, str, str]]:
    """(file, module, name) of every ``from trisect... import name`` in perfbench/*.py, and of
    every ``alias.name`` read from a module bound by ``import trisect... as alias``."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trisect":
                out += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                aliases |= {a.asname: a.name for a in node.names if a.asname and a.name.startswith("trisect.")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                out.append((path.name, aliases[node.value.id], node.attr))
    return out


_MODULES = ["trisect"] + [f"trisect.{m.name}" for m in pkgutil.iter_modules(trisect.__path__)]


@pytest.mark.parametrize("module", _MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_every_name_perfbench_imports_resolves():
    names = _imported_names()
    assert len(names) >= 25  # the scan found the benchmark's imports
    missing = [entry for entry in names if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []


def test_perfbench_keyword_calls_still_work():
    angles = np.random.default_rng(3).uniform(-1, 1, 3)
    assert z_mux_gates("01", [1, 0], angles, reverse=True) == z_mux_gates("01", [1, 0], angles)[::-1]
    absorbed = x_mux_gates("12", [0, 1], angles, absorb=True)
    assert sum(isinstance(g, Gcx) for g in absorbed) == operator_count("x12", 2)
    node = cartan.factorize(haar_unitary(9, np.random.default_rng(4)), absorb=True)
    assert node.absorbed and len(node.entries) == 17


@pytest.fixture(scope="module")
def workloads():
    sys.path[:0] = [str(PERFBENCH)]
    try:
        import workloads
    finally:
        del sys.path[0]
    return workloads


def test_factor_tree_op_passes_its_check(workloads):
    rng = np.random.default_rng(5)
    inp = workloads.Input("haar", haar_unitary(27, rng), None, True)
    nodes = workloads.factor_tree_op(inp)
    assert len(nodes) == 1 + 9
    verdict = workloads.check_factor_tree(inp, nodes, rng)
    assert verdict.ok, verdict.reason


@pytest.mark.parametrize("gate_set", list(GateSet), ids=lambda g: g.value)
def test_synth_op_passes_its_check(workloads, gate_set):
    rng = np.random.default_rng(6)
    inp = workloads.Input("haar", haar_unitary(9, rng), gate_set, True)
    verdict = workloads.check_synth(inp, workloads.synth_op(inp), rng)
    assert verdict.ok and verdict.excess == 0, verdict.reason
