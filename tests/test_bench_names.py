"""The names the benchmark reads from bracketflow still resolve.

bench/ looks names up at run time through `lib("module.name")` and
`try_lib("module.name")`, and bench/micro.py lists the names each per-layer
probe needs; a name that no longer resolves makes its metric absent instead
of failing the run.  This reads the benchmark's sources and resolves every
such name, the attributes read off a looked-up name (`lib("flows.Variant").RAW`)
and the `from bracketflow.module import name` imports, without importing
bench/ itself.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _is_lookup(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("lib", "try_lib") and node.args
            and isinstance(node.args[0], ast.Constant))


def _lookups(tree):
    """lib(...) and try_lib(...) paths, attributes read off them, and direct imports."""
    for node in ast.walk(tree):
        if _is_lookup(node):
            yield node.args[0].value
        elif isinstance(node, ast.Attribute) and _is_lookup(node.value):
            yield f"{node.value.args[0].value}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bracketflow."):
            module = node.module.removeprefix("bracketflow.")
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _probe_needs(tree):
    """Names in the `needs` tuples of micro._probes: (unit, needs, probe) values."""
    probes = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_probes")
    table = next(n.value for n in ast.walk(probes) if isinstance(n, ast.Return))
    for entry in table.values:
        yield from (ast.literal_eval(name) for name in entry.elts[1].elts)


def _bench_names():
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names.update(_lookups(tree))
        if path.name == "micro.py":
            names.update(_probe_needs(tree))
    return sorted(names)


def test_names_are_found():
    names = _bench_names()
    for expected in ("strata.energy_gradient_flow", "curvature.curvature_parts",
                     "brackets.jacobi_residual", "flows.Variant.RAW", "errors.BracketFlowError"):
        assert expected in names


@pytest.mark.parametrize("path", _bench_names())
def test_bench_name_resolves(path):
    module, *names = path.split(".")
    obj = importlib.import_module("bracketflow." + module)
    for name in names:
        assert hasattr(obj, name), path
        obj = getattr(obj, name)
