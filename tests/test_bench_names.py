"""The names the benchmark reads from bracketflow still resolve.

bench/ looks names up at run time through `lib("module.name")` and
`try_lib("module.name")`, and bench/micro.py lists the names each per-layer
probe needs; a name that no longer resolves makes its metric absent instead
of failing the run.  This reads the benchmark's sources and resolves every
such name, the attributes read off a looked-up name (`lib("flows.Variant").RAW`)
and the `from bracketflow.module import name` imports, without importing
bench/ itself.  It also checks that the resolved name accepts every keyword
the benchmark passes to it, at `lib("m.f")(...)`, at `*.call(..., lib("m.f"), ...)`
and at the same calls through a name bound to `lib("m.f")`, so that removing an
option fails here rather than as a failed benchmark op.
"""

import ast
import importlib
import inspect
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


def _keywords(tree):
    """(path, keyword) for each keyword passed to a looked-up name: called directly, through
    a name it was assigned to, or as the function argument of a .call."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_lookup(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.setdefault(target.id, set()).add(node.value.args[0].value)

    def paths(expr):
        if _is_lookup(expr):
            return {expr.args[0].value}
        return aliases.get(expr.id, set()) if isinstance(expr, ast.Name) else set()

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fns = [node.func]
        if isinstance(node.func, ast.Attribute) and node.func.attr == "call":
            # The function is the first argument of a Stopwatch call, the second of a tracer's.
            fns = node.args[:2]
        for path in set().union(*map(paths, fns)):
            yield from ((path, kw.arg) for kw in node.keywords if kw.arg)


def _trees():
    for path in sorted(BENCH.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _bench_keywords():
    return sorted({pair for _, tree in _trees() for pair in _keywords(tree)})


def _bench_names():
    names = set()
    for path, tree in _trees():
        names.update(_lookups(tree))
        if path.name == "micro.py":
            names.update(_probe_needs(tree))
    return sorted(names)


def test_names_are_found():
    names = _bench_names()
    for expected in ("strata.energy_gradient_flow", "curvature.curvature_parts",
                     "brackets.jacobi_residual", "flows.Variant.RAW", "errors.BracketFlowError"):
        assert expected in names


def _resolve(path):
    module, *names = path.split(".")
    obj = importlib.import_module("bracketflow." + module)
    for name in names:
        assert hasattr(obj, name), path
        obj = getattr(obj, name)
    return obj


@pytest.mark.parametrize("path", _bench_names())
def test_bench_name_resolves(path):
    _resolve(path)


def test_keywords_are_found():
    pairs = _bench_keywords()
    for expected in (("flows.FlowSpec", "record_every"), ("strata.stratum_label", "max_steps"),
                     ("experiments.run_uniqueness_experiment", "require_convergence"),
                     ("experiments.run_collapse_experiment", "gauge"),
                     ("flows.recover_gauge", "coefficient"), ("catalog.catalog", "dim"),
                     ("catalog.catalog", "lam")):
        assert expected in pairs


@pytest.mark.parametrize("path, keyword", _bench_keywords())
def test_bench_keyword_is_accepted(path, keyword):
    inspect.signature(_resolve(path)).bind_partial(**{keyword: None})
