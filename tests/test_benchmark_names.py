"""The benchmark under perfbench/ looks package functions up by name: its
tracer wraps each (module, name) pair it lists, and its workloads call layer
functions as ``module.name`` at run time.  A rename or deletion under src/
must fail here, on every Python version the tests run on."""

import ast
import importlib.util
import sys
import types
from pathlib import Path

from hyperterm import poly

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load("tracing")
    assert callable(poly.MultiPoly.evaluate)
    assert tracing.SPANNED
    for metric, home, attr, _ in tracing.SPANNED:
        assert callable(getattr(home, attr, None)), metric


def test_workload_lookups_resolve():
    workloads = _load("workloads")
    modules = {
        name: value
        for name, value in vars(workloads).items()
        if isinstance(value, types.ModuleType) and value.__name__.startswith("hyperterm")
    }
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    lookups = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {"oracle", "oresato", "structure"} <= {m for m, _ in lookups}
    missing = [f"{m}.{a}" for m, a in sorted(lookups) if not hasattr(modules[m], a)]
    assert not missing, missing
