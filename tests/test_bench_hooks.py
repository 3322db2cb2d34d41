"""The benchmark's hooks into the package still resolve.

``bench/tracer.py`` wraps package functions by name, counts transport steps
by binding the arguments of ``parallel_transport``, ``bench/child.py`` marks
a step at each call the suites make through a plain function, and
``bench/run.py`` gates each report on a fixed table of check names.  The
bench modules are loaded here read-only (no bytecode is written next to
them), so a refactor that renames a traced function, a counted argument or
a check, or that turns a marked function into another kind of callable,
fails Tier-1 instead of the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from types import FunctionType

import sta.suites
from sta.geometry import parallel_transport
from sta.suites import SUITES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch):
    """The module ``bench/<name>.py``, executed without writing a bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_path_resolves(monkeypatch):
    for layer, (modname, paths) in _load("tracer", monkeypatch).LAYERS.items():
        module = importlib.import_module(modname)
        for path in paths or ():
            owner, _, attr = path.rpartition(".")
            scope = vars(getattr(module, owner)) if owner else vars(module)
            assert callable(scope.get(attr)), f"{layer}: {modname}.{path}"


def test_the_gate_expects_every_catalog_check_in_order(monkeypatch):
    run = _load("run", monkeypatch)
    catalog = [(name, tuple(row.name for row in rows)) for name, (_, _, rows) in SUITES.items()]
    assert list(run.SUITE_CHECKS.items()) == catalog


def test_transport_binds_the_arguments_the_tracer_counts_steps_by():
    # the tracer binds each call's arguments, applies the defaults and reads
    # ``setup`` and ``steps``; every calling form in ``sta.suites`` must bind
    signature = inspect.signature(parallel_transport)
    default = signature.parameters["steps"].default
    for args, kwargs, steps in ((("a0", "kind", "curve", "setup", 7), {}, 7),
                                (("a0", "kind", "curve", "setup"), {"steps": 7}, 7),
                                (("a0", "kind", "curve", "setup"), {}, default)):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        assert bound.arguments["setup"] == "setup"
        assert bound.arguments["steps"] == steps


def test_every_callable_the_suites_import_from_the_package_is_a_plain_function():
    # the plain mode marks steps only at plain functions of ``sta.*`` modules
    # bound in ``sta.suites``; a partial or other callable bound under one of
    # these names would make its calls unmarked and change the step count
    tree = ast.parse(Path(sta.suites.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "sta")
             for alias in node.names]
    assert "cov_deriv_left" in names and "lorentz_covariance_check" in names
    for name in names:
        obj = getattr(sta.suites, name)
        if callable(obj) and not inspect.isclass(obj):
            assert isinstance(obj, FunctionType) and obj.__module__.startswith("sta."), name
