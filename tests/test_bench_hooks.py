"""The benchmark's hooks into the package still resolve.

``bench/tracer.py`` wraps package functions by name and ``bench/run.py``
gates each report on a fixed table of check names.  Both are loaded here
read-only (no bytecode is written next to them), so a refactor that renames
a traced function or a check fails Tier-1 instead of the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
