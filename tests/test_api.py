"""The public names: every ``__all__`` entry and every package-level import resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sta

MODULES = sorted(m.name for m in pkgutil.iter_modules(sta.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"sta.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"sta.{module}.__all__ names what it does not define: {missing}"


def test_every_package_import_resolves():
    tree = ast.parse(Path(sta.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"sta.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"sta.{node.module} has no {alias.name}"
            assert hasattr(sta, alias.asname or alias.name)
