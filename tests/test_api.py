"""The public names: every ``__all__`` entry and every package-level import
resolves, and the package-level names are exactly the pinned list."""

import ast
import importlib
import pkgutil
import types
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


# Adding or removing a library name is an API change: it edits this list.
PACKAGE_NAMES = [
    "BivectorExp", "Chart", "CliffordField", "ConfigError", "ConnectionField",
    "Constant", "Curve", "CurveOutOfChart", "DiracParams", "Field", "FieldExpr",
    "FrameScalarField", "IDEAL_PHASE", "IDEMPOTENT_E", "IDEMPOTENT_F",
    "InconsistentParity", "Kind", "KindMismatch", "LeftSpinorField", "Multivector", "NotEven",
    "NotInIdeal", "NotRotor", "Polynomial", "RightSpinorField", "ScalarGaussian",
    "ScalarLinear", "ScalarSine", "SeriesNotConverged", "SpacetimeSetup", "StaError",
    "UnknownSuite", "bilinear_covariants", "blade_mul", "change_spin_frame",
    "column_from_ideal", "complex_ideal_from_even", "complexify", "cov_deriv_clifford",
    "cov_deriv_left", "cov_deriv_right", "dirac_operator_left", "effective_deriv", "evaluate",
    "even_from_ideal", "exp_bivector", "gauge_transform_left_form",
    "gauge_transform_representative", "ideal_from_column", "lorentz_covariance_check",
    "make_plane_wave", "pair_to_clifford", "parallel_transport", "project_ideal_left",
    "residual_complex_ideal", "residual_covariant", "residual_left_form",
    "residual_representative", "rotor_wave", "unit_right",
]


def test_package_names_are_pinned():
    assert PACKAGE_NAMES == sorted(PACKAGE_NAMES)
    # submodules become package attributes as they are imported, so they are not names here
    names = sorted(name for name, value in vars(sta).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PACKAGE_NAMES
