"""Scenario configuration: schema, validation and object construction.

A scenario is a JSON object with the following fields (defaults in
brackets; see the README for the full schema):

  name              string, the report file name stem: one file-name
                    component (no "/", "\\" or NUL, not "." or "..") that
                    the file system can encode
  chart             {"lo": [4 floats], "hi": [4 floats]}
  frame             {"type": "fiducial"} or {"type": "rotor", "expr": EXPR}
  connection        {"type": "zero"} or {"type": "table", "entries": [...]}
  params            {"mass": m, "charge": q, "potential": EXPR or {"kind":"zero"}}
  unknown           {"type": "plane-wave", "boost": ROTOR or null}
                    | {"type": "expr", "expr": EXPR} | {"type": "constant-one"}
  suites            list of suite names, run in this order; a repeated
                    name runs once [all seven]
  tolerances        {check-name: positive float} overrides; each key names a
                    check of any suite in the catalog [{}]
  grid              points per axis for residual grids [9]
  transport_steps   integrator step count [256]
  seed              integer for the randomized property checks [0]
  expected          {check-name: value} turns residual checks into
                    expected-value diagnostics; each key names one of the
                    four dirac-triad residual checks that read it [{}]

Every section is an object and every number a finite JSON number (booleans
are not numbers); grid, transport_steps, seed, polynomial powers and
connection indices are integers.  Any violation is a ``ConfigError``.

This is where data from outside the program enters, so the fields it
builds are checked here, once, and the builders downstream check nothing.
A table connection gives only its coefficients with b < c, so it is
antisymmetric by construction.  While the configuration is parsed, each
field it configures is recorded with its config path and its condition:
every connection entry a finite real scalar, the frame expression a finite
real rotor (no odd part, |reverse(u) u - 1| <= 1e-9), the potential finite
and grade 1 (within 1e-10), and the unknown finite and even (within
1e-10 max(1, sup|psi|)).  Once everything has parsed, one ``fold_sups``
call measures every condition's defect at every point of the run grid,
the points the field suites evaluate, under one numpy error state, so a
field that overflows fails its check instead of warning.  The first field
that fails raises one ``ConfigError`` naming its config path and the
measured defect.  The transport suite evaluates the connection along
curves between the grid points, which no check samples.

Field expressions EXPR form a closed constructor set, each with an exact
derivative: zero, constant, polynomial (degree <= 3), rotor-wave, sum,
product, scalar-linear, scalar-sine, scalar-gaussian, exp-bivector and
const-rotor.  Blade keys are "1" for the scalar slot and ascending
generator strings "e0" .. "e0123"; values are reals or [re, im] pairs.
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .algebra import GRADES, STA, CMultivector, Multivector, exp_bivector, gp_batch
from .errors import ConfigError, StaError, UnknownSuite
from .fields import (
    BivectorExp,
    CliffordField,
    Constant,
    Field,
    FieldExpr,
    Polynomial,
    ScalarGaussian,
    ScalarLinear,
    ScalarSine,
    f_product,
    f_sum,
    fold_sups,
    rotor_wave,
)
from .geometry import Chart, ConnectionField, SpacetimeSetup, change_spin_frame
from .dirac import DiracParams, make_plane_wave
from .suites import SUITES

_BLADE_BY_NAME = {"1": 0, "s": 0}
for _mask in range(1, 16):
    _name = "e" + "".join(str(a) for a in range(4) if _mask >> a & 1)
    _BLADE_BY_NAME[_name] = _mask


def _fail(msg: str):
    raise ConfigError(msg)


def _number(v, where: str, integer: bool = False):
    """A finite JSON number, or an int when ``integer``; booleans are neither."""
    if isinstance(v, int if integer else (int, float)) and not isinstance(v, bool):
        if integer:
            return v
        try:
            x = float(v)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    _fail(f"{where} must be {'an integer' if integer else 'a finite number'}, got {v!r}")


def _object(v, where: str) -> dict:
    if not isinstance(v, dict):
        _fail(f"{where} must be an object")
    return v


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        _fail(f"{where} must be a list")
    return v


def _coef(v, where: str):
    if isinstance(v, list) and len(v) == 2:
        return complex(_number(v[0], where), _number(v[1], where))
    return _number(v, where)


# Each defect map takes one chunk of a field's values and returns an array
# whose largest |entry| is the field's defect there; ``v - v`` is NaN where
# a value is not finite and 0 elsewhere, so a non-finite field fails.

def _scalar_defect(v):
    return np.hstack([v[:, 1:], v.imag, v - v])


def _rotor_defect(v):
    uu = gp_batch(v * STA.tables.reverse_signs, v)
    return np.hstack([v[:, GRADES % 2 == 1], v.imag, uu - Multivector.scalar(1.0).coeffs])


def _grade1_defect(v):
    return np.hstack([v[:, GRADES != 1], v - v])


def _even_defect(v):
    return np.hstack([v[:, GRADES % 2 == 1], v - v])


class _FieldCheck(NamedTuple):
    """A configured field and the condition it must meet on the run grid."""

    where: str                  # its config path
    expr: FieldExpr
    must: str                   # the condition, for the message
    defect: Callable            # values -> array; the sup of its |entries| is the defect
    tol: float                  # bound on the defect
    relative: bool = False      # the bound is tol * max(1, sup|value|)


def parse_multivector(obj, where: str):
    if not isinstance(obj, dict):
        _fail(f"{where}: expected a blade table object")
    coeffs = np.zeros(16, dtype=complex)
    for k, v in obj.items():
        if k not in _BLADE_BY_NAME:
            _fail(f"{where}: unknown blade name {k!r}")
        coeffs[_BLADE_BY_NAME[k]] = _coef(v, where)
    if np.any(coeffs.imag):
        return CMultivector(coeffs)
    return Multivector(coeffs.real)


def _vec4(obj, where: str) -> np.ndarray:
    if not (isinstance(obj, list) and len(obj) == 4):
        _fail(f"{where}: expected a list of 4 numbers")
    return np.array([_number(x, where) for x in obj])


def parse_expr(obj, where: str = "expr") -> FieldExpr:
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "zero":
        return Constant(Multivector.zero())
    if kind == "constant":
        return Constant(parse_multivector(obj.get("blades", {}), where))
    if kind == "polynomial":
        terms = []
        for i, t in enumerate(_list(obj.get("terms", []), f"{where}.terms")):
            wt = f"{where}.terms[{i}]"
            if not isinstance(t, dict):
                _fail(f"{wt}: expected an object")
            blade = t.get("blade", "1")
            if blade not in _BLADE_BY_NAME:
                _fail(f"{wt}: unknown blade name {blade!r}")
            powers = t.get("powers", [0, 0, 0, 0])
            if not (isinstance(powers, list) and len(powers) == 4):
                _fail(f"{wt}: powers must be 4 integers")
            powers = [_number(p, f"{wt}.powers", integer=True) for p in powers]
            terms.append((_BLADE_BY_NAME[blade], _coef(t.get("coef", 0.0), wt), tuple(powers)))
        try:
            return Polynomial(terms)
        except ValueError as exc:
            _fail(f"{where}: {exc}")
    if kind == "rotor-wave":
        front = parse_multivector(obj.get("front", {"1": 1.0}), f"{where}.front")
        biv = parse_multivector(obj.get("bivector", {}), f"{where}.bivector")
        wave = _vec4(obj.get("wave"), f"{where}.wave")
        try:
            return rotor_wave(front, biv, wave)
        except ValueError as exc:
            _fail(f"{where}: {exc}")
    if kind == "sum":
        parts = _list(obj.get("terms", []), f"{where}.terms")
        if not parts:
            _fail(f"{where}: sum needs at least one term")
        acc = parse_expr(parts[0], f"{where}.terms[0]")
        for i, p in enumerate(parts[1:], 1):
            acc = f_sum(acc, parse_expr(p, f"{where}.terms[{i}]"))
        return acc
    if kind == "product":
        parts = _list(obj.get("factors", []), f"{where}.factors")
        if not parts:
            _fail(f"{where}: product needs at least one factor")
        acc = parse_expr(parts[0], f"{where}.factors[0]")
        for i, p in enumerate(parts[1:], 1):
            acc = f_product(acc, parse_expr(p, f"{where}.factors[{i}]"))
        return acc
    if kind == "scalar-linear":
        return ScalarLinear(_vec4(obj.get("slope"), f"{where}.slope"),
                            _number(obj.get("offset", 0.0), f"{where}.offset"))
    if kind == "scalar-sine":
        return ScalarSine(_number(obj.get("amplitude", 1.0), f"{where}.amplitude"),
                          _vec4(obj.get("wave"), f"{where}.wave"),
                          _number(obj.get("phase", 0.0), f"{where}.phase"))
    if kind == "scalar-gaussian":
        return ScalarGaussian(_number(obj.get("amplitude", 1.0), f"{where}.amplitude"),
                              _vec4(obj.get("widths"), f"{where}.widths"),
                              _vec4(obj.get("center"), f"{where}.center"))
    if kind == "exp-bivector":
        biv = parse_multivector(obj.get("bivector", {}), f"{where}.bivector")
        s = parse_expr(obj.get("scalar", {"kind": "zero"}), f"{where}.scalar")
        try:
            return BivectorExp(biv, s)
        except ValueError as exc:
            _fail(f"{where}: {exc}")
    if kind == "const-rotor":
        biv = parse_multivector(obj.get("bivector", {}), f"{where}.bivector")
        s = _number(obj.get("parameter", 1.0), f"{where}.parameter")
        try:
            return Constant(exp_bivector(s * biv))
        except ValueError as exc:
            _fail(f"{where}: {exc}")
    _fail(f"{where}: unknown expression kind {kind!r}")


class Scenario:
    """Validated scenario with its constructed objects."""

    def __init__(self, cfg: dict):
        if not isinstance(cfg, dict):
            _fail("configuration root must be an object")
        self.name = cfg.get("name")
        if not isinstance(self.name, str) or not self.name:
            _fail("scenario needs a nonempty 'name'")
        if self.name in (".", "..") or any(ch in self.name for ch in "/\\\0"):
            _fail(f"name must be a single file-name component (no '/', '\\' or NUL, "
                  f"not '.' or '..'), got {self.name!r}")
        try:
            os.fsencode(self.name)
        except UnicodeEncodeError:
            _fail(f"name must be encodable as a file name, got {self.name!r}")

        chart_cfg = _object(cfg.get("chart", {"lo": [0, 0, 0, 0], "hi": [1, 1, 1, 1]}), "chart")
        lo = _vec4(chart_cfg.get("lo"), "chart.lo")
        hi = _vec4(chart_cfg.get("hi"), "chart.hi")
        try:
            self.chart = Chart(lo, hi)
        except ValueError as exc:
            _fail(f"chart: {exc}")

        self.grid = _number(cfg.get("grid", 9), "grid", integer=True)
        if self.grid < 2:
            _fail("grid must be at least 2")
        self.transport_steps = _number(cfg.get("transport_steps", 256), "transport_steps",
                                       integer=True)
        if self.transport_steps < 1:
            _fail("transport_steps must be >= 1")
        self.seed = _number(cfg.get("seed", 0), "seed", integer=True)
        if self.seed < 0:
            _fail("seed must be nonnegative")

        rows = [row for _, _, table in SUITES.values() for row in table]
        expectable = [row.name for row in rows if row.expectable]
        tol_cfg = _object(cfg.get("tolerances", {}), "tolerances")
        self.tolerances = {k: _number(v, f"tolerances[{k!r}]") for k, v in tol_cfg.items()}
        for k, v in self.tolerances.items():
            if k not in {row.name for row in rows}:
                _fail(f"tolerances[{k!r}]: no check of that name in the catalog")
            if v <= 0:
                _fail(f"tolerances[{k!r}] must be a positive number")

        expected_cfg = _object(cfg.get("expected", {}), "expected")
        self.expected = {k: _number(v, f"expected[{k!r}]") for k, v in expected_cfg.items()}
        for k in self.expected:
            if k not in expectable:
                _fail(f"expected[{k!r}]: not one of the residual checks that read an "
                      f"expected value ({', '.join(expectable)})")

        suites = cfg.get("suites", list(SUITES))
        if not isinstance(suites, list) or not suites:
            _fail("suites must be a nonempty list")
        for s in suites:
            if not isinstance(s, str) or s not in SUITES:
                raise UnknownSuite(f"unknown suite {s!r}")
        self.suites = list(dict.fromkeys(suites))

        self._checks: list[_FieldCheck] = []
        self.setup, self.frame_rotor = self._build_setup(cfg)

        params_cfg = _object(cfg.get("params", {"mass": 1.0, "charge": 0.0}), "params")
        mass = _number(params_cfg.get("mass", 1.0), "params.mass")
        charge = _number(params_cfg.get("charge", 0.0), "params.charge")
        if mass < 0:
            _fail("params.mass must be a nonnegative number")
        pot_cfg = params_cfg.get("potential", {"kind": "zero"})
        pot = parse_expr(pot_cfg, "params.potential")
        self._checks.append(_FieldCheck("params.potential", pot, "finite and grade 1",
                                        _grade1_defect, 1e-10))
        self.params = DiracParams(mass, charge, CliffordField(pot))

        self.unknown = self._build_unknown(
            _object(cfg.get("unknown", {"type": "plane-wave"}), "unknown"))
        self._check_fields(self.chart.grid(self.grid))

    def _check_fields(self, xs):
        """Raise ``ConfigError`` for the first recorded field that fails its condition on xs."""
        residuals = []
        for i, chk in enumerate(self._checks):
            residuals.append(((i, "defect"), (chk.expr,), chk.defect))
            if chk.relative:
                residuals.append(((i, "size"), (chk.expr, None)))
        # a field that overflows fails through its NaN defect, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            worst = fold_sups({}, residuals, xs)
        for i, chk in enumerate(self._checks):
            defect = worst[i, "defect"]
            bound = chk.tol * max(1.0, worst[i, "size"]) if chk.relative else chk.tol
            if not defect <= bound:  # a NaN fails
                _fail(f"{chk.where} must be {chk.must} at every point of the run grid, "
                      f"but its defect reaches {defect:.3e} (bound {bound:.3e})")

    def _build_setup(self, cfg):
        conn_cfg = _object(cfg.get("connection", {"type": "zero"}), "connection")
        ctype = conn_cfg.get("type")
        if ctype == "zero":
            conn = ConnectionField.zero()
        elif ctype == "table":
            gamma = {}
            for i, ent in enumerate(_list(conn_cfg.get("entries", []), "connection.entries")):
                we = f"connection.entries[{i}]"
                ent = _object(ent, we)
                a, b, c = (_number(ent.get(k), f"{we}.{k}", integer=True) for k in "abc")
                if not all(0 <= i_ < 4 for i_ in (a, b, c)) or b >= c:
                    _fail(f"{we}: indices must satisfy 0 <= a < 4 and b < c")
                if (a, b, c) in gamma:
                    _fail(f"{we}: duplicate entry for ({a},{b},{c})")
                gamma[a, b, c] = parse_expr(ent.get("expr"), f"{we}.expr")
                self._checks.append(_FieldCheck(f"{we}.expr", gamma[a, b, c],
                                                "a finite real scalar", _scalar_defect, 1e-10))
            conn = ConnectionField(gamma)
        else:
            _fail(f"connection.type must be 'zero' or 'table', got {ctype!r}")

        frame_cfg = _object(cfg.get("frame", {"type": "fiducial"}), "frame")
        ftype = frame_cfg.get("type")
        base = SpacetimeSetup(self.chart, conn)
        if ftype == "fiducial":
            return base, None
        if ftype == "rotor":
            rot = parse_expr(frame_cfg.get("expr"), "frame.expr")
            self._checks.append(_FieldCheck("frame.expr", rot, "a finite real rotor",
                                            _rotor_defect, 1e-9))
            return change_spin_frame(rot, base).setup, rot
        _fail(f"frame.type must be 'fiducial' or 'rotor', got {ftype!r}")

    def _build_unknown(self, cfg) -> Field:
        utype = cfg.get("type", "expr")
        if utype == "plane-wave":
            boost_cfg = cfg.get("boost")
            boost = None
            if boost_cfg is not None:
                b = parse_expr(boost_cfg, "unknown.boost")
                if not isinstance(b, Constant) or isinstance(b.value, CMultivector):
                    _fail("unknown.boost must be a constant real rotor")
                boost = b.value
            try:
                psi = make_plane_wave(self.params.mass, boost)
            except StaError as exc:
                _fail(f"unknown.boost: {exc}")
        elif utype == "constant-one":
            psi = CliffordField(Constant(Multivector.scalar(1.0)))
        elif utype == "expr":
            psi = CliffordField(parse_expr(cfg.get("expr"), "unknown.expr"))
        else:
            _fail(f"unknown.type must be 'plane-wave', 'constant-one' or 'expr'")
        self._checks.append(_FieldCheck("unknown.expr" if utype == "expr" else "unknown",
                                        psi.expr, "finite and even", _even_defect, 1e-10,
                                        relative=True))
        return psi

    def tol(self, name: str, default: float) -> float:
        return self.tolerances.get(name, default)


def load_config(path_or_name: str) -> dict:
    """Load a config from a file, falling back to the built-in scenarios."""
    p = Path(path_or_name)
    if p.is_file():
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path_or_name!r}: {exc}") from exc
    else:
        builtin = resources.files("sta").joinpath(f"scenarios/{path_or_name}.json")
        if not builtin.is_file():
            raise ConfigError(
                f"no config file {path_or_name!r} and no built-in scenario of that name"
            )
        text = builtin.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config does not parse as JSON: {exc}") from exc


def builtin_scenario_names() -> list[str]:
    base = resources.files("sta").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in base.iterdir() if p.name.endswith(".json"))
