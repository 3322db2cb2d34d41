"""Scenario configuration: schema, validation and object construction.

A scenario is a JSON object with the following fields (defaults in
brackets; see the README for the full schema):

  name              string, the report file name stem: one file-name
                    component (no "/", "\\" or NUL, not "." or "..") that
                    the file system can encode
  chart             {"lo": [4 floats], "hi": [4 floats], "fd_step": float}
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
builds are checked here, once, and the builders downstream check nothing:
a table connection must be antisymmetric (``NotAntisymmetric``), a frame
expression a rotor field (``NotRotor``), the potential finite and grade 1
(``ConfigError``), and the unknown finite and even at every point of the
run grid (``NotEven``), the points the dirac-triad suite evaluates.  Each
check samples under ``np.errstate``, so a field that overflows fails the
check instead of warning.

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

import numpy as np

from .algebra import CMultivector, Multivector, exp_bivector
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
    f_scale,
    f_sum,
    rotor_wave,
)
from .geometry import (
    Chart,
    ConnectionField,
    SpacetimeSetup,
    change_spin_frame,
    require_even,
    validate_rotor,
)
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
        fd = _number(chart_cfg.get("fd_step", 1e-3), "chart.fd_step")
        try:
            self.chart = Chart(lo, hi, fd)
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

        self.setup, self.frame_rotor = self._build_setup(cfg)

        params_cfg = _object(cfg.get("params", {"mass": 1.0, "charge": 0.0}), "params")
        mass = _number(params_cfg.get("mass", 1.0), "params.mass")
        charge = _number(params_cfg.get("charge", 0.0), "params.charge")
        if mass < 0:
            _fail("params.mass must be a nonnegative number")
        pot_cfg = params_cfg.get("potential", {"kind": "zero"})
        pot = CliffordField(parse_expr(pot_cfg, "params.potential"))
        self.params = DiracParams(mass, charge, pot)
        try:
            self.params.validate_grade1(self.setup)
        except ValueError as exc:
            _fail(f"params.potential: {exc}")

        self.unknown = self._build_unknown(
            _object(cfg.get("unknown", {"type": "plane-wave"}), "unknown"))
        require_even(self.unknown, self.chart.grid(self.grid), label="unknown")

    def _build_setup(self, cfg):
        conn_cfg = _object(cfg.get("connection", {"type": "zero"}), "connection")
        ctype = conn_cfg.get("type")
        if ctype == "zero":
            conn = ConnectionField.zero()
        elif ctype == "table":
            gamma = [[[None] * 4 for _ in range(4)] for _ in range(4)]
            for i, ent in enumerate(_list(conn_cfg.get("entries", []), "connection.entries")):
                we = f"connection.entries[{i}]"
                ent = _object(ent, we)
                a, b, c = (_number(ent.get(k), f"{we}.{k}", integer=True) for k in "abc")
                if not all(0 <= i_ < 4 for i_ in (a, b, c)) or b >= c:
                    _fail(f"{we}: indices must satisfy 0 <= a < 4 and b < c")
                if gamma[a][b][c] is not None:
                    _fail(f"{we}: duplicate entry for ({a},{b},{c})")
                e = parse_expr(ent.get("expr"), f"{we}.expr")
                gamma[a][b][c] = e
                gamma[a][c][b] = f_scale(-1.0, e)
            conn = ConnectionField(gamma)
            conn.validate_antisymmetry(self.chart)
        else:
            _fail(f"connection.type must be 'zero' or 'table', got {ctype!r}")

        frame_cfg = _object(cfg.get("frame", {"type": "fiducial"}), "frame")
        ftype = frame_cfg.get("type")
        base = SpacetimeSetup(self.chart, conn)
        if ftype == "fiducial":
            return base, None
        if ftype == "rotor":
            rot = parse_expr(frame_cfg.get("expr"), "frame.expr")
            validate_rotor(rot, self.chart)
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
                return make_plane_wave(self.params.mass, boost)
            except StaError as exc:
                _fail(f"unknown.boost: {exc}")
        if utype == "constant-one":
            return CliffordField(Constant(Multivector.scalar(1.0)))
        if utype == "expr":
            return CliffordField(parse_expr(cfg.get("expr"), "unknown.expr"))
        _fail(f"unknown.type must be 'plane-wave', 'constant-one' or 'expr'")

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
