"""Scenario configuration: schema, validation and object construction.

A scenario is a JSON object, and README's "Scenario schema" section is its
reference.  Each object of the schema declares its keys once, in a table
here: ``_ROOT``, ``_CHART``, ``_PARAMS``, ``_ENTRY`` (a connection entry)
and ``_TERM`` (a polynomial term) map each key to its reader and default,
and ``_CONNECTIONS``, ``_FRAMES``, ``_UNKNOWNS`` (by ``type``) and
``_EXPR_KINDS`` (by ``kind``) map each variant to its builder and its keys.
``_read`` reads an object by its table and ``_variant`` builds the variant
its tag names; nothing else reads a config object.  A key that no table
names, a value that its reader refuses and an expression nested more than
``EXPR_DEPTH_MAX`` deep are each a ``ConfigError``.

This is where data from outside the program enters, so the fields it
builds are checked here, once, and the builders downstream check nothing.
A table connection gives only its coefficients with b < c, so it is
antisymmetric by construction.  While the configuration is parsed, each
field it configures is recorded with its config path and its condition:
every connection entry a finite real scalar, the frame expression a finite
real rotor (no odd part, |u~ u - 1| <= 1e-9), the potential finite
and grade 1 (within 1e-10), and the unknown finite and even (within
1e-10 max(1, sup|psi|)).  Once everything has parsed, one ``fold_sups``
call measures every condition's defect at every point of the run grid,
the points the field suites evaluate.  The whole build runs under one
numpy error state, so a value that overflows fails its check instead of
warning.  The first field that fails raises one ``ConfigError`` naming its
config path and the measured defect.  The transport suite evaluates the
connection along curves between the grid points, which no check samples.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial, reduce
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (DIM, GRADES, REVERSE_SIGNS, CMultivector, Multivector, blade_name,
                      exp_bivector, gp_batch)
from .errors import ConfigError, StaError, UnknownSuite
from .fields import (BivectorExp, CliffordField, Constant, FieldExpr, Polynomial, ScalarGaussian,
                     ScalarLinear, ScalarSine, f_product, f_sum, fold_sups, rotor_wave)
from .geometry import Chart, ConnectionField, SpacetimeSetup, change_spin_frame
from .dirac import DiracParams, make_plane_wave
from .suites import SUITES

_BLADE_BY_NAME = {blade_name(mask): mask for mask in range(DIM)}
# Caps on the sizes that set a run's arrays, checked before any is built: a
# grid has at most GRID_MAX^4 points (16.8 M, 0.5 GB of coordinates), and a
# transport evaluates omega at 2 * steps + 1 points per curve.  Expressions
# nest at most EXPR_DEPTH_MAX deep, checked before one is built.
GRID_MAX = 64
TRANSPORT_STEPS_MAX = 65536
EXPR_DEPTH_MAX = 64


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


def _bounded(v, where: str, lo, hi=math.inf, integer: bool = True):
    """An integer from lo to hi (a finite number, unless ``integer``)."""
    x = _number(v, where, integer)
    if not lo <= x <= hi:
        _fail(f"{where} must be {f'between {lo} and {hi}' if hi < math.inf else f'at least {lo}'}"
              f", got {x}")
    return x


def _object(v, where: str) -> dict:
    if not isinstance(v, dict):
        _fail(f"{where} must be an object")
    return v


def _list(v, where: str, nonempty: bool = False) -> list:
    if not isinstance(v, list) or nonempty and not v:
        _fail(f"{where} must be a {'nonempty ' if nonempty else ''}list")
    return v


def _read(obj, where: str, spec: dict) -> list:
    """The values of the config object ``obj`` at path ``where`` ("" for the root), in
    the order of ``spec``, which maps each key it accepts to ``(reader, default)``: a
    reader takes ``(value, config path)``.  A missing key reads its default, and a default
    of None makes it required (only the boost's reader takes None).  Other keys fail."""
    label = where or "configuration root"
    for key in _object(obj, label):
        if key not in spec:
            _fail(f"{label}: unknown key {key!r} (expected {', '.join(spec)})")
    return [reader(obj.get(key, default), f"{where}.{key}" if where else key)
            for key, (reader, default) in spec.items()]


def _variant(obj, where: str, tag: str, table: dict, *args, default=None):
    """Build the variant of ``obj`` its ``tag`` names: ``table`` maps each tag value to
    ``(builder, spec)``, and the builder gets ``args``, then the values read by ``spec``."""
    value = _object(obj, where).get(tag, default)
    if not (isinstance(value, str) and value in table):
        _fail(f"{where}.{tag} must be one of {', '.join(table)}, got {value!r}")
    builder, spec = table[value]
    return builder(*args, *_read(obj, where, {tag: (lambda v, w: v, None), **spec})[1:])


def _coef(v, where: str):
    if isinstance(v, list) and len(v) == 2:
        return complex(_number(v[0], where), _number(v[1], where))
    return _number(v, where)


def _blade(v, where: str) -> int:
    if not (isinstance(v, str) and v in _BLADE_BY_NAME):
        _fail(f"{where}: unknown blade name {v!r}")
    return _BLADE_BY_NAME[v]


def _vec4(obj, where: str, integer: bool = False):
    """4 numbers as an array, or 4 integers as a tuple."""
    if not (isinstance(obj, list) and len(obj) == 4):
        _fail(f"{where}: expected a list of 4 {'integers' if integer else 'numbers'}")
    xs = [_number(x, where, integer) for x in obj]
    return tuple(xs) if integer else np.array(xs)


def parse_multivector(obj, where: str):
    if not isinstance(obj, dict):
        _fail(f"{where}: expected a blade table object")
    coeffs = np.zeros(16, dtype=complex)
    for k, v in obj.items():
        coeffs[_blade(k, where)] = _coef(v, where)
    return CMultivector(coeffs) if np.any(coeffs.imag) else Multivector(coeffs.real)


def _depth(obj) -> int:
    """The most expressions (objects with a "kind") on one path down ``obj``, by a loop."""
    deepest, todo = 0, [(obj, 0)]
    while todo:
        v, d = todo.pop()
        d += isinstance(v, dict) and "kind" in v
        deepest = max(deepest, d)
        items = v.values() if isinstance(v, dict) else v if isinstance(v, list) else ()
        todo += [(x, d) for x in items]
    return deepest


def parse_expr(obj, where: str = "expr") -> FieldExpr:
    depth = _depth(obj)
    if depth > EXPR_DEPTH_MAX:
        _fail(f"{where}: expressions nest {depth} deep, more than {EXPR_DEPTH_MAX}")
    try:
        return _variant(obj, where, "kind", _EXPR_KINDS)
    except ValueError as exc:  # a builder refused its arguments
        _fail(f"{where}: {exc}")


_TERM = {"blade": (_blade, "1"), "coef": (_coef, 0.0),
         "powers": (partial(_vec4, integer=True), [0, 0, 0, 0])}
_BLADES = (parse_multivector, {})
_EXPRS = (lambda v, w: [parse_expr(x, f"{w}[{i}]") for i, x in enumerate(_list(v, w, True))], None)
# Each expression kind: its builder, and its fields in the builder's argument order.
_EXPR_KINDS = {
    "zero": (lambda: Constant(Multivector.zero()), {}),
    "constant": (Constant, {"blades": _BLADES}),
    "polynomial": (Polynomial, {"terms": (lambda v, w: [
        tuple(_read(t, f"{w}[{i}]", _TERM)) for i, t in enumerate(_list(v, w))], [])}),
    "rotor-wave": (rotor_wave, {"front": (parse_multivector, {"1": 1.0}), "bivector": _BLADES,
                                "wave": (_vec4, None)}),
    "sum": (lambda terms: f_sum(*terms), {"terms": _EXPRS}),
    "product": (lambda factors: reduce(f_product, factors), {"factors": _EXPRS}),
    "scalar-linear": (ScalarLinear, {"slope": (_vec4, None), "offset": (_number, 0.0)}),
    "scalar-sine": (ScalarSine, {"amplitude": (_number, 1.0), "wave": (_vec4, None),
                                 "phase": (_number, 0.0)}),
    "scalar-gaussian": (ScalarGaussian, {"amplitude": (_number, 1.0), "widths": (_vec4, None),
                                         "center": (_vec4, None)}),
    "exp-bivector": (BivectorExp, {"bivector": _BLADES, "scalar": (parse_expr, {"kind": "zero"})}),
    "const-rotor": (lambda bivector, s: Constant(exp_bivector(s * bivector)),
                    {"bivector": _BLADES, "parameter": (_number, 1.0)}),
}


# Each defect map takes one chunk of a field's values and returns an array
# whose largest |entry| is the field's defect there; ``v - v`` is NaN where
# a value is not finite and 0 elsewhere, so a non-finite field fails.

def _scalar_defect(v):
    return np.hstack([v[:, 1:], v.imag, v - v])


def _rotor_defect(v):
    uu = gp_batch(v * REVERSE_SIGNS, v)
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


def _field(must: str, defect: Callable, tol: float, relative: bool = False):
    """A reader of an expression that must meet a condition: it gives its ``_FieldCheck``."""
    return lambda v, where: _FieldCheck(where, parse_expr(v, where), must, defect, tol, relative)


def _entries(v, where: str) -> dict:
    """A table connection's entries, as {(a, b, c): the check of its expression}."""
    gamma = {}
    for i, ent in enumerate(_list(v, where)):
        we = f"{where}[{i}]"
        a, b, c, expr = _read(ent, we, _ENTRY)
        if b >= c:
            _fail(f"{we}: indices must satisfy b < c")
        if (a, b, c) in gamma:
            _fail(f"{we}: duplicate entry for ({a},{b},{c})")
        gamma[a, b, c] = expr
    return gamma


def _boost(v, where: str):
    b = None if v is None else parse_expr(v, where)  # None: the rest-frame wave
    if b is not None and (not isinstance(b, Constant) or isinstance(b.value, CMultivector)):
        _fail(f"{where} must be a constant real rotor")
    return None if b is None else b.value


def _plane_wave(mass: float, boost) -> _FieldCheck:
    try:
        return _FieldCheck("unknown", make_plane_wave(mass, boost).expr, *_EVEN)
    except StaError as exc:
        _fail(f"unknown.boost: {exc}")


_ENTRY = {**{k: (partial(_bounded, lo=0, hi=3), None) for k in "abc"},
          "expr": (_field("a finite real scalar", _scalar_defect, 1e-10), None)}
# a connection builder gives {(a, b, c): the check of that entry's expression}
_CONNECTIONS = {"zero": (dict, {}), "table": (lambda gamma: gamma, {"entries": (_entries, [])})}
# a frame builder takes the setup it is seen from, and gives its own and its rotor's check
_FRAMES = {"fiducial": (lambda base: (base, None), {}),
           "rotor": (lambda base, rot: (change_spin_frame(rot.expr, base).setup, rot),
                     {"expr": (_field("a finite real rotor", _rotor_defect, 1e-9), None)})}
_PARAMS = {"mass": (partial(_bounded, lo=0, integer=False), 1.0), "charge": (_number, 0.0),
           "potential": (_field("finite and grade 1", _grade1_defect, 1e-10), {"kind": "zero"})}
# an unknown builder takes the mass, and gives the check of its field
_EVEN = ("finite and even", _even_defect, 1e-10, True)
_UNKNOWNS = {
    "plane-wave": (_plane_wave, {"boost": (_boost, None)}),
    "constant-one": (lambda m: _FieldCheck("unknown", Constant(Multivector.scalar(1.0)), *_EVEN),
                     {}),
    "expr": (lambda m, psi: psi, {"expr": (_field(*_EVEN), None)}),
}


def _name(v, where: str) -> str:
    if not isinstance(v, str) or not v:
        _fail("scenario needs a nonempty 'name'")
    if v in (".", "..") or any(ch in v for ch in "/\\\0"):
        _fail(f"name must be a single file-name component (no '/', '\\' or NUL, "
              f"not '.' or '..'), got {v!r}")
    try:
        os.fsencode(v)
    except UnicodeEncodeError:
        _fail(f"name must be encodable as a file name, got {v!r}")
    return v


def _chart(v, where: str) -> Chart:
    try:
        return Chart(*_read(v, where, _CHART))
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def _by_check(names, why: str, positive: bool = False):
    """A reader of a {check-name: number} object whose keys are among ``names``."""
    def read(v, where: str) -> dict:
        values = {k: _number(x, f"{where}[{k!r}]") for k, x in _object(v, where).items()}
        for k, x in values.items():
            if k not in names:
                _fail(f"{where}[{k!r}]: {why}")
            if positive and x <= 0:
                _fail(f"{where}[{k!r}] must be a positive number")
        return values
    return read


def _suites(v, where: str) -> list:
    for s in _list(v, where, nonempty=True):
        if not isinstance(s, str) or s not in SUITES:
            raise UnknownSuite(f"unknown suite {s!r}")
    return list(dict.fromkeys(v))


_CHART = {"lo": (_vec4, None), "hi": (_vec4, None)}
_ROWS = [row for _, _, table in SUITES.values() for row in table]
_EXPECTABLE = [row.name for row in _ROWS if row.expectable]
_ROOT = {
    "name": (_name, None),
    "chart": (_chart, {"lo": [0, 0, 0, 0], "hi": [1, 1, 1, 1]}),
    "grid": (partial(_bounded, lo=2, hi=GRID_MAX), 9),
    "transport_steps": (partial(_bounded, lo=1, hi=TRANSPORT_STEPS_MAX), 256),
    "seed": (partial(_bounded, lo=0), 0),
    "tolerances": (_by_check({row.name for row in _ROWS}, "no check of that name in the catalog",
                             positive=True), {}),
    "expected": (_by_check(_EXPECTABLE, "not one of the residual checks that read an expected "
                           f"value ({', '.join(_EXPECTABLE)})"), {}),
    "suites": (_suites, list(SUITES)),
    # the sections that build fields, read in this order after the rest
    "connection": (_object, {"type": "zero"}),
    "frame": (_object, {"type": "fiducial"}),
    "params": (_object, {}),
    "unknown": (_object, {"type": "plane-wave"}),
}


class Scenario:
    """Validated scenario with its constructed objects."""

    # a value that overflows while it is parsed or checked fails its check, not a warning
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, cfg: dict):
        (self.name, self.chart, self.grid, self.transport_steps, self.seed, self.tolerances,
         self.expected, self.suites, conn_cfg, frame_cfg, params_cfg, unknown_cfg,
         ) = _read(cfg, "", _ROOT)
        gamma = _variant(conn_cfg, "connection", "type", _CONNECTIONS)
        base = SpacetimeSetup(self.chart, ConnectionField({k: c.expr for k, c in gamma.items()}))
        self.setup, rot = _variant(frame_cfg, "frame", "type", _FRAMES, base)
        self.frame_rotor = rot.expr if rot else None
        mass, charge, pot = _read(params_cfg, "params", _PARAMS)
        self.params = DiracParams(mass, charge, CliffordField(pot.expr))
        psi = _variant(unknown_cfg, "unknown", "type", _UNKNOWNS, mass, default="expr")
        self.unknown = CliffordField(psi.expr)
        self._check_fields([*gamma.values(), *([rot] if rot else []), pot, psi],
                           self.chart.grid(self.grid))

    @staticmethod
    def _check_fields(checks: list[_FieldCheck], xs):
        """Raise ``ConfigError`` for the first field that fails its condition on xs."""
        residuals = []
        for i, chk in enumerate(checks):
            residuals.append(((i, "defect"), (chk.expr,), chk.defect))
            if chk.relative:
                residuals.append(((i, "size"), (chk.expr, None)))
        worst = fold_sups(residuals, xs)
        for i, chk in enumerate(checks):
            defect = worst[i, "defect"]
            bound = chk.tol * max(1.0, worst[i, "size"]) if chk.relative else chk.tol
            if not defect <= bound:  # a NaN fails
                _fail(f"{chk.where} must be {chk.must} at every point of the run grid, "
                      f"but its defect reaches {defect:.3e} (bound {bound:.3e})")

    def tol(self, name: str, default: float) -> float:
        return self.tolerances.get(name, default)


def load_config(path_or_name: str) -> dict:
    """Load a config object from a file, falling back to the built-in scenarios."""
    p = Path(path_or_name)
    if p.is_file():
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path_or_name!r}: {exc}") from exc
    else:
        builtin = resources.files("sta").joinpath(f"scenarios/{path_or_name}.json")
        if not builtin.is_file():
            raise ConfigError(f"no config file {path_or_name!r} and no built-in scenario "
                              "of that name")
        text = builtin.read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # it recurses once per level
        raise ConfigError(f"config does not parse as JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        _fail("configuration root must be an object")
    return cfg


def builtin_scenario_names() -> list[str]:
    base = resources.files("sta").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in base.iterdir() if p.name.endswith(".json"))
