"""Scenario validation, CLI exit codes, report determinism."""

import ast
import contextlib
import functools
import gc
import io
import json
import operator
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sta import cli
from sta.cli import main
from sta.errors import ConfigError, UnknownSuite
from sta.geometry import Chart
from sta.report import Check, Report
from sta.scenario import Scenario, builtin_scenario_names, load_config, parse_expr

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sta.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def run_cli_to_closed_stdout(*args, cwd):
    """Run the CLI with a standard output whose reader is gone before it writes a byte."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "sta.cli", *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, cwd=cwd, timeout=120)
    finally:
        os.close(write_end)


def small(cfg, grid=3):
    cfg = dict(cfg)
    cfg["grid"] = grid
    return cfg


def test_builtin_scenarios_exist():
    names = builtin_scenario_names()
    assert names == sorted([
        "boosted-plane-wave", "gauge-sine", "lorentz-local-rotor",
        "minkowski-plane-wave", "torsion-toy",
    ])
    for n in names:
        Scenario(small(load_config(n)))  # parses and validates


def test_unknown_scenario_name():
    with pytest.raises(ConfigError):
        load_config("no-such-scenario")


def test_config_path_must_be_a_readable_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "minkowski-plane-wave").mkdir()  # a directory does not shadow the built-in
    assert load_config("minkowski-plane-wave")["name"] == "minkowski-plane-wave"
    (tmp_path / "latin1.json").write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("latin1.json")


def test_validation_errors():
    base = load_config("minkowski-plane-wave")
    bad = dict(base)
    bad["tolerances"] = {"representative-residual": -1.0}
    with pytest.raises(ConfigError):
        Scenario(bad)
    for suites in (["dirac-triad", "nope"], ["dirac-triad", ["algebra"]]):
        bad = dict(base)
        bad["suites"] = suites
        with pytest.raises(UnknownSuite):
            Scenario(bad)
    bad = dict(base)
    bad["chart"] = {"lo": [0, 0, 0, 0], "hi": [0, 1, 1, 1]}
    with pytest.raises(ConfigError):
        Scenario(bad)
    bad = dict(base)
    bad["unknown"] = {"type": "expr", "expr": {"kind": "warp-field"}}
    with pytest.raises(ConfigError):
        Scenario(bad)


def test_expression_parsing_errors():
    with pytest.raises(ConfigError):
        parse_expr({"kind": "constant", "blades": {"e9": 1.0}})
    with pytest.raises(ConfigError):
        parse_expr({"kind": "polynomial", "terms": [{"blade": "1", "coef": 1.0,
                                                     "powers": [4, 0, 0, 0]}]})
    with pytest.raises(ConfigError):
        parse_expr({"kind": "scalar-linear", "slope": [1, 2]})


def test_exit_code_zero(tmp_path):
    r = run_cli("run", "minkowski-plane-wave", "--grid", "3",
                "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    report = json.loads((tmp_path / "minkowski-plane-wave.report.json").read_text())
    assert report["passed"] is True
    assert report["summary"]["failed"] == 0


def test_exit_code_one_on_failing_check(tmp_path):
    r = run_cli("run", str(FIXTURES / "failing-mass-term.json"),
                "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 1, r.stdout + r.stderr
    report = json.loads((tmp_path / "failing-mass-term.report.json").read_text())
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "representative-residual" in failed


@pytest.mark.parametrize("config, status", [
    ("minkowski-plane-wave", 0),
    (str(FIXTURES / "failing-mass-term.json"), 1),
])
def test_closed_stdout_keeps_the_run_status(tmp_path, config, status):
    r = run_cli_to_closed_stdout("run", config, "--grid", "2", "--report-dir", str(tmp_path),
                                 cwd=tmp_path)
    assert r.returncode == status, r.stderr
    assert r.stderr == ""
    assert list(tmp_path.glob("*.report.json"))


def test_closed_stdout_keeps_the_list_suites_status(tmp_path):
    r = run_cli_to_closed_stdout("list-suites", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


def test_exit_code_two_on_config_error(tmp_path):
    r = run_cli("run", str(FIXTURES / "bad-tolerance.json"),
                "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 2
    assert "configuration error" in r.stderr
    assert not list(tmp_path.glob("*.report.json"))  # no report written


@pytest.mark.parametrize("value", ["abc", "0", "2"])
def test_verify_threads_is_no_longer_read(tmp_path, monkeypatch, value):
    # suites always run one after another; the variable, valid or not, changes nothing
    monkeypatch.delenv("VERIFY_THREADS", raising=False)
    runs = {}
    for label in ("unset", "set"):
        if label == "set":
            monkeypatch.setenv("VERIFY_THREADS", value)
        code, lines = _main("run", "minkowski-plane-wave", "--grid", "3",
                            "--report-dir", str(tmp_path / label))
        assert code == 0, lines
        assert lines == []  # nothing on stderr
        runs[label] = (tmp_path / label / "minkowski-plane-wave.report.json").read_bytes()
    assert runs["set"] == runs["unset"]


def _set(section, **values):
    return lambda cfg: cfg[section].update(values) if section else cfg.update(values)


def _unknown_expr(expr):
    return _set(None, unknown={"type": "expr", "expr": expr})


# exp(e01 s) with s = 1000 sin(3 pi x0): a rotor, 1 where s vanishes and cosh(1000) at x0 = 1/2
_COSH_OVERFLOW = {"kind": "exp-bivector", "bivector": {"e01": 1}, "scalar": {
    "kind": "scalar-sine", "amplitude": 1000, "wave": [3 * np.pi, 0, 0, 0]}}

BAD_CONFIGS = {
    "grid-string": _set(None, grid="abc"),
    "grid-bool": _set(None, grid=True),
    "seed-float": _set(None, seed=1.5),
    "chart-bound-nan": _set("chart", lo=[float("nan"), 0, 0, 0]),
    "expected-string": _set(None, expected={"x": "abc"}),
    "connection-not-object": _set(None, connection="zero"),
    "tolerance-nan": _set(None, tolerances={"associativity": float("nan")}),
    "mass-bool": _set("params", mass=True),
    "mass-nan": _set("params", mass=float("nan")),
    "expr-amplitude-string": _unknown_expr(
        {"kind": "scalar-sine", "amplitude": "x", "wave": [1, 0, 0, 0]}),
    "expr-coef-infinite": _unknown_expr(
        {"kind": "polynomial", "terms": [{"blade": "1", "coef": float("inf")}]}),
    "expr-power-float": _unknown_expr(
        {"kind": "polynomial", "terms": [{"blade": "1", "coef": 1.0, "powers": [1.5, 0, 0, 0]}]}),
    "tolerance-misspelled-check": _set(None, tolerances={"asociativity": 1e-30}),
    "tolerance-empty-check-name": _set(None, tolerances={"": 1.0}),
    "expected-non-residual-check": _set(None, expected={"associativity": 5.0}),
    # preconditions that fail while the scenario is built, not while a suite runs
    "frame-not-a-rotor": _set(None, frame={
        "type": "rotor", "expr": {"kind": "constant", "blades": {"e1": 1}}}),
    "connection-entry-overflows": _set(None, connection={"type": "table", "entries": [
        {"a": 0, "b": 1, "c": 2,
         "expr": {"kind": "scalar-linear", "slope": [1e308, 0, 0, 0], "offset": 1e308}}]}),
    "frame-rotor-series-diverges": _set(None, frame={"type": "rotor", "expr": {
        "kind": "const-rotor", "bivector": {"e01": 1, "e12": 0.5, "e23": 0.3},
        "parameter": 200}}),
    "frame-rotor-overflows": _set(None, frame={"type": "rotor", "expr": {
        "kind": "exp-bivector", "bivector": {"e12": 1},
        "scalar": {"kind": "scalar-linear", "slope": [1e308, 0, 0, 0], "offset": 1e308}}}),
    # finite at x0 = 0, 1/3, 2/3 and 1, overflowing at x0 = 1/2 of the run grid
    "connection-entry-overflows-between-thirds": _set(None, connection={
        "type": "table", "entries": [{"a": 0, "b": 1, "c": 2, "expr": _COSH_OVERFLOW}]}),
    "frame-rotor-overflows-between-thirds": _set(None, frame={
        "type": "rotor", "expr": _COSH_OVERFLOW}),
    # the potential and the unknown are checked when the scenario is built, whatever suites run
    "potential-overflows": _set("params", potential={"kind": "polynomial", "terms": [
        {"blade": "e0", "coef": 1e308, "powers": [1, 0, 0, 0]},
        {"blade": "e0", "coef": 1e308}]}),
    "unknown-overflows": _unknown_expr({  # finite on the 3-point grid, overflowing between
        "kind": "exp-bivector", "bivector": {"e01": 1}, "scalar": {
            "kind": "scalar-sine", "amplitude": 1000, "wave": [6.283185307179586, 0, 0, 0]}}),
    "unknown-odd": _unknown_expr({"kind": "constant", "blades": {"e1": 1}}),
    # values that overflow while the scenario is parsed, before any field is checked
    "boost-rotor-overflows": _set(None, unknown={"type": "plane-wave", "boost": {
        "kind": "const-rotor", "bivector": {"e01": 800}}}),
    "boost-constant-squares-to-inf": _set(None, unknown={"type": "plane-wave", "boost": {
        "kind": "constant", "blades": {"1": 1e200}}}),
    "frame-const-rotor-overflows": _set(None, frame={"type": "rotor", "expr": {
        "kind": "const-rotor", "bivector": {"e12": 1e300}, "parameter": 10}}),
    # every configured field is checked by one fold over the run grid
    "connection-entry-not-scalar": _set(None, connection={"type": "table", "entries": [
        {"a": 0, "b": 1, "c": 2, "expr": {"kind": "constant", "blades": {"e1": 0.8}}}]}),
    "connection-entry-complex": _set(None, connection={"type": "table", "entries": [
        {"a": 0, "b": 1, "c": 2, "expr": {"kind": "constant", "blades": {"1": [0.8, 0.3]}}}]}),
    "frame-rotor-complex": _set(None, frame={"type": "rotor", "expr": {  # u~ u = 1
        "kind": "constant", "blades": {"1": 1.25, "e12": [0, 0.75]}}}),
    "frame-rotor-not-unit": _set(None, frame={"type": "rotor", "expr": {
        "kind": "constant", "blades": {"1": 1.0, "e12": 0.5}}}),
    "potential-not-grade-1": _set("params", potential={
        "kind": "constant", "blades": {"e0": 1.0, "e12": 0.5}}),
    "exp-bivector-scalar-not-scalar": _set(None, frame={"type": "rotor", "expr": {
        "kind": "exp-bivector", "bivector": {"e12": 1}, "scalar": {"kind": "polynomial", "terms": [
            {"blade": "e1", "coef": 0.5, "powers": [1, 0, 0, 0]}]}}}),
    # a blade is one of the names "1", "e0" ... "e0123", and nothing else
    "polynomial-blade-not-a-string": _unknown_expr(
        {"kind": "polynomial", "terms": [{"blade": ["e0"], "coef": 1}]}),
    "blade-alias-s": _unknown_expr({"kind": "constant", "blades": {"s": 1.0}}),
}


def _bad_config(case):
    cfg = load_config("minkowski-plane-wave")
    cfg["suites"] = ["algebra"]
    BAD_CONFIGS[case](cfg)
    return cfg


# In process, a warning is an error: a child would print it as a second stderr line.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_exit_code_two_on_malformed_numbers_and_sections(tmp_path, case):
    code, lines = _run_config(tmp_path, _bad_config(case))  # which checks that no report is written
    assert code == 2, lines
    assert len(lines) == 1 and lines[0].startswith("configuration error: "), lines


def test_a_malformed_config_exits_two_from_a_child_without_a_traceback(tmp_path):
    # one case of the test above as the command runs it: one stderr line, no traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_config("connection-entry-overflows")))
    r = run_cli("run", str(path), "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: "), r.stderr
    assert not list(tmp_path.glob("*.report.json"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("override", [("--grid", "3"), ("--seed", "1"), ("--suite", "algebra")],
                         ids=["grid", "seed", "suite"])
@pytest.mark.parametrize("root", [[], "x"], ids=["list", "string"])
def test_exit_code_two_on_non_object_root_with_an_override(tmp_path, root, override):
    # an override is written into the config, so the root is refused when it is loaded
    code, lines = _run_config(tmp_path, None, *override, text=json.dumps(root))
    assert code == 2, lines
    assert lines == ["configuration error: configuration root must be an object"]


def test_scenario_checks_every_field_with_one_fold(monkeypatch):
    import sta.fields
    import sta.scenario

    folds = []

    def counted(residuals, xs):
        folds.append([name for name, *_ in residuals])
        return sta.fields.fold_sups(residuals, xs)

    def refused(*args):
        raise AssertionError("evaluate_many called while the scenario is built")

    monkeypatch.setattr(sta.scenario, "fold_sups", counted)
    monkeypatch.setattr(sta.fields, "evaluate_many", refused)
    cfg = load_config("torsion-toy")
    cfg["frame"] = load_config("lorentz-local-rotor")["frame"]
    Scenario(small(cfg))
    # four entries, the frame, the potential, and the unknown with its size
    assert len(folds) == 1 and len(folds[0]) == 8


def test_scenario_hands_no_constant_more_than_one_row(monkeypatch):
    import sta.fields

    rows = []
    constant_eval = sta.fields.Constant._eval
    monkeypatch.setattr(sta.fields.Constant, "_eval",
                        lambda node, xs: rows.append(len(xs)) or constant_eval(node, xs))
    cfg = load_config("torsion-toy")
    assert cfg["grid"] == 9  # 6,561 points
    Scenario(cfg)
    # four constant entries and the zero potential, each checked on one row
    assert len(rows) == 5 and max(rows) == 1


def test_tolerance_for_a_check_of_an_unselected_suite_runs(tmp_path):
    cfg = load_config("minkowski-plane-wave")
    cfg.update(suites=["algebra"], tolerances={"leibniz-clifford": 1e-3})
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("run", str(path), "--grid", "2", "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    report = json.loads((tmp_path / "minkowski-plane-wave.report.json").read_text())
    assert {c["suite"] for c in report["checks"]} == {"algebra"}


def _main(*argv):
    """``sta.cli.main`` in this process: (exit status, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue().splitlines()


def _run_config(tmp_path, cfg, *args, text=None):
    """Run ``cfg`` (or the config file ``text``) in this process: (exit status, stderr lines)."""
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    path = run_dir / "cfg.json"
    path.write_text(json.dumps(cfg) if text is None else text)
    out = run_dir / "out"
    code, lines = _main("run", str(path), "--report-dir", str(out), *args)
    if code == 2:
        assert not list(out.rglob("*.report.json"))
    return code, lines


# One valid object of each expression kind; the tests below misspell one of its keys.
EXPR_EXAMPLES = {
    "zero": {"kind": "zero"},
    "constant": {"kind": "constant", "blades": {"1": 1.0}},
    "polynomial": {"kind": "polynomial", "terms": [{"blade": "1", "coef": 1.0}]},
    "rotor-wave": {"kind": "rotor-wave", "bivector": {"e12": 0.5}, "wave": [1, 0, 0, 0]},
    "sum": {"kind": "sum", "terms": [{"kind": "zero"}, {"kind": "constant", "blades": {"1": 1}}]},
    "product": {"kind": "product", "factors": [{"kind": "constant", "blades": {"1": 2}}]},
    "scalar-linear": {"kind": "scalar-linear", "slope": [0.1, 0, 0, 0], "offset": 1.0},
    "scalar-sine": {"kind": "scalar-sine", "amplitude": 0.5, "wave": [1, 0, 0, 0]},
    "scalar-gaussian": {"kind": "scalar-gaussian", "widths": [1, 1, 1, 1],
                        "center": [0.5, 0.5, 0.5, 0.5]},
    "exp-bivector": {"kind": "exp-bivector", "bivector": {"e12": 1}, "scalar": {"kind": "zero"}},
    "const-rotor": {"kind": "const-rotor", "bivector": {"e12": 1}, "parameter": 0.3},
}


def _misspelled(obj, key, typo):
    """``obj`` with ``key`` renamed to ``typo`` (or ``typo`` added, for key None)."""
    obj = {typo if k == key else k: v for k, v in obj.items()}
    return obj if key else {**obj, typo: 1}


_ENTRY = {"a": 0, "b": 1, "c": 2, "expr": {"kind": "constant", "blades": {"1": 0.5}}}
_ROTOR = {"type": "rotor", "expr": EXPR_EXAMPLES["const-rotor"]}
# (the section replaced, its misspelled value, the path the message names, the typo)
SCHEMA_TYPOS = {
    "root": (None, {"gird": 2}, "configuration root", "gird"),
    "chart": ("chart", {"lo": [0, 0, 0, 0], "hgih": [1, 1, 1, 1]}, "chart", "hgih"),
    "frame-fiducial": ("frame", {"type": "fiducial", "exrp": {}}, "frame", "exrp"),
    "frame-rotor": ("frame", {**_ROTOR, "expt": 1}, "frame", "expt"),
    "connection-zero": ("connection", {"type": "zero", "entires": []}, "connection", "entires"),
    "connection-table": ("connection", {"type": "table", "entires": [_ENTRY]}, "connection",
                         "entires"),
    "connection-entry": ("connection", {"type": "table", "entries": [
        _misspelled(_ENTRY, "expr", "exp")]}, "connection.entries[0]", "exp"),
    "params": ("params", {"mass": 1.0, "chrage": 0.5}, "params", "chrage"),
    "unknown-plane-wave": ("unknown", {"type": "plane-wave", "bost": None}, "unknown", "bost"),
    "unknown-constant-one": ("unknown", {"type": "constant-one", "boost": None}, "unknown",
                             "boost"),
    "unknown-expr": ("unknown", {"type": "expr", "expr": {"kind": "zero"}, "exr": 1}, "unknown",
                     "exr"),
    "polynomial-term": ("unknown", {"type": "expr", "expr": {"kind": "polynomial", "terms": [
        {"blade": "1", "coef": 1.0, "power": [1, 0, 0, 0]}]}}, "unknown.expr.terms[0]", "power"),
    **{f"expr-{kind}": ("unknown", {"type": "expr", "expr": _misspelled(
        example, next((k for k in example if k != "kind"), None), "colour")}, "unknown.expr",
        "colour") for kind, example in EXPR_EXAMPLES.items()},
}


@pytest.mark.parametrize("kind", sorted(EXPR_EXAMPLES))
def test_expression_examples_parse(kind):
    # so that each misspelled example fails on its typo alone
    assert parse_expr(EXPR_EXAMPLES[kind]) is not None


@pytest.mark.parametrize("case", sorted(SCHEMA_TYPOS))
def test_exit_code_two_on_a_misspelled_key(tmp_path, case):
    section, value, where, typo = SCHEMA_TYPOS[case]
    cfg = load_config("minkowski-plane-wave")
    cfg.update({section: value} if section else value)
    code, lines = _run_config(tmp_path, cfg, "--suite", "algebra", "--grid", "2")
    assert code == 2
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"configuration error: {where}: unknown key {typo!r} (expected "), \
        lines


def test_the_misspelled_config_of_the_roadmap_exits_two(tmp_path):
    # it used to run at grid 9, charge 0 and amplitude 1, and pass
    cfg = {"name": "typo-a", "gird": 2, "suites": ["gauge"], "params": {"mass": 1.0, "chrage": 0.5},
           "unknown": {"type": "expr", "expr": {"kind": "scalar-sine", "ampltude": 3.0,
                                                "wave": [1, 0, 0, 0]}}}
    code, lines = _run_config(tmp_path, cfg)
    assert code == 2
    assert lines == ["configuration error: configuration root: unknown key 'gird' (expected "
                     "name, chart, grid, transport_steps, seed, tolerances, expected, suites, "
                     "connection, frame, params, unknown)"]
    del cfg["gird"]
    assert _run_config(tmp_path, cfg)[1] == [
        "configuration error: params: unknown key 'chrage' (expected mass, charge, potential)"]
    cfg["params"] = {"mass": 1.0, "charge": 0.5}
    assert _run_config(tmp_path, cfg)[1] == [
        "configuration error: unknown.expr: unknown key 'ampltude' (expected kind, amplitude, "
        "wave, phase)"]


@pytest.mark.parametrize("section, value, line", [
    ("connection", {"type": "flat"}, "connection.type must be one of zero, table, got 'flat'"),
    ("frame", {"expr": {"kind": "zero"}}, "frame.type must be one of fiducial, rotor, got None"),
    ("unknown", {"type": ["expr"]},
     "unknown.type must be one of plane-wave, constant-one, expr, got ['expr']"),
    ("unknown", {"type": "expr", "expr": {"kind": "warp-field"}},
     "unknown.expr.kind must be one of zero, constant, polynomial, rotor-wave, sum, product, "
     "scalar-linear, scalar-sine, scalar-gaussian, exp-bivector, const-rotor, got 'warp-field'"),
])
def test_an_unknown_type_or_kind_is_one_uniform_line(tmp_path, section, value, line):
    cfg = dict(load_config("minkowski-plane-wave"), **{section: value})
    assert _run_config(tmp_path, cfg, "--suite", "algebra", "--grid", "2") == (
        2, [f"configuration error: {line}"])


def _readme_section(title):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n{title}\n", 1)[1].split("\n#", 1)[0]


def _readme_table(section, header):
    """The rows of the README table whose header row starts with ``header``, as cell lists."""
    rows = []
    for line in section.split(f"\n{header}", 1)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip() for c in line.strip("|").split(" | ")])
    return rows


def _defaults(cell):
    """The defaults a README cell lists: None for "required", else the JSON in backquotes."""
    return [None if d == "required" else json.loads(d.strip("`"))
            for d in re.findall(r"`[^`]*`|required", cell)]


def test_readme_expression_tables_match_the_kind_table():
    from sta.scenario import _EXPR_KINDS, _TERM

    section = _readme_section("### Field expressions")
    rows = _readme_table(section, "| kind |")
    documented = {kind.strip("`"): (re.findall(r"`([^`]*)`", fields), _defaults(defaults))
                  for kind, fields, defaults, _ in rows}
    assert documented == {kind: (list(spec), [d for _, d in spec.values()])
                          for kind, (_, spec) in _EXPR_KINDS.items()}
    rows = _readme_table(section, "| polynomial term field |")
    assert {f.strip("`"): _defaults(d) for f, d, _ in rows} == {
        k: [d] for k, (_, d) in _TERM.items()}


def test_readme_schema_block_names_the_keys_the_tables_accept():
    from sta.scenario import _CHART, _CONNECTIONS, _ENTRY, _FRAMES, _PARAMS, _ROOT, _UNKNOWNS
    from sta.suites import SUITES

    block = _readme_section("## Scenario schema").split("```jsonc\n", 1)[1].split("```", 1)[0]
    check_names = {row.name for _, _, table in SUITES.values() for row in table}
    variants = [_CONNECTIONS, _FRAMES, _UNKNOWNS]
    accepted = {*_ROOT, *_CHART, *_PARAMS, *_ENTRY, "type", "kind",
                *(key for table in variants for _, spec in table.values() for key in spec)}
    assert set(re.findall(r'"([a-z_]+)":', block)) - check_names == accepted
    assert set(re.findall(r'^  "([a-z_]+)":', block, re.M)) == set(_ROOT)
    assert set(re.findall(r'"type": "([a-z-]+)"', block)) == {v for t in variants for v in t}


def _get_calls(source: str) -> dict:
    """The lines of ``source`` that call a ``get`` method, by enclosing function."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                visit(child, f"{scope}.{name}" if scope else name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "get"):
                found.setdefault(scope, []).append(child.lineno)
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_get_calls_are_found():
    source = textwrap.dedent("""\
        def f(cfg):
            return cfg.get("a", 1)
        class S:
            def m(self):
                return lambda d: d.get(2)
        x = {}.get(3, len({}.get(4, "")))
        """)
    assert _get_calls(source) == {"f": [2], "S.m.<lambda>": [5], "": [6, 6]}


def test_only_the_readers_call_get_on_a_config_object():
    # every config object is read by its declared table, so no code elsewhere
    # looks a key up with a default of its own; Scenario.tol reads the parsed
    # tolerances, not a config object
    import sta.scenario

    found = _get_calls(Path(sta.scenario.__file__).read_text(encoding="utf-8"))
    assert set(found) <= {"_read", "_variant", "load_config", "Scenario.tol"}, found


def _product_chain(levels):
    """``levels`` expressions nested as products of scalar fields, 1 + O(0.01) each."""
    expr = {"kind": "scalar-linear", "slope": [0.01, 0, 0, 0], "offset": 1.0}
    for _ in range(levels - 1):
        expr = {"kind": "product", "factors": [
            {"kind": "scalar-linear", "slope": [0, 0.01, 0, 0], "offset": 1.0}, expr]}
    return expr


def test_expressions_nest_at_most_the_cap(tmp_path):
    from sta.scenario import EXPR_DEPTH_MAX

    cfg = load_config("minkowski-plane-wave")
    cfg["unknown"] = {"type": "expr", "expr": _product_chain(EXPR_DEPTH_MAX)}
    # not a solution, so residual checks fail, but every derivative of the chain is built
    code, lines = _run_config(tmp_path, cfg, "--suite", "dirac-triad", "--grid", "2")
    assert (code, lines) == (1, [])
    cfg["unknown"]["expr"] = _product_chain(EXPR_DEPTH_MAX + 1)
    assert _run_config(tmp_path, cfg, "--suite", "dirac-triad", "--grid", "2") == (2, [
        f"configuration error: unknown.expr: expressions nest {EXPR_DEPTH_MAX + 1} deep, more "
        f"than {EXPR_DEPTH_MAX}"])


@pytest.mark.parametrize("levels", [600, 5000])
def test_exit_code_two_on_a_deeply_nested_file(tmp_path, levels):
    # 600 levels are 300 sums, each an object holding a list; 5000 levels are
    # more than the JSON decoder's recursion allows
    text = ('{"name": "deep", "unknown": {"type": "expr", "expr": '
            + '{"kind": "sum", "terms": [' * (levels // 2) + '{"kind": "zero"}'
            + "]}" * (levels // 2) + "}}")
    code, lines = _run_config(tmp_path, None, "--suite", "algebra", "--grid", "2", text=text)
    assert code == 2 and len(lines) == 1, lines
    assert lines[0].startswith("configuration error: unknown.expr: expressions nest"
                               if levels == 600 else
                               "configuration error: config does not parse as JSON"), lines


@pytest.mark.parametrize("name", ["sub/x", "../x", "a\\b", "nul\0x", ".", "..", "\ud800"])
def test_exit_code_two_on_scenario_name_that_is_not_a_file_name(tmp_path, name):
    cfg = load_config("minkowski-plane-wave")
    cfg["name"] = name
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, lines = _main("run", str(path), "--suite", "algebra", "--grid", "2",
                        "--report-dir", str(out))
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("configuration error: name must be "), lines
    assert not list(tmp_path.rglob("*.report.json"))


def test_exit_code_two_on_oversized_grid(tmp_path):
    # 100000^4 points: numpy refuses to broadcast the mesh, so nothing is allocated
    code, lines = _main("run", "gauge-sine", "--suite", "algebra", "--grid", "100000",
                        "--report-dir", str(tmp_path))
    assert code == 2
    assert lines == ["configuration error: grid must be between 2 and 64, got 100000"]
    assert not list(tmp_path.glob("*.report.json"))


def test_exit_code_two_on_oversized_transport_steps(tmp_path):
    cfg = load_config("torsion-toy")
    cfg["transport_steps"] = 10**30  # too large for the stage points' np.arange
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(cfg))
    code, lines = _main("run", str(path), "--suite", "transport", "--grid", "2",
                        "--report-dir", str(tmp_path))
    assert code == 2
    assert lines == [f"configuration error: transport_steps must be between 1 and 65536, "
                     f"got {10**30}"]
    assert not list(tmp_path.glob("*.report.json"))


def test_size_caps_are_inclusive():
    # no grid of 65 points per axis: without its cap that would build 17.9 M points
    cfg = small(load_config("torsion-toy"), grid=2)
    Scenario({**cfg, "transport_steps": 65536})  # parsed; no transport runs
    for key, value in (("transport_steps", 65537), ("transport_steps", 0), ("grid", 1)):
        with pytest.raises(ConfigError, match=f"{key} must be between"):
            Scenario({**cfg, key: value})


def test_exit_code_two_on_report_dir_that_cannot_be_created(tmp_path, monkeypatch):
    (tmp_path / "afile").write_text("")
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda name, scn: ran.append(name) or [])
    code, lines = _main("run", "minkowski-plane-wave", "--suite", "algebra",
                        "--report-dir", str(tmp_path / "afile" / "x"))
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith("configuration error: cannot create the report directory")
    assert ran == []  # refused before any suite ran


def test_exit_code_two_on_over_long_name_before_any_suite_runs(tmp_path, monkeypatch):
    cfg = load_config("minkowski-plane-wave")
    cfg["name"] = "n" * 300  # longer than a file name may be
    path = tmp_path / "long.json"
    path.write_text(json.dumps(cfg))
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda name, scn: ran.append(name) or [])
    code, lines = _main("run", str(path), "--report-dir", str(tmp_path / "out"))
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("configuration error: cannot write the report"), lines
    assert "file name is 312 bytes" in lines[0], lines  # the name and ".report.json"
    assert ran == []  # refused before any suite ran
    assert not list(tmp_path.rglob("*.report.json"))


def test_exit_code_two_when_the_report_cannot_be_written(tmp_path):
    cfg = load_config("minkowski-plane-wave")
    cfg["name"] = "n" * 300  # longer than a file name may be
    path = tmp_path / "long.json"
    path.write_text(json.dumps(cfg))
    code, lines = _main("run", str(path), "--suite", "algebra", "--grid", "2",
                        "--report-dir", str(tmp_path))
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("configuration error: cannot write the report")


def test_exit_code_two_on_chart_whose_span_overflows(tmp_path):
    # each bound is finite, but hi - lo is not: the grid would be NaN
    cfg = load_config("minkowski-plane-wave")
    cfg["chart"] = {"lo": [-1e308, 0, 0, 0], "hi": [1e308, 1, 1, 1]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, lines = _main("run", str(path), "--suite", "algebra", "--grid", "2",
                            "--report-dir", str(tmp_path))
    assert code == 2 and not caught, [str(w.message) for w in caught]
    assert lines == ["configuration error: chart: chart requires a finite span hi - lo on "
                     "every axis, but it is [inf, 1.0, 1.0, 1.0]"]
    assert not list(tmp_path.glob("*.report.json"))
    wide = Chart([-8e307] * 4, [8e307] * 4)  # a span of 1.6e308 still fits
    assert np.all(np.isfinite(wide.grid(3)))


def test_a_transport_curve_that_overflows_exits_two_with_one_line(tmp_path):
    # the bent curve's control points overflow, so the curve leaves the chart
    cfg = load_config("torsion-toy")
    cfg["chart"]["hi"] = [1, 1e308, 1, 1]
    code, lines = _run_config(tmp_path, cfg, "--suite", "transport", "--grid", "2")
    assert code == 2
    assert lines == ["configuration error: CurveOutOfChart: curve leaves the chart box"]


def test_a_transport_that_overflows_fails_its_checks_without_a_warning(tmp_path):
    cfg = load_config("torsion-toy")
    cfg["chart"]["hi"] = [1, 1e20, 1, 1]
    code, lines = _run_config(tmp_path, cfg, "--grid", "2")
    assert code == 1 and lines == []
    [path] = tmp_path.rglob("*.report.json")
    checks = json.loads(path.read_text())["checks"]
    assert any(c["value"] is None and not c["passed"] for c in checks)


def _freeze_cases(tmp_path):
    """(exit status, argv) of each way ``main`` returns."""
    tight = load_config("gauge-sine")
    tight["tolerances"] = {"associativity": 1e-20}  # its value is about 2e-14
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(tight))
    out = str(tmp_path / "out")
    return [(0, ("run", "gauge-sine", "--suite", "algebra", "--grid", "2", "--report-dir", out)),
            (1, ("run", str(path), "--suite", "algebra", "--grid", "2", "--report-dir", out)),
            (2, ("run", "gauge-sine", "--suite", "no-such-suite", "--report-dir", out)),
            (0, ("list-suites",))]


def test_main_leaves_the_heap_unfrozen(tmp_path):
    assert gc.get_freeze_count() == 0
    for status, argv in _freeze_cases(tmp_path):
        code, _ = _main(*argv)
        assert code == status, argv
        assert gc.get_freeze_count() == 0, argv


def test_main_keeps_a_heap_its_caller_froze_frozen(tmp_path):
    cases = _freeze_cases(tmp_path)
    marker = []  # a tracked object, frozen by the caller below
    gc.freeze()
    try:
        for status, argv in cases:
            code, _ = _main(*argv)
            assert code == status, argv
            assert gc.get_freeze_count() > 0, argv
            # frozen objects are in no generation that get_objects lists
            assert not any(o is marker for o in gc.get_objects()), argv
    finally:
        gc.unfreeze()


def test_main_unfreezes_the_heap_when_a_suite_raises(tmp_path, monkeypatch):
    def raising(name, scn):
        raise ZeroDivisionError(name)

    monkeypatch.setattr(cli, "run_suite", raising)
    with pytest.raises(ZeroDivisionError):
        _main("run", "gauge-sine", "--suite", "algebra", "--grid", "2",
              "--report-dir", str(tmp_path))
    assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):  # an argument error, before anything is frozen
        _main("run")
    assert gc.get_freeze_count() == 0


def test_the_heap_is_frozen_at_interpreter_exit(tmp_path):
    # atexit handlers run last in, first out: this one runs after sta's
    script = textwrap.dedent("""
        import atexit, gc
        atexit.register(lambda: print("at exit:", gc.get_freeze_count()))
        import sta.cli
        status = sta.cli.main(["list-suites"])
        print("after main:", gc.get_freeze_count())
        raise SystemExit(status)
    """)
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       cwd=tmp_path, timeout=120)
    assert r.returncode == 0 and r.stderr == "", r.stderr
    after, at_exit = r.stdout.splitlines()[-2:]
    assert after == "after main: 0"
    assert at_exit.startswith("at exit: ") and int(at_exit.split()[-1]) > 1000, at_exit


def _paths(obj, prefix=()):
    """Every path (a tuple of keys and indices) inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


_BAD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False, "1.0"])
_NAMES = st.sampled_from(["sub/x", "..", ".", "", "a\\b", "x\0y", "\ud800", "n" * 300]) | st.text()


@st.composite
def mutated_configs(draw):
    """A built-in scenario with numbers spoiled, keys dropped or its name changed."""
    cfg = load_config(draw(st.sampled_from(builtin_scenario_names())))
    for _ in range(draw(st.integers(1, 4))):
        paths = list(_paths(cfg))
        path = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], cfg)
        value = parent[path[-1]]
        action = draw(st.sampled_from(["bad", "negate", "drop", "rename"]))
        if action == "rename":
            cfg["name"] = draw(_NAMES)
        elif action == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "negate" and isinstance(value, (int, float)) and not isinstance(value, bool):
            parent[path[-1]] = -abs(value) - 1
        else:
            parent[path[-1]] = draw(_BAD_VALUES)
    return cfg


@given(mutated_configs())
@settings(max_examples=100)
def test_mutated_builtin_configs_end_in_an_exit_status(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        code, lines = _main("run", str(path), "--suite", "algebra", "--grid", "2",
                            "--report-dir", str(out))
        assert code in (0, 1, 2)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("configuration error: "), lines

        def refuse(name):
            raise ValueError(f"non-strict JSON constant {name}")

        for report in out.rglob("*.report.json"):
            json.loads(report.read_text(encoding="utf-8"), parse_constant=refuse)


def test_report_writes_non_finite_value_as_failing_null():
    report = Report("non-finite", seed=0, grid=3, checks=[
        Check("algebra", "fine", "law", 0.0, 1e-9, True),
        Check("algebra", "broken", "law", float("nan"), 1e-9, True),
    ])

    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    obj = json.loads(report.to_json_text(), parse_constant=refuse)
    fine, broken = obj["checks"]
    assert fine["value"] == 0.0 and fine["passed"] is True
    assert broken["value"] is None and broken["passed"] is False
    assert obj["passed"] is False
    assert obj["summary"] == {"total": 2, "passed": 1, "failed": 1}


def test_nan_residuals_fail_their_checks(tmp_path):
    cfg = load_config("torsion-toy")
    for entry in cfg["connection"]["entries"]:
        entry["expr"]["blades"]["1"] = 1.5e308  # derivatives overflow to inf, differences to NaN
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        code, _ = _main("run", str(path), "--suite", "derivatives", "--grid", "2",
                        "--report-dir", str(tmp_path))
    assert code == 1
    checks = {c["name"]: c for c in
              json.loads((tmp_path / "torsion-toy.report.json").read_text())["checks"]}
    for name in ("leibniz-clifford", "leibniz-left", "leibniz-right", "leibniz-effective",
                 "ideal-preservation"):
        assert checks[name]["value"] is None and checks[name]["passed"] is False, checks[name]


def test_exit_code_two_on_unknown_suite(tmp_path):
    r = run_cli("run", "minkowski-plane-wave", "--suite", "nope",
                "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 2


def test_expected_nonzero_diagnostic(tmp_path):
    r = run_cli("run", str(FIXTURES / "rest-source-diagnostic.json"),
                "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    report = json.loads((tmp_path / "rest-source-diagnostic.report.json").read_text())
    diag = {c["name"]: c for c in report["checks"] if c["diagnostic"]}
    assert set(diag) == {"representative-residual", "left-residual", "ideal-residual",
                         "column-residual"}
    assert all(c["passed"] for c in diag.values())


def test_reports_are_byte_identical_for_fixed_seed(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        r = run_cli("run", "minkowski-plane-wave", "--grid", "3", "--seed", "42",
                    "--report-dir", str(d), cwd=tmp_path)
        assert r.returncode == 0
    b1 = (d1 / "minkowski-plane-wave.report.json").read_bytes()
    b2 = (d2 / "minkowski-plane-wave.report.json").read_bytes()
    assert b1 == b2


def test_seed_changes_report(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d, seed in ((d1, "1"), (d2, "2")):
        r = run_cli("run", "minkowski-plane-wave", "--grid", "3", "--seed", seed,
                    "--report-dir", str(d), cwd=tmp_path)
        assert r.returncode == 0
    r1 = json.loads((d1 / "minkowski-plane-wave.report.json").read_text())
    r2 = json.loads((d2 / "minkowski-plane-wave.report.json").read_text())
    assert r1["seed"] != r2["seed"]


def test_list_suites(tmp_path):
    r = run_cli("list-suites", cwd=tmp_path)
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if l and not l.startswith("(")]
    assert len(lines) == 7
    assert any(l.startswith("dirac-triad") for l in lines)
    assert "7 suites" in r.stdout


def test_report_lists_every_check_once(tmp_path):
    r = run_cli("run", "minkowski-plane-wave", "--grid", "3",
                "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 0
    report = json.loads((tmp_path / "minkowski-plane-wave.report.json").read_text())
    keys = [(c["suite"], c["name"]) for c in report["checks"]]
    assert len(keys) == len(set(keys))
    assert {s for s, _ in keys} == {"algebra", "dirac-triad", "bilinears"}


def test_repeated_suite_runs_once(tmp_path):
    reports = {}
    for label, args in (("once", ("--suite", "algebra")),
                        ("twice", ("--suite", "algebra", "--suite", "algebra"))):
        r = run_cli("run", "minkowski-plane-wave", *args,
                    "--report-dir", str(tmp_path / label), cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        reports[label] = (tmp_path / label / "minkowski-plane-wave.report.json").read_bytes()
    assert reports["twice"] == reports["once"]
    cfg = small(load_config("gauge-sine"))
    cfg["suites"] = ["gauge", "algebra", "gauge"]
    assert Scenario(cfg).suites == ["gauge", "algebra"]


def _checks_by_key(path):
    checks = json.loads(path.read_text())["checks"]
    suites = list(dict.fromkeys(c["suite"] for c in checks))
    return suites, {(c["suite"], c["name"]): (c["value"], c["tol"], c["passed"])
                    for c in checks}


def test_suite_order_does_not_change_results(tmp_path):
    # a check's result does not depend on what the suites before it evaluated
    for name, grid in (("minkowski-plane-wave", "3"), ("torsion-toy", "2"),
                       ("gauge-sine", "2"), ("lorentz-local-rotor", "2")):
        listed, backward = tmp_path / name / "listed", tmp_path / name / "reversed"
        r = run_cli("run", name, "--grid", grid, "--report-dir", str(listed), cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        suites, checks = _checks_by_key(listed / f"{name}.report.json")
        assert suites == load_config(name)["suites"]
        args = [a for s in reversed(suites) for a in ("--suite", s)]
        r = run_cli("run", name, "--grid", grid, *args, "--report-dir", str(backward),
                    cwd=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        suites_rev, checks_rev = _checks_by_key(backward / f"{name}.report.json")
        assert suites_rev == suites[::-1], name
        assert checks_rev == checks, name
