"""Scenario validation, CLI exit codes, report determinism."""

import contextlib
import functools
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sta import cli
from sta.cli import main
from sta.errors import ConfigError, UnknownSuite
from sta.report import Check, Report
from sta.scenario import Scenario, builtin_scenario_names, load_config, parse_expr

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sta.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


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
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the run writes a byte
    try:
        r = subprocess.run(
            [sys.executable, "-m", "sta.cli", "run", config, "--grid", "2",
             "--report-dir", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path, timeout=120,
        )
    finally:
        os.close(write_end)
    assert r.returncode == status, r.stderr
    assert r.stderr == ""
    assert list(tmp_path.glob("*.report.json"))


def test_exit_code_two_on_config_error(tmp_path):
    r = run_cli("run", str(FIXTURES / "bad-tolerance.json"),
                "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 2
    assert "configuration error" in r.stderr
    assert not list(tmp_path.glob("*.report.json"))  # no report written


@pytest.mark.parametrize("value", ["abc", "0", "2"])
def test_verify_threads_is_no_longer_read(tmp_path, value):
    # suites always run one after another; the variable, valid or not, changes nothing
    unset = {k: v for k, v in os.environ.items() if k != "VERIFY_THREADS"}
    runs = {}
    for label, env in (("unset", unset), ("set", dict(unset, VERIFY_THREADS=value))):
        r = run_cli("run", "minkowski-plane-wave", "--grid", "3",
                    "--report-dir", str(tmp_path / label), cwd=tmp_path, env=env)
        assert r.returncode == 0, r.stdout + r.stderr
        assert r.stderr == ""
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
    # every configured field is checked by one fold over the run grid
    "connection-entry-not-scalar": _set(None, connection={"type": "table", "entries": [
        {"a": 0, "b": 1, "c": 2, "expr": {"kind": "constant", "blades": {"e1": 0.8}}}]}),
    "connection-entry-complex": _set(None, connection={"type": "table", "entries": [
        {"a": 0, "b": 1, "c": 2, "expr": {"kind": "constant", "blades": {"1": [0.8, 0.3]}}}]}),
    "frame-rotor-complex": _set(None, frame={"type": "rotor", "expr": {  # reverse(u) u = 1
        "kind": "constant", "blades": {"1": 1.25, "e12": [0, 0.75]}}}),
    "frame-rotor-not-unit": _set(None, frame={"type": "rotor", "expr": {
        "kind": "constant", "blades": {"1": 1.0, "e12": 0.5}}}),
    "potential-not-grade-1": _set("params", potential={
        "kind": "constant", "blades": {"e0": 1.0, "e12": 0.5}}),
    "exp-bivector-scalar-not-scalar": _set(None, frame={"type": "rotor", "expr": {
        "kind": "exp-bivector", "bivector": {"e12": 1}, "scalar": {"kind": "polynomial", "terms": [
            {"blade": "e1", "coef": 0.5, "powers": [1, 0, 0, 0]}]}}}),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_exit_code_two_on_malformed_numbers_and_sections(tmp_path, case):
    cfg = load_config("minkowski-plane-wave")
    cfg["suites"] = ["algebra"]
    BAD_CONFIGS[case](cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("run", str(path), "--report-dir", str(tmp_path), cwd=tmp_path)
    assert r.returncode == 2, r.stdout + r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: "), r.stderr
    assert not list(tmp_path.glob("*.report.json"))


def test_scenario_checks_every_field_with_one_fold(monkeypatch):
    import sta.fields
    import sta.scenario

    folds = []

    def counted(worst, residuals, xs):
        folds.append([name for name, *_ in residuals])
        return sta.fields.fold_sups(worst, residuals, xs)

    def refused(*args):
        raise AssertionError("evaluate_many called while the scenario is built")

    monkeypatch.setattr(sta.scenario, "fold_sups", counted)
    monkeypatch.setattr(sta.fields, "evaluate_many", refused)
    cfg = load_config("torsion-toy")
    cfg["frame"] = load_config("lorentz-local-rotor")["frame"]
    Scenario(small(cfg))
    # four entries, the frame, the potential, and the unknown with its size
    assert len(folds) == 1 and len(folds[0]) == 8


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
