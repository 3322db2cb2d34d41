"""Acceptance criteria, one test per criterion, at their pinned tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s``); the
assertions carry the same bounds, so a plain pytest run enforces them.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from sta.algebra import Multivector
from sta.scenario import Scenario, load_config
from sta.spinors import (
    IDEMPOTENT_E,
    IDEMPOTENT_F,
    even_from_ideal,
    rho,
)
from sta.suites import run_suite

FIXTURES = Path(__file__).parent / "fixtures"


def _announce(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def _run(scenario_name: str, suite: str):
    scn = Scenario(load_config(scenario_name))
    t0 = time.perf_counter()
    checks = run_suite(suite, scn)
    return checks, time.perf_counter() - t0


def _require(checks, name: str, tol: float, ge=False):
    got = {c.name: c for c in checks}[name]
    assert got.tol == tol, f"{name}: tolerance drifted from the pinned {tol}"
    if ge:
        assert got.value >= tol, f"{name}: {got.value} < {tol}"
    else:
        assert got.value <= tol, f"{name}: {got.value} > {tol}"
    assert got.passed


def test_ac1_algebra_suite():
    checks, dt = _run("minkowski-plane-wave", "algebra")
    _require(checks, "generator-relations", 1e-15)
    _require(checks, "associativity", 1e-12)
    ok = all(c.passed for c in checks) and dt < 1.0
    _announce("AC1", ok, f"algebra suite: {len(checks)} checks, {dt:.2f}s (< 1 s)")


def test_ac2_idempotent_ideal_suite():
    t0 = time.perf_counter()
    e, f = IDEMPOTENT_E, IDEMPOTENT_F
    assert (e * e - e).norm_sup() == 0.0
    assert (f * f - f).norm_sup() < 1e-15

    rng = np.random.default_rng(2024)
    worst_rt = 0.0
    for _ in range(100):
        psi = Multivector(rng.normal(size=16)).even()
        worst_rt = max(worst_rt, (even_from_ideal(psi * e) - psi).norm_sup())
    assert worst_rt <= 1e-12

    worst_hom = 0.0
    for _ in range(100):
        a = Multivector(rng.normal(size=16))
        b = Multivector(rng.normal(size=16))
        worst_hom = max(worst_hom,
                        float(np.max(np.abs(rho(a * b) - rho(a) @ rho(b)))))
    assert worst_hom <= 1e-10

    fm = rho(f)
    assert np.max(np.abs(fm @ fm - fm)) < 1e-13
    assert np.linalg.matrix_rank(fm) == 1
    assert np.allclose(np.sort_complex(np.linalg.eigvals(fm)), [0, 0, 0, 1], atol=1e-12)

    dt = time.perf_counter() - t0
    ok = dt < 2.0
    _announce("AC2", ok, f"idempotent/ideal suite: round trip {worst_rt:.1e}, "
                         f"rho defect {worst_hom:.1e}, {dt:.2f}s (< 2 s)")


def test_ac3_derivative_suite():
    checks, dt = _run("torsion-toy", "derivatives")
    for name in ("leibniz-clifford", "leibniz-left", "leibniz-right",
                 "leibniz-effective", "effective-two-routes", "unit-section-law"):
        _require(checks, name, 1e-9)
    _require(checks, "ideal-preservation", 1e-10)
    ok = all(c.passed for c in checks) and dt < 30.0
    _announce("AC3", ok, f"derivative suite: {len(checks)} checks, {dt:.2f}s (< 30 s)")


def test_ac4_transport_suite():
    checks, dt = _run("torsion-toy", "transport")
    _require(checks, "flat-identity", 1e-12)
    _require(checks, "grade-preservation", 1e-9)
    _require(checks, "conservation-order", 12.0, ge=True)
    _require(checks, "pairing-transport", 1e-7)
    ok = all(c.passed for c in checks) and dt < 10.0
    _announce("AC4", ok, f"transport suite: {len(checks)} checks, {dt:.2f}s (< 10 s)")


def test_ac5_dirac_triad():
    checks, dt = _run("minkowski-plane-wave", "dirac-triad")
    for name in ("representative-residual", "left-residual", "ideal-residual", "column-residual",
                 "left-representative-componentwise", "left-representative-random", "left-ideal-phase-map",
                 "ideal-column-map"):
        _require(checks, name, 1e-9)
    ok = all(c.passed for c in checks) and dt < 30.0
    _announce("AC5", ok, f"dirac triad: {len(checks)} checks, {dt:.2f}s (< 30 s)")


def test_ac5_boosted_variant():
    checks, dt = _run("boosted-plane-wave", "dirac-triad")
    for name in ("representative-residual", "left-residual", "ideal-residual", "column-residual"):
        _require(checks, name, 1e-9)
    ok = all(c.passed for c in checks)
    _announce("AC5b", ok, f"boosted plane wave triad: {len(checks)} checks, {dt:.2f}s")


def test_ac6_gauge_suite():
    checks, dt = _run("gauge-sine", "gauge")
    for label in ("constant", "linear", "sine"):
        _require(checks, f"left-covariance-{label}", 1e-9)
        _require(checks, f"representative-covariance-{label}", 1e-9)
    _require(checks, "spin-plane-rotation", 1e-10)
    ok = all(c.passed for c in checks) and dt < 20.0
    _announce("AC6", ok, f"gauge suite: {len(checks)} checks, {dt:.2f}s (< 20 s)")


def test_ac7_lorentz_suite():
    checks, dt = _run("lorentz-local-rotor", "lorentz")
    _require(checks, "residual-transform-constant", 1e-8)
    _require(checks, "residual-transform-local", 1e-8)
    _require(checks, "frame-orthonormality", 1e-9)
    for kind in ("clifford", "left", "right"):
        _require(checks, f"naturality-{kind}", 1e-8)
    ok = all(c.passed for c in checks) and dt < 30.0
    _announce("AC7", ok, f"lorentz suite: {len(checks)} checks, {dt:.2f}s (< 30 s)")


def test_ac8_bilinears_suite():
    checks, dt = _run("minkowski-plane-wave", "bilinears")
    _require(checks, "grade-purity", 1e-10)
    _require(checks, "quadratic-relations", 1e-9)
    _require(checks, "rest-wave-normalization", 1e-12)
    ok = all(c.passed for c in checks) and dt < 5.0
    _announce("AC8", ok, f"bilinears suite: {len(checks)} checks, {dt:.2f}s (< 5 s)")


def test_ac9_cli_contract(tmp_path):
    def cli(*args, env=None):
        return subprocess.run([sys.executable, "-m", "sta.cli", *args],
                              capture_output=True, text=True, cwd=tmp_path, env=env)

    # determinism: byte-identical structured reports for a fixed seed
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        r = cli("run", "minkowski-plane-wave", "--grid", "3", "--seed", "11",
                "--report-dir", str(d))
        assert r.returncode == 0, r.stderr
    identical = (d1 / "minkowski-plane-wave.report.json").read_bytes() == \
        (d2 / "minkowski-plane-wave.report.json").read_bytes()

    # exit-code contract over the three fixtures
    r0 = cli("run", "minkowski-plane-wave", "--grid", "3",
             "--report-dir", str(tmp_path / "ok"))
    r1 = cli("run", str(FIXTURES / "failing-mass-term.json"),
             "--report-dir", str(tmp_path / "fail"))
    r2 = cli("run", str(FIXTURES / "bad-tolerance.json"),
             "--report-dir", str(tmp_path / "bad"))
    codes = (r0.returncode, r1.returncode, r2.returncode)
    ok = identical and codes == (0, 1, 2)
    _announce("AC9", ok, f"CLI: byte-identical={identical}, exit codes={codes} "
                         f"(expected (0, 1, 2))")
