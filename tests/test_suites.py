"""The check catalog: every suite emits its catalog rows, in order, from one emitter."""

import collections

import pytest

import sta.suites
from sta.scenario import Scenario, load_config
from sta.suites import SUITES, run_suite


def _grid2(**overrides) -> Scenario:
    return Scenario(dict(load_config("minkowski-plane-wave"), grid=2, transport_steps=32,
                         **overrides))


def test_check_names_are_unique_across_suites():
    names = [row.name for _, _, rows in SUITES.values() for row in rows]
    assert len(names) == len(set(names))  # tolerances are keyed by check name alone


@pytest.mark.parametrize("suite", list(SUITES))
def test_emitted_checks_are_the_catalog_rows_in_order(suite):
    checks = run_suite(suite, _grid2())
    rows = SUITES[suite][2]
    assert [(c.suite, c.name, c.law, c.tol, c.diagnostic) for c in checks] == [
        (suite, row.name, row.law, row.tol, False) for row in rows]
    for c, row in zip(checks, rows):
        assert c.passed == (c.value >= c.tol if row.at_least else c.value <= c.tol)


def test_expected_value_turns_a_residual_row_into_a_diagnostic():
    plain = {c.name: c for c in run_suite("dirac-triad", _grid2())}
    checks = run_suite("dirac-triad", _grid2(expected={"left-residual": 1.0},
                                              tolerances={"left-residual": 0.5}))
    for c in checks:
        if c.name == "left-residual":
            assert c.diagnostic and c.tol == 0.5
            assert c.law == plain[c.name].law + " (expected nonzero value 1)"
            assert c.value == abs(plain[c.name].value - 1.0) and c.passed == (c.value <= 0.5)
        else:
            assert (c.value, c.law, c.diagnostic) == (plain[c.name].value, plain[c.name].law, False)


def test_reversion_check_reads_the_library_reversion_table():
    from sta.algebra import REVERSE_SIGNS

    def check():
        return {c.name: c for c in run_suite("algebra", _grid2())}["reversion-antiautomorphism"]

    assert check().passed
    REVERSE_SIGNS[0b0011] *= -1  # the sign of e0e1, a grade-2 blade, flipped in the shared table
    try:
        assert not check().passed
    finally:
        REVERSE_SIGNS[0b0011] *= -1


def test_derivative_suite_folds_one_plan(monkeypatch):
    from sta import fields

    scn = Scenario(dict(load_config("torsion-toy"), grid=2))
    plans, evaluated = [], []
    build, run = fields._Plan.__init__, fields._Plan.run

    def counted_build(plan, roots):
        plans.append(plan)
        build(plan, roots)

    def counted_run(plan, xs):
        for node in run(plan, xs):
            evaluated.append(node)
            yield node

    monkeypatch.setattr(fields._Plan, "__init__", counted_build)
    monkeypatch.setattr(fields._Plan, "run", counted_run)
    assert all(c.passed for c in run_suite("derivatives", scn))
    assert len(plans) == 1
    # measured; a plan per setup evaluates the nodes shared across setups once per plan
    # (3,591), and a plan per residual scope evaluates shared connection nodes again (7,564)
    assert len(evaluated) == 3491


FOLDS = {"algebra": 0, "derivatives": 1, "transport": 0, "dirac-triad": 1, "gauge": 1,
         "lorentz": 1, "bilinears": 2}  # bilinears: one point, then the rest wave on grid 3


@pytest.mark.parametrize("suite", list(SUITES))
def test_each_field_suite_folds_once_per_grid(suite, monkeypatch):
    import sta.fields
    import sta.suites

    grids = []

    def counted(residuals, xs):
        grids.append(len(xs))
        return sta.fields.fold_sups(residuals, xs)

    monkeypatch.setattr(sta.suites, "fold_sups", counted)
    run_suite(suite, _grid2())
    assert len(grids) == FOLDS[suite] and len(set(grids)) == len(grids), grids


@pytest.mark.parametrize("scenario", ["torsion-toy", "minkowski-plane-wave"])
def test_checks_that_compare_one_node_with_itself(monkeypatch, scenario):
    """The checks that report 0.0 by construction: every pair is one node twice.

    Hash-consing and the builders' rules make both sides of these pairs one
    object, so no fault that leaves the builders alone can fail them.
    """
    fold_sups, residuals = sta.suites.fold_sups, []

    def recorded(given, xs):
        given = list(given)
        residuals.extend(given)
        return fold_sups(given, xs)

    monkeypatch.setattr(sta.suites, "fold_sups", recorded)
    scn = Scenario(dict(load_config(scenario), grid=2, suites=list(SUITES)))
    for name in scn.suites:
        run_suite(name, scn)
    total = collections.Counter(name for name, *_ in residuals)
    same = collections.Counter(r[0] for r in residuals if len(r) == 2 and r[1][0] is r[1][1])
    assert {name: (same[name], n) for name, n in total.items() if same[name] == n} == {
        "unit-section-law": (8, 8),
        "sign-invariance": (400, 400),
        "left-representative-componentwise": (1, 1),
    }
