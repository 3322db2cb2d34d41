"""Residuals of the equation forms, their translations, gauge and frame laws."""

import numpy as np
import pytest

from sta.algebra import E, E0, E21, CMultivector, Multivector, exp_bivector, gp_batch, GRADES
from sta.dirac import (
    DiracParams,
    bilinear_covariants,
    gauge_transform_left_form,
    gauge_transform_representative,
    lorentz_covariance_check,
    make_plane_wave,
    residual_complex_ideal,
    residual_covariant,
    residual_left_form,
    residual_representative,
    scalar_gradient,
)
from sta.errors import ConfigError, KindMismatch, NotInIdeal, NotRotor
from sta.fields import (
    CliffordField,
    Constant,
    Kind,
    LeftSpinorField,
    ScalarLinear,
    ScalarSine,
    evaluate,
    evaluate_many,
    f_product,
    fold_sups,
)
from sta.geometry import (
    Chart,
    SpacetimeSetup,
    change_spin_frame,
    effective_deriv,
)
from sta.scenario import Scenario, load_config
from sta.spinors import IDEMPOTENT_F, build_gamma_rep, column_from_ideal, columns_from_coeffs
from sta.suites import random_connection, random_field_expr, random_potential, random_rotor_expr

CHART = Chart([0, 0, 0, 0], [1, 1, 1, 1])
FLAT = SpacetimeSetup(CHART)
XS = CHART.grid(5)
RNG = np.random.default_rng(99)
REP = build_gamma_rep()


def rc_setup(seed):
    return SpacetimeSetup(CHART, random_connection(np.random.default_rng(seed)))


def sup(field) -> float:
    """max|residual| of a residual field on XS."""
    return float(np.max(np.abs(field.eval(XS))))


def rc_params(seed):
    rng = np.random.default_rng(seed)
    return DiracParams(float(rng.uniform(0.3, 1.4)), float(rng.uniform(-1, 1)),
                       random_potential(rng))


# -- plane waves ---------------------------------------------------------------


def test_rest_plane_wave_solves_every_form():
    m = 1.3
    params = DiracParams(m, 0.0)
    psi = make_plane_wave(m)
    assert sup(residual_representative(psi, params, FLAT)) < 1e-10
    Psi = LeftSpinorField(psi.expr)
    assert sup(residual_left_form(Psi, params, FLAT)) < 1e-10
    Pc = LeftSpinorField(f_product(psi.expr, Constant(IDEMPOTENT_F)))
    assert sup(residual_complex_ideal(Pc, params, FLAT)) < 1e-10
    column = fold_sups({}, [("column", *residual_covariant(Pc, REP, params, FLAT))], XS)
    assert column["column"] < 1e-9


def test_each_residual_is_a_field_of_its_bundle():
    params = rc_params(3)
    setup = rc_setup(3)
    ex = random_field_expr(RNG, even=True)
    assert residual_representative(CliffordField(ex), params, setup).kind is Kind.CLIFFORD
    assert residual_left_form(LeftSpinorField(ex), params, setup).kind is Kind.LEFT
    pc = LeftSpinorField(f_product(ex, Constant(IDEMPOTENT_F)))
    assert residual_complex_ideal(pc, params, setup).kind is Kind.LEFT
    with pytest.raises(KindMismatch):
        residual_covariant(CliffordField(ex), REP, params, setup)


def test_builders_evaluate_nothing(monkeypatch):
    """Setups, residuals, laws and frame changes are built without evaluating a field."""
    def refuse(plan, xs):
        raise AssertionError("a builder evaluated a field")

    monkeypatch.setattr("sta.fields._Plan.run", refuse)
    rng = np.random.default_rng(53)
    u = random_rotor_expr(rng)
    table = SpacetimeSetup(CHART, random_connection(rng))
    rotor = change_spin_frame(u, table).setup
    params = rc_params(53)
    for setup in (table, rotor):
        psi = CliffordField(random_field_expr(rng, even=True))
        pc = LeftSpinorField(f_product(psi.expr, Constant(IDEMPOTENT_F)))
        residual_representative(psi, params, setup)
        residual_left_form(LeftSpinorField(psi.expr), params, setup)
        residual_complex_ideal(pc, params, setup)
        residual_covariant(pc, REP, params, setup)
        bilinear_covariants(psi)
        effective_deriv(psi, 2, setup)
        lorentz_covariance_check(psi, params, setup, u)
        change_spin_frame(u, setup, clifford=[psi], left=[pc], representatives=[psi])


def test_boosted_plane_wave_solves_dhe():
    m = 0.9
    boost = exp_bivector(0.45 * (E(1) * E(0)))
    psi = make_plane_wave(m, boost)
    assert sup(residual_representative(psi, DiracParams(m, 0.0), FLAT)) < 1e-9
    bil = bilinear_covariants(make_plane_wave(m))
    sig = evaluate(bil["sigma"], XS)[:, 0]
    om = evaluate(bil["omega"], XS)[:, 0]
    assert np.max(np.abs(sig - 1.0)) < 1e-12 and np.max(np.abs(om)) < 1e-12


def test_make_plane_wave_rejects_non_rotor():
    with pytest.raises(NotRotor):
        make_plane_wave(1.0, E(1))


def test_constant_unknown_residual_is_exactly_the_mass_term():
    params = DiracParams(1.0, 0.0)
    one = CliffordField(Constant(Multivector.scalar(1.0)))
    r = residual_representative(one, params, FLAT)
    want = (-1.0 * E0).coeffs
    assert np.max(np.abs(r.eval(XS) - want)) == 0.0
    assert sup(r) == 1.0


def test_residual_linearity():
    params = rc_params(5)
    setup = rc_setup(5)
    e1 = random_field_expr(RNG, even=True)
    e2 = random_field_expr(RNG, even=True)
    r1 = residual_representative(CliffordField(e1), params, setup)
    r2 = residual_representative(CliffordField(e2), params, setup)
    r12 = residual_representative(CliffordField(e1) + CliffordField(e2), params, setup)
    assert np.max(np.abs(r12.eval(XS) - r1.eval(XS) - r2.eval(XS))) < 1e-12


def test_residual_parity_and_kind_guards():
    # parity is checked once, on the scenario's unknown (test_non_finite_fields_fail_the_guards);
    # the builders check kinds only
    params = DiracParams(1.0, 0.0)
    with pytest.raises(KindMismatch):
        residual_left_form(CliffordField(Constant(Multivector.scalar(1.0))), params, FLAT)
    # Psi f lies in the ideal by construction; a value outside it is refused by the column map
    ex = random_field_expr(np.random.default_rng(11), even=True)
    pc = evaluate(f_product(ex, Constant(IDEMPOTENT_F)), XS)
    assert np.max(np.abs(gp_batch(pc, IDEMPOTENT_F.coeffs) - pc)) < 1e-12
    with pytest.raises(NotInIdeal):
        column_from_ideal(CMultivector.scalar(1.0), REP)


def test_non_finite_fields_fail_the_guards():
    # the scenario checks its potential and unknown once, on the run grid
    def error(**sections):
        cfg = dict(load_config("minkowski-plane-wave"), suites=["algebra"], grid=3, **sections)
        with pytest.raises(ConfigError) as exc:
            Scenario(cfg)
        return str(exc.value)

    big = {"kind": "polynomial", "terms": [{"blade": "e0", "coef": 1e308, "powers": [1, 0, 0, 0]},
                                           {"blade": "e0", "coef": 1e308}]}
    params = {"mass": 1.0, "charge": 0.0}
    assert error(params=dict(params, potential=big)).startswith(
        "params.potential must be finite and grade 1 at every point of the run grid, "
        "but its defect reaches nan")
    spin_plane = {"kind": "constant", "blades": {"e12": 1e-9}}
    assert error(params=dict(params, potential=spin_plane)).endswith(
        "reaches 1.000e-09 (bound 1.000e-10)")
    # even, but overflowing: exp(e01 s) with s = 1e308 x0
    assert error(unknown={"type": "expr", "expr": {
        "kind": "exp-bivector", "bivector": {"e01": 1},
        "scalar": {"kind": "scalar-linear", "slope": [1e308, 0, 0, 0]}}}).startswith(
        "unknown.expr must be finite and even at every point of the run grid, "
        "but its defect reaches nan")
    # the odd bound is relative: 1e-10 max(1, sup|psi|)
    def unknown(odd):
        return {"type": "expr", "expr": {"kind": "constant", "blades": {"1": 1e6, "e1": odd}}}

    Scenario(dict(load_config("minkowski-plane-wave"), grid=3, unknown=unknown(1e-5)))
    assert error(unknown=unknown(1e-3)).endswith("reaches 1.000e-03 (bound 1.000e-04)")


# -- the triad of translations ---------------------------------------------------


def test_left_and_representative_forms_agree_componentwise():
    for seed in (21, 22):
        setup = rc_setup(seed)
        params = rc_params(seed)
        for _ in range(3):
            ex = random_field_expr(RNG, even=True)
            ra = residual_representative(CliffordField(ex), params, setup)
            rb = residual_left_form(LeftSpinorField(ex), params, setup)
            assert np.max(np.abs(ra.eval(XS) - rb.eval(XS))) < 1e-12


def test_idempotent_projection_maps_left_form_to_ideal_form():
    setup = rc_setup(23)
    params = rc_params(23)
    for _ in range(3):
        ex = random_field_expr(RNG, even=True)
        rdecl = residual_left_form(LeftSpinorField(ex), params, setup)
        projected = evaluate(f_product(rdecl.expr, Constant(IDEMPOTENT_F)), XS)
        pc = LeftSpinorField(f_product(ex, Constant(IDEMPOTENT_F)))
        rci = residual_complex_ideal(pc, params, setup)
        assert np.max(np.abs(projected - rci.eval(XS))) < 1e-12


def test_column_bijection_intertwines_residuals():
    setup = rc_setup(29)
    params = rc_params(29)
    for _ in range(3):
        ex = random_field_expr(RNG, even=True)
        pc = LeftSpinorField(f_product(ex, Constant(IDEMPOTENT_F)))
        rci = residual_complex_ideal(pc, params, setup)
        cols = columns_from_coeffs(rci.eval(XS), REP)
        nodes, column = residual_covariant(pc, REP, params, setup)
        assert np.max(np.abs(cols - column(*evaluate_many(nodes, XS)))) < 1e-11


# -- gauge transformations --------------------------------------------------------


@pytest.mark.parametrize("chi", [
    Constant(Multivector.scalar(0.4)),
    ScalarLinear([0.3, -0.2, 0.1, 0.4], 0.1),
    ScalarSine(0.5, [1.0, 0.7, -0.3, 0.2], 0.3),
], ids=["constant", "linear", "sine"])
def test_gauge_covariance_both_forms(chi):
    setup = rc_setup(31)
    params = rc_params(31)
    ex = random_field_expr(RNG, even=True)

    Psi = LeftSpinorField(ex)
    P2, params2, G = gauge_transform_left_form(Psi, params, chi, setup)
    r1 = residual_left_form(Psi, params, setup)
    r2 = residual_left_form(P2, params2, setup)
    want = evaluate(f_product(r1.expr, G.expr), XS)
    assert np.max(np.abs(r2.eval(XS) - want)) < 1e-11

    psi = CliffordField(ex)
    p2, params2b, G2 = gauge_transform_representative(psi, params, chi, setup)
    r1b = residual_representative(psi, params, setup)
    r2b = residual_representative(p2, params2b, setup)
    wantb = evaluate(f_product(r1b.expr, G2.expr), XS)
    assert np.max(np.abs(r2b.eval(XS) - wantb)) < 1e-11


def test_constant_gauge_function_is_a_constant_rotor():
    setup = rc_setup(37)
    params = DiracParams(1.0, 0.8, random_potential(np.random.default_rng(37)))
    chi = Constant(Multivector.scalar(0.25))
    Psi = LeftSpinorField(random_field_expr(RNG, even=True))
    P2, params2, G = gauge_transform_left_form(Psi, params, chi, setup)
    assert np.max(np.abs(evaluate(params2.potential.expr, XS)
                         - evaluate(params.potential.expr, XS))) < 1e-15
    gvals = evaluate(G.expr, XS)
    assert np.max(np.abs(gvals - gvals[0])) < 1e-15
    want = exp_bivector(-params.charge * 0.25 * E21)
    assert np.allclose(gvals[0], want.coeffs, atol=1e-14)


def test_gauge_gradient_is_the_frame_gradient():
    chi = ScalarLinear([0.3, -0.2, 0.1, 0.4], 0.0)
    grad = scalar_gradient(chi, FLAT)
    got = grad.eval(XS)[0]
    want = (0.3 * E(0) - 0.2 * E(1) + 0.1 * E(2) + 0.4 * E(3)).coeffs
    assert np.allclose(got, want, atol=1e-14)


def test_gauge_rotor_leg_rotation_closed_forms():
    q, theta = 0.7, 0.83
    G = exp_bivector(-q * theta / 2 * E21)
    Gi = exp_bivector(q * theta / 2 * E21)
    cq, sq = np.cos(q * theta), np.sin(q * theta)
    assert (G * E(0) * Gi).approx_eq(E(0), 1e-12)
    assert (G * E(1) * Gi).approx_eq(cq * E(1) + sq * E(2), 1e-12)
    assert (G * E(2) * Gi).approx_eq(-sq * E(1) + cq * E(2), 1e-12)
    assert (G * E(3) * Gi).approx_eq(E(3), 1e-12)


# -- Lorentz covariance -------------------------------------------------------------


def test_lorentz_identity_rotor():
    params = rc_params(41)
    psi = CliffordField(random_field_expr(RNG, even=True))
    setup = rc_setup(41)
    (after, expected), _ = lorentz_covariance_check(psi, params, setup,
                                                    Constant(Multivector.scalar(1.0)))
    assert expected is residual_representative(psi, params, setup).expr  # u~ R with u = 1 is R
    assert fold_sups({}, [("defect", (after, expected))], XS)["defect"] < 1e-13


def test_lorentz_constant_boost():
    params = rc_params(43)
    psi = CliffordField(random_field_expr(RNG, even=True))
    u = Constant(exp_bivector(0.35 * (E(1) * E(0))))
    law, _ = lorentz_covariance_check(psi, params, rc_setup(43), u)
    assert fold_sups({}, [("defect", law)], XS)["defect"] < 1e-9


def test_lorentz_local_rotor():
    from sta.suites import random_rotor_expr

    params = rc_params(47)
    psi = CliffordField(random_field_expr(RNG, even=True))
    u = random_rotor_expr(np.random.default_rng(47))
    law, _ = lorentz_covariance_check(psi, params, rc_setup(47), u)
    assert fold_sups({}, [("defect", law)], XS)["defect"] < 1e-8


def test_lorentz_frame_rotor_is_checked_by_validate_rotor():
    # the frame change takes its rotor on trust; the scenario checks it once, on the run grid
    cfg = dict(load_config("torsion-toy"), suites=["algebra"], grid=3,
               frame={"type": "rotor", "expr": {"kind": "constant", "blades": {"e1": 1}}})
    with pytest.raises(ConfigError) as exc:
        Scenario(cfg)
    # e1 is odd, and e1~ e1 = -1 misses 1 by 2
    assert str(exc.value) == ("frame.expr must be a finite real rotor at every point of the run "
                              "grid, but its defect reaches 2.000e+00 (bound 1.000e-09)")


# -- bilinears ------------------------------------------------------------------------


def test_bilinears_of_unity():
    bil = bilinear_covariants(CliffordField(Constant(Multivector.scalar(1.0))))
    x0 = XS[:1]
    assert np.allclose(evaluate(bil["S"].expr, x0)[0], Multivector.scalar(1.0).coeffs)
    assert np.allclose(evaluate(bil["J"].expr, x0)[0], E(0).coeffs)          # e_0
    assert np.allclose(evaluate(bil["K"].expr, x0)[0], (-1.0 * E(3)).coeffs)  # e_3
    assert np.allclose(evaluate(bil["M"].expr, x0)[0], (E(1) * E(2)).coeffs)  # e_1 e_2
    assert evaluate(bil["sigma"], x0)[0, 0] == 1.0
    assert evaluate(bil["omega"], x0)[0, 0] == 0.0


def test_bilinears_spin_plane_rotor_keeps_current():
    rot = CliffordField(Constant(exp_bivector(0.77 * E21)))
    bil = bilinear_covariants(rot)
    assert np.allclose(evaluate(bil["J"].expr, XS[:1])[0], E(0).coeffs, atol=1e-14)


def test_bilinear_grade_purity_and_quadratic_relations():
    for _ in range(30):
        m = Multivector(RNG.normal(size=16)).even()
        bil = bilinear_covariants(CliffordField(Constant(m)))
        x0 = XS[:1]
        roots = [bil[k].expr for k in ("S", "J", "K", "M")] + [bil["sigma"], bil["omega"]]
        S, J, K, M, sig, om = (v[0] for v in evaluate_many(roots, x0))
        sig, om = sig[0], om[0]
        assert np.max(np.abs(S[(GRADES != 0) & (GRADES != 4)])) < 1e-12
        assert np.max(np.abs(J[GRADES != 1])) < 1e-12
        assert np.max(np.abs(K[GRADES != 1])) < 1e-12
        assert np.max(np.abs(M[GRADES != 2])) < 1e-12
        assert abs(gp_batch(J, J)[0] - (sig**2 + om**2)) < 1e-10
        assert abs(gp_batch(K, K)[0] + (sig**2 + om**2)) < 1e-10
        assert abs(0.5 * (gp_batch(J, K) + gp_batch(K, J))[0]) < 1e-10


def test_bilinears_odd_input_is_refused_by_require_even():
    # the bilinears take an even unknown on trust; the scenario refuses an odd one
    cfg = dict(load_config("minkowski-plane-wave"), suites=["algebra"], grid=3,
               unknown={"type": "expr", "expr": {"kind": "constant", "blades": {"e1": 1}}})
    with pytest.raises(ConfigError) as exc:
        Scenario(cfg)
    assert str(exc.value).startswith(
        "unknown.expr must be finite and even at every point of the run grid, "
        "but its defect reaches 1.000e+00")
