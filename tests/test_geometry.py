"""Connections, covariant derivatives, transport and changes of spin frame."""

import numpy as np
import pytest

from sta.algebra import GRADES, E, Multivector, gp_batch
from sta.errors import ConfigError, CurveOutOfChart, KindMismatch
from sta.fields import (
    CliffordField,
    Constant,
    Field,
    GradeSelect,
    Kind,
    LeftSpinorField,
    Polynomial,
    RightSpinorField,
    evaluate,
    evaluate_many,
    f_product,
    f_reverse,
    f_scale,
    fold_sups,
)
from sta.geometry import (
    ETA,
    Chart,
    ConnectionField,
    Curve,
    SpacetimeSetup,
    change_spin_frame,
    cov_deriv_clifford,
    cov_deriv_left,
    cov_deriv_right,
    dirac_operator_left,
    directional_derivative,
    effective_deriv,
    effective_deriv_via_connection,
    pair_to_clifford,
    parallel_transport,
    transformed_connection_form,
    unit_left,
    unit_right,
)
from sta.scenario import Scenario, load_config
from sta.spinors import IDEMPOTENT_E
from sta.suites import random_connection, random_field_expr, random_rotor_expr

CHART = Chart([0, 0, 0, 0], [1, 1, 1, 1])
RNG = np.random.default_rng(123)


def rc_setup(seed=0, scale=0.3):
    return SpacetimeSetup(CHART, random_connection(np.random.default_rng(seed), scale))


def sup_diff(f1: Field, f2: Field, xs) -> float:
    return fold_sups({}, [("d", (f1.expr, f2.expr))], xs)["d"]


# -- connection ---------------------------------------------------------------


def test_flat_connection_has_zero_omega():
    setup = SpacetimeSetup(CHART)
    xs = CHART.grid(3)
    for a in range(4):
        assert np.max(np.abs(evaluate(setup.omega(a), xs))) == 0.0


def test_single_coefficient_spin_connection():
    kappa = 0.8
    setup = SpacetimeSetup(CHART, ConnectionField({(0, 1, 2): Constant(Multivector.scalar(kappa))}))
    w0 = evaluate(setup.omega(0), CHART.grid(2))[0]
    want = (-kappa) * (E(1) * E(2))
    assert np.allclose(w0, want.coeffs)


def test_antisymmetry_validation():
    # only Gamma_abc with b < c is given; the c < b mirror follows, so it cannot be wrong
    one = Constant(Multivector.scalar(1.0))
    for key in ((0, 2, 1), (0, 1, 1), (4, 0, 1), (0, 1, 4), (0, 1)):
        with pytest.raises(ValueError, match="connection key"):
            ConnectionField({key: one})
    assert ConnectionField().is_zero and ConnectionField.zero().is_zero
    assert not ConnectionField({(3, 0, 1): one}).is_zero


def scenario_error(**sections) -> str:
    """The ``ConfigError`` message of the minkowski scenario with ``sections`` replaced."""
    cfg = dict(load_config("minkowski-plane-wave"), suites=["algebra"], grid=3, **sections)
    with pytest.raises(ConfigError) as exc:
        Scenario(cfg)
    return str(exc.value)


_OVERFLOW = {"kind": "scalar-linear", "slope": [1e308, 0, 0, 0], "offset": 1e308}


def test_non_finite_connection_and_rotor_fail_validation():
    msg = scenario_error(connection={"type": "table", "entries": [
        {"a": 0, "b": 1, "c": 2, "expr": _OVERFLOW}]})
    assert msg.startswith("connection.entries[0].expr must be a finite real scalar at every "
                          "point of the run grid, but its defect reaches nan"), msg
    msg = scenario_error(frame={"type": "rotor", "expr": {
        "kind": "exp-bivector", "bivector": {"e12": 1}, "scalar": _OVERFLOW}})
    assert msg.startswith("frame.expr must be a finite real rotor"), msg
    assert "reaches nan" in msg


def test_connection_recovered_from_omega():
    """D_{e_a} e_b = Gamma_ab^c e_c with lowered legs, i.e. Gamma_abc e^c."""
    setup = rc_setup(7)
    xs = CHART.grid(3)
    for a in range(4):
        for b in range(4):
            nab = cov_deriv_clifford(setup.leg_lower(b), np.eye(4)[a], setup)
            acc = Constant(Multivector.zero())
            for c in range(4):
                g = setup.connection.entries.get((a, min(b, c), max(b, c)))
                if g is not None:
                    acc = acc + f_product(g, Constant((1.0 if b < c else -1.0) * E(c)))
            assert sup_diff(nab, CliffordField(acc), xs) < 1e-12


# -- covariant derivatives ----------------------------------------------------


def test_flat_derivatives_reduce_to_directional():
    setup = SpacetimeSetup(CHART)
    xs = CHART.grid(3)
    expr = random_field_expr(RNG)
    V = RNG.normal(size=4)
    A = CliffordField(expr)
    assert sup_diff(cov_deriv_clifford(A, V, setup),
                    directional_derivative(A, V, setup), xs) == 0.0
    P = LeftSpinorField(expr)
    assert sup_diff(cov_deriv_left(P, V, setup),
                    directional_derivative(P, V, setup), xs) == 0.0


def test_leibniz_rules():
    setup = rc_setup(11)
    xs = CHART.grid(4)
    for _ in range(5):
        a_expr = random_field_expr(RNG)
        b_expr = random_field_expr(RNG)
        V = RNG.normal(size=4)
        A, B = CliffordField(a_expr), CliffordField(b_expr)
        lhs = cov_deriv_clifford(A * B, V, setup)
        rhs = cov_deriv_clifford(A, V, setup) * B + A * cov_deriv_clifford(B, V, setup)
        assert sup_diff(lhs, rhs, xs) < 1e-12

        P = LeftSpinorField(b_expr)
        lhs = cov_deriv_left(A * P, V, setup)
        rhs = A * cov_deriv_left(P, V, setup) + cov_deriv_clifford(A, V, setup) * P
        assert sup_diff(lhs, rhs, xs) < 1e-12

        F = RightSpinorField(b_expr)
        lhs = cov_deriv_right(F * A, V, setup)
        rhs = F * cov_deriv_clifford(A, V, setup) + cov_deriv_right(F, V, setup) * A
        assert sup_diff(lhs, rhs, xs) < 1e-12


def test_spinor_derivative_preserves_ideal():
    setup = rc_setup(13)
    xs = CHART.grid(4)
    P = LeftSpinorField(f_product(random_field_expr(RNG), Constant(IDEMPOTENT_E)))
    dP = cov_deriv_left(P, RNG.normal(size=4), setup)
    proj = Field(Kind.LEFT, f_product(dP.expr, Constant(IDEMPOTENT_E)))
    assert sup_diff(proj, dP, xs) < 1e-12


def test_unit_section_law():
    setup = rc_setup(17)
    xs = CHART.grid(3)
    for a in range(4):
        lhs = cov_deriv_right(unit_right(), np.eye(4)[a], setup)
        rhs = RightSpinorField(f_scale(-0.5, setup.omega(a)))
        assert sup_diff(lhs, rhs, xs) < 1e-13


def test_effective_derivative_two_routes_and_parity():
    xs = CHART.grid(3)
    psi = CliffordField(random_field_expr(RNG, even=True))
    rotor_setup = change_spin_frame(random_rotor_expr(RNG), rc_setup(19)).setup
    for setup in (SpacetimeSetup(CHART), rc_setup(19), rotor_setup):
        for a in range(4):
            d1 = effective_deriv(psi, a, setup)
            d2 = effective_deriv_via_connection(psi, a, setup)
            assert sup_diff(d1, d2, xs) < 1e-11
            # an even field has an even effective derivative
            assert np.max(np.abs(evaluate(d1.expr, xs)[:, GRADES % 2 == 1])) < 1e-12


def test_effective_one_sided_leibniz():
    setup = rc_setup(23)
    xs = CHART.grid(4)
    U = CliffordField(random_field_expr(RNG))
    psi = CliffordField(random_field_expr(RNG, even=True))
    for a in range(4):
        lhs = effective_deriv(U * psi, a, setup)
        rhs = cov_deriv_clifford(U, np.eye(4)[a], setup) * psi + U * effective_deriv(psi, a, setup)
        assert sup_diff(lhs, rhs, xs) < 1e-12


def test_dirac_operator_flat_cases():
    setup = SpacetimeSetup(CHART)
    xs = CHART.grid(3)
    const = LeftSpinorField(Constant(Multivector(RNG.normal(size=16))))
    assert np.max(np.abs(dirac_operator_left(const, setup).eval(xs))) == 0.0
    # linearity
    p1 = LeftSpinorField(random_field_expr(RNG))
    p2 = LeftSpinorField(random_field_expr(RNG))
    lhs = dirac_operator_left(p1 + p2, setup)
    rhs = dirac_operator_left(p1, setup) + dirac_operator_left(p2, setup)
    assert sup_diff(lhs, rhs, xs) < 1e-13


def test_dirac_operator_matches_finite_differences():
    """Analytic Dirac operator of a traveling rotor vs O(h^2) differences."""
    from sta.fields import rotor_wave
    from sta.geometry import fd_directional

    setup = SpacetimeSetup(CHART)
    expr = rotor_wave(Multivector.scalar(1.0), -1.2 * (E(2) * E(1)), [0.8, 0.3, 0, 0.2])
    P = LeftSpinorField(expr)
    analytic = dirac_operator_left(P, setup).expr
    xs = CHART.interior_grid(3, 0.2)

    def fd_value(h):
        acc = np.zeros((len(xs), 16))
        for a in range(4):
            acc += gp_batch(E(a).coeffs, fd_directional(expr, xs, a, h))
        return acc

    ref = evaluate(analytic, xs)
    e1 = np.max(np.abs(fd_value(1e-3) - ref))
    e2 = np.max(np.abs(fd_value(5e-4) - ref))
    assert e1 < 1e-5 and e1 / max(e2, 1e-300) > 3.5


# -- parallel transport --------------------------------------------------------


def test_flat_transport_is_identity():
    setup = SpacetimeSetup(CHART)
    a0 = Multivector(RNG.normal(size=16))
    out = parallel_transport(a0, Kind.CLIFFORD, Curve.line([0.1] * 4, [0.9] * 4), setup, 32)
    assert (out - a0).norm_sup() < 1e-15


def test_transport_grade_preservation_and_conservation():
    setup = rc_setup(29, scale=0.8)
    curve = Curve.line([0.1] * 4, [0.9] * 4)
    b0 = Multivector(RNG.normal(size=16)).grade(2)
    out = parallel_transport(b0, Kind.CLIFFORD, curve, setup, 256)
    assert (out - out.grade(2)).norm_sup() < 1e-12
    a0 = Multivector(RNG.normal(size=16))
    s0 = (a0.reverse() * a0).scalar_part
    out = parallel_transport(a0, Kind.CLIFFORD, curve, setup, 256)
    assert abs((out.reverse() * out).scalar_part - s0) < 1e-9


def test_transport_fourth_order():
    setup = SpacetimeSetup(CHART, random_connection(np.random.default_rng(31), scale=2.5))
    curve = Curve(np.array([[0.1, 0.1, 0.1, 0.1], [1.2, 0.4, 0.8, 0.6], [-0.6, 0.3, -0.2, 0.1]]))
    a0 = Multivector(np.random.default_rng(32).normal(size=16))
    s0 = (a0.reverse() * a0).scalar_part

    def err(steps):
        out = parallel_transport(a0, Kind.CLIFFORD, curve, setup, steps)
        return abs((out.reverse() * out).scalar_part - s0)

    e1, e2 = err(32), err(64)
    assert e1 > 1e-12  # measurable
    assert e1 / max(e2, 1e-300) >= 12.0


def test_transport_pairing_and_ideal_stability():
    setup = rc_setup(37)
    curve = Curve.line([0.15] * 4, [0.85] * 4)
    p0 = Multivector(RNG.normal(size=16))
    f0 = Multivector(RNG.normal(size=16))
    pt = parallel_transport(p0, Kind.LEFT, curve, setup, 256)
    ft = parallel_transport(f0, Kind.RIGHT, curve, setup, 256)
    ct = parallel_transport(p0 * f0, Kind.CLIFFORD, curve, setup, 256)
    assert (pt * ft - ct).norm_sup() < 1e-7
    q0 = p0 * IDEMPOTENT_E
    qt = parallel_transport(q0, Kind.LEFT, curve, setup, 256)
    assert (qt * IDEMPOTENT_E - qt).norm_sup() < 1e-10


def rk4_reference(a0, kind, omega_at, steps):
    """Classical RK4 with one-row omega and one-row products per stage."""
    rhs_of = {
        Kind.CLIFFORD: lambda w, y: -0.5 * (gp_batch(w, y) - gp_batch(y, w)),
        Kind.LEFT: lambda w, y: -0.5 * gp_batch(w, y),
        Kind.RIGHT: lambda w, y: 0.5 * gp_batch(y, w),
    }[kind]

    def rhs(t, y):
        return rhs_of(omega_at(t), y)

    y = np.array(a0.coeffs)
    h = 1.0 / steps
    for k in range(steps):
        t = k * h
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


@pytest.mark.parametrize("frame", ["fiducial", "rotated"])
def test_transport_matches_per_stage_reference(frame):
    setup = rc_setup(53, scale=0.8)
    if frame == "rotated":
        setup = change_spin_frame(random_rotor_expr(np.random.default_rng(54)), setup).setup
        assert not setup.tetrad.is_identity
    curve = Curve(np.array([[0.2, 0.3, 0.1, 0.2], [0.5, 0.2, 0.6, 0.4], [-0.2, 0.1, 0.1, 0.2]]))
    a0 = Multivector(np.random.default_rng(55).normal(size=16))
    omegas = {}  # one-row omega per stage time, shared by the three kinds

    def omega_at(t):
        if t not in omegas:
            omegas[t] = setup.omega_coord_at(curve.velocity([t]), curve.point([t]))[0]
        return omegas[t]

    for kind in (Kind.CLIFFORD, Kind.LEFT, Kind.RIGHT):
        out = parallel_transport(a0, kind, curve, setup, 8)
        ref = rk4_reference(a0, kind, omega_at, 8)
        assert np.max(np.abs(out.coeffs - a0.coeffs)) > 1e-3  # the connection acts
        assert out.coeffs == pytest.approx(ref, rel=1e-12)


def test_array_directions_intern_no_scalar_constant_and_rebuild_to_the_same_nodes():
    from sta.fields import _NODES

    torsion = {(0, 1, 2): Constant(Multivector.scalar(0.8))}
    A = CliffordField(Polynomial([(0b0011, 0.7, (1, 0, 2, 0)), (0b0101, -0.3, (0, 1, 0, 1))]))
    V = np.random.default_rng(71).normal(size=4)
    for setup in (SpacetimeSetup(CHART, ConnectionField(torsion)), rc_setup(72)):
        before = dict(_NODES)
        first = (directional_derivative(A, V, setup).expr, cov_deriv_clifford(A, V, setup).expr)
        added = [node for key, node in _NODES.items() if key not in before]
        assert added and not [n for n in added if isinstance(n, Constant) and n.is_scalar]
        built = dict(_NODES)
        again = (directional_derivative(A, V, setup).expr, cov_deriv_clifford(A, V, setup).expr)
        assert again[0] is first[0] and again[1] is first[1]
        assert _NODES == built


def test_batched_omega_matches_row_by_row():
    setup = change_spin_frame(random_rotor_expr(np.random.default_rng(56)), rc_setup(57)).setup
    rng = np.random.default_rng(58)
    xs = rng.uniform(0.1, 0.9, size=(5, 4))
    vs = rng.normal(size=(5, 4))
    batched = setup.omega_coord_at(vs, xs)
    assert batched.shape == (5, 16)
    for s in range(5):
        row = setup.omega_coord_at(vs[s:s + 1], xs[s:s + 1])[0]
        assert batched[s] == pytest.approx(row, rel=1e-12)
    # independent route: frame components V, pushed to coordinates by the
    # tetrad itself, give omega_V
    V = rng.normal(size=4)
    coords = np.stack([evaluate(c, xs)[:, 0] for c in setup.coord_components(V)], axis=1)
    want = evaluate(setup.omega_for(V), xs)
    assert np.max(np.abs(setup.omega_coord_at(coords, xs) - want)) < 1e-12 * np.max(np.abs(want))


def test_curve_accepts_parameter_arrays():
    curve = Curve(np.array([[0.2, 0.3, 0.1, 0.2], [0.5, 0.2, 0.6, 0.4], [-0.2, 0.1, 0.1, 0.2]]))
    ts = np.linspace(0.0, 1.0, 7)
    pts, vels = curve.point(ts), curve.velocity(ts)
    assert pts.shape == vels.shape == (7, 4)
    c0, c1, c2 = curve.coeffs
    for t, p, v in zip(ts, pts, vels):
        assert p == pytest.approx(c0 + t * c1 + t * t * c2, rel=1e-14)
        assert v == pytest.approx(c1 + 2 * t * c2, rel=1e-14)


def test_transport_rejects_out_of_chart():
    setup = SpacetimeSetup(CHART)
    with pytest.raises(CurveOutOfChart):
        parallel_transport(Multivector.scalar(1.0), Kind.CLIFFORD,
                           Curve.line([0.5] * 4, [1.5] * 4), setup, 8)


# -- change of spin frame -------------------------------------------------------


def test_identity_rotor_changes_nothing():
    setup = rc_setup(41)
    xs = CHART.grid(3)
    fc = change_spin_frame(Constant(Multivector.scalar(1.0)), setup,
                           clifford=[CliffordField(random_field_expr(RNG))])
    for a in range(4):
        assert np.allclose(evaluate(fc.legs[a].expr, xs), E(a).coeffs)
        d = np.max(np.abs(evaluate(fc.setup.omega(a), xs) - evaluate(setup.omega(a), xs)))
        assert d < 1e-12


def test_constant_rotor_legs_closed_form():
    from sta.algebra import exp_bivector

    theta = 0.7
    u = exp_bivector(-theta / 2 * (E(2) * E(1)))
    fc = change_spin_frame(Constant(u), SpacetimeSetup(CHART))
    xs = CHART.grid(2)
    want = [
        E(0),
        np.cos(theta) * E(1) + np.sin(theta) * E(2),
        -np.sin(theta) * E(1) + np.cos(theta) * E(2),
        E(3),
    ]
    for a in range(4):
        got = evaluate(fc.legs[a].expr, xs)[0]
        assert np.allclose(got, want[a].coeffs, atol=1e-12)


def test_frame_change_two_routes_and_orthonormality():
    setup = rc_setup(43)
    u = random_rotor_expr(RNG)
    fc = change_spin_frame(u, setup)
    xs = CHART.grid(3)
    vals = evaluate_many([l.expr for l in fc.legs], xs)
    for a in range(4):
        for b in range(4):
            anti = gp_batch(vals[a], vals[b]) + gp_batch(vals[b], vals[a])
            unit = np.zeros(16)
            unit[0] = 2.0 if a == b == 0 else (-2.0 if a == b else 0.0)
            assert np.max(np.abs(anti - unit)) < 1e-11
    # the frame change builds Gamma'_abc for b < c only; the full table is antisymmetric
    lowered = [Field(Kind.CLIFFORD, f_scale(float(ETA[a]), fc.legs[a].expr)) for a in range(4)]
    full = {}
    for a in range(4):
        for b in range(4):
            nab = cov_deriv_clifford(lowered[b], lowered[a], setup).expr
            for c in range(4):
                full[a, b, c] = GradeSelect(f_product(nab, lowered[c].expr), {0})
    entries = fc.setup.connection.entries
    assert sorted(entries) == [k for k in sorted(full) if k[1] < k[2]]
    assert all(full[k] is g for k, g in entries.items())
    worst = fold_sups({}, [(k, (full[k], f_scale(-1.0, full[k[0], k[2], k[1]]))) for k in full],
                      CHART.grid(4))
    assert max(worst.values()) < 1e-10
    for a in range(4):
        lowered = Field(Kind.CLIFFORD, f_scale(float(ETA[a]), fc.legs[a].expr))
        wB = transformed_connection_form(u, setup, lowered)
        wA = f_product(f_product(u, fc.setup.omega(a)), f_reverse(u))
        assert fold_sups({}, [("two-routes", (wA, wB))], xs)["two-routes"] < 1e-10


def test_frame_change_naturality_all_kinds():
    setup = rc_setup(47)
    u = random_rotor_expr(RNG)
    xs = CHART.grid(3)
    A = CliffordField(random_field_expr(RNG))
    P = LeftSpinorField(random_field_expr(RNG))
    F = RightSpinorField(random_field_expr(RNG))
    V = CliffordField(GradeSelect(random_field_expr(RNG), {1}))
    dA = cov_deriv_clifford(A, V, setup)
    dP = cov_deriv_left(P, V, setup)
    dF = cov_deriv_right(F, V, setup)
    fc = change_spin_frame(u, setup, clifford=[A, V, dA], left=[P, dP], right=[F, dF])
    A2, V2, dA2w = fc.clifford
    P2, dP2w = fc.left
    F2, dF2w = fc.right
    assert sup_diff(cov_deriv_clifford(A2, V2, fc.setup), dA2w, xs) < 1e-10
    assert sup_diff(cov_deriv_left(P2, V2, fc.setup), dP2w, xs) < 1e-10
    assert sup_diff(cov_deriv_right(F2, V2, fc.setup), dF2w, xs) < 1e-10


def test_rotor_validation():
    # e1 is odd with reverse(e1) e1 = -1; the scalar 2 is even with reverse(2) 2 = 4
    for blades, defect in (({"e1": 1}, "2.000e+00"), ({"1": 2}, "3.000e+00")):
        msg = scenario_error(frame={"type": "rotor", "expr": {"kind": "constant",
                                                              "blades": blades}})
        assert msg == ("frame.expr must be a finite real rotor at every point of the run "
                       f"grid, but its defect reaches {defect} (bound 1.000e-09)")


# -- pairings -------------------------------------------------------------------


def test_unit_section_pairings():
    xs = CHART.grid(2)
    one = pair_to_clifford(unit_left(), unit_right())
    assert np.allclose(one.eval(xs)[0], Multivector.scalar(1.0).coeffs)
    setup = SpacetimeSetup(CHART)
    for a in range(4):
        # 1r e_a 1l is the constant generator: a frame scalar
        mid = unit_right() * setup.leg_lower(a)
        out = mid * unit_left()
        assert out.kind is Kind.FRAME_SCALAR
        assert np.allclose(out.eval(xs)[0], (float(ETA[a]) * E(a)).coeffs)


def test_representative_has_spinor_components():
    expr = random_field_expr(RNG, even=True)
    psi_rep = pair_to_clifford(LeftSpinorField(expr), unit_right())
    xs = CHART.grid(3)
    assert np.array_equal(psi_rep.eval(xs), evaluate(expr, xs))
    with pytest.raises(KindMismatch):
        pair_to_clifford(LeftSpinorField(expr), LeftSpinorField(expr))
