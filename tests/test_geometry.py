"""Connections, covariant derivatives, transport and changes of spin frame."""

import ast
import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sta.algebra import GRADES, E, Multivector, gp_batch
from sta.errors import ConfigError, CurveOutOfChart, KindMismatch
from sta.fields import (
    BladeCoeff,
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
    f_combine,
    f_product,
    f_reverse,
    f_scale,
    f_sum,
    fold_sups,
)
from sta.geometry import (
    _BLOCK_STEPS,
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
    unit_right,
)
from sta.scenario import Scenario, load_config
from sta.spinors import IDEMPOTENT_E
from sta.suites import random_connection, random_field_expr, random_rotor_expr

from finite_differences import fd_directional, interior_grid

CHART = Chart([0, 0, 0, 0], [1, 1, 1, 1])
RNG = np.random.default_rng(123)


def rc_setup(seed=0, scale=0.3):
    return SpacetimeSetup(CHART, random_connection(np.random.default_rng(seed), scale))


def sup_diff(f1: Field, f2: Field, xs) -> float:
    return fold_sups([("d", (f1.expr, f2.expr))], xs)["d"]


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
    assert ConnectionField().is_zero and ConnectionField({}).is_zero
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
            leg = CliffordField(Constant(float(ETA[b]) * E(b)))  # the lowered leg e_b
            nab = cov_deriv_clifford(leg, np.eye(4)[a], setup)
            acc = Constant(Multivector.zero())
            for c in range(4):
                g = setup.connection.entries.get((a, min(b, c), max(b, c)))
                if g is not None:
                    acc = f_sum(acc, f_product(g, Constant((1.0 if b < c else -1.0) * E(c))))
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


# each derivative entry point, the kind it accepts, and a call along e_1
_DERIVATIVES = {
    "cov_deriv_clifford": (Kind.CLIFFORD, lambda F, s: cov_deriv_clifford(F, np.eye(4)[1], s)),
    "cov_deriv_left": (Kind.LEFT, lambda F, s: cov_deriv_left(F, np.eye(4)[1], s)),
    "cov_deriv_right": (Kind.RIGHT, lambda F, s: cov_deriv_right(F, np.eye(4)[1], s)),
    "effective_deriv": (Kind.CLIFFORD, lambda F, s: effective_deriv(F, 1, s)),
}


@pytest.mark.parametrize("name, other", [(name, other) for name, (kind, _) in _DERIVATIVES.items()
                                         for other in Kind if other is not kind])
def test_derivatives_refuse_a_field_of_another_kind(name, other):
    kind, deriv = _DERIVATIVES[name]
    setup = rc_setup(81)
    expr = random_field_expr(np.random.default_rng(81))
    assert deriv(Field(kind, expr), setup).kind is kind
    with pytest.raises(KindMismatch, match=f"^a covariant derivative of {kind.value} fields "
                                           f"got a {other.value} field$"):
        deriv(Field(other, expr), setup)


def test_each_derivative_is_one_combination_read_off_its_action():
    setup = rc_setup(82)
    V = np.array([0.3, -0.2, 0.5, 0.1])
    F = random_field_expr(np.random.default_rng(82))
    dF = directional_derivative(CliffordField(F), V, setup).expr
    wF, Fw = f_product(setup.omega_for(V), F), f_product(F, setup.omega_for(V))
    assert cov_deriv_clifford(CliffordField(F), V, setup).expr is f_combine(
        [(1.0, dF), (0.5, wF), (-0.5, Fw)])
    assert cov_deriv_left(LeftSpinorField(F), V, setup).expr is f_combine([(1.0, dF), (0.5, wF)])
    assert cov_deriv_right(RightSpinorField(F), V, setup).expr is f_combine(
        [(1.0, dF), (-0.5, Fw)])
    d1 = directional_derivative(CliffordField(F), np.eye(4)[1], setup).expr
    assert effective_deriv(CliffordField(F), 1, setup).expr is f_combine(
        [(1.0, d1), (0.5, f_product(setup.omega(1), F))])


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

    setup = SpacetimeSetup(CHART)
    expr = rotor_wave(Multivector.scalar(1.0), -1.2 * (E(2) * E(1)), [0.8, 0.3, 0, 0.2])
    P = LeftSpinorField(expr)
    analytic = dirac_operator_left(P, setup).expr
    xs = interior_grid(CHART, 3, 0.2)

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
    [out] = parallel_transport([a0], Kind.CLIFFORD, Curve.line([0.1] * 4, [0.9] * 4), setup, 32)
    assert (out - a0).norm_sup() < 1e-15


def test_transport_refuses_a_kind_without_a_rule():
    curve = Curve.line([0.1] * 4, [0.9] * 4)
    a0 = Multivector.scalar(1.0)
    with pytest.raises(KindMismatch, match="^no transport rule for kind frame-scalar$"):
        parallel_transport([a0], Kind.FRAME_SCALAR, curve, SpacetimeSetup(CHART))
    for other in ("left", ["left"]):
        msg = f"^no transport rule for kind {re.escape(repr(other))}$"
        with pytest.raises(KindMismatch, match=msg):
            parallel_transport([a0], other, curve, SpacetimeSetup(CHART))


def test_transport_grade_preservation_and_conservation():
    setup = rc_setup(29, scale=0.8)
    curve = Curve.line([0.1] * 4, [0.9] * 4)
    b0 = Multivector(RNG.normal(size=16)).grade(2)
    [out] = parallel_transport([b0], Kind.CLIFFORD, curve, setup, 256)
    assert (out - out.grade(2)).norm_sup() < 1e-12
    a0 = Multivector(RNG.normal(size=16))
    s0 = (a0.reverse() * a0).scalar_part
    [out] = parallel_transport([a0], Kind.CLIFFORD, curve, setup, 256)
    assert abs((out.reverse() * out).scalar_part - s0) < 1e-9


def test_transport_fourth_order():
    setup = SpacetimeSetup(CHART, random_connection(np.random.default_rng(31), scale=2.5))
    curve = Curve(np.array([[0.1, 0.1, 0.1, 0.1], [1.2, 0.4, 0.8, 0.6], [-0.6, 0.3, -0.2, 0.1]]))
    a0 = Multivector(np.random.default_rng(32).normal(size=16))
    s0 = (a0.reverse() * a0).scalar_part

    def err(steps):
        [out] = parallel_transport([a0], Kind.CLIFFORD, curve, setup, steps)
        return abs((out.reverse() * out).scalar_part - s0)

    e1, e2 = err(32), err(64)
    assert e1 > 1e-12  # measurable
    assert e1 / max(e2, 1e-300) >= 12.0


def test_transport_pairing_and_ideal_stability():
    setup = rc_setup(37)
    curve = Curve.line([0.15] * 4, [0.85] * 4)
    p0 = Multivector(RNG.normal(size=16))
    f0 = Multivector(RNG.normal(size=16))
    [pt] = parallel_transport([p0], Kind.LEFT, curve, setup, 256)
    [ft] = parallel_transport([f0], Kind.RIGHT, curve, setup, 256)
    [ct] = parallel_transport([p0 * f0], Kind.CLIFFORD, curve, setup, 256)
    assert (pt * ft - ct).norm_sup() < 1e-7
    q0 = p0 * IDEMPOTENT_E
    [qt] = parallel_transport([q0], Kind.LEFT, curve, setup, 256)
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
    rng = np.random.default_rng(55)
    a0 = Multivector(rng.normal(size=16))
    c0 = Multivector(rng.normal(size=16) + 1j * rng.normal(size=16))
    omegas = {}  # one-row omega per stage time, shared by every run below

    def omega_at(t):
        if t not in omegas:
            omegas[t] = setup.omega_coord_at(curve.velocity([t]), curve.point([t]))[0]
        return omegas[t]

    # one step, a short block, exactly one block, and a short block after full ones
    for steps, kind, v0 in itertools.product((1, 8, _BLOCK_STEPS, 2 * _BLOCK_STEPS + 13),
                                             (Kind.CLIFFORD, Kind.LEFT, Kind.RIGHT), (a0, c0)):
        [out] = parallel_transport([v0], kind, curve, setup, steps)
        ref = rk4_reference(v0, kind, omega_at, steps)
        assert type(out) is type(v0) and out.coeffs.dtype == v0.coeffs.dtype
        assert np.max(np.abs(out.coeffs - v0.coeffs)) > 1e-3  # the connection acts
        assert out.coeffs == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("frame", ["fiducial", "rotated"])
def test_transporting_values_together_matches_one_value_calls_bit_for_bit(frame):
    setup = rc_setup(61, scale=0.8)
    if frame == "rotated":
        setup = change_spin_frame(random_rotor_expr(np.random.default_rng(62)), setup).setup
    curve = Curve(np.array([[0.2, 0.3, 0.1, 0.2], [0.5, 0.2, 0.6, 0.4], [-0.2, 0.1, 0.1, 0.2]]))
    rng = np.random.default_rng(63)
    values = [Multivector(rng.normal(size=16)),
              Multivector(rng.normal(size=16) + 1j * rng.normal(size=16)),
              Multivector(rng.normal(size=16)).grade(2)]
    steps = 2 * _BLOCK_STEPS + 13  # full blocks and a short one
    for kind in (Kind.CLIFFORD, Kind.LEFT, Kind.RIGHT):
        together = parallel_transport(values, kind, curve, setup, steps)
        assert len(together) == len(values)
        for v0, out in zip(values, together):
            [alone] = parallel_transport([v0], kind, curve, setup, steps)
            assert type(out) is type(v0) and out.coeffs.dtype == v0.coeffs.dtype
            assert np.max(np.abs(out.coeffs - v0.coeffs)) > 1e-3  # the connection acts
            assert np.array_equal(out.coeffs, alone.coeffs)


def test_transport_evaluates_omega_once_per_call(monkeypatch):
    from sta import fields

    setup = change_spin_frame(random_rotor_expr(np.random.default_rng(64)), rc_setup(65)).setup
    curve = Curve.line([0.2] * 4, [0.8] * 4)
    calls, runs = [], []
    omega_coord_at, run = setup.omega_coord_at, fields._Plan.run
    monkeypatch.setattr(setup, "omega_coord_at",
                        lambda *args: calls.append(args) or omega_coord_at(*args))
    monkeypatch.setattr(fields._Plan, "run", lambda plan, xs: runs.append(xs) or run(plan, xs))
    rng = np.random.default_rng(66)
    for count in (1, 2, 5):
        values = [Multivector(rng.normal(size=16)) for _ in range(count)]
        calls.clear()
        assert len(parallel_transport(values, Kind.LEFT, curve, setup, 40)) == count
        assert len(calls) == 1
    calls.clear()
    runs.clear()
    assert parallel_transport([], Kind.RIGHT, curve, setup, 40) == []
    assert calls == [] and runs == []  # nothing evaluated


def test_transport_memory_stays_at_the_omega_evaluation():
    # the propagators are built a block of steps at a time, so a long
    # transport peaks where evaluating omega at its stage points does;
    # building every step's matrices at once costs about 6x that here
    setup = rc_setup(53, scale=0.8)
    curve = Curve(np.array([[0.2, 0.3, 0.1, 0.2], [0.5, 0.2, 0.6, 0.4], [-0.2, 0.1, 0.1, 0.2]]))
    a0 = Multivector(np.random.default_rng(55).normal(size=16))
    steps = 4096
    ts = np.arange(2 * steps + 1) * (0.5 / steps)
    parallel_transport([a0], Kind.CLIFFORD, curve, setup, 8)  # node tables and caches built

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    omega_peak = peak(lambda: setup.omega_coord_at(curve.velocity(ts), curve.point(ts)))
    transport_peak = peak(lambda: parallel_transport([a0], Kind.CLIFFORD, curve, setup, steps))
    assert transport_peak <= 1.5 * omega_peak


BENT = Curve(np.array([[0.2, 0.3, 0.1, 0.2], [0.5, 0.2, 0.6, 0.4], [-0.2, 0.1, 0.1, 0.2]]))


def _transport_setup(frame):
    setup = rc_setup(53, scale=0.8)
    if frame == "rotated":
        setup = change_spin_frame(random_rotor_expr(np.random.default_rng(54)), setup).setup
        assert not setup.tetrad.is_identity
    return setup


@pytest.mark.parametrize("frame", ["fiducial", "rotated"])
def test_omega_coord_at_runs_one_plan_and_matches_a_plan_per_field(frame, monkeypatch):
    from sta import fields

    setup = _transport_setup(frame)
    ts = np.linspace(0.0, 1.0, 1100)  # more points than one chunk
    xdot, x = BENT.velocity(ts), BENT.point(ts)
    # the same sums in the same order, each field evaluated by a plan of its own
    want = np.zeros((len(x), 16))
    for mu in range(4):
        if np.any(xdot[:, mu]):
            want = want + xdot[:, mu, None] * evaluate(setup.omega_coord(mu), x)

    plans, build = [], fields._Plan.__init__
    monkeypatch.setattr(fields._Plan, "__init__",
                        lambda plan, groups: plans.append(plan) or build(plan, groups))
    got = setup.omega_coord_at(xdot, x)
    assert len(plans) == 1
    assert np.array_equal(got, want)


def test_rotated_omega_roots_peak_below_half_again_their_outputs():
    # the 4 omegas and 16 inverse tetrad entries of a rotated frame, 20 roots, at a
    # 4096-step transport's stage points: a chunked plan holds nothing but the
    # outputs beyond 512 rows (a whole-grid plan peaks at 2.4x)
    setup = _transport_setup("rotated")
    roots = [setup.tetrad.inverse_entry(mu, a) for a in range(4) for mu in range(4)]
    roots += [setup.omega(a) for a in range(4)]
    xs = BENT.point(np.arange(8193) / 8192)
    evaluate_many(roots, xs[:8])  # partial derivatives and kernel tables built
    tracemalloc.start()
    try:
        values = evaluate_many(roots, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(v.nbytes for v in {id(v): v for v in values}.values())
    assert outputs >= 16 * len(xs) * 16 * 8
    assert peak < 1.5 * outputs, peak / outputs


def test_rotated_omega_coord_at_peaks_below_two_and_a_half_times_its_outputs():
    # four (N, 16) omega_mu outputs, the running sum and its update: no full-grid
    # output for a scalar tetrad entry
    setup = _transport_setup("rotated")
    ts = np.arange(8193) / 8192
    xdot, x = BENT.velocity(ts), BENT.point(ts)
    setup.omega_coord_at(xdot[:8], x[:8])  # partial derivatives and kernel tables built
    tracemalloc.start()
    try:
        setup.omega_coord_at(xdot, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = 4 * len(x) * 16 * 8
    assert peak < 2.5 * outputs, peak / outputs


@pytest.mark.parametrize("name", ["torsion-toy", "gauge-sine", "rc_setup"])
def test_fiducial_omega_coord_is_omega(name):
    if name == "rc_setup":
        setup = rc_setup(77)
    else:
        setup = Scenario(dict(load_config(name), grid=2)).setup
    assert setup.tetrad.is_identity
    for mu in range(4):
        assert setup.omega_coord(mu) is setup.omega(mu)


def test_rotated_omega_coord_contracts_the_inverse_tetrad():
    setup = _transport_setup("rotated")
    xs = BENT.point(np.linspace(0.0, 1.0, 7))
    for mu in range(4):
        want = sum(evaluate(setup.tetrad.inverse_entry(mu, a), xs)[:, :1]
                   * evaluate(setup.omega(a), xs) for a in range(4))
        assert np.max(np.abs(evaluate(setup.omega_coord(mu), xs) - want)) < 1e-15


def _tetrad_reads(source: str) -> list[int]:
    """Lines of ``source`` that read an attribute named ``tetrad``."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr == "tetrad"
                   and isinstance(node.ctx, ast.Load)})


def test_tetrad_reads_are_found():
    assert _tetrad_reads("e = setup.tetrad.entry(a, mu)") == [1]
    assert _tetrad_reads("x = 1\nif s.tetrad.is_identity:\n    pass") == [2]
    assert _tetrad_reads("[t for t in scn.setup.tetrad.entries]") == [1]
    assert _tetrad_reads("self.tetrad = tetrad") == []
    assert _tetrad_reads("tetrad = Tetrad()\nuse(tetrad)") == []


def test_only_geometry_reads_the_tetrad():
    # the frame legs are contracted in one place; elsewhere a frame direction
    # is asked of sta.geometry (directional_derivative, omega_coord, ...)
    src = Path(__file__).resolve().parent.parent / "src" / "sta"
    reads = {path.name: lines for path in sorted(src.glob("*.py"))
             if path.name != "geometry.py" and (lines := _tetrad_reads(path.read_text()))}
    assert reads == {}


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


def test_omega_for_is_built_once_per_direction_and_setup(monkeypatch):
    from sta.fields import _NODES, FieldExpr

    built_nodes = []
    node_type = type(FieldExpr)
    build_node = node_type.__call__
    monkeypatch.setattr(node_type, "__call__",
                        lambda cls, *a, **k: built_nodes.append(cls) or build_node(cls, *a, **k))
    vector = CliffordField(Polynomial([(1 << mu, 0.4 + 0.1 * mu, tuple(np.eye(4, dtype=int)[mu]))
                                       for mu in range(4)]))
    V = np.random.default_rng(73).normal(size=4)
    setups = (rc_setup(74), change_spin_frame(random_rotor_expr(np.random.default_rng(75)),
                                              rc_setup(76)).setup)
    for setup in setups:
        for direction in (V, vector):
            first = setup.omega_for(direction)
            built, calls = dict(_NODES), len(built_nodes)
            assert setup.omega_for(direction) is first
            assert _NODES == built
            assert len(built_nodes) == calls  # no node even looked up
        assert setup.omega_for(list(V)) is setup.omega_for(V)  # keyed by the float bytes

    # each setup's entry is its own omega_V, whichever setup saw V first
    for setup in setups:
        v = setup.frame_components(V)
        assert setup.omega_for(V) is f_combine([(v[a], setup.omega(a)) for a in range(4)])
        v = setup.frame_components(vector)
        assert setup.omega_for(vector) is f_sum(*(f_product(v[a], setup.omega(a))
                                                  for a in range(4)))
    assert setups[0].omega_for(V) is not setups[1].omega_for(V)


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
        parallel_transport([Multivector.scalar(1.0)], Kind.CLIFFORD,
                           Curve.line([0.5] * 4, [1.5] * 4), setup, 8)


@pytest.mark.parametrize("connected", [False, True])
def test_transport_rejects_stage_points_out_of_chart(connected):
    # x0(t) = 1 - 1e-5 - t (t - 1/63) is inside at t = j/63 for every j, but
    # reaches 1.00005 near t = 1/126, at the stage points of 64 steps
    setup = rc_setup(59) if connected else SpacetimeSetup(CHART)
    curve = Curve(np.array([[1 - 1e-5, 0.5, 0.5, 0.5], [1 / 63, 0, 0, 0], [-1.0, 0, 0, 0]]))
    assert CHART.contains(curve.point(np.linspace(0.0, 1.0, 64)))
    with pytest.raises(CurveOutOfChart):
        parallel_transport([Multivector.scalar(1.0)], Kind.CLIFFORD, curve, setup, 64)


# -- change of spin frame -------------------------------------------------------


def test_identity_rotor_changes_nothing():
    setup = rc_setup(41)
    xs = CHART.grid(3)
    A = CliffordField(random_field_expr(RNG))
    fc = change_spin_frame(Constant(Multivector.scalar(1.0)), setup)
    for kind in (Kind.CLIFFORD, Kind.LEFT, Kind.RIGHT):
        assert fc.carry(Field(kind, A.expr)).expr is A.expr
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
                full[a, b, c] = BladeCoeff(f_product(nab, lowered[c].expr), 0)
    entries = fc.setup.connection.entries
    assert sorted(entries) == [k for k in sorted(full) if k[1] < k[2]]
    assert all(full[k] is g for k, g in entries.items())
    worst = fold_sups([(k, (full[k], f_scale(-1.0, full[k[0], k[2], k[1]]))) for k in full],
                      CHART.grid(4))
    assert max(worst.values()) < 1e-10
    for a in range(4):
        lowered = Field(Kind.CLIFFORD, f_scale(float(ETA[a]), fc.legs[a].expr))
        wB = transformed_connection_form(u, setup, lowered)
        wA = f_product(f_product(u, fc.setup.omega(a)), f_reverse(u))
        assert fold_sups([("two-routes", (wA, wB))], xs)["two-routes"] < 1e-10


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
    fc = change_spin_frame(u, setup)
    A2, V2, dA2w, P2, dP2w, F2, dF2w = map(fc.carry, (A, V, dA, P, dP, F, dF))
    assert sup_diff(cov_deriv_clifford(A2, V2, fc.setup), dA2w, xs) < 1e-10
    assert sup_diff(cov_deriv_left(P2, V2, fc.setup), dP2w, xs) < 1e-10
    assert sup_diff(cov_deriv_right(F2, V2, fc.setup), dF2w, xs) < 1e-10


def test_carry_closed_forms():
    u = random_rotor_expr(np.random.default_rng(83))
    fc = change_spin_frame(u, rc_setup(83))
    F = random_field_expr(np.random.default_rng(84))
    ur = f_reverse(u)
    for field, want in ((CliffordField(F), f_product(f_product(ur, F), u)),
                        (LeftSpinorField(F), f_product(ur, F)),
                        (RightSpinorField(F), f_product(F, u))):
        carried = fc.carry(field)
        assert carried.kind is field.kind and carried.expr is want
    # a representative is carried like the left spinor it represents
    rep = fc.carry(CliffordField(F), like=Kind.LEFT)
    assert rep.kind is Kind.CLIFFORD and rep.expr is f_product(ur, F)


def test_carry_refuses_a_kind_without_a_rule():
    fc = change_spin_frame(random_rotor_expr(np.random.default_rng(85)), rc_setup(85))
    F = random_field_expr(np.random.default_rng(86))
    with pytest.raises(KindMismatch, match="^no frame-change rule for kind frame-scalar$"):
        fc.carry(Field(Kind.FRAME_SCALAR, F))
    with pytest.raises(KindMismatch, match="^no frame-change rule for kind frame-scalar$"):
        fc.carry(CliffordField(F), like=Kind.FRAME_SCALAR)
    # anything but a Kind is refused the same way, named by its repr
    with pytest.raises(KindMismatch, match="^no frame-change rule for kind 'left'$"):
        fc.carry(CliffordField(F), like="left")


def test_rotor_validation():
    # e1 is odd with e1~ e1 = -1; the scalar 2 is even with 2~ 2 = 4
    for blades, defect in (({"e1": 1}, "2.000e+00"), ({"1": 2}, "3.000e+00")):
        msg = scenario_error(frame={"type": "rotor", "expr": {"kind": "constant",
                                                              "blades": blades}})
        assert msg == ("frame.expr must be a finite real rotor at every point of the run "
                       f"grid, but its defect reaches {defect} (bound 1.000e-09)")


# -- pairings -------------------------------------------------------------------


def test_unit_section_pairings():
    xs = CHART.grid(2)
    one_left = LeftSpinorField(Constant(Multivector.scalar(1.0)))
    one = pair_to_clifford(one_left, unit_right())
    assert np.allclose(one.eval(xs)[0], Multivector.scalar(1.0).coeffs)
    for a in range(4):
        # 1r e_a 1l is the constant generator: a frame scalar
        mid = unit_right() * CliffordField(Constant(float(ETA[a]) * E(a)))
        out = mid * one_left
        assert out.kind is Kind.FRAME_SCALAR
        assert np.allclose(out.eval(xs)[0], (float(ETA[a]) * E(a)).coeffs)


def test_representative_has_spinor_components():
    expr = random_field_expr(RNG, even=True)
    psi_rep = pair_to_clifford(LeftSpinorField(expr), unit_right())
    xs = CHART.grid(3)
    assert np.array_equal(psi_rep.eval(xs), evaluate(expr, xs))
    with pytest.raises(KindMismatch):
        pair_to_clifford(LeftSpinorField(expr), LeftSpinorField(expr))
