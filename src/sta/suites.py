"""The seven verification suites behind the CLI.

Each suite function takes a :class:`sta.scenario.Scenario` and returns a
list of :class:`sta.report.Check` records.  Randomized checks draw from a
generator seeded by (scenario seed, position of the suite in ``SUITES``), so
a fixed configuration yields identical reports regardless of execution order.
``SUITES`` is the one suite catalog: the CLI lists it and scenarios default to
and validate against it.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    DIM,
    GRADES,
    E,
    E21,
    Multivector,
    blade_mul,
    commutator_half,
    exp_bivector,
    gp,
    gp_batch,
    reverse,
)
from .fields import (
    BivectorExp,
    CliffordField,
    Constant,
    Field,
    GradeSelect,
    Kind,
    LeftSpinorField,
    Polynomial,
    RightSpinorField,
    ScalarLinear,
    ScalarSine,
    evaluate_many,
    f_product,
    f_reverse,
    f_scale,
    f_sum,
    sup_diffs,
    worst_of,
)
from .geometry import (
    ConnectionField,
    Curve,
    SpacetimeSetup,
    change_spin_frame,
    cov_deriv_clifford,
    cov_deriv_left,
    cov_deriv_right,
    effective_deriv,
    effective_deriv_via_connection,
    parallel_transport,
    unit_right,
)
from .dirac import (
    ColumnSpinorField,
    DiracParams,
    GaugeFn,
    bilinear_covariants,
    covariant_nodes,
    gauge_transform_left_form,
    gauge_transform_representative,
    lorentz_covariance_check,
    make_plane_wave,
    residual_complex_ideal,
    residual_covariant,
    residual_left_form,
    residual_representative,
)
from .report import Check
from .spinors import (
    IDEMPOTENT_E,
    IDEMPOTENT_F,
    build_gamma_rep,
    columns_from_coeffs,
)


def _rng(scn, suite: str) -> np.random.Generator:
    return np.random.default_rng([scn.seed, list(SUITES).index(suite)])


def _check(scn, suite, name, law, value, default_tol, ge=False, diagnostic=False):
    tol = scn.tol(name, default_tol)
    passed = (value >= tol) if ge else (value <= tol)
    return Check(suite, name, law, float(value), tol, bool(passed), diagnostic)


def _residual_check(scn, suite, name, law, sup, default_tol):
    """Residual check, switched to an expected-value diagnostic if configured."""
    if name in scn.expected:
        tol = scn.tol(name, default_tol)
        gap = abs(sup - scn.expected[name])
        law = f"{law} (expected nonzero value {scn.expected[name]:g})"
        return Check(suite, name, law, float(gap), tol, gap <= tol, diagnostic=True)
    return _check(scn, suite, name, law, sup, default_tol)


# ---------------------------------------------------------------------------
# random ingredients
# ---------------------------------------------------------------------------


def random_multivector(rng, even=False, grade=None, scale=0.5) -> Multivector:
    m = Multivector(rng.normal(scale=scale, size=DIM))
    if grade is not None:
        return m.grade(grade)
    return m.even() if even else m


def random_scalar_expr(rng, scale=0.3):
    return ScalarLinear(rng.normal(scale=scale, size=4), rng.normal(scale=scale)) + ScalarSine(
        rng.normal(scale=scale), rng.normal(scale=0.8, size=4), rng.normal()
    )


def random_field_expr(rng, even=False, scale=0.4):
    terms = []
    for _ in range(3):
        mask = int(rng.integers(0, DIM))
        if even and bin(mask).count("1") % 2:
            mask ^= 1
        powers = [0, 0, 0, 0]
        powers[int(rng.integers(0, 4))] = int(rng.integers(0, 3))
        terms.append((mask, rng.normal(scale=scale), tuple(powers)))
    return Constant(random_multivector(rng, even=even)) + Polynomial(terms)


def random_connection(rng, scale=0.3) -> ConnectionField:
    gamma = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for c in range(b + 1, 4):
                e = random_scalar_expr(rng, scale)
                gamma[a][b][c] = e
                gamma[a][c][b] = f_scale(-1.0, e)
    return ConnectionField(gamma)


def random_setup(scn, rng, scale=0.3) -> SpacetimeSetup:
    return SpacetimeSetup(scn.chart, random_connection(rng, scale))


def random_rotor_expr(rng, scale=0.4):
    blades = [E(1) * E(2), E(1) * E(3), E(2) * E(3), E(1) * E(0), E(2) * E(0)]
    B = blades[int(rng.integers(0, len(blades)))]
    return BivectorExp(scale * B, random_scalar_expr(rng))


def random_potential(rng, scale=0.3) -> Field:
    terms = [(1 << a, rng.normal(scale=scale), _unit_power(int(rng.integers(0, 4)))) for a in range(4)]
    expr = Constant(random_multivector(rng, grade=1)) + Polynomial(terms)
    return CliffordField(GradeSelect(expr, {1}))


def _unit_power(mu):
    p = [0, 0, 0, 0]
    p[mu] = 1
    return tuple(p)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_algebra(scn) -> list[Check]:
    rng = _rng(scn, "algebra")
    checks = []

    worst = 0.0
    for a in range(4):
        for b in range(4):
            eta = 2.0 if a == b == 0 else (-2.0 if a == b else 0.0)
            d = (gp(E(a), E(b)) + gp(E(b), E(a)) - Multivector.scalar(eta)).norm_sup()
            worst = worst_of(worst, d)
    checks.append(_check(scn, "algebra", "generator-relations",
                         "anticommutators of the generators equal twice the metric", worst, 1e-15))

    sign, mask = blade_mul(0b1111, 0b1111)
    d = abs(sign + 1.0) + mask
    checks.append(_check(scn, "algebra", "pseudoscalar-square",
                         "the unit pseudoscalar squares to -1", d, 1e-15))

    n = 1000
    a = rng.normal(size=(n, DIM))
    b = rng.normal(size=(n, DIM))
    c = rng.normal(size=(n, DIM))
    d = np.max(np.abs(gp_batch(gp_batch(a, b), c) - gp_batch(a, gp_batch(b, c))))
    checks.append(_check(scn, "algebra", "associativity",
                         "geometric product associativity on random triples", d, 1e-12))

    rev = np.zeros(DIM)
    for m in range(DIM):
        g = bin(m).count("1")
        rev[m] = (-1.0) ** (g * (g - 1) // 2)
    d = np.max(np.abs((gp_batch(a, b) * rev) - gp_batch(b * rev, a * rev)))
    checks.append(_check(scn, "algebra", "reversion-antiautomorphism",
                         "reversion reverses products: (ab)~ = b~ a~", d, 1e-12))

    worst = 0.0
    for i in range(DIM):
        for j in range(DIM):
            gi, gj = GRADES[i], GRADES[j]
            allowed = set(range(abs(gi - gj), gi + gj + 1, 2))
            prod = gp(Multivector.from_blade(i), Multivector.from_blade(j))
            leak = sum(abs(prod.coeffs[k]) for k in range(DIM) if GRADES[k] not in allowed)
            worst = worst_of(worst, leak)
    checks.append(_check(scn, "algebra", "grade-bookkeeping",
                         "blade products land in grades |j-k|, |j-k|+2, ..., j+k", worst, 1e-15))

    worst = 0.0
    for _ in range(20):
        w = random_multivector(rng, grade=2)
        for k in range(5):
            x = random_multivector(rng, grade=k)
            out = commutator_half(w, x)
            leak = (out - out.grade(k)).norm_sup()
            worst = worst_of(worst, leak)
    checks.append(_check(scn, "algebra", "commutator-grade-preservation",
                         "half-commutator with a bivector preserves grade", worst, 1e-12))

    worst = 0.0
    simple = [E(1) * E(2), E(1) * E(0), E(2) * E(3), E21]
    for _ in range(20):
        B = float(rng.normal(scale=0.8)) * simple[int(rng.integers(0, 4))]
        d = (exp_bivector(B) * exp_bivector(-1.0 * B) - Multivector.scalar(1.0)).norm_sup()
        worst = worst_of(worst, d)
    checks.append(_check(scn, "algebra", "exp-bivector-inverse",
                         "exp(B) exp(-B) = 1 for simple bivectors", worst, 1e-12))
    return checks


def suite_derivatives(scn) -> list[Check]:
    rng = _rng(scn, "derivatives")
    xs = scn.chart.grid(scn.grid)
    pairs = 50

    setups = [scn.setup] + [random_setup(scn, rng) for _ in range(2)]
    worst = {k: 0.0 for k in ("clifford", "left", "right", "effective")}
    for i in range(pairs):
        setup = setups[i % len(setups)]
        V = rng.normal(size=4)
        aexpr = random_field_expr(rng)
        bexpr = random_field_expr(rng)

        A, B = CliffordField(aexpr), CliffordField(bexpr)
        P = LeftSpinorField(bexpr)
        F = RightSpinorField(bexpr)
        psi = CliffordField(random_field_expr(rng, even=True))
        a = int(rng.integers(0, 4))
        laws = {
            "clifford": (cov_deriv_clifford(A * B, V, setup),
                         cov_deriv_clifford(A, V, setup) * B + A * cov_deriv_clifford(B, V, setup)),
            "left": (cov_deriv_left(A * P, V, setup),
                     A * cov_deriv_left(P, V, setup) + cov_deriv_clifford(A, V, setup) * P),
            "right": (cov_deriv_right(F * A, V, setup),
                      F * cov_deriv_clifford(A, V, setup) + cov_deriv_right(F, V, setup) * A),
            "effective": (effective_deriv(A * psi, a, setup, check_even=False),
                          cov_deriv_clifford(A, np.eye(4)[a], setup) * psi
                          + A * effective_deriv(psi, a, setup, check_even=False)),
        }
        sups = sup_diffs([(lhs.expr, rhs.expr) for lhs, rhs in laws.values()], xs)
        for k, d in zip(laws, sups):
            worst[k] = worst_of(worst[k], d)

    checks = [
        _check(scn, "derivatives", "leibniz-clifford",
               "covariant derivative is a derivation on Clifford products", worst["clifford"], 1e-9),
        _check(scn, "derivatives", "leibniz-left",
               "module rule: Ds(A Psi) = A Ds Psi + (D A) Psi", worst["left"], 1e-9),
        _check(scn, "derivatives", "leibniz-right",
               "module rule: Ds(Phi A) = Phi D A + (Ds Phi) A", worst["right"], 1e-9),
        _check(scn, "derivatives", "leibniz-effective",
               "effective derivative obeys Dse(U psi) = (D U) psi + U Dse psi", worst["effective"], 1e-9),
    ]

    worst_ideal = 0.0
    for _ in range(10):
        setup = setups[int(rng.integers(0, len(setups)))]
        P = LeftSpinorField(f_product(random_field_expr(rng), Constant(IDEMPOTENT_E)))
        dP = cov_deriv_left(P, rng.normal(size=4), setup)
        proj = f_product(dP.expr, Constant(IDEMPOTENT_E))
        worst_ideal = worst_of(worst_ideal, *sup_diffs([(proj, dP.expr)], xs))
    checks.append(_check(scn, "derivatives", "ideal-preservation",
                         "the spinor derivative keeps values inside the minimal left ideal",
                         worst_ideal, 1e-10))

    rotor_setup = change_spin_frame(random_rotor_expr(rng), setups[1]).setup
    worst_eff = 0.0
    for setup in (setups[0], setups[1], rotor_setup):
        psi = CliffordField(random_field_expr(rng, even=True))
        routes = [(effective_deriv(psi, a, setup, check_even=False).expr,
                   effective_deriv_via_connection(psi, a, setup).expr) for a in range(4)]
        worst_eff = worst_of(worst_eff, *sup_diffs(routes, xs))
    checks.append(_check(scn, "derivatives", "effective-two-routes",
                         "the two assembly orders of the effective derivative agree",
                         worst_eff, 1e-9))

    worst_unit = 0.0
    for setup in (setups[1], setups[2]):
        laws = [(cov_deriv_right(unit_right(), np.eye(4)[a], setup).expr,
                 f_scale(-0.5, setup.omega(a))) for a in range(4)]
        worst_unit = worst_of(worst_unit, *sup_diffs(laws, xs))
    checks.append(_check(scn, "derivatives", "unit-section-law",
                         "the right unit section differentiates to -(1/2) 1r omega_a",
                         worst_unit, 1e-9))
    return checks


def suite_transport(scn) -> list[Check]:
    rng = _rng(scn, "transport")
    checks = []
    flat = SpacetimeSetup(scn.chart)
    lo, hi = scn.chart.lo, scn.chart.hi
    inner0 = lo + 0.1 * (hi - lo)
    inner1 = lo + 0.9 * (hi - lo)
    mid = lo + np.array([0.5, 0.7, 0.3, 0.6]) * (hi - lo)
    line = Curve.line(inner0, inner1)
    bent = Curve(np.stack([inner0, 4 * (mid - inner0) - (inner1 - inner0),
                           -4 * (mid - inner0) + 2 * (inner1 - inner0)]))

    a0 = random_multivector(rng)
    out = parallel_transport(a0, Kind.CLIFFORD, line, flat, steps=scn.transport_steps)
    checks.append(_check(scn, "transport", "flat-identity",
                         "transport with a vanishing connection is the identity",
                         (out - a0).norm_sup(), 1e-12))

    setup = scn.setup if not scn.setup.connection.is_zero else random_setup(scn, rng, scale=0.6)

    worst = 0.0
    for k in (1, 2, 3):
        h0 = random_multivector(rng, grade=k)
        outk = parallel_transport(h0, Kind.CLIFFORD, bent, setup, steps=scn.transport_steps)
        worst = worst_of(worst, (outk - outk.grade(k)).norm_sup())
    checks.append(_check(scn, "transport", "grade-preservation",
                         "homogeneous values stay homogeneous along transport", worst, 1e-9))

    strong = SpacetimeSetup(scn.chart, random_connection(rng, scale=2.5))
    b0 = random_multivector(rng, scale=1.0)
    s_ref = (reverse(b0) * b0).scalar_part

    def cons_err(steps):
        outs = parallel_transport(b0, Kind.CLIFFORD, bent, strong, steps=steps)
        return abs((reverse(outs) * outs).scalar_part - s_ref)

    n0 = max(16, scn.transport_steps // 8)
    e1, e2 = cons_err(n0), cons_err(2 * n0)
    ratio = e1 / max(e2, 1e-300)
    checks.append(_check(scn, "transport", "conservation-order",
                         "reversal-norm drift shrinks like a 4th-order method when steps double "
                         "(measured ratio must exceed the tolerance)", ratio, 12.0, ge=True))

    p0 = random_multivector(rng)
    f0 = random_multivector(rng)
    pt = parallel_transport(p0, Kind.LEFT, bent, setup, steps=scn.transport_steps)
    ft = parallel_transport(f0, Kind.RIGHT, bent, setup, steps=scn.transport_steps)
    ct = parallel_transport(p0 * f0, Kind.CLIFFORD, bent, setup, steps=scn.transport_steps)
    checks.append(_check(scn, "transport", "pairing-transport",
                         "pairing left and right transports equals transporting the pairing",
                         (pt * ft - ct).norm_sup(), 1e-7))

    q0 = random_multivector(rng) * IDEMPOTENT_E
    qt = parallel_transport(q0, Kind.LEFT, bent, setup, steps=scn.transport_steps)
    checks.append(_check(scn, "transport", "ideal-stability",
                         "left transport keeps values inside the minimal left ideal",
                         (qt * IDEMPOTENT_E - qt).norm_sup(), 1e-9))
    return checks


def suite_dirac_triad(scn) -> list[Check]:
    rng = _rng(scn, "dirac-triad")
    xs = scn.chart.grid(scn.grid)
    rep = build_gamma_rep()
    checks = []

    psi = scn.unknown
    r_dhe = residual_representative(psi, scn.params, scn.setup, xs)
    r_decl = residual_left_form(LeftSpinorField(psi.expr), scn.params, scn.setup, xs)
    Pc = LeftSpinorField(f_product(psi.expr, Constant(IDEMPOTENT_F)))
    r_ci = residual_complex_ideal(Pc, scn.params, scn.setup, xs)
    sup_dhe, sup_decl, sup_ci, d_componentwise = sup_diffs(
        [(r_dhe.field.expr, None), (r_decl.field.expr, None), (r_ci.field.expr, None),
         (r_decl.field.expr, r_dhe.field.expr)], xs)
    checks.append(_residual_check(scn, "dirac-triad", "representative-residual",
                                  "representative-form residual of the scenario unknown",
                                  sup_dhe, 1e-9))
    checks.append(_residual_check(scn, "dirac-triad", "left-residual",
                                  "left spin-Clifford residual of the scenario unknown",
                                  sup_decl, 1e-9))
    checks.append(_residual_check(scn, "dirac-triad", "ideal-residual",
                                  "complex minimal-ideal residual of the scenario unknown",
                                  sup_ci, 1e-9))

    r_col = residual_covariant(ColumnSpinorField(Pc, rep), scn.params, scn.setup, xs)
    checks.append(_residual_check(scn, "dirac-triad", "column-residual",
                                  "column-spinor residual of the scenario unknown",
                                  r_col.sup, 1e-9))

    checks.append(_check(scn, "dirac-triad", "left-representative-componentwise",
                         "left-form and representative-form residuals agree componentwise",
                         d_componentwise, 1e-9))

    rc_setups = [random_setup(scn, rng) for _ in range(2)]
    worst_eq = worst_phase = worst_col = worst_lin = 0.0
    for setup in rc_setups:
        params = DiracParams(float(rng.uniform(0.2, 1.5)), float(rng.uniform(-1.0, 1.0)),
                             random_potential(rng))
        forms = []  # representative, left, phase map, ideal and column forms of one unknown
        for _ in range(3):
            ex = random_field_expr(rng, even=True)
            ra = residual_representative(CliffordField(ex), params, setup, xs, check_even=False)
            rb = residual_left_form(LeftSpinorField(ex), params, setup, xs, check_even=False)
            pc = LeftSpinorField(f_product(ex, Constant(IDEMPOTENT_F)))
            rci = residual_complex_ideal(pc, params, setup, xs, check_ideal=False)
            forms.append((ra.field.expr, rb.field.expr,
                          f_product(rb.field.expr, Constant(IDEMPOTENT_F)), rci.field.expr,
                          ColumnSpinorField(pc, rep)))

        ex1 = random_field_expr(rng, even=True)
        ex2 = random_field_expr(rng, even=True)
        r1 = residual_representative(CliffordField(ex1), params, setup, xs, check_even=False)
        r2 = residual_representative(CliffordField(ex2), params, setup, xs, check_even=False)
        r12 = residual_representative(CliffordField(ex1) + CliffordField(ex2), params, setup, xs,
                                      check_even=False)
        roots = [e for form in forms for e in form[:4]] + [r12.field.expr, r1.field.expr, r2.field.expr]
        roots += [e for form in forms for e in covariant_nodes(form[4], params, setup)]
        vals = dict(zip(roots, evaluate_many(roots, xs)))

        for ra, rb, proj, rci, col in forms:
            worst_eq = worst_of(worst_eq, float(np.max(np.abs(vals[ra] - vals[rb]))))
            worst_phase = worst_of(worst_phase, float(np.max(np.abs(vals[proj] - vals[rci]))))
            rcv = residual_covariant(col, params, setup, xs, vals)
            cols = columns_from_coeffs(vals[rci], rep)
            worst_col = worst_of(worst_col, float(np.max(np.abs(cols - rcv.values))))
        v12, v1, v2 = (vals[r.field.expr] for r in (r12, r1, r2))
        worst_lin = worst_of(worst_lin, float(np.max(np.abs(v12 - v1 - v2))))

    checks.append(_check(scn, "dirac-triad", "left-representative-random",
                         "componentwise left/representative agreement on random even fields "
                         "over random torsionful setups", worst_eq, 1e-9))
    checks.append(_check(scn, "dirac-triad", "left-ideal-phase-map",
                         "right-multiplying the left-form residual by the idempotent lands on "
                         "the ideal-form residual", worst_phase, 1e-9))
    checks.append(_check(scn, "dirac-triad", "ideal-column-map",
                         "the column bijection intertwines the ideal and column residuals",
                         worst_col, 1e-9))
    checks.append(_check(scn, "dirac-triad", "residual-linearity",
                         "the residual is linear in the unknown at fixed parameters",
                         worst_lin, 1e-12))
    return checks


def suite_gauge(scn) -> list[Check]:
    rng = _rng(scn, "gauge")
    xs = scn.chart.grid(scn.grid)
    checks = []
    params = scn.params
    setup = scn.setup

    shapes = [
        ("constant", Constant(Multivector.scalar(float(rng.uniform(0.2, 0.8))))),
        ("linear", ScalarLinear(rng.normal(scale=0.4, size=4), float(rng.normal(scale=0.3)))),
        ("sine", ScalarSine(float(rng.uniform(0.3, 0.7)), rng.normal(scale=0.9, size=4),
                            float(rng.normal()))),
    ]
    for label, chi_expr in shapes:
        chi = GaugeFn(chi_expr)
        ex = random_field_expr(rng, even=True)

        Psi = LeftSpinorField(ex)
        P2, params2, G = gauge_transform_left_form(Psi, params, chi, setup)
        r1 = residual_left_form(Psi, params, setup, xs, check_even=False)
        r2 = residual_left_form(P2, params2, setup, xs, check_even=False)

        psi = CliffordField(ex)
        p2, params2b, G2 = gauge_transform_representative(psi, params, chi, setup)
        r1b = residual_representative(psi, params, setup, xs, check_even=False)
        r2b = residual_representative(p2, params2b, setup, xs, check_even=False)

        d, db = sup_diffs([(r2.field.expr, f_product(r1.field.expr, G.expr)),
                           (r2b.field.expr, f_product(r1b.field.expr, G2.expr))], xs)
        checks.append(_check(scn, "gauge", f"left-covariance-{label}",
                             "left-form residual picks up exactly the gauge rotor on the right",
                             d, 1e-9))
        checks.append(_check(scn, "gauge", f"representative-covariance-{label}",
                             "representative-form residual picks up exactly the gauge rotor",
                             db, 1e-9))

    q = params.charge if params.charge else 0.75
    theta = float(rng.uniform(0.3, 1.2))
    G = exp_bivector(-q * theta / 2.0 * E21)
    Gi = exp_bivector(q * theta / 2.0 * E21)
    cq, sq = np.cos(q * theta), np.sin(q * theta)
    wants = [E(0), cq * E(1) + sq * E(2), -sq * E(1) + cq * E(2), E(3)]
    worst = worst_of(*((G * E(a) * Gi - wants[a]).norm_sup() for a in range(4)))
    checks.append(_check(scn, "gauge", "spin-plane-rotation",
                         "conjugating the legs by the gauge rotor rotates the 1-2 plane by "
                         "the gauge angle and fixes the 0 and 3 legs", worst, 1e-10))
    return checks


def suite_lorentz(scn) -> list[Check]:
    rng = _rng(scn, "lorentz")
    xs = scn.chart.grid(scn.grid)
    checks = []
    params = DiracParams(scn.params.mass or 1.0, scn.params.charge or 0.5,
                         random_potential(rng))
    psi = CliffordField(random_field_expr(rng, even=True))
    base = scn.setup

    u_const = Constant(exp_bivector(0.4 * (E(1) * E(0))))
    rep_const = lorentz_covariance_check(psi, params, base, u_const, xs)
    checks.append(_check(scn, "lorentz", "residual-transform-constant",
                         "frame change by a constant rotor multiplies the residual by the "
                         "inverse rotor", rep_const.defect, 1e-8))

    u_local = scn.frame_rotor if scn.frame_rotor is not None else random_rotor_expr(rng)
    rep_local = lorentz_covariance_check(psi, params, base, u_local, xs)
    checks.append(_check(scn, "lorentz", "residual-transform-local",
                         "frame change by a position-dependent rotor multiplies the residual "
                         "by the inverse rotor, with the connection transformed", rep_local.defect, 1e-8))

    legs = [l.expr for l in rep_local.frame_change.legs]
    anticommutators = []
    for a in range(4):
        for b in range(4):
            eta = 2.0 if a == b == 0 else (-2.0 if a == b else 0.0)
            anticommutators.append((f_sum(f_product(legs[a], legs[b]), f_product(legs[b], legs[a])),
                                    Constant(Multivector.scalar(eta))))
    checks.append(_check(scn, "lorentz", "frame-orthonormality",
                         "transformed frame legs stay orthonormal pointwise",
                         worst_of(*sup_diffs(anticommutators, xs)), 1e-9))

    A = CliffordField(random_field_expr(rng))
    P = LeftSpinorField(random_field_expr(rng))
    R = RightSpinorField(random_field_expr(rng))
    Vf = CliffordField(GradeSelect(random_field_expr(rng), {1}))
    dA = cov_deriv_clifford(A, Vf, base)
    dP = cov_deriv_left(P, Vf, base)
    dR = cov_deriv_right(R, Vf, base)
    fc = change_spin_frame(u_local, base, clifford=[A, Vf, dA], left=[P, dP], right=[R, dR])
    A2, V2, dA2w = fc.clifford
    P2, dP2w = fc.left
    R2, dR2w = fc.right
    naturality = {
        "clifford": (cov_deriv_clifford(A2, V2, fc.setup).expr, dA2w.expr),
        "left": (cov_deriv_left(P2, V2, fc.setup).expr, dP2w.expr),
        "right": (cov_deriv_right(R2, V2, fc.setup).expr, dR2w.expr),
    }

    from .geometry import ETA, transformed_connection_form

    routes = []
    for a in range(4):
        lowered = Field(Kind.CLIFFORD, f_scale(float(ETA[a]), fc.legs[a].expr))
        wA = f_product(f_product(u_local, fc.setup.omega(a)), f_reverse(u_local))
        routes.append((wA, transformed_connection_form(u_local, base, lowered)))
    sups = sup_diffs(list(naturality.values()) + routes, xs)
    for kind, d in zip(naturality, sups):
        checks.append(_check(scn, "lorentz", f"naturality-{kind}",
                             "covariant differentiation commutes with the change of spin frame",
                             d, 1e-8))
    checks.append(_check(scn, "lorentz", "connection-two-routes",
                         "recomputing the coefficients from the new legs matches the "
                         "connection transformation law", worst_of(*sups[len(naturality):]), 1e-8))
    return checks


def suite_bilinears(scn) -> list[Check]:
    rng = _rng(scn, "bilinears")
    checks = []
    flat = SpacetimeSetup(scn.chart)
    x0 = scn.chart.sample(2)[:1]

    worst_purity = worst_fierz = worst_sign = 0.0
    for _ in range(100):
        m = random_multivector(rng, even=True, scale=0.8)
        bil = bilinear_covariants(CliffordField(Constant(m)), flat, check_even=False)
        biln = bilinear_covariants(CliffordField(Constant(-1.0 * m)), flat, check_even=False)
        keys = ("S", "J", "K", "M")
        roots = ([bil[k].expr for k in keys] + [bil["sigma"], bil["omega"]]
                 + [biln[k].expr for k in keys])
        S, J, K, M, sig, om, *negated = (v[0] for v in evaluate_many(roots, x0))
        sig, om = sig[0], om[0]
        leak = worst_of(
            float(np.max(np.abs(S[(GRADES != 0) & (GRADES != 4)]))),
            float(np.max(np.abs(J[GRADES != 1]))),
            float(np.max(np.abs(K[GRADES != 1]))),
            float(np.max(np.abs(M[GRADES != 2]))),
        )
        worst_purity = worst_of(worst_purity, leak)

        JJ = gp_batch(J, J)[0]
        KK = gp_batch(K, K)[0]
        JK = 0.5 * (gp_batch(J, K) + gp_batch(K, J))[0]
        worst_fierz = worst_of(
            worst_fierz,
            abs(JJ - (sig**2 + om**2)),
            abs(KK + (sig**2 + om**2)),
            abs(JK),
        )

        for vn, v in zip(negated, (S, J, K, M)):
            worst_sign = worst_of(worst_sign, float(np.max(np.abs(vn - v))))

    checks.append(_check(scn, "bilinears", "grade-purity",
                         "S lives in grades {0,4}, the currents in grade 1, the moment in "
                         "grade 2", worst_purity, 1e-10))
    checks.append(_check(scn, "bilinears", "quadratic-relations",
                         "J.J = sigma^2 + omega^2, K.K = -(sigma^2 + omega^2), J.K = 0",
                         worst_fierz, 1e-9))
    checks.append(_check(scn, "bilinears", "sign-invariance",
                         "all bilinears are unchanged under psi -> -psi", worst_sign, 1e-12))

    pw = make_plane_wave(scn.params.mass if scn.params.mass else 1.0)
    ts = scn.chart.grid(3)
    bil = bilinear_covariants(pw, flat)
    d = worst_of(*sup_diffs([(bil["sigma"], Constant(Multivector.scalar(1.0))),
                             (bil["omega"], None)], ts))
    checks.append(_check(scn, "bilinears", "rest-wave-normalization",
                         "the rest plane wave has sigma = 1 and omega = 0 at every sampled "
                         "point", d, 1e-12))
    return checks


SUITES = {
    "algebra": (suite_algebra, "generator relations, associativity, reversion, grades, "
                               "bivector exponentials"),
    "derivatives": (suite_derivatives, "Leibniz rules for all derivative operators, ideal "
                                       "preservation, effective-derivative consistency, unit "
                                       "section law"),
    "transport": (suite_transport, "parallel transport: flat identity, grade preservation, "
                                   "4th-order conservation, pairing compatibility"),
    "dirac-triad": (suite_dirac_triad, "residuals of the representative, left, ideal and "
                                       "column forms plus the exact translations among them"),
    "gauge": (suite_gauge, "electromagnetic gauge covariance of both equation forms and the "
                           "spin-plane rotation picture"),
    "lorentz": (suite_lorentz, "frame-change covariance of the residual, orthonormality, "
                               "naturality of the covariant derivatives"),
    "bilinears": (suite_bilinears, "grade purity, quadratic current relations and plane-wave "
                                   "normalization of the bilinears"),
}


def run_suite(name: str, scn) -> list[Check]:
    fn, _ = SUITES[name]
    return fn(scn)
