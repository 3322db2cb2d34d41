"""The seven verification suites behind the CLI, and ``SUITES``, their catalog.

Each catalog entry holds the suite function, a summary and the ordered table
of its checks (name, default tolerance, law); check names are unique across
suites, and scenarios validate their ``tolerances`` and ``expected`` keys
against them.  A suite function returns each check's value by name (the
field suites fold named residuals with ``fields.fold_sups``), and
``run_suite`` hands the values to ``_emit``, the one emitter, which writes a
:class:`sta.report.Check` per catalog row, in order.  Randomized checks draw
from a generator seeded by (scenario seed, position of the suite in
``SUITES``), so a fixed configuration yields identical reports regardless of
execution order.
"""

from __future__ import annotations

from typing import NamedTuple

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
    FieldExpr,
    GradeSelect,
    Kind,
    LeftSpinorField,
    Polynomial,
    RightSpinorField,
    ScalarLinear,
    ScalarSine,
    f_product,
    f_reverse,
    f_scale,
    f_sum,
    fold_sups,
    worst_of,
)
from .geometry import (
    ETA,
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
    transformed_connection_form,
    unit_right,
)
from .dirac import (
    DiracParams,
    bilinear_covariants,
    gauge_transform_left_form,
    gauge_transform_representative,
    lorentz_covariance_check,
    make_plane_wave,
    residual_complex_ideal,
    residual_left_form,
    residual_covariant,
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


class Row(NamedTuple):
    """One check of the catalog: its name, default tolerance and law."""

    name: str
    tol: float
    law: str
    at_least: bool = False  # passes when the value reaches the tolerance, not stays under it
    expectable: bool = False  # a scenario's ``expected`` value turns it into a diagnostic


def _emit(scn, suite: str, values: dict) -> list[Check]:
    """The checks of ``suite``, one per catalog row in order, valued from ``values``.

    A row the scenario lists in ``expected`` reports the gap to that value, as a diagnostic.
    """
    checks = []
    for row in SUITES[suite][2]:
        value, law, tol = values[row.name], row.law, scn.tol(row.name, row.tol)
        want = scn.expected.get(row.name)
        if want is not None:
            value, law = abs(value - want), f"{law} (expected nonzero value {want:g})"
        passed = value >= tol if row.at_least else value <= tol
        checks.append(Check(suite, row.name, law, float(value), tol, bool(passed),
                            want is not None))
    return checks


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
    return ConnectionField({(a, b, c): random_scalar_expr(rng, scale)
                            for a in range(4) for b in range(4) for c in range(b + 1, 4)})


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


def _twice_metric(a: int, b: int) -> float:
    return 2.0 if a == b == 0 else (-2.0 if a == b else 0.0)


def suite_algebra(scn) -> dict:
    rng = _rng(scn, "algebra")
    values = {"generator-relations": worst_of(*(
        (gp(E(a), E(b)) + gp(E(b), E(a)) - Multivector.scalar(_twice_metric(a, b))).norm_sup()
        for a in range(4) for b in range(4)))}

    sign, mask = blade_mul(0b1111, 0b1111)
    values["pseudoscalar-square"] = abs(sign + 1.0) + mask

    n = 1000
    a = rng.normal(size=(n, DIM))
    b = rng.normal(size=(n, DIM))
    c = rng.normal(size=(n, DIM))
    values["associativity"] = np.max(np.abs(gp_batch(gp_batch(a, b), c)
                                            - gp_batch(a, gp_batch(b, c))))

    rev = np.zeros(DIM)
    for m in range(DIM):
        g = bin(m).count("1")
        rev[m] = (-1.0) ** (g * (g - 1) // 2)
    values["reversion-antiautomorphism"] = np.max(np.abs((gp_batch(a, b) * rev)
                                                         - gp_batch(b * rev, a * rev)))

    worst = 0.0
    for i in range(DIM):
        for j in range(DIM):
            gi, gj = GRADES[i], GRADES[j]
            allowed = set(range(abs(gi - gj), gi + gj + 1, 2))
            prod = gp(Multivector.from_blade(i), Multivector.from_blade(j))
            leak = sum(abs(prod.coeffs[k]) for k in range(DIM) if GRADES[k] not in allowed)
            worst = worst_of(worst, leak)
    values["grade-bookkeeping"] = worst

    worst = 0.0
    for _ in range(20):
        w = random_multivector(rng, grade=2)
        for k in range(5):
            x = random_multivector(rng, grade=k)
            out = commutator_half(w, x)
            worst = worst_of(worst, (out - out.grade(k)).norm_sup())
    values["commutator-grade-preservation"] = worst

    worst = 0.0
    simple = [E(1) * E(2), E(1) * E(0), E(2) * E(3), E21]
    for _ in range(20):
        B = float(rng.normal(scale=0.8)) * simple[int(rng.integers(0, 4))]
        d = (exp_bivector(B) * exp_bivector(-1.0 * B) - Multivector.scalar(1.0)).norm_sup()
        worst = worst_of(worst, d)
    values["exp-bivector-inverse"] = worst
    return values


def suite_derivatives(scn) -> dict:
    rng = _rng(scn, "derivatives")
    setups = [scn.setup] + [random_setup(scn, rng) for _ in range(2)]
    # every residual is built first, then folded in one plan per setup, so
    # the nodes a setup's residuals share (its connection, above all) are
    # evaluated once per chunk; one plan over all residuals in build order
    # held about twice as many values live at its peak
    by_setup: dict = {}  # setup -> its residuals, setups in first-use order

    def add(setup, residuals):
        by_setup.setdefault(setup, []).extend(residuals)

    for i in range(50):
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
            "effective": (effective_deriv(A * psi, a, setup),
                          cov_deriv_clifford(A, np.eye(4)[a], setup) * psi
                          + A * effective_deriv(psi, a, setup)),
        }
        add(setup, [(f"leibniz-{k}", (lhs.expr, rhs.expr)) for k, (lhs, rhs) in laws.items()])

    for _ in range(10):
        setup = setups[int(rng.integers(0, len(setups)))]
        P = LeftSpinorField(f_product(random_field_expr(rng), Constant(IDEMPOTENT_E)))
        dP = cov_deriv_left(P, rng.normal(size=4), setup)
        proj = f_product(dP.expr, Constant(IDEMPOTENT_E))
        add(setup, [("ideal-preservation", (proj, dP.expr))])

    rotor_setup = change_spin_frame(random_rotor_expr(rng), setups[1]).setup
    for setup in (setups[0], setups[1], rotor_setup):
        psi = CliffordField(random_field_expr(rng, even=True))
        add(setup, [("effective-two-routes",
                     (effective_deriv(psi, a, setup).expr,
                      effective_deriv_via_connection(psi, a, setup).expr))
                    for a in range(4)])

    for setup in (setups[1], setups[2]):
        add(setup, [("unit-section-law",
                     (cov_deriv_right(unit_right(), np.eye(4)[a], setup).expr,
                      f_scale(-0.5, setup.omega(a))))
                    for a in range(4)])

    xs = scn.chart.grid(scn.grid)
    worst: dict = {}
    for residuals in by_setup.values():
        fold_sups(worst, residuals, xs)
    return worst


def suite_transport(scn) -> dict:
    rng = _rng(scn, "transport")
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
    values = {"flat-identity": (out - a0).norm_sup()}

    setup = scn.setup if not scn.setup.connection.is_zero else random_setup(scn, rng, scale=0.6)

    worst = 0.0
    for k in (1, 2, 3):
        h0 = random_multivector(rng, grade=k)
        outk = parallel_transport(h0, Kind.CLIFFORD, bent, setup, steps=scn.transport_steps)
        worst = worst_of(worst, (outk - outk.grade(k)).norm_sup())
    values["grade-preservation"] = worst

    strong = SpacetimeSetup(scn.chart, random_connection(rng, scale=2.5))
    b0 = random_multivector(rng, scale=1.0)
    s_ref = (reverse(b0) * b0).scalar_part

    def cons_err(steps):
        outs = parallel_transport(b0, Kind.CLIFFORD, bent, strong, steps=steps)
        return abs((reverse(outs) * outs).scalar_part - s_ref)

    n0 = max(16, scn.transport_steps // 8)
    e1, e2 = cons_err(n0), cons_err(2 * n0)
    values["conservation-order"] = e1 / max(e2, 1e-300)

    p0 = random_multivector(rng)
    f0 = random_multivector(rng)
    pt = parallel_transport(p0, Kind.LEFT, bent, setup, steps=scn.transport_steps)
    ft = parallel_transport(f0, Kind.RIGHT, bent, setup, steps=scn.transport_steps)
    ct = parallel_transport(p0 * f0, Kind.CLIFFORD, bent, setup, steps=scn.transport_steps)
    values["pairing-transport"] = (pt * ft - ct).norm_sup()

    q0 = random_multivector(rng) * IDEMPOTENT_E
    qt = parallel_transport(q0, Kind.LEFT, bent, setup, steps=scn.transport_steps)
    values["ideal-stability"] = (qt * IDEMPOTENT_E - qt).norm_sup()
    return values


def _ideal_column_map(rci: FieldExpr, ideal: Field, rep, params, setup):
    """The columns of the ideal residual ``rci`` minus the column residual, as a value map."""
    nodes, column = residual_covariant(ideal, rep, params, setup)
    return (rci, *nodes), lambda v, *vals: columns_from_coeffs(v, rep) - column(*vals)


def suite_dirac_triad(scn) -> dict:
    rng = _rng(scn, "dirac-triad")
    xs = scn.chart.grid(scn.grid)
    rep = build_gamma_rep()

    psi = scn.unknown
    r_dhe = residual_representative(psi, scn.params, scn.setup).expr
    r_decl = residual_left_form(LeftSpinorField(psi.expr), scn.params, scn.setup).expr
    Pc = LeftSpinorField(f_product(psi.expr, Constant(IDEMPOTENT_F)))
    r_ci = residual_complex_ideal(Pc, scn.params, scn.setup).expr
    worst = fold_sups({}, [
        ("representative-residual", (r_dhe, None)),
        ("left-residual", (r_decl, None)),
        ("ideal-residual", (r_ci, None)),
        ("column-residual", *residual_covariant(Pc, rep, scn.params, scn.setup)),
        ("left-representative-componentwise", (r_decl, r_dhe)),
    ], xs)

    for setup in [random_setup(scn, rng) for _ in range(2)]:
        params = DiracParams(float(rng.uniform(0.2, 1.5)), float(rng.uniform(-1.0, 1.0)),
                             random_potential(rng))
        residuals = []
        for _ in range(3):  # the representative, left, ideal and column forms of one unknown
            ex = random_field_expr(rng, even=True)
            ra = residual_representative(CliffordField(ex), params, setup).expr
            rb = residual_left_form(LeftSpinorField(ex), params, setup).expr
            pc = LeftSpinorField(f_product(ex, Constant(IDEMPOTENT_F)))
            rci = residual_complex_ideal(pc, params, setup).expr
            residuals += [
                ("left-representative-random", (ra, rb)),
                ("left-ideal-phase-map", (f_product(rb, Constant(IDEMPOTENT_F)), rci)),
                ("ideal-column-map", *_ideal_column_map(rci, pc, rep, params, setup)),
            ]

        ex1 = random_field_expr(rng, even=True)
        ex2 = random_field_expr(rng, even=True)
        r1 = residual_representative(CliffordField(ex1), params, setup)
        r2 = residual_representative(CliffordField(ex2), params, setup)
        r12 = residual_representative(CliffordField(ex1) + CliffordField(ex2), params, setup)
        residuals.append(("residual-linearity", (r12.expr, r1.expr, r2.expr),
                          lambda v12, v1, v2: v12 - v1 - v2))
        fold_sups(worst, residuals, xs)
    return worst


def suite_gauge(scn) -> dict:
    rng = _rng(scn, "gauge")
    xs = scn.chart.grid(scn.grid)
    params = scn.params
    setup = scn.setup

    shapes = [
        ("constant", Constant(Multivector.scalar(float(rng.uniform(0.2, 0.8))))),
        ("linear", ScalarLinear(rng.normal(scale=0.4, size=4), float(rng.normal(scale=0.3)))),
        ("sine", ScalarSine(float(rng.uniform(0.3, 0.7)), rng.normal(scale=0.9, size=4),
                            float(rng.normal()))),
    ]
    worst: dict = {}
    for label, chi in shapes:
        ex = random_field_expr(rng, even=True)

        Psi = LeftSpinorField(ex)
        P2, params2, G = gauge_transform_left_form(Psi, params, chi, setup)
        r1 = residual_left_form(Psi, params, setup)
        r2 = residual_left_form(P2, params2, setup)

        psi = CliffordField(ex)
        p2, params2b, G2 = gauge_transform_representative(psi, params, chi, setup)
        r1b = residual_representative(psi, params, setup)
        r2b = residual_representative(p2, params2b, setup)

        fold_sups(worst, [
            (f"left-covariance-{label}", (r2.expr, f_product(r1.expr, G.expr))),
            (f"representative-covariance-{label}", (r2b.expr, f_product(r1b.expr, G2.expr))),
        ], xs)

    q = params.charge if params.charge else 0.75
    theta = float(rng.uniform(0.3, 1.2))
    G = exp_bivector(-q * theta / 2.0 * E21)
    Gi = exp_bivector(q * theta / 2.0 * E21)
    cq, sq = np.cos(q * theta), np.sin(q * theta)
    wants = [E(0), cq * E(1) + sq * E(2), -sq * E(1) + cq * E(2), E(3)]
    worst["spin-plane-rotation"] = worst_of(*((G * E(a) * Gi - wants[a]).norm_sup()
                                              for a in range(4)))
    return worst


def suite_lorentz(scn) -> dict:
    rng = _rng(scn, "lorentz")
    xs = scn.chart.grid(scn.grid)
    params = DiracParams(scn.params.mass or 1.0, scn.params.charge or 0.5,
                         random_potential(rng))
    psi = CliffordField(random_field_expr(rng, even=True))
    base = scn.setup

    u_const = Constant(exp_bivector(0.4 * (E(1) * E(0))))
    law, _ = lorentz_covariance_check(psi, params, base, u_const)
    worst = fold_sups({}, [("residual-transform-constant", law)], xs)

    u_local = scn.frame_rotor if scn.frame_rotor is not None else random_rotor_expr(rng)
    law, fc_local = lorentz_covariance_check(psi, params, base, u_local)
    fold_sups(worst, [("residual-transform-local", law)], xs)

    legs = [l.expr for l in fc_local.legs]
    fold_sups(worst, [("frame-orthonormality",
                       (f_sum(f_product(legs[a], legs[b]), f_product(legs[b], legs[a])),
                        Constant(Multivector.scalar(_twice_metric(a, b)))))
                      for a in range(4) for b in range(4)], xs)

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
    residuals = [
        ("naturality-clifford", (cov_deriv_clifford(A2, V2, fc.setup).expr, dA2w.expr)),
        ("naturality-left", (cov_deriv_left(P2, V2, fc.setup).expr, dP2w.expr)),
        ("naturality-right", (cov_deriv_right(R2, V2, fc.setup).expr, dR2w.expr)),
    ]
    for a in range(4):
        lowered = Field(Kind.CLIFFORD, f_scale(float(ETA[a]), fc.legs[a].expr))
        wA = f_product(f_product(u_local, fc.setup.omega(a)), f_reverse(u_local))
        residuals.append(("connection-two-routes",
                          (wA, transformed_connection_form(u_local, base, lowered))))
    return fold_sups(worst, residuals, xs)


def _off_grades(*allowed):
    """A value map onto the coefficients outside the grades ``allowed``."""
    off = ~np.isin(GRADES, allowed)
    return lambda v: v[:, off]


def _fierz(J, K, sig, om):
    """J.J - (sigma^2 + omega^2), K.K + (sigma^2 + omega^2) and J.K, at one point.

    The products stay 1-D ``gp_batch`` calls: a 2-D route can change the last bits.
    """
    J, K, sig, om = J[0], K[0], sig[0, 0], om[0, 0]
    JJ = gp_batch(J, J)[0]
    KK = gp_batch(K, K)[0]
    JK = 0.5 * (gp_batch(J, K) + gp_batch(K, J))[0]
    return np.array([JJ - (sig**2 + om**2), KK + (sig**2 + om**2), JK])


_PURITY = {"S": _off_grades(0, 4), "J": _off_grades(1), "K": _off_grades(1), "M": _off_grades(2)}


def suite_bilinears(scn) -> dict:
    rng = _rng(scn, "bilinears")
    x0 = scn.chart.grid(2)[:1]

    worst: dict = {}
    for _ in range(100):
        m = random_multivector(rng, even=True, scale=0.8)
        bil = bilinear_covariants(CliffordField(Constant(m)))
        biln = bilinear_covariants(CliffordField(Constant(-1.0 * m)))
        residuals = [("grade-purity", (bil[k].expr,), off) for k, off in _PURITY.items()]
        residuals.append(("quadratic-relations",
                          (bil["J"].expr, bil["K"].expr, bil["sigma"], bil["omega"]), _fierz))
        residuals += [("sign-invariance", (biln[k].expr, bil[k].expr)) for k in _PURITY]
        fold_sups(worst, residuals, x0)

    bil = bilinear_covariants(make_plane_wave(scn.params.mass or 1.0))
    return fold_sups(worst, [
        ("rest-wave-normalization", (bil["sigma"], Constant(Multivector.scalar(1.0)))),
        ("rest-wave-normalization", (bil["omega"], None)),
    ], scn.chart.grid(3))


SUITES = {  # name -> (suite function, summary, its checks in report order)
    "algebra": (suite_algebra, "generator relations, associativity, reversion, grades, "
                               "bivector exponentials", (
        Row("generator-relations", 1e-15, "anticommutators of the generators equal twice the metric"),
        Row("pseudoscalar-square", 1e-15, "the unit pseudoscalar squares to -1"),
        Row("associativity", 1e-12, "geometric product associativity on random triples"),
        Row("reversion-antiautomorphism", 1e-12, "reversion reverses products: (ab)~ = b~ a~"),
        Row("grade-bookkeeping", 1e-15, "blade products land in grades |j-k|, |j-k|+2, ..., j+k"),
        Row("commutator-grade-preservation", 1e-12,
            "half-commutator with a bivector preserves grade"),
        Row("exp-bivector-inverse", 1e-12, "exp(B) exp(-B) = 1 for simple bivectors"),
    )),
    "derivatives": (suite_derivatives, "Leibniz rules for all derivative operators, ideal "
                                       "preservation, effective-derivative consistency, unit "
                                       "section law", (
        Row("leibniz-clifford", 1e-9, "covariant derivative is a derivation on Clifford products"),
        Row("leibniz-left", 1e-9, "module rule: Ds(A Psi) = A Ds Psi + (D A) Psi"),
        Row("leibniz-right", 1e-9, "module rule: Ds(Phi A) = Phi D A + (Ds Phi) A"),
        Row("leibniz-effective", 1e-9,
            "effective derivative obeys Dse(U psi) = (D U) psi + U Dse psi"),
        Row("ideal-preservation", 1e-10,
            "the spinor derivative keeps values inside the minimal left ideal"),
        Row("effective-two-routes", 1e-9,
            "the two assembly orders of the effective derivative agree"),
        Row("unit-section-law", 1e-9, "the right unit section differentiates to -(1/2) 1r omega_a"),
    )),
    "transport": (suite_transport, "parallel transport: flat identity, grade preservation, "
                                   "4th-order conservation, pairing compatibility", (
        Row("flat-identity", 1e-12, "transport with a vanishing connection is the identity"),
        Row("grade-preservation", 1e-9, "homogeneous values stay homogeneous along transport"),
        Row("conservation-order", 12.0,
            "reversal-norm drift shrinks like a 4th-order method when steps double "
            "(measured ratio must exceed the tolerance)", at_least=True),
        Row("pairing-transport", 1e-7,
            "pairing left and right transports equals transporting the pairing"),
        Row("ideal-stability", 1e-9, "left transport keeps values inside the minimal left ideal"),
    )),
    "dirac-triad": (suite_dirac_triad, "residuals of the representative, left, ideal and "
                                       "column forms plus the exact translations among them", (
        *(Row(f"{form}-residual", 1e-9, f"{law} residual of the scenario unknown", expectable=True)
          for form, law in (("representative", "representative-form"),
                            ("left", "left spin-Clifford"), ("ideal", "complex minimal-ideal"),
                            ("column", "column-spinor"))),
        Row("left-representative-componentwise", 1e-9,
            "left-form and representative-form residuals agree componentwise"),
        Row("left-representative-random", 1e-9,
            "componentwise left/representative agreement on random even fields "
            "over random torsionful setups"),
        Row("left-ideal-phase-map", 1e-9,
            "right-multiplying the left-form residual by the idempotent lands on "
            "the ideal-form residual"),
        Row("ideal-column-map", 1e-9,
            "the column bijection intertwines the ideal and column residuals"),
        Row("residual-linearity", 1e-12, "the residual is linear in the unknown at fixed parameters"),
    )),
    "gauge": (suite_gauge, "electromagnetic gauge covariance of both equation forms and the "
                           "spin-plane rotation picture", (
        *(Row(f"{form}-covariance-{label}", 1e-9, law)
          for label in ("constant", "linear", "sine")
          for form, law in (
              ("left", "left-form residual picks up exactly the gauge rotor on the right"),
              ("representative", "representative-form residual picks up exactly the gauge "
                                 "rotor"))),
        Row("spin-plane-rotation", 1e-10,
            "conjugating the legs by the gauge rotor rotates the 1-2 plane by "
            "the gauge angle and fixes the 0 and 3 legs"),
    )),
    "lorentz": (suite_lorentz, "frame-change covariance of the residual, orthonormality, "
                               "naturality of the covariant derivatives", (
        Row("residual-transform-constant", 1e-8,
            "frame change by a constant rotor multiplies the residual by the inverse rotor"),
        Row("residual-transform-local", 1e-8,
            "frame change by a position-dependent rotor multiplies the residual "
            "by the inverse rotor, with the connection transformed"),
        Row("frame-orthonormality", 1e-9, "transformed frame legs stay orthonormal pointwise"),
        *(Row(f"naturality-{kind}", 1e-8,
              "covariant differentiation commutes with the change of spin frame")
          for kind in ("clifford", "left", "right")),
        Row("connection-two-routes", 1e-8,
            "recomputing the coefficients from the new legs matches the "
            "connection transformation law"),
    )),
    "bilinears": (suite_bilinears, "grade purity, quadratic current relations and plane-wave "
                                   "normalization of the bilinears", (
        Row("grade-purity", 1e-10,
            "S lives in grades {0,4}, the currents in grade 1, the moment in grade 2"),
        Row("quadratic-relations", 1e-9,
            "J.J = sigma^2 + omega^2, K.K = -(sigma^2 + omega^2), J.K = 0"),
        Row("sign-invariance", 1e-12, "all bilinears are unchanged under psi -> -psi"),
        Row("rest-wave-normalization", 1e-12,
            "the rest plane wave has sigma = 1 and omega = 0 at every sampled point"),
    )),
}


def run_suite(name: str, scn) -> list[Check]:
    """Run the suite ``name`` on ``scn``: its checks, one per catalog row, in order."""
    return _emit(scn, name, SUITES[name][0](scn))
