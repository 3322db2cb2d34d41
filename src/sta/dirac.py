"""Residual evaluators for the three faces of the Dirac equation.

The three forms, for mass m, charge q and electromagnetic potential A:

  representative (even Clifford field psi, frame legs e^a, spin plane e21):
      e^a Dse_a psi e21 - q A psi - m psi e0

  left spinor field Psi, with the constant algebra elements acting from
  the right:
      Ds Psi E21 - m Psi E0 - q A Psi                            (left form)

  complex minimal ideal Psi f, with c the derived scalar from E21 f = c f:
      c Ds Psi - m Psi - q A Psi                                 (ideal form)

  column spinors, through the matrix representation, same constant c:
      c gamma^a (Dcol_a + c q A_a) |psi> - m |psi>               (column form)

Right-multiplying the left form by the idempotent f turns E21 into the
scalar c and E0 into 1, which is exactly the ideal form; pushing that
through the column bijection gives the column form.  The translations are
therefore identities, which the verification suites check numerically.
With the conventions used here c evaluates to -i; sources that write +i in
the ideal/column equations orient the spin plane the opposite way.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import E, E0, E21, E_lower, Multivector, reverse
from .errors import KindMismatch, NotInIdeal, NotRotor
from .fields import (
    BivectorExp,
    CliffordField,
    Constant,
    Field,
    FieldExpr,
    BladeCoeff,
    FrameScalarField,
    Kind,
    evaluate_many,
    f_product,
    f_reverse,
    f_scale,
    f_sum,
    fold_sups,
    rotor_wave,
    worst_of,
)
from .geometry import (
    GRADES,
    SpacetimeSetup,
    change_spin_frame,
    dirac_operator_left,
    directional_derivative,
    effective_deriv,
    require_even,
)
from .spinors import IDEAL_PHASE, GammaRep, columns_from_coeffs, ideal_membership_defect

__all__ = [
    "DiracParams",
    "GaugeFn",
    "Residual",
    "residual_representative",
    "residual_left_form",
    "residual_complex_ideal",
    "residual_covariant",
    "covariant_map",
    "gauge_transform_left_form",
    "gauge_transform_representative",
    "gauge_rotor_expr",
    "lorentz_covariance_check",
    "bilinear_covariants",
    "make_plane_wave",
    "scalar_gradient",
]

#: Frame pseudoscalar e5 = e_0 e_1 e_2 e_3 (lowered legs).
E5_LOWER = E_lower(0) * E_lower(1) * E_lower(2) * E_lower(3)


class DiracParams:
    """Mass, charge and electromagnetic potential (natural units)."""

    def __init__(self, mass: float, charge: float, potential: Field | None = None):
        if mass < 0:
            raise ValueError("mass must be nonnegative")
        self.mass = float(mass)
        self.charge = float(charge)
        if potential is None:
            potential = CliffordField(Constant(Multivector.zero()))
        if potential.kind is not Kind.CLIFFORD:
            raise KindMismatch("potential must be a Clifford field")
        self.potential = potential

    def with_potential(self, potential: Field) -> "DiracParams":
        return DiracParams(self.mass, self.charge, potential)

    def validate_grade1(self, setup: SpacetimeSetup, tol: float = 1e-10):
        xs = setup.chart.sample(3)
        vals = self.potential.eval(xs)
        off = vals[:, GRADES != 1]
        if off.size and not float(np.max(np.abs(off))) <= tol:  # a NaN fails
            raise ValueError("potential is not pointwise grade 1")


class GaugeFn:
    """A scalar gauge function chi(x)."""

    def __init__(self, chi: FieldExpr):
        self.chi = chi


class Residual:
    """Field-valued equation residual on the points ``xs``.

    ``values`` and the grid sup norm ``sup`` are computed on first access,
    so a residual that is only compared (through ``fold_sups``) is never
    evaluated on its own.
    """

    def __init__(self, field: Field | None, xs: np.ndarray, values: np.ndarray | None = None):
        self.field = field
        self.xs = xs
        if values is not None:
            self.values = values

    @cached_property
    def values(self) -> np.ndarray:
        return self.field.eval(self.xs)

    @cached_property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def __repr__(self):
        return f"Residual(sup={self.sup:.3e})"


def residual_representative(psi: Field, params: DiracParams, setup: SpacetimeSetup,
                 xs: np.ndarray | None = None, check_even: bool = True) -> Residual:
    """Residual of the representative-form equation for an even Clifford field."""
    if psi.kind is not Kind.CLIFFORD:
        raise KindMismatch("residual_representative expects a Clifford field")
    if check_even:
        require_even(psi, setup.chart, label="representative")
    acc: FieldExpr = Constant(Multivector.zero())
    for a in range(4):
        da = effective_deriv(psi, a, setup, check_even=False).expr
        acc = f_sum(acc, f_product(Constant(E(a)), da))
    expr = f_product(acc, Constant(E21))
    expr = f_sum(expr, f_scale(-params.charge, f_product(params.potential.expr, psi.expr)))
    expr = f_sum(expr, f_scale(-params.mass, f_product(psi.expr, Constant(E0))))
    field = CliffordField(expr)
    return Residual(field, setup.chart.grid(5) if xs is None else xs)


def residual_left_form(Psi: Field, params: DiracParams, setup: SpacetimeSetup,
                  xs: np.ndarray | None = None, check_even: bool = True) -> Residual:
    """Residual of the left spin-Clifford form for an even left spinor field."""
    if Psi.kind is not Kind.LEFT:
        raise KindMismatch("residual_left_form expects a left spinor field")
    if check_even:
        require_even(Psi, setup.chart, label="spinor field")
    ds = dirac_operator_left(Psi, setup)
    field = (
        ds * E21
        - params.mass * (Psi * E0)
        - params.charge * (params.potential * Psi)
    )
    return Residual(field, setup.chart.grid(5) if xs is None else xs)


def residual_complex_ideal(Psi_c: Field, params: DiracParams, setup: SpacetimeSetup,
                           xs: np.ndarray | None = None,
                           check_ideal: bool = True, tol: float = 1e-9) -> Residual:
    """Residual of the complex-ideal form c Ds Psi - m Psi - q A Psi.

    The scalar c is the derived constant with e2e1 f = c f; it plays the
    role of the imaginary unit of the column formulation.
    """
    if Psi_c.kind is not Kind.LEFT:
        raise KindMismatch("residual_complex_ideal expects a left spinor field")
    if xs is None:
        xs = setup.chart.grid(5)
    if check_ideal:
        vals = Psi_c.eval(xs)
        scale = worst_of(1.0, float(np.max(np.abs(vals))))
        if not ideal_membership_defect(vals) <= tol * scale:  # a NaN fails
            raise NotInIdeal("field does not satisfy Psi f = Psi")
    ds = dirac_operator_left(Psi_c, setup)
    field = (
        IDEAL_PHASE * ds
        - params.mass * Psi_c
        - params.charge * (params.potential * Psi_c)
    )
    return Residual(field, xs)


class ColumnSpinorField:
    """Column-spinor view of a complex ideal field, through a gamma rep."""

    def __init__(self, ideal: Field, rep: GammaRep):
        if ideal.kind is not Kind.LEFT:
            raise KindMismatch("column view expects a left spinor field")
        self.ideal = ideal
        self.rep = rep


def covariant_map(col: ColumnSpinorField, params: DiracParams, setup: SpacetimeSetup):
    """The column residual as a value map: (the field nodes it reads, map).

    The map takes the values of those nodes, in order, and returns the
    column residual c gamma^a (Dcol_a + c q A_a) |psi> - m |psi> on their
    points.  Everything on this route is 4x4 matrix algebra: the spinor
    covariant derivative acts on columns as the coordinate derivative plus
    half the matrix image of the connection bivector, which is the
    column-side conjugate of the left-spinor derivative.
    """
    rep = col.rep
    c = IDEAL_PHASE
    ideal = col.ideal.expr
    nodes = ([ideal, *(ideal.partial(mu) for mu in range(4)), params.potential.expr]
             + [setup.tetrad.entry(a, mu) for a in range(4) for mu in range(4)]
             + [setup.omega(a) for a in range(4)])

    def residual(*vals) -> np.ndarray:
        values = dict(zip(nodes, vals))
        cols = columns_from_coeffs(values[ideal], rep)
        dcols_coord = [columns_from_coeffs(values[ideal.partial(mu)], rep) for mu in range(4)]
        pot = values[params.potential.expr]

        out = -params.mass * cols
        for a in range(4):
            # frame-direction derivative through the tetrad
            dcol = np.zeros_like(cols)
            for mu in range(4):
                ev = values[setup.tetrad.entry(a, mu)][:, 0]
                dcol = dcol + ev[:, None] * dcols_coord[mu]
            w = values[setup.omega(a)]
            if np.any(w):
                wmat = rep.rho_batch(w)
                dcol = dcol + 0.5 * np.einsum("nij,nj->ni", wmat, cols)
            # gamma^a (dcol + c q A_a cols)
            A_a = pot[:, 1 << a]
            term = dcol + (c * params.charge) * A_a[:, None] * cols
            out = out + c * np.einsum("ij,nj->ni", rep.gammas[a], term)
        return out

    return nodes, residual


def residual_covariant(col: ColumnSpinorField, params: DiracParams,
                       setup: SpacetimeSetup, xs: np.ndarray | None = None) -> Residual:
    """Column residual of ``col`` on ``xs``: ``covariant_map``'s nodes in one plan."""
    if xs is None:
        xs = setup.chart.grid(5)
    nodes, residual = covariant_map(col, params, setup)
    return Residual(None, xs, residual(*evaluate_many(nodes, xs)))


# ---------------------------------------------------------------------------
# Gauge transformations
# ---------------------------------------------------------------------------


def scalar_gradient(chi: FieldExpr, setup: SpacetimeSetup) -> Field:
    """The grade-1 field e^a (e_a chi), the Dirac operator on a scalar."""
    acc: FieldExpr = Constant(Multivector.zero())
    chifield = CliffordField(chi)
    for a in range(4):
        da = directional_derivative(chifield, np.eye(4)[a], setup).expr
        acc = f_sum(acc, f_product(Constant(E(a)), da))
    return CliffordField(acc)


def gauge_rotor_expr(charge: float, chi: FieldExpr) -> FieldExpr:
    """The spin-plane gauge rotor exp(-q e21 chi).

    The sign of the exponent is the one that makes the residual covariance
    an exact identity when the potential shifts by +grad(chi); with it the
    complex-ideal form picks up the scalar phase exp(-c q chi).
    """
    return BivectorExp(E21, f_scale(-charge, chi))


def gauge_transform_left_form(Psi: Field, params: DiracParams, chi: GaugeFn,
                         setup: SpacetimeSetup) -> tuple[Field, DiracParams, Field]:
    """Gauge transform of the left form: Psi -> Psi G, A -> A + grad(chi).

    Returns (Psi', params', G) with G the frame-scalar gauge rotor.  The
    connection bivectors are untouched.
    """
    if Psi.kind is not Kind.LEFT:
        raise KindMismatch("gauge_transform_left_form expects a left spinor field")
    G = FrameScalarField(gauge_rotor_expr(params.charge, chi.chi))
    Psi2 = Psi * G
    A2 = params.potential + scalar_gradient(chi.chi, setup)
    return Psi2, params.with_potential(A2), G


def gauge_transform_representative(psi: Field, params: DiracParams, chi: GaugeFn,
                        setup: SpacetimeSetup) -> tuple[Field, DiracParams, Field]:
    """Gauge transform of the representative form; the rotor is a Clifford field."""
    if psi.kind is not Kind.CLIFFORD:
        raise KindMismatch("gauge_transform_representative expects a Clifford field")
    G = CliffordField(gauge_rotor_expr(params.charge, chi.chi))
    psi2 = psi * G
    A2 = params.potential + scalar_gradient(chi.chi, setup)
    return psi2, params.with_potential(A2), G


# ---------------------------------------------------------------------------
# Local Lorentz covariance
# ---------------------------------------------------------------------------


class LorentzReport:
    def __init__(self, defect: float, residual_before: Residual,
                 residual_after: Residual, frame_change):
        self.defect = defect
        self.residual_before = residual_before
        self.residual_after = residual_after
        self.frame_change = frame_change


def lorentz_covariance_check(psi: Field, params: DiracParams, setup: SpacetimeSetup,
                             u: FieldExpr, xs: np.ndarray | None = None) -> LorentzReport:
    """Check that the representative residual transforms as R -> R U^{-1}.

    The check changes the spin frame by the rotor field u, re-expresses the
    representative (psi -> u~ psi in the new frame's components) and the
    potential, recomputes the residual against the transformed setup and
    compares with u~ R, the transformed components of R U^{-1}.
    """
    if xs is None:
        xs = setup.chart.grid(5)
    r1 = residual_representative(psi, params, setup, xs)
    fc = change_spin_frame(u, setup, clifford=[params.potential], representatives=[psi])
    params2 = params.with_potential(fc.clifford[0])
    psi2 = fc.representatives[0]
    r2 = residual_representative(psi2, params2, fc.setup, xs, check_even=False)
    expected = f_product(f_reverse(u), r1.field.expr)
    defect = fold_sups({}, [("defect", (r2.field.expr, expected))], xs)["defect"]
    return LorentzReport(defect, r1, r2, fc)


# ---------------------------------------------------------------------------
# Bilinear covariants
# ---------------------------------------------------------------------------


def bilinear_covariants(psi: Field, setup: SpacetimeSetup, check_even: bool = True) -> dict:
    """S, J, K and the grade-2 bilinear of an even field, plus sigma/omega.

    S = psi psi~ = sigma + e5 omega lives in grades {0, 4}; J = psi e0 psi~
    and K = psi e3 psi~ are grade 1; M = psi e1 e2 psi~ is grade 2 (lowered
    frame legs throughout).
    """
    if psi.kind is not Kind.CLIFFORD:
        raise KindMismatch("bilinear_covariants expects a Clifford field")
    if check_even:
        require_even(psi, setup.chart, label="bilinear argument")
    rev = f_reverse(psi.expr)
    S = f_product(psi.expr, rev)
    sandwich = lambda mid: CliffordField(f_product(f_product(psi.expr, Constant(mid)), rev))
    # S4 = omega * e5 and e5 carries coefficient -1 on the top blade
    omega = f_scale(1.0 / E5_LOWER.coeffs[-1], BladeCoeff(S, 15))
    return {
        "S": CliffordField(S),
        "sigma": BladeCoeff(S, 0),
        "omega": omega,
        "J": sandwich(E_lower(0)),
        "K": sandwich(E_lower(3)),
        "M": sandwich(E_lower(1) * E_lower(2)),
    }


# ---------------------------------------------------------------------------
# Plane-wave solutions
# ---------------------------------------------------------------------------


def make_plane_wave(mass: float, boost: Multivector | None = None) -> Field:
    """Plane-wave solution U exp(-e21 m t') of the source-free equation.

    The rest-frame solution exp(-e21 m t) solves the representative form
    with A = 0 because e0 d0 (psi) e21 = m psi e0; boosting with a constant
    rotor U replaces the time direction by n = U e0 U~, so the phase runs
    along t'(x) = n . x with n read off as the wave covector.
    """
    if boost is None:
        boost = Multivector.scalar(1.0)
    if boost.odd().norm_sup() > 1e-12 or not (reverse(boost) * boost).approx_eq(
        Multivector.scalar(1.0), 1e-10
    ):
        raise NotRotor("boost must be a constant rotor")
    n = boost * E0 * reverse(boost)
    wave = np.array([n.coeffs[1 << a] for a in range(4)], dtype=float)
    return CliffordField(rotor_wave(boost, -1.0 * E21, mass * wave))
