"""Residuals of the three faces of the Dirac equation, as fields.

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

Each residual function returns the section it builds and evaluates nothing:
the representative residual is a Clifford field, the left and ideal
residuals are left spinor fields.  The column residual lives outside the
field algebra, so ``residual_covariant`` returns it as a value
map, the nodes it reads and the map from their values to columns.  The
gauge and frame-change laws are returned the same way, as fields or node
pairs, and ``fields.fold_sups`` reduces them.

Right-multiplying the left form by the idempotent f turns E21 into the
scalar c and E0 into 1, which is exactly the ideal form; pushing that
through the column bijection gives the column form.  The translations are
therefore identities, which the verification suites check numerically.
With the conventions used here c evaluates to -i; sources that write +i in
the ideal/column equations orient the spin plane the opposite way.

The operators are defined on every section of their bundle, so no builder
here samples its argument: that the unknown is finite and even, and the
potential finite and grade 1, are properties of the fields under test,
checked once where a scenario is built (``sta.scenario``), and Psi f lies
in the ideal because it is built that way.  A library caller that builds
its own fields vouches for them.
"""

from __future__ import annotations

import numpy as np

from .algebra import E0, E21, E_lower, Multivector
from .errors import KindMismatch, NotRotor
from .fields import (
    BivectorExp,
    BladeCoeff,
    CliffordField,
    Constant,
    Field,
    FieldExpr,
    Kind,
    f_combine,
    f_product,
    f_reverse,
    f_scale,
    rotor_wave,
)
from .geometry import (
    FrameChange,
    SpacetimeSetup,
    change_spin_frame,
    dirac_operator_left,
    directional_derivative,
    effective_deriv,
    frame_sum,
)
from .spinors import GAMMAS, IDEAL_PHASE, columns_from_coeffs, rho_batch

__all__ = [
    "DiracParams",
    "residual_representative",
    "residual_left_form",
    "residual_complex_ideal",
    "residual_covariant",
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
        if not mass >= 0:
            raise ValueError("mass must be nonnegative")
        if not np.isfinite([mass, charge]).all():
            raise ValueError("mass and charge must be finite")
        self.mass = float(mass)
        self.charge = float(charge)
        if potential is None:
            potential = CliffordField(Constant(Multivector.zero()))
        if potential.kind is not Kind.CLIFFORD:
            raise KindMismatch("potential must be a Clifford field")
        self.potential = potential

    def with_potential(self, potential: Field) -> "DiracParams":
        return DiracParams(self.mass, self.charge, potential)


def residual_representative(psi: Field, params: DiracParams, setup: SpacetimeSetup) -> Field:
    """Residual of the representative form, a Clifford field, for an even Clifford field."""
    if psi.kind is not Kind.CLIFFORD:
        raise KindMismatch("residual_representative expects a Clifford field")
    ds = frame_sum([effective_deriv(psi, a, setup).expr for a in range(4)])
    return CliffordField(f_combine([
        (1.0, f_product(ds, Constant(E21))),
        (-params.charge, f_product(params.potential.expr, psi.expr)),
        (-params.mass, f_product(psi.expr, Constant(E0))),
    ]))


def residual_left_form(Psi: Field, params: DiracParams, setup: SpacetimeSetup) -> Field:
    """Residual of the left spin-Clifford form, a left field, for an even left spinor field."""
    if Psi.kind is not Kind.LEFT:
        raise KindMismatch("residual_left_form expects a left spinor field")
    ds = dirac_operator_left(Psi, setup)
    return (
        ds * E21
        - params.mass * (Psi * E0)
        - params.charge * (params.potential * Psi)
    )


def residual_complex_ideal(Psi_c: Field, params: DiracParams, setup: SpacetimeSetup) -> Field:
    """Residual of the complex-ideal form c Ds Psi - m Psi - q A Psi, a left field.

    The scalar c is the derived constant with e2e1 f = c f; it plays the
    role of the imaginary unit of the column formulation.
    """
    if Psi_c.kind is not Kind.LEFT:
        raise KindMismatch("residual_complex_ideal expects a left spinor field")
    ds = dirac_operator_left(Psi_c, setup)
    return (
        IDEAL_PHASE * ds
        - params.mass * Psi_c
        - params.charge * (params.potential * Psi_c)
    )


def residual_covariant(ideal: Field, params: DiracParams, setup: SpacetimeSetup):
    """The column residual of a complex ideal field as a value map: (the nodes it reads, map).

    The map takes the values of those nodes, in order, and returns the
    column residual c gamma^a (Dcol_a + c q A_a) |psi> - m |psi> on their
    points, with |psi> the columns of ``ideal``.  The nodes
    are psi, its four frame derivatives e_a(psi) (``directional_derivative``,
    which reads the tetrad), the potential and omega_0..omega_3.  The rest
    is 4x4 matrix algebra: the spinor covariant derivative acts on columns
    as the frame derivative plus half the matrix image of the connection
    bivector, which is the column-side conjugate of the left-spinor
    derivative.
    """
    if ideal.kind is not Kind.LEFT:
        raise KindMismatch("residual_covariant expects a left spinor field")
    c = IDEAL_PHASE
    nodes = [ideal.expr,
             *(directional_derivative(ideal, np.eye(4)[a], setup).expr for a in range(4)),
             params.potential.expr, *(setup.omega(a) for a in range(4))]

    def residual(psi, *vals) -> np.ndarray:
        derivs, pot, omegas = vals[:4], vals[4], vals[5:]
        cols = columns_from_coeffs(psi)
        out = -params.mass * cols
        for a, (deriv, w) in enumerate(zip(derivs, omegas)):
            dcol = columns_from_coeffs(deriv)
            if np.any(w):
                wmat = rho_batch(w)
                dcol = dcol + 0.5 * np.einsum("nij,nj->ni", wmat, cols)
            # gamma^a (dcol + c q A_a cols)
            A_a = pot[:, 1 << a]
            term = dcol + (c * params.charge) * A_a[:, None] * cols
            out = out + c * np.einsum("ij,nj->ni", GAMMAS[a], term)
        return out

    return nodes, residual


# ---------------------------------------------------------------------------
# Gauge transformations
# ---------------------------------------------------------------------------


def scalar_gradient(chi: FieldExpr, setup: SpacetimeSetup) -> Field:
    """The grade-1 field e^a (e_a chi), the Dirac operator on a scalar."""
    chifield = CliffordField(chi)
    return CliffordField(frame_sum([directional_derivative(chifield, np.eye(4)[a], setup).expr
                                    for a in range(4)]))


def gauge_rotor_expr(charge: float, chi: FieldExpr) -> FieldExpr:
    """The spin-plane gauge rotor exp(-q e21 chi).

    The sign of the exponent is the one that makes the residual covariance
    an exact identity when the potential shifts by +grad(chi); with it the
    complex-ideal form picks up the scalar phase exp(-c q chi).
    """
    return BivectorExp(E21, f_scale(-charge, chi))


def _gauge_transform(psi: Field, params: DiracParams, chi: FieldExpr, setup: SpacetimeSetup,
                     name: str, form: str, kind: Kind, rotor_kind: Kind):
    """psi -> psi G and A -> A + grad(chi), with G the gauge rotor as a field of ``rotor_kind``."""
    if psi.kind is not kind:
        raise KindMismatch(f"{name} expects a {form} field")
    G = Field(rotor_kind, gauge_rotor_expr(params.charge, chi))
    psi2 = psi * G
    A2 = params.potential + scalar_gradient(chi, setup)
    return psi2, params.with_potential(A2), G


def gauge_transform_left_form(Psi: Field, params: DiracParams, chi: FieldExpr,
                              setup: SpacetimeSetup) -> tuple[Field, DiracParams, Field]:
    """Gauge transform of the left form by the scalar chi: Psi -> Psi G, A -> A + grad(chi).

    Returns (Psi', params', G) with G the frame-scalar gauge rotor.  The
    connection bivectors are untouched.
    """
    return _gauge_transform(Psi, params, chi, setup, "gauge_transform_left_form",
                            "left spinor", Kind.LEFT, Kind.FRAME_SCALAR)


def gauge_transform_representative(psi: Field, params: DiracParams, chi: FieldExpr,
                                   setup: SpacetimeSetup) -> tuple[Field, DiracParams, Field]:
    """Gauge transform of the representative form; the rotor is a Clifford field."""
    return _gauge_transform(psi, params, chi, setup, "gauge_transform_representative",
                            "Clifford", Kind.CLIFFORD, Kind.CLIFFORD)


# ---------------------------------------------------------------------------
# Local Lorentz covariance
# ---------------------------------------------------------------------------


def lorentz_covariance_check(psi: Field, params: DiracParams, setup: SpacetimeSetup,
                             u: FieldExpr) -> tuple[tuple[FieldExpr, FieldExpr], FrameChange]:
    """The residual law R -> R U^{-1} under a change of spin frame, as a node pair.

    The frame changes by the rotor field u; the representative (psi -> u~ psi
    in the new frame's components) and the potential are re-expressed, and
    the representative residual is rebuilt against the transformed setup.
    Returns ``((after, expected), frame_change)``: ``after`` is that
    residual, ``expected`` is u~ R, the transformed components of R U^{-1}
    for the residual R before the change.  Nothing is evaluated here; the
    law holds when the pair agrees, which ``fields.fold_sups`` measures.
    """
    before = residual_representative(psi, params, setup).expr
    fc = change_spin_frame(u, setup)
    after = residual_representative(fc.carry(psi, like=Kind.LEFT),
                                    params.with_potential(fc.carry(params.potential)),
                                    fc.setup).expr
    return (after, fc.carry(CliffordField(before), like=Kind.LEFT).expr), fc


# ---------------------------------------------------------------------------
# Bilinear covariants
# ---------------------------------------------------------------------------


def bilinear_covariants(psi: Field) -> dict:
    """S, J, K and the grade-2 bilinear of an even field, plus sigma/omega.

    S = psi psi~ = sigma + e5 omega lives in grades {0, 4}; J = psi e0 psi~
    and K = psi e3 psi~ are grade 1; M = psi e1 e2 psi~ is grade 2 (lowered
    frame legs throughout).
    """
    if psi.kind is not Kind.CLIFFORD:
        raise KindMismatch("bilinear_covariants expects a Clifford field")
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
    if boost.odd().norm_sup() > 1e-12 or not (boost.reverse() * boost).approx_eq(
        Multivector.scalar(1.0), 1e-10
    ):
        raise NotRotor("boost must be a constant rotor")
    n = boost * E0 * boost.reverse()
    wave = np.array([n.coeffs[1 << a] for a in range(4)], dtype=float)
    return CliffordField(rotor_wave(boost, -1.0 * E21, mass * wave))
