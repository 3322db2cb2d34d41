"""Spacetime algebra (signature (1,3)) kernels and a Dirac-equation
verification toolkit.

Layers, bottom up:

  algebra    exact blade arithmetic in R_{1,3} and its complexification
  spinors    idempotents, minimal left ideals, gamma-matrix representation
  fields     field expressions with exact derivatives; field kinds
  geometry   charts, connections, covariant derivatives, transport,
             changes of spin frame
  dirac      the equation residuals in all their forms, as fields, and the
             gauge and frame covariance laws; bilinears
  suites     the verification suites wired into the `verify` CLI
"""

from .algebra import (
    CMultivector,
    Multivector,
    Signature,
    STA,
    blade_mul,
    commutator_half,
    complexify,
    even_part,
    exp_bivector,
    gp,
    grade_proj,
    imag_part,
    odd_part,
    real_part,
    reverse,
)
from .dirac import (
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
)
from .errors import (
    ConfigError,
    CurveOutOfChart,
    InconsistentParity,
    KindMismatch,
    NotEven,
    NotInIdeal,
    NotRotor,
    SeriesNotConverged,
    StaError,
    UnknownSuite,
)
from .fields import (
    BivectorExp,
    CliffordField,
    Constant,
    Field,
    FieldExpr,
    FrameScalarField,
    Kind,
    LeftSpinorField,
    Polynomial,
    RightSpinorField,
    ScalarGaussian,
    ScalarLinear,
    ScalarSine,
    evaluate,
    rotor_wave,
)
from .geometry import (
    Chart,
    ConnectionField,
    Curve,
    SpacetimeSetup,
    change_spin_frame,
    cov_deriv_clifford,
    cov_deriv_left,
    cov_deriv_right,
    dirac_operator_left,
    effective_deriv,
    pair_to_clifford,
    parallel_transport,
    unit_left,
    unit_right,
)
from .spinors import (
    IDEAL_PHASE,
    IDEMPOTENT_E,
    IDEMPOTENT_F,
    GammaRep,
    build_gamma_rep,
    column_from_ideal,
    complex_ideal_from_even,
    even_from_ideal,
    ideal_from_column,
    project_ideal_left,
)

__version__ = "0.1.0"
