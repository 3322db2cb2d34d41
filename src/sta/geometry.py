"""Charts, frames, connections, covariant derivatives and parallel transport.

All component functions refer to one working trivialization at a time, the
one induced by the setup's own spin frame, in which the frame legs are the
constant generators E_a and the leg directions coincide with the chart's
coordinate directions.  A change of spin frame therefore transforms *data*:
it produces a new setup (with connection coefficients recomputed in the new
frame) together with every field's components re-expressed relative to the
new frame.  The transformation rules per kind are

    Clifford     a  ->  u~ a u
    left spinor  a  ->  u~ a
    right spinor a  ->  a u
    representative of a spinor (an even Clifford field tied to the frame)
                 a  ->  u~ a

with u the rotor field relating the frames.

Covariant derivatives, with omega_V the connection bivector:

    Clifford   D_V A   = V(A) + [omega_V, A]/2
    left       Ds_V P  = V(P) + omega_V P / 2
    right      Ds_V F  = V(F) - F omega_V / 2
    effective (on representatives)
               Dse_a p = d_a p + omega_a p / 2   (equals D_a p + p omega_a / 2)
"""

from __future__ import annotations

import numpy as np

from .algebra import DIM, GRADES, STA, E, Multivector, gp_batch
from .errors import (
    CurveOutOfChart,
    KindMismatch,
    NotAntisymmetric,
    NotEven,
    NotRotor,
)
from .fields import (
    BladeCoeff,
    CliffordField,
    Constant,
    Field,
    FieldExpr,
    GradeSelect,
    Kind,
    LeftSpinorField,
    RightSpinorField,
    evaluate,
    evaluate_many,
    f_commutator_half,
    f_product,
    f_reverse,
    f_scale,
    f_sum,
    worst_of,
)

__all__ = [
    "Chart",
    "Curve",
    "ConnectionField",
    "SpacetimeSetup",
    "unit_left",
    "unit_right",
    "pair_to_clifford",
    "directional_derivative",
    "cov_deriv_clifford",
    "cov_deriv_left",
    "cov_deriv_right",
    "effective_deriv",
    "effective_deriv_via_connection",
    "dirac_operator_left",
    "frame_sum",
    "parallel_transport",
    "transformed_frame_legs",
    "transformed_connection_form",
    "change_spin_frame",
    "FrameChange",
]

ETA = np.array([1.0, -1.0, -1.0, -1.0])
ROTOR_TOL = 1e-9


class Chart:
    """A single coordinate box with a finite-difference cross-check step."""

    def __init__(self, lo, hi, fd_step: float = 1e-3):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != (4,) or self.hi.shape != (4,):
            raise ValueError("chart bounds must have 4 entries")
        if not np.all(self.lo < self.hi):
            raise ValueError("chart requires lo < hi on every axis")
        if fd_step <= 0:
            raise ValueError("fd_step must be positive")
        self.fd_step = float(fd_step)

    def grid(self, n: int) -> np.ndarray:
        """Tensor grid with n points per axis, flattened to (n^4, 4)."""
        return _tensor_grid(self.lo, self.hi, n)

    def contains(self, xs: np.ndarray, slack: float = 1e-12) -> bool:
        return bool(
            np.all(xs >= self.lo - slack) and np.all(xs <= self.hi + slack)
        )

    def interior_grid(self, n: int, margin: float) -> np.ndarray:
        """Grid shrunk away from the boundary (room for FD stencils)."""
        span = self.hi - self.lo
        return _tensor_grid(self.lo + margin * span, self.hi - margin * span, n)


def _tensor_grid(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """The n^4 points of the box [lo, hi], n per axis, as an (n^4, 4) array."""
    axes = [np.linspace(lo[mu], hi[mu], n) for mu in range(4)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


class Curve:
    """Polynomial path t -> x(t), t in [0, 1], with exact velocity."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)  # (deg+1, 4)
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != 4:
            raise ValueError("curve coefficients must have shape (deg+1, 4)")

    @classmethod
    def line(cls, x0, x1) -> "Curve":
        x0 = np.asarray(x0, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        return cls(np.stack([x0, x1 - x0]))

    def point(self, t) -> np.ndarray:
        """x(t); an array of S parameter values gives (S, 4)."""
        t = np.asarray(t, dtype=float)
        powers = t[..., None] ** np.arange(len(self.coeffs))
        return powers @ self.coeffs

    def velocity(self, t) -> np.ndarray:
        """x'(t); an array of S parameter values gives (S, 4)."""
        t = np.asarray(t, dtype=float)
        k = np.arange(1, len(self.coeffs))
        return (k * t[..., None] ** (k - 1)) @ self.coeffs[1:]

    def check_inside(self, chart: Chart, samples: int = 64):
        pts = self.point(np.linspace(0.0, 1.0, samples))
        if not chart.contains(pts, slack=1e-9):
            raise CurveOutOfChart("curve leaves the chart box")


class ConnectionField:
    """Connection coefficients Gamma_abc(x) with Gamma_abc = -Gamma_acb.

    The coefficients are defined against the setup's frame legs by
    D_{e_a} e_b = Gamma_ab^c e_c; metric compatibility is exactly the
    antisymmetry in (b, c), which is what allows the bivector form
    omega_a = -1/2 Gamma_abc e^b ^ e^c to exist.
    """

    def __init__(self, gamma_exprs):
        # gamma_exprs: nested [a][b][c] of FieldExpr or None (zero)
        self.gamma = gamma_exprs
        self._omega: list[FieldExpr] | None = None

    @classmethod
    def zero(cls) -> "ConnectionField":
        return cls([[[None] * 4 for _ in range(4)] for _ in range(4)])

    def entry(self, a: int, b: int, c: int) -> FieldExpr | None:
        return self.gamma[a][b][c]

    @property
    def is_zero(self) -> bool:
        return all(
            self.gamma[a][b][c] is None
            for a in range(4)
            for b in range(4)
            for c in range(4)
        )

    def validate_antisymmetry(self, xs: np.ndarray, tol: float = 1e-9):
        """Raise ``NotAntisymmetric`` unless |Gamma_abc + Gamma_acb| <= tol at the points xs.

        Only the points xs are checked: transport evaluates the connection
        along curves, off any grid, so an entry that overflows only there
        passes.
        """
        entries = [g for ab in self.gamma for abc in ab for g in abc if g is not None]
        worst = 0.0
        # an entry that overflows at xs fails through its NaN sup, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            vals = dict(zip(entries, evaluate_many(entries, xs)))
            for a in range(4):
                for b in range(4):
                    for c in range(b, 4):
                        gbc = self.gamma[a][b][c]
                        gcb = self.gamma[a][c][b]
                        vbc = vals[gbc][:, 0] if gbc is not None else 0.0
                        vcb = vals[gcb][:, 0] if gcb is not None else 0.0
                        worst = worst_of(worst, float(np.max(np.abs(vbc + vcb))))
        if not worst <= tol:  # a NaN fails
            raise NotAntisymmetric(
                f"Gamma_abc + Gamma_acb reaches {worst:.3e} at the checked points"
            )

    def omega(self, a: int) -> FieldExpr:
        """Spin-connection bivector omega_a = -1/2 Gamma_abc e^b ^ e^c."""
        if self._omega is None:
            self._omega = []
            for aa in range(4):
                acc: FieldExpr = Constant(Multivector.zero())
                for b in range(4):
                    for c in range(b + 1, 4):
                        g = self.gamma[aa][b][c]
                        if g is None:
                            continue
                        acc = f_sum(
                            acc,
                            f_scale(-1.0, f_product(g, Constant(E(b) * E(c)))),
                        )
                self._omega.append(acc)
        return self._omega[a]


class Tetrad:
    """Map from frame legs to chart coordinate directions.

    ``entries[a][mu]`` gives the coordinate components of the leg e_a as a
    vector field: e_a acts on scalars as sum_mu entries[a][mu] d_mu.  Entries
    are scalar field expressions (constants included); the fiducial frame is
    the identity.  Orthonormality of the legs against the chart metric makes
    the matrix Lorentz pointwise, so its inverse is eta L^T eta (a
    sign-decorated transpose, exact).
    """

    def __init__(self, entries=None):
        self.entries = entries  # None means identity

    @property
    def is_identity(self) -> bool:
        return self.entries is None

    def entry(self, a: int, mu: int) -> FieldExpr:
        if self.entries is None:
            return Constant(1.0 if a == mu else 0.0)
        return self.entries[a][mu]

    def inverse_entry(self, mu: int, a: int) -> FieldExpr:
        """(L^-1)_mu^a = eta_mumu eta_aa L_a^mu."""
        return f_scale(float(ETA[mu] * ETA[a]), self.entry(a, mu))

    def compose(self, lam) -> "Tetrad":
        """Tetrad of the frame e'_a = lam_a^b e_b (entries L' = lam . L)."""
        return Tetrad([
            [sum((f_product(lam[a][b], self.entry(b, mu)) for b in range(4)), Constant(0.0))
             for mu in range(4)]
            for a in range(4)
        ])


class SpacetimeSetup:
    """Chart + orthonormal frame + connection, in the frame's own trivialization.

    In its own trivialization the frame legs are the constant generators
    E_a; the tetrad records which coordinate directions they correspond to
    (the identity for the fiducial frame).  Covariant derivatives are then
    assembled from exact coordinate partials plus the spin-connection
    bivectors derived from the coefficient table.
    """

    def __init__(self, chart: Chart, connection: ConnectionField | None = None,
                 tetrad: Tetrad | None = None):
        self.chart = chart
        self.connection = connection if connection is not None else ConnectionField.zero()
        self.tetrad = tetrad if tetrad is not None else Tetrad()

    def leg_lower(self, a: int) -> Field:
        """The lowered frame leg e_a as a field in the setup's own trivialization."""
        return CliffordField(Constant(float(ETA[a]) * E(a)))

    def omega(self, a: int) -> FieldExpr:
        return self.connection.omega(a)

    def frame_components(self, V) -> list:
        """Components v^a with V = v^a e_a: floats for an array, fields for a grade-1 field."""
        if isinstance(V, Field):
            return [f_scale(float(ETA[a]), BladeCoeff(V.expr, 1 << a)) for a in range(4)]
        v = np.asarray(V, dtype=float)
        return [float(v[a]) for a in range(4)]

    def coord_components(self, V) -> list:
        """Coordinate components c^mu = v^a L_a^mu of a direction.

        Floats for an array direction in the identity tetrad, scalar fields
        otherwise.
        """
        v = self.frame_components(V)
        if self.tetrad.is_identity:
            return v
        return [sum((_times(v[a], self.tetrad.entry(a, mu)) for a in range(4)), Constant(0.0))
                for mu in range(4)]

    def omega_for(self, V) -> FieldExpr:
        """Connection bivector omega_V = v^a omega_a on a direction V."""
        return sum((_times(va, self.omega(a)) for a, va in enumerate(self.frame_components(V))),
                   Constant(0.0))

    def omega_coord_at(self, xdot: np.ndarray, x: np.ndarray) -> np.ndarray:
        """omega on coordinate velocities ``xdot`` (S, 4) at points x (S, 4).

        Each omega_a and each tetrad entry is evaluated once over all S
        points, by one ``evaluate`` call each, so node values are held only
        until that call returns.
        """
        xdot = np.asarray(xdot, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.tetrad.is_identity:
            v = xdot
        else:
            v = np.zeros_like(xdot)
            for a in range(4):
                for mu in range(4):
                    v[:, a] += xdot[:, mu] * evaluate(self.tetrad.inverse_entry(mu, a), x)[:, 0]
        acc = np.zeros((len(x), DIM))
        for a in range(4):
            if np.any(v[:, a]):
                acc = acc + v[:, a, None] * evaluate(self.omega(a), x)
        return acc


def _times(c, e: FieldExpr) -> FieldExpr:
    """c e for a direction component c: a float scales, a scalar field multiplies.

    A float is not wrapped in a ``Constant``: ``f_product`` would fold that
    scalar ``Constant`` to the same ``f_scale`` after interning it.
    """
    return f_scale(c, e) if isinstance(c, float) else f_product(c, e)


# ---------------------------------------------------------------------------
# Unit sections and pairings
# ---------------------------------------------------------------------------


def unit_left() -> Field:
    """The left unit section of the working spin frame (components 1)."""
    return LeftSpinorField(Constant(Multivector.scalar(1.0)))


def unit_right() -> Field:
    return RightSpinorField(Constant(Multivector.scalar(1.0)))


def pair_to_clifford(psi: Field, phi: Field) -> Field:
    """Left x right pairing into the Clifford bundle."""
    if psi.kind is not Kind.LEFT or phi.kind is not Kind.RIGHT:
        raise KindMismatch("pair_to_clifford expects (left, right)")
    return psi * phi


# ---------------------------------------------------------------------------
# Derivative operators
# ---------------------------------------------------------------------------


def directional_derivative(F: Field, V, setup: SpacetimeSetup) -> Field:
    """V(F): derivative of the components along V, reattached to F's kind.

    V is given by frame components (array) or as a grade-1 Clifford field;
    the setup's tetrad converts it to chart coordinate directions.
    """
    comps = setup.coord_components(V)
    return Field(F.kind, sum((_times(c, F.expr.partial(mu)) for mu, c in enumerate(comps)),
                             Constant(0.0)))


def cov_deriv_clifford(A: Field, V, setup: SpacetimeSetup) -> Field:
    if A.kind is not Kind.CLIFFORD:
        raise KindMismatch("cov_deriv_clifford expects a Clifford field")
    dA = directional_derivative(A, V, setup).expr
    w = setup.omega_for(V)
    return CliffordField(f_sum(dA, f_commutator_half(w, A.expr)))


def cov_deriv_left(P: Field, V, setup: SpacetimeSetup) -> Field:
    if P.kind is not Kind.LEFT:
        raise KindMismatch("cov_deriv_left expects a left spinor field")
    dP = directional_derivative(P, V, setup).expr
    w = setup.omega_for(V)
    return LeftSpinorField(f_sum(dP, f_scale(0.5, f_product(w, P.expr))))


def cov_deriv_right(F: Field, V, setup: SpacetimeSetup) -> Field:
    if F.kind is not Kind.RIGHT:
        raise KindMismatch("cov_deriv_right expects a right spinor field")
    dF = directional_derivative(F, V, setup).expr
    w = setup.omega_for(V)
    return RightSpinorField(f_sum(dF, f_scale(-0.5, f_product(F.expr, w))))


def require_even(F: Field, xs: np.ndarray, tol: float = 1e-10, label: str = "field"):
    """Raise ``NotEven`` unless F is finite and even, up to ``tol`` relative, at the points xs."""
    # a field that overflows at xs fails through its non-finite value, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        vals = F.eval(xs)
    if not np.all(np.isfinite(vals)):
        raise NotEven(f"{label} is not finite at every checked point")
    odd = vals[:, GRADES % 2 == 1]
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    if float(np.max(np.abs(odd), initial=0.0)) > tol * scale:
        raise NotEven(f"{label} has a nonzero odd part")


def effective_deriv(psi: Field, a: int, setup: SpacetimeSetup) -> Field:
    """Effective derivative of a representative: d_{e_a} psi + omega_a psi / 2."""
    if psi.kind is not Kind.CLIFFORD:
        raise KindMismatch("effective_deriv expects a Clifford field")
    dpsi = directional_derivative(psi, np.eye(4)[a], setup).expr
    return CliffordField(f_sum(dpsi, f_scale(0.5, f_product(setup.omega(a), psi.expr))))


def effective_deriv_via_connection(psi: Field, a: int, setup: SpacetimeSetup) -> Field:
    """Same operator assembled as D_{e_a} psi + psi omega_a / 2 (cross-check)."""
    da = cov_deriv_clifford(psi, np.eye(4)[a], setup).expr
    return CliffordField(f_sum(da, f_scale(0.5, f_product(psi.expr, setup.omega(a)))))


def frame_sum(parts: list[FieldExpr]) -> FieldExpr:
    """The frame contraction e^a X_a of the four expressions X_a in ``parts``, summed in order."""
    acc: FieldExpr = Constant(Multivector.zero())
    for a, x in enumerate(parts):
        acc = f_sum(acc, f_product(Constant(E(a)), x))
    return acc


def dirac_operator_left(P: Field, setup: SpacetimeSetup) -> Field:
    """Spin Dirac operator e^a Ds_{e_a} on left spinor fields."""
    return LeftSpinorField(frame_sum([cov_deriv_left(P, np.eye(4)[a], setup).expr
                                      for a in range(4)]))


# ---------------------------------------------------------------------------
# Parallel transport
# ---------------------------------------------------------------------------

# The right-hand side of each transport law is linear in y, y' = y @ A(omega),
# with A[j, k] = sum_i omega_i op[i, j*DIM + k] read off the Cayley tensor C
# (e_i e_j = sum_k C[i, j, k] e_k):  omega y is C contracted on its first
# index (the kernel's ``left_op``), y omega on its second (``right_op``).
_T = STA.tables
_TRANSPORT_OPS = {
    Kind.CLIFFORD: -0.5 * (_T.left_op - _T.right_op),
    Kind.LEFT: -0.5 * _T.left_op,
    Kind.RIGHT: 0.5 * _T.right_op,
}


def parallel_transport(a0, kind: Kind, curve: Curve, setup: SpacetimeSetup,
                       steps: int = 256):
    """Transport a fiber value along a curve by the classical 4-stage scheme.

    The transport equations in components are dA/dt = -[omega, A]/2 for
    Clifford values, dP/dt = -omega P / 2 for left and dF/dt = +F omega / 2
    for right spinor values, with omega = omega_{sigma'(t)} at sigma(t).

    omega is evaluated once per curve, at the 2*steps+1 stage points
    t_j = j h / 2; each step then applies its three 16x16 stage matrices.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if kind not in _TRANSPORT_OPS:
        raise KindMismatch(f"no transport rule for kind {kind}")
    curve.check_inside(setup.chart)
    op = _TRANSPORT_OPS[kind]

    y = np.array(a0.coeffs, dtype=a0.coeffs.dtype)
    if setup.connection.is_zero:
        return type(a0)(y)

    h = 1.0 / steps
    ts = np.arange(2 * steps + 1) * (0.5 * h)
    w = setup.omega_coord_at(curve.velocity(ts), curve.point(ts))

    for k in range(steps):
        a_start, a_mid, a_end = (w[2 * k:2 * k + 3] @ op).reshape(3, DIM, DIM)
        k1 = y @ a_start
        k2 = (y + 0.5 * h * k1) @ a_mid
        k3 = (y + 0.5 * h * k2) @ a_mid
        k4 = (y + h * k3) @ a_end
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return type(a0)(y)


# ---------------------------------------------------------------------------
# Change of spin frame
# ---------------------------------------------------------------------------


def validate_rotor(u: FieldExpr, xs: np.ndarray, tol: float = ROTOR_TOL):
    """Raise ``NotRotor`` unless u is even and reverse(u) u = 1, within tol, at the points xs.

    Only the points xs are checked: transport evaluates the frame's
    connection along curves, off any grid.
    """
    # a rotor that overflows at xs fails through its NaN, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        vals = evaluate(u, xs)
        uu = gp_batch(vals * STA.tables.reverse_signs, vals)
    odd = vals[:, GRADES % 2 == 1]
    if not float(np.max(np.abs(odd))) <= tol:  # a NaN fails
        raise NotRotor("rotor field has odd-grade components")
    unit = np.zeros(DIM)
    unit[0] = 1.0
    defect = float(np.max(np.abs(uu - unit)))
    if not defect <= tol:
        raise NotRotor(f"reverse(u)*u deviates from 1 by {defect:.3e}")


def transformed_frame_legs(u: FieldExpr) -> list[Field]:
    """New frame legs u e_a u~ as fields in the current trivialization."""
    ur = f_reverse(u)
    return [
        CliffordField(f_product(f_product(u, Constant(E(a))), ur)) for a in range(4)
    ]


def transformed_connection_form(u: FieldExpr, setup: SpacetimeSetup, V) -> FieldExpr:
    """omega'_V = u omega_V u~ + 2 (D_V u) u~ in the current trivialization."""
    w = setup.omega_for(V)
    du = cov_deriv_clifford(CliffordField(u), V, setup).expr
    ur = f_reverse(u)
    return f_sum(
        f_product(f_product(u, w), ur), f_scale(2.0, f_product(du, ur))
    )


class FrameChange:
    """Result of a change of spin frame: new setup plus re-expressed fields."""

    def __init__(self, setup, legs, clifford, left, right, representatives):
        self.setup = setup
        self.legs = legs
        self.clifford = clifford
        self.left = left
        self.right = right
        self.representatives = representatives


def change_spin_frame(u: FieldExpr, setup: SpacetimeSetup, *, clifford=(), left=(),
                      right=(), representatives=()) -> FrameChange:
    """Move to the spin frame related to the current one by the rotor field u.

    Returns the new setup (connection coefficients recomputed against the
    new frame) and all supplied fields re-expressed in the new frame's
    trivialization:  Clifford components conjugate, left components pick up
    u~ on the left, right components pick up u on the right, and a
    representative of a spinor field transforms like the spinor itself.
    The caller vouches that u is a rotor field; ``validate_rotor`` checks it.
    """
    legs = transformed_frame_legs(u)
    lowered = [Field(Kind.CLIFFORD, f_scale(float(ETA[a]), legs[a].expr)) for a in range(4)]

    # Gamma'_abc = <(D_{e'_a} e'_b) e'_c>_0 with lowered legs in every slot,
    # all in the current trivialization; the scalars carry over to the new
    # trivialization unchanged.
    gamma = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            nab = cov_deriv_clifford(lowered[b], lowered[a], setup).expr
            for c in range(4):
                expr = GradeSelect(f_product(nab, lowered[c].expr), {0})
                gamma[a][b][c] = expr

    # e'_a = lam_a^b e_b over the current frame fixes the new tetrad L' = lam L.
    # legs[] holds the upper-index legs e'^a = eta^aa e'_a, hence the eta_aa.
    lam = [
        [
            f_scale(float(ETA[a] * ETA[b]), BladeCoeff(legs[a].expr, 1 << b))
            for b in range(4)
        ]
        for a in range(4)
    ]
    new_setup = SpacetimeSetup(
        setup.chart,
        ConnectionField(gamma),
        tetrad=setup.tetrad.compose(lam),
    )

    ur = f_reverse(u)
    def conj(F):
        return Field(F.kind, f_product(f_product(ur, F.expr), u))

    return FrameChange(
        setup=new_setup,
        legs=legs,
        clifford=[conj(F) for F in clifford],
        left=[Field(F.kind, f_product(ur, F.expr)) for F in left],
        right=[Field(F.kind, f_product(F.expr, u)) for F in right],
        representatives=[Field(F.kind, f_product(ur, F.expr)) for F in representatives],
    )


# ---------------------------------------------------------------------------
# Finite-difference cross-check
# ---------------------------------------------------------------------------


def fd_directional(expr: FieldExpr, xs: np.ndarray, mu: int, h: float) -> np.ndarray:
    """Central difference of a field expression along coordinate mu."""
    dx = np.zeros(4)
    dx[mu] = h
    return (evaluate(expr, xs + dx) - evaluate(expr, xs - dx)) / (2.0 * h)
