"""Charts, frames, connections, covariant derivatives and parallel transport.

All component functions refer to one working trivialization at a time, the
one induced by the setup's own spin frame, in which the frame legs are the
constant generators E_a and the leg directions coincide with the chart's
coordinate directions.  A change of spin frame therefore transforms *data*:
it produces a new setup (with connection coefficients recomputed in the new
frame) together with every field's components re-expressed relative to the
new frame.  ``_ACTION`` is the one rule for how: each bundle is the spin
frame bundle under one action of Spin(1,3)e, a kind's (l, r) are the
coefficients of omega_V F and F omega_V in its covariant derivative, and a
frame change puts u~ on the left of its components where l is nonzero and u
on the right where r is, with u the rotor field relating the frames.  The
covariant derivatives, the transport operators and ``FrameChange.carry``
all read it:

    Clifford     (1/2, -1/2)  D_V A  = V(A) + [omega_V, A]/2   a -> u~ a u
    left spinor  (1/2, 0)     Ds_V P = V(P) + omega_V P / 2    a -> u~ a
    right spinor (0, -1/2)    Ds_V F = V(F) - F omega_V / 2    a -> a u

A representative of a spinor (an even Clifford field tied to the frame) is
acted on like the left spinor it represents: Dse_a p = d_a p + omega_a p / 2
(equals D_a p + p omega_a / 2), and a frame change takes it to u~ p.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .algebra import DIM, LEFT_OP, METRIC, RIGHT_OP, E, Multivector
from .errors import CurveOutOfChart, KindMismatch
from .fields import (
    BladeCoeff,
    CliffordField,
    Constant,
    Field,
    FieldExpr,
    Kind,
    LeftSpinorField,
    RightSpinorField,
    evaluate_many,
    f_combine,
    f_product,
    f_reverse,
    f_scale,
    f_sum,
)

__all__ = [
    "Chart",
    "Curve",
    "ConnectionField",
    "SpacetimeSetup",
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

ETA = np.array(METRIC, dtype=float)
# the (a, b, c) of the coefficients a connection is given by
_CONNECTION_KEYS = frozenset((a, b, c) for a in range(4) for b in range(4)
                             for c in range(b + 1, 4))


class Chart:
    """A single coordinate box."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != (4,) or self.hi.shape != (4,):
            raise ValueError("chart bounds must have 4 entries")
        if not np.all(self.lo < self.hi):
            raise ValueError("chart requires lo < hi on every axis")
        with np.errstate(over="ignore"):
            span = self.hi - self.lo
        if not np.all(np.isfinite(span)):
            raise ValueError("chart requires a finite span hi - lo on every axis, "
                             f"but it is {span.tolist()}")

    def grid(self, n: int) -> np.ndarray:
        """Tensor grid with n points per axis, flattened to (n^4, 4)."""
        axes = [np.linspace(self.lo[mu], self.hi[mu], n) for mu in range(4)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def contains(self, xs: np.ndarray, slack: float = 1e-12) -> bool:
        return bool(
            np.all(xs >= self.lo - slack) and np.all(xs <= self.hi + slack)
        )


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


class ConnectionField:
    """Connection coefficients Gamma_abc(x) with Gamma_abc = -Gamma_acb.

    The coefficients are defined against the setup's frame legs by
    D_{e_a} e_b = Gamma_ab^c e_c; metric compatibility is exactly the
    antisymmetry in (b, c), which is what allows the bivector form
    omega_a = -1/2 Gamma_abc e^b ^ e^c to exist.  So only the coefficients
    with b < c are given, as a map {(a, b, c): expr}; the others follow
    from the antisymmetry and a missing one is zero.
    """

    def __init__(self, entries: dict | None = None):
        entries = dict(entries or {})
        for key in entries:
            if key not in _CONNECTION_KEYS:
                raise ValueError(f"connection key {key!r} is not (a, b, c) with b < c, "
                                 f"each in 0..3")
        self.entries = entries
        self._omega: list[FieldExpr] | None = None

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def omega(self, a: int) -> FieldExpr:
        """Spin-connection bivector omega_a = -1/2 Gamma_abc e^b ^ e^c."""
        if self._omega is None:
            self._omega = [
                f_combine([(-1.0, f_product(self.entries[aa, b, c], Constant(E(b) * E(c))))
                           for b in range(4) for c in range(b + 1, 4)
                           if (aa, b, c) in self.entries])
                for aa in range(4)
            ]
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
            [f_sum(*(f_product(lam[a][b], self.entry(b, mu)) for b in range(4)))
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
        self.connection = connection if connection is not None else ConnectionField()
        self.tetrad = tetrad if tetrad is not None else Tetrad()
        self._omega_for: dict = {}  # direction key -> omega_V, see omega_for

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
        return [_contract(v, [self.tetrad.entry(a, mu) for a in range(4)]) for mu in range(4)]

    def omega_for(self, V) -> FieldExpr:
        """Connection bivector omega_V = v^a omega_a on a direction V.

        Built once per direction and setup: an array direction is keyed by
        its float bytes, a grade-1 field direction by its node.
        """
        key = V.expr if isinstance(V, Field) else np.asarray(V, dtype=float).tobytes()
        w = self._omega_for.get(key)
        if w is None:
            w = _contract(self.frame_components(V), [self.omega(a) for a in range(4)])
            # setdefault: threads that build the same direction get one object
            w = self._omega_for.setdefault(key, w)
        return w

    def omega_coord(self, mu: int) -> FieldExpr:
        """Connection bivector along the coordinate direction d_mu = (L^-1)_mu^a e_a.

        In the fiducial frame the components are floats and this is omega(mu)
        itself; in a rotated frame they are the inverse tetrad entries.
        """
        if self.tetrad.is_identity:
            comps = [float(a == mu) for a in range(4)]
        else:
            comps = [self.tetrad.inverse_entry(mu, a) for a in range(4)]
        return _contract(comps, [self.omega(a) for a in range(4)])

    def omega_coord_at(self, xdot: np.ndarray, x: np.ndarray) -> np.ndarray:
        """omega on coordinate velocities ``xdot`` (S, 4) at points x (S, 4): xdot^mu omega_mu.

        The four ``omega_coord(mu)`` are evaluated by one ``evaluate_many``
        over all S points, so one plan runs and shares their nodes.
        """
        xdot = np.asarray(xdot, dtype=float)
        vals = evaluate_many([self.omega_coord(mu) for mu in range(4)],
                             np.asarray(x, dtype=float))
        acc = np.zeros((len(xdot), DIM))
        for mu, omega in enumerate(vals):
            if np.any(xdot[:, mu]):
                acc = acc + xdot[:, mu, None] * omega
        return acc


def _contract(comps: list, exprs: list) -> FieldExpr:
    """sum_i c_i e_i for direction components c_i: floats scale, scalar fields multiply.

    The components of one direction are all floats or all fields.  A float
    is not wrapped in a ``Constant``: ``f_product`` would fold that scalar
    ``Constant`` to the same scaling after interning it.
    """
    if isinstance(comps[0], float):
        return f_combine(zip(comps, exprs))
    return f_sum(*map(f_product, comps, exprs))


# ---------------------------------------------------------------------------
# Unit sections and pairings
# ---------------------------------------------------------------------------


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
    return Field(F.kind, _contract(comps, [F.expr.partial(mu) for mu in range(4)]))


# The action of Spin(1,3)e on each bundle kind: the coefficients (l, r) of
# omega_V F and F omega_V in the covariant derivative of a field F.
_ACTION = {Kind.CLIFFORD: (0.5, -0.5), Kind.LEFT: (0.5, 0.0), Kind.RIGHT: (0.0, -0.5)}


def _rule(table: dict, kind, what: str):
    """``table[kind]``; a KindMismatch for a kind without a rule, naming a non-Kind by repr."""
    if not (isinstance(kind, Kind) and kind in table):
        name = kind.value if isinstance(kind, Kind) else repr(kind)
        raise KindMismatch(f"no {what} rule for kind {name}")
    return table[kind]


def _cov_deriv(kind: Kind, F: Field, V, setup: SpacetimeSetup, like: Kind | None = None) -> Field:
    """V(F) + l omega_V F + r F omega_V for a field of ``kind``, acted on like ``like``."""
    if F.kind is not kind:
        raise KindMismatch(f"a covariant derivative of {kind.value} fields got a "
                           f"{F.kind.value} field")
    l, r = _ACTION[like or kind]
    terms = [(1.0, directional_derivative(F, V, setup).expr)]
    w = setup.omega_for(V)
    if l:
        terms.append((l, f_product(w, F.expr)))
    if r:
        terms.append((r, f_product(F.expr, w)))
    return Field(kind, f_combine(terms))


def cov_deriv_clifford(A: Field, V, setup: SpacetimeSetup) -> Field:
    return _cov_deriv(Kind.CLIFFORD, A, V, setup)


def cov_deriv_left(P: Field, V, setup: SpacetimeSetup) -> Field:
    return _cov_deriv(Kind.LEFT, P, V, setup)


def cov_deriv_right(F: Field, V, setup: SpacetimeSetup) -> Field:
    return _cov_deriv(Kind.RIGHT, F, V, setup)


def effective_deriv(psi: Field, a: int, setup: SpacetimeSetup) -> Field:
    """Effective derivative of a representative: d_{e_a} psi + omega_a psi / 2."""
    return _cov_deriv(Kind.CLIFFORD, psi, np.eye(4)[a], setup, like=Kind.LEFT)


def effective_deriv_via_connection(psi: Field, a: int, setup: SpacetimeSetup) -> Field:
    """Same operator assembled as D_{e_a} psi + psi omega_a / 2 (cross-check)."""
    da = cov_deriv_clifford(psi, np.eye(4)[a], setup).expr
    return CliffordField(f_combine([(1.0, da), (0.5, f_product(psi.expr, setup.omega(a)))]))


def frame_sum(parts: list[FieldExpr]) -> FieldExpr:
    """The frame contraction e^a X_a of the four expressions X_a in ``parts``, summed in order."""
    return f_sum(*(f_product(Constant(E(a)), x) for a, x in enumerate(parts)))


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
# index (the kernel's ``LEFT_OP``), y omega on its second (``RIGHT_OP``).
# So op = -(l LEFT_OP + r RIGHT_OP) for the kind's sides (l, r); a zero side
# is left out, since adding its signed zeros would flip some zero entries.
_TRANSPORT_OPS = {kind: -reduce(np.add, [c * op for c, op in zip(lr, (LEFT_OP, RIGHT_OP)) if c])
                  for kind, lr in _ACTION.items()}
# Steps whose propagators are built together.  The (B, 16, 16) stacks then
# stay small whatever the step count; built for every step at once, they
# raise a 4096-step transport's peak memory about sixfold.
_BLOCK_STEPS = 32
_IDENTITY = np.eye(DIM)


def parallel_transport(values, kind: Kind, curve: Curve, setup: SpacetimeSetup,
                       steps: int = 256) -> list:
    """Transport fiber values of one kind along a curve by the classical 4-stage scheme.

    The transport equations in components are dA/dt = -[omega, A]/2 for
    Clifford values, dP/dt = -omega P / 2 for left and dF/dt = +F omega / 2
    for right spinor values, with omega = omega_{sigma'(t)} at sigma(t).

    ``values`` is a sequence of fiber values; the result is a list of the
    transported values, in order, each of its input's dtype (real and
    complex values can share a call).  omega is evaluated once per call,
    at the 2*steps+1 stage points t_j = j h / 2, which must all lie in the
    chart; an empty ``values`` evaluates nothing.  The law is linear, so a
    step is one 16x16 propagator that does not depend on the value: with
    stage matrices A_s, A_m, A_e, K2 = A_m + h/2 A_s A_m,
    K3 = A_m + h/2 K2 A_m, K4 = A_e + h K3 A_e and
    y <- y (I + h/6 (A_s + 2 K2 + 2 K3 + K4)).  The propagators are built
    once per call, a block of steps at a time, and each value goes through
    each block in step order by one-row products, so a value's result is
    the same to the bit whatever else shares its call.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    op = _rule(_TRANSPORT_OPS, kind, "transport")
    h = 1.0 / steps
    ts = np.arange(2 * steps + 1) * (0.5 * h)
    pts = curve.point(ts)
    if not setup.chart.contains(pts, slack=1e-9):
        raise CurveOutOfChart("curve leaves the chart box")

    ys = [v.coeffs for v in values]
    if not ys or setup.connection.is_zero:
        return [Multivector(y) for y in ys]

    w = setup.omega_coord_at(curve.velocity(ts), pts)
    for k in range(0, steps, _BLOCK_STEPS):
        a = (w[2 * k:2 * min(k + _BLOCK_STEPS, steps) + 1] @ op).reshape(-1, DIM, DIM)
        a_start, a_mid, a_end = a[:-1:2], a[1::2], a[2::2]
        # in place, in the order of a_mid + h/2 (a_start @ a_mid), ... and
        # I + h/6 (((a_start + 2 K2) + 2 K3) + K4): IEEE sums and products
        # commute, so each propagator is the same to the bit
        k2 = a_start @ a_mid
        k2 *= 0.5 * h
        k2 += a_mid
        k3 = k2 @ a_mid
        k3 *= 0.5 * h
        k3 += a_mid
        k4 = k3 @ a_end
        k4 *= h
        k4 += a_end
        r = k2  # the propagators, over k2's storage
        r *= 2
        r += a_start
        k3 *= 2
        r += k3
        r += k4
        r *= h / 6.0
        r += _IDENTITY
        # y.dot(step) for each value and step in order: one-row products
        # (gemv); a (K, 16) @ (16, 16) product of all values at once is
        # a gemm, which can differ in the last bits
        ys = [reduce(np.ndarray.dot, r, y) for y in ys]
    return [Multivector(y) for y in ys]


# ---------------------------------------------------------------------------
# Change of spin frame
# ---------------------------------------------------------------------------


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
    return f_combine([(1.0, f_product(f_product(u, w), ur)), (2.0, f_product(du, ur))])


class FrameChange:
    """A change of spin frame by the rotor field u: the new setup and legs, and ``carry``."""

    def __init__(self, u: FieldExpr, setup: SpacetimeSetup, legs: list[Field]):
        self.u = u
        self.setup = setup
        self.legs = legs
        self._ur = f_reverse(u)

    def carry(self, F: Field, like: Kind | None = None) -> Field:
        """F in the new frame: u~ on the left if its action's l is nonzero, u on the right if r is.

        ``like`` names the kind whose action applies to a field tied to the frame as
        another kind is (a representative is carried ``like=Kind.LEFT``); F keeps its kind.
        """
        l, r = _rule(_ACTION, like or F.kind, "frame-change")
        expr = f_product(self._ur, F.expr) if l else F.expr
        return Field(F.kind, f_product(expr, self.u) if r else expr)


def change_spin_frame(u: FieldExpr, setup: SpacetimeSetup) -> FrameChange:
    """Move to the spin frame related to the current one by the rotor field u.

    Returns the new setup (connection coefficients recomputed against the
    new frame) and legs; its ``carry`` re-expresses fields in the new
    frame's trivialization.  The caller vouches that u is a real rotor field.
    """
    legs = transformed_frame_legs(u)
    lowered = [Field(Kind.CLIFFORD, f_scale(float(ETA[a]), legs[a].expr)) for a in range(4)]

    # Gamma'_abc = <(D_{e'_a} e'_b) e'_c>_0 with lowered legs in every slot,
    # all in the current trivialization; the scalars carry over to the new
    # trivialization unchanged.  Only b < c is built: the rest is antisymmetry.
    gamma = {}
    for a in range(4):
        for b in range(3):
            nab = cov_deriv_clifford(lowered[b], lowered[a], setup).expr
            for c in range(b + 1, 4):
                gamma[a, b, c] = BladeCoeff(f_product(nab, lowered[c].expr), 0)

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
    return FrameChange(u, new_setup, legs)
