"""Coordinate-indexed multivector fields built from a closed constructor set.

Every field expression is a tree over a small set of constructors, and each
constructor carries an exact partial derivative in every coordinate
direction, so differential identities can be checked without numerical
differentiation (finite differences exist only as an independent
cross-check).  Evaluation is batched: points of shape (N, 4) give blade
coefficients of shape (N, 16).  One plan is the only evaluator: it walks the
union DAG of its roots in post-order, without recursion, evaluates each node
once by handing its ``_eval`` the values of its ``children`` (in order, with
repeats), and drops every value after its last use.  A node never evaluates
another node and no caller holds a memo.  Three entry points run a plan:
``fold_sups(worst, residuals, xs)``, the one residual reducer, builds one
plan and runs it over 512-row chunks of ``xs``, so its memory is bounded
whatever the grid, and folds the sup of each named residual (a pair of
nodes, or a row-local map from some nodes' values to an array) into
``worst[name]`` with the NaN-keeping ``worst_of``; ``evaluate_many(roots,
xs)`` keeps the roots' whole-grid values; ``evaluate(expr, xs)`` is its
one-root case.

The node set: leaves (``Constant``, ``Polynomial`` and the scalar
``ScalarLinear``, ``ScalarSine``, ``ScalarGaussian``), one linear node
(``Linear``: a combination of terms with constant scalar coefficients), the
geometric ``Product``, ``Reverse``, ``GradeSelect``, ``BladeCoeff`` and
``BivectorExp``.  Build them with the folding constructors ``f_sum``,
``f_scale``, ``f_product`` and ``f_reverse``.

Nodes are hash-consed: every constructor call looks its structure up in one
process-wide table first, so two structurally equal nodes are the same
object.  A tree rebuilt from the same parts (a covariant derivative built
again for the next identity, say) is the tree built before, so a plan over
both evaluates it once and the cached partial derivatives hit across
rebuilds.  A node's key is its class, its children (by identity) and its
parameters: ``Linear`` keys each term as (type of coefficient, coefficient,
expression), so a float and a complex coefficient of equal value stay
distinct nodes; ``Constant`` and ``BivectorExp`` key the dtype and raw bytes
of their coefficients.  The leaves other than ``Constant`` are not interned:
they come from configuration or random draws and are not rebuilt.  The
table holds its nodes for the life of the process, with their structure and
partial-derivative links but never an evaluated value.

Field *kinds* distinguish values that share their coefficient storage but
transform differently under a change of spin frame.  Multiplication is only
defined for kind pairs with a well-defined result:

    Clifford * Clifford -> Clifford        Clifford * Left  -> Left
    Right * Clifford    -> Right           Left * Right     -> Clifford
    Right * Left        -> frame-scalar    Left * frame-scalar  -> Left
    frame-scalar * Right -> Right          frame-scalar * frame-scalar -> same

The frame-scalar kind holds algebra-valued *functions* (not sections); it is
how constant algebra elements act on spinor fields from the outside.
"""

from __future__ import annotations

import operator
from enum import Enum

import numpy as np

from .algebra import (
    DIM,
    GRADES,
    CMultivector,
    Multivector,
    _coerce,
    _MVBase,
    bivector_square_class,
    gp_batch,
)
from .algebra import _exp_series, _T
from .errors import KindMismatch

__all__ = [
    "FieldExpr",
    "Constant",
    "Polynomial",
    "ScalarLinear",
    "ScalarSine",
    "ScalarGaussian",
    "Linear",
    "Product",
    "Reverse",
    "GradeSelect",
    "BladeCoeff",
    "BivectorExp",
    "rotor_wave",
    "evaluate",
    "fold_sups",
    "evaluate_many",
    "worst_of",
    "Kind",
    "Field",
    "CliffordField",
    "LeftSpinorField",
    "RightSpinorField",
    "FrameScalarField",
]

N_COORDS = 4


def evaluate(expr: "FieldExpr", xs: np.ndarray) -> np.ndarray:
    """Evaluate ``expr`` on points ``xs`` (N, 4), each shared subtree once."""
    return evaluate_many([expr], xs)[0]


class _Plan:
    """One evaluation plan over the union DAG of ``roots``: the only evaluator.

    The plan is a post-order walk, iterative, that visits each node's
    ``children`` in order without repeats, so the evaluation order and the
    peak number of live values are fixed by the roots.  ``run`` hands each
    node the values of its ``children``, in order and with repeats.
    ``uses`` counts a node's distinct parents plus its appearances as a
    root; ``run`` drops a value from ``memo`` when its count reaches zero.
    """

    def __init__(self, roots):
        self.kids: dict = {}  # node -> its distinct children, in order
        self.nodes: list = []
        stack = [(None, iter(roots))]  # the roots are the children of a node outside the plan
        while stack:
            node, todo = stack[-1]
            for kid in todo:
                if kid not in self.kids:
                    self.kids[kid] = tuple(dict.fromkeys(kid.children))
                    stack.append((kid, iter(self.kids[kid])))
                    break
            else:
                stack.pop()
                if stack:
                    self.nodes.append(node)
        self.uses = dict.fromkeys(self.nodes, 0)
        for node in self.nodes:
            for kid in self.kids[node]:
                self.uses[kid] += 1
        for root in roots:
            self.uses[root] += 1
        self.memo: dict = {}

    def run(self, xs: np.ndarray):
        """Evaluate node by node; yield each node once its value is in ``memo``."""
        memo = self.memo
        for node in self.nodes:
            memo[node] = node._eval(xs, *(memo[k] for k in node.children))
            for kid in self.kids[node]:
                self.release(kid)
            yield node

    def release(self, node) -> None:
        """One use of ``node`` is done; its value leaves the memo after the last."""
        self.uses[node] -= 1
        if not self.uses[node]:
            del self.memo[node]


_CHUNK_ROWS = 512  # rows of xs per run of a fold_sups plan


def fold_sups(worst: dict, residuals, xs: np.ndarray) -> dict:
    """Fold the sup over the points ``xs`` of each residual into ``worst[name]``.

    A residual is a check name and either a pair ``(name, (lhs, rhs))`` of
    nodes, reduced to max|lhs - rhs| (max|lhs| when rhs is None), or a value
    map ``(name, nodes, fn)``, reduced to max|fn(*values of nodes)|.  All
    residuals share one plan, built once and run over consecutive chunks of
    512 rows of ``xs`` (the last one partial), so each node is evaluated
    once per chunk and no value holds more than 512 rows.  In a chunk a
    residual is reduced as soon as its last node exists, and then releases
    its nodes; the use counts are restored before the next chunk.  Each
    chunk's sup enters ``worst[name]`` (0.0 when absent) through
    ``worst_of``, so a NaN in any chunk stays.  Returns ``worst``.

    A value map gets one chunk's values, so it must be row-local.  Every
    node value is row-local too, so a sup equals the whole-grid one bit for
    bit, except under a non-simple ``BivectorExp``, which sizes its series
    per chunk (see its bound).  A map gets ``evaluate``'s values bit for
    bit, but its arithmetic is its own: 2-D ``gp_batch`` in place of 1-D
    calls on one point, or ``a - (b + c)`` for ``(a - b) - c``, can change
    the last bits of a reported value.
    """
    # a pair is the value map lhs - rhs, or +lhs alone
    maps = [(name, nodes, fn[0]) if fn else (name, nodes[:1], operator.pos)
            if nodes[1] is None else (name, nodes, operator.sub)
            for name, nodes, *fn in residuals]
    plan = _Plan([node for _, nodes, _ in maps for node in nodes])
    step = {node: i for i, node in enumerate(plan.nodes)}
    due: dict = {}  # node -> the residuals whose last node it is
    for m in maps:
        due.setdefault(max(m[1], key=step.__getitem__), []).append(m)
    uses = plan.uses
    for lo in range(0, len(xs), _CHUNK_ROWS):
        plan.uses = dict(uses)
        for node in plan.run(xs[lo:lo + _CHUNK_ROWS]):
            for name, nodes, fn in due.get(node, ()):
                sup = float(np.max(np.abs(fn(*(plan.memo[n] for n in nodes)))))
                worst[name] = worst_of(worst.get(name, 0.0), sup)
                for n in nodes:
                    plan.release(n)
    return worst


def evaluate_many(roots, xs: np.ndarray) -> list[np.ndarray]:
    """The values of ``roots`` on the points ``xs``, from one plan.

    For comparisons that need values rather than a sup: shared subtrees are
    evaluated once and every value but the roots' is dropped after its last
    use.
    """
    plan = _Plan(roots)
    for _ in plan.run(xs):
        pass
    return [plan.memo[root] for root in roots]


def worst_of(*values):
    """The largest of ``values``; NaN as soon as any of them is NaN.

    The builtin ``max`` keeps its running value when a NaN arrives after it,
    so a worst-of-many fold would hide a NaN residual.  Otherwise this is
    ``max``: the first of equal values is kept.
    """
    out = values[0]
    for v in values[1:]:
        if v > out or v != v:
            out = v
    return out


_NODES: dict = {}  # (class, structural key) -> the one node of that structure


class _Interned(type):
    """Node construction: return the node of equal structure if one exists.

    A class whose ``_key`` is None (the leaves) builds a fresh node per call.
    """

    def __call__(cls, *args, **kwargs):
        if cls._key is None:
            return super().__call__(*args, **kwargs)
        key = (cls, cls._key(*args, **kwargs))
        node = _NODES.get(key)
        if node is None:
            # setdefault: threads that build the same node concurrently get one object
            node = _NODES.setdefault(key, super().__call__(*args, **kwargs))
        return node


class FieldExpr(metaclass=_Interned):
    """Base node: an exact map from coordinates to blade coefficients."""

    __slots__ = ("_partials",)
    _key = None  # staticmethod(constructor args) -> hashable structure, on interned nodes

    def __init__(self):
        self._partials: dict[int, FieldExpr] = {}

    def partial(self, mu: int) -> "FieldExpr":
        """Exact partial derivative along coordinate ``mu``; memoized."""
        if mu not in self._partials:
            self._partials[mu] = self._partial(mu)
        return self._partials[mu]

    def _partial(self, mu: int) -> "FieldExpr":
        raise NotImplementedError

    def _eval(self, xs: np.ndarray, *vals) -> np.ndarray:
        """The value on ``xs`` from ``vals``, the values of ``children`` in order."""
        raise NotImplementedError

    @property
    def children(self) -> tuple:
        """The nodes whose values ``_eval`` receives, in order and with repeats."""
        return ()

    @property
    def is_complex(self) -> bool:
        return False

    @property
    def is_scalar(self) -> bool:
        """True when the value is pointwise pure grade 0."""
        return False

    # sugar used pervasively by the operator layer
    def __add__(self, other):
        return f_sum(self, other)

    def __sub__(self, other):
        return f_sum(self, f_scale(-1.0, other))

    def __neg__(self):
        return f_scale(-1.0, self)


class Constant(FieldExpr):
    """Coordinate-independent value; its zero and scalar flags are fixed at construction."""

    __slots__ = ("value", "_all_zero", "_scalar")

    @staticmethod
    def _key(value):
        c = _coerce(value).coeffs
        return c.dtype.str, c.tobytes()

    def __init__(self, value):
        super().__init__()
        self.value = _coerce(value)
        c = self.value.coeffs
        self._all_zero = not np.any(c)
        self._scalar = not np.any(c[1:])

    def _eval(self, xs):
        return np.broadcast_to(self.value.coeffs, (len(xs), DIM))

    def _partial(self, mu):
        return _ZERO

    @property
    def is_complex(self):
        return isinstance(self.value, CMultivector)

    @property
    def is_scalar(self):
        return self._scalar


_ZERO = Constant(Multivector.zero())


def _is_zero(e: FieldExpr) -> bool:
    return isinstance(e, Constant) and e._all_zero


class Polynomial(FieldExpr):
    """Per-blade multivariate polynomials of total degree <= 3.

    ``terms`` is a sequence of (blade_mask, coefficient, (p0, p1, p2, p3)).
    """

    __slots__ = ("terms",)
    MAX_DEGREE = 3

    def __init__(self, terms):
        super().__init__()
        norm = []
        for mask, coef, powers in terms:
            powers = tuple(int(p) for p in powers)
            if len(powers) != N_COORDS or min(powers) < 0:
                raise ValueError(f"bad powers {powers}")
            if sum(powers) > self.MAX_DEGREE:
                raise ValueError("polynomial degree above 3")
            norm.append((int(mask), complex(coef) if isinstance(coef, complex) else float(coef), powers))
        self.terms = tuple(norm)

    def _eval(self, xs):
        dtype = complex if self.is_complex else float
        out = np.zeros((len(xs), DIM), dtype=dtype)
        for mask, coef, powers in self.terms:
            v = np.full(len(xs), coef, dtype=dtype)
            for mu, p in enumerate(powers):
                if p:
                    v = v * xs[:, mu] ** p
            out[:, mask] += v
        return out

    def _partial(self, mu):
        dterms = []
        for mask, coef, powers in self.terms:
            p = powers[mu]
            if p == 0:
                continue
            dp = list(powers)
            dp[mu] = p - 1
            dterms.append((mask, coef * p, tuple(dp)))
        return Polynomial(dterms) if dterms else _ZERO

    @property
    def is_complex(self):
        return any(isinstance(c, complex) for _, c, _ in self.terms)

    @property
    def is_scalar(self):
        return all(mask == 0 for mask, _, _ in self.terms)


class ScalarLinear(FieldExpr):
    """slope . x + offset, as a grade-0 field."""

    __slots__ = ("slope", "offset")

    def __init__(self, slope, offset=0.0):
        super().__init__()
        self.slope = np.asarray(slope, dtype=float)
        self.offset = float(offset)

    def _eval(self, xs):
        out = np.zeros((len(xs), DIM))
        out[:, 0] = xs @ self.slope + self.offset
        return out

    def _partial(self, mu):
        s = self.slope[mu]
        return Constant(Multivector.scalar(s)) if s else _ZERO

    @property
    def is_scalar(self):
        return True


class ScalarSine(FieldExpr):
    """amplitude * sin(wave . x + phase), as a grade-0 field."""

    __slots__ = ("amplitude", "wave", "phase")

    def __init__(self, amplitude, wave, phase=0.0):
        super().__init__()
        self.amplitude = float(amplitude)
        self.wave = np.asarray(wave, dtype=float)
        self.phase = float(phase)

    def _eval(self, xs):
        out = np.zeros((len(xs), DIM))
        out[:, 0] = self.amplitude * np.sin(xs @ self.wave + self.phase)
        return out

    def _partial(self, mu):
        k = self.wave[mu]
        if k == 0:
            return _ZERO
        return ScalarSine(self.amplitude * k, self.wave, self.phase + 0.5 * np.pi)

    @property
    def is_scalar(self):
        return True


class ScalarGaussian(FieldExpr):
    """amplitude * exp(-sum_mu widths_mu (x_mu - center_mu)^2), grade 0."""

    __slots__ = ("amplitude", "widths", "center")

    def __init__(self, amplitude, widths, center):
        super().__init__()
        self.amplitude = float(amplitude)
        self.widths = np.asarray(widths, dtype=float)
        self.center = np.asarray(center, dtype=float)

    def _eval(self, xs):
        out = np.zeros((len(xs), DIM))
        d = xs - self.center
        out[:, 0] = self.amplitude * np.exp(-np.sum(self.widths * d * d, axis=1))
        return out

    def _partial(self, mu):
        w = self.widths[mu]
        if w == 0:
            return _ZERO
        slope = np.zeros(N_COORDS)
        slope[mu] = -2.0 * w
        lin = ScalarLinear(slope, 2.0 * w * self.center[mu])
        return Product(lin, self)

    @property
    def is_scalar(self):
        return True


class Linear(FieldExpr):
    """sum_i c_i e_i: expressions e_i with constant scalar coefficients c_i.

    ``terms`` is a tuple of (coef, expr); ``f_sum`` and ``f_scale`` keep it
    flat, so a chain of sums and scalings is one node.
    """

    __slots__ = ("terms",)

    @staticmethod
    def _key(terms):
        return tuple((type(c), c, e) for c, e in terms)

    def __init__(self, terms):
        super().__init__()
        self.terms = tuple(terms)

    def _eval(self, xs, *vals):
        terms = [(c, v) for (c, _), v in zip(self.terms, vals)]
        cplx = any(isinstance(c, complex) or np.iscomplexobj(v) for c, v in terms)
        out = np.zeros((len(xs), DIM), dtype=complex if cplx else float)
        for c, v in terms:
            out += v if c == 1 else c * v
        return out

    @property
    def children(self):
        return tuple(e for _, e in self.terms)

    def _partial(self, mu):
        return sum((f_scale(c, e.partial(mu)) for c, e in self.terms), _ZERO)

    @property
    def is_complex(self):
        return any(isinstance(c, complex) or e.is_complex for c, e in self.terms)

    @property
    def is_scalar(self):
        return all(e.is_scalar for _, e in self.terms)


class Product(FieldExpr):
    """Pointwise geometric product (Leibniz derivative).

    A scalar factor broadcasts over the other side; every other product goes
    through ``gp_batch``.  A constant factor enters as its 16 coefficients,
    which ``gp_batch`` applies as one fixed 16x16 matrix.
    """

    __slots__ = ("left", "right")

    @staticmethod
    def _key(left, right):
        return left, right

    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right

    def _eval(self, xs, *vals):
        it = iter(vals)  # a Constant factor is no child: it enters as its 16 coefficients
        lv, rv = (e.value.coeffs if isinstance(e, Constant) else next(it)
                  for e in (self.left, self.right))
        if self.left.is_scalar:
            return rv * lv[..., :1]
        if self.right.is_scalar:
            return lv * rv[..., :1]
        return gp_batch(lv, rv)

    @property
    def children(self):
        return tuple(e for e in (self.left, self.right) if not isinstance(e, Constant))

    def _partial(self, mu):
        return f_sum(
            f_product(self.left.partial(mu), self.right),
            f_product(self.left, self.right.partial(mu)),
        )

    @property
    def is_complex(self):
        return self.left.is_complex or self.right.is_complex

    @property
    def is_scalar(self):
        return self.left.is_scalar and self.right.is_scalar


class Reverse(FieldExpr):
    __slots__ = ("arg",)

    @staticmethod
    def _key(arg):
        return arg

    def __init__(self, arg):
        super().__init__()
        self.arg = arg

    def _eval(self, xs, v):
        return v * _T.reverse_signs

    @property
    def children(self):
        return (self.arg,)

    def _partial(self, mu):
        return f_reverse(self.arg.partial(mu))

    @property
    def is_complex(self):
        return self.arg.is_complex

    @property
    def is_scalar(self):
        return self.arg.is_scalar


class GradeSelect(FieldExpr):
    __slots__ = ("arg", "grades", "_mask")

    @staticmethod
    def _key(arg, grades):
        return arg, frozenset(grades)

    def __init__(self, arg, grades):
        super().__init__()
        self.arg = arg
        self.grades = frozenset(grades)
        self._mask = np.isin(GRADES, list(self.grades)).astype(float)

    def _eval(self, xs, v):
        return v * self._mask

    @property
    def children(self):
        return (self.arg,)

    def _partial(self, mu):
        return GradeSelect(self.arg.partial(mu), self.grades)

    @property
    def is_complex(self):
        return self.arg.is_complex

    @property
    def is_scalar(self):
        return self.grades == frozenset({0}) or self.arg.is_scalar


class BladeCoeff(FieldExpr):
    """The coefficient of one blade, as a grade-0 field."""

    __slots__ = ("arg", "mask")

    @staticmethod
    def _key(arg, mask):
        return arg, int(mask)

    def __init__(self, arg, mask):
        super().__init__()
        self.arg = arg
        self.mask = int(mask)

    def _eval(self, xs, v):
        out = np.zeros((len(xs), DIM), dtype=v.dtype)
        out[:, 0] = v[:, self.mask]
        return out

    @property
    def children(self):
        return (self.arg,)

    def _partial(self, mu):
        return BladeCoeff(self.arg.partial(mu), self.mask)

    @property
    def is_complex(self):
        return self.arg.is_complex

    @property
    def is_scalar(self):
        return True


class BivectorExp(FieldExpr):
    """exp(B * s(x)) for a constant bivector B and a scalar expression s.

    Simple B (B squared a scalar) evaluates through the circular or
    hyperbolic closed form; otherwise a truncated power series in B is used
    with the same convergence guard as :func:`sta.algebra.exp_bivector`,
    sized by max|s| over the points it is given.  On a chunk of those points
    (``fold_sups`` evaluates 512 rows at a time) the series can stop
    earlier; each of the at most 48 terms it leaves out is below 1e-15 at
    the chunk's points, so a chunk's value agrees with the whole grid's
    within 1e-13 * max(1, |value|).
    """

    __slots__ = ("B", "s", "_kind", "_beta")

    @staticmethod
    def _key(B, s):
        c = _coerce(B).coeffs
        return c.dtype.str, c.tobytes(), s

    def __init__(self, B, s):
        super().__init__()
        self.B = _coerce(B)
        if self.B.grades_present(tol=0.0) - {2}:
            raise ValueError("BivectorExp expects a pure grade-2 bivector")
        if not s.is_scalar:
            raise ValueError("BivectorExp expects a scalar expression s")
        self.s = s
        kind, beta2 = bivector_square_class(self.B)
        self._kind = kind
        self._beta = np.sqrt(beta2) if beta2 else 0.0

    def _eval(self, xs, s):
        sv = s[:, 0]
        dtype = complex if (self.is_complex or np.iscomplexobj(sv)) else float
        out = np.zeros((len(xs), DIM), dtype=dtype)
        if self._kind == "elliptic":
            arg = self._beta * sv
            out[:, 0] = np.cos(arg)
            out += (np.sin(arg) / self._beta)[:, None] * self.B.coeffs
        elif self._kind == "hyperbolic":
            arg = self._beta * sv
            out[:, 0] = np.cosh(arg)
            out += (np.sinh(arg) / self._beta)[:, None] * self.B.coeffs
        elif self._kind == "null":
            out[:, 0] = 1.0
            out += sv[:, None] * self.B.coeffs
        else:
            acc = np.zeros((len(xs), DIM), dtype=complex)
            p = np.ones(len(xs))
            for n, term in enumerate(_exp_series(self.B, float(np.max(np.abs(sv))))):
                if n:
                    p = p * sv
                acc += p[:, None] * term.coeffs
            out = acc if dtype is complex else np.real(acc)
        return out

    @property
    def children(self):
        return (self.s,)

    def _partial(self, mu):
        ds = self.s.partial(mu)
        if _is_zero(ds):
            return _ZERO
        return f_product(f_product(ds, Constant(self.B)), self)

    @property
    def is_complex(self):
        return isinstance(self.B, CMultivector) or self.s.is_complex


def rotor_wave(front, B, wave) -> FieldExpr:
    """front * exp(B * (wave . x)): the traveling-rotor constructor."""
    return f_product(Constant(front), BivectorExp(B, ScalarLinear(wave)))


# -- folding constructors ----------------------------------------------------

def _terms(e: FieldExpr) -> tuple:
    return e.terms if isinstance(e, Linear) else ((1.0, e),)


def f_sum(a: FieldExpr, b: FieldExpr) -> FieldExpr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Constant) and isinstance(b, Constant):
        return Constant(a.value + b.value)
    return Linear(_terms(a) + _terms(b))


def f_scale(c, a: FieldExpr) -> FieldExpr:
    if c == 0 or _is_zero(a):
        return _ZERO
    if c == 1:
        return a
    if isinstance(a, Constant):
        return Constant(c * a.value)
    terms = tuple((c * k, e) for k, e in _terms(a))
    return terms[0][1] if len(terms) == 1 and terms[0][0] == 1 else Linear(terms)


def f_product(a: FieldExpr, b: FieldExpr) -> FieldExpr:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if isinstance(a, Constant) and isinstance(b, Constant):
        return Constant(a.value * b.value)
    for x, other in ((a, b), (b, a)):
        if isinstance(x, Constant) and x.is_scalar:
            return f_scale(x.value.scalar_part.item(), other)
    return Product(a, b)


def f_reverse(a: FieldExpr) -> FieldExpr:
    if isinstance(a, Constant):
        return Constant(a.value.reverse())
    if isinstance(a, Reverse):
        return a.arg
    if isinstance(a, BivectorExp):
        return BivectorExp(-a.B, a.s)
    if isinstance(a, Product):
        return f_product(f_reverse(a.right), f_reverse(a.left))
    if isinstance(a, Linear):
        return sum((f_scale(c, f_reverse(e)) for c, e in a.terms), _ZERO)
    return Reverse(a)


def f_commutator_half(w: FieldExpr, a: FieldExpr) -> FieldExpr:
    return f_scale(0.5, f_sum(f_product(w, a), f_scale(-1.0, f_product(a, w))))


# ---------------------------------------------------------------------------
# Field kinds
# ---------------------------------------------------------------------------


class Kind(Enum):
    CLIFFORD = "clifford"
    LEFT = "left"
    RIGHT = "right"
    FRAME_SCALAR = "frame-scalar"


_PRODUCT_KINDS = {
    (Kind.CLIFFORD, Kind.CLIFFORD): Kind.CLIFFORD,
    (Kind.CLIFFORD, Kind.LEFT): Kind.LEFT,
    (Kind.RIGHT, Kind.CLIFFORD): Kind.RIGHT,
    (Kind.LEFT, Kind.RIGHT): Kind.CLIFFORD,
    (Kind.RIGHT, Kind.LEFT): Kind.FRAME_SCALAR,
    (Kind.LEFT, Kind.FRAME_SCALAR): Kind.LEFT,
    (Kind.FRAME_SCALAR, Kind.RIGHT): Kind.RIGHT,
    (Kind.FRAME_SCALAR, Kind.FRAME_SCALAR): Kind.FRAME_SCALAR,
}


class Field:
    """A field expression tagged with its frame-change behavior."""

    __slots__ = ("kind", "expr")

    def __init__(self, kind: Kind, expr: FieldExpr):
        self.kind = kind
        self.expr = expr

    def eval(self, xs: np.ndarray) -> np.ndarray:
        return evaluate(self.expr, xs)

    def __add__(self, other: "Field") -> "Field":
        if not isinstance(other, Field) or other.kind is not self.kind:
            raise KindMismatch("can only add fields of the same kind")
        return Field(self.kind, f_sum(self.expr, other.expr))

    def __sub__(self, other: "Field") -> "Field":
        if not isinstance(other, Field) or other.kind is not self.kind:
            raise KindMismatch("can only subtract fields of the same kind")
        return Field(self.kind, f_sum(self.expr, f_scale(-1.0, other.expr)))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Field(self.kind, f_scale(other, self.expr))
        if isinstance(other, _MVBase):
            other = Field(Kind.FRAME_SCALAR, Constant(other))
        if not isinstance(other, Field):
            return NotImplemented
        kind = _PRODUCT_KINDS.get((self.kind, other.kind))
        if kind is None:
            raise KindMismatch(f"no product for {self.kind.value} * {other.kind.value}")
        return Field(kind, f_product(self.expr, other.expr))

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Field(self.kind, f_scale(other, self.expr))
        if isinstance(other, _MVBase):
            return Field(Kind.FRAME_SCALAR, Constant(other)) * self
        return NotImplemented

    def __neg__(self):
        return Field(self.kind, f_scale(-1.0, self.expr))

    def reverse(self) -> "Field":
        """Reversion; on spinor kinds it swaps the left/right bundles."""
        swap = {
            Kind.LEFT: Kind.RIGHT,
            Kind.RIGHT: Kind.LEFT,
            Kind.CLIFFORD: Kind.CLIFFORD,
            Kind.FRAME_SCALAR: Kind.FRAME_SCALAR,
        }
        return Field(swap[self.kind], f_reverse(self.expr))

    def __repr__(self):
        return f"Field({self.kind.value}, {type(self.expr).__name__})"


def CliffordField(expr: FieldExpr) -> Field:
    return Field(Kind.CLIFFORD, expr)


def LeftSpinorField(expr: FieldExpr) -> Field:
    return Field(Kind.LEFT, expr)


def RightSpinorField(expr: FieldExpr) -> Field:
    return Field(Kind.RIGHT, expr)


def FrameScalarField(expr: FieldExpr) -> Field:
    return Field(Kind.FRAME_SCALAR, expr)
