"""Coordinate-indexed multivector fields built from a closed constructor set.

Every field expression is a tree over a small set of constructors, and each
constructor carries an exact partial derivative in every coordinate
direction, so differential identities can be checked without numerical
differentiation (the tests cross-check them against central finite
differences).  Evaluation is batched: points of shape (N, 4) give blade
coefficients of shape (N, 16).  One plan is the only evaluator: it walks the
union DAG of its groups (tuples of nodes read together) in post-order,
without recursion, evaluates each node once by handing its ``_eval`` the
values of its ``children`` (in order, with repeats), drops each value after
its last reader on a schedule fixed when it is built, and runs over 512-row
chunks of the points, so its memory is bounded whatever the grid.  A node
never evaluates another node and no caller holds a memo.  ``fold_sups``,
the one residual reducer, returns the sup of each named residual (a pair
of nodes, or a row-local map of some nodes' values), folded over chunks
and names with the NaN-keeping ``worst_of``; ``evaluate_many`` copies each
chunk of its roots' values into whole-grid outputs, and ``evaluate`` is
its one-root case.

The node set: leaves (``Constant``, ``Polynomial`` and the scalar
``ScalarLinear``, ``ScalarSine``, ``ScalarGaussian``), one linear node
(``Linear``: a combination of terms with constant scalar coefficients), the
geometric ``Product``, ``Reverse``, ``GradeSelect``, ``BladeCoeff`` and
``BivectorExp``.  Build them with the folding constructors ``f_combine``,
``f_sum``, ``f_scale``, ``f_product`` and ``f_reverse``, the one way: a
``FieldExpr`` has no arithmetic operators.  A ``Field`` has operators,
checked against its kind's action.

Sums have one builder, ``f_combine([(c, e), ...])``, the n-ary sum of
c e over its pairs, with ``f_scale(c, e)`` its one-pair case.
``f_sum(*exprs)`` folds the exprs themselves, so it is their
unit-coefficient form except when every expr is a zero ``Constant``: it
returns the last of them (a complex zero stays complex), where
``f_combine`` returns the real zero.  The fold is left, by the binary
rules: a zero term is skipped, two constants fold while the running sum is
one ``Constant``, otherwise the term lists are concatenated (each inner
coefficient k of a scaled ``Linear`` becomes c * k), and a lone term of
coefficient 1 is returned bare.  It interns only the result, so a sum of n
terms is the node a chain of n binary sums returns, without the chain's
intermediate nodes.  A sum nested in another is built first, as its own
node, and enters the outer sum as such: flattening across it could fold
its constants in another order.

Each node fixes its static facts once, when it is built: ``is_complex``,
``children`` (the nodes whose values its ``_eval`` receives; a ``Product``'s
``Constant`` factor is none of them) and ``support``, the 16-bit mask of
the blades its value can hold nonzero.  A
``Constant`` is supported on its nonzero coefficients, a ``Polynomial`` on
its terms' blades, the scalar leaves and ``BladeCoeff`` on blade 0, a
``Linear`` on the union of its terms' supports, a ``Product`` on every
``i ^ j`` for ``i``, ``j`` in its factors' supports, a ``Reverse`` on its
argument's, a ``GradeSelect`` on its argument's within the kept grades,
and a ``BivectorExp`` on blade 0 and B's blades (for a non-simple B, every
blade a power of B reaches).  ``is_scalar`` is ``support <= 1``, and a
``Product`` hands its factors' supports to ``gp_batch``, which multiplies
only those blades.

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
transform differently under a change of spin frame.  A kind is its action of
Spin(1,3)e, the pair (l, r) that ``Kind`` holds as its value (see ``Kind``),
and that one pair fixes which products and reversals of fields are fields.
The frame-scalar kind, (0, 0), holds algebra-valued *functions* (not
sections); it is how constant algebra elements act on spinor fields from
the outside.
"""

from __future__ import annotations

import operator
from enum import Enum

import numpy as np

from .algebra import (
    DIM,
    GRADES,
    REVERSE_SIGNS,
    Multivector,
    _coerce,
    _exp_rows,
    bivector_square_class,
    gp_batch,
    product_support,
)
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
    """One evaluation plan over the union DAG of ``groups``: the only evaluator.

    A group is a tuple of nodes that the caller reads together.  The plan is
    a post-order walk, iterative, that visits each node's ``children`` in
    order without repeats, so the evaluation order and the peak number of
    live values are fixed by the groups.  The schedule is static: ``due``
    maps a node to the groups whose last node it is, and ``frees`` maps a
    node to the values whose last reader, a parent or a due group, it is.
    """

    def __init__(self, groups):
        self.groups = [tuple(g) for g in groups]
        self.nodes: list = []
        seen: set = set()
        stack = [(None, iter([n for g in self.groups for n in g]))]  # a parent of every group
        while stack:
            node, todo = stack[-1]
            for kid in todo:
                if kid not in seen:
                    seen.add(kid)
                    stack.append((kid, iter(kid.children)))
                    break
            else:
                stack.pop()
                if stack:
                    self.nodes.append(node)
        step = {node: i for i, node in enumerate(self.nodes)}
        self.due: dict = {}
        for i, group in enumerate(self.groups):
            self.due.setdefault(max(group, key=step.__getitem__), []).append(i)
        last = {}  # value -> its last reader; readers come in plan order
        for node in self.nodes:
            for n in node.children:
                last[n] = node
            for i in self.due.get(node, ()):
                for n in self.groups[i]:
                    last[n] = node
        self.frees: dict = {}
        for n, node in last.items():
            self.frees.setdefault(node, []).append(n)
        self.memo: dict = {}

    def run(self, xs: np.ndarray):
        """Yield each node once its value is in ``memo``; on resuming, drop what it frees."""
        memo = self.memo
        for node in self.nodes:
            memo[node] = node._eval(xs, *(memo[k] for k in node.children))
            yield node
            for n in self.frees.get(node, ()):
                del memo[n]

    def chunks(self, xs: np.ndarray):
        """Run over 512-row chunks of ``xs``; yield (first row, group index, values) when due."""
        for lo in range(0, len(xs), _CHUNK_ROWS):
            for node in self.run(xs[lo:lo + _CHUNK_ROWS]):
                for i in self.due.get(node, ()):
                    yield lo, i, [self.memo[n] for n in self.groups[i]]


_CHUNK_ROWS = 512  # rows of xs per run of a plan: bounds every value, fastest at grid 9


def fold_sups(residuals, xs: np.ndarray) -> dict:
    """The sup over the points ``xs`` of each named residual, by name.

    A residual is a check name and either a pair ``(name, (lhs, rhs))`` of
    nodes, reduced to max|lhs - rhs| (max|lhs| when rhs is None), or a value
    map ``(name, nodes, fn)``, reduced to max|fn(*values of nodes)|.  All
    residuals share one plan, each its nodes' group, run over 512-row
    chunks of ``xs``; in a chunk a residual is reduced as soon as its last
    node exists.  The sups of every chunk and of every residual of one name
    fold, from 0.0, through ``worst_of``, so a NaN in any of them stays.

    A value map gets one chunk's values, so it must be row-local.  Every
    node value is row-local too, so a sup equals the whole-grid one bit for
    bit, except under a non-simple ``BivectorExp``, which sizes its series
    per chunk (see its bound).  A map gets ``evaluate``'s values bit for
    bit, but its arithmetic is its own: 2-D ``gp_batch`` in place of 1-D
    calls on one point, or ``a - (b + c)`` for ``(a - b) - c``, can change
    the last bits of a reported value.

    A residual whose nodes are all ``Constant`` stays out of the plan: it
    is reduced once, on the first point of ``xs``.  A constant's rows are
    all equal and a value map is row-local, so that is its whole-grid sup.
    """
    # a pair is the value map lhs - rhs, or +lhs alone
    maps = [(name, nodes, fn[0]) if fn else (name, nodes[:1], operator.pos)
            if nodes[1] is None else (name, nodes, operator.sub)
            for name, nodes, *fn in residuals]
    worst: dict = {}

    def fold_in(name, fn, vals):
        worst[name] = worst_of(worst.get(name, 0.0), float(np.max(np.abs(fn(*vals)))))

    constant = [all(isinstance(n, Constant) for n in nodes) for _, nodes, _ in maps]
    for (name, nodes, fn), c in zip(maps, constant):
        if c and len(xs):
            fold_in(name, fn, [n._eval(xs[:1]) for n in nodes])
    maps = [m for m, c in zip(maps, constant) if not c]
    for _, i, vals in _Plan(nodes for _, nodes, _ in maps).chunks(xs):
        fold_in(maps[i][0], maps[i][2], vals)
    return worst


def evaluate_many(roots, xs: np.ndarray) -> list[np.ndarray]:
    """The values of ``roots`` on the points ``xs``, from one plan.

    Each distinct root gets one (N, 16) output, complex when the root
    ``is_complex``, filled from a plan run over 512-row chunks, so nothing
    but the outputs holds more than 512 rows.  Every node value is
    row-local, so the outputs are the whole-grid values bit for bit, except
    under a non-simple ``BivectorExp``, which sizes its series per chunk and
    agrees within 1e-13 * max(1, |value|).
    """
    distinct = list(dict.fromkeys(roots))
    out = {r: np.empty((len(xs), DIM), dtype=complex if r.is_complex else float)
           for r in distinct}
    for lo, i, (value,) in _Plan((r,) for r in distinct).chunks(xs):
        out[distinct[i]][lo:lo + len(value)] = value
    return [out[r] for r in roots]


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


def _mask(flags: np.ndarray) -> int:
    """The support mask of the blades where ``flags`` (16 entries) is nonzero."""
    return sum(1 << i for i in np.flatnonzero(flags).tolist())


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
    """Base node: an exact map from coordinates to blade coefficients.

    Each node fixes its static facts when it is built: ``support``, the mask
    of the blades (bit ``i`` for blade ``i``) its value can hold nonzero,
    every other column being exactly 0 wherever the inputs are finite,
    ``is_complex``, whether the value can be complex, and ``children``, the
    nodes whose values ``_eval`` receives, in order and with repeats.
    """

    __slots__ = ("_partials", "support", "is_complex", "children")
    _key = None  # staticmethod(constructor args) -> hashable structure, on interned nodes

    def __init__(self, support: int, is_complex: bool = False, children: tuple = ()):
        self._partials: dict[int, FieldExpr] = {}
        self.support = support
        self.is_complex = is_complex
        self.children = children

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
    def is_scalar(self) -> bool:
        """True when the value is pointwise pure grade 0."""
        return self.support <= 1


class Constant(FieldExpr):
    """Coordinate-independent value, supported on its nonzero coefficients."""

    __slots__ = ("value",)

    @staticmethod
    def _key(value):
        c = _coerce(value).coeffs
        return c.dtype.str, c.tobytes()

    def __init__(self, value):
        value = _coerce(value)
        super().__init__(_mask(value.coeffs), np.iscomplexobj(value.coeffs))
        self.value = value

    def _eval(self, xs):
        return np.broadcast_to(self.value.coeffs, (len(xs), DIM))

    def _partial(self, mu):
        return _ZERO


_ZERO = Constant(Multivector.zero())


def _is_zero(e: FieldExpr) -> bool:
    return isinstance(e, Constant) and not e.support


class Polynomial(FieldExpr):
    """Per-blade multivariate polynomials of total degree <= 3.

    ``terms`` is a sequence of (blade_mask, coefficient, (p0, p1, p2, p3)).
    """

    __slots__ = ("terms",)
    MAX_DEGREE = 3

    def __init__(self, terms):
        norm = []
        for mask, coef, powers in terms:
            powers = tuple(int(p) for p in powers)
            if len(powers) != N_COORDS or min(powers) < 0:
                raise ValueError(f"bad powers {powers}")
            if sum(powers) > self.MAX_DEGREE:
                raise ValueError("polynomial degree above 3")
            norm.append((int(mask), complex(coef) if isinstance(coef, complex) else float(coef), powers))
        super().__init__(sum({1 << mask for mask, _, _ in norm}),
                         any(isinstance(c, complex) for _, c, _ in norm))
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


class ScalarLinear(FieldExpr):
    """slope . x + offset, as a grade-0 field."""

    __slots__ = ("slope", "offset")

    def __init__(self, slope, offset=0.0):
        super().__init__(1)
        self.slope = np.asarray(slope, dtype=float)
        self.offset = float(offset)

    def _eval(self, xs):
        out = np.zeros((len(xs), DIM))
        out[:, 0] = xs @ self.slope + self.offset
        return out

    def _partial(self, mu):
        s = self.slope[mu]
        return Constant(Multivector.scalar(s)) if s else _ZERO


class ScalarSine(FieldExpr):
    """amplitude * sin(wave . x + phase), as a grade-0 field."""

    __slots__ = ("amplitude", "wave", "phase")

    def __init__(self, amplitude, wave, phase=0.0):
        super().__init__(1)
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


class ScalarGaussian(FieldExpr):
    """amplitude * exp(-sum_mu widths_mu (x_mu - center_mu)^2), grade 0."""

    __slots__ = ("amplitude", "widths", "center")

    def __init__(self, amplitude, widths, center):
        super().__init__(1)
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


class Linear(FieldExpr):
    """sum_i c_i e_i: expressions e_i with constant scalar coefficients c_i.

    ``terms`` is a tuple of (coef, expr); ``f_combine`` keeps it flat, so a
    sum of sums and scalings is one node.
    """

    __slots__ = ("terms",)

    @staticmethod
    def _key(terms):
        return tuple((type(c), c, e) for c, e in terms)

    def __init__(self, terms):
        terms = tuple(terms)
        support = 0
        for _, e in terms:
            support |= e.support
        super().__init__(support, any(isinstance(c, complex) or e.is_complex
                                      for c, e in terms), tuple(e for _, e in terms))
        self.terms = terms

    def _eval(self, xs, *vals):
        out = np.zeros((len(xs), DIM), dtype=complex if self.is_complex else float)
        for (c, _), v in zip(self.terms, vals):
            out += v if c == 1 else c * v
        return out

    def _partial(self, mu):
        return f_combine([(c, e.partial(mu)) for c, e in self.terms])


class Product(FieldExpr):
    """Pointwise geometric product (Leibniz derivative).

    Its support is every ``i ^ j`` for blades ``i``, ``j`` of the factors'
    supports.  A scalar factor broadcasts over the other side; every other
    product goes through ``gp_batch`` with the factors' supports, so it
    multiplies only the blades that can be nonzero.  A constant factor
    enters as its 16 coefficients, which ``gp_batch`` applies as one fixed
    16x16 matrix.
    """

    __slots__ = ("left", "right")

    @staticmethod
    def _key(left, right):
        return left, right

    def __init__(self, left, right):
        super().__init__(product_support(left.support, right.support),
                         left.is_complex or right.is_complex,
                         tuple(e for e in (left, right) if not isinstance(e, Constant)))
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
        return gp_batch(lv, rv, self.left.support, self.right.support)

    def _partial(self, mu):
        return f_sum(
            f_product(self.left.partial(mu), self.right),
            f_product(self.left, self.right.partial(mu)),
        )


class Reverse(FieldExpr):
    __slots__ = ("arg",)

    @staticmethod
    def _key(arg):
        return arg

    def __init__(self, arg):
        super().__init__(arg.support, arg.is_complex, (arg,))
        self.arg = arg

    def _eval(self, xs, v):
        return v * REVERSE_SIGNS

    def _partial(self, mu):
        return f_reverse(self.arg.partial(mu))


class GradeSelect(FieldExpr):
    __slots__ = ("arg", "grades", "_mask")

    @staticmethod
    def _key(arg, grades):
        return arg, frozenset(grades)

    def __init__(self, arg, grades):
        grades = frozenset(grades)
        kept = np.isin(GRADES, list(grades))
        super().__init__(arg.support & _mask(kept), arg.is_complex, (arg,))
        self.arg = arg
        self.grades = grades
        self._mask = kept.astype(float)

    def _eval(self, xs, v):
        return v * self._mask

    def _partial(self, mu):
        return GradeSelect(self.arg.partial(mu), self.grades)


class BladeCoeff(FieldExpr):
    """The coefficient of one blade, as a grade-0 field."""

    __slots__ = ("arg", "mask")

    @staticmethod
    def _key(arg, mask):
        return arg, int(mask)

    def __init__(self, arg, mask):
        super().__init__(1, arg.is_complex, (arg,))
        self.arg = arg
        self.mask = int(mask)

    def _eval(self, xs, v):
        out = np.zeros((len(xs), DIM), dtype=v.dtype)
        out[:, 0] = v[:, self.mask]
        return out

    def _partial(self, mu):
        return BladeCoeff(self.arg.partial(mu), self.mask)


class BivectorExp(FieldExpr):
    """exp(B * s(x)) for a constant bivector B and a scalar expression s.

    It evaluates through the one exponential that
    :func:`sta.algebra.exp_bivector` uses too: simple B (B squared a
    scalar) takes the circular, hyperbolic or null closed form; otherwise a
    truncated power series in B is used with its convergence guard, sized
    by max|s| over the points it is given.  A plan evaluates 512 rows at a
    time, and on such a chunk the series can stop earlier; each of the at
    most 48 terms it leaves out is below 1e-15 at the chunk's points, so a
    chunk's value agrees with the whole grid's within 1e-13 * max(1, |value|).
    """

    __slots__ = ("B", "s", "_kind", "_beta")

    @staticmethod
    def _key(B, s):
        c = _coerce(B).coeffs
        return c.dtype.str, c.tobytes(), s

    def __init__(self, B, s):
        B = _coerce(B)
        if B.grades_present(tol=0.0) - {2}:
            raise ValueError("BivectorExp expects a pure grade-2 bivector")
        if not s.is_scalar:
            raise ValueError("BivectorExp expects a scalar expression s")
        kind, beta2 = bivector_square_class(B)
        blades = _mask(B.coeffs)
        support = 1 | blades  # the closed forms are f(s) + g(s) B
        while kind == "general" and product_support(support, blades) & ~support:
            support |= product_support(support, blades)  # the series: every power of B
        super().__init__(support, np.iscomplexobj(B.coeffs) or s.is_complex, (s,))
        self.B = B
        self.s = s
        self._kind = kind
        self._beta = np.sqrt(beta2)

    def _eval(self, xs, s):
        return _exp_rows(self.B, self._kind, self._beta, s[:, 0])

    def _partial(self, mu):
        ds = self.s.partial(mu)
        if _is_zero(ds):
            return _ZERO
        return f_product(f_product(ds, Constant(self.B)), self)


def rotor_wave(front, B, wave) -> FieldExpr:
    """front * exp(B * (wave . x)): the traveling-rotor constructor."""
    return f_product(Constant(front), BivectorExp(B, ScalarLinear(wave)))


# -- folding constructors ----------------------------------------------------

def _terms(e: FieldExpr) -> tuple:
    return e.terms if isinstance(e, Linear) else ((1.0, e),)


def _fold(parts) -> FieldExpr:
    """The left fold of the binary sum over ``parts``; only the result is interned.

    A part is a summand: None (zero), a node, the value of a ``Constant``
    not yet interned, or a tuple of ``Linear`` terms not yet interned.  The
    running sum takes the same forms, and is a list of terms once two parts
    have been concatenated.  Each step is the binary rule: a zero running
    sum gives way to the part, a zero part is skipped, two constants add,
    and otherwise the term lists are concatenated.
    """
    acc = None
    for part in parts:
        if _zero_part(acc):
            acc = part
        elif _zero_part(part):
            continue
        elif (a := _part_value(acc)) is not None and (b := _part_value(part)) is not None:
            acc = a + b
        else:
            if not isinstance(acc, list):
                acc = list(_part_terms(acc))
            acc.extend(_part_terms(part))
    if acc is None:
        return _ZERO
    if isinstance(acc, Multivector):
        return Constant(acc)
    return acc if isinstance(acc, FieldExpr) else Linear(acc)


def _part_value(part):
    """The value of a part that is a constant, else None."""
    if isinstance(part, Constant):
        return part.value
    return part if isinstance(part, Multivector) else None


def _zero_part(part) -> bool:
    if part is None:
        return True
    if isinstance(part, Multivector):
        return not part.coeffs.any()
    return isinstance(part, Constant) and not part.support


def _part_terms(part) -> tuple:
    """The ``Linear`` terms of a nonzero part of a sum."""
    if isinstance(part, tuple):
        return part
    return ((1.0, Constant(part)),) if isinstance(part, Multivector) else _terms(part)


def _scaled(c, e: FieldExpr):
    """c e as a part of a sum: the node ``f_scale`` returns, or its parts before interning."""
    if c == 0 or _is_zero(e):
        return None
    if c == 1:
        return e
    if isinstance(e, Constant):
        return c * e.value
    terms = tuple((c * k, x) for k, x in _terms(e))
    if len(terms) == 1 and terms[0][0] == 1:  # a lone unit term, bare
        return terms[0][1]
    return terms


def f_combine(pairs) -> FieldExpr:
    """sum_i c_i e_i over the pairs (c_i, e_i), folded left from zero.

    The node is the one ``f_sum(acc, f_scale(c, e))`` over the pairs would
    return, and the only node this interns besides the ``Constant`` terms
    of the result.
    """
    return _fold(_scaled(c, e) for c, e in pairs)


def f_sum(*exprs: FieldExpr) -> FieldExpr:
    """exprs[0] + exprs[1] + ..., folded left; the node the chain of binary sums returns."""
    return _fold(exprs)


def f_scale(c, a: FieldExpr) -> FieldExpr:
    return f_combine([(c, a)])


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
        return f_combine([(c, f_reverse(e)) for c, e in a.terms])
    return Reverse(a)


# ---------------------------------------------------------------------------
# Field kinds
# ---------------------------------------------------------------------------


class Kind(Enum):
    """A field kind: its action (l, r) of Spin(1,3)e, with ``str`` its name.

    l and r are the coefficients of omega_V F and F omega_V in the covariant
    derivative of a field F of the kind, and a change of spin frame by the
    rotor u puts u~ on F's left where l is nonzero and u on its right where
    r is.  A product F G of fields is a field exactly when the actions meet
    (r_F + l_G = 0), and then its kind is (l_F, r_G); the reversal of F has
    kind (-r_F, -l_F), which swaps left and right and fixes the others.
    """

    CLIFFORD = (0.5, -0.5)
    LEFT = (0.5, 0.0)
    RIGHT = (0.0, -0.5)
    FRAME_SCALAR = (0.0, 0.0)

    def __str__(self):
        return self.name.lower().replace("_", "-")


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
        return Field(self.kind, f_combine([(1.0, self.expr), (-1.0, other.expr)]))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Field(self.kind, f_scale(other, self.expr))
        if isinstance(other, Multivector):
            other = Field(Kind.FRAME_SCALAR, Constant(other))
        if not isinstance(other, Field):
            return NotImplemented
        (l, r), (l2, r2) = self.kind.value, other.kind.value
        if r + l2:
            raise KindMismatch(f"no product for {self.kind} * {other.kind}")
        return Field(Kind((l, r2)), f_product(self.expr, other.expr))

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Field(self.kind, f_scale(other, self.expr))
        if isinstance(other, Multivector):
            return Field(Kind.FRAME_SCALAR, Constant(other)) * self
        return NotImplemented

    def __neg__(self):
        return Field(self.kind, f_scale(-1.0, self.expr))

    def reverse(self) -> "Field":
        """Reversion; on spinor kinds it swaps the left/right bundles."""
        l, r = self.kind.value
        return Field(Kind((-r, -l)), f_reverse(self.expr))

    def __repr__(self):
        return f"Field({self.kind}, {type(self.expr).__name__})"


def CliffordField(expr: FieldExpr) -> Field:
    return Field(Kind.CLIFFORD, expr)


def LeftSpinorField(expr: FieldExpr) -> Field:
    return Field(Kind.LEFT, expr)


def RightSpinorField(expr: FieldExpr) -> Field:
    return Field(Kind.RIGHT, expr)


def FrameScalarField(expr: FieldExpr) -> Field:
    return Field(Kind.FRAME_SCALAR, expr)
