"""The real and complexified spacetime algebra Cl(1,3) over a fixed blade basis.

Basis blades are indexed by bit masks over the generators e0..e3: bit ``a``
set means generator ``a`` participates in the blade, and generators inside
a blade are kept in ascending order.  This gives the 16 blades

    1, e0..e3, e01..e23, e012..e123, e0123

with ``grade(mask) = popcount(mask)``.  The product of two basis blades is
again a basis blade up to sign: the masks xor, and the sign is the parity
of the transpositions needed to interleave the two generator lists times a
metric factor for every repeated generator (``e_a e_a = eta_aa``, with
``METRIC`` = diag(+1,-1,-1,-1)).  The tables built from it once, at import,
are module constants: ``GRADES``, ``REVERSE_SIGNS``, the Cayley tensor
``CAYLEY`` and its fixed-factor operators ``LEFT_OP`` and ``RIGHT_OP``.

``gp_batch`` is the one product kernel.  Its optional support masks (bit
``i`` set when blade ``i`` of an operand may be nonzero; ``FULL`` sets all
16) say which columns can hold anything but zeros: with both masks full it
runs the whole 16x16 product, and otherwise it multiplies only the
supported columns through the Cayley table restricted to the two supports
and the blades their product reaches (``product_support``).

``Multivector`` is the one element type of both algebras: its 16 blade
coefficients are float, or complex when its input is, so an element of
R_{1,3} and one of its complexification differ only in their dtype.

``_exp_rows`` is the one bivector exponential: ``exp_bivector`` is its
value at s = 1, and ``fields.BivectorExp`` its value at every point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SeriesNotConverged

__all__ = [
    "METRIC",
    "DIM",
    "GRADES",
    "REVERSE_SIGNS",
    "CAYLEY",
    "LEFT_OP",
    "RIGHT_OP",
    "Multivector",
    "blade_mul",
    "FULL",
    "product_support",
    "exp_bivector",
    "complexify",
]

_EXP_SERIES_MAX_TERMS = 48
_EXP_SERIES_TOL = 1e-15


def _popcount(n: int) -> int:
    return bin(n).count("1")


METRIC = (1, -1, -1, -1)  # e_a e_a = eta_aa for the generators e0..e3
DIM = 1 << len(METRIC)
FULL = (1 << DIM) - 1  # the support mask of every blade


def _blade_product(i: int, j: int) -> float:
    """Sign of the product of basis blades ``i * j``, which is blade ``i ^ j``.

    The sign is (-1)^inversions * prod(eta_aa for a in i & j), where an
    inversion is a pair (a in i, b in j) with a > b: those are exactly the
    adjacent transpositions needed to sort the concatenated generator
    lists, after which repeated generators sit next to each other and
    contract through the metric.
    """
    inversions = 0
    for b in range(len(METRIC)):
        if j >> b & 1:
            inversions += _popcount(i >> (b + 1))
    sign = -1.0 if inversions & 1 else 1.0
    common = i & j
    for a in range(len(METRIC)):
        if common >> a & 1:
            sign *= METRIC[a]
    return sign


GRADES = np.array([_popcount(m) for m in range(DIM)])
REVERSE_SIGNS = np.array([(-1.0) ** (g * (g - 1) // 2) for g in GRADES])
#: e_i e_j = sum_k CAYLEY[i, j, k] e_k; one nonzero entry, at k = i ^ j
CAYLEY = np.zeros((DIM, DIM, DIM))
for _i in range(DIM):
    for _j in range(DIM):
        CAYLEY[_i, _j, _i ^ _j] = _blade_product(_i, _j)
# the multiplication operators of a fixed factor: a @ LEFT_OP gives
# L[j, k] = sum_i a[i] CAYLEY[i, j, k], and b @ RIGHT_OP gives
# R[i, k] = sum_j CAYLEY[i, j, k] b[j], each flattened to DIM * DIM
LEFT_OP = CAYLEY.reshape(DIM, DIM * DIM)
RIGHT_OP = CAYLEY.transpose(1, 0, 2).reshape(DIM, DIM * DIM)


def _blades(mask: int) -> tuple[int, ...]:
    """The blade indices set in ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def product_support(sa: int, sb: int) -> int:
    """The blades a product can reach from operands supported on ``sa`` and ``sb``.

    Blade ``i`` times blade ``j`` is blade ``i ^ j`` up to sign, so this is
    the mask of every ``i ^ j`` with ``i`` in ``sa`` and ``j`` in ``sb``.
    """
    blades = _blades(sb)
    return sum({1 << (i ^ j) for i in _blades(sa) for j in blades})


@lru_cache(maxsize=1024)  # at most 32 KB an entry; a run uses a few hundred pairs
def _restricted(sa: int, sb: int):
    """The product over the supports ``sa``, ``sb``, as gathers and one operator.

    Returns ``(ia, ib, ko, over_a, op, shape)``.  ``ia``, ``ib`` and ``ko``
    index the columns of each factor and of the result (a full slice when
    that is every blade).  ``over_a`` is set when the product contracts over
    the ``a`` factor, the one with fewer blades (on a tie ``b``, as the full
    product does).  ``op`` is the Cayley table restricted to those blades
    and flattened, so that the other factor's gathered columns times ``op``
    give each row's matrix of that contraction, of ``shape`` (contracted
    blades, result blades).  Cached per mask pair: ``lru_cache`` is safe
    under threads, and the entries belong to no node.
    """
    blades = [_blades(s) for s in (sa, sb, product_support(sa, sb))]
    table = CAYLEY.take(blades[0], 0).take(blades[1], 1).take(blades[2], 2)
    over_a = len(blades[0]) < len(blades[1])
    if over_a:  # R[i, k] = sum_j CAYLEY[i, j, k] b[j], from b @ op
        table = table.transpose(1, 0, 2)
    n, s, k = table.shape
    index = [slice(None) if len(b) == DIM else np.array(b, dtype=np.intp)
             for b in blades]
    return (*index, over_a, np.ascontiguousarray(table).reshape(n, s * k), (s, k))


def gp_batch(a: np.ndarray, b: np.ndarray, sa: int = FULL, sb: int = FULL) -> np.ndarray:
    """Geometric product of coefficient arrays with shape (..., DIM).

    A 1-D operand is a fixed factor: its multiplication matrix comes from one
    vector-matrix product with the precomputed ``LEFT_OP`` or ``RIGHT_OP``,
    and the other operand goes through one matrix product, ``b @ L`` with
    ``L[j, k] = sum_i a[i] CAYLEY[i, j, k]`` or ``a @ R`` with
    ``R[i, k] = sum_j CAYLEY[i, j, k] b[j]``.  Every entry of ``L`` and
    ``R`` has exactly one nonzero term, so they equal the Cayley-tensor
    contractions bit for bit.  Otherwise each point builds its own ``L``
    from a single matrix product and ``out[k] = sum_j b[j] L[j, k]`` is a
    stacked vector-matrix product, with leading axes broadcast.

    ``sa`` and ``sb`` are the supports of stacked operands: every column
    outside them must be zero.  Unless both are ``FULL``, the product reads
    only the supported columns: the factor with more blades times the
    Cayley table restricted to the two supports and the blades their
    product reaches gives each point's matrix, one ``einsum`` contracts it
    with the factor with fewer blades, and the result is scattered into
    zeros.  Fixed factors ignore the masks.
    """
    if a.ndim == 1:
        return b @ (a @ LEFT_OP).reshape(DIM, DIM)
    if b.ndim == 1:
        return a @ (b @ RIGHT_OP).reshape(DIM, DIM)
    if sa == sb == FULL:
        left = a @ LEFT_OP
        left = left.reshape(a.shape[:-1] + (DIM, DIM))
        return np.matmul(b[..., None, :], left)[..., 0, :]
    ia, ib, ko, over_a, op, shape = _restricted(sa, sb)
    x, y = a[..., ia], b[..., ib]
    if over_a:
        x, y = y, x  # x goes through op, y is contracted
    m = x @ op
    # einsum, not a stacked matmul: over 1 to 4 blades it measured 1.2-2.5x faster
    out = np.einsum("...j,...jk->...k", y, m.reshape(m.shape[:-1] + shape))
    if isinstance(ko, slice):
        return out
    full = np.zeros(out.shape[:-1] + (DIM,), dtype=out.dtype)
    full[..., ko] = out
    return full


class Multivector:
    """Element of R_{1,3}, or of C (x) R_{1,3} when its coefficients are complex.

    A result is complex when an operand is.  The constructor copies its
    input, so no caller's array aliases a value.
    Each operation has one spelling: ``*`` is the geometric product, and
    ``grade(k)``, ``even()``, ``odd()`` and ``reverse()`` the projections
    and reversion; ``complexify`` is the one cast to complex.  ``==``
    compares values, across dtypes and with -0.0 equal to 0.0, which no
    hash of the coefficients can follow, so multivectors are unhashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=complex if np.iscomplexobj(coeffs) else float)
        if arr.shape != (DIM,):
            raise ValueError(f"expected {DIM} blade coefficients, got {arr.shape}")
        arr.flags.writeable = False
        self.coeffs = arr

    # -- construction helpers -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls(np.zeros(DIM))

    @classmethod
    def scalar(cls, s):
        return cls.from_blade(0, s)

    @classmethod
    def from_blade(cls, mask: int, coef=1.0):
        c = np.zeros(DIM, dtype=complex if np.iscomplexobj(coef) else float)
        c[mask] = coef
        return cls(c)

    # -- ring structure --------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return Multivector(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Multivector(self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Multivector(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
            return Multivector(self.coeffs * other)
        other = _coerce(other)
        return Multivector(gp_batch(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
            return Multivector(other * self.coeffs)
        return _coerce(other) * self

    # -- gradework --------------------------------------------------------------
    def grade(self, k: int):
        return Multivector(np.where(GRADES == k, self.coeffs, 0))

    def even(self):
        return Multivector(np.where(GRADES % 2 == 0, self.coeffs, 0))

    def odd(self):
        return Multivector(np.where(GRADES % 2 == 1, self.coeffs, 0))

    def reverse(self):
        return Multivector(REVERSE_SIGNS * self.coeffs)

    def grades_present(self, tol: float = 0.0) -> set[int]:
        return {int(g) for g, c in zip(GRADES, self.coeffs) if abs(c) > tol}

    @property
    def scalar_part(self):
        return self.coeffs[0]

    def norm_sup(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def approx_eq(self, other, tol: float = 1e-12) -> bool:
        other = _coerce(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return bool(np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self):
        terms = []
        for mask, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"{c:.6g}*{blade_name(mask)}" if mask else f"{c:.6g}")
        return " + ".join(terms) if terms else "0"


def _coerce(x):
    if isinstance(x, Multivector):
        return x
    if isinstance(x, complex) and x.imag != 0:
        return Multivector.scalar(x)
    if isinstance(x, (int, float, complex)):
        return Multivector.scalar(float(np.real(x)))
    raise TypeError(f"cannot interpret {type(x)!r} as a multivector")


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(a) for a in range(len(METRIC)) if mask >> a & 1)


# Canonical basis vectors.  E(a) is the upper-index generator e^a; lowering
# through the metric gives E_lower(a) = eta_aa * E(a).
def E(a: int) -> Multivector:
    return Multivector.from_blade(1 << a)


def E_lower(a: int) -> Multivector:
    return Multivector.from_blade(1 << a, METRIC[a])


#: e^2 e^1, the spin-plane bivector of the Dirac theory (stored as -e12).
E21 = E(2) * E(1)
#: e^0, the timelike generator.
E0 = E(0)


def blade_mul(i: int, j: int) -> tuple[float, int]:
    """Sign and canonical blade of the product of basis blades ``i * j``."""
    if not (0 <= i < DIM and 0 <= j < DIM):
        raise ValueError("blade index out of range")
    return float(CAYLEY[i, j, i ^ j]), i ^ j


def _exp_series(B, smax: float = 1.0):
    """Taylor coefficients B^n / n! as long as they matter at |s| <= smax."""
    terms = [Multivector.scalar(1.0 + 0j if np.iscomplexobj(B.coeffs) else 1.0)]
    t = terms[0]
    for n in range(1, _EXP_SERIES_MAX_TERMS + 1):
        t = t * B * (1.0 / n)
        terms.append(t)
        if t.norm_sup() * max(smax, 1.0) ** n < _EXP_SERIES_TOL and n >= 4:
            return terms
    raise SeriesNotConverged(
        f"exp series did not converge within {_EXP_SERIES_MAX_TERMS} terms"
    )


def bivector_square_class(B) -> tuple[str, float]:
    """Classify B^2 for grade-2 B: ('elliptic'|'hyperbolic'|'null', |scalar|) or ('general', 0)."""
    B = _coerce(B)
    B2 = B * B
    s = B2.scalar_part
    rest = B2 - Multivector.scalar(s)
    scale = max(1.0, abs(s))
    if rest.norm_sup() > 1e-13 * scale:
        return "general", 0.0
    if s < -1e-30:
        return "elliptic", float(np.real(-s))
    if s > 1e-30:
        return "hyperbolic", float(np.real(s))
    return "null", 0.0


def _exp_rows(B, kind: str, beta: float, sv: np.ndarray) -> np.ndarray:
    """exp(B s) at each scalar of ``sv``: one row of DIM coefficients per entry.

    ``kind`` is ``bivector_square_class(B)``'s and ``beta`` the square root
    of its magnitude.  A simple B (B squared a scalar) takes the circular,
    hyperbolic or null closed form f(s) + g(s) B; any other B sums the power
    series, sized by max|s|, with its convergence guard.  The rows are
    complex when B or ``sv`` is.
    """
    dtype = complex if np.iscomplexobj(B.coeffs) or np.iscomplexobj(sv) else float
    out = np.zeros((len(sv), DIM), dtype=dtype)
    if kind == "elliptic":
        arg = beta * sv
        out[:, 0] = np.cos(arg)
        out += (np.sin(arg) / beta)[:, None] * B.coeffs
    elif kind == "hyperbolic":
        arg = beta * sv
        out[:, 0] = np.cosh(arg)
        out += (np.sinh(arg) / beta)[:, None] * B.coeffs
    elif kind == "null":
        out[:, 0] = 1.0
        out += sv[:, None] * B.coeffs
    else:
        acc = np.zeros((len(sv), DIM), dtype=complex)
        p = np.ones(len(sv))
        for n, term in enumerate(_exp_series(B, float(np.max(np.abs(sv))))):
            if n:
                p = p * sv
            acc += p[:, None] * term.coeffs
        out = acc if dtype is complex else np.real(acc)
    return out


def exp_bivector(B):
    """Exponential of a grade-2 element: ``_exp_rows`` at s = 1.

    Simple bivectors square to a scalar, so the series collapses to the
    circular/hyperbolic closed form; anything else falls back to the power
    series with a convergence check.
    """
    B = _coerce(B)
    if B.grades_present(tol=0.0) - {2}:
        raise ValueError("exp_bivector expects a pure grade-2 argument")
    kind, beta2 = bivector_square_class(B)
    return Multivector(_exp_rows(B, kind, np.sqrt(beta2), np.ones(1))[0])


def complexify(a: Multivector) -> Multivector:
    return Multivector(a.coeffs.astype(complex))
