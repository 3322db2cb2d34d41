"""Real and complexified Clifford algebra over a fixed blade basis.

Basis blades are indexed by bit masks over the generators: bit ``a`` set
means generator ``a`` participates in the blade, and generators inside a
blade are kept in ascending order.  For the working signature (1,3) this
gives the 16 blades

    1, e0..e3, e01..e23, e012..e123, e0123

with ``grade(mask) = popcount(mask)``.  The product of two basis blades is
again a basis blade up to sign: the masks xor, and the sign is the parity
of the transpositions needed to interleave the two generator lists times a
metric factor for every repeated generator (``e_a e_a = eta_aa``).  All
products below go through tables precomputed once per signature.

The table machinery is signature generic (any p+q <= 8); the rest of the
package instantiates it at (1,3), where the metric is diag(+1,-1,-1,-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SeriesNotConverged

__all__ = [
    "Signature",
    "STA",
    "Multivector",
    "CMultivector",
    "blade_mul",
    "gp",
    "grade_proj",
    "even_part",
    "odd_part",
    "reverse",
    "commutator_half",
    "exp_bivector",
    "complexify",
    "real_part",
    "imag_part",
]

_EXP_SERIES_MAX_TERMS = 48
_EXP_SERIES_TOL = 1e-15


def _popcount(n: int) -> int:
    return bin(n).count("1")


def _blade_product(i: int, j: int, metric: tuple[int, ...]) -> tuple[float, int]:
    """Sign and result mask for the product of basis blades ``i * j``.

    The sign is (-1)^inversions * prod(eta_aa for a in i & j), where an
    inversion is a pair (a in i, b in j) with a > b: those are exactly the
    adjacent transpositions needed to sort the concatenated generator
    lists, after which repeated generators sit next to each other and
    contract through the metric.
    """
    inversions = 0
    for b in range(len(metric)):
        if j >> b & 1:
            inversions += _popcount(i >> (b + 1))
    sign = -1.0 if inversions & 1 else 1.0
    common = i & j
    for a in range(len(metric)):
        if common >> a & 1:
            sign *= metric[a]
    return sign, i ^ j


@dataclass(frozen=True)
class Signature:
    """Quadratic-form signature (p pluses, q minuses) and its blade tables."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q > 8:
            raise ValueError(f"unsupported signature ({self.p},{self.q})")

    @property
    def n_gen(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return 1 << self.n_gen

    @property
    def metric(self) -> tuple[int, ...]:
        return tuple(1 if a < self.p else -1 for a in range(self.n_gen))

    @property
    def tables(self) -> "_Tables":
        return _build_tables(self.p, self.q)


class _Tables:
    """Precomputed multiplication/grade/reversion structure for a signature."""

    def __init__(self, sig: Signature):
        dim = sig.dim
        metric = sig.metric
        signs = np.zeros((dim, dim))
        index = np.zeros((dim, dim), dtype=np.int64)
        cayley = np.zeros((dim, dim, dim))
        for i in range(dim):
            for j in range(dim):
                s, k = _blade_product(i, j, metric)
                signs[i, j] = s
                index[i, j] = k
                cayley[i, j, k] = s
        self.signs = signs
        self.index = index
        self.cayley = cayley
        self.grades = np.array([_popcount(m) for m in range(dim)])
        self.reverse_signs = np.array(
            [(-1.0) ** (g * (g - 1) // 2) for g in self.grades]
        )
        self.dim = dim


@lru_cache(maxsize=None)
def _build_tables(p: int, q: int) -> _Tables:
    return _Tables(Signature(p, q))


STA = Signature(1, 3)
_T = STA.tables
DIM = _T.dim
GRADES = _T.grades


def gp_batch(a: np.ndarray, b: np.ndarray, tables: _Tables = _T) -> np.ndarray:
    """Geometric product of coefficient arrays with shape (..., dim).

    A 1-D operand is a fixed factor: its multiplication matrix comes from the
    Cayley tensor once, and the other operand goes through one matrix
    product, ``b @ L`` with ``L[j, k] = sum_i a[i] cayley[i, j, k]`` or
    ``a @ R`` with ``R[i, k] = sum_j cayley[i, j, k] b[j]``.  Otherwise each
    point builds its own ``L`` from a single matrix product and
    ``out[k] = sum_j b[j] L[j, k]`` is a stacked vector-matrix product, with
    leading axes broadcast.
    """
    dim = tables.dim
    if a.ndim == 1:
        return b @ np.tensordot(a, tables.cayley, axes=([0], [0]))
    if b.ndim == 1:
        return a @ np.tensordot(tables.cayley, b, axes=([1], [0]))
    left = a @ tables.cayley.reshape(dim, dim * dim)
    left = left.reshape(a.shape[:-1] + (dim, dim))
    return np.matmul(b[..., None, :], left)[..., 0, :]


class _MVBase:
    """Backing array plus algebra ops shared by the real and complex types."""

    __slots__ = ("coeffs",)
    _dtype: type = float

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=self._dtype)
        if arr.shape != (DIM,):
            raise ValueError(f"expected {DIM} blade coefficients, got {arr.shape}")
        self.coeffs = arr
        self.coeffs.flags.writeable = False

    # -- construction helpers -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls(np.zeros(DIM, dtype=cls._dtype))

    @classmethod
    def scalar(cls, s):
        c = np.zeros(DIM, dtype=cls._dtype)
        c[0] = s
        return cls(c)

    @classmethod
    def from_blade(cls, mask: int, coef=1.0):
        c = np.zeros(DIM, dtype=cls._dtype)
        c[mask] = coef
        return cls(c)

    # -- ring structure --------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return _wrap(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return _wrap(self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return _wrap(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
            return _wrap(self.coeffs * other)
        other = _coerce(other)
        return _wrap(gp_batch(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)) and not isinstance(other, bool):
            return _wrap(other * self.coeffs)
        return _coerce(other) * self

    # -- gradework --------------------------------------------------------------
    def grade(self, k: int):
        return _wrap(np.where(GRADES == k, self.coeffs, 0))

    def even(self):
        return _wrap(np.where(GRADES % 2 == 0, self.coeffs, 0))

    def odd(self):
        return _wrap(np.where(GRADES % 2 == 1, self.coeffs, 0))

    def reverse(self):
        return _wrap(_T.reverse_signs * self.coeffs)

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

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self):
        terms = []
        for mask, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"{c:.6g}*{blade_name(mask)}" if mask else f"{c:.6g}")
        return " + ".join(terms) if terms else "0"


class Multivector(_MVBase):
    """Element of R_{1,3}: 16 real blade coefficients."""

    _dtype = float


class CMultivector(_MVBase):
    """Element of the complexified algebra C (x) R_{1,3}: 16 complex coefficients."""

    _dtype = complex


def _wrap(coeffs: np.ndarray):
    cls = CMultivector if np.iscomplexobj(coeffs) else Multivector
    return cls(coeffs)


def _coerce(x):
    if isinstance(x, _MVBase):
        return x
    if isinstance(x, complex) and x.imag != 0:
        return CMultivector.scalar(x)
    if isinstance(x, (int, float, complex)):
        return Multivector.scalar(float(np.real(x)))
    raise TypeError(f"cannot interpret {type(x)!r} as a multivector")


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(a) for a in range(STA.n_gen) if mask >> a & 1)


# Canonical basis vectors.  E(a) is the upper-index generator e^a; lowering
# through the metric gives E_lower(a) = eta_aa * E(a).
def E(a: int) -> Multivector:
    return Multivector.from_blade(1 << a)


def E_lower(a: int) -> Multivector:
    return Multivector.from_blade(1 << a, STA.metric[a])


#: e^2 e^1, the spin-plane bivector of the Dirac theory (stored as -e12).
E21 = E(2) * E(1)
#: e^0, the timelike generator.
E0 = E(0)


def blade_mul(i: int, j: int, sig: Signature = STA) -> tuple[float, int]:
    """Sign and canonical blade of the product of basis blades ``i * j``."""
    t = sig.tables
    if not (0 <= i < t.dim and 0 <= j < t.dim):
        raise ValueError("blade index out of range for signature")
    return float(t.signs[i, j]), int(t.index[i, j])


def gp(a, b):
    """Geometric (Clifford) product, bilinear and associative."""
    return _coerce(a) * _coerce(b)


def grade_proj(a, k: int):
    return _coerce(a).grade(k)


def even_part(a):
    return _coerce(a).even()


def odd_part(a):
    return _coerce(a).odd()


def reverse(a):
    return _coerce(a).reverse()


def commutator_half(w, a):
    """(w*a - a*w)/2; grade preserving when w is a bivector."""
    w = _coerce(w)
    a = _coerce(a)
    return 0.5 * (w * a - a * w)


def _exp_series(B, smax: float = 1.0):
    """Taylor coefficients B^n / n! as long as they matter at |s| <= smax."""
    terms = [Multivector.scalar(1.0) if isinstance(B, Multivector) else CMultivector.scalar(1.0)]
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
    rest = B2 - type(B2).scalar(s)
    scale = max(1.0, abs(s))
    if rest.norm_sup() > 1e-13 * scale:
        return "general", 0.0
    if s < -1e-30:
        return "elliptic", float(np.real(-s))
    if s > 1e-30:
        return "hyperbolic", float(np.real(s))
    return "null", 0.0


def exp_bivector(B):
    """Exponential of a grade-2 element.

    Simple bivectors square to a scalar, so the series collapses to the
    circular/hyperbolic closed form; anything else falls back to the power
    series with a convergence check.
    """
    B = _coerce(B)
    if B.grades_present(tol=0.0) - {2}:
        raise ValueError("exp_bivector expects a pure grade-2 argument")
    kind, beta2 = bivector_square_class(B)
    if kind == "elliptic":
        beta = np.sqrt(beta2)
        return float(np.cos(beta)) + B * float(np.sin(beta) / beta)
    if kind == "hyperbolic":
        beta = np.sqrt(beta2)
        return float(np.cosh(beta)) + B * float(np.sinh(beta) / beta)
    if kind == "null":
        return 1.0 + B
    acc = type(B).zero()
    for t in _exp_series(B):
        acc = acc + t
    return acc


def complexify(a: Multivector) -> CMultivector:
    return CMultivector(a.coeffs.astype(complex))


def real_part(a: CMultivector) -> Multivector:
    return Multivector(np.real(a.coeffs))


def imag_part(a: CMultivector) -> Multivector:
    return Multivector(np.imag(a.coeffs))
