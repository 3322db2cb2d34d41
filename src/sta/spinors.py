"""Primitive idempotents, minimal-ideal projections and the C(4) matrix model.

The real algebra carries the primitive idempotent e = (1+e0)/2 whose left
ideal I = R_{1,3} e has real dimension 8; the complexified algebra refines
it to f = (1+e0)/2 (1+i e2 e1)/2, whose matrix image has rank 1.  Every
element of I factors as (even) * e, which is what lets the Dirac theory be
written in terms of even multivectors.

The spin-plane bivector e2 e1 acts on the complex ideal as a scalar:
e2e1 * f = IDEAL_PHASE * f.  Which of +-i that scalar is depends on index
conventions that differ between sources, so it is derived here numerically
once and exported as a constant; the equation translations in
:mod:`sta.dirac` use the derived value rather than assuming one.

The matrix model is one Dirac-basis representation, also fixed at import:
``rho`` is an algebra isomorphism of the complexified algebra onto the 4x4
complex matrices, and ``COLUMN`` carries the complex ideal's column spinors.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .algebra import DIM, E0, E21, CMultivector, Multivector, complexify
from .errors import InconsistentParity, NotEven, NotInIdeal

__all__ = [
    "IDEMPOTENT_E",
    "IDEMPOTENT_F",
    "IDEAL_PHASE",
    "project_ideal_left",
    "even_from_ideal",
    "complex_ideal_from_even",
    "GAMMAS",
    "COLUMN",
    "rho",
    "rho_batch",
    "rho_inv",
    "column_from_ideal",
    "ideal_from_column",
]

#: Relative bound of the ideal-membership and parity checks below.
DEFAULT_TOL = 1e-10

#: e = (1 + e0)/2, primitive idempotent of the real algebra.
IDEMPOTENT_E: Multivector = 0.5 * (1 + E0)

#: f = (1 + e0)/2 (1 + i e2e1)/2, primitive idempotent of the complexification.
IDEMPOTENT_F: CMultivector = complexify(IDEMPOTENT_E) * (
    0.5 * (1 + 1j * complexify(E21))
)


def _derive_ideal_phase() -> complex:
    f = IDEMPOTENT_F
    lhs = complexify(E21) * f
    for c in (1j, -1j):
        if lhs.approx_eq(c * f, 1e-14):
            return c
    raise AssertionError("e2e1 does not act as +-i on the complex ideal")


#: The scalar c with (e2 e1) * f = c * f, derived by direct evaluation.
IDEAL_PHASE: complex = _derive_ideal_phase()


def _scale(a) -> float:
    return max(1.0, a.norm_sup())


def project_ideal_left(a: Multivector) -> Multivector:
    """Project onto the minimal left ideal I = R_{1,3} e by a -> a e."""
    return a * IDEMPOTENT_E


def even_from_ideal(phi: Multivector) -> Multivector:
    """Recover the even psi with psi e = phi from an ideal element phi.

    Parity decomposition of psi (1+e0)/2 forces psi = 2 even(phi): the even
    half of phi is psi/2 and the odd half is psi e0 / 2.
    """
    if not (phi * IDEMPOTENT_E).approx_eq(phi, DEFAULT_TOL * _scale(phi)):
        raise NotInIdeal("phi*e != phi: argument is not in the left ideal")
    psi = 2.0 * phi.even()
    if not (psi * IDEMPOTENT_E).approx_eq(phi, DEFAULT_TOL * _scale(phi)):
        raise InconsistentParity("even extraction does not reproduce phi")
    return psi


def complex_ideal_from_even(psi: Multivector) -> CMultivector:
    """Map an even multivector to the complex ideal: psi -> psi f."""
    if psi.odd().norm_sup() > DEFAULT_TOL * _scale(psi):
        raise NotEven("psi has a nonzero odd part")
    if isinstance(psi, CMultivector):
        return psi * IDEMPOTENT_F
    return complexify(psi) * IDEMPOTENT_F


# ---------------------------------------------------------------------------
# Matrix representation
# ---------------------------------------------------------------------------

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

#: gamma^0 diagonal, gamma^k off-diagonal Pauli blocks; eta = (+,-,-,-).
GAMMAS: np.ndarray = np.stack([np.block([[_ID2, _Z2], [_Z2, -_ID2]]),
                               *(np.block([[_Z2, s], [-s, _Z2]]) for s in (_S1, _S2, _S3))])
GAMMAS.setflags(write=False)

# blade e_{a1..ak} (a1 < .. < ak) -> gamma^{a1} .. gamma^{ak}, multiplied left to right
_BLADE_MATRICES = np.stack([reduce(np.matmul, [GAMMAS[a] for a in range(4) if mask >> a & 1],
                                   np.eye(4, dtype=complex)) for mask in range(DIM)])
# change of basis from flat matrices (16 entries) to blade coefficients: the blade
# matrices are unitary with tr(B_i^H B_j) = 4 delta_ij, so this is the exact inverse
# of the (16 entries, 16 blades) basis, and import makes no LAPACK call (its first
# use raised a run's peak RSS by about 1 MB with numpy 2.4 and OpenBLAS on x86-64)
_FROM_MATRIX = _BLADE_MATRICES.reshape(DIM, 16).conj() / 4


def rho(a) -> np.ndarray:
    """Matrix image of a (real or complex) multivector: each blade goes to its product of GAMMAS."""
    return rho_batch(a.coeffs)


def rho_batch(coeffs: np.ndarray) -> np.ndarray:
    """Matrix images of an (N, 16) coefficient array, shape (N, 4, 4)."""
    return np.tensordot(np.asarray(coeffs, dtype=complex), _BLADE_MATRICES, axes=1)


def rho_inv(mat: np.ndarray) -> CMultivector:
    """The complex multivector whose matrix image is ``mat``."""
    return CMultivector(_FROM_MATRIX @ np.asarray(mat, dtype=complex).reshape(16))


#: The column supporting the image of f, the one column an ideal element fills.
COLUMN: int = int(np.argmax(np.abs(rho(IDEMPOTENT_F)).sum(axis=0)))


def column_from_ideal(psi_c: CMultivector) -> np.ndarray:
    """Column spinor of an ideal element: the supporting column of rho(psi_c)."""
    if not (psi_c * IDEMPOTENT_F).approx_eq(psi_c, DEFAULT_TOL * _scale(psi_c)):
        raise NotInIdeal("psi_c*f != psi_c")
    return rho(psi_c)[:, COLUMN].copy()


def ideal_from_column(col: np.ndarray) -> CMultivector:
    """Inverse of :func:`column_from_ideal` on the ideal."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[:, COLUMN] = np.asarray(col, dtype=complex)
    return rho_inv(mat)


def columns_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Columns for a batch of ideal coefficient rows, shape (N, 4)."""
    return rho_batch(coeffs)[:, :, COLUMN]
