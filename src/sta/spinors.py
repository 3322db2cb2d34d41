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
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    DIM,
    CMultivector,
    E0,
    E21,
    Multivector,
    complexify,
    even_part,
    odd_part,
)
from .errors import InconsistentParity, NotEven, NotInIdeal

__all__ = [
    "IDEMPOTENT_E",
    "IDEMPOTENT_F",
    "IDEAL_PHASE",
    "project_ideal_left",
    "even_from_ideal",
    "complex_ideal_from_even",
    "GammaRep",
    "build_gamma_rep",
    "column_from_ideal",
    "ideal_from_column",
]

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


def even_from_ideal(phi: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Recover the even psi with psi e = phi from an ideal element phi.

    Parity decomposition of psi (1+e0)/2 forces psi = 2 even(phi): the even
    half of phi is psi/2 and the odd half is psi e0 / 2.
    """
    if not (phi * IDEMPOTENT_E).approx_eq(phi, tol * _scale(phi)):
        raise NotInIdeal("phi*e != phi: argument is not in the left ideal")
    psi = 2.0 * even_part(phi)
    if not (psi * IDEMPOTENT_E).approx_eq(phi, tol * _scale(phi)):
        raise InconsistentParity("even extraction does not reproduce phi")
    return psi


def complex_ideal_from_even(psi: Multivector, tol: float = DEFAULT_TOL) -> CMultivector:
    """Map an even multivector to the complex ideal: psi -> psi f."""
    if odd_part(psi).norm_sup() > tol * _scale(psi):
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


def _dirac_basis_gammas() -> list[np.ndarray]:
    """gamma^0 diagonal, gamma^k off-diagonal Pauli blocks; eta = (+,-,-,-)."""
    g0 = np.block([[_ID2, _Z2], [_Z2, -_ID2]])
    gs = [np.block([[_Z2, s], [-s, _Z2]]) for s in (_S1, _S2, _S3)]
    return [g0, *gs]


class GammaRep:
    """Faithful matrix representation of the complexified algebra on C^4.

    ``rho`` sends each basis blade to the corresponding product of gamma
    matrices and extends linearly; it is an algebra isomorphism onto the
    4x4 complex matrices, with inverse ``rho_inv``.  ``column_index`` is
    the column supporting the image of the idempotent f, which realizes
    the bijection between the complex ideal and column spinors.
    """

    def __init__(self, gammas: list[np.ndarray]):
        self.gammas = [np.asarray(g, dtype=complex) for g in gammas]
        mats = []
        for mask in range(DIM):
            m = np.eye(4, dtype=complex)
            for a in range(4):
                if mask >> a & 1:
                    m = m @ self.gammas[a]
            mats.append(m)
        self.blade_mats = np.stack(mats)  # (16, 4, 4)
        # invertible change of basis between blade coefficients and flat matrices
        basis_flat = self.blade_mats.reshape(DIM, 16).T  # (16 entries, 16 blades)
        self._from_matrix = np.linalg.inv(basis_flat)
        f_mat = self.rho(IDEMPOTENT_F)
        col_weights = np.abs(f_mat).sum(axis=0)
        self.column_index = int(np.argmax(col_weights))

    def rho(self, a) -> np.ndarray:
        """Matrix image of a (real or complex) multivector."""
        return np.tensordot(np.asarray(a.coeffs, dtype=complex), self.blade_mats, axes=1)

    def rho_batch(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix images of an (N, 16) coefficient array, shape (N, 4, 4)."""
        return np.tensordot(np.asarray(coeffs, dtype=complex), self.blade_mats, axes=1)

    def rho_inv(self, mat: np.ndarray) -> CMultivector:
        coeffs = self._from_matrix @ np.asarray(mat, dtype=complex).reshape(16)
        return CMultivector(coeffs)


def build_gamma_rep() -> GammaRep:
    """Standard Dirac-basis representation; invariants checked by the tests."""
    return GammaRep(_dirac_basis_gammas())


def column_from_ideal(psi_c: CMultivector, rep: GammaRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Column spinor of an ideal element: the supporting column of rho(psi_c)."""
    if not (psi_c * IDEMPOTENT_F).approx_eq(psi_c, tol * _scale(psi_c)):
        raise NotInIdeal("psi_c*f != psi_c")
    return rep.rho(psi_c)[:, rep.column_index].copy()


def ideal_from_column(col: np.ndarray, rep: GammaRep) -> CMultivector:
    """Inverse of :func:`column_from_ideal` on the ideal."""
    mat = np.zeros((4, 4), dtype=complex)
    mat[:, rep.column_index] = np.asarray(col, dtype=complex)
    return rep.rho_inv(mat)


def columns_from_coeffs(coeffs: np.ndarray, rep: GammaRep) -> np.ndarray:
    """Columns for a batch of ideal coefficient rows, shape (N, 4)."""
    return rep.rho_batch(coeffs)[:, :, rep.column_index]
