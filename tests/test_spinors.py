"""Idempotents, minimal ideals, even-field extraction and the matrix model."""

import numpy as np
import pytest

from sta.algebra import CMultivector, E, E21, Multivector, complexify
from sta.errors import InconsistentParity, NotEven, NotInIdeal
from sta.spinors import (
    COLUMN,
    GAMMAS,
    IDEAL_PHASE,
    IDEMPOTENT_E,
    IDEMPOTENT_F,
    column_from_ideal,
    complex_ideal_from_even,
    even_from_ideal,
    ideal_from_column,
    project_ideal_left,
    rho,
    rho_inv,
)

ETA = np.diag([1.0, -1.0, -1.0, -1.0]).astype(complex)


def test_idempotents_are_idempotent():
    e, f = IDEMPOTENT_E, IDEMPOTENT_F
    assert (e * e).approx_eq(e)
    assert (f * f).approx_eq(f, 1e-15)
    assert e.approx_eq(0.5 * (1 + E(0)))
    assert f.approx_eq(complexify(e) * (0.5 * (1 + 1j * complexify(E21))), 1e-15)


def test_ideal_phase_constant():
    # e2e1 acts on the ideal as a scalar; brute force fixes which one.
    lhs = complexify(E21) * IDEMPOTENT_F
    assert lhs.approx_eq(IDEAL_PHASE * IDEMPOTENT_F, 1e-14)
    assert IDEAL_PHASE == -1j


def test_projection_examples():
    assert project_ideal_left(IDEMPOTENT_E).approx_eq(IDEMPOTENT_E)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = Multivector(rng.normal(size=16))
        p = project_ideal_left(a)
        assert project_ideal_left(p).approx_eq(p, 1e-13)


def test_ideal_dimension_is_eight():
    images = np.stack(
        [project_ideal_left(Multivector.from_blade(m)).coeffs for m in range(16)]
    )
    assert np.linalg.matrix_rank(images) == 8


def test_even_extraction_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(25):
        psi0 = Multivector(rng.normal(size=16)).even()
        phi = psi0 * IDEMPOTENT_E
        assert even_from_ideal(phi).approx_eq(psi0, 1e-12)
    assert even_from_ideal(IDEMPOTENT_E).approx_eq(Multivector.scalar(1.0))


def test_even_extraction_vector_seed():
    # e1 e is in the ideal; the even solution is e1 e0
    phi = E(1) * IDEMPOTENT_E
    psi = even_from_ideal(phi)
    assert psi.approx_eq(E(1) * E(0), 1e-14)
    assert (psi * IDEMPOTENT_E).approx_eq(phi, 1e-14)


def test_even_extraction_errors():
    with pytest.raises(NotInIdeal):
        even_from_ideal(E(1))  # e1 alone is not in the ideal
    # an ideal-membership near-miss trips the parity check instead
    phi = E(1) * IDEMPOTENT_E
    with pytest.raises((NotInIdeal, InconsistentParity)):
        even_from_ideal(phi + 1e-3 * E(2))


def test_complex_ideal_from_even():
    assert complex_ideal_from_even(Multivector.scalar(1.0)).approx_eq(IDEMPOTENT_F)
    rng = np.random.default_rng(2)
    for _ in range(10):
        psi = Multivector(rng.normal(size=16)).even()
        Psi = complex_ideal_from_even(psi)
        assert (Psi * IDEMPOTENT_F).approx_eq(Psi, 1e-12)
    with pytest.raises(NotEven):
        complex_ideal_from_even(E(1))


def test_gamma_anticommutation():
    for a in range(4):
        for b in range(4):
            lhs = GAMMAS[a] @ GAMMAS[b] + GAMMAS[b] @ GAMMAS[a]
            assert np.allclose(lhs, 2 * ETA[a, b] * np.eye(4), atol=1e-14)


def test_rho_is_an_algebra_isomorphism():
    assert np.allclose(rho(Multivector.scalar(1.0)), np.eye(4))
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = Multivector(rng.normal(size=16))
        b = Multivector(rng.normal(size=16))
        assert np.max(np.abs(rho(a * b) - rho(a) @ rho(b))) <= 1e-10
    # faithful: rho_inv recovers coefficients
    c = CMultivector(rng.normal(size=16) + 1j * rng.normal(size=16))
    assert rho_inv(rho(c)).approx_eq(c, 1e-12)


def test_rho_of_f_rank_one():
    fm = rho(IDEMPOTENT_F)
    assert np.allclose(fm @ fm, fm, atol=1e-13)
    assert np.linalg.matrix_rank(fm) == 1
    eigs = np.sort_complex(np.linalg.eigvals(fm))
    assert np.allclose(eigs, [0, 0, 0, 1], atol=1e-12)


def test_ideal_images_live_in_one_column():
    rng = np.random.default_rng(4)
    for _ in range(10):
        psi = Multivector(rng.normal(size=16)).even()
        mat = rho(complex_ideal_from_even(psi))
        others = np.delete(mat, COLUMN, axis=1)
        assert np.max(np.abs(others)) < 1e-13


def test_column_bijection():
    col = column_from_ideal(IDEMPOTENT_F)
    want = np.zeros(4, dtype=complex)
    want[COLUMN] = 1.0
    assert np.allclose(col, want, atol=1e-14)
    assert np.allclose(column_from_ideal(CMultivector.zero()), np.zeros(4))

    rng = np.random.default_rng(5)
    for _ in range(20):
        psi = Multivector(rng.normal(size=16)).even()
        Psi = complex_ideal_from_even(psi)
        back = ideal_from_column(column_from_ideal(Psi))
        assert back.approx_eq(Psi, 1e-11)

    with pytest.raises(NotInIdeal):
        column_from_ideal(complexify(E(1)))


def test_column_map_is_a_left_module_map():
    rng = np.random.default_rng(6)
    a = Multivector(rng.normal(size=16))
    psi = Multivector(rng.normal(size=16)).even()
    Psi = complex_ideal_from_even(psi)
    lhs = column_from_ideal(complexify(a) * Psi)
    rhs = rho(a) @ column_from_ideal(Psi)
    assert np.allclose(lhs, rhs, atol=1e-12)
