"""Blade arithmetic: tables against an independent oracle, algebra laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sta.algebra import (
    CAYLEY,
    CMultivector,
    Multivector,
    blade_mul,
    complexify,
    exp_bivector,
    gp_batch,
    E,
    E21,
)
from sta.errors import SeriesNotConverged
from sta.fields import BivectorExp, ScalarLinear, evaluate

METRIC = (1, -1, -1, -1)


def oracle_blade_mul(i, j, metric=METRIC):
    """Independent blade product: sort the concatenated generator list,
    counting adjacent swaps, and contract equal neighbors through the metric."""
    n = len(metric)
    gens = [a for a in range(n) if i >> a & 1] + [a for a in range(n) if j >> a & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        k = 0
        while k < len(gens) - 1:
            if gens[k] == gens[k + 1]:
                sign *= metric[gens[k]]
                del gens[k : k + 2]
                changed = True
            elif gens[k] > gens[k + 1]:
                gens[k], gens[k + 1] = gens[k + 1], gens[k]
                sign *= -1
                changed = True
            else:
                k += 1
    mask = 0
    for g in gens:
        mask |= 1 << g
    return sign, mask


def test_blade_table_matches_oracle():
    for i in range(16):
        for j in range(16):
            assert blade_mul(i, j) == oracle_blade_mul(i, j)


def test_blade_mul_pinned_examples():
    assert blade_mul(0b0001, 0b0001) == (1.0, 0)      # e0 e0 = +1
    assert blade_mul(0b0010, 0b0010) == (-1.0, 0)     # e1 e1 = -1
    for x in range(16):                               # identity element
        assert blade_mul(0, x) == (1.0, x)
    assert blade_mul(0b1111, 0b1111) == (-1.0, 0)     # pseudoscalar squares to -1


def test_cayley_slices_hold_one_sign_at_the_xor_blade():
    """The table the kernel multiplies by: e_i e_j = +-e_(i^j), as blade_mul says."""
    for i in range(16):
        for j in range(16):
            (k,) = np.flatnonzero(CAYLEY[i, j])
            assert k == i ^ j
            assert CAYLEY[i, j, k] in (1.0, -1.0)
            assert blade_mul(i, j) == (CAYLEY[i, j, k], k)


def test_gp_examples():
    e = 0.5 * (1 + E(0))
    assert (e * e).approx_eq(e)
    a = Multivector(np.arange(16, dtype=float))
    assert (1 * a).approx_eq(a)
    assert (E(2) * E(1) * (E(2) * E(1))).approx_eq(Multivector.scalar(-1.0))


def oracle_gp_batch(a, b, metric=METRIC):
    """Row-wise product as a plain sum over blade pairs of the oracle."""
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape, dtype=np.result_type(a, b))
    dim = a.shape[-1]
    for i in range(dim):
        for j in range(dim):
            sign, k = oracle_blade_mul(i, j, metric)
            out[..., k] += sign * a[..., i] * b[..., j]
    return out


def _random_rows(rng, lead, dim, complex_):
    rows = rng.normal(size=(*lead, dim))
    if complex_:
        rows = rows + 1j * rng.normal(size=(*lead, dim))
    return rows


@pytest.mark.parametrize(
    "shape_a, shape_b, complex_a, complex_b",
    [
        ((37, 16), (37, 16), False, False),  # real x real
        ((37, 16), (37, 16), True, True),    # complex x complex
        ((37, 16), (37, 16), False, True),   # real x complex
        ((37, 16), (37, 16), True, False),   # complex x real
        ((1, 16), (37, 16), False, False),   # broadcast left operand
        ((37, 16), (1, 16), True, False),    # broadcast right operand
        ((1, 16), (1, 16), False, True),     # one row
        ((16,), (37, 16), False, False),     # fixed left factor
        ((16,), (37, 16), True, False),
        ((37, 16), (16,), False, False),     # fixed right factor
        ((37, 16), (16,), False, True),
        ((16,), (16,), False, False),        # two single multivectors
        ((16,), (16,), True, True),
    ],
)
def test_gp_batch_matches_oracle(shape_a, shape_b, complex_a, complex_b):
    rng = np.random.default_rng(17)
    a = _random_rows(rng, shape_a[:-1], 16, complex_a)
    b = _random_rows(rng, shape_b[:-1], 16, complex_b)
    got = gp_batch(a, b)
    want = oracle_gp_batch(a, b)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("complex_factor, complex_other", [
    (False, False), (True, False), (False, True), (True, True)])
def test_fixed_factor_products_equal_the_cayley_contractions_bit_for_bit(complex_factor,
                                                                         complex_other):
    cayley = CAYLEY
    rng = np.random.default_rng(23)
    f = _random_rows(rng, (), 16, complex_factor)
    for other in (_random_rows(rng, (), 16, complex_other),
                  _random_rows(rng, (37,), 16, complex_other)):
        np.testing.assert_array_equal(gp_batch(f, other),
                                      other @ np.tensordot(f, cayley, axes=([0], [0])))
    rows = _random_rows(rng, (37,), 16, complex_other)
    np.testing.assert_array_equal(gp_batch(rows, f),
                                  rows @ np.tensordot(cayley, f, axes=([1], [0])))


def test_grade_projection_examples():
    e = 0.5 * (1 + E(0))
    assert e.grade(0).approx_eq(Multivector.scalar(0.5))
    assert E(1).even().approx_eq(Multivector.zero())
    rng = np.random.default_rng(3)
    psi = Multivector(rng.normal(size=16)).even()
    assert (2.0 * (psi * e).even()).approx_eq(psi, 1e-13)
    total = sum((psi.grade(k) for k in range(5)), Multivector.zero())
    assert total.approx_eq(psi)
    assert (psi.even() + psi.odd()).approx_eq(psi)


def test_reverse_examples():
    assert E(0).reverse().approx_eq(E(0))
    b = E(2) * E(1)
    assert b.reverse().approx_eq(-1.0 * b)
    for theta in (0.1, 0.7, 2.4):
        u = exp_bivector(theta * E21)
        assert (u.reverse() * u).approx_eq(Multivector.scalar(1.0), 1e-12)


def test_reversion_antiautomorphism_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = Multivector(rng.normal(size=16))
        b = Multivector(rng.normal(size=16))
        assert (a * b).reverse().approx_eq(b.reverse() * a.reverse(), 1e-12)


def test_commutator_half_examples():
    b12 = 0.5 * (E(1) * E(2) - E(2) * E(1))  # e1 ^ e2
    out = 0.5 * (b12 * E(1) - E(1) * b12)
    assert out.grades_present(1e-15) <= {1}
    w = Multivector(np.random.default_rng(0).normal(size=16)).grade(2)
    one = Multivector.scalar(1.0)
    assert (0.5 * (w * one - one * w)).approx_eq(Multivector.zero())
    # [e2 e1, e1]/2 = -e2 by direct expansion
    b = E(2) * E(1)
    assert (0.5 * (b * E(1) - E(1) * b)).approx_eq(-1.0 * E(2))


def test_commutator_grade_preservation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = Multivector(rng.normal(size=16)).grade(2)
        for k in range(5):
            x = Multivector(rng.normal(size=16)).grade(k)
            out = 0.5 * (w * x - x * w)
            assert (out - out.grade(k)).norm_sup() < 1e-12


def oracle_exp_series(B, terms=80):
    acc = Multivector.scalar(1.0)
    t = Multivector.scalar(1.0)
    for n in range(1, terms):
        t = t * B * (1.0 / n)
        acc = acc + t
    return acc


def test_exp_bivector_examples():
    assert exp_bivector(Multivector.zero()).approx_eq(Multivector.scalar(1.0))
    theta = 0.6
    got = exp_bivector(theta * E21)
    want = Multivector.scalar(np.cos(theta)) + np.sin(theta) * E21
    assert got.approx_eq(want, 1e-13)
    assert got.approx_eq(oracle_exp_series(theta * E21), 1e-13)
    # hyperbolic plane
    boost = exp_bivector(0.8 * (E(1) * E(0)))
    assert boost.approx_eq(oracle_exp_series(0.8 * (E(1) * E(0))), 1e-12)
    # spin-plane rotation of the legs
    q, th = 0.9, 0.5
    u = exp_bivector(-q * th / 2 * E21)
    ui = exp_bivector(q * th / 2 * E21)
    got = u * E(1) * ui
    want = np.cos(q * th) * E(1) + np.sin(q * th) * E(2)
    assert got.approx_eq(want, 1e-12)


def test_exp_bivector_general_series_path():
    B = 0.4 * (E(0) * E(1)) + 0.3 * (E(2) * E(3))
    got = exp_bivector(B)
    assert got.approx_eq(oracle_exp_series(B), 1e-13)
    assert (got * exp_bivector(-1.0 * B)).approx_eq(Multivector.scalar(1.0), 1e-12)


def test_exp_bivector_rejects_and_diverges():
    with pytest.raises(ValueError):
        exp_bivector(E(0))
    with pytest.raises(SeriesNotConverged):
        exp_bivector(60.0 * (E(0) * E(1)) + 59.0 * (E(2) * E(3)))


@pytest.mark.parametrize("B", [
    0.6 * E21,                                           # elliptic
    0.8 * (E(1) * E(0)),                                 # hyperbolic
    E(0) * E(1) + E(1) * E(2),                           # null: squares to 0
    0.4 * (E(0) * E(1)) + 0.3 * (E(2) * E(3)),           # general: the series
    Multivector.zero(),                                  # null at zero
    complexify(0.5 * E21 + 0.2 * (E(0) * E(3))) * (1 + 0.5j),  # complex
], ids=["elliptic", "hyperbolic", "null", "general", "zero", "complex"])
def test_exp_bivector_is_the_field_exponential_at_s_one(B):
    """One exponential: exp_bivector(B) is BivectorExp(B, s) where s = 1, bit for bit."""
    xs = np.zeros((3, 4))
    field = evaluate(BivectorExp(B, ScalarLinear([0, 0, 0, 0], 1.0)), xs)
    got = exp_bivector(B).coeffs
    assert got.dtype == field.dtype
    for row in field:
        np.testing.assert_array_equal(got, row)


def test_exp_inverse_random_simple():
    rng = np.random.default_rng(2)
    planes = [E(1) * E(2), E(1) * E(0), E(2) * E(3)]
    for _ in range(20):
        B = float(rng.normal()) * planes[int(rng.integers(0, 3))]
        assert (exp_bivector(B) * exp_bivector(-1.0 * B)).approx_eq(
            Multivector.scalar(1.0), 1e-12
        )


def test_complexify_examples():
    assert complexify(Multivector.scalar(1.0)).approx_eq(CMultivector.scalar(1.0))
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = Multivector(rng.normal(size=16))
        b = Multivector(rng.normal(size=16))
        assert (complexify(a) * complexify(b)).approx_eq(complexify(a * b), 1e-12)
        assert Multivector(complexify(a).coeffs.real).approx_eq(a)
        assert Multivector(complexify(a).coeffs.imag).approx_eq(Multivector.zero())
    e = 0.5 * (1 + E(0))
    f = complexify(e) * (0.5 * (1 + 1j * complexify(E21)))
    assert (f * f).approx_eq(f, 1e-14)


def test_multivectors_are_unhashable():
    # == compares values, across the real and complex types and with -0.0 == 0.0,
    # which no hash of the coefficient bytes can follow
    assert Multivector.zero() == CMultivector.zero()
    assert Multivector.scalar(-0.0) == Multivector.scalar(0.0)
    for value in (Multivector.zero(), CMultivector.zero()):
        with pytest.raises(TypeError):
            hash(value)


def test_generator_relations_exact():
    for a in range(4):
        for b in range(4):
            eta = 2.0 if a == b == 0 else (-2.0 if a == b else 0.0)
            lhs = E(a) * E(b) + E(b) * E(a)
            assert lhs == Multivector.scalar(eta)


def test_grade_bookkeeping_all_blades():
    from sta.algebra import GRADES

    for i in range(16):
        for j in range(16):
            gi, gj = int(GRADES[i]), int(GRADES[j])
            allowed = set(range(abs(gi - gj), gi + gj + 1, 2))
            prod = Multivector.from_blade(i) * Multivector.from_blade(j)
            assert prod.grades_present(0.0) <= allowed


mv_coeffs = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=16, max_size=16
)


@settings(max_examples=60, deadline=None)
@given(mv_coeffs, mv_coeffs, mv_coeffs)
def test_associativity_property(a, b, c):
    A, B, C = Multivector(a), Multivector(b), Multivector(c)
    assert ((A * B) * C).approx_eq(A * (B * C), 1e-12)


@settings(max_examples=60, deadline=None)
@given(mv_coeffs, mv_coeffs)
def test_distributivity_property(a, b):
    A, B = Multivector(a), Multivector(b)
    assert ((A + B) * A).approx_eq(A * A + B * A, 1e-12)
