"""Differential property tests of the evaluator on random field DAGs.

A recipe is a list of leaves and a list of operations, each of which reads
earlier nodes by index, so the DAGs share subtrees.  For every recipe the
plan (``evaluate_many``) must equal a recursive reference evaluator bit for
bit, the exact partial derivatives must agree with central differences, and
building the recipe again must give the same node objects.  Every node's
value must vanish outside its static ``support``, be complex exactly when
its static ``is_complex`` is set, and a product over the factors' supports
must agree with the full 16x16 kernel.  The n-ary sum builders must return
the node that a left fold of the binary sum and scaling rules returns, and
intern no ``Linear`` node besides it.  A node's value must not depend on
the order of the roots, on the DAGs evaluated before it, or on the DAGs it
shares a plan with: each root evaluated alone gives the value.  ``fold_sups`` over more points than
one chunk must give the whole-grid sups bit for bit (a non-simple
``BivectorExp`` within its stated bound) and drop every value in each
chunk, ``evaluate_many`` over more points than one chunk must give the
reference's whole-grid values bit for bit, and one fold over two residual
lists must give what two folds give.
"""

from functools import reduce
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sta import fields
from sta.algebra import DIM, FULL, GRADES, E, Multivector, gp_batch
from sta.fields import (
    BivectorExp,
    Constant,
    GradeSelect,
    Linear,
    Polynomial,
    Product,
    Reverse,
    ScalarLinear,
    ScalarSine,
    evaluate,
    evaluate_many,
    f_combine,
    f_product,
    f_reverse,
    f_scale,
    f_sum,
    fold_sups,
    worst_of,
)
from sta.fields import _NODES
from sta.geometry import Chart

from finite_differences import fd_directional, interior_grid

XS = interior_grid(Chart([0, 0, 0, 0], [1, 1, 1, 1]), 2, 0.2)
REVERSE_SIGNS = np.where(GRADES % 4 < 2, 1.0, -1.0)  # (-1)^(g(g-1)/2)


def reference(node, xs):
    """The value of ``node`` on ``xs``: every node evaluated from scratch, by recursion."""
    if isinstance(node, Constant):
        return np.broadcast_to(node.value.coeffs, (len(xs), DIM))
    if isinstance(node, Linear):
        terms = [(c, reference(e, xs)) for c, e in node.terms]
        cplx = any(isinstance(c, complex) or np.iscomplexobj(v) for c, v in terms)
        out = np.zeros((len(xs), DIM), dtype=complex if cplx else float)
        for c, v in terms:
            out += v if c == 1 else c * v
        return out
    if isinstance(node, Product):
        lv, rv = (e.value.coeffs if isinstance(e, Constant) else reference(e, xs)
                  for e in (node.left, node.right))
        if node.left.is_scalar:
            return rv * lv[..., :1]
        if node.right.is_scalar:
            return lv * rv[..., :1]
        return gp_batch(lv, rv, node.left.support, node.right.support)
    if isinstance(node, Reverse):
        return reference(node.arg, xs) * REVERSE_SIGNS
    assert not node.children, type(node).__name__
    return node._eval(xs)


_coef = st.floats(-1.5, 1.5, allow_subnormal=False)
_vec4 = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=4, max_size=4)
_blades = st.lists(st.integers(0, DIM - 1), min_size=1, max_size=3, unique=True)

_coefs = st.lists(_coef, min_size=3, max_size=3)
_scales = st.one_of(_coef, st.builds(complex, _coef, _coef))


def _constant(blades, re, im=None):
    """A constant with the coefficients ``re`` (+ i ``im``) on up to three ``blades``."""
    coeffs = np.bincount(blades, re[:len(blades)], DIM)
    if im is None:
        return Constant(Multivector(coeffs))
    return Constant(Multivector(coeffs + 1j * np.bincount(blades, im[:len(blades)], DIM)))


_leaves = st.one_of(
    st.builds(lambda v: Constant(Multivector.scalar(v)), _coef),
    st.builds(_constant, _blades, _coefs),
    st.builds(_constant, _blades, _coefs, _coefs),
    st.builds(lambda cs, mu: Polynomial([(m, c, tuple(np.eye(4, dtype=int)[mu])) for m, c in
                                         enumerate(cs)]),  # every blade, so every grade
              st.lists(_coef, min_size=DIM, max_size=DIM), st.integers(0, 3)),
    st.builds(lambda terms: Polynomial(terms),
              st.lists(st.tuples(st.integers(0, DIM - 1), _scales,  # real or complex
                                 st.builds(lambda mu, p: tuple(np.eye(4, dtype=int)[mu] * p),
                                           st.integers(0, 3), st.integers(0, 3))),
                       min_size=1, max_size=3)),
    st.builds(ScalarLinear, _vec4, _coef),
    st.builds(ScalarSine, _coef, _vec4, _coef),
)

_ops = st.lists(st.tuples(st.sampled_from(["sum", "scale", "product", "reverse"]),
                          st.integers(0, 63), st.integers(0, 63), _scales),
                min_size=1, max_size=8)


def build(leaves, ops):
    """Apply ``ops`` over ``leaves``; each operation reads earlier nodes by index."""
    nodes = list(leaves)
    for op, i, j, c in ops:
        a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
        if op == "sum":
            nodes.append(f_sum(a, b))
        elif op == "scale":
            nodes.append(f_scale(c, a))
        elif op == "product":
            nodes.append(f_product(a, b))
        else:
            nodes.append(f_reverse(a))
    return nodes


@settings(max_examples=60)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops)
def test_plan_equals_recursive_reference_bit_for_bit(leaves, ops):
    nodes = build(leaves, ops)
    for node, value in zip(nodes, evaluate_many(nodes, XS)):
        want = reference(node, XS)
        assert value.dtype == want.dtype
        assert np.array_equal(value, want), type(node).__name__


@settings(max_examples=30)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops)
def test_exact_partials_agree_with_central_differences(leaves, ops):
    root = build(leaves, ops)[-1]
    for mu in range(4):
        exact = evaluate(root.partial(mu), XS)
        fd = fd_directional(root, XS, mu, 1e-4)
        scale = max(1.0, float(np.max(np.abs(evaluate(root, XS)))))
        assert np.max(np.abs(exact - fd)) <= 1e-6 * scale


@settings(max_examples=30)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops)
def test_building_the_same_dag_twice_gives_the_same_nodes(leaves, ops):
    first, again = build(leaves, ops), build(leaves, ops)
    assert all(a is b for a, b in zip(first, again))


@settings(max_examples=60)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops)
def test_values_are_complex_exactly_when_the_node_says_so(leaves, ops):
    nodes = build(leaves, ops)
    for node, value in zip(nodes, evaluate_many(nodes, XS)):
        assert np.iscomplexobj(value) == node.is_complex, type(node).__name__


@settings(max_examples=60)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops, st.lists(_leaves, min_size=1, max_size=4),
       _ops, st.randoms(use_true_random=False))
def test_values_do_not_depend_on_root_order_or_on_earlier_dags(leaves, ops, others, other_ops,
                                                               random):
    nodes = build(leaves, ops)
    want = [evaluate(node, XS) for node in nodes]  # each root in a plan of its own
    order = list(range(len(nodes)))
    random.shuffle(order)
    shuffled = evaluate_many([nodes[i] for i in order], XS)
    unrelated = build(others, other_ops)
    evaluate_many(unrelated, XS)
    after = evaluate_many(nodes, XS)
    together = evaluate_many(unrelated + nodes, XS)[len(unrelated):]
    for i, value in enumerate(want):
        for got in (shuffled[order.index(i)], after[i], together[i]):
            assert got.dtype == value.dtype
            assert np.array_equal(got, value, equal_nan=True), type(nodes[i]).__name__


def _columns(mask):
    return np.array([mask >> i & 1 for i in range(DIM)], dtype=bool)


def _close_to_full_kernel(a, b, sa, sb):
    """``gp_batch`` over the supports ``sa``, ``sb`` against the full kernel.

    Within 1e-14 * max(1, max|value|), and bit for bit when the factor the
    masked product contracts over (the one with fewer blades) has one blade.
    """
    masked, full = gp_batch(a, b, sa, sb), gp_batch(a, b)
    assert masked.dtype == full.dtype and masked.shape == full.shape
    if min(bin(sa).count("1"), bin(sb).count("1")) == 1:
        assert np.array_equal(masked, full)
    scale = max(1.0, float(np.max(np.abs(full), initial=0.0)))
    assert np.max(np.abs(masked - full), initial=0.0) <= 1e-14 * scale


@settings(max_examples=40)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops)
def test_values_vanish_outside_the_support_and_masked_products_match(leaves, ops):
    for node in build(leaves, ops):
        value = reference(node, XS)
        assert not np.any(value[:, ~_columns(node.support)]), type(node).__name__
        if isinstance(node, Product) and not (node.left.is_scalar or node.right.is_scalar):
            lv, rv = (reference(e, XS) for e in (node.left, node.right))
            _close_to_full_kernel(lv, rv, node.left.support, node.right.support)


@settings(max_examples=60)
@given(st.integers(0, FULL), st.integers(0, FULL), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_masked_kernel_matches_the_full_kernel_on_any_supports(sa, sb, cplx_a, cplx_b, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(9, DIM)) * _columns(s) for s in (sa, sb))
    if cplx_a:
        a = a + 1j * a[::-1]
    if cplx_b:
        b = b + 1j * b[::-1]
    _close_to_full_kernel(a, b, sa, sb)
    _close_to_full_kernel(a[:1], b, sa, sb)  # a broadcast row
    for one in (1 << 3, 1 << 14):  # one blade: bit for bit
        _close_to_full_kernel(a, b * _columns(one), sa, one)
        _close_to_full_kernel(a * _columns(one), b, one, sb)


def test_supports_edge_cases():
    vector = Polynomial([(1 << mu, 0.5 + mu, tuple(np.eye(4, dtype=int)[mu])) for mu in range(4)])
    even = Polynomial([(0b0011, 0.7, (1, 0, 0, 0)), (0b1111, -0.2, (0, 0, 1, 0))])
    cplx = Polynomial([(0b0101, 0.3 + 0.4j, (0, 1, 0, 0)), (0b0110, 1.1, (0, 0, 0, 1))])
    assert even.support == 1 << 0b0011 | 1 << 0b1111
    # e_mu e01 and e_mu e0123: e1, e0, e012, e013 and e123, e023, e013, e012
    assert Product(vector, even).support == sum(1 << m for m in (0b0001, 0b0010, 0b0111, 0b1011,
                                                                 0b1101, 0b1110))

    # an empty support: zeros of the product's dtype and shape
    absent = GradeSelect(vector, {2})
    assert absent.support == 0 and absent.is_scalar
    for other in (even, cplx):
        want = complex if other.is_complex else float
        got = evaluate(Product(absent, other), XS)
        assert got.shape == (len(XS), DIM) and got.dtype == want and not np.any(got)
        a = np.zeros((len(XS), DIM))
        got = gp_batch(a, evaluate(other, XS), 0, other.support)
        assert got.shape == (len(XS), DIM) and got.dtype == want and not np.any(got)

    # a real factor times a complex one
    prod = Product(vector, cplx)
    value = evaluate(prod, XS)
    assert prod.is_complex and value.dtype == complex
    assert not np.any(value[:, ~_columns(prod.support)])
    _close_to_full_kernel(evaluate(vector, XS), evaluate(cplx, XS), vector.support, cplx.support)

    # a NaN in a supported column reaches the reducer's worst as NaN
    poisoned = Polynomial([(1 << 2, float("nan"), (0, 0, 0, 0)), (1 << 1, 1.0, (1, 0, 0, 0))])
    worst = fold_sups([("nan", (Product(poisoned, even), None))], XS)
    assert np.isnan(worst["nan"])


# -- the n-ary sum builders against the binary chain ----------------------------

_ZERO = Constant(Multivector.zero())


def _binary_terms(e):
    return e.terms if isinstance(e, Linear) else ((1.0, e),)


def _is_zero(e):
    return isinstance(e, Constant) and not e.support


def binary_sum(a, b):
    """a + b by the binary rules: every step of a chain is interned."""
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Constant) and isinstance(b, Constant):
        return Constant(a.value + b.value)
    return Linear(_binary_terms(a) + _binary_terms(b))


def binary_scale(c, a):
    if c == 0 or _is_zero(a):
        return _ZERO
    if c == 1:
        return a
    if isinstance(a, Constant):
        return Constant(c * a.value)
    terms = tuple((c * k, e) for k, e in _binary_terms(a))
    return terms[0][1] if len(terms) == 1 and terms[0][0] == 1 else Linear(terms)


def _linears_interned_by(build):
    """The node ``build()`` returns, and the ``Linear`` nodes it added to the table."""
    before = set(_NODES)
    node = build()
    return node, [n for k, n in _NODES.items() if k not in before and isinstance(n, Linear)]


# 0 and 1 take the builders' own branches; a power of two scales a one-term
# Linear of the recipe (scale by 2, say) back to a bare unit term, as -1j does
# one scaled by 1j; 1j and -1j also cancel constants to a complex zero
_pair_coefs = st.one_of(_scales, st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, -0.5, 1j, -1j]))


@settings(max_examples=80)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops,
       st.lists(st.tuples(_pair_coefs, st.integers(0, 63)), min_size=1, max_size=6))
def test_sum_builders_return_the_binary_chains_node_and_intern_only_it(leaves, ops, picks):
    nodes = build(leaves, ops)
    nodes += [f_scale(k, n) for n in nodes[-2:] for k in (0.5, -2.0, 1j)]  # one-term Linears
    pairs = [(c, nodes[i % len(nodes)]) for c, i in picks]

    combined, added = _linears_interned_by(lambda: f_combine(pairs))
    assert added in ([], [combined])
    summed, added = _linears_interned_by(lambda: f_sum(*(e for _, e in pairs)))
    assert added in ([], [summed])

    assert combined is reduce(lambda acc, ce: binary_sum(acc, binary_scale(*ce)), pairs, _ZERO)
    assert summed is reduce(binary_sum, [e for _, e in pairs])
    for c in {c for c, _ in picks} | {0.0, 1.0, 2.0, -0.5}:
        for e in nodes:
            assert f_scale(c, e) is binary_scale(c, e)


# -- fold_sups against the whole grid -------------------------------------------

CHUNKED = np.random.default_rng(31).uniform(0.0, 1.0, size=(1100, 4))  # chunks of 512, 512, 76
NON_SIMPLE = E(1) * E(2) + 0.7 * (E(0) * E(3)) + 0.3 * (E(0) * E(1))  # its square is no scalar


def _residuals(nodes):
    """Each node alone and each node against the one before it, under three shared names."""
    pairs = [(node, None) for node in nodes] + list(zip(nodes[1:], nodes))
    return [(f"r{i % 3}", pair) for i, pair in enumerate(pairs)]


def _sup(lhs, rhs):
    return float(np.max(np.abs(lhs if rhs is None else lhs - rhs)))


@settings(max_examples=50)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops, _vec4, _coef)
def test_chunked_fold_equals_the_whole_grid_sups(leaves, ops, slope, offset):
    nodes = build(leaves, ops)
    residuals = _residuals(nodes)
    values = {node: reference(node, CHUNKED) for node in nodes}  # the whole grid at once
    want: dict = {}
    for name, (lhs, rhs) in residuals:
        sup = _sup(values[lhs], None if rhs is None else values[rhs])
        want[name] = worst_of(want.get(name, 0.0), sup)

    chunks, left, run = [], [], fields._Plan.run

    def watched(plan, xs):
        chunks.append(xs)
        yield from run(plan, xs)
        left.append(len(plan.memo))

    exp = BivectorExp(NON_SIMPLE, ScalarLinear(slope, offset))
    with mock.patch.object(fields._Plan, "run", watched):
        got = fold_sups(residuals + [("exp", (exp, None))], CHUNKED)
    assert [len(c) for c in chunks] == [512, 512, 76]
    assert np.array_equal(np.concatenate(chunks), CHUNKED)
    assert left == [0, 0, 0]  # every chunk drops every value
    whole = _sup(exp._eval(CHUNKED, exp.s._eval(CHUNKED)), None)
    assert abs(got.pop("exp") - whole) <= 1e-13 * max(1.0, whole)
    assert got == want  # bit for bit


@settings(max_examples=50)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops)
def test_chunked_evaluate_many_equals_the_whole_grid_reference(leaves, ops):
    nodes = build(leaves, ops)
    chunks, left, run = [], [], fields._Plan.run

    def watched(plan, xs):
        chunks.append(len(xs))
        yield from run(plan, xs)
        left.append(len(plan.memo))

    with mock.patch.object(fields._Plan, "run", watched):
        got = evaluate_many(nodes + nodes[:1], CHUNKED)  # a repeated root too
    assert chunks == [512, 512, 76]
    assert left == [0, 0, 0]  # every chunk drops every value, the roots' too
    assert got[-1] is got[0]
    for node, value in zip(nodes, got):
        want = reference(node, CHUNKED)
        assert value.dtype == want.dtype and value.shape == want.shape
        assert np.array_equal(value, want, equal_nan=True), type(node).__name__


@settings(max_examples=50)
@given(st.lists(_leaves, min_size=1, max_size=4), _ops, st.integers(0, 63))
def test_one_fold_over_a_union_equals_two_folds(leaves, ops, cut):
    residuals = _residuals(build(leaves, ops))
    cut %= len(residuals) + 1
    a, b = fold_sups(residuals[:cut], XS), fold_sups(residuals[cut:], XS)
    assert fold_sups(residuals, XS) == {
        k: worst_of(*(d[k] for d in (a, b) if k in d)) for k in a | b}
