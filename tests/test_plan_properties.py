"""Differential property tests of the evaluator on random field DAGs.

A recipe is a list of leaves and a list of operations, each of which reads
earlier nodes by index, so the DAGs share subtrees.  For every recipe the
plan (``evaluate_many``) must equal a recursive reference evaluator bit for
bit, the exact partial derivatives must agree with central differences, and
building the recipe again must give the same node objects.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sta.algebra import DIM, GRADES, CMultivector, Multivector, gp_batch
from sta.fields import (
    Constant,
    Linear,
    Polynomial,
    Product,
    Reverse,
    ScalarLinear,
    ScalarSine,
    evaluate,
    evaluate_many,
    f_product,
    f_reverse,
    f_scale,
    f_sum,
)
from sta.geometry import Chart, fd_directional

XS = Chart([0, 0, 0, 0], [1, 1, 1, 1]).interior_grid(2, 0.2)
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
        return gp_batch(lv, rv)
    if isinstance(node, Reverse):
        return reference(node.arg, xs) * REVERSE_SIGNS
    assert not node.children, type(node).__name__
    return node._eval(xs)


_coef = st.floats(-1.5, 1.5, allow_subnormal=False)
_vec4 = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=4, max_size=4)
_blades = st.lists(st.integers(0, DIM - 1), min_size=1, max_size=3, unique=True)

_coefs = st.lists(_coef, min_size=3, max_size=3)


def _constant(blades, re, im=None):
    """A constant with the coefficients ``re`` (+ i ``im``) on up to three ``blades``."""
    coeffs = np.bincount(blades, re[:len(blades)], DIM)
    if im is None:
        return Constant(Multivector(coeffs))
    return Constant(CMultivector(coeffs + 1j * np.bincount(blades, im[:len(blades)], DIM)))


_leaves = st.one_of(
    st.builds(lambda v: Constant(Multivector.scalar(v)), _coef),
    st.builds(_constant, _blades, _coefs),
    st.builds(_constant, _blades, _coefs, _coefs),
    st.builds(lambda cs, mu: Polynomial([(m, c, tuple(np.eye(4, dtype=int)[mu])) for m, c in
                                         enumerate(cs)]),  # every blade, so every grade
              st.lists(_coef, min_size=DIM, max_size=DIM), st.integers(0, 3)),
    st.builds(lambda terms: Polynomial(terms),
              st.lists(st.tuples(st.integers(0, DIM - 1), _coef,
                                 st.builds(lambda mu, p: tuple(np.eye(4, dtype=int)[mu] * p),
                                           st.integers(0, 3), st.integers(0, 3))),
                       min_size=1, max_size=3)),
    st.builds(ScalarLinear, _vec4, _coef),
    st.builds(ScalarSine, _coef, _vec4, _coef),
)

_scales = st.one_of(_coef, st.builds(complex, _coef, _coef))
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
