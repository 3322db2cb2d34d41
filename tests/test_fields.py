"""Field expressions: exact derivatives against finite differences, kinds."""

import ast
from pathlib import Path

import numpy as np
import pytest

from sta.algebra import (
    E,
    E21,
    GRADES,
    REVERSE_SIGNS,
    Multivector,
    complexify,
    exp_bivector,
    gp_batch,
)
from sta.errors import KindMismatch
from sta.fields import (
    BivectorExp,
    BladeCoeff,
    CliffordField,
    Constant,
    Field,
    FrameScalarField,
    GradeSelect,
    Kind,
    LeftSpinorField,
    Linear,
    Polynomial,
    Product,
    Reverse,
    RightSpinorField,
    ScalarGaussian,
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
    rotor_wave,
    worst_of,
)
from sta.geometry import Chart

from finite_differences import fd_directional, interior_grid

CHART = Chart([0, 0, 0, 0], [1, 1, 1, 1])


def sample_exprs():
    poly = Polynomial([(0b0011, 0.7, (1, 0, 2, 0)), (0, -0.3, (0, 1, 0, 1))])
    wave = rotor_wave(Multivector.scalar(1.0) + 0.2 * (E(1) * E(3)), -1.0 * E21,
                      [0.6, 0.2, 0.0, 0.1])
    return {
        "polynomial": poly,
        "scalar-linear": ScalarLinear([0.2, -0.1, 0.3, 0.05], 0.4),
        "scalar-sine": ScalarSine(0.8, [1.0, 0.5, 0.0, 0.3], 0.2),
        "scalar-gaussian": ScalarGaussian(0.9, [0.5, 1.0, 0.7, 0.3], [0.5] * 4),
        "rotor-wave": wave,
        "exp-hyperbolic": BivectorExp(E(1) * E(0), ScalarSine(0.4, [0.5, 1, 0, 0], 0.1)),
        "exp-general": BivectorExp(0.5 * (E(0) * E(1)) + 0.4 * (E(2) * E(3)),
                                   ScalarLinear([0.3, 0, 0.2, 0])),
        "product": f_product(poly, wave),
        "reverse": Reverse(f_product(poly, wave)),
        "grade-select": GradeSelect(f_product(poly, wave), {0, 2}),
        "blade-coeff": BladeCoeff(wave, 0b0110),
        "sum": f_sum(poly, wave),
    }


@pytest.mark.parametrize("name", sorted(sample_exprs()))
def test_derivatives_match_central_differences(name):
    """Every constructor's analytic derivative agrees with an O(h^2) FD."""
    expr = sample_exprs()[name]
    xs = interior_grid(CHART, 3, 0.1)
    for mu in range(4):
        analytic = evaluate(expr.partial(mu), xs)
        err_h = np.max(np.abs(fd_directional(expr, xs, mu, 1e-3) - analytic))
        err_h2 = np.max(np.abs(fd_directional(expr, xs, mu, 5e-4) - analytic))
        assert err_h < 1e-5
        if err_h > 1e-12:  # below that, rounding noise hides the h^2 law
            assert err_h / max(err_h2, 1e-300) > 3.5


def test_second_derivatives_also_exact():
    expr = sample_exprs()["product"]
    xs = interior_grid(CHART, 3, 0.15)
    d01 = expr.partial(0).partial(1)
    fd = fd_directional(expr.partial(0), xs, 1, 1e-3)
    assert np.max(np.abs(evaluate(d01, xs) - fd)) < 1e-5


def test_polynomial_degree_cap():
    with pytest.raises(ValueError):
        Polynomial([(0, 1.0, (2, 2, 0, 0))])


def test_bivector_exp_requires_grade_two():
    with pytest.raises(ValueError):
        BivectorExp(E(0), ScalarLinear([1, 0, 0, 0]))


def test_bivector_exp_requires_a_scalar_argument():
    # _eval reads only the scalar slot of s, while _partial differentiates all of s
    with pytest.raises(ValueError, match="scalar expression"):
        BivectorExp(E(1) * E(2), Polynomial([(0b0010, 0.5, (1, 0, 0, 0))]))
    BivectorExp(E(1) * E(2), Polynomial([(0, 0.5, (1, 0, 0, 0))]))


def test_bivector_exp_series_matches_matrix_route():
    # general (non-simple) bivector: check against an independent
    # matrix-exponential series in the gamma representation
    from sta.spinors import rho, rho_batch

    B = 0.5 * (E(0) * E(1)) + 0.4 * (E(2) * E(3))
    s_expr = ScalarLinear([0.3, 0, 0.2, 0])
    expr = BivectorExp(B, s_expr)
    xs = CHART.grid(2)
    vals = evaluate(expr, xs)
    svals = evaluate(s_expr, xs)[:, 0]
    M = rho(B)
    for row, s in zip(vals, svals):
        acc = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for n in range(1, 60):
            term = term @ (M * s) / n
            acc = acc + term
        assert np.max(np.abs(rho_batch(row[None, :])[0] - acc)) < 1e-12


def test_bivector_exp_series_independent_of_evaluation_order():
    B = E(1) * E(2) + 0.7 * (E(0) * E(3)) + 0.3 * (E(0) * E(1))
    small = np.array([[0.01, 0.0, 0.0, 0.0]])
    large = np.array([[6.0, 0.0, 0.0, 0.0]])

    def fresh(xs):
        return evaluate(BivectorExp(B, ScalarLinear([1, 0, 0, 0])), xs)

    expr = BivectorExp(B, ScalarLinear([1, 0, 0, 0]))
    evaluate(expr, small)
    got = evaluate(expr, large)[0]
    assert np.max(np.abs(got - exp_bivector(6.0 * B).coeffs)) < 1e-11
    assert np.array_equal(got, fresh(large)[0])
    # a smaller argument after a larger one uses the terms a fresh node would
    assert np.array_equal(evaluate(expr, small), fresh(small))


def test_evaluation_memo_consistency():
    expr = sample_exprs()["product"]
    xs = CHART.grid(3)
    a = evaluate(expr, xs)
    evaluate(sample_exprs()["sum"], xs)  # other evaluations in between change nothing
    b = evaluate(expr, xs)
    c, d = evaluate_many([expr, expr], xs)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    assert c is d  # a repeated root is one node of the plan


def test_evaluate_shares_subtrees_without_memo(monkeypatch):
    shared = ScalarSine(0.7, [1, 0, 0.5, 0], 0.1)
    calls = []
    sine_eval = ScalarSine._eval

    def counted(self, xs, *vals):
        calls.append(self)
        return sine_eval(self, xs, *vals)

    monkeypatch.setattr(ScalarSine, "_eval", counted)
    expr = f_product(shared, f_sum(shared, Constant(E(1))))
    xs = CHART.grid(3)
    got = evaluate(expr, xs)
    assert calls == [shared]
    s = sine_eval(shared, xs)[:, :1]
    assert np.array_equal(got, s * (s * np.eye(16)[0] + E(1).coeffs))


def test_repeated_children_reach_eval_once_per_appearance():
    xs = CHART.grid(3)
    a = sample_exprs()["product"]
    c = Constant(Multivector.scalar(0.5) + E(1) + 0.3 * (E(0) * E(2)))
    va = evaluate(a, xs)
    square, double = Product(a, a), f_sum(a, a)
    left, right = Product(c, a), Product(a, c)
    assert square.children == (a, a)
    assert isinstance(double, Linear) and double.children == (a, a)
    assert left.children == right.children == (a,)
    got = evaluate_many([square, double, left, right, a], xs)
    assert np.array_equal(got[0], gp_batch(va, va, a.support, a.support))
    assert np.array_equal(got[1], va + va)
    assert np.array_equal(got[2], gp_batch(c.value.coeffs, va, c.support, a.support))
    assert np.array_equal(got[3], gp_batch(va, c.value.coeffs, a.support, c.support))
    assert np.array_equal(got[4], va)
    assert np.array_equal(evaluate(square, xs), got[0])


def test_deep_chain_evaluates_without_recursion():
    xs = CHART.grid(2)
    leaf = sample_exprs()["polynomial"]
    expr = leaf
    for _ in range(300):  # 600 nodes deep
        expr = Reverse(GradeSelect(expr, {0, 2}))
    mask = np.isin(GRADES, [0, 2])
    assert np.array_equal(evaluate(expr, xs), evaluate(leaf, xs) * mask)


def test_sums_and_scalings_fold_into_one_linear_node():
    ex = sample_exprs()
    a, b, c = ex["polynomial"], ex["rotor-wave"], ex["scalar-sine"]
    d = Constant(Multivector(np.arange(16.0)))
    expr = f_sum(f_sum(a, b), f_scale(2, f_sum(c, d)))
    assert isinstance(expr, Linear)
    assert [(k, e) for k, e in expr.terms] == [(1.0, a), (1.0, b), (2.0, c), (2.0, d)]

    xs = CHART.grid(3)
    kept = evaluate(a, xs)

    def oracle(f):
        return f(a) + f(b) + 2.0 * (f(c) + f(d))

    va, got = evaluate_many([a, expr], xs)
    assert got == pytest.approx(oracle(lambda e: evaluate(e, xs)), rel=1e-14)
    assert np.array_equal(va, kept)  # the child's value, read by Linear, stays untouched
    for mu in range(4):
        want = oracle(lambda e: evaluate(e.partial(mu), xs))
        assert evaluate(expr.partial(mu), xs) == pytest.approx(want, rel=1e-14, abs=1e-14)
    want = oracle(lambda e: evaluate(e, xs) * REVERSE_SIGNS)
    assert evaluate(f_reverse(expr), xs) == pytest.approx(want, rel=1e-14)


def test_scalar_flags():
    assert ScalarLinear([1, 0, 0, 0]).is_scalar
    assert ScalarSine(1.0, [1, 0, 0, 0]).is_scalar
    assert ScalarGaussian(1.0, [1, 1, 1, 1], [0, 0, 0, 0]).is_scalar
    assert BladeCoeff(sample_exprs()["rotor-wave"], 3).is_scalar
    assert not Constant(E(1)).is_scalar
    assert Constant(Multivector.scalar(2.0)).is_scalar


def test_product_fast_paths_agree_with_kernel():
    from sta.algebra import gp_batch

    rng = np.random.default_rng(0)
    xs = CHART.grid(3)
    generic = sample_exprs()["rotor-wave"]
    gv = evaluate(generic, xs)
    cases = [
        Constant(Multivector(rng.normal(size=16))),
        ScalarSine(0.7, [1, 0, 0.5, 0], 0.1),
    ]
    for c in cases:
        cv = evaluate(c, xs)
        left = evaluate(f_product(c, generic), xs)
        right = evaluate(f_product(generic, c), xs)
        assert np.max(np.abs(left - gp_batch(np.asarray(cv), gv))) < 1e-13
        assert np.max(np.abs(right - gp_batch(gv, np.asarray(cv)))) < 1e-13


# Every pair of kinds, written out by hand: the kind of F * G, or None where
# the product is refused.  Kind's rule (r_F + l_G = 0, then (l_F, r_G)) must
# reproduce it.
C_, L_, R_, S_ = Kind.CLIFFORD, Kind.LEFT, Kind.RIGHT, Kind.FRAME_SCALAR
PRODUCT_KINDS = {
    (C_, C_): C_, (C_, L_): L_, (C_, R_): None, (C_, S_): None,
    (L_, C_): None, (L_, L_): None, (L_, R_): C_, (L_, S_): L_,
    (R_, C_): R_, (R_, L_): S_, (R_, R_): None, (R_, S_): None,
    (S_, C_): None, (S_, L_): None, (S_, R_): R_, (S_, S_): S_,
}


def test_kind_product_table():
    expr = Constant(Multivector.scalar(1.0))
    assert len(PRODUCT_KINDS) == 16
    for (a, b), want in PRODUCT_KINDS.items():
        if want is None:
            with pytest.raises(KindMismatch, match=f"^no product for {a} \\* {b}$"):
                _ = Field(a, expr) * Field(b, expr)
        else:
            assert (Field(a, expr) * Field(b, expr)).kind is want, (a, b)


def test_kinds_are_their_actions_and_print_their_names():
    assert [(k.value, str(k)) for k in Kind] == [
        ((0.5, -0.5), "clifford"), ((0.5, 0.0), "left"), ((0.0, -0.5), "right"),
        ((0.0, 0.0), "frame-scalar")]
    assert repr(LeftSpinorField(Constant(E(1)))) == "Field(left, Constant)"


def test_field_addition_requires_matching_kind():
    expr = Constant(Multivector.scalar(1.0))
    with pytest.raises(KindMismatch):
        _ = CliffordField(expr) + LeftSpinorField(expr)


def test_right_constant_action_on_left_fields():
    # the constant algebra acts on left fields from the right
    L = LeftSpinorField(Constant(E(1) * E(0)))
    out = L * E21
    assert out.kind is Kind.LEFT
    got = evaluate(out.expr, CHART.grid(2))[0]
    want = (E(1) * E(0) * E21).coeffs
    assert np.allclose(got, want)


def test_reversal_swaps_spinor_sides():
    expr = Constant(E(1) * E(0))
    assert LeftSpinorField(expr).reverse().kind is Kind.RIGHT
    assert RightSpinorField(expr).reverse().kind is Kind.LEFT
    assert CliffordField(expr).reverse().kind is Kind.CLIFFORD
    assert FrameScalarField(expr).reverse().kind is Kind.FRAME_SCALAR
    x = CHART.grid(2)
    got = evaluate(f_reverse(f_product(expr, Constant(E(2)))), x)[0]
    want = (E(2).reverse() * (E(1) * E(0)).reverse()).coeffs
    assert np.allclose(got, want)


# -- hash-consing ----------------------------------------------------------------

def test_structurally_equal_nodes_are_one_object():
    s = ScalarSine(0.7, [1, 0, 0.5, 0], 0.1)
    wave = sample_exprs()["rotor-wave"]

    def build():
        c = Constant(E(1) * E(2) + 0.5 * E(3))
        lin = Linear(((1.0, s), (2.0, c)))
        prod = Product(lin, wave)
        return {
            "constant": c,
            "linear": lin,
            "product": prod,
            "reverse": Reverse(prod),
            "grade-select": GradeSelect(prod, [0, 2]),
            "blade-coeff": BladeCoeff(prod, 3),
            "bivector-exp": BivectorExp(E(0) * E(1), s),
            "folded": f_sum(f_product(wave, c), f_scale(-1.5, s)),
        }

    first, second = build(), build()
    for name in first:
        assert first[name] is second[name], name
    assert GradeSelect(first["product"], (2, 0)) is first["grade-select"]
    assert BladeCoeff(first["product"], np.int64(3)) is first["blade-coeff"]
    # rebuilt nodes share their cached partial derivatives
    assert second["product"].partial(2) is first["product"].partial(2)
    # leaves are not interned: equal parameters give separate nodes
    assert ScalarSine(0.7, [1, 0, 0.5, 0], 0.1) is not s


def test_float_and_complex_values_stay_distinct_nodes():
    s = ScalarSine(0.7, [1, 0, 0.5, 0], 0.1)
    real, cplx = Constant(Multivector.scalar(2.0)), Constant(Multivector.scalar(2.0 + 0j))
    assert real is not cplx
    assert not real.is_complex and cplx.is_complex
    lr, lc = Linear(((1.0, s), (2.0, real))), Linear(((1 + 0j, s), (2.0, real)))
    assert lr is not lc
    assert not lr.is_complex and lc.is_complex
    xs = CHART.grid(2)
    assert evaluate(lr, xs).dtype == float and evaluate(lc, xs).dtype == complex
    B = E(0) * E(1)
    er, ec = BivectorExp(B, s), BivectorExp(Multivector(B.coeffs.astype(complex)), s)
    assert er is not ec
    assert not er.is_complex and ec.is_complex


def test_complex_zero_constant_folds():
    z = Constant(complexify(Multivector.zero()))
    x = sample_exprs()["rotor-wave"]
    assert z.is_scalar
    assert f_sum(z, x) is x and f_sum(x, z) is x
    for folded in (f_product(z, x), f_product(x, z), f_scale(3.0, z), f_scale(0, x)):
        assert isinstance(folded, Constant) and not np.any(folded.value.coeffs)
    # a sum of zero constants only is the last of them, where f_combine gives the real zero
    real = Constant(Multivector.zero())
    assert f_sum(z) is z and f_sum(real, z) is z and f_sum(z, real) is real
    assert f_combine([(1.0, z)]) is real and f_combine([(1.0, real), (1.0, z)]) is real


def _built_once_under_threads(workers, rounds, build_one):
    """Run ``build_one(i)`` for every round in ``workers`` threads at once.

    Each round must give every thread the same object.
    """
    import sys
    import threading

    got = [[] for _ in range(workers)]
    errors = []
    barrier = threading.Barrier(workers)

    def build(out):
        try:
            barrier.wait()
            for i in range(rounds):
                out.append(build_one(i))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(g,)) for g in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors and all(len(g) == rounds for g in got)
    for i in range(rounds):
        assert all(g[i] is got[0][i] for g in got)


def test_concurrent_builders_get_one_node():
    base = np.random.default_rng(0).normal(size=16)  # values no other test builds

    def build_one(i):
        c = Constant(Multivector(base + i))
        return Product(c, Reverse(c))

    _built_once_under_threads(8, 200, build_one)


def test_two_threads_building_the_same_sum_of_products_get_one_object():
    # leaves are not interned, so the threads share these
    pairs = [(Polynomial([(1, float(i), (1, 0, 0, 0))]), Polynomial([(2, 1.0, (0, 1, 0, 0))]))
             for i in range(300)]

    def build_one(i):
        a, b = pairs[i]
        return f_sum(f_product(a, b), f_product(b, a))

    _built_once_under_threads(2, len(pairs), build_one)


def _structure_numbers():
    """A number per node structure, assigned without the interning table.

    Leaves are numbered by identity, like the table treats them.
    """
    by_node, by_structure = {}, {}

    def number(e):
        n = by_node.get(e)
        if n is None:
            if isinstance(e, Linear):
                key = ("linear",) + tuple((type(c), c, number(t)) for c, t in e.terms)
            elif isinstance(e, Product):
                key = ("product", number(e.left), number(e.right))
            elif isinstance(e, Constant):
                key = ("constant", e.value.coeffs.dtype.str, e.value.coeffs.tobytes())
            elif isinstance(e, Reverse):
                key = ("reverse", number(e.arg))
            elif isinstance(e, GradeSelect):
                key = ("grades", number(e.arg), e.grades)
            elif isinstance(e, BladeCoeff):
                key = ("blade", number(e.arg), e.mask)
            elif isinstance(e, BivectorExp):
                key = ("exp", e.B.coeffs.dtype.str, e.B.coeffs.tobytes(), number(e.s))
            else:
                key = ("leaf", id(e))
            n = by_node[e] = by_structure.setdefault(key, len(by_structure))
        return n

    return number


def _leibniz_pairs():
    """The four named Leibniz residuals of one derivative-suite iteration, and the grid."""
    from sta.geometry import cov_deriv_clifford, cov_deriv_left, cov_deriv_right, effective_deriv
    from sta.scenario import Scenario, load_config
    from sta.suites import _rng, random_field_expr, random_setup

    scn = Scenario(dict(load_config("torsion-toy"), grid=2, suites=["derivatives"]))
    rng = _rng(scn, "derivatives")
    setup = random_setup(scn, rng)
    V = rng.normal(size=4)
    A = CliffordField(random_field_expr(rng))
    bexpr = random_field_expr(rng)
    B, P, F = CliffordField(bexpr), LeftSpinorField(bexpr), RightSpinorField(bexpr)
    psi = CliffordField(random_field_expr(rng, even=True))
    pairs = [
        ("leibniz-clifford", cov_deriv_clifford(A * B, V, setup),
         cov_deriv_clifford(A, V, setup) * B + A * cov_deriv_clifford(B, V, setup)),
        ("leibniz-left", cov_deriv_left(A * P, V, setup),
         A * cov_deriv_left(P, V, setup) + cov_deriv_clifford(A, V, setup) * P),
        ("leibniz-right", cov_deriv_right(F * A, V, setup),
         F * cov_deriv_clifford(A, V, setup) + cov_deriv_right(F, V, setup) * A),
        ("leibniz-effective", effective_deriv(A * psi, 1, setup),
         cov_deriv_clifford(A, np.eye(4)[1], setup) * psi
         + A * effective_deriv(psi, 1, setup)),
    ]
    return [(name, (lhs.expr, rhs.expr)) for name, lhs, rhs in pairs], scn.chart.grid(scn.grid)


def test_leibniz_iteration_multiplies_each_distinct_product_once(monkeypatch):
    """One iteration of the derivative suite's Leibniz loop, as the suite runs it."""
    from collections import Counter

    from sta import fields

    pairs, xs = _leibniz_pairs()
    number = _structure_numbers()
    evaluating, general = [], []
    product_eval, kernel = Product._eval, fields.gp_batch

    def observed_eval(self, xs, *vals):
        evaluating.append(self)
        try:
            return product_eval(self, xs, *vals)
        finally:
            evaluating.pop()

    def observed_kernel(a, b, *masks):
        if np.ndim(a) == 2 and np.ndim(b) == 2:  # neither factor a constant
            general.append(number(evaluating[-1]))
        return kernel(a, b, *masks)

    monkeypatch.setattr(Product, "_eval", observed_eval)
    monkeypatch.setattr(fields, "gp_batch", observed_kernel)

    sups = fold_sups(pairs, xs)
    assert len(sups) == 4 and all(d < 1e-9 for d in sups.values()), sups
    assert len(general) >= 20
    repeated = {n: k for n, k in Counter(general).items() if k > 1}
    assert not repeated, f"{len(repeated)} products reached the kernel more than once"


def _watch_evaluation(monkeypatch):
    """Record every node ``_eval`` and every plan memo after each step, with its peak size."""
    from sta import fields

    seen = {"nodes": [], "memos": {}, "peak": 0, "live": [], "rows": [], "runs": []}
    real = fields._Plan.run

    def watched(plan, xs):
        seen["memos"][id(plan.memo)] = plan.memo
        run = {"rows": len(xs), "peak": 0}
        seen["runs"].append(run)
        for node in real(plan, xs):
            seen["peak"] = max(seen["peak"], len(plan.memo))
            run["peak"] = max(run["peak"], len(plan.memo))
            seen["live"].append(set(plan.memo))
            yield node
        run["left"] = len(plan.memo)

    monkeypatch.setattr(fields._Plan, "run", watched)
    pending = [fields.FieldExpr]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "_eval" in cls.__dict__:
            def node_eval(self, xs, *vals, _eval=cls.__dict__["_eval"]):
                seen["nodes"].append(self)
                seen["rows"].append(len(xs))
                return _eval(self, xs, *vals)

            monkeypatch.setattr(cls, "_eval", node_eval)
    return seen


def test_sup_diffs_equal_per_pair_evaluation_with_a_shared_memo():
    pairs, xs = _leibniz_pairs()
    want = {name: float(np.max(np.abs(evaluate(l, xs) - evaluate(r, xs))))
            for name, (l, r) in pairs}
    got = fold_sups(pairs, xs)
    assert got == want  # bit for bit
    assert fold_sups([(name, (l, None)) for name, (l, _) in pairs], xs) == {
        name: float(np.max(np.abs(evaluate(l, xs)))) for name, (l, _) in pairs}


def test_sup_diffs_evaluates_each_node_once_and_drops_every_value(monkeypatch):
    from collections import Counter

    pairs, xs = _leibniz_pairs()
    seen = _watch_evaluation(monkeypatch)
    fold_sups(pairs, xs)
    counts = Counter(seen["nodes"])
    assert len(counts) > 50
    assert set(counts.values()) == {1}, "a node was evaluated more than once"
    (memo,) = seen["memos"].values()  # one memo serves the whole call
    assert memo == {}, f"{len(memo)} values outlived the call"
    assert seen["peak"] < len(counts), (seen["peak"], len(counts))
    # the first pair is reduced, and its sides released, before the last pair is evaluated
    first, last = pairs[0][1], pairs[-1][1][1]
    assert not any(last in live and (first[0] in live or first[1] in live) for live in seen["live"])


def test_sup_diffs_order_is_reproducible(monkeypatch):
    pairs, xs = _leibniz_pairs()
    seen = _watch_evaluation(monkeypatch)
    fold_sups(pairs, xs)
    first = list(seen["nodes"])
    seen["nodes"].clear()
    fold_sups(pairs, xs)
    assert seen["nodes"] == first


def test_sup_diffs_keep_a_nan_pair_nan():
    xs = CHART.grid(2)
    broken = Polynomial([(0, float("nan"), (1, 0, 0, 0))])
    fine = ScalarSine(0.8, [1.0, 0.5, 0.0, 0.3], 0.2)
    shared = f_product(fine, Constant(E(1)))
    pairs = [("nan", (f_sum(shared, broken), shared)), ("fine", (shared, f_scale(2.0, shared))),
             ("nan-alone", (broken, None))]
    sups = fold_sups(pairs, xs)
    assert np.isnan(sups["nan"]) and np.isnan(sups["nan-alone"])
    assert sups["fine"] == float(np.max(np.abs(evaluate(shared, xs))))
    assert np.isnan(worst_of(0.0, sups["nan"], 1.0)) and np.isnan(worst_of(sups["nan"], 1.0))
    assert worst_of(0.0, 2.0, 1.0) == 2.0


def test_evaluate_many_keeps_only_the_roots(monkeypatch):
    pairs, xs = _leibniz_pairs()
    roots = [e for _, pair in pairs for e in pair]
    want = [evaluate(e, xs) for e in roots]
    seen = _watch_evaluation(monkeypatch)
    got = evaluate_many(roots, xs)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    (memo,) = seen["memos"].values()
    assert memo == {}, f"{len(memo)} values outlived the call"  # the roots live in the outputs


def test_value_map_sharing_nodes_with_a_pair_evaluates_each_node_once(monkeypatch):
    from collections import Counter

    pairs, xs = _leibniz_pairs()
    lhs, rhs = pairs[0][1]
    nodes = (lhs, rhs, lhs.children[0])  # both sides of a pair and a node inside them
    fn = lambda l, r, c: (l - r) * 2.0 - c
    want = float(np.max(np.abs(fn(*evaluate_many(nodes, xs)))))
    seen = _watch_evaluation(monkeypatch)
    got = fold_sups(pairs + [("map", nodes, fn)], xs)
    assert got["map"] == want  # bit for bit
    assert set(got) == {"map"} | {name for name, _ in pairs}
    counts = Counter(seen["nodes"])
    assert set(counts.values()) == {1}, "a node was evaluated more than once"
    (memo,) = seen["memos"].values()
    assert memo == {}, f"{len(memo)} values outlived the call"


def test_value_map_fires_once_its_last_node_exists():
    xs = CHART.grid(2)
    early = ScalarSine(0.8, [1.0, 0.5, 0.0, 0.3], 0.2)
    late = f_product(f_product(early, Constant(E(1))), Constant(E(2)))  # planned after early
    vals = {e: evaluate(e, xs) for e in (early, late)}
    got = fold_sups([("late-first", (late, early), lambda a, b: a - b),
                     ("early-first", (early, late), lambda a, b: a + b)], xs)
    assert got == {"late-first": float(np.max(np.abs(vals[late] - vals[early]))),
                   "early-first": float(np.max(np.abs(vals[early] + vals[late])))}


def test_value_map_keeps_a_nan_under_its_name():
    xs = CHART.grid(2)
    broken = Polynomial([(0, float("nan"), (1, 0, 0, 0))])
    fine = ScalarSine(0.8, [1.0, 0.5, 0.0, 0.3], 0.2)
    # both "broken" residuals are reduced when fine exists: the NaN first, then a finite sup
    worst = fold_sups([("broken", (broken, fine), lambda b, f: f - b), ("broken", (fine, None)),
                       ("fine", (fine,), lambda f: f)], xs)
    assert np.isnan(worst["broken"])
    assert worst["fine"] == float(np.max(np.abs(evaluate(fine, xs))))


def test_one_fold_over_both_lists_equals_the_worst_of_two_folds():
    xs = CHART.grid(2)
    a = ScalarSine(0.8, [1.0, 0.5, 0.0, 0.3], 0.2)
    b = ScalarLinear([0.2, -0.1, 0.3, 0.05], 0.4)
    calls = ([("x", (a, None)), ("y", (b, None)), ("z", (a, b))],
             [("x", (b, None)), ("y", (a, None)), ("z", (f_scale(3.0, a), b))])
    first, second = (fold_sups(residuals, xs) for residuals in calls)
    both = fold_sups(calls[0] + calls[1], xs)
    assert both == {k: worst_of(first[k], second[k]) for k in first}
    assert first["x"] != second["x"] and first["z"] != second["z"]


# -- chunks: fold_sups runs its plan over 512-row chunks -------------------------


def _chunked_points():
    """1,100 points: two full chunks of 512 rows and a partial one of 76."""
    return np.random.default_rng(29).uniform(0.0, 1.0, size=(1100, 4))


def test_chunked_sups_equal_whole_grid_evaluation_bit_for_bit():
    pairs, _ = _leibniz_pairs()
    xs = _chunked_points()
    want = {name: float(np.max(np.abs(evaluate(l, xs) - evaluate(r, xs))))
            for name, (l, r) in pairs}
    assert fold_sups(pairs, xs) == want


def test_chunks_reuse_one_plan_and_hold_at_most_512_rows(monkeypatch):
    from collections import Counter

    pairs, _ = _leibniz_pairs()
    seen = _watch_evaluation(monkeypatch)
    fold_sups(pairs, _chunked_points())
    assert len(seen["memos"]) == 1  # one plan, built once
    assert [run["rows"] for run in seen["runs"]] == [512, 512, 76]
    assert max(seen["rows"]) == 512  # no _eval receives more
    assert set(Counter(seen["nodes"]).values()) == {3}  # each node once per chunk
    # every chunk starts from the full use counts: same peak, and no value left behind
    assert len({run["peak"] for run in seen["runs"]}) == 1
    assert [run["left"] for run in seen["runs"]] == [0, 0, 0]


def test_a_nan_only_in_the_last_partial_chunk_stays_nan_under_its_name():
    xs = _chunked_points()
    xs[1090, 0] = np.nan
    late = Polynomial([(0b0001, 0.5, (1, 0, 0, 0))])  # NaN only at the row whose x0 is NaN
    fine = Polynomial([(0b0010, 0.7, (0, 1, 0, 0)), (0, -0.3, (0, 0, 2, 0))])
    sups = fold_sups([("late", (fine, None)), ("late", (late, fine)), ("fine", (fine, None))], xs)
    assert np.isnan(sups["late"])
    assert sups["fine"] == float(np.max(np.abs(evaluate(fine, xs))))


def test_non_simple_bivector_exp_per_chunk_stays_within_its_bound():
    B = E(1) * E(2) + 0.7 * (E(0) * E(3)) + 0.3 * (E(0) * E(1))  # B^2 is not a scalar
    xs = _chunked_points()
    xs = xs[np.argsort(xs[:, 0])]  # |s| grows from chunk to chunk, and each sizes its series
    node = BivectorExp(B, ScalarLinear([6.0, 0.0, 0.0, 0.0]))
    chunks = []
    fold_sups([("exp", (node,), lambda v: chunks.append(v) or v)], xs)
    whole = evaluate(node, xs)
    got = np.concatenate(chunks)
    assert np.max(np.abs(got - whole)) <= 1e-13 * max(1.0, float(np.max(np.abs(whole))))


def test_a_constant_only_residual_is_reduced_on_one_row(monkeypatch):
    xs = _chunked_points()
    real = Constant(Multivector(np.linspace(-0.9, 0.8, 16)))
    cplx = Constant(Multivector(np.linspace(0.3, -0.6, 16) + 1j * np.linspace(-0.2, 0.7, 16)))
    poly = Polynomial([(0b0110, 0.7, (1, 0, 2, 0))])
    residuals = [("pair", (real, cplx)), ("size", (cplx, None)),
                 ("map", (real, cplx), lambda a, b: 2.0 * a - b * b), ("poly", (poly, None))]
    values = {node: evaluate(node, xs) for node in (real, cplx, poly)}
    want = {"pair": float(np.max(np.abs(values[real] - values[cplx]))),
            "size": float(np.max(np.abs(values[cplx]))),
            "map": float(np.max(np.abs(2.0 * values[real] - values[cplx] * values[cplx]))),
            "poly": float(np.max(np.abs(values[poly])))}
    rows = []
    constant_eval = Constant._eval
    monkeypatch.setattr(Constant, "_eval",
                        lambda node, xs: rows.append(len(xs)) or constant_eval(node, xs))
    assert fold_sups(residuals, xs) == want  # bit for bit
    assert rows and max(rows) == 1  # each constant's one row, out of the chunked plan
    assert fold_sups(residuals, xs[:0]) == {}  # no points, no sups


def _chained_sums(source: str) -> list[int]:
    """Lines of ``source`` that build a field sum as a chain of binary sums.

    That is a ``sum(...)`` whose start value is a field (``Constant(...)``
    or ``_ZERO``), or, in a loop, ``acc = f_sum(...)`` or
    ``acc = f_combine(...)`` whose arguments read ``acc``.
    """
    def is_field_start(node):
        return (isinstance(node, ast.Name) and node.id == "_ZERO"
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Constant")

    def called(node, *names):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in names)

    tree, lines = ast.parse(source), []
    for node in ast.walk(tree):
        if called(node, "sum"):
            starts = node.args[1:] + [k.value for k in node.keywords if k.arg == "start"]
            if any(map(is_field_start, starts)):
                lines.append(node.lineno)
        if isinstance(node, (ast.For, ast.While)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign) and called(sub.value, "f_sum", "f_combine"):
                    targets = {t.id for t in sub.targets if isinstance(t, ast.Name)}
                    if any(isinstance(n, ast.Name) and n.id in targets
                           for n in ast.walk(sub.value)):
                        lines.append(sub.lineno)
    return sorted(set(lines))


def test_chained_sums_are_found():
    assert _chained_sums("x = sum((f(t) for t in ts), Constant(0.0))") == [1]
    assert _chained_sums("x = sum(ts, start=_ZERO)") == [1]
    assert _chained_sums("for t in ts:\n    acc = f_sum(acc, t)") == [2]
    assert _chained_sums("while ts:\n    acc = f_combine([(1.0, acc), (2.0, ts.pop())])") == [2]
    assert _chained_sums("n = sum(1 for c in checks)\nfor t in ts:\n    out = f_sum(t, u)") == []


def test_src_builds_every_field_sum_with_the_n_ary_builder():
    # a chain of binary sums interns a node per link that no plan evaluates;
    # f_combine and f_sum build the same node and intern only it
    src = Path(__file__).resolve().parent.parent / "src" / "sta"
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := _chained_sums(path.read_text()))}
    assert found == {}


def _calls_in_loops(source: str, name: str) -> list[int]:
    """Lines of ``source`` that call the function ``name`` once per iteration of a loop.

    That is a call in the body or the condition of a ``for`` or ``while``
    loop, or in a comprehension anywhere but its first iterable, which is
    evaluated once.
    """
    def calls(parts):
        return [sub.lineno for part in parts for sub in ast.walk(part)
                if isinstance(sub, ast.Call) and name in (getattr(sub.func, "id", None),
                                                          getattr(sub.func, "attr", None))]

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            lines += calls(node.body)
        elif isinstance(node, ast.While):
            lines += calls([node.test, *node.body])
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            first, *rest = node.generators
            parts = [getattr(node, k) for k in ("elt", "key", "value") if hasattr(node, k)]
            lines += calls([*parts, *first.ifs, *rest])
    return sorted(set(lines))


def _src_calls_in_loops(name: str) -> dict:
    """The files of ``src/sta`` that call ``name`` in a loop, with the lines."""
    src = Path(__file__).resolve().parent.parent / "src" / "sta"
    return {path.name: lines for path in sorted(src.glob("*.py"))
            if (lines := _calls_in_loops(path.read_text(), name))}


def test_folds_in_loops_are_found():
    def _folds_in_loops(source):
        return _calls_in_loops(source, "fold_sups")

    assert _folds_in_loops("for rs in scopes:\n    fold_sups(rs, xs)") == [2]
    assert _folds_in_loops("while todo:\n    w = fields.fold_sups(todo.pop(), xs)") == [2]
    assert _folds_in_loops("ws = [fold_sups(rs, xs) for rs in scopes]") == [1]
    assert _folds_in_loops("w = {k: v for rs in rss for k, v in fold_sups(rs, x).items()}") == [1]
    assert _folds_in_loops("for k, v in fold_sups(rs, xs).items():\n    print(k, v)") == []
    assert _folds_in_loops("w = fold_sups([r for rs in scopes for r in rs], xs)") == []
    assert _folds_in_loops("w = {k: v for k, v in fold_sups(rs, xs).items()}") == []


def test_transports_in_loops_are_found():
    def _transports_in_loops(source):
        return _calls_in_loops(source, "parallel_transport")

    assert _transports_in_loops("for v in vs:\n    parallel_transport([v], k, c, s)") == [2]
    assert _transports_in_loops("while vs:\n    geometry.parallel_transport([vs.pop()], k, c, s)"
                                ) == [2]
    assert _transports_in_loops("outs = [parallel_transport([v], k, c, s) for v in vs]") == [1]
    assert _transports_in_loops("d = {v: parallel_transport([v], k, c, s)[0] for v in vs}") == [1]
    assert _transports_in_loops("for out in parallel_transport(vs, k, c, s):\n    use(out)") == []
    assert _transports_in_loops("outs = parallel_transport([v * f for v in vs], k, c, s)") == []
    assert _transports_in_loops("n = [len(v) for v in parallel_transport(vs, k, c, s)]") == []


@pytest.mark.parametrize("name", ["fold_sups", "parallel_transport", "evaluate", "evaluate_many"])
def test_src_makes_no_batched_call_in_a_loop(name):
    # one call per batch: one plan over all of a suite's residuals, or over all the fields
    # a computation reads, evaluates the nodes they share once per chunk; one transport
    # call evaluates omega and builds each propagator once; a call per loop step does
    # that work again
    assert _src_calls_in_loops(name) == {}
