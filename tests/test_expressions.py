import math
import random

import numpy as np
import pytest
import sympy as sp

from _oracles import eval_with_derivatives
from dihedral_lab.expressions import (
    BinOp,
    Call,
    ExpressionDomainError,
    ExpressionSyntaxError,
    MetricNotPositiveDefinite,
    Neg,
    Num,
    Var,
    euclidean_metric,
    metric_at,
    metric_from_scene,
    parse_expression,
    parse_metric,
)


class TestParse:
    def test_value_example(self):
        e = parse_expression("x1^2 + sin(x2)")
        assert e.eval((1.0, 1.0)) == pytest.approx(1.0 + math.sin(1.0), abs=1e-12)
        assert e.eval((1.0, 1.0)) == pytest.approx(1.8414709848, abs=1e-9)

    def test_constant_zero(self):
        e = parse_expression("0")
        assert e.eval(()) == 0.0
        assert e.max_var() == 0

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("x1 +")
        assert exc.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x1 + y")
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("x0 + 1")

    def test_arity_mismatch(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("sin(x1, x2)")

    def test_unknown_function(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("foo(x1)")

    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_precedence(self):
        # ^ binds tighter than unary minus: -2^2 = -(2^2)
        assert parse_expression("-2^2").eval(()) == -4.0
        # right associativity: 2^3^2 = 2^(3^2)
        assert parse_expression("2^3^2").eval(()) == 512.0
        # unary minus in the exponent
        assert parse_expression("2^-2").eval(()) == 0.25
        assert parse_expression("2 + 3 * 4").eval(()) == 14.0
        assert parse_expression("(2 + 3) * 4").eval(()) == 20.0
        assert parse_expression("2 - 3 - 4").eval(()) == -5.0
        assert parse_expression("12 / 3 / 2").eval(()) == 2.0

    def test_scientific_literals(self):
        assert parse_expression("1.5e-3").eval(()) == 1.5e-3
        assert parse_expression("2E2").eval(()) == 200.0

    def test_error_offsets_mid_string(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("x1 + )")
        assert exc.value.offset == 5
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("sin(x1")
        assert exc.value.offset == 6
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("x1 $ x2")
        assert exc.value.offset == 3

    def test_whitespace_and_nesting(self):
        e = parse_expression("  ( ( x1 )  + cos( (x2) ) ) ")
        assert e.eval((2.0, 0.0)) == pytest.approx(3.0)

    def test_domain_errors(self):
        with pytest.raises(ExpressionDomainError):
            parse_expression("log(x1)").eval((-1.0,))
        with pytest.raises(ExpressionDomainError):
            parse_expression("sqrt(x1)").eval((-1.0,))
        with pytest.raises(ExpressionDomainError):
            parse_expression("1/x1").eval((0.0,))


def _random_expr(rng: random.Random, depth: int):
    """Random AST over x1..x3 for the round-trip property."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(round(rng.uniform(-5, 5), 3))
        return Var(rng.randrange(3))
    kind = rng.random()
    if kind < 0.15:
        return Neg(_random_expr(rng, depth - 1))
    if kind < 0.35:
        fn = rng.choice(["sin", "cos", "exp", "sinh", "cosh", "abs", "tan"])
        return Call(fn, _random_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = _random_expr(rng, depth - 1)
    right = _random_expr(rng, depth - 1)
    if op == "^":
        # keep powers tame so values stay finite and real
        right = Num(float(rng.randrange(-2, 3)))
    return BinOp(op, left, right)


def test_print_parse_roundtrip_1000_random_asts():
    rng = random.Random(20240601)
    checked = 0
    for _ in range(1000):
        ast = _random_expr(rng, depth=4)
        text = ast.to_text()
        reparsed = parse_expression(text)
        for _ in range(10):
            x = [rng.uniform(-2, 2) for _ in range(3)]
            try:
                a = ast.eval(x)
            except ExpressionDomainError:
                with pytest.raises(ExpressionDomainError):
                    reparsed.eval(x)
                continue
            if not math.isfinite(a):
                continue
            b = reparsed.eval(x)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
            checked += 1
    assert checked > 5000  # the property actually exercised evaluations


class TestDerivatives:
    def test_polynomial_first(self):
        e = parse_expression("x1^2")
        d = eval_with_derivatives(e, (3.0,), [(0,)])
        assert d[(0,)] == pytest.approx(6.0, abs=1e-8)

    def test_sin_second(self):
        e = parse_expression("sin(x1)")
        d = eval_with_derivatives(e, (0.0,), [(0, 0)])
        assert d[(0, 0)] == pytest.approx(0.0, abs=1e-6)

    def test_mixed_second_vs_symbolic_oracle(self):
        # oracle: d^2/dx1 dx2 exp(x1*x2) at (1,1) via sympy
        u, v = sp.symbols("u v")
        oracle = float(sp.diff(sp.exp(u * v), u, v).subs({u: 1, v: 1}))
        assert oracle == pytest.approx(2.0 * math.e, rel=1e-14)
        e = parse_expression("exp(x1*x2)")
        d = eval_with_derivatives(e, (1.0, 1.0), [(0, 1)])
        assert d[(0, 1)] == pytest.approx(oracle, abs=1e-5)

    def test_value_and_derivs_together(self):
        e = parse_expression("x1*x2^2")
        d = eval_with_derivatives(e, (2.0, 3.0), [(), (0,), (1,), (1, 1), (0, 1)])
        assert d[()] == pytest.approx(18.0, abs=1e-12)
        assert d[(0,)] == pytest.approx(9.0, abs=1e-7)
        assert d[(1,)] == pytest.approx(12.0, abs=1e-7)
        assert d[(1, 1)] == pytest.approx(4.0, abs=1e-5)
        assert d[(0, 1)] == pytest.approx(6.0, abs=1e-5)

    def test_order_limit(self):
        e = parse_expression("x1")
        with pytest.raises(ValueError):
            eval_with_derivatives(e, (0.0,), [(0, 0, 0)])

    @pytest.mark.parametrize("text,x", [
        ("sin(2*x1) + x1^3", (0.7,)),
        ("exp(x1)*cos(x1)", (0.3,)),
    ])
    def test_second_derivative_halving_ratio(self, text, x):
        # halving the step must cut the O(h^2) truncation error ~4x
        e = parse_expression(text)
        var = sp.symbols("x1")
        exact = float(sp.diff(sp.sympify(text.replace("^", "**")), var, 2).subs(var, x[0]))
        h = 1e-3
        err_h = abs(eval_with_derivatives(e, x, [(0, 0)], second_step=h)[(0, 0)] - exact)
        err_h2 = abs(eval_with_derivatives(e, x, [(0, 0)], second_step=h / 2)[(0, 0)] - exact)
        assert 3.5 <= err_h / err_h2 <= 4.5


_X = sp.symbols("x1 x2 x3", real=True)


def _sympy_jet(text, points):
    """Value, gradient and Hessian of ``text`` at each point, by sympy."""
    expr = sp.sympify(text.replace("^", "**"),
                      locals={**{str(v): v for v in _X}, "abs": sp.Abs})
    grad = [sp.diff(expr, v) for v in _X]
    hess = [[sp.diff(d, v) for v in _X] for d in grad]
    out = []
    for pt in points:
        subs = dict(zip(_X, pt))

        def ev(e):
            return float(sp.N(e.subs(subs), 30))

        out.append((ev(expr), [ev(d) for d in grad],
                    [[ev(d) for d in row] for row in hess]))
    return [np.array(part) for part in zip(*out)]


class TestJets:
    # together these cover the 9 functions, /, constant and non-constant ^
    # and unary minus
    CASES = [
        "sin(x1)*cos(x2) + tan(x1*x3)",
        "exp(x1 - x2)/sqrt(1 + x1^2 + x3^2)",
        "log(2 + x1*x2) * sinh(x3) - cosh(x1*x2)",
        "abs(x1 - 2*x2)^3 - x3^-2",
        "(1 + x2^2)^(x1*x3) + -x1^2.5/(x2 + x3)",
    ]
    POINTS = [(0.3, 0.7, -0.4), (0.6, 0.9, 1.3), (1.1, -0.2, 0.5)]

    @pytest.mark.parametrize("text", CASES)
    def test_against_sympy(self, text):
        points = [p for p in self.POINTS if "2.5" not in text or p[0] > 0]
        value, grad, hess = parse_expression(text).jet(np.array(points))
        want = _sympy_jet(text, points)
        for got, ref in zip((value, grad, hess), want):
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_random_asts_against_eval_and_finite_differences(self):
        # Central differences lose digits to rounding (eps |f| / h^2) and to
        # truncation (h^2 f^(4)).  Where they miss the jet by more than the
        # bound, sympy decides, and the jet must match it to 1e-10.
        rng = random.Random(20240602)
        wanted = ([()] + [(i,) for i in range(3)]
                  + [(i, j) for i in range(3) for j in range(i, 3)])
        upper = np.triu_indices(3)
        checked = refereed = 0
        for _ in range(300):
            ast = _random_expr(rng, depth=4)
            for _ in range(5):
                x = [rng.uniform(-2, 2) for _ in range(3)]
                try:
                    fd = eval_with_derivatives(ast, x, wanted)
                except ExpressionDomainError:
                    continue
                if not all(math.isfinite(v) for v in fd.values()):
                    continue
                value, grad, hess = (part[0] for part in ast.jet(np.array([x])))
                assert value == pytest.approx(ast.eval(x), rel=1e-12, abs=1e-12)
                assert np.array_equal(hess, hess.T)
                got = np.concatenate([grad, hess[upper]])
                ref = np.array([fd[key] for key in wanted[1:]])
                if np.any(np.abs(got - ref) > 1e-4 * np.maximum(1.0, np.abs(ref))):
                    _, sgrad, shess = _sympy_jet(ast.to_text(), [x])
                    exact = np.concatenate([sgrad[0], shess[0][upper]])
                    assert np.allclose(got, exact, rtol=1e-10, atol=1e-10)
                    refereed += 1
                checked += 1
        assert checked > 1000
        assert refereed < 0.01 * checked

    @pytest.mark.parametrize("text,x", [
        ("log(x1)", 0.0), ("log(x1)", -1.0), ("sqrt(x1)", 0.0),
        ("1/x1", 0.0), ("x1^0.5", -1.0), ("x1^x1", 0.0), ("(-1)^x1", 0.5),
        ("x1^0.5", 0.0), ("x1^1.5", 0.0), ("x1^-1", 0.0), ("exp(x1)", 800.0),
        ("x1*x1*x1*x1", 1e100),
    ])
    def test_domain_errors(self, text, x):
        # one bad row fails the whole batch
        with pytest.raises(ExpressionDomainError):
            parse_expression(text).jet(np.array([[0.5], [x]]))

    @pytest.mark.parametrize("text,grad,hess", [
        ("abs(x1)", 0.0, 0.0), ("x1^0", 0.0, 0.0), ("x1^1", 1.0, 0.0),
        ("x1^2", 0.0, 2.0), ("x1^2.5", 0.0, 0.0), ("x1^3", 0.0, 0.0),
    ])
    def test_derivatives_at_zero(self, text, grad, hess):
        value, g, h = parse_expression(text).jet(np.zeros((1, 1)))
        assert value[0] == parse_expression(text).eval((0.0,))
        assert (g[0, 0], h[0, 0, 0]) == (grad, hess)

    def test_shapes_and_constant(self):
        value, grad, hess = parse_expression("2.5").jet(np.ones((4, 3)))
        assert value.tolist() == [2.5] * 4
        assert grad.shape == (4, 3) and hess.shape == (4, 3, 3)
        assert not grad.any() and not hess.any()


class TestMetric:
    def test_euclidean(self):
        g = parse_metric({"11": "1", "22": "1"}, 2)
        assert np.allclose(metric_at(g, (0.3, -0.7)), np.eye(2))

    def test_sphere_chart_origin(self):
        g = parse_metric(
            {"11": "4/(1+x1^2+x2^2)^2", "22": "4/(1+x1^2+x2^2)^2"}, 2
        )
        assert np.allclose(metric_at(g, (0.0, 0.0)), 4.0 * np.eye(2))

    def test_missing_diagonal(self):
        with pytest.raises(ValueError):
            parse_metric({"11": "1"}, 2)

    def test_missing_offdiagonal_defaults_to_zero(self):
        g = parse_metric({"11": "1", "22": "1"}, 2)
        assert g.entry(0, 1).eval((1.0, 2.0)) == 0.0

    def test_not_positive_definite(self):
        g = parse_metric({"11": "-1"}, 1)
        with pytest.raises(MetricNotPositiveDefinite):
            metric_at(g, (0.0,))

    def test_symmetry_everywhere(self):
        g = parse_metric({"11": "1+x2^2", "12": "x1*x2", "22": "2"}, 2)
        for x in [(0.1, 0.2), (-1.0, 0.5), (2.0, -2.0)]:
            m = g.matrix_at(x)
            assert np.array_equal(m, m.T)

    def test_scene_loader(self):
        g = metric_from_scene({"dim": 2, "g": {"11": "1", "22": "1"}})
        assert g.dim == 2

    def test_scene_loader_missing_key(self):
        with pytest.raises(ValueError):
            metric_from_scene({"dim": 2})

    def test_bad_keys(self):
        with pytest.raises(ValueError):
            parse_metric({"111": "1"}, 3)
        with pytest.raises(ValueError):
            parse_metric({"13": "1", "11": "1", "22": "1"}, 2)

    def test_euclidean_helper(self):
        g = euclidean_metric(3)
        assert np.allclose(metric_at(g, (1.0, 2.0, 3.0)), np.eye(3))
