import math
import random

import numpy as np
import pytest
import sympy as sp

from _oracles import eval_with_derivatives, expr_jet
from dihedral_lab.curvature import curvature_tensors
from dihedral_lab.expressions import (
    _MAX_DEPTH,
    BinOp,
    Call,
    Expr,
    ExpressionDomainError,
    ExpressionError,
    ExpressionSyntaxError,
    MetricNotPositiveDefinite,
    Neg,
    Num,
    Var,
    euclidean_metric,
    metric_from_scene,
    parse_expression,
    parse_metric,
)


def tree(e):
    """The structure of an expression tree as nested tuples: each node's
    class name and fields, subtrees in turn (nodes are equal only to
    themselves)."""
    fields = (getattr(e, name) for name in type(e).__slots__)
    return (type(e).__name__, *(tree(v) if isinstance(v, Expr) else v for v in fields))


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

    @pytest.mark.parametrize("text, message, offset", [
        ("1.2.3", "bad numeric literal '1.2.3'", 0),
        ("1e999", "bad numeric literal '1e999'", 0),
        ("x1 $ x2", "unexpected character '$'", 3),
        (".", "unexpected character '.'", 0),
        ("x1 +", "expected a value", 4),
        ("x1 + )", "expected a value", 5),
        ("()", "expected a value", 1),
        ("sin(x1", "expected ')'", 6),
        ("foo(x1)", "unknown function 'foo'", 0),
        ("x1(2)", "unknown function 'x1'", 0),
        ("sin(x1, x2)", "function 'sin' takes 1 argument, got 2", 0),
        ("x0", "unknown identifier 'x0'", 0),
        ("y", "unknown identifier 'y'", 0),
        ("sin x1", "unknown identifier 'sin'", 0),
        ("x\u00b2", "unknown identifier 'x\u00b2'", 0),
        ("2e", "unexpected token 'e'", 1),
        ("1e+", "unexpected token 'e'", 1),
        ("1 2", "unexpected token '2'", 2),
        ("", "empty expression", 0),
    ])
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(text)
        assert (str(exc.value), exc.value.offset) == (f"{message} (offset {offset})", offset)

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

    @pytest.mark.parametrize("text, x", [
        ("1e308*10", ()), ("x1*x1", (1e200,)), ("x1 + x1", (1.7e308,)),
        ("1e300/x1", (1e-300,)), ("-1e308 - x1", (1e308,)),
    ])
    def test_overflow_is_a_domain_error(self, text, x):
        e = parse_expression(text)
        with pytest.raises(ExpressionDomainError, match=r"is not finite$"):
            e.eval(x)


def _grammar_text(rng: random.Random, level: int = 0, depth: int = 3) -> str:
    """Random grammar-valid text with float literals, randomly spaced: sums
    at level 0, products at 1, and at 2 a unary minus or a power whose
    exponent may carry one, so that ``^`` chains such as ``a ^ -b ^ c``
    occur."""
    def space():
        return rng.choice(("", "", " ", "  "))
    if level < 2:
        ops = "+-" if level == 0 else "*/"
        text = _grammar_text(rng, level + 1, depth)
        for _ in range(rng.choice((0, 0, 1, 2))):
            text += space() + rng.choice(ops) + space() + _grammar_text(rng, level + 1, depth)
        return text
    if rng.random() < 0.2:
        return "-" + space() + _grammar_text(rng, 2, depth)
    kind = rng.random() if depth > 0 else 0.0
    if kind < 0.5:
        atom = rng.choice(("x1", "x2", "x3", f"{rng.uniform(0.0, 3.0):.3f}",
                           "2.", ".5", "1e-1", "2.5E+0", "0.0"))
    elif kind < 0.75:
        atom = "(" + space() + _grammar_text(rng, 0, depth - 1) + space() + ")"
    else:
        fn = rng.choice(["sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "abs"])
        atom = fn + space() + "(" + _grammar_text(rng, 0, depth - 1) + ")"
    if depth > 0 and rng.random() < 0.3:
        return atom + space() + "^" + space() + _grammar_text(rng, 2, depth - 1)
    return atom


class TestDepthBound:
    """``parse_expression`` counts levels on every path from the root, nodes
    and parentheses alike, and rejects more than ``_MAX_DEPTH`` of them at
    the token where the bound is passed."""

    @pytest.mark.parametrize("text", ["x1" + " + x1" * (_MAX_DEPTH - 1),
                                      "-" * (_MAX_DEPTH - 1) + "x1",
                                      "(" * (_MAX_DEPTH - 1) + "x1" + ")" * (_MAX_DEPTH - 1),
                                      "x1^" * (_MAX_DEPTH - 1) + "x1"])
    def test_at_the_bound_parses_and_evaluates(self, text):
        e = parse_expression(text)
        assert e.eval([0.5]) == pytest.approx(eval(text.replace("x1", "0.5").replace("^", "**")))
        assert tree(parse_expression(e.to_text())) == tree(e)

    @pytest.mark.parametrize("text, offset", [
        ("x1" + " + x1" * _MAX_DEPTH, 3 + 5 * (_MAX_DEPTH - 1)),  # the last '+'
        ("-" * _MAX_DEPTH + "x1", _MAX_DEPTH),  # the operand on level 201
        ("(" * _MAX_DEPTH + "x1" + ")" * _MAX_DEPTH, _MAX_DEPTH),
        ("-" * (_MAX_DEPTH - 1) + "x1*2", _MAX_DEPTH + 1),  # '*' tops 200 levels
        ("(" + "-" * (_MAX_DEPTH - 2) + "x1)^2", _MAX_DEPTH + 2),  # so does '^'
    ])
    def test_past_the_bound_is_a_syntax_error(self, text, offset):
        with pytest.raises(ExpressionSyntaxError, match="nested deeper than 200 levels") as exc:
            parse_expression(text)
        assert exc.value.offset == offset


def test_parse_matches_pythons_own_parser():
    """An independent oracle: Python parses the same text with ``^`` read as
    ``**`` (also right associative, binding tighter than unary minus, with a
    signed exponent), and evaluates the same float operations."""
    rng = random.Random(8128)
    names = {fn: getattr(math, fn) for fn in
             ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")}
    names["abs"] = abs
    checked = 0
    for _ in range(20000):
        text = _grammar_text(rng)
        x = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        try:
            value = parse_expression(text).eval(x)
        except ExpressionDomainError:
            continue
        scope = dict(names, x1=x[0], x2=x[1], x3=x[2])
        expected = eval(text.replace("^", "**"), {"__builtins__": {}}, scope)
        assert value == expected, text
        checked += 1
    assert checked > 5000


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
        # print o parse is a fixed point after one round
        assert tree(parse_expression(reparsed.to_text())) == tree(reparsed)
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


class TestNodeEquality:
    """``MetricField.jet_parts`` shares one jet between entries that are one
    tree, so nodes must not change and unequal entries must keep their own
    jets."""

    def test_nodes_are_immutable(self):
        e = parse_expression("x1 + 2")
        with pytest.raises(AttributeError):
            e.left = Num(0.0)
        with pytest.raises(AttributeError):
            Num(1.0).value = 2.0
        with pytest.raises(AttributeError):
            del e.op
        assert e.to_text() == BinOp("+", Var(0), Num(2.0)).to_text()

    def test_metric_jet_keeps_unequal_entries_apart(self):
        g = parse_metric({"11": "1", "22": "x2"}, 2)
        for x in [(0.3, -0.7), (1.1, 0.4)]:
            _, dg, _ = g.jet_parts(x)
            assert dg[1][1][1] == 1.0
            assert dg[0][0][0] == 0.0


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
        value, grad, hess = expr_jet(parse_expression(text), points)
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
                value, grad, hess = (part[0] for part in expr_jet(ast, [x]))
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
        with pytest.raises(ExpressionDomainError):
            parse_expression(text).jet_parts((x,))

    @pytest.mark.parametrize("text,grad,hess", [
        ("abs(x1)", 0.0, 0.0), ("x1^0", 0.0, 0.0), ("x1^1", 1.0, 0.0),
        ("x1^2", 0.0, 2.0), ("x1^2.5", 0.0, 0.0), ("x1^3", 0.0, 0.0),
    ])
    def test_derivatives_at_zero(self, text, grad, hess):
        value, g, h = expr_jet(parse_expression(text), [(0.0,)])
        assert value[0] == parse_expression(text).eval((0.0,))
        assert (g[0, 0], h[0, 0, 0]) == (grad, hess)

    def test_shapes_and_constant(self):
        value, grad, hess = expr_jet(parse_expression("2.5"), np.ones((4, 3)))
        assert value.tolist() == [2.5] * 4
        assert grad.shape == (4, 3) and hess.shape == (4, 3, 3)
        assert not grad.any() and not hess.any()


class TestMetric:
    def test_euclidean(self):
        g = parse_metric({"11": "1", "22": "1"}, 2)
        assert np.allclose(g.matrix_at((0.3, -0.7)), np.eye(2))

    def test_sphere_chart_origin(self):
        g = parse_metric(
            {"11": "4/(1+x1^2+x2^2)^2", "22": "4/(1+x1^2+x2^2)^2"}, 2
        )
        assert np.allclose(g.matrix_at((0.0, 0.0)), 4.0 * np.eye(2))

    def test_missing_diagonal(self):
        with pytest.raises(ValueError):
            parse_metric({"11": "1"}, 2)

    def test_missing_offdiagonal_defaults_to_zero(self):
        g = parse_metric({"11": "1", "22": "1"}, 2)
        assert g.entries[0, 1].eval((1.0, 2.0)) == 0.0

    def test_not_positive_definite(self):
        g = parse_metric({"11": "-1"}, 1)
        assert g.matrix_at((0.0,)) == [[-1.0]]
        with pytest.raises(MetricNotPositiveDefinite):
            curvature_tensors(g, (0.0,))

    def test_symmetry_everywhere(self):
        g = parse_metric({"11": "1+x2^2", "12": "x1*x2", "22": "2"}, 2)
        for x in [(0.1, 0.2), (-1.0, 0.5), (2.0, -2.0)]:
            m = np.array(g.matrix_at(x))
            assert np.array_equal(m, m.T)

    def test_scene_loader(self):
        g = metric_from_scene({"dim": 2, "g": {"11": "1", "22": "1"}})
        assert g.dim == 2

    @pytest.mark.parametrize("dim", [2.0, 2.7, "2", True, [2]])
    def test_scene_dim_must_be_a_json_integer(self, dim):
        with pytest.raises(ExpressionError, match="^metric scene 'dim' must be an integer$"):
            metric_from_scene({"dim": dim, "g": {"11": "1", "22": "1"}})

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
        assert np.allclose(g.matrix_at((1.0, 2.0, 3.0)), np.eye(3))
