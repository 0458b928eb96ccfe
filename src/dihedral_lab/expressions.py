"""Scalar expressions over chart coordinates and symmetric metric fields.

The expression grammar is fixed:

    variables   x1, x2, ..., xn
    literals    decimal / scientific notation
    operators   + - * / ^   (unary minus; ^ is right associative)
    functions   sin cos tan exp log sqrt sinh cosh abs

Precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``.

Values are plain floats; all derivative queries are served by central finite
differences so that re-serialized scene files evaluate identically on any
platform.  Every object here is immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Expr",
    "ExpressionError",
    "ExpressionSyntaxError",
    "ExpressionDomainError",
    "MetricField",
    "MetricNotPositiveDefinite",
    "parse_expression",
    "eval_with_derivatives",
    "parse_metric",
    "metric_at",
    "metric_from_scene",
]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "abs": abs,
}

# Central finite-difference steps (scaled by max(1, |x_i|) per axis).
FIRST_ORDER_STEP = 1e-6
SECOND_ORDER_STEP = 1e-4


class ExpressionError(ValueError):
    """Base class for expression failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExpressionDomainError(ExpressionError):
    """Evaluation left the domain of a subexpression (log of <= 0, ...)."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Immutable expression tree node."""

    __slots__ = ()

    def __call__(self, x: Sequence[float]) -> float:
        return self.eval(x)

    def eval(self, x: Sequence[float]) -> float:
        raise NotImplementedError

    def max_var(self) -> int:
        """Largest 1-based variable index used (0 for constants)."""
        raise NotImplementedError

    def to_text(self) -> str:
        return self._text(0)

    def _text(self, parent_prec: int) -> str:
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_text()!r})"


# Precedence levels used by the printer; mirror the parser.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float

    def eval(self, x):
        return self.value

    def max_var(self):
        return 0

    def _text(self, parent_prec):
        if self.value >= 0:
            return repr(self.value)
        return f"({self.value!r})"


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int  # 0-based

    def eval(self, x):
        try:
            return float(x[self.index])
        except IndexError:
            raise ExpressionDomainError(
                f"point has no coordinate x{self.index + 1}"
            ) from None

    def max_var(self):
        return self.index + 1

    def _text(self, parent_prec):
        return f"x{self.index + 1}"


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr

    def eval(self, x):
        return -self.arg.eval(x)

    def max_var(self):
        return self.arg.max_var()

    def _text(self, parent_prec):
        s = f"-{self.arg._text(_PREC_NEG)}"
        return f"({s})" if parent_prec > _PREC_NEG else s


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, x):
        a = self.left.eval(x)
        b = self.right.eval(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if b == 0.0:
                raise ExpressionDomainError("division by zero")
            return a / b
        # power
        try:
            v = a**b
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ExpressionDomainError(f"invalid power {a}^{b}") from exc
        if isinstance(v, complex):
            raise ExpressionDomainError(f"non-real power {a}^{b}")
        return v

    def max_var(self):
        return max(self.left.max_var(), self.right.max_var())

    def _text(self, parent_prec):
        if self.op in "+-":
            prec = _PREC_ADD
            s = f"{self.left._text(prec)} {self.op} {self.right._text(prec + 1)}"
        elif self.op in "*/":
            prec = _PREC_MUL
            s = f"{self.left._text(prec)}{self.op}{self.right._text(prec + 1)}"
        else:  # ^ right associative: left operand needs the higher level
            prec = _PREC_POW
            s = f"{self.left._text(prec + 1)}^{self.right._text(prec)}"
        return f"({s})" if parent_prec > prec else s


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr

    def eval(self, x):
        v = self.arg.eval(x)
        try:
            return FUNCTIONS[self.func](v)
        except ValueError as exc:
            raise ExpressionDomainError(f"{self.func}({v}) out of domain") from exc
        except OverflowError as exc:
            raise ExpressionDomainError(f"{self.func}({v}) overflows") from exc

    def max_var(self):
        return self.arg.max_var()

    def _text(self, parent_prec):
        return f"{self.func}({self.arg._text(0)})"


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # num ident op lparen rparen comma end
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ExpressionSyntaxError(f"bad numeric literal '{lit}'", i)
            tokens.append(_Token("num", lit, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
        elif ch == ",":
            tokens.append(_Token("comma", ch, i))
        else:
            raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionSyntaxError(f"expected {what}", tok.offset)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {tok.text!r}", tok.offset)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            e = BinOp(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            # exponent may carry a unary minus: x^-2
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "lparen":
                if name not in FUNCTIONS:
                    raise ExpressionSyntaxError(f"unknown function '{name}'", tok.offset)
                self.advance()
                args = [self.expr()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.expr())
                self.expect("rparen", "')'")
                if len(args) != 1:
                    raise ExpressionSyntaxError(
                        f"function '{name}' takes 1 argument, got {len(args)}",
                        tok.offset,
                    )
                return Call(name, args[0])
            if name.startswith("x") and name[1:].isdigit() and int(name[1:]) >= 1:
                return Var(int(name[1:]) - 1)
            raise ExpressionSyntaxError(f"unknown identifier '{name}'", tok.offset)
        if tok.kind == "lparen":
            self.advance()
            e = self.expr()
            self.expect("rparen", "')'")
            return e
        raise ExpressionSyntaxError("expected a value", tok.offset)


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExpressionSyntaxError` (with byte offset) on malformed
    input, unknown identifiers or wrong function arity.
    """
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Finite-difference evaluation
# ---------------------------------------------------------------------------


def _steps(x: Sequence[float], base: float) -> np.ndarray:
    return np.array([base * max(1.0, abs(float(xi))) for xi in x])


def eval_with_derivatives(
    e: Expr,
    x: Sequence[float],
    wanted: Sequence[tuple[int, ...]],
    first_step: float = FIRST_ORDER_STEP,
    second_step: float = SECOND_ORDER_STEP,
) -> dict[tuple[int, ...], float]:
    """Evaluate ``e`` and the requested partial derivatives at ``x``.

    ``wanted`` holds multi-indices as tuples of 0-based axis indices:
    ``()`` for the value, ``(i,)`` for d/dx_i, ``(i, j)`` for the mixed
    second derivative.  Central stencils; truncation error is O(step^2).
    """
    x = [float(v) for v in x]
    h1 = _steps(x, first_step)
    h2 = _steps(x, second_step)
    out: dict[tuple[int, ...], float] = {}
    for idx in wanted:
        if len(idx) > 2:
            raise ValueError(f"derivative order {len(idx)} > 2 not supported")
        key = tuple(sorted(idx))
        if key in out:
            continue
        if key == ():
            out[key] = e.eval(x)
        elif len(key) == 1:
            (i,) = key
            xp, xm = list(x), list(x)
            xp[i] += h1[i]
            xm[i] -= h1[i]
            out[key] = (e.eval(xp) - e.eval(xm)) / (2.0 * h1[i])
        elif key[0] == key[1]:
            i = key[0]
            xp, xm = list(x), list(x)
            xp[i] += h2[i]
            xm[i] -= h2[i]
            out[key] = (e.eval(xp) - 2.0 * e.eval(x) + e.eval(xm)) / (h2[i] ** 2)
        else:
            i, j = key
            vals = 0.0
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                xx = list(x)
                xx[i] += si * h2[i]
                xx[j] += sj * h2[j]
                vals += si * sj * e.eval(xx)
            out[key] = vals / (4.0 * h2[i] * h2[j])
    return {tuple(sorted(idx)): out[tuple(sorted(idx))] for idx in wanted}


# ---------------------------------------------------------------------------
# Metric fields
# ---------------------------------------------------------------------------


class MetricNotPositiveDefinite(ValueError):
    """The metric matrix failed the positive-definiteness check at a point."""


@dataclass(frozen=True)
class MetricField:
    """Symmetric n x n field of expressions; only i <= j entries are stored."""

    dim: int
    entries: dict  # (i, j) 0-based with i <= j -> Expr

    def entry(self, i: int, j: int) -> Expr:
        if i > j:
            i, j = j, i
        return self.entries[(i, j)]

    def matrix_at(self, x: Sequence[float]) -> np.ndarray:
        n = self.dim
        g = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                v = self.entry(i, j).eval(x)
                g[i, j] = v
                g[j, i] = v
        return g

    def first_derivatives(self, x: Sequence[float]) -> np.ndarray:
        """dg[k, i, j] = d g_ij / d x_k."""
        n = self.dim
        dg = np.empty((n, n, n))
        for i in range(n):
            for j in range(i, n):
                e = self.entry(i, j)
                vals = eval_with_derivatives(e, x, [(k,) for k in range(n)])
                for k in range(n):
                    dg[k, i, j] = vals[(k,)]
                    dg[k, j, i] = vals[(k,)]
        return dg

    def second_derivatives(self, x: Sequence[float]) -> np.ndarray:
        """d2g[a, b, i, j] = d^2 g_ij / d x_a d x_b."""
        n = self.dim
        d2g = np.empty((n, n, n, n))
        idx = [(a, b) for a in range(n) for b in range(a, n)]
        for i in range(n):
            for j in range(i, n):
                vals = eval_with_derivatives(self.entry(i, j), x, idx)
                for a, b in idx:
                    v = vals[(a, b)]
                    for ii, jj in ((i, j), (j, i)):
                        d2g[a, b, ii, jj] = v
                        d2g[b, a, ii, jj] = v
        return d2g

    def scaled(self, factor: Expr) -> "MetricField":
        """Pointwise product metric ``factor * g`` (factor an expression)."""
        return MetricField(
            self.dim,
            {key: BinOp("*", factor, e) for key, e in self.entries.items()},
        )


def parse_metric(spec: dict, dim: int) -> MetricField:
    """Build a :class:`MetricField` from ``{"11": "...", "12": "...", ...}``.

    Keys are 1-based concatenated index strings for i <= j.  Missing
    off-diagonal entries default to "0"; missing diagonal entries are an
    error.
    """
    if dim < 1:
        raise ValueError("metric dimension must be positive")
    if not isinstance(spec, dict):
        raise ExpressionError("metric 'g' must be an object of entry expressions")
    entries: dict[tuple[int, int], Expr] = {}
    seen = set()
    for key, text in spec.items():
        skey = str(key)
        if len(skey) != 2 or not skey.isdigit():
            raise ValueError(f"bad metric entry key {key!r}; expected e.g. '12'")
        i, j = int(skey[0]) - 1, int(skey[1]) - 1
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"metric entry {key!r} out of range for dim {dim}")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise ValueError(f"duplicate metric entry {key!r}")
        if not isinstance(text, (str, Expr)):
            raise ExpressionError(f"metric entry {key!r} must be an expression string")
        seen.add((i, j))
        entries[(i, j)] = text if isinstance(text, Expr) else parse_expression(text)
    zero = Num(0.0)
    for i in range(dim):
        if (i, i) not in entries:
            raise ValueError(f"missing diagonal metric entry g{i + 1}{i + 1}")
        for j in range(i + 1, dim):
            entries.setdefault((i, j), zero)
    return MetricField(dim, entries)


def metric_at(g: MetricField, x: Sequence[float]) -> np.ndarray:
    """Metric matrix at ``x``; raises if not positive definite there."""
    mat = g.matrix_at(x)
    eig = np.linalg.eigvalsh(mat)
    if eig[0] <= 0.0:
        raise MetricNotPositiveDefinite(
            f"metric at {list(x)} has smallest eigenvalue {eig[0]:.3e}"
        )
    return mat


def metric_from_scene(scene: dict) -> MetricField:
    """Load a metric from scene JSON ``{"dim": n, "g": {...}}``."""
    if not isinstance(scene, dict):
        raise ExpressionError("metric scene must be a JSON object")
    try:
        dim = int(scene["dim"])
        spec = scene["g"]
    except KeyError as exc:
        raise ValueError(f"metric scene missing key {exc}") from exc
    except TypeError as exc:
        raise ExpressionError("metric scene 'dim' must be an integer") from exc
    return parse_metric(spec, dim)


def euclidean_metric(dim: int) -> MetricField:
    """Flat metric delta_ij."""
    return parse_metric({f"{i}{i}": "1" for i in range(1, dim + 1)}, dim)
