"""Scalar expressions over chart coordinates and symmetric metric fields.

The expression grammar is fixed:

    variables   x1, x2, ..., xn
    literals    decimal / scientific notation
    operators   + - * / ^   (unary minus; ^ is right associative)
    functions   sin cos tan exp log sqrt sinh cosh abs

Precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``.

Values are plain floats.  First and second derivatives are exact: every
node propagates its (value, gradient, Hessian) jet over an ``(m, n)`` array
of points by forward-mode Taylor arithmetic (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed.).  Every object here is immutable after
construction.
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

# (f, f', f'') of each function for the chain rule of the jets; abs'(0) = 0
_JET_FUNCTIONS = {
    "sin": (np.sin, np.cos, lambda v: -np.sin(v)),
    "cos": (np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v)),
    "tan": (np.tan, lambda v: 1.0 / np.cos(v) ** 2,
            lambda v: 2.0 * np.tan(v) / np.cos(v) ** 2),
    "exp": (np.exp, np.exp, np.exp),
    "log": (np.log, lambda v: 1.0 / v, lambda v: -1.0 / v**2),
    "sqrt": (np.sqrt, lambda v: 0.5 / np.sqrt(v), lambda v: -0.25 / v**1.5),
    "sinh": (np.sinh, np.cosh, np.sinh),
    "cosh": (np.cosh, np.sinh, np.cosh),
    "abs": (np.abs, np.sign, np.zeros_like),
}


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

    def jet(self, x: np.ndarray):
        """Exact value ``(m,)``, gradient ``(m, n)`` and Hessian ``(m, n, n)``
        at the rows of ``x`` (shape ``(m, n)``); raises
        :class:`ExpressionDomainError` where a point leaves the domain of a
        subexpression or any entry is not finite, such as the derivative of
        ``x^c`` at ``x = 0`` for ``c < 2`` other than 0 and 1."""
        with np.errstate(all="ignore"):
            out = self._jet(np.asarray(x, dtype=float))
            if not all(np.isfinite(part).all() for part in out):
                raise ExpressionDomainError(
                    f"{self.to_text()} or one of its derivatives is not finite")
        return out

    def max_var(self) -> int:
        """Largest 1-based variable index used (0 for constants)."""
        raise NotImplementedError

    def to_text(self) -> str:
        return self._text(0)

    def _text(self, parent_prec: int) -> str:
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_text()!r})"


def _chain(jet, f, d1, d2):
    """Jet of phi(u) from the jet of u and phi, phi', phi'' at u's value."""
    _, grad, hess = jet
    outer = grad[:, :, None] * grad[:, None, :]
    return f, d1[:, None] * grad, d1[:, None, None] * hess + d2[:, None, None] * outer


def _product(a, b):
    (u, gu, hu), (v, gv, hv) = a, b
    cross = gu[:, :, None] * gv[:, None, :]
    # the bracketed sum keeps the Hessian bitwise symmetric
    return (u * v, gu * v[:, None] + u[:, None] * gv,
            hu * v[:, None, None] + u[:, None, None] * hv
            + (cross + cross.transpose(0, 2, 1)))


# Precedence levels used by the printer; mirror the parser.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float

    def eval(self, x):
        return self.value

    def _jet(self, x):
        m, n = x.shape
        return np.full(m, self.value), np.zeros((m, n)), np.zeros((m, n, n))

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

    def _jet(self, x):
        m, n = x.shape
        if self.index >= n:
            raise ExpressionDomainError(f"point has no coordinate x{self.index + 1}")
        grad = np.zeros((m, n))
        grad[:, self.index] = 1.0
        return x[:, self.index].copy(), grad, np.zeros((m, n, n))

    def max_var(self):
        return self.index + 1

    def _text(self, parent_prec):
        return f"x{self.index + 1}"


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr

    def eval(self, x):
        return -self.arg.eval(x)

    def _jet(self, x):
        return tuple(-part for part in self.arg._jet(x))

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

    def _jet(self, x):
        if self.op == "^" and self.right.max_var() > 0:
            # a^b = exp(b log a), real only where a > 0 (the log checks it)
            return Call("exp", BinOp("*", self.right, Call("log", self.left)))._jet(x)
        a = self.left._jet(x)
        if self.op == "^":
            c, base = self.right.eval(()), a[0]
            if not float(c).is_integer() and np.any(base < 0.0):
                raise ExpressionDomainError(f"non-real power {self.to_text()}")
            # exponents 0 and 1 skip base^(c-1) / base^(c-2), infinite at 0
            d1 = c * base ** (c - 1.0) if c != 0.0 else 0.0 * base
            d2 = c * (c - 1.0) * base ** (c - 2.0) if c not in (0.0, 1.0) else 0.0 * base
            return _chain(a, base**c, d1, d2)
        b = self.right._jet(x)
        if self.op in "+-":
            combine = np.add if self.op == "+" else np.subtract
            return tuple(combine(p, q) for p, q in zip(a, b))
        if self.op == "/":
            v = b[0]
            if np.any(v == 0.0):
                raise ExpressionDomainError("division by zero")
            b = _chain(b, 1.0 / v, -1.0 / v**2, 2.0 / v**3)
        return _product(a, b)

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

    def _jet(self, x):
        arg = self.arg._jet(x)
        v = arg[0]
        if self.func in ("log", "sqrt") and np.any(v <= 0.0):
            raise ExpressionDomainError(f"{self.func}({v[v <= 0.0][0]}) out of domain")
        return _chain(arg, *(rule(v) for rule in _JET_FUNCTIONS[self.func]))

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
        g = np.empty((self.dim, self.dim))
        for (i, j), e in self.entries.items():
            g[i, j] = g[j, i] = e.eval(x)
        return g

    def jet(self, x: np.ndarray):
        """Metric ``g[p, i, j]``, first derivatives ``dg[p, k, i, j] = d_k g_ij``
        and second derivatives ``d2g[p, a, b, i, j] = d_a d_b g_ij`` at the
        rows ``x[p]`` of an ``(m, n)`` array, one jet per stored entry."""
        m, n = len(x), self.dim
        g = np.empty((m, n, n))
        dg = np.empty((m, n, n, n))
        d2g = np.empty((m, n, n, n, n))
        # equal entries, such as a conformal diagonal, share one jet
        jets = {e: e.jet(x) for e in dict.fromkeys(self.entries.values())}
        for (i, j), e in self.entries.items():
            value, grad, hess = jets[e]
            g[:, i, j] = g[:, j, i] = value
            dg[:, :, i, j] = dg[:, :, j, i] = grad
            d2g[:, :, :, i, j] = d2g[:, :, :, j, i] = hess
        return g, dg, d2g

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
