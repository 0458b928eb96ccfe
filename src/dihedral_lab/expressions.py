"""Scalar expressions over chart coordinates and symmetric metric fields.

The expression grammar is fixed:

    variables   x1, x2, ..., xn
    literals    decimal / scientific notation, finite as floats
    operators   + - * / ^   (unary minus; ^ is right associative)
    functions   sin cos tan exp log sqrt sinh cosh abs

Precedence, tightest first: ``^``, unary ``-``, ``* /``, ``+ -``.

Values are plain floats.  First and second derivatives are exact: every
node propagates its (value, gradient, Hessian) jet by forward-mode Taylor
arithmetic (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.) on
components that are floats at one point or 1-D arrays over a batch (see
``Expr.jet_parts``); ``Expr.jet`` and ``MetricField.jet`` stack them into
arrays.  Expression nodes are immutable after construction.  Parsing,
printing, scalar evaluation and jets at one point use only ``math`` and
``re``; numpy is imported by the code that builds arrays when it runs.
"""

from __future__ import annotations

import math
import re
import sys
from operator import add, sub
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
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

# name: (float function, jet rule).  The rule maps a module (``math`` for a
# float, numpy for an array) and the argument value v to (f(v), f'(v),
# f''(v)) for the chain rule of the jets; abs'(0) = 0.
FUNCTIONS = {
    "sin": (math.sin, lambda m, v: (m.sin(v), m.cos(v), -m.sin(v))),
    "cos": (math.cos, lambda m, v: (m.cos(v), -m.sin(v), -m.cos(v))),
    "tan": (math.tan, lambda m, v: (m.tan(v), 1.0 / m.cos(v) ** 2,
                                    2.0 * m.tan(v) / m.cos(v) ** 2)),
    "exp": (math.exp, lambda m, v: (m.exp(v),) * 3),
    "log": (math.log, lambda m, v: (m.log(v), 1.0 / v, -1.0 / v**2)),
    "sqrt": (math.sqrt, lambda m, v: (m.sqrt(v), 0.5 / m.sqrt(v), -0.25 / v**1.5)),
    "sinh": (math.sinh, lambda m, v: (m.sinh(v), m.cosh(v), m.sinh(v))),
    "cosh": (math.cosh, lambda m, v: (m.cosh(v), m.sinh(v), m.cosh(v))),
    "abs": (abs, lambda m, v: (abs(v), (v > 0.0) * 1.0 - (v < 0.0) * 1.0, 0.0)),
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
    """Immutable expression tree node.  Equality is structural and type-aware
    (same class, equal fields: ``Num(1.0) != Var(1)``), equal nodes hash equal,
    and ``MetricField.jet`` relies on both to share one jet between equal
    entries."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), *self._fields()))

    def __call__(self, x: Sequence[float]) -> float:
        return self.eval(x)

    def eval(self, x: Sequence[float]) -> float:
        raise NotImplementedError

    def jet(self, x: np.ndarray):
        """Exact value ``(m,)``, gradient ``(m, n)`` and Hessian ``(m, n, n)``
        at the rows of ``x`` (shape ``(m, n)``): ``jet_parts`` stacked."""
        value, grad, hess = self.jet_parts(_columns(x))
        return _stacked(len(x), value, list(grad), _full(hess, len(grad)))

    def jet_parts(self, x: Sequence):
        """Exact value, gradient (n components) and Hessian (its i <= k
        entries in row order) at one point given as n floats, or at m points
        given as n coordinate arrays.  Raises :class:`ExpressionDomainError`
        where a point leaves the domain of a subexpression or an entry is not
        finite (an arithmetic error on floats, inf or nan in numpy), such as
        the derivative of ``x^c`` at ``x = 0`` for ``c < 2`` other than 0, 1."""
        try:
            if all(type(v) is float for v in x) or self.max_var() == 0:
                out = self._jet(x)  # floats only
            else:
                import numpy as np

                with np.errstate(all="ignore"):
                    out = self._jet(x)
            finite = all(math.isfinite(p) if type(p) is float else np.isfinite(p).all()
                         for p in (out[0], *out[1], *out[2]))
        except ExpressionDomainError:
            raise
        except (ArithmeticError, ValueError):
            finite = False
        if not finite:
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


def _any(flags) -> bool:
    """Whether a comparison holds at the point, or at any point of a batch."""
    return flags if type(flags) is bool else flags.any()


def _full(hess, n: int) -> list:
    """The n x n rows of a Hessian from its i <= k entries; the two entries
    of a symmetric pair are one object."""
    entries, rows = iter(hess), [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            rows[i][k] = rows[k][i] = next(entries)
    return rows


def _columns(pts) -> tuple:
    """The coordinates of the rows of an ``(m, n)`` array as n arrays."""
    import numpy as np

    return tuple(np.array(pts, dtype=float).T.copy())


def _stacked(m: int, *parts) -> tuple:
    """Each part, a component or nested lists of components (floats or
    ``(m,)`` arrays), as one ``(m, ...)`` array; floats broadcast."""
    import numpy as np

    out = []
    for part in parts:
        shape, leaves = [], [part]
        while type(leaves[0]) is list:
            shape.append(len(leaves[0]))
            leaves = [v for row in leaves for v in row]
        array = np.empty((m, len(leaves)))
        array[:] = [v if type(v) is float else 0.0 for v in leaves]  # floats at once
        for k, v in enumerate(leaves):
            if type(v) is not float:
                array[:, k] = v
        out.append(array.reshape(m, *shape))
    return tuple(out)


def _chain(jet, f, d1, d2):
    """Jet of phi(u) from the jet of u and phi, phi', phi'' at u's value."""
    _, grad, hess = jet
    entries, outer = iter(hess), [d2 * p for p in grad]
    return (f, tuple(d1 * p for p in grad),
            tuple(d1 * next(entries) + s * q for i, s in enumerate(outer) for q in grad[i:]))


def _product(a, b):
    (u, gu, hu), (v, gv, hv) = a, b
    entries = iter(zip(hu, hv))
    return (u * v, tuple(p * v + u * q for p, q in zip(gu, gv)),
            tuple(h * v + u * k + (p * qk + pk * q) for i, (p, q) in enumerate(zip(gu, gv))
                  for pk, qk, (h, k) in zip(gu[i:], gv[i:], entries)))


# Precedence levels used by the printer; mirror the parser.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


class Num(Expr):
    __slots__ = ("value",)
    def __init__(self, value: float):
        self._init(value)

    def eval(self, x):
        return self.value

    def _jet(self, x):
        n = len(x)
        return self.value, (0.0,) * n, (0.0,) * (n * (n + 1) // 2)

    def max_var(self):
        return 0

    def _text(self, parent_prec):
        if self.value >= 0:
            return repr(self.value)
        return f"({self.value!r})"


class Var(Expr):
    __slots__ = ("index",)
    def __init__(self, index: int):  # 0-based
        self._init(index)

    def eval(self, x):
        try:
            return float(x[self.index])
        except IndexError:
            raise ExpressionDomainError(
                f"point has no coordinate x{self.index + 1}"
            ) from None

    def _jet(self, x):
        n = len(x)
        if self.index >= n:
            raise ExpressionDomainError(f"point has no coordinate x{self.index + 1}")
        grad = [0.0] * n
        grad[self.index] = 1.0
        return x[self.index], tuple(grad), (0.0,) * (n * (n + 1) // 2)

    def max_var(self):
        return self.index + 1

    def _text(self, parent_prec):
        return f"x{self.index + 1}"


class Neg(Expr):
    __slots__ = ("arg",)
    def __init__(self, arg: Expr):
        self._init(arg)

    def eval(self, x):
        return -self.arg.eval(x)

    def _jet(self, x):
        value, grad, hess = self.arg._jet(x)
        return -value, tuple(-p for p in grad), tuple(-h for h in hess)

    def max_var(self):
        return self.arg.max_var()

    def _text(self, parent_prec):
        s = f"-{self.arg._text(_PREC_NEG)}"
        return f"({s})" if parent_prec > _PREC_NEG else s


class BinOp(Expr):
    __slots__ = ("op", "left", "right")
    def __init__(self, op: str, left: Expr, right: Expr):
        self._init(op, left, right)

    def eval(self, x):
        a = self.left.eval(x)
        b = self.right.eval(x)
        if self.op == "+":
            v = a + b
        elif self.op == "-":
            v = a - b
        elif self.op == "*":
            v = a * b
        elif self.op == "/":
            if b == 0.0:
                raise ExpressionDomainError("division by zero")
            v = a / b
        else:  # power
            try:
                v = a**b
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise ExpressionDomainError(f"invalid power {a}^{b}") from exc
            if isinstance(v, complex):
                raise ExpressionDomainError(f"non-real power {a}^{b}")
        if not math.isfinite(v):  # + - * / overflow to inf without an error
            raise ExpressionDomainError(f"{self.to_text()} is not finite")
        return v

    def _jet(self, x):
        if self.op == "^" and self.right.max_var() > 0:
            # a^b = exp(b log a), real only where a > 0 (the log checks it)
            return Call("exp", BinOp("*", self.right, Call("log", self.left)))._jet(x)
        a = self.left._jet(x)
        if self.op == "^":
            c, base = self.right.eval(()), a[0]
            if not float(c).is_integer() and _any(base < 0.0):
                raise ExpressionDomainError(f"non-real power {self.to_text()}")
            # exponents 0 and 1 skip base^(c-1) / base^(c-2), infinite at 0
            d1 = c * base ** (c - 1.0) if c != 0.0 else 0.0
            d2 = c * (c - 1.0) * base ** (c - 2.0) if c not in (0.0, 1.0) else 0.0
            return _chain(a, base**c, d1, d2)
        b = self.right._jet(x)
        if self.op in "+-":
            combine = add if self.op == "+" else sub
            return (combine(a[0], b[0]), tuple(map(combine, a[1], b[1])),
                    tuple(map(combine, a[2], b[2])))
        if self.op == "/":
            v = b[0]
            if _any(v == 0.0):
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


class Call(Expr):
    __slots__ = ("func", "arg")
    def __init__(self, func: str, arg: Expr):
        self._init(func, arg)

    def eval(self, x):
        v = self.arg.eval(x)
        try:
            return FUNCTIONS[self.func][0](v)
        except ValueError as exc:
            raise ExpressionDomainError(f"{self.func}({v}) out of domain") from exc
        except OverflowError as exc:
            raise ExpressionDomainError(f"{self.func}({v}) overflows") from exc

    def _jet(self, x):
        arg = self.arg._jet(x)
        v, scalar = arg[0], type(arg[0]) is float
        if self.func in ("log", "sqrt") and _any(v <= 0.0):
            bad = v if scalar else v[v <= 0.0][0]
            raise ExpressionDomainError(f"{self.func}({bad}) out of domain")
        return _chain(arg, *FUNCTIONS[self.func][1](math if scalar else sys.modules["numpy"], v))

    def max_var(self):
        return self.arg.max_var()

    def _text(self, parent_prec):
        return f"{self.func}({self.arg._text(0)})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# One token per match, whitespace skipped: a literal (digits and dots, then
# an optional exponent; it starts with a digit or with a dot before one), a
# name (a letter or "_", then letters, digits or "_"), an operator, or any
# other character, which is an error.
_TOKEN = re.compile(r"(?P<num>(?=\.?\d)[\d.]+(?:[eE][+-]?\d+)?)"
                    r"|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^(),])|\S")


# Levels on a path from the root, parentheses counted: the node methods and the
# parser recurse up to three frames a level, well inside the default limit 1000.
_MAX_DEPTH = 200


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExpressionSyntaxError` (with byte offset) on malformed
    input, literals that are not finite floats, unknown identifiers, wrong
    function arity or nesting deeper than ``_MAX_DEPTH`` levels.
    """
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    tokens = []  # (kind, text, offset): kind num, name, op or end
    for match in _TOKEN.finditer(text):
        kind, tok, offset = match.lastgroup, match.group(), match.start()
        if kind is None:
            raise ExpressionSyntaxError(f"unexpected character {tok!r}", offset)
        if kind == "num":
            try:
                value = float(tok)
            except ValueError:  # more than one dot
                value = math.nan
            if not math.isfinite(value):  # or past the float range: 1e999
                raise ExpressionSyntaxError(f"bad numeric literal '{tok}'", offset)
        tokens.append((kind, tok, offset))
    tokens.append(("end", "", len(text)))
    tokens.reverse()  # a stack: the next token is tokens[-1]

    def close():
        if tokens[-1][1] != ")":
            raise ExpressionSyntaxError("expected ')'", tokens[-1][2])
        tokens.pop()

    def too_deep(offset: int, *levels: int) -> None:
        if max(levels) >= _MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", offset)

    def operand(level: int, depth: int) -> tuple[Expr, int]:
        """Sums at level 0, products at 1, and at 2 a unary minus or a power
        ``atom ^ operand(2)``: ``^`` binds tighter than unary minus, its
        exponent may carry one (``x^-2``), and it is right associative.
        Returns the tree and its height; ``depth`` levels lie above it."""
        too_deep(tokens[-1][2], depth)  # stops the recursion early
        if level < 2:
            ops = ("+", "-") if level == 0 else ("*", "/")
            e, height = operand(level + 1, depth)
            while tokens[-1][1] in ops:
                _, op, offset = tokens.pop()
                right, h = operand(level + 1, depth + 1)
                too_deep(offset, height, h)
                e, height = BinOp(op, e, right), max(height, h) + 1
            return e, height
        kind, tok, offset = tokens.pop()
        if tok == "-":
            arg, height = operand(2, depth + 1)
            too_deep(offset, height)
            return Neg(arg), height + 1
        if kind == "num":
            e, height = Num(float(tok)), 1
        elif tok == "(":
            e, height = operand(0, depth + 1)
            too_deep(offset, height)
            height += 1  # parentheses are a level
            close()
        elif kind == "name" and tokens[-1][1] == "(":
            if tok not in FUNCTIONS:
                raise ExpressionSyntaxError(f"unknown function '{tok}'", offset)
            tokens.pop()
            args = [operand(0, depth + 1)]
            while tokens[-1][1] == ",":
                tokens.pop()
                args.append(operand(0, depth + 1))
            close()
            if len(args) != 1:
                raise ExpressionSyntaxError(
                    f"function '{tok}' takes 1 argument, got {len(args)}", offset)
            (arg, height), = args
            too_deep(offset, height)
            e, height = Call(tok, arg), height + 1
        elif kind == "name" and tok[0] == "x" and tok[1:].isdecimal() and int(tok[1:]) >= 1:
            e, height = Var(int(tok[1:]) - 1), 1
        elif kind == "name":
            raise ExpressionSyntaxError(f"unknown identifier '{tok}'", offset)
        else:
            raise ExpressionSyntaxError("expected a value", offset)
        if tokens[-1][1] == "^":
            offset = tokens.pop()[2]
            right, h = operand(2, depth + 1)
            too_deep(offset, height, h)
            return BinOp("^", e, right), max(height, h) + 1
        return e, height

    e, _ = operand(0, 0)
    kind, tok, offset = tokens[-1]
    if kind != "end":
        raise ExpressionSyntaxError(f"unexpected token {tok!r}", offset)
    return e


# ---------------------------------------------------------------------------
# Metric fields
# ---------------------------------------------------------------------------


class MetricNotPositiveDefinite(ValueError):
    """The metric matrix failed the positive-definiteness check at a point."""


class MetricField:
    """Symmetric n x n field of expressions; only i <= j entries are stored,
    as ``entries[(i, j)]`` (0-based)."""

    __slots__ = ("dim", "entries")
    def __init__(self, dim: int, entries: dict):
        self.dim, self.entries = dim, entries

    def entry(self, i: int, j: int) -> Expr:
        if i > j:
            i, j = j, i
        return self.entries[(i, j)]

    def matrix_at(self, x: Sequence[float]) -> np.ndarray:
        import numpy as np

        g = np.empty((self.dim, self.dim))
        for (i, j), e in self.entries.items():
            g[i, j] = g[j, i] = e.eval(x)
        return g

    def jet(self, x: np.ndarray):
        """Metric ``g[p, i, j]``, first derivatives ``dg[p, k, i, j] = d_k g_ij``
        and second derivatives ``d2g[p, a, b, i, j] = d_a d_b g_ij`` at the
        rows ``x[p]`` of an ``(m, n)`` array: ``jet_parts`` stacked."""
        import numpy as np

        g, dg, d2g = _stacked(len(x), *self.jet_parts(_columns(x)))
        return g, np.moveaxis(dg, 3, 1), np.moveaxis(d2g, (3, 4), (1, 2))

    def jet_parts(self, x: Sequence):
        """``g[i][j]``, ``dg[i][j][k] = d_k g_ij`` and ``d2g[i][j][a][b] =
        d_a d_b g_ij`` as nested lists of the components
        ``Expr.jet_parts`` returns at ``x``, one jet per stored entry."""
        n = self.dim
        # equal entries, such as a conformal diagonal, share one jet
        jets = {e: e.jet_parts(x) for e in dict.fromkeys(self.entries.values())}
        jets = {e: (value, list(grad), _full(hess, n)) for e, (value, grad, hess) in jets.items()}
        jets = {key: jets[e] for key, e in self.entries.items()}
        rows = [[jets[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        return tuple([[jet[t] for jet in row] for row in rows] for t in range(3))

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
    import numpy as np

    mat = g.matrix_at(x)
    eig = np.linalg.eigvalsh(mat)
    if eig[0] <= 0.0:
        raise MetricNotPositiveDefinite(
            f"metric at {list(x)} has smallest eigenvalue {eig[0]:.3e}"
        )
    return mat


def scene_dim(scene: dict) -> int:
    """``scene["dim"]``, which must be a JSON integer: a bool, a float (even
    ``2.0``) or a string raises :class:`TypeError` for the reader to report."""
    dim = scene["dim"]
    if type(dim) is not int:
        raise TypeError("'dim' must be an integer")
    return dim


def metric_from_scene(scene: dict) -> MetricField:
    """Load a metric from scene JSON ``{"dim": n, "g": {...}}``."""
    if not isinstance(scene, dict):
        raise ExpressionError("metric scene must be a JSON object")
    try:
        dim = scene_dim(scene)
        spec = scene["g"]
    except KeyError as exc:
        raise ValueError(f"metric scene missing key {exc}") from exc
    except TypeError as exc:
        raise ExpressionError("metric scene 'dim' must be an integer") from exc
    return parse_metric(spec, dim)


def euclidean_metric(dim: int) -> MetricField:
    """Flat metric delta_ij."""
    return parse_metric({f"{i}{i}": "1" for i in range(1, dim + 1)}, dim)
