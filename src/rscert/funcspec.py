"""A small expression language for continuous integrands.

The grammar covers exactly what the package's integrands need: literals, the
variable x, the four arithmetic operators, powers with a constant exponent,
sin and cos, and unary minus. An IntegrandSpec bundles a parsed expression
with its interval, an optional removable-singularity fill and a declared
modulus of continuity; the modulus is what turns mesh sizes into certified
integration error bounds downstream. Lipschitz and Hoelder moduli certify;
a Sampled modulus is an empirical estimate and is flagged heuristic wherever
it contributes.

IntegrandSpec and bv_core.PiecewiseLinear implement one integrand protocol,
which is all the other layers ask of a continuous integrand: ``interval``,
``evaluate_array``, ``modulus_at(delta)``, ``heuristic``, ``pl_form()`` (an
exact piecewise-linear form, or None) and ``enclose(c, d)`` (a RangeBounds
on [c, d]).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bv_core import DomainError, Interval, PiecewiseLinear, RangeBounds

__all__ = [
    "ParseError",
    "EvaluationError",
    "Literal",
    "Variable",
    "X",
    "Negate",
    "BinaryOp",
    "Power",
    "Call",
    "Expr",
    "parse",
    "format_expr",
    "Lipschitz",
    "Hoelder",
    "Sampled",
    "ModulusDescriptor",
    "IntegrandSpec",
    "integrand_values",
    "integrand_modulus",
]


class ParseError(ValueError):
    """Syntax or identifier error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ArithmeticError):
    """The expression is undefined at the point being evaluated."""


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


X = Variable()


@dataclass(frozen=True)
class Negate:
    operand: "Expr"


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: float  # constant by construction; folded at parse time


@dataclass(frozen=True)
class Call:
    func: str  # sin | cos
    arg: "Expr"


Expr = Union[Literal, Variable, Negate, BinaryOp, Power, Call]


# ---------------------------------------------------------------------------
# Parser (recursive descent over the grammar:
#   expr   := term (("+"|"-") term)*
#   term   := factor (("*"|"/") factor)*
#   factor := "-" factor | power
#   power  := atom ("^" factor)?
#   atom   := NUMBER | "x" | "sin" "(" expr ")" | "cos" "(" expr ")" | "(" expr ")"
# )
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _const_value(e: Expr) -> float | None:
    """Fold a variable-free subtree to its value; None if it mentions x."""
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Variable):
        return None
    if isinstance(e, Negate):
        v = _const_value(e.operand)
        return None if v is None else -v
    if isinstance(e, BinaryOp):
        l, r = _const_value(e.left), _const_value(e.right)
        if l is None or r is None:
            return None
        try:
            return {"+": l + r, "-": l - r, "*": l * r, "/": l / r}[e.op]
        except ZeroDivisionError:
            return None
    if isinstance(e, Power):
        b = _const_value(e.base)
        if b is None:
            return None
        try:
            return _pow(b, e.exponent, None)
        except EvaluationError:
            return None
    if isinstance(e, Call):
        v = _const_value(e.arg)
        if v is None:
            return None
        return math.sin(v) if e.func == "sin" else math.cos(v)
    raise TypeError(f"not an expression node: {e!r}")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r} after expression", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                e = BinaryOp(text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                e = BinaryOp(text, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Negate(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            _, _, exp_pos = self.peek()
            exponent = self.factor()
            value = _const_value(exponent)
            if value is None:
                raise ParseError("power exponent must be a constant", exp_pos)
            return Power(base, float(value))
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "number":
            return Literal(float(text))
        if kind == "name":
            if text == "x":
                return X
            if text in ("sin", "cos"):
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"expected a value, got {text!r}" if text else "unexpected end of input", pos)


def parse(text: str) -> Expr:
    """Parse an expression in the variable x; raises ParseError with position."""
    return _Parser(text).parse()


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, BinaryOp):
        return _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
    if isinstance(e, Negate):
        return _LEVEL_NEG
    if isinstance(e, Power):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _wrap(e: Expr, minimum: int) -> str:
    text = format_expr(e)
    return f"({text})" if _level(e) < minimum else text


def format_expr(e: Expr) -> str:
    """Render an expression; parse(format_expr(e)) == e for parser-produced trees."""
    if isinstance(e, Literal):
        return repr(e.value)
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Negate):
        return "-" + _wrap(e.operand, _LEVEL_NEG)
    if isinstance(e, BinaryOp):
        left_min = _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
        right_min = left_min + 1
        return f"{_wrap(e.left, left_min)}{e.op}{_wrap(e.right, right_min)}"
    if isinstance(e, Power):
        return f"{_wrap(e.base, _LEVEL_ATOM)}^{repr(e.exponent)}"
    if isinstance(e, Call):
        return f"{e.func}({format_expr(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _pow(base: float, exponent: float, x: float | None) -> float:
    where = "" if x is None else f" at x={x!r}"
    if base < 0.0 and exponent != int(exponent):
        raise EvaluationError(f"negative base {base!r} with non-integer exponent{where}")
    if base == 0.0 and exponent < 0.0:
        raise EvaluationError(f"zero base with negative exponent{where}")
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError) as exc:
        raise EvaluationError(f"power evaluation failed{where}: {exc}") from exc


def _eval_scalar(e: Expr, x: float) -> float:
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Variable):
        return x
    if isinstance(e, Negate):
        return -_eval_scalar(e.operand, x)
    if isinstance(e, BinaryOp):
        left = _eval_scalar(e.left, x)
        right = _eval_scalar(e.right, x)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0.0:
            raise EvaluationError(f"division by zero at x={x!r}")
        return left / right
    if isinstance(e, Power):
        return _pow(_eval_scalar(e.base, x), e.exponent, x)
    if isinstance(e, Call):
        v = _eval_scalar(e.arg, x)
        return math.sin(v) if e.func == "sin" else math.cos(v)
    raise TypeError(f"not an expression node: {e!r}")


def _eval_array(e: Expr, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized walk returning (values, invalid-mask).

    The mask records every point where some sub-expression left the reals
    (division by zero, bad power); later operations cannot launder it away.
    """
    if isinstance(e, Literal):
        return np.full(xs.shape, e.value), np.zeros(xs.shape, dtype=bool)
    if isinstance(e, Variable):
        return xs.astype(float, copy=True), np.zeros(xs.shape, dtype=bool)
    if isinstance(e, Negate):
        v, bad = _eval_array(e.operand, xs)
        return -v, bad
    if isinstance(e, BinaryOp):
        lv, lbad = _eval_array(e.left, xs)
        rv, rbad = _eval_array(e.right, xs)
        bad = lbad | rbad
        with np.errstate(all="ignore"):
            if e.op == "+":
                v = lv + rv
            elif e.op == "-":
                v = lv - rv
            elif e.op == "*":
                v = lv * rv
            else:
                v = np.divide(lv, rv)
                bad = bad | (rv == 0.0)
        return v, bad | ~np.isfinite(v)
    if isinstance(e, Power):
        bv, bbad = _eval_array(e.base, xs)
        exponent = e.exponent
        with np.errstate(all="ignore"):
            v = np.power(bv, exponent)
        bad = bbad | ~np.isfinite(v)
        if exponent != int(exponent):
            bad = bad | (bv < 0.0)
        if exponent < 0.0:
            bad = bad | (bv == 0.0)
        return v, bad
    if isinstance(e, Call):
        av, abad = _eval_array(e.arg, xs)
        with np.errstate(all="ignore"):
            v = np.sin(av) if e.func == "sin" else np.cos(av)
        return v, abad | ~np.isfinite(v)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Moduli of continuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lipschitz:
    """omega(delta) = constant * delta; certifies error bounds."""

    constant: float

    def __post_init__(self):
        if not (self.constant >= 0.0):
            raise DomainError("Lipschitz constant must be >= 0")


@dataclass(frozen=True)
class Hoelder:
    """omega(delta) = constant * delta**exponent, exponent in (0, 1]; certifies."""

    constant: float
    exponent: float

    def __post_init__(self):
        if not (self.constant >= 0.0):
            raise DomainError("Hoelder constant must be >= 0")
        if not (0.0 < self.exponent <= 1.0):
            raise DomainError("Hoelder exponent must be in (0, 1]")


@dataclass(frozen=True)
class Sampled:
    """Empirical oscillation over a dense grid, times safety_factor.

    Heuristic by construction: results that depend on it are never marked
    certified, no matter how large the safety factor.
    """

    resolution: int
    safety_factor: float

    def __post_init__(self):
        if self.resolution < 2:
            raise DomainError("Sampled modulus needs resolution >= 2")
        if not (self.safety_factor >= 1.0):
            raise DomainError("safety_factor must be >= 1")


ModulusDescriptor = Union[Lipschitz, Hoelder, Sampled]


# ---------------------------------------------------------------------------
# Integrand specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrandSpec:
    """A continuous integrand: expression, interval, optional removable fill, modulus.

    The removable fill is declared, never detected: evaluation returns the
    stored value when x matches the singular point exactly and the expression
    is never consulted there.
    """

    expr: Expr
    interval: Interval
    modulus: ModulusDescriptor
    removable_value_at: tuple[float, float] | None = None

    def __post_init__(self):
        if self.removable_value_at is not None:
            point, value = self.removable_value_at
            self.interval.require(point, "removable-singularity point")
            object.__setattr__(self, "removable_value_at", (float(point), float(value)))

    def evaluate(self, x: float) -> float:
        self.interval.require(x)
        if self.removable_value_at is not None and x == self.removable_value_at[0]:
            return self.removable_value_at[1]
        return _eval_scalar(self.expr, x)

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.size and (xs.min() < self.interval.a or xs.max() > self.interval.b):
            raise DomainError("points outside the integrand's domain")
        values, bad = _eval_array(self.expr, xs)
        if self.removable_value_at is not None:
            point, fill = self.removable_value_at
            hit = xs == point
            values = np.where(hit, fill, values)
            bad = bad & ~hit
        if bad.any():
            first = xs[np.flatnonzero(bad)[0]]
            raise EvaluationError(f"expression undefined at x={float(first)!r}")
        return values

    def _grid_values(self, resolution: int) -> np.ndarray:
        cache = self.__dict__.setdefault("_modulus_grid_cache", {})
        vals = cache.get(resolution)
        if vals is None:
            xs = np.linspace(self.interval.a, self.interval.b, resolution + 1)
            vals = self.evaluate_array(xs)
            cache[resolution] = vals
        return vals

    @property
    def heuristic(self) -> bool:
        """True when the modulus is an empirical (Sampled) estimate."""
        return isinstance(self.modulus, Sampled)

    def modulus_at(self, delta: float) -> float:
        """Upper estimate for sup{|f(u)-f(v)| : |u-v| <= delta}.

        Exact formula for Lipschitz/Hoelder descriptors; for Sampled, the
        largest oscillation over grid windows of span <= delta, times the
        safety factor (heuristic, and flagged as such downstream).
        Non-decreasing in delta.
        """
        if not (0.0 < delta <= self.interval.length):
            raise DomainError(f"delta must be in (0, {self.interval.length}], got {delta!r}")
        m = self.modulus
        if isinstance(m, Lipschitz):
            return m.constant * delta
        if isinstance(m, Hoelder):
            return m.constant * delta**m.exponent
        h = self.interval.length / m.resolution
        width = int(math.floor(delta / h + 1e-9))
        return _window_oscillation(self._grid_values(m.resolution), width) * m.safety_factor

    def pl_form(self) -> PiecewiseLinear | None:
        """Exact piecewise-linear form of a syntactically affine expression,
        else None (no bounded-variation guarantee downstream)."""
        coeffs = _affine_coefficients(self.expr)
        if coeffs is None:
            return None
        c0, c1 = coeffs
        a, b = self.interval.a, self.interval.b
        return PiecewiseLinear(((a, c0 + c1 * a), (b, c0 + c1 * b)))

    def enclose(self, c: float, d: float, grid_size: int = 513) -> RangeBounds:
        """min/max samples on [c, d], padded by omega(mesh) into bounds that
        are certified unless the modulus is heuristic."""
        self.interval.require_subinterval(c, d)
        if grid_size < 2:
            raise DomainError("grid_size must be at least 2")
        if c == d:
            v = self.evaluate(c)
            return RangeBounds(v, v, v, v, not self.heuristic)
        vals = self.evaluate_array(np.linspace(c, d, grid_size))
        pad = self.modulus_at((d - c) / (grid_size - 1))  # the mesh, <= the length
        lo, hi = float(vals.min()), float(vals.max())
        return RangeBounds(lo, hi, lo - pad, hi + pad, not self.heuristic)


def _window_oscillation(values: np.ndarray, width: int) -> float:
    """max over sliding windows of (window max - window min), width+1 points.

    van Herk / Gil-Werman: cut the values into blocks of width+1 points; a
    window spans at most two blocks, so its extremum is that of a suffix of
    one block and a prefix of the next, each read off one accumulate pass.
    """
    if width <= 0:
        return 0.0
    n = len(values)
    w = min(width, n - 1) + 1
    blocks = -(-n // w)
    extremes = []
    for extremum, fill in ((np.maximum, -np.inf), (np.minimum, np.inf)):
        padded = np.concatenate([values, np.full(blocks * w - n, fill)]).reshape(blocks, w)
        prefix = extremum.accumulate(padded, axis=1).ravel()
        suffix = extremum.accumulate(padded[:, ::-1], axis=1)[:, ::-1].ravel()
        extremes.append(extremum(suffix[: n - w + 1], prefix[w - 1 : n]))
    return float((extremes[0] - extremes[1]).max())


# perfbench/tracing.py wraps these two by name, for its per-layer spans
# funcspec.integrand_values and funcspec.integrand_modulus; keep them, and
# keep stieltjes calling them rather than the methods.
def integrand_values(f, xs) -> np.ndarray:
    return np.asarray(f.evaluate_array(np.asarray(xs, dtype=float)), dtype=float)


def integrand_modulus(f, delta: float) -> float:
    return f.modulus_at(delta)


def _affine_coefficients(e: Expr) -> tuple[float, float] | None:
    """(c0, c1) with e == c0 + c1*x, or None when e is not syntactically affine."""
    if isinstance(e, Literal):
        return (e.value, 0.0)
    if isinstance(e, Variable):
        return (0.0, 1.0)
    if isinstance(e, Negate):
        inner = _affine_coefficients(e.operand)
        return None if inner is None else (-inner[0], -inner[1])
    if isinstance(e, BinaryOp):
        left = _affine_coefficients(e.left)
        right = _affine_coefficients(e.right)
        if left is None or right is None:
            return None
        if e.op == "+":
            return (left[0] + right[0], left[1] + right[1])
        if e.op == "-":
            return (left[0] - right[0], left[1] - right[1])
        if e.op == "*":
            if right[1] == 0.0:
                return (left[0] * right[0], left[1] * right[0])
            if left[1] == 0.0:
                return (left[0] * right[0], left[0] * right[1])
            return None
        if right[1] == 0.0 and right[0] != 0.0:
            return (left[0] / right[0], left[1] / right[0])
        return None
    if isinstance(e, Power):
        base = _affine_coefficients(e.base)
        if base is None:
            return None
        if e.exponent == 1.0:
            return base
        if e.exponent == 0.0:
            return (1.0, 0.0)
        if base[1] == 0.0:
            try:
                return (_pow(base[0], e.exponent, None), 0.0)
            except EvaluationError:
                return None
        return None
    if isinstance(e, Call):
        arg = _affine_coefficients(e.arg)
        if arg is None or arg[1] != 0.0:
            return None
        fn = math.sin if e.func == "sin" else math.cos
        return (fn(arg[0]), 0.0)
    return None
