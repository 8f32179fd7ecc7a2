"""A small expression language for continuous integrands.

The grammar covers exactly what the package's integrands need: literals, the
variable x, the four arithmetic operators, powers with a constant exponent,
sin and cos, and unary minus. An IntegrandSpec bundles a parsed expression
with its interval, an optional removable-singularity fill and a declared
modulus of continuity; the modulus is what turns mesh sizes into certified
integration error bounds downstream. Lipschitz and Hoelder moduli certify;
a Sampled modulus is an empirical estimate and is flagged heuristic wherever
it contributes.

IntegrandSpec and bv_core.PiecewiseLinear (and BVFunction, for the cell
read and the exact form) implement one integrand protocol, which is all the
other layers ask of a continuous integrand: ``interval``, ``evaluate_array``
(the point values, and the one read at jumps), ``cell_integrals(lin, ys,
tol)`` (the cuts of the cells of [a, ys[-1]] against a piecewise-linear
integrator lin, the integral on each cell, the terms of its bound, and
whether they are certified), ``pl_form()`` (an exact piecewise-linear form,
or None: the one read behind every positive-half statement, f's range
included, and every "must be piecewise linear" check), and, for the
brute-force oracle, ``modulus_at(delta)`` and ``heuristic``. An
IntegrandSpec answers cell_integrals exactly through its affine form, and
otherwise with _quadrature, the certified midpoint quadrature, which
charges a sub-cell of width h only h * omega(h/4): a certified
(non-heuristic) modulus must be concave in delta. It works its
midpoint width out from tol in one step, through the inverse of the modulus
(closed-form for Lipschitz and Hoelder, a search over the grid's window
widths for Sampled), instead of halving toward it. It reads the
midpoints in cell order, a run of consecutive cells with the same count at
a time, one row per cell and one integrand_values call per block of whole
rows of at most 2^14 points, and sums each row pairwise, as a cell's own
array would be summed.

Folding: one walk, _fold, reads every subtree as c0 + c1*x, as not affine,
or, free of x, as having no real value. The parser rejects numbers that are
not finite and exponents that do not fold to a finite real constant. The
exact form is fixed when an IntegrandSpec is built: an affine expression's
fold on the interval, present only where the compiled program evaluates at
both ends, and so on the whole interval. pl_form() and cell_integrals read
that stored form, so _fold runs only when parsing and constructing.

Evaluation: an IntegrandSpec compiles its expression once, when it is
built, into a flat program of numpy ufunc calls on a value stack; constants
enter as Python floats and x as the input array, under one np.errstate. A
point is invalid where some operation's value is inf or nan (or a power has a
negative base and a non-integer exponent); the program tests finiteness
only at the root, at divisors and at bases of powers with exponent <= 0,
the only places a later operation can turn such a value finite again.
evaluate_array raises DomainError for points outside the interval or NaN,
and EvaluationError naming the first invalid point that is not the
removable one; evaluate is evaluate_array at one point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .bv_core import (ConstructionError, DomainError, Interval, PiecewiseLinear, _PointRead,
                      _cells, _running_sum)

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


def _fold(e: Expr) -> tuple[float, float, bool] | str | None:
    """One walk for the constant and affine subtrees: (c0, c1, mentions_x)
    when e == c0 + c1*x; None when e mentions x and is not affine; and the
    reason when e does not mention x and has no real value (a division by
    zero, sin or cos of a value that is not finite, a power that overflows
    or has a zero base and a negative exponent or a negative base and a
    non-integer exponent). Mentioning x takes precedence over a reason; the
    first reason in evaluation order is the one kept. A subtree that does
    not mention x counts as constant whatever its c1 (0 * inf leaves nan)."""
    if isinstance(e, Literal):
        return (e.value, 0.0, False)
    if isinstance(e, Variable):
        return (0.0, 1.0, True)
    if isinstance(e, BinaryOp):
        left, right = _fold(e.left), _fold(e.right)
        if not (isinstance(left, tuple) and isinstance(right, tuple)):
            for part in (left, right):
                if part is None or isinstance(part, tuple) and part[2]:
                    return None
            return left if isinstance(left, str) else right
        (c0, c1, lx), (r0, r1, rx) = left, right
        x = lx or rx
        if e.op == "+":
            return (c0 + r0, c1 + r1, x)
        if e.op == "-":
            return (c0 - r0, c1 - r1, x)
        right_flat = r1 == 0.0 or not rx  # a constant factor or divisor
        if e.op == "*":
            if right_flat:
                return (c0 * r0, c1 * r0, x)
            return (c0 * r0, c0 * r1, x) if c1 == 0.0 or not lx else None
        if not right_flat:
            return None
        if r0 == 0.0:
            return None if x else "division by zero"
        return (c0 / r0, c1 / r0, x)
    inner = _fold(e.operand if isinstance(e, Negate) else e.base if isinstance(e, Power) else e.arg)
    if not isinstance(inner, tuple):
        return inner
    c0, c1, x = inner
    if isinstance(e, Negate):
        return (-c0, -c1, x)
    if isinstance(e, Power) and e.exponent in (0.0, 1.0):
        return inner if e.exponent == 1.0 else (1.0, 0.0, x)
    if c1 != 0.0 and x:
        return None
    if isinstance(e, Power):
        try:
            return (_pow(c0, e.exponent), 0.0, x)
        except EvaluationError as exc:
            return None if x else str(exc)
    if not math.isfinite(c0):
        return None if x else f"{e.func}({c0!r}) is not a real number"
    return (math.sin(c0) if e.func == "sin" else math.cos(c0), 0.0, x)


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
            folded = _fold(exponent)
            if isinstance(folded, str):
                raise ParseError(f"power exponent cannot be evaluated: {folded}", exp_pos)
            if folded is None or folded[2]:
                raise ParseError("power exponent must be a constant", exp_pos)
            value = folded[0]
            if not math.isfinite(value):
                raise ParseError(f"power exponent {value!r} is not finite", exp_pos)
            return Power(base, float(value))
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "number":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is not finite", pos)
            return Literal(value)
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


def _pow(base: float, exponent: float) -> float:
    """A constant power, folded when parsing or read as an affine coefficient."""
    if base < 0.0 and not float(exponent).is_integer():
        raise EvaluationError(f"negative base {base!r} with non-integer exponent")
    if base == 0.0 and exponent < 0.0:
        raise EvaluationError("zero base with negative exponent")
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError) as exc:
        raise EvaluationError(f"power evaluation failed: {exc}") from exc


@dataclass(frozen=True)
class _Compiled:
    """A subtree during compilation: a constant (code empty), or steps that
    leave an array on the stack. derived: the subtree holds an operation
    that can turn finite inputs into inf or nan."""

    code: tuple = ()
    const: float | None = None
    derived: bool = False

    def operand(self) -> tuple:
        return self.code or (("const", self.const),)

    def as_array(self) -> "_Compiled":
        """Steps that leave an array: a constant is filled into one, as the
        only operand of an operation."""
        return self if self.const is None else _Compiled((("fill", self.const),))


_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "sin": np.sin, "cos": np.cos}
_X_ONLY = (("x",),)


def _compile(e: Expr) -> _Compiled:
    if isinstance(e, Literal):
        return _Compiled(const=e.value)
    if isinstance(e, Variable):
        return _Compiled(_X_ONLY)
    if isinstance(e, Negate):
        c = _compile(e.operand)
        if c.const is not None:
            return _Compiled(const=-c.const)
        return _Compiled(c.code + (("unary", np.negative),), derived=c.derived)
    if isinstance(e, BinaryOp):
        left, right = _compile(e.left), _compile(e.right)
        if right.const is not None:
            left = left.as_array()
        # x/inf is 0
        check = (("check",),) if e.op == "/" and right.derived else ()
        code = left.operand() + right.operand() + check + (("binary", _UFUNCS[e.op]),)
        return _Compiled(code, derived=True)
    if isinstance(e, Power):
        base = _compile(e.base)
        check = ()
        if base.const is not None and base.const < 0.0 and not float(e.exponent).is_integer():
            check = (("everywhere",),)  # needed for -inf only: (-inf)^-0.5 is 0
        base = base.as_array()
        if e.exponent <= 0.0 and base.derived:  # nan^0 is 1 and inf^-1 is 0
            check = (("check",),)
        return _Compiled(base.code + check + (("power", e.exponent),), derived=True)
    if isinstance(e, Call):
        arg = _compile(e.arg).as_array()
        return _Compiled(arg.code + (("unary", _UFUNCS[e.func]),), derived=True)
    raise TypeError(f"not an expression node: {e!r}")


class _Program:
    """An expression compiled once into postfix steps on a value stack.

    Constants enter the ufuncs as Python floats and x as the input array
    itself; a constant is filled into an array only as the sole array
    operand of an operation, so every step computes what a walk of the tree
    over full arrays would. A point is invalid where some operation's value
    is inf or nan, or where a power has a negative base and a non-integer
    exponent. The value is inf or nan at a division by zero, at a zero base
    under a negative exponent and at a finite negative base under a
    non-integer one; a constant base of -inf is marked when compiled. Every
    operation maps a non-finite input to a non-finite output except a
    division by it and a power of it with exponent <= 0, so the values are
    checked only at the root, at such divisors and at such bases. Leaves are
    not checked: x is finite, and a non-finite literal alone is not an
    operation.
    """

    __slots__ = ("steps",)

    def __init__(self, e: Expr):
        root = _compile(e)
        steps = root.as_array().code
        if root.derived:
            steps += (("check",),)
        if steps == _X_ONLY:
            steps += (("copy",),)
        self.steps = steps

    def run(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(values, invalid mask) at xs; the mask is None where no point is
        invalid. The values are a fresh array."""
        stack = []
        bad = None
        with np.errstate(all="ignore"):
            for step in self.steps:
                kind = step[0]
                if kind == "x":
                    stack.append(xs)
                elif kind == "const":
                    stack.append(step[1])
                elif kind == "fill":
                    stack.append(np.full(xs.shape, step[1]))
                elif kind == "binary":
                    right = stack.pop()
                    stack[-1] = step[1](stack[-1], right)
                elif kind == "unary":
                    stack[-1] = step[1](stack[-1])
                elif kind == "power":
                    stack[-1] = np.power(stack[-1], step[1])
                elif kind == "check":
                    finite = np.isfinite(stack[-1])
                    if not finite.all():
                        bad = ~finite if bad is None else bad | ~finite
                elif kind == "everywhere":
                    bad = np.ones(xs.shape, dtype=bool)
                else:  # "copy"
                    stack[-1] = stack[-1].copy()
        return stack[0], bad


# ---------------------------------------------------------------------------
# Moduli of continuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lipschitz:
    """omega(delta) = constant * delta; certifies error bounds.

    Concave in delta, as every certified modulus must be: the midpoint
    quadrature's omega(spacing / 4) bound relies on it.
    """

    constant: float

    def __post_init__(self):
        if not (self.constant >= 0.0):
            raise DomainError("Lipschitz constant must be >= 0")


@dataclass(frozen=True)
class Hoelder:
    """omega(delta) = constant * delta**exponent, exponent in (0, 1]; certifies.

    The exponent is at most 1 so that omega is concave, which the midpoint
    quadrature's omega(spacing / 4) bound relies on.
    """

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
class IntegrandSpec(_PointRead):
    """A continuous integrand: expression, interval, optional removable fill, modulus.

    The removable fill (point, value) stands for the expression where its
    program is undefined: evaluation returns the value when x matches the
    point exactly. Where the program is defined at the point, the fill must
    equal its value there, or construction raises ConstructionError: a fill
    that differs would make the integrand discontinuous. That the value is
    the expression's limit at the point is declared, not checked.
    """

    expr: Expr
    interval: Interval
    modulus: ModulusDescriptor
    removable_value_at: tuple[float, float] | None = None
    _program: _Program = field(init=False, compare=False, repr=False)
    _exact: PiecewiseLinear | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_program", _Program(self.expr))
        if self.removable_value_at is not None:
            point, fill = map(float, self.removable_value_at)
            self.interval.require(point, "removable-singularity point")
            object.__setattr__(self, "removable_value_at", (point, fill))
            at, bad = self._program.run(np.array([point]))
            if bad is None and at[0] != fill:
                raise ConstructionError(
                    f"removable fill {fill!r} at x={point!r} contradicts the "
                    f"expression's value {at[0].item()!r} there")
        object.__setattr__(self, "_exact", self._affine_form())

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.size and not (xs.min() >= self.interval.a and xs.max() <= self.interval.b):
            raise DomainError("points outside the integrand's domain")
        values, bad = self._program.run(xs)
        if self.removable_value_at is not None:
            point, fill = self.removable_value_at
            hit = xs == point
            values = np.where(hit, fill, values)
            if bad is not None:
                bad = bad & ~hit
        if bad is not None and bad.any():
            first = xs[np.flatnonzero(bad)[0]]
            raise EvaluationError(f"expression undefined at x={float(first)!r}")
        return values

    @cached_property
    def _grid_values(self) -> np.ndarray:
        """The integrand on the Sampled modulus's grid, read once: the spec is immutable."""
        xs = np.linspace(self.interval.a, self.interval.b, self.modulus.resolution + 1)
        return self.evaluate_array(xs)

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
        return self._sampled_at(self._windows(delta))

    def _windows(self, delta: float) -> int:
        """The number of grid cells a Sampled window of span delta covers."""
        return int(math.floor(delta / (self.interval.length / self.modulus.resolution) + 1e-9))

    def _sampled_at(self, windows: int) -> float:
        """The Sampled modulus over windows of that many grid cells."""
        return _window_oscillation(self._grid_values, windows) * self.modulus.safety_factor

    def _modulus_inverse(self, eps: float) -> float:
        """sup{delta in (0, length] : modulus_at(delta) <= eps}, for eps >= 0.

        Closed form for Lipschitz and Hoelder (the length where the modulus
        stays within eps everywhere, as with a constant of 0). A Sampled
        modulus is searched over the window widths of its grid, doubling
        from one cell and then bisecting, which is valid because the
        oscillation does not decrease as windows widen; the result is the
        largest float that modulus_at reads as the widest window within eps,
        just under the next grid cell."""
        length, m = self.interval.length, self.modulus
        if not isinstance(m, Sampled):
            if self.modulus_at(length) <= eps:
                return length
            if isinstance(m, Lipschitz):
                return eps / m.constant
            return (eps / m.constant) ** (1.0 / m.exponent)
        within, beyond = 0, 1  # _sampled_at(within) <= eps, and then < _sampled_at(beyond)
        while self._sampled_at(beyond) <= eps:
            if beyond == m.resolution:
                return length
            within, beyond = beyond, min(2 * beyond, m.resolution)
        while beyond - within > 1:
            middle = (within + beyond) // 2
            if self._sampled_at(middle) <= eps:
                within = middle
            else:
                beyond = middle
        delta = (within + 1 - 1e-9) * (length / m.resolution)
        while self._windows(delta) > within:
            delta = math.nextafter(delta, 0.0)
        while self._windows(math.nextafter(delta, math.inf)) <= within:
            delta = math.nextafter(delta, math.inf)
        return delta

    def _affine_form(self) -> PiecewiseLinear | None:
        """The exact piecewise-linear form of a syntactically affine
        expression whose program evaluates on the whole interval, else None,
        decided once, when the spec is built. An operation on constants that
        is not finite makes every point invalid, and an affine subterm peaks
        in magnitude at an end, so the two ends decide."""
        folded = _fold(self.expr)
        if not isinstance(folded, tuple):
            return None
        c0, c1, _ = folded
        a, b = self.interval.a, self.interval.b
        ends = (c0 + c1 * a, c0 + c1 * b)
        if not (math.isfinite(ends[0]) and math.isfinite(ends[1])):
            return None
        if self._program.run(np.array([a, b]))[1] is not None:
            return None
        return PiecewiseLinear(((a, ends[0]), (b, ends[1])))

    def pl_form(self) -> PiecewiseLinear | None:
        """The exact piecewise-linear form fixed when the spec was built, or
        None (no bounded-variation guarantee downstream)."""
        return self._exact

    def cell_integrals(self, lin: PiecewiseLinear, ys: np.ndarray,
                       tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """The protocol's cell read: the affine form's exact answer, or else
        _quadrature's."""
        if self._exact is None:
            return _quadrature(self, lin, ys, tol)
        return self._exact.cell_integrals(lin, ys, tol)


def _window_oscillation(values: np.ndarray, width: int) -> float:
    """max over sliding windows of (window max - window min), width+1 points.

    Doubling: after k rounds, hi[i] and lo[i] are the extremes of the 2^k
    points from i; a window of 2^k + r points (r < 2^k) is the union of the
    runs of 2^k points at its two ends. So log2(width) whole-array passes.
    """
    if width <= 0:
        return 0.0
    span = min(width, len(values) - 1) + 1
    hi, lo, run = values, values, 1
    while 2 * run <= span:
        hi, lo = np.maximum(hi[:-run], hi[run:]), np.minimum(lo[:-run], lo[run:])
        run *= 2
    r = span - run
    return float((np.maximum(hi[:len(hi) - r], hi[r:]) - np.minimum(lo[:len(lo) - r], lo[r:])).max())


# perfbench/tracing.py wraps these two by name, for its per-layer spans
# funcspec.integrand_values and funcspec.integrand_modulus; keep them, and
# keep stieltjes and _quadrature calling them rather than the methods.
def integrand_values(f, xs) -> np.ndarray:
    return np.asarray(f.evaluate_array(np.asarray(xs, dtype=float)), dtype=float)


def integrand_modulus(f, delta: float) -> float:
    return f.modulus_at(delta)


EVALUATION_BUDGET = 2**21  # midpoint evaluations per certified integration call
_BLOCK_POINTS = 2**14  # midpoints per integrand_values call of _quadrature's read
_ROUNDING_STEPS = 8  # relative 2^-20 narrowings of the fitted width, should rounding miss tol


def _quadrature(f: IntegrandSpec, lin: PiecewiseLinear, ys: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """cell_integrals by midpoint sums, on the cells of bv_core._cells(lin,
    ys): s * (midpoint sum of f) on each sloped cell [x0, x0 + len], and the
    terms |s| * len * omega_f(spacing / 4) of its bound (omega_f(spacing) for
    a Sampled modulus, and then not certified); flat cells get 0 and 0. Each
    sloped cell gets ceil(len / width) midpoints, with one width worked out
    from tol rather than searched for: with W the sum of |s| * len and
    delta* = f._modulus_inverse(tol / W), the widest argument at which omega
    stays within tol / W, the width is 4 * delta* (delta* when Sampled).
    Every spacing is then at most the width and omega does not decrease, so
    the bound is at most W * omega(delta*) <= tol. A cell no longer than the
    width keeps one midpoint however wide the width grows, so such cells,
    shortest first, are charged their own term and leave W, and the width
    is worked out again from what remains of tol, until no more cells fall
    under it. Should rounding carry the bound, summed in cell order, past
    tol, the width narrows by a relative 2^-20, at most _ROUNDING_STEPS
    times. When the counts would exceed EVALUATION_BUDGET, the width is the
    sum of the lengths over (budget - cells), the finest the budget allows,
    or the longest cell when the cells alone reach the budget. omega is
    asked once per distinct argument.

    The midpoints are read in cell order, a run of consecutive cells with
    the same count n at a time: one row of n midpoints per cell, and one
    integrand_values call per block of whole rows of at most _BLOCK_POINTS
    points (a longer row alone). Each row is summed pairwise, as a cell's
    own array would be, so every float is the one a loop over the cells
    makes, and an undefined point is reported at the leftmost one.

    A sub-cell of width h misses its integral by at most the integral of
    omega(|x - m|) over it, h times the mean of omega on [0, h/2], which is
    at most h * omega(h/4) when omega is concave (Jensen); every certified
    modulus is. A Sampled window oscillation is not concave, so it keeps
    omega(h); a smaller argument would also reach its zero below the grid
    spacing at a wider width."""
    cuts, slopes = _cells(lin, ys)
    steps, terms = np.zeros(len(slopes)), np.zeros(len(slopes))
    sloped = slopes != 0.0
    if not sloped.any():
        return cuts, steps, terms, True
    lo, length, slope = cuts[:-1][sloped], np.diff(cuts)[sloped], slopes[sloped]
    sampled = isinstance(f.modulus, Sampled)
    scale = 1.0 if sampled else 4.0  # omega is asked at spacing / 4 (spacing when Sampled)
    weight = np.abs(slope) * length
    omega: dict[float, float] = {}

    def counts(width: float) -> np.ndarray:
        return np.maximum(1.0, np.ceil(length / width))

    def modulus(spacing: np.ndarray) -> np.ndarray:
        deltas = (np.minimum(spacing, f.interval.length) / scale).tolist()
        omega.update((d, integrand_modulus(f, d)) for d in sorted(set(deltas) - omega.keys()))
        return np.array([omega[d] for d in deltas])

    def bound_terms(width: float) -> np.ndarray:
        return weight * modulus(length / counts(width))

    order = np.argsort(length, kind="stable")
    ordered, wide = length[order], np.ones(len(length), dtype=bool)
    short, charged = 0, 0.0
    while True:
        rest = float(_running_sum(weight[wide])[-1])
        width = f._modulus_inverse(max(0.0, tol - charged) / rest if rest > 0.0 else math.inf) * scale
        newly = order[short:np.searchsorted(ordered, width, side="right")]
        if not newly.size:
            break
        charged = float(_running_sum(np.append(charged, weight[newly] * modulus(length[newly])))[-1])
        wide[newly], short = False, short + newly.size
    total = float(_running_sum(length)[-1])
    fits = width * EVALUATION_BUDGET >= total and counts(width).sum() <= EVALUATION_BUDGET
    if not fits:
        cells = len(length)
        width = total / (EVALUATION_BUDGET - cells) if cells < EVALUATION_BUDGET else float(length.max())
    cell_terms = bound_terms(width)
    for _ in range(_ROUNDING_STEPS if fits else 0):
        narrower = width * (1.0 - 2.0**-20)
        if _running_sum(cell_terms)[-1] <= tol or counts(narrower).sum() > EVALUATION_BUDGET:
            break
        width, cell_terms = narrower, bound_terms(narrower)

    n_of = counts(width)
    w = length / n_of
    sums = np.empty(len(w))
    ends = np.append(np.flatnonzero(np.diff(n_of)) + 1, len(w)).tolist()
    for start, end in zip([0] + ends, ends):
        n = int(n_of[start])
        offsets = np.arange(n) + 0.5
        rows = max(1, _BLOCK_POINTS // n)
        for i in range(start, end, rows):
            j = min(i + rows, end)
            mids = lo[i:j, None] + offsets * w[i:j, None]
            sums[i:j] = integrand_values(f, mids.ravel()).reshape(j - i, n).sum(axis=1)
    steps[sloped], terms[sloped] = slope * w * sums, cell_terms
    return cuts, steps, terms, not sampled
