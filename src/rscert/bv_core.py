"""Exact representations of bounded-variation functions on a closed interval.

Two building blocks cover everything this package integrates against: a
right-continuous step function with finitely many breakpoints (the value at
the right endpoint is stored separately so half-open indicator bricks are
representable), and a continuous piecewise-linear interpolant. A BVFunction
is the pointwise sum of one of each. Evaluation, one-sided limits (at one
point, or at every structural point at once through ``BVFunction.profile``),
jump extraction, total variation and the Jordan split into non-decreasing
parts are all read off the representation exactly; the only sampled (inexact)
operation is ``sampled_total_variation``, a lower-bound diagnostic. As an
integrand, PiecewiseLinear implements the protocol described in funcspec,
with an exact modulus and exact extremes (RangeBounds).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the interval (or sub-interval) it must be in."""


class ConstructionError(ValueError):
    """A representation's invariants are violated at construction time."""


def slack(*magnitudes: float, scale: float = 1e-9) -> float:
    """Numeric comparison tolerance scaled to the quantities involved.

    All "exact" claims in this package are asserted up to scale*(1+magnitude);
    the constructions certified here have analytic margins that dwarf this.
    """
    biggest = max((abs(m) for m in magnitudes), default=0.0)
    return scale * (1.0 + biggest)


def _check_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ConstructionError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b, both finite."""

    a: float
    b: float

    def __post_init__(self) -> None:
        _check_finite("interval endpoint", self.a, self.b)
        if not self.a < self.b:
            raise ConstructionError(f"interval needs a < b, got [{self.a}, {self.b}]")

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b

    @property
    def length(self) -> float:
        return self.b - self.a

    def require(self, x: float, what: str = "point") -> None:
        if not self.contains(x):
            raise DomainError(f"{what} {x!r} outside [{self.a}, {self.b}]")

    def require_subinterval(self, c: float, d: float) -> None:
        if not (self.a <= c <= d <= self.b):
            raise DomainError(
                f"[{c}, {d}] is not a sub-interval of [{self.a}, {self.b}]"
            )


@dataclass(frozen=True)
class RangeBounds:
    """Extremes of a continuous integrand on [c, d]: the sampled ones, and
    enclosing bounds that are certified unless a heuristic modulus padded
    them (for a piecewise-linear function all four are the exact extremes)."""

    min_sample: float
    max_sample: float
    lower: float
    upper: float
    certified: bool


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous pure-jump function on [a, b].

    Equals piece_values[0] on [a, p_1), piece_values[i] on [p_i, p_{i+1}),
    piece_values[-1] on [p_m, b), and end_value at b. The value at b is
    independent of the last piece so that bricks like chi_[u, b) (end value 0)
    are representable. Construction canonicalizes: a breakpoint at b is folded
    away (its piece covers no points) and zero-size jumps are merged, so
    adjacent stored piece values always differ.
    """

    interval: Interval
    breakpoints: tuple[float, ...]
    piece_values: tuple[float, ...]
    end_value: float

    def __post_init__(self) -> None:
        bp = tuple(float(p) for p in self.breakpoints)
        pv = tuple(float(v) for v in self.piece_values)
        _check_finite("piece value", *pv, self.end_value)
        _check_finite("breakpoint", *bp)
        if len(pv) != len(bp) + 1:
            raise ConstructionError(
                f"need one more piece value than breakpoints, got {len(pv)} vs {len(bp)}"
            )
        a, b = self.interval.a, self.interval.b
        for p, q in zip(bp, bp[1:]):
            if not p < q:
                raise ConstructionError(f"breakpoints not strictly increasing at {p!r}")
        if bp and not (a < bp[0] and bp[-1] <= b):
            raise ConstructionError(f"breakpoints must lie in ({a}, {b}]")
        # A breakpoint at b introduces a piece covering no points; drop it.
        if bp and bp[-1] == b:
            bp, pv = bp[:-1], pv[:-1]
        # Merge equal adjacent pieces (canonical form: every stored jump is real).
        keep_bp, keep_pv = [], [pv[0]]
        for p, v in zip(bp, pv[1:]):
            if v != keep_pv[-1]:
                keep_bp.append(p)
                keep_pv.append(v)
        object.__setattr__(self, "breakpoints", tuple(keep_bp))
        object.__setattr__(self, "piece_values", tuple(keep_pv))
        object.__setattr__(self, "end_value", float(self.end_value))

    @classmethod
    def constant(cls, interval: Interval, value: float = 0.0) -> "StepFunction":
        return cls(interval, (), (value,), value)

    @classmethod
    def brick(
        cls, interval: Interval, lo: float, hi: float, height: float = 1.0
    ) -> "StepFunction":
        """height * chi_[lo, hi) on the given interval (zero elsewhere)."""
        interval.require_subinterval(lo, hi)
        if lo == hi:
            return cls.constant(interval)
        bp: tuple[float, ...]
        if lo == interval.a:
            bp, pv = (hi,), (height, 0.0)
        else:
            bp, pv = (lo, hi), (0.0, height, 0.0)
        return cls(interval, bp, pv, 0.0)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: float) -> float:
        self.interval.require(x)
        if x == self.interval.b:
            return self.end_value
        return self.piece_values[bisect_right(self.breakpoints, x)]

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.size and (xs.min() < self.interval.a or xs.max() > self.interval.b):
            raise DomainError("points outside the function's interval")
        vals = np.asarray(self.piece_values)[
            np.searchsorted(self.breakpoints, xs, side="right")
        ]
        return np.where(xs == self.interval.b, self.end_value, vals)

    def left_limit(self, x: float) -> float:
        if not (self.interval.a < x <= self.interval.b):
            raise DomainError(f"left limit needs x in ({self.interval.a}, {self.interval.b}]")
        return self.piece_values[bisect_left(self.breakpoints, x)]

    def right_limit(self, x: float) -> float:
        if not (self.interval.a <= x < self.interval.b):
            raise DomainError(f"right limit needs x in [{self.interval.a}, {self.interval.b})")
        return self.piece_values[bisect_right(self.breakpoints, x)]

    # -- structure ----------------------------------------------------------

    def jumps_in(self, c: float, d: float) -> list[tuple[float, float]]:
        """Signed jumps at points of [c, d], one-sided at the ends.

        Interior points carry the full two-sided jump; at d only the
        left-side difference evaluate(d) - left_limit(d) counts (this matches
        restriction of the function to [c, d] and makes variation additive);
        at c the right-side difference is identically zero by right-continuity.
        """
        self.interval.require_subinterval(c, d)
        out: list[tuple[float, float]] = []
        if c == d:
            return out
        lo = bisect_right(self.breakpoints, c)
        hi = bisect_left(self.breakpoints, d)
        for i in range(lo, hi):
            out.append((self.breakpoints[i], self.piece_values[i + 1] - self.piece_values[i]))
        end_jump = self.evaluate(d) - self.left_limit(d)
        if end_jump != 0.0:
            out.append((d, end_jump))
        return out

    def total_variation(self, c: float | None = None, d: float | None = None) -> float:
        c = self.interval.a if c is None else c
        d = self.interval.b if d is None else d
        return float(sum(abs(j) for _, j in self.jumps_in(c, d)))

    def integral(self, c: float, d: float) -> float:
        """The plain Riemann integral of the step values over [c, d]."""
        self.interval.require_subinterval(c, d)
        cuts = [c] + [p for p in self.breakpoints if c < p < d] + [d]
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            total += self.right_limit(lo) * (hi - lo)
        return total

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if self.interval != other.interval:
            raise ConstructionError("cannot add step functions on different intervals")
        bp = sorted(set(self.breakpoints) | set(other.breakpoints))
        pv = [self.piece_values[0] + other.piece_values[0]]
        for p in bp:
            pv.append(
                self.piece_values[bisect_right(self.breakpoints, p)]
                + other.piece_values[bisect_right(other.breakpoints, p)]
            )
        return StepFunction(self.interval, tuple(bp), tuple(pv), self.end_value + other.end_value)

    def scaled(self, factor: float) -> "StepFunction":
        return StepFunction(
            self.interval,
            self.breakpoints,
            tuple(factor * v for v in self.piece_values),
            factor * self.end_value,
        )

    def is_zero(self) -> bool:
        return not self.breakpoints and self.piece_values[0] == 0.0 and self.end_value == 0.0


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear interpolant through strictly increasing knots.

    The first knot is at the interval's left endpoint and the last at the
    right endpoint; total variation equals the sum of |y_{i+1} - y_i|.
    """

    knots: tuple[tuple[float, float], ...]
    interval: Interval = field(init=False, repr=False, compare=False)
    xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    ys: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kn = tuple((float(x), float(y)) for x, y in self.knots)
        if len(kn) < 2:
            raise ConstructionError("piecewise-linear function needs at least two knots")
        for (x, y) in kn:
            _check_finite("knot", x, y)
        for (x0, _), (x1, _) in zip(kn, kn[1:]):
            if not x0 < x1:
                raise ConstructionError(f"knot abscissae not strictly increasing at {x1!r}")
        object.__setattr__(self, "knots", kn)
        object.__setattr__(self, "interval", Interval(kn[0][0], kn[-1][0]))
        object.__setattr__(self, "xs", tuple(x for x, _ in kn))
        object.__setattr__(self, "ys", tuple(y for _, y in kn))

    @classmethod
    def constant(cls, interval: Interval, value: float = 0.0) -> "PiecewiseLinear":
        return cls(((interval.a, value), (interval.b, value)))

    def slopes(self) -> tuple[float, ...]:
        return tuple(
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.knots, self.knots[1:])
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: float) -> float:
        self.interval.require(x)
        i = min(max(bisect_right(self.xs, x), 1), len(self.xs) - 1) - 1
        x0, y0 = self.knots[i]
        x1, y1 = self.knots[i + 1]
        if x == x1:
            return y1
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        """evaluate at every point, with the same arithmetic: equal bit for bit."""
        xs = np.asarray(xs, dtype=float)
        if xs.size and (xs.min() < self.interval.a or xs.max() > self.interval.b):
            raise DomainError("points outside the function's interval")
        kx, ky = np.asarray(self.xs), np.asarray(self.ys)
        i = np.clip(np.searchsorted(kx, xs, side="right"), 1, len(kx) - 1) - 1
        x0, y0, x1, y1 = kx[i], ky[i], kx[i + 1], ky[i + 1]
        return np.where(xs == x1, y1, y0 + (y1 - y0) * (xs - x0) / (x1 - x0))

    def left_limit(self, x: float) -> float:
        if not (self.interval.a < x <= self.interval.b):
            raise DomainError("left limit undefined at the left endpoint")
        return self.evaluate(x)

    def right_limit(self, x: float) -> float:
        if not (self.interval.a <= x < self.interval.b):
            raise DomainError("right limit undefined at the right endpoint")
        return self.evaluate(x)

    # -- structure ----------------------------------------------------------

    def _refined(self, c: float, d: float) -> list[float]:
        self.interval.require_subinterval(c, d)
        return [c] + [x for x in self.xs if c < x < d] + ([d] if d > c else [])

    def total_variation(self, c: float | None = None, d: float | None = None) -> float:
        c = self.interval.a if c is None else c
        d = self.interval.b if d is None else d
        pts = self._refined(c, d)
        vals = [self.evaluate(x) for x in pts]
        return float(sum(abs(v1 - v0) for v0, v1 in zip(vals, vals[1:])))

    def integral(self, c: float, d: float) -> float:
        """Exact Riemann integral over [c, d] (trapezoids are exact here)."""
        pts = self._refined(c, d)
        vals = [self.evaluate(x) for x in pts]
        return float(
            sum(
                0.5 * (v0 + v1) * (x1 - x0)
                for x0, x1, v0, v1 in zip(pts, pts[1:], vals, vals[1:])
            )
        )

    def min_value(self, c: float | None = None, d: float | None = None) -> float:
        c = self.interval.a if c is None else c
        d = self.interval.b if d is None else d
        pts = self._refined(c, d) or [c]
        return min(self.evaluate(x) for x in pts)

    def max_value(self, c: float | None = None, d: float | None = None) -> float:
        c = self.interval.a if c is None else c
        d = self.interval.b if d is None else d
        pts = self._refined(c, d) or [c]
        return max(self.evaluate(x) for x in pts)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        if self.interval != other.interval:
            raise ConstructionError("cannot add functions on different intervals")
        xs = sorted(set(self.xs) | set(other.xs))
        return PiecewiseLinear(
            tuple((x, self.evaluate(x) + other.evaluate(x)) for x in xs)
        )

    def shifted(self, offset: float) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple((x, y + offset) for x, y in self.knots))

    def scaled(self, factor: float) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple((x, factor * y) for x, y in self.knots))

    def is_constant(self) -> bool:
        return all(y == self.ys[0] for y in self.ys)

    # -- the integrand protocol (shared with funcspec.IntegrandSpec) ---------

    heuristic = False  # values, modulus and range are all exact

    def modulus_at(self, delta: float) -> float:
        """Exact modulus of continuity: the steepest |slope| times delta."""
        return max((abs(s) for s in self.slopes()), default=0.0) * delta

    def pl_form(self) -> "PiecewiseLinear":
        return self

    def enclose(self, c: float, d: float, grid_size: int = 513) -> RangeBounds:
        """Exact extremes on [c, d]; grid_size is not consulted."""
        lo, hi = self.min_value(c, d), self.max_value(c, d)
        return RangeBounds(lo, hi, lo, hi, True)


@dataclass(frozen=True)
class BVFunction:
    """Sum of a step part and a piecewise-linear part on a shared interval.

    This is the universal bounded-variation representation used throughout:
    total variation is the exact sum of the parts' variations (the step part
    carries all jumps, the linear part all continuous movement).
    """

    step: StepFunction
    linear: PiecewiseLinear

    def __post_init__(self) -> None:
        if self.step.interval != self.linear.interval:
            raise ConstructionError("step and linear parts must share one interval")

    @classmethod
    def from_step(cls, step: StepFunction) -> "BVFunction":
        return cls(step, PiecewiseLinear.constant(step.interval))

    @classmethod
    def from_linear(cls, linear: PiecewiseLinear) -> "BVFunction":
        return cls(StepFunction.constant(linear.interval), linear)

    @classmethod
    def zero(cls, interval: Interval) -> "BVFunction":
        return cls(StepFunction.constant(interval), PiecewiseLinear.constant(interval))

    @property
    def interval(self) -> Interval:
        return self.step.interval

    def evaluate(self, x: float) -> float:
        return self.step.evaluate(x) + self.linear.evaluate(x)

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        return self.step.evaluate_array(xs) + self.linear.evaluate_array(xs)

    def left_limit(self, x: float) -> float:
        return self.step.left_limit(x) + self.linear.left_limit(x)

    def right_limit(self, x: float) -> float:
        return self.step.right_limit(x) + self.linear.right_limit(x)

    def jumps_in(self, c: float, d: float) -> list[tuple[float, float]]:
        return self.step.jumps_in(c, d)

    def integral(self, c: float, d: float) -> float:
        return self.step.integral(c, d) + self.linear.integral(c, d)

    def total_variation(self, c: float | None = None, d: float | None = None) -> float:
        return self.step.total_variation(c, d) + self.linear.total_variation(c, d)

    def structural_points(self) -> tuple[float, ...]:
        """Interval endpoints, step breakpoints and linear knots, sorted."""
        pts = {self.interval.a, self.interval.b}
        pts.update(self.step.breakpoints)
        pts.update(self.linear.xs)
        return tuple(sorted(pts))

    @cached_property
    def profile(self) -> "StructuralProfile":
        """g, g(x-) and g(x+) at every structural point, read in one pass.

        The step part is looked up with searchsorted over its breakpoints and
        the linear part with one evaluate_array call, so each entry equals
        evaluate, left_limit and right_limit at that point bit for bit. At a
        the left limit, and at b the right limit, is the value itself. The
        function is immutable, so the read is made once and kept.
        """
        step = self.step
        pts = np.asarray(self.structural_points())
        bp, pv = np.asarray(step.breakpoints), np.asarray(step.piece_values)
        values = pv[np.searchsorted(bp, pts, side="right")]
        values[-1] = step.end_value  # the last structural point is b
        left = pv[np.searchsorted(bp, pts, side="left")]
        left[0] = values[0]
        lin = self.linear.evaluate_array(pts)
        values, left = values + lin, left + lin
        columns = (pts, values, left, values)  # right-continuous: g(x+) = g(x)
        for col in columns:
            col.flags.writeable = False
        return StructuralProfile(*columns)

    def __add__(self, other: "BVFunction") -> "BVFunction":
        return BVFunction(self.step + other.step, self.linear + other.linear)

    def scaled(self, factor: float) -> "BVFunction":
        return BVFunction(self.step.scaled(factor), self.linear.scaled(factor))


@dataclass(frozen=True)
class StructuralProfile:
    """One columnar read of a BVFunction at its sorted structural points.

    Between consecutive points the function is affine, so these columns
    decide every sign question about it exactly.
    """

    points: np.ndarray
    values: np.ndarray  # g(x)
    left: np.ndarray  # g(x-), with g(a) at a
    right: np.ndarray  # g(x+), the values array itself (g(b) at b)


def as_bv_function(g) -> BVFunction:
    """Coerce a StepFunction or PiecewiseLinear into the common representation."""
    if isinstance(g, BVFunction):
        return g
    if isinstance(g, StepFunction):
        return BVFunction.from_step(g)
    if isinstance(g, PiecewiseLinear):
        return BVFunction.from_linear(g)
    raise TypeError(f"not a bounded-variation representation: {type(g).__name__}")


@dataclass(frozen=True)
class JordanPair:
    """Minimal split g - g(a) = pos - neg with both parts non-decreasing from 0.

    pos collects the upward movement (positive jumps, positive slopes), neg
    the downward movement in absolute value; pos(b) + neg(b) is the total
    variation of the decomposed function.
    """

    pos: BVFunction
    neg: BVFunction


def jordan_decompose(g) -> JordanPair:
    """Split a BV representation into its minimal non-decreasing parts."""
    g = as_bv_function(g)
    a, b = g.interval.a, g.interval.b

    pos_cum, neg_cum = 0.0, 0.0
    pos_bp, pos_pv = [], [0.0]
    neg_bp, neg_pv = [], [0.0]
    end_jump = 0.0
    for p, jump in g.step.jumps_in(a, b):
        if p == b:
            end_jump = jump
            continue
        if jump > 0:
            pos_cum += jump
            pos_bp.append(p)
            pos_pv.append(pos_cum)
        else:
            neg_cum += -jump
            neg_bp.append(p)
            neg_pv.append(neg_cum)
    pos_end = pos_cum + max(end_jump, 0.0)
    neg_end = neg_cum + max(-end_jump, 0.0)
    pos_step = StepFunction(g.interval, tuple(pos_bp), tuple(pos_pv), pos_end)
    neg_step = StepFunction(g.interval, tuple(neg_bp), tuple(neg_pv), neg_end)

    xs = g.linear.xs
    pos_y, neg_y = [0.0], [0.0]
    for (x0, y0), (x1, y1) in zip(g.linear.knots, g.linear.knots[1:]):
        rise = y1 - y0
        pos_y.append(pos_y[-1] + max(rise, 0.0))
        neg_y.append(neg_y[-1] + max(-rise, 0.0))
    pos_lin = PiecewiseLinear(tuple(zip(xs, pos_y)))
    neg_lin = PiecewiseLinear(tuple(zip(xs, neg_y)))

    return JordanPair(BVFunction(pos_step, pos_lin), BVFunction(neg_step, neg_lin))


def total_variation(g, c: float, d: float) -> float:
    """Exact total variation of a BV representation on [c, d].

    Additive by construction: jumps at interior points count fully, the jump
    at d counts by its left-side difference, the (zero) right-side difference
    at c is never double-counted.
    """
    if c > d:
        raise DomainError(f"need c <= d, got c={c}, d={d}")
    return as_bv_function(g).total_variation(c, d)


def jumps(g, c: float, d: float) -> list[tuple[float, float]]:
    """All points of [c, d] where the one-sided limits differ, with signed sizes."""
    return as_bv_function(g).jumps_in(c, d)


def sampled_total_variation(f, c: float, d: float, partition_size: int) -> float:
    """Sum of |increments| of f over a uniform partition of [c, d].

    partition_size counts subintervals, so dyadic resolutions refine by
    inclusion. Always a lower bound for the true variation and non-decreasing
    under refinement by inclusion; diverges with resolution for integrands of
    unbounded variation.
    """
    if partition_size < 2:
        raise DomainError("partition_size must be at least 2")
    if c > d:
        raise DomainError(f"need c <= d, got c={c}, d={d}")
    xs = np.linspace(c, d, partition_size + 1)
    return float(np.abs(np.diff(f.evaluate_array(xs))).sum())
