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
with an exact modulus, itself as its exact form (pl_form; a BVFunction's is
its linear part shifted by the step level, when the step part has no jump)
and exact cell integrals (_exact_cells, the one cell formula it shares with
BVFunction.cell_integrals, whose cell grid _cell_read positivity's measure
integrals also read). Every function's scalar evaluate is its evaluate_array
at one point (_PointRead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the interval (or sub-interval) it must be in."""


class ConstructionError(ValueError):
    """A representation's invariants are violated at construction time."""


def slack(*magnitudes: float) -> float:
    """Numeric comparison tolerance scaled to the quantities involved.

    All "exact" claims in this package are asserted up to 1e-9*(1+magnitude);
    the constructions certified here have analytic margins that dwarf this.
    """
    biggest = max((abs(m) for m in magnitudes), default=0.0)
    return 1e-9 * (1.0 + biggest)


def _check_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ConstructionError(f"{name} must be finite, got {v!r}")


def _running_sum(values) -> np.ndarray:
    """0.0 followed by the partial sums of values, added in order: the floats
    a loop adding each value to 0.0 makes (ndarray.sum adds pairwise)."""
    return np.cumsum(np.append(0.0, values))


def _sorted_union(*arrays) -> np.ndarray:
    """The sorted distinct values of the arrays, as np.union1d gives them
    (np.union1d and plain np.unique import numpy.ma on their first call)."""
    values = np.sort(np.concatenate(arrays))
    distinct = np.ones(len(values), dtype=bool)
    distinct[1:] = values[1:] != values[:-1]
    return values[distinct]


def _check_finite_array(name: str, values: np.ndarray) -> None:
    """_check_finite over a float array, naming the first non-finite entry."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConstructionError(f"{name} must be finite, got {values[bad[0]].item()!r}")


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


class _PointRead:
    """evaluate(x): the interval check that names x, then evaluate_array at
    that one point, so a function has one evaluation path."""

    def evaluate(self, x: float) -> float:
        self.interval.require(x)
        return self.evaluate_array(np.array([x], dtype=float))[0].item()


@dataclass(frozen=True, eq=False)
class StepFunction(_PointRead):
    """Right-continuous pure-jump function on [a, b].

    Equals piece_values[0] on [a, p_1), piece_values[i] on [p_i, p_{i+1}),
    piece_values[-1] on [p_m, b), and end_value at b. The value at b is
    independent of the last piece so that bricks like chi_[u, b) (end value 0)
    are representable. Construction canonicalizes: a breakpoint at b is folded
    away (its piece covers no points) and zero-size jumps are merged, so
    adjacent stored piece values always differ. Both parts are stored as
    read-only float64 views of one array copied from the constructor's
    sequences, which every reader uses directly; equality compares values,
    and the function is unhashable.
    """

    interval: Interval
    breakpoints: np.ndarray
    piece_values: np.ndarray
    end_value: float

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=float)
        pv = np.asarray(self.piece_values, dtype=float)
        if bp.ndim != 1 or pv.ndim != 1:
            raise ConstructionError("breakpoints and piece values must be flat sequences")
        _check_finite_array("piece value", pv)
        _check_finite("piece value", self.end_value)
        _check_finite_array("breakpoint", bp)
        if len(pv) != len(bp) + 1:
            raise ConstructionError(
                f"need one more piece value than breakpoints, got {len(pv)} vs {len(bp)}"
            )
        a, b = self.interval.a, self.interval.b
        unordered = np.flatnonzero(~(bp[:-1] < bp[1:]))
        if unordered.size:
            raise ConstructionError(
                f"breakpoints not strictly increasing at {bp[unordered[0]].item()!r}"
            )
        if bp.size and not (a < bp[0] and bp[-1] <= b):
            raise ConstructionError(f"breakpoints must lie in ({a}, {b}]")
        # A breakpoint at b introduces a piece covering no points; drop it.
        if bp.size and bp[-1] == b:
            bp, pv = bp[:-1], pv[:-1]
        # Merge equal adjacent pieces (canonical form: every stored jump is
        # real). Each run of equal values keeps its first, so comparing every
        # value with its predecessor equals comparing it with the last kept one.
        moved = pv[1:] != pv[:-1]
        if not moved.all():
            bp, pv = bp[moved], pv[np.append(True, moved)]
        # one read-only copy the function owns, whose views refuse a flip back
        columns = np.concatenate((bp, pv))
        columns.flags.writeable = False
        object.__setattr__(self, "breakpoints", columns[: len(bp)])
        object.__setattr__(self, "piece_values", columns[len(bp) :])
        object.__setattr__(self, "end_value", float(self.end_value))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (self.interval == other.interval and self.end_value == other.end_value
                and np.array_equal(self.breakpoints, other.breakpoints)
                and np.array_equal(self.piece_values, other.piece_values))

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
        if lo == interval.a:
            bp, pv = (hi,), (height, 0.0)
        else:
            bp, pv = (lo, hi), (0.0, height, 0.0)
        return cls(interval, bp, pv, 0.0)

    # -- evaluation ---------------------------------------------------------

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.size and not (xs.min() >= self.interval.a and xs.max() <= self.interval.b):
            raise DomainError("points outside the function's interval")
        vals = self.piece_values[np.searchsorted(self.breakpoints, xs, side="right")]
        return np.where(xs == self.interval.b, self.end_value, vals)

    def left_limit(self, x: float) -> float:
        if not (self.interval.a < x <= self.interval.b):
            raise DomainError(f"left limit needs x in ({self.interval.a}, {self.interval.b}]")
        return self.piece_values[np.searchsorted(self.breakpoints, x, side="left")].item()

    def right_limit(self, x: float) -> float:
        if not (self.interval.a <= x < self.interval.b):
            raise DomainError(f"right limit needs x in [{self.interval.a}, {self.interval.b})")
        return self.piece_values[np.searchsorted(self.breakpoints, x, side="right")].item()

    # -- structure ----------------------------------------------------------

    def jumps_in(self, c: float, d: float) -> np.ndarray:
        """Signed jumps at points of [c, d], one-sided at the ends.

        A read-only float array of shape (k, 2), one row (point, jump) per
        jump in increasing order; it is stored column by column, so
        ``points, weights = g.jumps_in(c, d).T`` are contiguous arrays.
        Interior points carry the full two-sided jump; at d only the
        left-side difference evaluate(d) - left_limit(d) counts (this matches
        restriction of the function to [c, d] and makes variation additive);
        at c the right-side difference is identically zero by right-continuity.
        Every breakpoint is a jump and none sits at b, so the rows are the
        breakpoints in (c, d] and, when d is b, the jump to end_value.
        """
        self.interval.require_subinterval(c, d)
        bp, pv = self.breakpoints, self.piece_values
        lo, hi = np.searchsorted(bp, (c, d), side="right")
        points, weights = bp[lo:hi], np.diff(pv[lo : hi + 1])
        if c < d and d == self.interval.b and self.end_value != pv[-1]:
            points = np.append(points, d)
            weights = np.append(weights, self.end_value - pv[-1])
        columns = np.stack((points, weights))
        columns.flags.writeable = False
        return columns.T

    def total_variation(self, c: float | None = None, d: float | None = None) -> float:
        c = self.interval.a if c is None else c
        d = self.interval.b if d is None else d
        return float(_running_sum(np.abs(self.jumps_in(c, d)[:, 1]))[-1])

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if self.interval != other.interval:
            raise ConstructionError("cannot add step functions on different intervals")
        bp = _sorted_union(self.breakpoints, other.breakpoints)
        values = [g.piece_values[np.searchsorted(g.breakpoints, bp, side="right")]
                  for g in (self, other)]
        pv = np.append(self.piece_values[0] + other.piece_values[0], values[0] + values[1])
        return StepFunction(self.interval, bp, pv, self.end_value + other.end_value)

    def scaled(self, factor: float) -> "StepFunction":
        return StepFunction(self.interval, self.breakpoints, factor * self.piece_values,
                            factor * self.end_value)

    def is_zero(self) -> bool:
        return not (self.breakpoints.size or self.end_value or self.piece_values[0])


@dataclass(frozen=True, eq=False)
class PiecewiseLinear(_PointRead):
    """Continuous piecewise-linear interpolant through strictly increasing knots.

    The first knot is at the interval's left endpoint and the last at the
    right endpoint; total variation equals the sum of |y_{i+1} - y_i|. The
    (x, y) pairs are stored once, copied into a read-only float64 (k, 2)
    array ``knots`` laid out column by column as ``StepFunction.jumps_in``
    is, so ``xs`` and ``ys`` are contiguous views of its columns; equality
    compares values, and the function is unhashable.
    """

    knots: np.ndarray
    interval: Interval = field(init=False, repr=False)
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        kn = np.asarray(self.knots, dtype=float)
        if len(kn) < 2:
            raise ConstructionError("piecewise-linear function needs at least two knots")
        if kn.shape != (len(kn), 2):
            raise ConstructionError("knots must be (x, y) pairs")
        _check_finite_array("knot", kn.ravel())
        unordered = np.flatnonzero(~(kn[:-1, 0] < kn[1:, 0]))
        if unordered.size:
            raise ConstructionError(
                f"knot abscissae not strictly increasing at {kn[unordered[0] + 1, 0].item()!r}"
            )
        columns = np.array(kn.T, order="C")  # a copy the function owns
        columns.flags.writeable = False
        xs, ys = columns
        object.__setattr__(self, "knots", columns.T)
        object.__setattr__(self, "interval", Interval(xs[0].item(), xs[-1].item()))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        return np.array_equal(self.knots, other.knots)

    @classmethod
    def constant(cls, interval: Interval, value: float = 0.0) -> "PiecewiseLinear":
        return cls(((interval.a, value), (interval.b, value)))

    def slopes(self) -> np.ndarray:
        return np.diff(self.ys) / np.diff(self.xs)

    # -- evaluation ---------------------------------------------------------

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        """y0 + (y1 - y0) * (x - x0) / (x1 - x0) on the piece [x0, x1] that
        holds x, the last one whose start is at most x, and y1 at x1."""
        xs = np.asarray(xs, dtype=float)
        if xs.size and not (xs.min() >= self.interval.a and xs.max() <= self.interval.b):
            raise DomainError("points outside the function's interval")
        kx, ky = self.xs, self.ys
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

    def _refined(self, c: float | None, d: float | None) -> np.ndarray:
        """c, the knots inside (c, d) and d (c alone when c == d); c and d
        default to the interval's ends."""
        c = self.interval.a if c is None else c
        d = self.interval.b if d is None else d
        self.interval.require_subinterval(c, d)
        xs = self.xs
        return np.concatenate(([c], xs[(c < xs) & (xs < d)], [d] if d > c else []))

    def total_variation(self, c: float | None = None, d: float | None = None) -> float:
        """The sum of |slope| * length over the pieces of [c, d], in order: the
        stored slopes, not differences of values there, whose rounding grows
        with |f| and so moves when a constant is added to f."""
        pts = self._refined(c, d)
        slopes = self.slopes()[np.searchsorted(self.xs, pts[:-1], side="right") - 1]
        return float(_running_sum(np.abs(slopes) * np.diff(pts))[-1])

    def min_value(self, c: float | None = None, d: float | None = None) -> float:
        vals = self.evaluate_array(self._refined(c, d))
        return vals[vals.argmin()].item()  # the first of equal minima, as min() gives

    def max_value(self, c: float | None = None, d: float | None = None) -> float:
        vals = self.evaluate_array(self._refined(c, d))
        return vals[vals.argmax()].item()

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        if self.interval != other.interval:
            raise ConstructionError("cannot add functions on different intervals")
        xs = _sorted_union(self.xs, other.xs)
        return PiecewiseLinear(
            np.column_stack((xs, self.evaluate_array(xs) + other.evaluate_array(xs)))
        )

    def shifted(self, offset: float) -> "PiecewiseLinear":
        return PiecewiseLinear(np.column_stack((self.xs, self.ys + offset)))

    def scaled(self, factor: float) -> "PiecewiseLinear":
        return PiecewiseLinear(np.column_stack((self.xs, factor * self.ys)))

    def is_constant(self) -> bool:
        return bool((self.ys == self.ys[0]).all())

    # -- the integrand protocol (shared with funcspec.IntegrandSpec) ---------

    heuristic = False  # values, modulus and form are all exact

    def modulus_at(self, delta: float) -> float:
        """Exact modulus of continuity: the steepest |slope| times delta."""
        return float(np.abs(self.slopes()).max() * delta)

    def pl_form(self) -> "PiecewiseLinear":
        return self

    def cell_integrals(self, lin: "PiecewiseLinear", ys: np.ndarray, tol: float):
        """The exact cell integrals against lin (_exact_cells) on the cells
        of _cells(lin, ys) also cut at the knots, read off the values at the
        cuts: the function is continuous. tol is not consulted."""
        cuts, slopes = _cells(lin, ys, self.xs)
        u = self.evaluate_array(cuts)
        return _exact_cells(cuts, slopes, u[:-1], u[1:])


@dataclass(frozen=True)
class BVFunction(_PointRead):
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

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        return self.step.evaluate_array(xs) + self.linear.evaluate_array(xs)

    def left_limit(self, x: float) -> float:
        return self.step.left_limit(x) + self.linear.left_limit(x)

    def right_limit(self, x: float) -> float:
        return self.step.right_limit(x) + self.linear.right_limit(x)

    def jumps_in(self, c: float, d: float) -> np.ndarray:
        return self.step.jumps_in(c, d)

    def total_variation(self, c: float | None = None, d: float | None = None) -> float:
        return self.step.total_variation(c, d) + self.linear.total_variation(c, d)

    def structural_points(self) -> tuple[float, ...]:
        """Interval endpoints, step breakpoints and linear knots, sorted."""
        return tuple(self.profile.points.tolist())

    def one_sided(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g(x-) and g(x+) at every point of an array, equal bit for bit
        to left_limit and right_limit; g(a) stands in for the left limit at a
        and g(b) for the right limit at b, so the right column is
        evaluate_array (the function is right-continuous)."""
        xs = np.asarray(xs, dtype=float)
        lin = self.linear.evaluate_array(xs)
        left = self.step.piece_values[np.searchsorted(self.step.breakpoints, xs, side="left")]
        return left + lin, self.step.evaluate_array(xs) + lin

    @cached_property
    def profile(self) -> "StructuralProfile":
        """g(x-) and g(x+) = g(x) at every structural point (one_sided),
        read once and kept, since the function is immutable."""
        pts = _sorted_union([self.interval.a, self.interval.b],
                            self.step.breakpoints, self.linear.xs)
        left, right = self.one_sided(pts)
        for col in (pts, left, right):
            col.flags.writeable = False
        return StructuralProfile(pts, left, right)

    def pl_form(self) -> PiecewiseLinear | None:
        """The integrand protocol's exact form (see funcspec): the linear
        part shifted by the step level, or None when the step part jumps."""
        level = self.step.piece_values[0].item()
        if self.step.breakpoints.size or self.step.end_value != level:
            return None
        return self.linear.shifted(level)

    def cell_integrals(self, lin: PiecewiseLinear, ys: np.ndarray,
                       tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """The integrand protocol's cell read (see funcspec): the exact cell
        integrals (_exact_cells) on the cells of _cell_read(self, lin, ys).
        tol is not consulted."""
        return _exact_cells(*_cell_read(self, lin, ys))

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
    left: np.ndarray  # g(x-), with g(a) at a
    right: np.ndarray  # g(x+), which is g(x) (g is right-continuous; g(b) at b)


def as_bv_function(g) -> BVFunction:
    """Coerce a StepFunction or PiecewiseLinear into the common representation."""
    if isinstance(g, BVFunction):
        return g
    if isinstance(g, StepFunction):
        return BVFunction.from_step(g)
    if isinstance(g, PiecewiseLinear):
        return BVFunction.from_linear(g)
    raise TypeError(f"not a bounded-variation representation: {type(g).__name__}")


def _cells(lin: PiecewiseLinear, ys: np.ndarray, *extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct cuts a, ys, lin's knots and any extra points, from
    a up to ys[-1], and lin's slope on each cell between consecutive cuts."""
    cuts = _sorted_union([lin.interval.a], ys, lin.xs, *extra)
    cuts = cuts[(cuts >= lin.interval.a) & (cuts <= ys[-1])]
    return cuts, lin.slopes()[np.searchsorted(lin.xs, cuts[:-1], side="right") - 1]


def _cell_read(u: BVFunction, lin: PiecewiseLinear,
               ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cells of _cells(lin, ys) also cut at u's structural points, so u
    and lin are both affine on each: the cuts, lin's slope on each cell, and
    u(x0+) and u(x1-) at its ends."""
    cuts, slopes = _cells(lin, ys, u.profile.points)
    left, right = u.one_sided(cuts)
    return cuts, slopes, right[:-1], left[1:]


def _exact_cells(cuts: np.ndarray, slopes: np.ndarray, u0: np.ndarray,
                 u1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """cell_integrals of an integrand u that, like lin, is affine on every
    cell between the cuts, from u(x0+) and u(x1-) at the cells' ends: the
    cuts, the integral of u dlin on each cell, bound terms 0 and True
    (certified; it leaves out a few ulps of rounding per cell). That
    integral is s * (x1 - x0) * (u(x0+) + u(x1-)) / 2 with s lin's slope,
    not (lin(x1) - lin(x0)) * ..., whose rounding grows with |lin| and so
    moves when a constant is added to lin."""
    steps = slopes * np.diff(cuts) * (0.5 * (u0 + u1))
    return cuts, steps, np.zeros(len(steps)), True


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

    points, weights = g.step.jumps_in(a, b).T
    inner = points < b  # only the last row can sit at b
    end_jump = weights[-1] if not inner.all() else 0.0
    points, weights = points[inner], weights[inner]
    up = weights > 0.0
    pos_pv, neg_pv = _running_sum(weights[up]), _running_sum(-weights[~up])
    pos_step = StepFunction(g.interval, points[up], pos_pv, pos_pv[-1] + max(end_jump, 0.0))
    neg_step = StepFunction(g.interval, points[~up], neg_pv, neg_pv[-1] + max(-end_jump, 0.0))

    xs, rise = g.linear.xs, np.diff(g.linear.ys)
    pos_lin = PiecewiseLinear(np.column_stack((xs, _running_sum(np.maximum(rise, 0.0)))))
    neg_lin = PiecewiseLinear(np.column_stack((xs, _running_sum(np.maximum(-rise, 0.0)))))

    return JordanPair(BVFunction(pos_step, pos_lin), BVFunction(neg_step, neg_lin))


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
