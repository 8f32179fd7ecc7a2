"""Riemann-Stieltjes integration of continuous integrands against BV integrators.

The step part of an integrator is handled exactly (a finite sum of integrand
values times jump weights, with the usual one-sided weights at the interval
ends). The piecewise-linear part reduces to ordinary integrals slope-piece by
slope-piece: exact in closed form when the integrand is itself piecewise
linear, otherwise composite midpoint sums whose error is controlled by the
integrand's declared modulus of continuity. A definitional Riemann-Stieltjes
sum is kept alongside as an independent cross-check oracle. Cumulative
curves y -> J(y) are computed in one pass over the integrator's jumps and
knots; they are the one place that computes J at many points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bv_core import (
    BVFunction,
    DomainError,
    PiecewiseLinear,
    StepFunction,
    as_bv_function,
)
from .funcspec import integrand_modulus, integrand_values

__all__ = [
    "IntegralResult",
    "IntegralCurve",
    "ToleranceNotReached",
    "rs_jump_exact",
    "rs_pl_certified",
    "rs_bv",
    "rs_bruteforce_oracle",
    "rs_pl_integrator_exact",
    "integration_by_parts_residual",
    "curve",
]

DEFAULT_TOL = 1e-9
REFINEMENT_ROUNDS = 40
EVALUATION_BUDGET = 2**21  # midpoint evaluations per certified integration call


@dataclass(frozen=True)
class IntegralResult:
    """Integral value with a one-sided error bound.

    error_bound is 0 for purely exact computations; certified is False
    whenever a heuristic (Sampled) modulus contributed to the bound.
    """

    value: float
    error_bound: float
    certified: bool


class ToleranceNotReached(ArithmeticError):
    """Requested tolerance unreachable within the refinement cap.

    Carries the best value and bound achieved so callers can still use them.
    """

    def __init__(self, message: str, value: float, error_bound: float):
        super().__init__(message)
        self.value = value
        self.error_bound = error_bound


def _require_upper_limit(interval, y: float) -> None:
    if not (interval.a < y <= interval.b):
        raise DomainError(f"upper limit {y!r} must lie in ({interval.a}, {interval.b}]")


def rs_jump_exact(f, g: StepFunction | BVFunction, y: float) -> IntegralResult:
    """Exact integral of f against a pure-jump integrator up to y.

    Sums f(p) * w(p) over the jump points of g in [a, y]: full two-sided
    jumps strictly inside, g(y) - left_limit(y) at y, and the (identically
    zero, by right-continuity) right-side difference at a.
    """
    step = g.step if isinstance(g, BVFunction) else g
    _require_upper_limit(step.interval, y)
    jumps = step.jumps_in(step.interval.a, y)
    if not jumps:
        return IntegralResult(0.0, 0.0, True)
    points = np.asarray([p for p, _ in jumps])
    weights = np.asarray([w for _, w in jumps])
    values = integrand_values(f, points)
    return IntegralResult(float(values @ weights), 0.0, True)


def _clipped_pieces(g: PiecewiseLinear, lo_limit: float, hi_limit: float) -> list[tuple[float, float, float]]:
    """(lo, hi, slope) for each sloped linear piece of g clipped to [lo_limit, hi_limit]."""
    out = []
    for (x0, y0), (x1, y1) in zip(g.knots, g.knots[1:]):
        lo = max(x0, lo_limit)
        hi = min(x1, hi_limit)
        if hi <= lo:
            continue
        slope = (y1 - y0) / (x1 - x0)
        if slope != 0.0:
            out.append((lo, hi, slope))
    return out


def _integrate_over_pieces(f, pieces, tol: float) -> IntegralResult:
    """sum_i s_i * integral of f over piece i, with a modulus-driven bound."""
    if not pieces:
        return IntegralResult(0.0, 0.0, True)

    domain_len = f.interval.length

    def bound_at(width: float) -> float:
        total = 0.0
        for lo, hi, s in pieces:
            length = hi - lo
            n = max(1, math.ceil(length / width))
            total += abs(s) * length * integrand_modulus(f, min(length / n, domain_len))
        return total

    width = max(hi - lo for lo, hi, _ in pieces)
    best_width, best_bound = width, bound_at(width)
    for _ in range(REFINEMENT_ROUNDS):
        if best_bound <= tol:
            break
        width /= 2.0
        points_needed = sum(max(1, math.ceil((hi - lo) / width)) for lo, hi, _ in pieces)
        if points_needed > EVALUATION_BUDGET:
            break
        candidate = bound_at(width)
        if candidate < best_bound:
            best_width, best_bound = width, candidate

    total = 0.0
    for lo, hi, s in pieces:
        length = hi - lo
        n = max(1, math.ceil(length / best_width))
        mids = lo + (np.arange(n) + 0.5) * (length / n)
        total += s * (length / n) * float(integrand_values(f, mids).sum())
    if best_bound > tol:
        raise ToleranceNotReached(
            f"tolerance {tol} unreachable within the refinement cap; best bound {best_bound}",
            total,
            best_bound,
        )
    return IntegralResult(total, best_bound, not f.heuristic)


def rs_pl_certified(f, g: PiecewiseLinear, y: float, tol: float = DEFAULT_TOL) -> IntegralResult:
    """Integral of f against a piecewise-linear integrator, with a bound.

    The cumulative kernel read at y. Exact (bound 0, certified) when f has an
    exact piecewise-linear form. Otherwise composite midpoint sums over each
    slope piece are refined until
    sum_i |s_i| * len_i * omega_f(subinterval width) <= tol, within the
    round and evaluation caps; failing that, ToleranceNotReached carries the
    best achievable value and bound.
    """
    _require_upper_limit(g.interval, y)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    values, bounds, certified = _linear_part(f, g, np.asarray([y]), tol)
    return IntegralResult(float(values[0]), float(bounds[0]), certified)


def rs_bv(f, g, y: float, tol: float = DEFAULT_TOL) -> IntegralResult:
    """Integral of a continuous integrand against a general BV integrator.

    Exact on the step part plus certified quadrature on the linear part;
    the error bound is the linear part's alone.
    """
    g = as_bv_function(g)
    _require_upper_limit(g.interval, y)
    jump_part = rs_jump_exact(f, g.step, y)
    if g.linear.is_constant():
        return jump_part
    pl_part = rs_pl_certified(f, g.linear, y, tol)
    return IntegralResult(
        jump_part.value + pl_part.value,
        pl_part.error_bound,
        jump_part.certified and pl_part.certified,
    )


def rs_bruteforce_oracle(f, g, y: float, mesh: float) -> IntegralResult:
    """Definitional Riemann-Stieltjes sum on a uniform partition of [a, y].

    All jump points of g are added as partition points and tags are the
    subinterval midpoints; the bound is omega_f(mesh) * V(g on [a, y]).
    Used only as an independent cross-check of rs_bv.
    """
    g = as_bv_function(g)
    _require_upper_limit(g.interval, y)
    if not mesh > 0.0:
        raise DomainError("mesh must be positive")
    a = g.interval.a
    n = max(1, math.ceil((y - a) / mesh))
    cuts = np.linspace(a, y, n + 1)
    jump_points = [p for p, _ in g.jumps_in(a, y)]
    if jump_points:
        cuts = np.unique(np.concatenate([cuts, np.asarray(jump_points)]))
    g_vals = g.evaluate_array(cuts)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    f_vals = integrand_values(f, mids)
    value = float(f_vals @ np.diff(g_vals))
    actual_mesh = float(np.diff(cuts).max())
    bound = integrand_modulus(f, min(actual_mesh, f.interval.length))
    bound *= g.total_variation(a, y)
    return IntegralResult(value, bound, not f.heuristic)


def rs_pl_integrator_exact(values_of, f: PiecewiseLinear, y: float) -> IntegralResult:
    """Exact integral of a BV-representable integrand against a PL integrator.

    For a piecewise-linear integrator the Stieltjes integral collapses to
    sum_i s_i * (ordinary integral of the integrand over piece i), and our
    step + piecewise-linear integrands have those ordinary integrals in
    closed form.
    """
    values_of = as_bv_function(values_of)
    _require_upper_limit(f.interval, y)
    if values_of.interval != f.interval:
        raise DomainError("integrand and integrator must share one interval")
    pieces = _clipped_pieces(f, f.interval.a, y)
    value = math.fsum(s * values_of.integral(lo, hi) for lo, hi, s in pieces)
    return IntegralResult(value, 0.0, True)


def _as_pure_pl(f) -> PiecewiseLinear:
    if isinstance(f, PiecewiseLinear):
        return f
    if isinstance(f, BVFunction):
        if f.step.breakpoints or f.step.end_value != f.step.piece_values[0]:
            raise DomainError("integration by parts needs a continuous (pure PL) integrand")
        return f.linear.shifted(f.step.piece_values[0])
    raise TypeError("integration by parts needs a piecewise-linear integrand")


def integration_by_parts_residual(f, g, y: float, tol: float = DEFAULT_TOL) -> float:
    """|int f dg + int g df - (f(y)g(y) - f(a)g(a))| for a continuous BV f.

    Both integrals are computed by this module (the second side exactly, f
    being piecewise linear); the residual is bounded by the combined error
    bounds plus numeric slack.
    """
    f_pl = _as_pure_pl(f)
    g = as_bv_function(g)
    _require_upper_limit(g.interval, y)
    f_dg = rs_bv(f_pl, g, y, tol)
    g_df = rs_pl_integrator_exact(g, f_pl, y)
    a = g.interval.a
    boundary = f_pl.evaluate(y) * g.evaluate(y) - f_pl.evaluate(a) * g.evaluate(a)
    return abs(f_dg.value + g_df.value - boundary)


@dataclass(frozen=True)
class IntegralCurve:
    """Cumulative integral J(y), in columns over jump points and grid points.

    ys is strictly increasing; values holds J(y), error_bounds its bound
    (0 when exact), jumps the contribution f(p) * (g(p) - g(p-)) of a jump of
    g at the point (0 elsewhere), so values - jumps is the left limit J(y-),
    and at_jump marks the jump points of g.

    For a pure step integrator, J is a right-continuous step function of y:
    constant_segments lists (lo, hi, value) triples with J == value on
    [lo, hi) (on (lo, hi) for the leading segment starting at a), so sign
    claims over whole ranges of y are exact. None when the integrator has a
    nontrivial linear part.
    """

    ys: np.ndarray
    values: np.ndarray
    error_bounds: np.ndarray
    jumps: np.ndarray
    at_jump: np.ndarray
    constant_segments: tuple[tuple[float, float, float], ...] | None


def _linear_part(f, lin: PiecewiseLinear, ys: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Integral of f against the continuous part lin up to each y, its
    bound, and whether the bound is certified.

    The one place that picks the exact path. When f has an exact
    piecewise-linear form (f.pl_form()), the cuts merge a, the ys and the
    knots of that form and of lin, so both are affine on every cut interval
    and each increment is exactly (lin(x1) - lin(x0)) * (f(x0) + f(x1)) / 2,
    with no modulus consulted. Other integrands get one certified quadrature
    per stretch between consecutive ys.
    """
    exact = f.pl_form()
    if exact is None:
        segs = [
            _integrate_over_pieces(f, _clipped_pieces(lin, lo, hi), tol)
            for lo, hi in zip([lin.interval.a, *ys.tolist()], ys.tolist())
        ]
        return (np.cumsum([seg.value for seg in segs]),
                np.cumsum([seg.error_bound for seg in segs]),
                all(seg.certified for seg in segs))
    cuts = np.concatenate([[lin.interval.a], ys, lin.xs, exact.xs])
    cuts = np.unique(cuts[cuts <= ys[-1]])
    fv = exact.evaluate_array(cuts)
    steps = np.diff(lin.evaluate_array(cuts)) * (0.5 * (fv[:-1] + fv[1:]))
    values = np.concatenate([[0.0], np.cumsum(steps)])[np.searchsorted(cuts, ys)]
    return values, np.zeros(len(ys)), True


def curve(f, g, y_grid, tol: float = DEFAULT_TOL) -> IntegralCurve:
    """J(y) = integral of f dg up to y, at every jump point of g and grid point.

    The jump contributions accumulate in one cumulative sum. For a
    piecewise-linear f the linear part is one exact cumulative sum over the
    merged jumps, grid points and knots of f and g, so the cost is linear in
    the number of jumps, grid points and knots (up to one sort). Other
    integrands add one certified quadrature, with its bound, per stretch
    between consecutive output points, and each stretch scans g's knots.
    """
    g = as_bv_function(g)
    a, b = g.interval.a, g.interval.b
    grid = np.asarray(y_grid, dtype=float)
    if np.any(~(np.diff(grid) > 0.0)):
        raise DomainError("y_grid must be strictly increasing")
    outside = ~((grid > a) & (grid <= b))
    if outside.any():
        _require_upper_limit(g.interval, float(grid[outside][0]))

    jump_list = g.jumps_in(a, b)
    jump_ys = np.asarray([p for p, _ in jump_list], dtype=float)
    ys = np.union1d(grid, jump_ys)
    at = np.searchsorted(ys, jump_ys)
    at_jump = np.zeros(len(ys), dtype=bool)
    at_jump[at] = True
    jumps = np.zeros(len(ys))
    if jump_list:
        jumps[at] = integrand_values(f, jump_ys) * np.asarray([w for _, w in jump_list])
    values = np.cumsum(jumps)
    error_bounds = np.zeros(len(ys))

    segments = None
    if g.linear.is_constant():
        levels = [0.0, *values[at].tolist()]
        lows = [a, *jump_ys.tolist()]
        highs = [*jump_ys.tolist(), b]
        segments = tuple((lo, hi, v) for lo, hi, v in zip(lows, highs, levels) if lo < hi)
    elif len(ys):
        linear, error_bounds, _ = _linear_part(f, g.linear, ys, tol)
        values = values + linear

    return IntegralCurve(ys, values, error_bounds, jumps, at_jump, segments)
