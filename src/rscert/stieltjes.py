"""Riemann-Stieltjes integration of continuous integrands against BV integrators.

The step part of an integrator is handled exactly (integrand values times jump
weights, one-sided at the interval ends). The piecewise-linear part is one
running sum over a grid of cells cut at a, the upper limits and the knots,
with one integrator slope per cell: exact for a piecewise-linear integrand,
otherwise midpoint sums bounded through the integrand's declared modulus of
continuity omega: by sum |s| * len * omega(spacing / 4) for a certified
(concave) modulus and by sum |s| * len * omega(spacing) for a Sampled one,
with s the slope, len the length and spacing the midpoint spacing of each
cell. rs_bv reads the sum at one y and curve at many; a definitional
Riemann-Stieltjes sum is an independent cross-check oracle.
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
    _running_sum,
    _sorted_union,
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

    error_bound is 0 for exact computations, leaving out a few ulps of
    rounding per term; certified is False whenever a heuristic (Sampled)
    modulus contributed to the bound.
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
    points, weights = step.jumps_in(step.interval.a, y).T
    if not len(points):
        return IntegralResult(0.0, 0.0, True)
    values = integrand_values(f, points)
    return IntegralResult(float(values @ weights), 0.0, True)


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


def _quadrature(f, lo: np.ndarray, length: np.ndarray, slope: np.ndarray,
                tol: float) -> tuple[list[float], np.ndarray]:
    """s * (midpoint sum of f) on each sloped cell [lo, lo + length], and the
    terms |s| * length * omega_f(spacing / 4) of its bound (omega_f(spacing)
    for a heuristic f). Each cell gets ceil(length / width) midpoints; width
    halves from the longest cell until the bound, summed in cell order,
    meets tol, within the round and evaluation caps.

    A sub-cell of width h misses its integral by at most the integral of
    omega(|x - m|) over it, h times the mean of omega on [0, h/2], which is
    at most h * omega(h/4) when omega is concave (Jensen); every certified
    modulus is. A Sampled window oscillation is not concave, so it keeps
    omega(h); a smaller argument would also reach its zero below the grid
    spacing a round sooner."""
    weight = np.abs(slope) * length
    divisor = 1.0 if f.heuristic else 4.0  # omega is asked at spacing / divisor

    def counts(width: float) -> np.ndarray:
        return np.maximum(1.0, np.ceil(length / width))

    def bound_terms(width: float) -> np.ndarray:
        # the modulus is asked once per distinct spacing
        spacing = np.minimum(length / counts(width), f.interval.length) / divisor
        spacings, at = np.unique(spacing, return_inverse=True)
        return weight * np.array([integrand_modulus(f, d) for d in spacings.tolist()])[at]

    width = float(length.max())
    best_width, best_terms = width, bound_terms(width)
    best_bound = _running_sum(best_terms)[-1]
    for _ in range(REFINEMENT_ROUNDS):
        width /= 2.0
        if best_bound <= tol or counts(width).sum() > EVALUATION_BUDGET:
            break
        terms = bound_terms(width)
        bound = _running_sum(terms)[-1]
        if bound < best_bound:
            best_width, best_terms, best_bound = width, terms, bound

    steps = []
    for x, h, s, n in zip(lo.tolist(), length.tolist(), slope.tolist(),
                          counts(best_width).astype(int).tolist()):
        mids = x + (np.arange(n) + 0.5) * (h / n)
        steps.append(s * (h / n) * float(integrand_values(f, mids).sum()))
    return steps, best_terms


def rs_pl_certified(f, g: PiecewiseLinear, y: float, tol: float = DEFAULT_TOL) -> IntegralResult:
    """Integral of f against a piecewise-linear integrator, with a bound.

    The cumulative kernel read at y, whose cells are g's slope pieces clipped
    to [a, y]. When f has an exact piecewise-linear form, _cell_terms with
    bound 0 (certified; it leaves out a few ulps of rounding per cell).
    Otherwise composite midpoint sums over the cells are refined until
    sum_i |s_i| * len_i * omega_f(spacing_i / 4) <= tol, with spacing_i the
    midpoint spacing (omega_f(spacing_i) when f's modulus is the heuristic
    Sampled one), within the round and evaluation caps; failing that,
    ToleranceNotReached carries the best achievable value and bound.
    """
    _require_upper_limit(g.interval, y)
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
    subinterval midpoints, each within mesh/2 of every point of its
    subinterval; the bound is omega_f(mesh/2) * V(g on [a, y]).
    Used only as an independent cross-check of rs_bv.
    """
    g = as_bv_function(g)
    _require_upper_limit(g.interval, y)
    if not mesh > 0.0:
        raise DomainError("mesh must be positive")
    a = g.interval.a
    n = max(1, math.ceil((y - a) / mesh))
    cuts = _sorted_union(np.linspace(a, y, n + 1), g.jumps_in(a, y)[:, 0])
    g_vals = g.evaluate_array(cuts)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    f_vals = integrand_values(f, mids)
    value = float(f_vals @ np.diff(g_vals))
    actual_mesh = float(np.diff(cuts).max())
    bound = integrand_modulus(f, actual_mesh / 2.0)  # actual_mesh <= y - a
    bound *= g.total_variation(a, y)
    return IntegralResult(value, bound, not f.heuristic)


def _cell_terms(u: BVFunction, lin: PiecewiseLinear, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cuts of _cell_read(u, lin, ys) and the integral of u dlin on each
    cell, where both are affine: s * (x1 - x0) * (u(x0+) + u(x1-)) / 2 with
    s lin's slope, not (lin(x1) - lin(x0)) * ..., whose rounding grows with
    |lin| and so moves when a constant is added to lin."""
    cuts, slopes, u0, u1 = _cell_read(u, lin, ys)
    return cuts, slopes * np.diff(cuts) * (0.5 * (u0 + u1))


def rs_pl_integrator_exact(values_of, f: PiecewiseLinear, y: float) -> IntegralResult:
    """Integral of a BV-representable integrand against a PL integrator:
    the terms of _cell_terms summed with math.fsum, with bound 0."""
    return IntegralResult(math.fsum(_pl_integrator_terms(values_of, f, y).tolist()), 0.0, True)


def _pl_integrator_terms(values_of, f: PiecewiseLinear, y: float) -> np.ndarray:
    """The integral of values_of df over each cell of [a, y] (_cell_terms)."""
    values_of = as_bv_function(values_of)
    _require_upper_limit(f.interval, y)
    if values_of.interval != f.interval:
        raise DomainError("integrand and integrator must share one interval")
    return _cell_terms(values_of, f, np.array([y]))[1]


def _as_pure_pl(f) -> PiecewiseLinear:
    if isinstance(f, PiecewiseLinear):
        return f
    if isinstance(f, BVFunction):
        level = f.step.piece_values[0].item()
        if f.step.breakpoints.size or f.step.end_value != level:
            raise DomainError("integration by parts needs a continuous (pure PL) integrand")
        return f.linear.shifted(level)
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

    For a pure step integrator J is a right-continuous step function of y,
    constant between consecutive jump points: 0 from a up to the first one,
    and values[at_jump][i] on [ys[at_jump][i], ys[at_jump][i + 1]) (up to b
    for the last), so sign claims over whole ranges of y are exact.
    """

    ys: np.ndarray
    values: np.ndarray
    error_bounds: np.ndarray
    jumps: np.ndarray
    at_jump: np.ndarray


def _linear_part(f, lin: PiecewiseLinear, ys: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Integral of f against the continuous part lin up to each y, its
    bound, and whether the bound is certified.

    One running sum of cell increments, read at each y. When f has an
    exact piecewise-linear form (f.pl_form()) they are its _cell_terms,
    with bound 0: it leaves out a few ulps of rounding per cell, which no
    constant added to lin changes. Otherwise _quadrature refines all sloped
    cells of _cells at once until the bound at ys[-1], and so at every y,
    meets tol, or ToleranceNotReached carries the value and bound there.
    tol must be positive (NaN is not), on either path.
    """
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    exact = f.pl_form()
    if exact is not None:
        cuts, steps = _cell_terms(as_bv_function(exact), lin, ys)
        return _running_sum(steps)[np.searchsorted(cuts, ys)], np.zeros(len(ys)), True
    cuts, slopes = _cells(lin, ys)
    at = np.searchsorted(cuts, ys)
    sloped = slopes != 0.0
    if not sloped.any():
        return np.zeros(len(ys)), np.zeros(len(ys)), True
    steps, terms = np.zeros(len(slopes)), np.zeros(len(slopes))
    steps[sloped], terms[sloped] = _quadrature(f, cuts[:-1][sloped], np.diff(cuts)[sloped],
                                               slopes[sloped], tol)
    values, bounds = _running_sum(steps)[at], _running_sum(terms)[at]
    if bounds[-1] > tol:
        raise ToleranceNotReached(f"tolerance {tol} unreachable within the refinement cap; best "
                                  f"bound {bounds[-1].item()}", values[-1].item(), bounds[-1].item())
    return values, bounds, not f.heuristic


def curve(f, g, y_grid, tol: float = DEFAULT_TOL) -> IntegralCurve:
    """J(y) = integral of f dg up to y, at every jump point of g and grid point.

    The jump contributions accumulate in one cumulative sum, and the linear
    part is read from one grid of cells cut at the output points and the
    knots (_linear_part): exact for a piecewise-linear f, otherwise a
    certified quadrature whose bound, non-decreasing in y, meets tol at every
    output point. The cost is linear in the number of jumps, output points
    and knots (up to one sort), times the midpoints per cell.
    """
    g = as_bv_function(g)
    a, b = g.interval.a, g.interval.b
    grid = np.asarray(y_grid, dtype=float)
    if np.any(~(np.diff(grid) > 0.0)):
        raise DomainError("y_grid must be strictly increasing")
    outside = ~((grid > a) & (grid <= b))
    if outside.any():
        _require_upper_limit(g.interval, float(grid[outside][0]))

    jump_ys, weights = g.jumps_in(a, b).T
    ys = _sorted_union(grid, jump_ys)
    at = np.searchsorted(ys, jump_ys)
    at_jump = np.zeros(len(ys), dtype=bool)
    at_jump[at] = True
    jumps = np.zeros(len(ys))
    if len(jump_ys):
        jumps[at] = integrand_values(f, jump_ys) * weights
    values = np.cumsum(jumps)
    error_bounds = np.zeros(len(ys))
    if not g.linear.is_constant() and len(ys):
        linear, error_bounds, _ = _linear_part(f, g.linear, ys, tol)
        values = values + linear

    return IntegralCurve(ys, values, error_bounds, jumps, at_jump)
