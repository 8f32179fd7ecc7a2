"""Riemann-Stieltjes integration of continuous integrands against BV integrators.

One cumulative kernel (_cumulative) gives J(y) = integral of f dg at several
upper limits y: one running sum of the jump terms (integrand values times
jump weights, one-sided at the interval ends) plus one running sum over a
grid of cells, with one integrator slope per cell, whose terms the integrand
answers (cell_integrals, the integrand protocol of funcspec): exactly for a
piecewise-linear or affine integrand, otherwise by funcspec's certified
midpoint quadrature. Both sums are added before tol is checked, so
ToleranceNotReached carries the whole integral. rs_jump_exact,
rs_pl_certified and rs_bv read the kernel at one y and curve at many; a
definitional Riemann-Stieltjes sum is an independent cross-check oracle.
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
    """Exact integral of f against the step part of g up to y, the kernel
    read at y: f(p) * w(p) summed in order over the jumps of g in [a, y],
    full two-sided ones inside, g(y) - left_limit(y) at y, and the (zero, by
    right-continuity) right-side difference at a."""
    return _read_at(f, BVFunction.from_step(as_bv_function(g).step), y, DEFAULT_TOL)


def rs_pl_certified(f, g: PiecewiseLinear, y: float, tol: float = DEFAULT_TOL) -> IntegralResult:
    """Integral of f against a piecewise-linear integrator with a bound, the
    kernel read at y: exact with bound 0 for a piecewise-linear or affine f,
    otherwise funcspec's certified quadrature refined until its bound meets
    tol, within the evaluation cap; failing that, ToleranceNotReached
    carries the best achievable value and bound."""
    return _read_at(f, BVFunction.from_linear(g), y, tol)


def rs_bv(f, g, y: float, tol: float = DEFAULT_TOL) -> IntegralResult:
    """Integral of a continuous integrand against a general BV integrator,
    the kernel read at y: exact on the step part plus certified quadrature
    on the linear part, whose bound is the whole bound; ToleranceNotReached
    carries the whole integral."""
    return _read_at(f, as_bv_function(g), y, tol)


def _read_at(f, g: BVFunction, y: float, tol: float) -> IntegralResult:
    _require_upper_limit(g.interval, y)
    _, values, bounds, certified, _, _ = _cumulative(f, g, np.array([y]), tol)
    return IntegralResult(values[-1].item(), bounds[-1].item(), certified)


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


def rs_pl_integrator_exact(values_of, f: PiecewiseLinear, y: float) -> IntegralResult:
    """Integral of a BV-representable integrand against a PL integrator:
    its exact cell integrals summed with math.fsum, with bound 0."""
    return IntegralResult(math.fsum(_pl_integrator_terms(values_of, f, y).tolist()), 0.0, True)


def _pl_integrator_terms(values_of, f: PiecewiseLinear, y: float) -> np.ndarray:
    """The integral of values_of df over each cell of [a, y]
    (BVFunction.cell_integrals)."""
    values_of = as_bv_function(values_of)
    _require_upper_limit(f.interval, y)
    if values_of.interval != f.interval:
        raise DomainError("integrand and integrator must share one interval")
    return values_of.cell_integrals(f, np.array([y]), DEFAULT_TOL)[1]


def integration_by_parts_residual(f, g, y: float, tol: float = DEFAULT_TOL) -> float:
    """|int f dg + int g df - (f(y)g(y) - f(a)g(a))| for a continuous BV f.

    f is read through its exact piecewise-linear form (pl_form), and an
    integrand without one raises DomainError. Both integrals are computed by
    this module (the second side exactly); the residual is bounded by the
    combined error bounds plus numeric slack.
    """
    f_pl = f.pl_form()
    if f_pl is None:
        raise DomainError("integration by parts needs an exact piecewise-linear integrand")
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


def _cumulative(f, g: BVFunction, ys: np.ndarray, tol: float, at_jumps: bool = False):
    """J(y) = integral of f dg at each point of a sorted array ys in (a, b],
    and with at_jumps at every jump point of g too (curve's points).

    g's jumps are read once, up to ys[-1] (b with at_jumps), and f once at
    them. One running sum of the jump terms f(p) * (g(p) - g(p-)) plus one of
    f's cell integrals against g's linear part (f.cell_integrals, on cells
    cut at the output points; exact with bound 0, or a certified quadrature
    whose bound at the last point, and so at every point, meets tol) is read
    at each point. A bound above tol raises ToleranceNotReached, carrying the
    whole integral there; tol must be positive (NaN is not). Returns the
    points, J, its bound, whether certified, and the jump points and terms.
    """
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    points, weights = g.jumps_in(g.interval.a, g.interval.b if at_jumps else ys[-1]).T
    if at_jumps:
        ys = _sorted_union(ys, points)
    terms = integrand_values(f, points) * weights if len(points) else weights
    values = _running_sum(terms)[np.searchsorted(points, ys, side="right")]
    bounds, certified = np.zeros(len(ys)), True
    if not g.linear.is_constant() and len(ys):
        cuts, steps, bound_terms, certified = f.cell_integrals(g.linear, ys, tol)
        at = np.searchsorted(cuts, ys)
        values, bounds = values + _running_sum(steps)[at], _running_sum(bound_terms)[at]
        if bounds[-1] > tol:
            raise ToleranceNotReached(f"tolerance {tol} unreachable within the refinement cap; best "
                                      f"bound {bounds[-1].item()}", values[-1].item(), bounds[-1].item())
    return ys, values, bounds, certified, points, terms


def curve(f, g, y_grid, tol: float = DEFAULT_TOL) -> IntegralCurve:
    """J(y) = integral of f dg up to y, at every jump point of g and grid point.

    The kernel (_cumulative) read at the grid and the jump points: the jump
    terms in one running sum, the linear part on one grid of cells cut at
    the output points and the knots, exact for a piecewise-linear or affine
    f, otherwise a certified quadrature whose bound, non-decreasing in y,
    meets tol at every output point. The cost is linear in the number of
    jumps, output points and knots (up to one sort), times the midpoints per
    cell.
    """
    g = as_bv_function(g)
    grid = np.asarray(y_grid, dtype=float)
    if grid.ndim != 1:
        raise DomainError(f"y_grid must be one-dimensional, got shape {grid.shape}")
    if np.any(~(np.diff(grid) > 0.0)):
        raise DomainError("y_grid must be strictly increasing")
    outside = ~((grid > g.interval.a) & (grid <= g.interval.b))
    if outside.any():
        _require_upper_limit(g.interval, float(grid[outside][0]))
    ys, values, error_bounds, _, points, terms = _cumulative(f, g, grid, tol, at_jumps=True)
    at = np.searchsorted(ys, points)
    at_jump = np.zeros(len(ys), dtype=bool)
    at_jump[at] = True
    jumps = np.zeros(len(ys))
    jumps[at] = terms
    return IntegralCurve(ys, values, error_bounds, jumps, at_jump)
