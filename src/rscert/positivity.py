"""Finding upper limits that make the integral positive, and the measure
machinery that explains why one must exist for bounded-variation integrands.

The integrators here have finitely many pieces, so the witness search reads
one exact curve from the support edge on and takes its witness in the piece
that holds the edge, where g first jumps up or rises against a positive
integrand. Two public detectors (g jumps off zero; g has only moved upward
so far) state the named cases on their own. Every statement about f is read
off its exact piecewise-linear form (pl_form).
The measure-theoretic side is a per-instance verifier: the |integral of
g df| bound, the variation measure of a piecewise-linear f reweighted by
1/f (WeightedMeasure), and a discrete Groenwall checker that exhibits, on
concrete data, why "never positive" would force the integrator to vanish.
All three integrate over one cell grid (bv_core._cell_read), cut at a,
the structural points of the integrated function, the knots of f and the
upper limit, on whose cells both functions are affine: each cell gets a
closed-form term, and one sum of those terms is read at every upper limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bv_core import (
    BVFunction,
    DomainError,
    Interval,
    PiecewiseLinear,
    StepFunction,
    _cell_read,
    _running_sum,
    _sorted_union,
    as_bv_function,
    jordan_decompose,
    slack,
)
from .stieltjes import IntegralCurve, _pl_integrator_terms, curve

__all__ = [
    "PreconditionError",
    "InternalInconsistencyError",
    "WeightedMeasure",
    "PositivityWitness",
    "GronwallVerdict",
    "pl_times_step",
    "detect_case1",
    "detect_case2",
    "gdf_bound_check",
    "gronwall_verify",
    "find_positive_y",
    "positive_interval",
    "support_edge",
]


class PreconditionError(ValueError):
    """An operation's stated preconditions do not hold for these inputs."""

    def __init__(self, message: str, reason: str = "precondition"):
        super().__init__(message)
        self.reason = reason


class InternalInconsistencyError(RuntimeError):
    """A guaranteed witness was not found on a fully structural instance;
    this signals an implementation bug, not a property of the inputs."""


# ---------------------------------------------------------------------------
# The weighted variation measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedMeasure:
    """The variation measure of a certified-positive PL f reweighted by 1/f:
    density |slope of f| / f (the Groenwall driver)."""

    weight_denominator: PiecewiseLinear

    def __post_init__(self):
        if not self.weight_denominator.min_value() > 0.0:
            raise PreconditionError(
                "the weight denominator must be certifiably positive", reason="positivity"
            )

    def mass(self, c: float, d: float) -> float:
        """Measure of [c, d) under the 1/f weight (closed form)."""
        one = PiecewiseLinear.constant(self.weight_denominator.interval, 1.0)
        return self.integrate(BVFunction.from_linear(one), c, d)

    def integrate(self, u: BVFunction, c: float, d: float) -> float:
        """integral of u over [c, d) against the weighted measure, exactly.

        On every cell of _cell_read u and f are both affine, so the integrand
        is (affine)/(affine) times a constant density, which integrates in
        closed form (_measure_steps); the cell terms from c on are summed in
        order.
        """
        f = self.weight_denominator
        f.interval.require_subinterval(c, d)
        if c == d:
            return 0.0
        cuts, slopes, u0, u1 = _cell_read(as_bv_function(u), f, np.array([c, d]))
        steps = _measure_steps(f, slopes, cuts[:-1], cuts[1:], u0, u1)
        return _running_sum(steps[cuts[:-1] >= c])[-1].item()


def _measure_steps(f: PiecewiseLinear, s: np.ndarray, x0: np.ndarray, x1: np.ndarray,
                   u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """|s| * integral over [x0, x1] of u(x)/f(x) dx on each cell, where f has
    the stored slope s and u runs affinely from u0 to u1: with L = x1 - x0,
    f0 = f(x0) and z = s * L / f0, it is (L / f0) * (u0 * phi1(z) + (u1 - u0)
    * phi2(z)), phi1(z) = log1p(z) / z and phi2(z) = (z - log1p(z)) / z^2.
    Below |z| = 0.05 both are read from their series, the sums of
    (-z)^k / (k + 1) and (-z)^k / (k + 2), so no two terms cancel; an empty
    cell (a midpoint that rounds onto x0) has z = 0 and gives 0.
    """
    span = x1 - x0
    f0 = f.evaluate_array(x0)
    # s, not (f1 - f0) / span, which carries a rounding error of f's size
    z = s * span / f0
    # math.log1p, as a scalar loop over the cells reads it: np.log1p can
    # differ in the last bit
    log = np.fromiter(map(math.log1p, z.tolist()), float, len(z))
    series1, series2 = np.zeros(len(z)), np.zeros(len(z))
    for k in range(23, -1, -1):  # Horner, 24 terms: 0.05^24 is far below an ulp
        series1 = 1.0 / (k + 1) - z * series1
        series2 = 1.0 / (k + 2) - z * series2
    near = np.abs(z) < 0.05
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = np.where(near, series1, log / z)
        phi2 = np.where(near, series2, (z - log) / (z * z))
    return np.abs(s) * (span / f0 * (u0 * phi1 + (u1 - u0) * phi2))


def pl_times_step(f: PiecewiseLinear, g: StepFunction) -> BVFunction:
    """Exact BV representation of the product f * g for piecewise-linear f
    and a pure-jump g: jumps of size f(p) * jump_g(p), linear in between."""
    if f.interval != g.interval:
        raise PreconditionError("factors must share one interval")
    a, b = g.interval.a, g.interval.b
    points, weights = g.jumps_in(a, b).T
    contributions = f.evaluate_array(points) * weights
    inner = points < b  # only the last row can sit at b
    end_jump = contributions[-1] if not inner.all() else 0.0
    # jumped[i]: the contributions of the first i interior jumps, summed in order
    points, jumped = points[inner], _running_sum(contributions[inner])
    step = StepFunction(g.interval, points, jumped, jumped[-1] + end_jump)

    # the linear part: f * g minus the jumps taken through x, at every knot
    # of f and breakpoint of g; at b the left limit of g counts
    xs = _sorted_union(f.xs, g.breakpoints)
    gx = g.evaluate_array(xs)
    gx[-1] = g.piece_values[-1]
    through = jumped[np.searchsorted(points, xs, side="right")]
    knots = np.column_stack((xs, f.evaluate_array(xs) * gx - through))
    return BVFunction(step, PiecewiseLinear(knots))


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositivityWitness:
    """An upper limit y with a certified positive lower bound for the integral."""

    y: float
    lower_bound: float
    method: str  # "case1" | "case2" | "scan"
    interval: Interval | None = None


def support_edge(g: BVFunction) -> float | None:
    """inf{x : g(x) > 0}, read exactly off the representation.

    Queries the structural profile of g: the first piece whose start value
    is positive begins at the edge, and otherwise the first piece that ends
    positive is affine from g(x0+) <= 0 to g(x1-) > 0, so the edge is its
    zero crossing. None when g is never positive.
    """
    prof = as_bv_function(g).profile
    starts = prof.right > 0.0  # g(x0+) = g(x0): right-continuous
    ends = np.append(prof.left[1:] > 0.0, False)
    hits = np.flatnonzero(starts | ends)
    if not hits.size:
        return None
    k = int(hits[0])
    x0 = float(prof.points[k])
    if starts[k]:
        return x0
    v0, v1 = float(prof.right[k]), float(prof.left[k + 1])
    # affine from v0 <= 0 to v1 > 0: positive past the crossing
    return x0 + (float(prof.points[k + 1]) - x0) * (0.0 - v0) / (v1 - v0)


def detect_case1(g, f) -> PositivityWitness | None:
    """Witness just past the support edge when the integrator jumps off zero.

    If the right limit at the support edge x_L is positive, y = x_L + eps
    (eps half the gap to the next structural point) works, with lower bound
    pos(y) * (min of f near x_L) - neg(y) * (max of f near x_L), both read
    off f's exact piecewise-linear form. Returns None when no certified
    positive bound emerges, in particular whenever f has no such form.
    """
    g = as_bv_function(g)
    edge = support_edge(g)
    if edge is None or edge >= g.interval.b:
        return None
    if g.right_limit(edge) <= 0.0:
        return None
    pts = g.profile.points
    k = int(np.searchsorted(pts, edge, side="right"))
    eps = 0.5 * ((float(pts[k]) if k < len(pts) else g.interval.b) - edge)
    if eps <= 0.0:
        return None
    y = edge + eps
    pair = jordan_decompose(g)
    pos_y = pair.pos.evaluate(y)
    neg_y = pair.neg.evaluate(y)
    f_pl = f.pl_form()
    if f_pl is None:
        return None
    window_lo = max(g.interval.a, edge - eps)
    lower = pos_y * f_pl.min_value(window_lo, y) - neg_y * f_pl.max_value(window_lo, y)
    if lower > slack(lower):
        return PositivityWitness(y, lower, "case1")
    return None


def detect_case2(f, g, y: float) -> PositivityWitness | None:
    """Witness at y when the integrator has only moved upward so far.

    With the minimal Jordan split, neg(y) = 0 and pos(y) > 0 give the lower
    bound pos(y) * min of f on [a, y], read off f's exact piecewise-linear
    form; None when f has no such form."""
    g = as_bv_function(g)
    if not (g.interval.a < y <= g.interval.b):
        raise DomainError(f"y={y!r} outside ({g.interval.a}, {g.interval.b}]")
    pair = jordan_decompose(g)
    if pair.neg.evaluate(y) != 0.0:
        return None
    pos_y = pair.pos.evaluate(y)
    if not pos_y > 0.0:
        return None
    f_pl = f.pl_form()
    if f_pl is None:
        return None
    f_min = f_pl.min_value(g.interval.a, y)
    if not f_min > 0.0:
        return None
    lower = pos_y * f_min
    if lower > slack(lower):
        return PositivityWitness(y, lower, "case2")
    return None


# ---------------------------------------------------------------------------
# The |integral g df| bound and the Groenwall checker
# ---------------------------------------------------------------------------


def gdf_bound_check(f, g, y: float) -> tuple[float, float]:
    """Both sides of |int_a^y g df| <= int_[a,y) f*g dmu, computed exactly.

    With mu the variation measure of f weighted by 1/f, the right side
    collapses to the integral of g against |slope of f| dx. Both sides are
    read off the same cell terms of int g df (rs_pl_integrator_exact): the
    left side sums them, the right side sums their absolute values. f is read
    through its exact piecewise-linear form, which must be certifiably
    positive, and g must be non-negative.
    """
    g = as_bv_function(g)
    f = _positive_form(f)
    if not _structurally_nonnegative(g):
        raise PreconditionError("g must be non-negative", reason="sign")
    terms = _pl_integrator_terms(g, f, y)
    return abs(math.fsum(terms.tolist())), math.fsum(np.abs(terms).tolist())


@dataclass(frozen=True)
class GronwallVerdict:
    """Outcome of the discrete Groenwall check on one concrete instance."""

    hypothesis_holds: bool
    hypothesis_violation: tuple[float, float, float] | None  # (y, u(y), integral)
    conclusion_holds: bool | None  # None when the hypothesis already failed
    conclusion_violation: tuple[float, float] | None  # (y, u(y))


def gronwall_verify(u, mu: WeightedMeasure, strictness: float) -> GronwallVerdict:
    """Check u(y) <= integral of u over [a, y) dmu at every structural point,
    and, when that hypothesis holds, that u <= strictness everywhere there.

    The probes are, for each cell of _cell_read (cut at the structural
    points of u and the knots of the weight), its start, its midpoint and
    the left limit at its end, then b. The integral at the cuts is one
    running sum of the cell terms, and at a midpoint the value at the cell's
    start plus the term of its first half. This validates the implication's
    conclusion on concrete data (including one-sided values at jumps and
    piece midpoints); it does not prove the general inequality.
    """
    u = as_bv_function(u)
    f = mu.weight_denominator
    if u.interval != f.interval:
        raise PreconditionError("the function and the measure must share one interval")
    b = u.interval.b
    cuts, slopes, u0, u1 = _cell_read(u, f, np.array([b]))
    x0, x1 = cuts[:-1], cuts[1:]
    mid = 0.5 * (x0 + x1)
    mid_left, mid_value = u.one_sided(mid)
    at_cuts = _running_sum(_measure_steps(f, slopes, x0, x1, u0, u1))
    at_mid = at_cuts[:-1] + _measure_steps(f, slopes, x0, mid, u0, mid_left)

    ys = np.append(np.column_stack((x0, mid, x1)).ravel(), b)
    u_vals = np.append(np.column_stack((u0, mid_value, u1)).ravel(), u.evaluate(b))
    integrals = np.append(np.column_stack((at_cuts[:-1], at_mid, at_cuts[1:])).ravel(),
                          at_cuts[-1])
    margin = slack(np.maximum(np.abs(u_vals), np.abs(integrals)))
    over = np.flatnonzero(u_vals > integrals + margin)
    if over.size:
        i = over[0]
        return GronwallVerdict(False, (ys[i].item(), u_vals[i].item(), integrals[i].item()),
                               None, None)
    over = np.flatnonzero(u_vals > strictness + slack(u_vals))
    if over.size:
        i = over[0]
        return GronwallVerdict(True, None, False, (ys[i].item(), u_vals[i].item()))
    return GronwallVerdict(True, None, True, None)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


SEGMENT_SAMPLES = 8  # inner points of the edge piece of a sloped g; they place its witness


def _structurally_nonnegative(g: BVFunction) -> bool:
    prof = g.profile
    lowest = min(prof.right.min(), prof.left.min())
    return lowest >= -slack(g.total_variation(g.interval.a, g.interval.b))


def find_positive_y(f, g) -> PositivityWitness:
    """Find y with a certified positive integral of f dg up to y.

    Preconditions are enforced: f has a positive exact piecewise-linear form
    (pl_form; without one, reason no_bv_coverage), g is non-negative with
    g(a) = 0 and not identically zero. The
    search takes no configuration. Every statement about g itself is a query
    on one read of its structural profile (BVFunction.profile).

    g has finitely many pieces and vanishes up to its support edge, so the
    integral turns positive in the piece that holds the edge: g either jumps
    up there or rises linearly against a positive f. One exact curve of f
    itself (f read at g's jumps, its cells exact) is read at the structural
    points from the edge on, plus SEGMENT_SAMPLES inner points of that piece
    when g is sloped; the witness is the first point whose value clears
    slack ("scan", the bound is that value). When that
    point is the first place where g moves at all, and it has only moved up,
    the witness is "case2" with bound pos(y) * (min of f on [a, y]), pos(y)
    being the jump there plus the rise before it. No point clearing slack
    contradicts the guarantee and raises InternalInconsistencyError.
    """
    g = as_bv_function(g)
    a = g.interval.a
    if f.interval != g.interval:
        raise PreconditionError("integrand and integrator must share one interval")

    prof = g.profile
    start = prof.right[0]  # g(a)
    if abs(start) > slack(start):
        raise PreconditionError("the integrator must start at 0", reason="start")
    if not _structurally_nonnegative(g):
        raise PreconditionError("the integrator must be non-negative", reason="sign")
    edge = support_edge(g)
    if edge is None:
        raise PreconditionError("the integrator vanishes identically", reason="vanishing")
    # the integrand's exact piecewise-linear form gates the search and gives
    # f's minimum; the curve reads f itself
    f_pl = _positive_form(f)

    pts = prof.points
    ys = pts[1:][pts[1:] >= edge]
    k = int(np.searchsorted(pts, edge, side="right")) - 1  # the piece holding the edge
    if not g.linear.is_constant() and k + 1 < len(pts):
        inner = np.linspace(pts[k], pts[k + 1], SEGMENT_SAMPLES + 2)[1:-1]
        ys = _sorted_union(ys, inner[inner > edge])
    j = curve(f, g, ys)
    # exact values (the curve's bounds are 0 here); slack is elementwise on one array
    hits = np.flatnonzero(np.isin(j.ys, ys, assume_unique=True) & (j.values > slack(j.values)))
    if not hits.size:
        raise InternalInconsistencyError(
            "no positive upper limit found from the support edge on, on an "
            "instance that satisfies every precondition; this contradicts the "
            "guarantee for bounded-variation integrands and indicates a bug"
        )
    y, lower = float(j.ys[hits[0]]), float(j.values[hits[0]])
    witness = PositivityWitness(y, lower, "scan")

    moved = np.flatnonzero((prof.left[1:] != start) | (prof.right[1:] != start)) + 1
    m = int(moved[0])  # J(y) > 0, so g has moved by y
    if y == pts[m]:
        jump, rise = prof.right[m] - prof.left[m], prof.left[m] - start
        if jump >= 0.0 and rise >= 0.0:  # only up so far: pos(y) = jump + rise
            bound = float(jump + rise) * f_pl.min_value(a, y)
            if bound > slack(bound):
                witness = PositivityWitness(y, bound, "case2")
    # right-continuous integrator: the integral stays positive on a whole
    # stretch past the witness; attach it when one can be certified
    try:
        return replace(witness, interval=_positive_stretch(g, j, witness))
    except PreconditionError:
        return witness


def _positive_form(f) -> PiecewiseLinear:
    """f's exact piecewise-linear form (pl_form), which must exist (reason
    no_bv_coverage) and be certifiably positive (reason positivity)."""
    cover = f.pl_form()
    if cover is None:
        raise PreconditionError(
            "the integrand has no exact piecewise-linear (bounded-variation) "
            "form; positivity is not guaranteed in this regime",
            reason="no_bv_coverage",
        )
    if not cover.min_value() > 0.0:
        raise PreconditionError("the integrand's positivity is not certified", reason="positivity")
    return cover


def positive_interval(f, g, witness: PositivityWitness) -> Interval:
    """A closed interval [c, d] on which the integral stays positive.

    c is the witness point, where the integral must clear half the witness
    bound. f must have a certifiably positive exact piecewise-linear form,
    for J is then monotone between g's structural points (the curve reads f
    itself). d runs through g's structural points after c while the integral
    and its left limit stay above that threshold; it stops at the midpoint
    before a point where only the jump fails, else at the last good point (b
    when none fails).
    """
    g = as_bv_function(g)
    _positive_form(f)  # the no_bv_coverage and positivity gates
    j = curve(f, g, _sorted_union(g.profile.points[1:], [witness.y]))
    return _positive_stretch(g, j, witness)


def _positive_stretch(g: BVFunction, j: IntegralCurve, witness: PositivityWitness) -> Interval:
    """positive_interval read off an exact curve of f dg (a piecewise-linear
    f) whose points include the witness, so the curve has checked that it
    lies in (a, b], and every structural point of g after it."""
    b = g.interval.b
    c = witness.y
    if c == b:
        raise PreconditionError(
            "the witness sits at the right endpoint; no interval extends past it",
            reason="degenerate",
        )
    threshold = witness.lower_bound / 2.0
    if not j.values[np.searchsorted(j.ys, c)] > threshold:
        raise InternalInconsistencyError(
            "the integral at the witness fell below the witness bound"
        )
    # between structural points J is monotone (the integrand is positive and
    # each g-piece has one slope sign, or none), so the value and the left
    # limit J(q-) = values - jumps at each one certify whole stretches
    at = (j.ys > c) & np.isin(j.ys, g.profile.points, assume_unique=True)
    qs, values = j.ys[at], j.values[at]
    lefts = values - j.jumps[at]
    fails = np.flatnonzero(~((values > threshold) & (lefts > threshold)))
    if not fails.size:
        return Interval(c, b)  # positive through the right endpoint
    k = int(fails[0])
    lo = float(qs[k - 1]) if k else c
    if lefts[k] > threshold:  # only the jump at qs[k] drags it down
        return Interval(c, 0.5 * (lo + float(qs[k])))  # stop strictly before the drop
    if not k:
        raise PreconditionError("no stretch past the witness is certified", reason="degenerate")
    return Interval(c, lo)
