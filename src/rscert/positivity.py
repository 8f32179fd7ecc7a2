"""Finding upper limits that make the integral positive, and the measure
machinery that explains why one must exist for bounded-variation integrands.

The integrators here have finitely many pieces, so the witness search reads
one exact curve from the support edge on and takes its witness in the piece
that holds the edge, where g first jumps up or rises against a positive
integrand. Two public detectors (g jumps off zero; g has only moved
upward so far) state the named cases on their own.
The measure-theoretic side is a per-instance verifier: the variation measure
of a piecewise-linear integrand, its reweighting by 1/f, the |integral of
g df| bound against it, and a discrete Groenwall checker that exhibits, on
concrete data, why "never positive" would force the integrator to vanish.
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
    as_bv_function,
    jordan_decompose,
    slack,
)
from .stieltjes import IntegralCurve, _clipped_pieces, curve, rs_pl_integrator_exact

__all__ = [
    "PreconditionError",
    "InternalInconsistencyError",
    "VariationMeasure",
    "WeightedMeasure",
    "PositivityWitness",
    "GronwallVerdict",
    "variation_measure",
    "weighted_variation_measure",
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
# Variation measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationMeasure:
    """Borel measure with mass([c, d)) equal to the total variation on [c, d].

    For a piecewise-linear function the measure has density |slope| on each
    piece and no atoms; atoms are kept in the representation so weighted
    integrals stay general.
    """

    interval: Interval
    atoms: tuple[tuple[float, float], ...]
    density_pieces: tuple[tuple[float, float, float], ...]  # (lo, hi, density >= 0)

    def mass(self, c: float, d: float) -> float:
        """Measure of the half-open interval [c, d)."""
        self.interval.require_subinterval(c, d)
        total = sum(m for p, m in self.atoms if c <= p < d)
        for lo, hi, dens in self.density_pieces:
            overlap = min(hi, d) - max(lo, c)
            if overlap > 0.0:
                total += dens * overlap
        return float(total)


def variation_measure(f: PiecewiseLinear) -> VariationMeasure:
    """The variation measure of a continuous piecewise-linear function:
    density |slope| on each knot interval, no atoms."""
    pieces = tuple(
        (x0, x1, abs((y1 - y0) / (x1 - x0)))
        for (x0, y0), (x1, y1) in zip(f.knots, f.knots[1:])
    )
    return VariationMeasure(f.interval, (), pieces)


@dataclass(frozen=True)
class WeightedMeasure:
    """A variation measure reweighted by 1/f for a certified-positive PL f."""

    base: VariationMeasure
    weight_denominator: PiecewiseLinear

    def __post_init__(self):
        f = self.weight_denominator
        if f.interval != self.base.interval:
            raise PreconditionError("weight and measure must share one interval")
        if not f.min_value() > 0.0:
            raise PreconditionError(
                "the weight denominator must be certifiably positive", reason="positivity"
            )

    def mass(self, c: float, d: float) -> float:
        """Measure of [c, d) under the 1/f weight (closed form)."""
        one = PiecewiseLinear.constant(self.base.interval, 1.0)
        return self.integrate(BVFunction.from_linear(one), c, d)

    def integrate(self, u: BVFunction, c: float, d: float) -> float:
        """integral of u over [c, d) against the weighted measure, exactly.

        On every piece where u is linear and the weight denominator is
        linear, the integrand is (affine)/(affine) times a constant density,
        which integrates in closed form (rational part plus a logarithm).
        """
        self.base.interval.require_subinterval(c, d)
        if c == d:
            return 0.0
        u = as_bv_function(u)
        f = self.weight_denominator
        total = 0.0
        for p, m in self.base.atoms:
            if c <= p < d:
                total += m * u.evaluate(p) / f.evaluate(p)
        for lo, hi, dens in self.base.density_pieces:
            if dens == 0.0:
                continue
            seg_lo, seg_hi = max(lo, c), min(hi, d)
            if seg_hi <= seg_lo:
                continue
            cuts = sorted(
                {seg_lo, seg_hi}
                | {x for x in u.structural_points() if seg_lo < x < seg_hi}
                | {x for x in f.xs if seg_lo < x < seg_hi}
            )
            for x0, x1 in zip(cuts, cuts[1:]):
                total += dens * _affine_ratio_integral(u, f, x0, x1)
        return float(total)


def _affine_ratio_integral(u: BVFunction, f: PiecewiseLinear, x0: float, x1: float) -> float:
    """integral over [x0, x1] of u(x)/f(x) dx, both affine on the piece."""
    span = x1 - x0
    u0 = u.right_limit(x0)
    u1 = u.left_limit(x1)
    m = (u1 - u0) / span
    f0 = f.evaluate(x0)
    f1 = f.evaluate(x1)
    s = (f1 - f0) / span
    if abs(s) * span < 1e-6 * f0:
        # nearly flat denominator: the closed form below cancels
        # catastrophically, and Simpson is accurate to O((s*span/f0)^3) here
        u_mid = 0.5 * (u0 + u1)
        f_mid = 0.5 * (f0 + f1)
        return span / 6.0 * (u0 / f0 + 4.0 * u_mid / f_mid + u1 / f1)
    # int (u0 + m t)/(f0 + s t) dt over [0, span]
    log_term = math.log1p((f1 - f0) / f0)
    return (m / s) * span + (u0 - m * f0 / s) * log_term / s


def weighted_variation_measure(f: PiecewiseLinear) -> WeightedMeasure:
    """The Groenwall driver: the variation measure of f divided by f itself."""
    return WeightedMeasure(variation_measure(f), f)


def pl_times_step(f: PiecewiseLinear, g: StepFunction) -> BVFunction:
    """Exact BV representation of the product f * g for piecewise-linear f
    and a pure-jump g: jumps of size f(p) * jump_g(p), linear in between."""
    if f.interval != g.interval:
        raise PreconditionError("factors must share one interval")
    a, b = g.interval.a, g.interval.b
    interior = [(p, w) for p, w in g.jumps_in(a, b) if p < b]
    end_jump = sum(f.evaluate(b) * w for p, w in g.jumps_in(a, b) if p == b)
    bp, pv, acc = [], [0.0], 0.0
    for p, w in interior:
        acc += f.evaluate(p) * w
        bp.append(p)
        pv.append(acc)
    step = StepFunction(g.interval, tuple(bp), tuple(pv), acc + end_jump)

    def jumped_through(x: float) -> float:
        return sum(f.evaluate(p) * w for p, w in interior if p <= x)

    xs = sorted(set(f.xs) | set(g.breakpoints))
    knots = [(x, f.evaluate(x) * g.evaluate(x) - jumped_through(x)) for x in xs if x < b]
    knots.append((b, f.evaluate(b) * g.left_limit(b) - jumped_through(b)))
    return BVFunction(step, PiecewiseLinear(tuple(knots)))


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


def detect_case1(g, f, grid_size: int = 1025) -> PositivityWitness | None:
    """Witness just past the support edge when the integrator jumps off zero.

    If the right limit at the support edge x_L is positive, y = x_L + eps
    (eps half the gap to the next structural point) works, with lower bound
    pos(y) * (certified min of f near x_L) - neg(y) * (certified max of f
    near x_L). Returns None when no certified positive bound emerges, in
    particular whenever f carries only a heuristic modulus.
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
    window_lo = max(g.interval.a, edge - eps)
    bounds = f.enclose(window_lo, y, grid_size)
    if not bounds.certified:
        return None
    lower = pos_y * bounds.lower - neg_y * bounds.upper
    if lower > slack(lower):
        return PositivityWitness(y, lower, "case1")
    return None


def detect_case2(f, g, y: float, grid_size: int = 1025) -> PositivityWitness | None:
    """Witness at y when the integrator has only moved upward so far.

    With the minimal Jordan split, neg(y) = 0 and pos(y) > 0 give the lower
    bound pos(y) * min of f on [a, y]; the minimum must be certified."""
    g = as_bv_function(g)
    if not (g.interval.a < y <= g.interval.b):
        raise DomainError(f"y={y!r} outside ({g.interval.a}, {g.interval.b}]")
    pair = jordan_decompose(g)
    if pair.neg.evaluate(y) != 0.0:
        return None
    pos_y = pair.pos.evaluate(y)
    if not pos_y > 0.0:
        return None
    bounds = f.enclose(g.interval.a, y, grid_size)
    if not bounds.certified or not bounds.lower > 0.0:
        return None
    lower = pos_y * bounds.lower
    if lower > slack(lower):
        return PositivityWitness(y, lower, "case2")
    return None


# ---------------------------------------------------------------------------
# The |integral g df| bound and the Groenwall checker
# ---------------------------------------------------------------------------


def gdf_bound_check(f: PiecewiseLinear, g, y: float) -> tuple[float, float]:
    """Both sides of |int_a^y g df| <= int_[a,y) f*g dmu, computed exactly.

    With mu the variation measure of f weighted by 1/f, the right side
    collapses to the integral of g against |slope of f| dx; the left side is
    the exact piecewise integral of g against f. Requires f certifiably
    positive and g non-negative.
    """
    g = as_bv_function(g)
    if not isinstance(f, PiecewiseLinear):
        raise PreconditionError("the integrand must be piecewise linear here")
    if not f.min_value() > 0.0:
        raise PreconditionError("f must be certifiably positive", reason="positivity")
    if not _structurally_nonnegative(g):
        raise PreconditionError("g must be non-negative", reason="sign")
    lhs = abs(rs_pl_integrator_exact(g, f, y).value)
    rhs = 0.0
    for lo, hi, s in _clipped_pieces(f, f.interval.a, y):
        rhs += abs(s) * g.integral(lo, hi)
    return lhs, float(rhs)


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

    This validates the implication's conclusion on concrete data (including
    one-sided values at jumps and piece midpoints); it does not prove the
    general inequality.
    """
    u = as_bv_function(u)
    a, b = u.interval.a, u.interval.b
    pts = set(u.structural_points()) | {b}
    pts.update(p for p, _ in mu.base.atoms)
    pts.update(x for piece in mu.base.density_pieces for x in piece[:2])
    pts.update(x for x in mu.weight_denominator.xs)
    pts = sorted(p for p in pts if a <= p <= b)
    probes: list[tuple[float, float]] = []  # (y, u-value approached at y)
    for x0, x1 in zip(pts, pts[1:]):
        mid = 0.5 * (x0 + x1)
        probes.append((x0, u.evaluate(x0)))
        probes.append((mid, u.evaluate(mid)))
        probes.append((x1, u.left_limit(x1)))
    probes.append((b, u.evaluate(b)))

    for y, u_val in probes:
        integral = mu.integrate(u, a, y)
        if u_val > integral + slack(u_val, integral):
            return GronwallVerdict(False, (y, u_val, integral), None, None)
    for y, u_val in probes:
        if u_val > strictness + slack(u_val):
            return GronwallVerdict(True, None, False, (y, u_val))
    return GronwallVerdict(True, None, True, None)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


SEGMENT_SAMPLES = 8  # inner points of the edge piece of a sloped g; they place its witness


def _structurally_nonnegative(g: BVFunction) -> bool:
    prof = g.profile
    lowest = min(prof.values.min(), prof.left.min())
    return lowest >= -slack(g.total_variation(g.interval.a, g.interval.b))


def find_positive_y(f, g) -> PositivityWitness:
    """Find y with a certified positive integral of f dg up to y.

    Preconditions are enforced: f piecewise linear or affine (a
    bounded-variation integrand with an exact piecewise-linear form) and
    positive, g non-negative with g(a) = 0 and not identically zero. The
    search takes no configuration. Every statement about g itself is a query
    on one read of its structural profile (BVFunction.profile).

    g has finitely many pieces and vanishes up to its support edge, so the
    integral turns positive in the piece that holds the edge: g either jumps
    up there or rises linearly against a positive f. One exact curve is read
    at the structural points from the edge on, plus SEGMENT_SAMPLES inner
    points of that piece when g is sloped; the witness is the first point
    whose value clears slack ("scan", the bound is that value). When that
    point is the first place where g moves at all, and it has only moved up,
    the witness is "case2" with bound pos(y) * (min of f on [a, y]), pos(y)
    being the jump there plus the rise before it. No point clearing slack
    contradicts the guarantee and raises InternalInconsistencyError.
    """
    g = as_bv_function(g)
    a = g.interval.a
    if f.interval != g.interval:
        raise PreconditionError("integrand and integrator must share one interval")

    if abs(g.evaluate(a)) > slack(g.evaluate(a)):
        raise PreconditionError("the integrator must start at 0", reason="start")
    if not _structurally_nonnegative(g):
        raise PreconditionError("the integrator must be non-negative", reason="sign")
    edge = support_edge(g)
    if edge is None:
        raise PreconditionError("the integrator vanishes identically", reason="vanishing")
    # the integrand's exact piecewise-linear form, so every value and bound
    # downstream is exact
    f_work = _exact_form(f)
    if not f_work.min_value() > 0.0:
        raise PreconditionError(
            "the integrand's positivity is not certified", reason="positivity"
        )

    prof = g.profile
    pts = prof.points
    ys = pts[1:][pts[1:] >= edge]
    k = int(np.searchsorted(pts, edge, side="right")) - 1  # the piece holding the edge
    if not g.linear.is_constant() and k + 1 < len(pts):
        inner = np.linspace(pts[k], pts[k + 1], SEGMENT_SAMPLES + 2)[1:-1]
        ys = np.union1d(ys, inner[inner > edge])
    j = curve(f_work, g, ys)
    # exact values (the curve's bounds are 0 here); slack is elementwise on one array
    hits = np.flatnonzero(np.isin(j.ys, ys) & (j.values > slack(j.values)))
    if not hits.size:
        raise InternalInconsistencyError(
            "no positive upper limit found from the support edge on, on an "
            "instance that satisfies every precondition; this contradicts the "
            "guarantee for bounded-variation integrands and indicates a bug"
        )
    y, lower = float(j.ys[hits[0]]), float(j.values[hits[0]])
    witness = PositivityWitness(y, lower, "scan")

    start = prof.values[0]
    moved = np.flatnonzero((prof.left[1:] != start) | (prof.values[1:] != start)) + 1
    m = int(moved[0])  # J(y) > 0, so g has moved by y
    if y == pts[m]:
        jump, rise = prof.values[m] - prof.left[m], prof.left[m] - start
        if jump >= 0.0 and rise >= 0.0:  # only up so far: pos(y) = jump + rise
            bound = float(jump + rise) * f_work.min_value(a, y)
            if bound > slack(bound):
                witness = PositivityWitness(y, bound, "case2")
    # right-continuous integrator: the integral stays positive on a whole
    # stretch past the witness; attach it when one can be certified
    try:
        return replace(witness, interval=_positive_stretch(g, j, witness))
    except PreconditionError:
        return witness


def _exact_form(f) -> PiecewiseLinear:
    cover = f.pl_form()
    if cover is None:
        raise PreconditionError(
            "the integrand has no exact piecewise-linear (bounded-variation) "
            "form; positivity is not guaranteed in this regime",
            reason="no_bv_coverage",
        )
    return cover


def positive_interval(f, g, witness: PositivityWitness) -> Interval:
    """A closed interval [c, d] on which the integral stays positive.

    c is the witness point. The integrand must be piecewise linear or affine
    (its exact piecewise-linear form is used), and the function takes no
    configuration. For a pure-jump (right-continuous) integrator the
    cumulative integral is constant between jumps, so d extends to the
    midpoint of the last constant stretch that stays above half the witness
    bound (reaching b itself when no later jump drags it down). For sloped
    integrators d stops conservatively at the last structural point whose
    whole approach stays above the threshold.
    """
    g = as_bv_function(g)
    j = curve(_exact_form(f), g, g.profile.points[1:])
    return _positive_stretch(g, j, witness)


def _positive_stretch(g: BVFunction, j: IntegralCurve, witness: PositivityWitness) -> Interval:
    """positive_interval read off an exact curve of f dg (a piecewise-linear
    f) whose points include every structural point of g after the witness."""
    a, b = g.interval.a, g.interval.b
    c = witness.y
    if not (a < c <= b):
        raise DomainError(f"witness point {c!r} outside ({a}, {b}]")
    if c == b:
        raise PreconditionError(
            "the witness sits at the right endpoint; no interval extends past it",
            reason="degenerate",
        )
    threshold = witness.lower_bound / 2.0
    later = j.ys > c

    if g.linear.is_constant():
        # J is right-continuous and constant between the jumps of g
        i = int(np.searchsorted(j.ys, c, side="right"))  # curve points at or before c
        if not (j.values[i - 1] if i else 0.0) > threshold:
            raise InternalInconsistencyError(
                "the integral at the witness fell below the witness bound"
            )
        after = later & j.at_jump
        qs = j.ys[after]
        drops = np.flatnonzero(~(j.values[after] > threshold))
        if not drops.size:
            return Interval(c, b)  # positive through the right endpoint
        k = int(drops[0])
        lo = float(qs[k - 1]) if k else c
        return Interval(c, 0.5 * (lo + float(qs[k])))  # stop strictly before the drop

    # sloped integrator: between structural points J is monotone (the
    # integrand is positive and each g-piece has one slope sign), so
    # endpoint and left-limit checks certify whole stretches
    at = later & np.isin(j.ys, g.profile.points)
    qs = j.ys[at]
    good = (j.values[at] > threshold) & (j.values[at] - j.jumps[at] > threshold)
    fails = np.flatnonzero(~good)
    k = int(fails[0]) if fails.size else len(qs)
    if k == 0:
        raise PreconditionError(
            "cannot certify any stretch past the witness on this sloped "
            "integrator", reason="degenerate",
        )
    return Interval(c, float(qs[k - 1]))
