"""Construction and certification of the sign counterexample integrator.

Given a continuous positive integrand that oscillates upward by at least
alpha * n^-gamma along interleaved point sequences crest_n > trough_n
decreasing to the interval's left end, a truncated sum of n^-beta-high
half-open bricks on [trough_n, crest_n) is built, the partial integrals at
the trough points are read off one running sum of the bricks' jump terms in
increasing x (the float the integration kernel gives there, whose rounding
is not yet bounded), and a threshold index is certified past which every
cumulative integral is negative. Truncation is handled honestly: the
finitely many stored bricks are checked numerically, the discarded infinite
tail is bounded analytically (it only pushes the integrals further down),
and a certificate records both parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bv_core import DomainError, Interval, StepFunction, _running_sum, slack
from .funcspec import (
    IntegrandSpec,
    Sampled,
    X,
    BinaryOp,
    Call,
    Literal,
    Power,
    integrand_values,
)
from .stieltjes import curve

__all__ = [
    "OscillationFamily",
    "CounterexampleParams",
    "IndexRecords",
    "Certificate",
    "FamilyReport",
    "ThresholdNotFound",
    "power_sine_family",
    "POWER_SINE_UPPER_BOUND",
    "validate_family",
    "build_bricks",
    "partial_integral",
    "tail_lower_bound",
    "certified_threshold",
    "build_counterexample",
    "certify_negative",
]

SIGN_SLACK_SCALE = 1e-12  # step-value sign checks; construction margins dwarf this


@dataclass(frozen=True)
class OscillationFamily:
    """Interleaved sample sequences along which the integrand swings upward.

    trough(n) < crest(n) decrease to accumulation_point as n grows, with
    f(crest(n)) - f(trough(n)) >= alpha * n^-gamma. gamma must be in (0, 1)
    so the oscillations outweigh any summable brick heights. trough and crest
    take an integer index or, elementwise, an integer array of them.
    """

    accumulation_point: float
    trough: Callable[[int], float]
    crest: Callable[[int], float]
    alpha: float
    gamma: float

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise DomainError("alpha must be positive")
        if not (0.0 < self.gamma < 1.0):
            raise DomainError("gamma must lie in (0, 1)")


@dataclass(frozen=True)
class CounterexampleParams:
    beta: float
    truncation: int
    threshold: int

    def __post_init__(self):
        if not (self.beta > 1.0):
            raise DomainError("beta must exceed 1")
        if not (1 <= self.threshold <= self.truncation):
            raise DomainError("threshold must lie in 1..truncation")


@dataclass(frozen=True)
class IndexRecords:
    """Per-index evidence in read-only columns, entry i for index n = i + 1:
    the truncated partial integral at trough(n) as the integration kernel
    computes it (rs_jump_exact against build_bricks there), the analytic
    infinite-tail lower bound from n, the tail-corrected value (an upper bound
    for the untruncated partial integral), and whether it is certified
    negative."""

    n: np.ndarray
    partial_integral: np.ndarray
    tail_lower_bound: np.ndarray
    corrected: np.ndarray
    negative: np.ndarray


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence that the built integrator works.

    verdict is True only when every cumulative-integral step value on
    [trough(truncation), b], corrected by the dropped-tail bound, is
    strictly negative, the oscillation hypothesis held wherever it was
    checked, and the analytic threshold argument covers the indices beyond
    the truncation horizon. f_upper_bound is the caller's f_sup, the upper
    bound for f that the analytic threshold rests on.
    """

    records: IndexRecords
    empirical_threshold: int | None
    certified_threshold: int | None
    remainder_bound: float
    truncation: int
    f_upper_bound: float
    family_ok: bool
    analytic_ok: bool
    truncation_note: str
    step_failures: tuple[tuple[float, float], ...]
    verdict: bool


@dataclass(frozen=True)
class FamilyReport:
    ok: bool
    violation_index: int | None
    violation_kind: str | None  # interleaving | oscillation | convergence
    detail: str
    horizon_gap: float


class ThresholdNotFound(ArithmeticError):
    """No index keeps all corrected partial integrals negative up to the horizon."""


POWER_SINE_UPPER_BOUND = 3.0  # x^gamma * sin(1/x) + 2 <= 1 + 2 on [0, 1] for gamma > 0


def power_sine_family(gamma: float) -> tuple[IntegrandSpec, OscillationFamily]:
    """The oscillating integrand x^gamma * sin(1/x) + 2 on [0, 1] (value 2 at 0)
    together with its natural crest/trough sequences.

    crest(n) = (2/pi)/(4n-3) and trough(n) = (2/pi)/(4n-1) hit sin = +1 and
    -1, so f(crest) - f(trough) = crest^gamma + trough^gamma, which is at
    least alpha * n^-gamma for alpha = 2*(2*pi)^-gamma. That holds at the
    float points only up to their rounding: 1/x misses the exact odd
    multiple of pi/2 by some d, and sin misses +-1 by about d^2 / 2, so the
    family check measures the rises on the floats rather than trusting this.
    """
    if not (0.0 < gamma < 1.0):
        raise DomainError("gamma must lie in (0, 1)")
    expr = BinaryOp(
        "+",
        BinaryOp("*", Power(X, gamma), Call("sin", BinaryOp("/", Literal(1.0), X))),
        Literal(2.0),
    )
    spec = IntegrandSpec(
        expr=expr,
        interval=Interval(0.0, 1.0),
        modulus=Sampled(resolution=2**17, safety_factor=1.5),
        removable_value_at=(0.0, 2.0),
    )
    two_over_pi = 2.0 / math.pi
    family = OscillationFamily(
        accumulation_point=0.0,
        trough=lambda n: two_over_pi / (4 * n - 1),
        crest=lambda n: two_over_pi / (4 * n - 3),
        alpha=2.0 * (2.0 * math.pi) ** (-gamma),
        gamma=gamma,
    )
    return spec, family


def _family_points(fam: OscillationFamily, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """trough(n) and crest(n) at every index of the integer array ns."""
    return np.asarray(fam.trough(ns), dtype=float), np.asarray(fam.crest(ns), dtype=float)


def _negative(values: np.ndarray) -> np.ndarray:
    """Elementwise values < -1e-12 * (1 + |values|) (SIGN_SLACK_SCALE)."""
    return values < -SIGN_SLACK_SCALE * (1.0 + np.abs(values))


def validate_family(f: IntegrandSpec, fam: OscillationFamily, count: int) -> FamilyReport:
    """Check interleaving, the convergence trend and the oscillation bound
    for indices 1..count; reports the first violated index instead of raising."""
    return _check_family(f, fam, count)[0]


def _family_values(f: IntegrandSpec, fam: OscillationFamily,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """f at trough(n) and at crest(n) for n = 1..count."""
    troughs, crests = _family_points(fam, np.arange(1, count + 1))
    return integrand_values(f, troughs), integrand_values(f, crests)


def _check_family(f: IntegrandSpec, fam: OscillationFamily, count: int
                  ) -> tuple[FamilyReport, tuple[np.ndarray, np.ndarray] | None]:
    """validate_family, and the _family_values it read once the oscillation
    check was reached (else None)."""
    if count < 1:
        raise DomainError("count must be at least 1")
    a = fam.accumulation_point
    b = f.interval.b
    troughs, crests = _family_points(fam, np.arange(1, count + 1))

    if not crests[0] <= b:
        return FamilyReport(False, 1, "interleaving",
                            f"crest(1)={crests[0].item()!r} exceeds the domain end {b!r}",
                            0.0), None
    # index i checks a < trough(i + 1) < crest(i + 1), then crest(i + 2) <
    # trough(i + 1); the first index failing either reports, the first check
    # taking precedence
    ordered = (a < troughs) & (troughs < crests)
    apart = np.append(crests[1:] < troughs[:-1], True)
    bad = np.flatnonzero(~(ordered & apart))
    if bad.size:
        i = int(bad[0])
        if not ordered[i]:
            return FamilyReport(False, i + 1, "interleaving",
                                f"need {a!r} < trough < crest at n={i + 1}", 0.0), None
        return FamilyReport(False, i + 2, "interleaving",
                            f"crest({i + 2}) does not stay below trough({i + 1})", 0.0), None

    horizon_gap = crests[-1].item() - a
    far_gap = fam.crest(64 * count) - a
    if not far_gap <= max(horizon_gap / 4.0, slack(horizon_gap)):
        return FamilyReport(False, count, "convergence",
                            f"crest({64 * count}) - a = {far_gap!r} is not shrinking toward 0",
                            horizon_gap), None

    values = f_troughs, f_crests = integrand_values(f, troughs), integrand_values(f, crests)
    rises = f_crests - f_troughs
    required = fam.alpha * np.arange(1, count + 1, dtype=float) ** (-fam.gamma)
    bad = np.flatnonzero(rises < required - slack(float(required[0])))
    if bad.size:
        n = int(bad[0]) + 1
        return FamilyReport(False, n, "oscillation",
                            f"f(crest)-f(trough)={rises[bad[0]].item()!r} < "
                            f"alpha*n^-gamma={required[bad[0]].item()!r} at n={n}",
                            horizon_gap), values
    return FamilyReport(True, None, None, "all checks passed", horizon_gap), values


def build_bricks(fam: OscillationFamily, beta: float, truncation: int,
                 interval: Interval, first: int = 1) -> StepFunction:
    """Sum of bricks n^-beta * chi_[trough(n), crest(n)) for n = first..truncation.

    Right-continuous, zero at the left endpoint, with exactly two jumps per
    brick. Raises on interleaving violations. Any positive beta builds (the
    brick sum is well-defined regardless); the negativity machinery elsewhere
    insists on beta > 1, where the tail bounds actually need it.
    """
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    if not 1 <= first <= truncation:
        raise DomainError("need 1 <= first <= truncation")
    ns = np.arange(first, truncation + 1)
    lo, hi = _family_points(fam, ns)
    interleaved = (fam.accumulation_point < lo) & (lo < hi)
    # brick n + 1 ends below the start of brick n
    apart = np.append(hi[1:] < lo[:-1], True)
    bad = np.flatnonzero(~(interleaved & apart))
    if bad.size:
        # the largest offending n: the first violation counting down from truncation
        i = bad[-1]
        what = "bricks overlap" if interleaved[i] else "interleaving violated"
        raise DomainError(f"{what} at n={int(ns[i])}")
    # descending n: trough(N), crest(N), trough(N - 1), crest(N - 1), ...
    breakpoints = np.column_stack([lo, hi])[::-1].ravel()
    values = np.zeros(breakpoints.size + 1)
    # np.float_power gives Python's float(n) ** -beta bit for bit, as
    # _index_records and tail_lower_bound do; numpy's vector ** may not
    values[1::2] = np.float_power(ns[::-1], -beta)
    return StepFunction(interval, breakpoints, values, 0.0)


def partial_integral(f: IntegrandSpec, fam: OscillationFamily, beta: float,
                     n: int, truncation: int) -> float:
    """Truncated partial integral up to trough(n):
    n^-beta * f(trough(n)) - sum_{k=n+1}^{truncation} k^-beta * (f(crest_k) - f(trough_k)).

    The entry for n of the index records a certificate stores; equals, bit
    for bit, rs_jump_exact against build_bricks at y = trough(n). The
    discarded k > truncation tail is handled separately (tail_lower_bound).
    """
    if not 1 <= n <= truncation:
        raise DomainError(f"index {n} outside 1..{truncation}")
    records, _ = _index_records(fam, beta, truncation, _family_values(f, fam, truncation))
    return float(records.partial_integral[n - 1])


def tail_lower_bound(alpha: float, beta: float, gamma: float, n: int) -> float:
    """Closed-form lower bound for the infinite oscillation tail past index n:
    sum_{k>n} k^-beta (f(crest_k)-f(trough_k)) >= alpha/(beta+gamma-1) * (n+2)^-(beta+gamma-1),
    by comparison of alpha * sum_{k>n} k^-(beta+gamma) with its integral."""
    if not (beta > 1.0 and 0.0 < gamma < 1.0 and alpha > 0.0):
        raise DomainError("need beta > 1, gamma in (0,1), alpha > 0")
    if n < 0:
        raise DomainError("n must be non-negative")
    decay = beta + gamma - 1.0
    return alpha / decay * float(n + 2) ** (-decay)


def certified_threshold(f_sup: float, alpha: float, beta: float, gamma: float,
                        cap: int = 10**6) -> int:
    """Smallest n with f_sup * n^-beta < tail_lower_bound(alpha, beta, gamma, n).

    Valid for every later index too: the ratio of the two sides is
    C * n^(gamma-1) * (1 + 2/n)^(beta+gamma-1), a product of factors that are
    non-increasing for n >= 1 (gamma < 1), so once below 1 it stays below.
    That monotone inequality is bisected: doubling n from 1 until it holds
    (or cap is reached), then halving the last gap.
    """
    if not f_sup > 0.0:
        raise DomainError("f_sup must be positive")

    def holds(n: int) -> bool:
        return f_sup * float(n) ** (-beta) < tail_lower_bound(alpha, beta, gamma, n)

    lo, hi = 0, 1  # holds(lo) is false (or lo is 0); hi is the next index tried
    while hi > cap or not holds(hi):
        if hi >= cap:
            raise ThresholdNotFound(f"no certified threshold within 1..{cap}")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _index_records(fam: OscillationFamily, beta: float, truncation: int,
                   values: tuple[np.ndarray, np.ndarray]) -> tuple[IndexRecords, np.ndarray]:
    """Per-index evidence from the _family_values up to the truncation, and
    the running sum it reads the partial integrals off: the jump terms of
    build_bricks(fam, beta, truncation) in increasing x, h_N * f(trough(N)),
    -h_N * f(crest(N)), ..., h_1 * f(trough(1)), -h_1 * f(crest(1)), added
    in that order from 0.0, as the kernel (stieltjes._cumulative) adds them."""
    # first, so that beta <= 1 raises DomainError before decay below is 0 or negative
    remainder = tail_lower_bound(fam.alpha, beta, fam.gamma, truncation)
    ns = np.arange(1, truncation + 1)
    f_troughs, f_crests = values
    heights = np.float_power(ns, -beta)  # build_bricks' heights, bit for bit
    sweep = _running_sum(np.column_stack([heights * f_troughs, -heights * f_crests])[::-1].ravel())
    # J at trough(1), ..., trough(N), copied so the records do not hold the sweep
    partials = sweep[-2::-2].copy()
    decay = beta + fam.gamma - 1.0
    tails = fam.alpha / decay * np.float_power(ns + 2, -decay)  # tail_lower_bound at every n
    corrected = partials - remainder
    columns = (ns, partials, tails, corrected, _negative(corrected))
    for col in columns:
        col.flags.writeable = False
    return IndexRecords(*columns), sweep


def _empirical_threshold(records: IndexRecords) -> int | None:
    """Smallest n0 with records negative for every n0 <= n <= truncation."""
    bad = np.flatnonzero(~records.negative)
    if not bad.size:
        return 1
    if bad[-1] == records.negative.size - 1:
        return None
    return int(bad[-1]) + 2


_TRUNCATION_NOTE = (
    "Bricks beyond index {N} are not stored: on [trough({N}), b] their exact "
    "contribution is a constant drop of at least {rem!r} (the analytic tail "
    "bound, assuming the family's oscillation inequality for all indices), "
    "which the corrected step values account for; on (a, trough({N})) the "
    "stored integrator is identically 0 (cumulative integral 0, not "
    "negative), while the untruncated construction stays negative there by "
    "the threshold argument once the certified threshold lies at or below "
    "{N} + 1."
)


def build_counterexample(
    f: IntegrandSpec,
    fam: OscillationFamily,
    beta: float,
    truncation: int,
    f_sup: float,
    force_threshold: int | None = None,
) -> tuple[StepFunction, CounterexampleParams, Certificate]:
    """Build the truncated integrator that keeps every cumulative integral negative.

    The threshold index n0 is the smallest one whose corrected partial
    integrals stay negative through the truncation horizon (optionally forced
    to any not-smaller value); bricks below n0 are dropped, so the integrator
    is h * chi_[a, crest(n0)). The returned certificate carries the per-index
    evidence and the negativity verdict for the built integrator. f_sup is
    the caller's upper bound for f on its interval, which the analytic
    threshold argument uses; it is taken as given, and f is read only at
    the family's points.
    """
    report, values = _check_family(f, fam, truncation)
    if not report.ok:
        raise DomainError(
            f"oscillation family invalid at n={report.violation_index} "
            f"({report.violation_kind}): {report.detail}"
        )
    records, sweep = _index_records(fam, beta, truncation, values)
    threshold = _empirical_threshold(records)
    if threshold is None:
        raise ThresholdNotFound(
            "corrected partial integrals never stay negative through the horizon; "
            "increase the truncation or adjust beta"
        )
    if force_threshold is not None:
        if force_threshold < threshold:
            raise DomainError(
                f"forced threshold {force_threshold} is below the smallest valid one {threshold}"
            )
        if force_threshold > truncation:
            raise DomainError("forced threshold exceeds the truncation horizon")
        chosen = force_threshold
    else:
        chosen = threshold
    g = build_bricks(fam, beta, truncation, interval=f.interval, first=chosen)
    params = CounterexampleParams(beta=beta, truncation=truncation, threshold=chosen)
    # curve(f, g, [b]): the sweep through crest(chosen), the last jump of g,
    # read at each breakpoint and at b (where crest(chosen) may have folded)
    ys = np.append(g.breakpoints, g.interval.b)
    steps = np.append(sweep[1:ys.size], sweep[2 * (truncation - chosen + 1)])
    cert = _certify(fam, params, f_sup, records, report.ok, (ys, steps))
    return g, params, cert


def certify_negative(
    f: IntegrandSpec,
    g: StepFunction,
    fam: OscillationFamily,
    params: CounterexampleParams,
    f_sup: float,
) -> Certificate:
    """Exact negativity check of the cumulative integral over [trough(N), b].

    The cumulative integral against a pure-jump integrator is a
    right-continuous step function of the upper limit, so checking its value
    at every jump point (plus constancy in between) covers the whole range.
    Values are corrected by the analytic bound for the discarded tail; any
    corrected value at or above -slack makes the verdict false and is
    reported with its location. f_sup is the caller's upper bound for f,
    as in build_counterexample.
    """
    report, values = _check_family(f, fam, params.truncation)
    if values is None:
        values = _family_values(f, fam, params.truncation)
    records, _ = _index_records(fam, params.beta, params.truncation, values)
    j = curve(f, g, [g.interval.b])
    return _certify(fam, params, f_sup, records, report.ok, (j.ys, j.values))


def _certify(fam: OscillationFamily, params: CounterexampleParams, f_sup: float,
             records: IndexRecords, family_ok: bool,
             steps: tuple[np.ndarray, np.ndarray]) -> Certificate:
    """certify_negative on index records, a family check and the step values
    (ys, J(ys)) of the cumulative integral, all already computed."""
    N = params.truncation
    remainder = records.tail_lower_bound[-1].item()
    ys, values = steps
    corrected = values - remainder
    failed = ~_negative(corrected)
    failures = tuple(zip(ys[failed].tolist(), corrected[failed].tolist()))

    f_sup = float(f_sup)
    try:
        analytic = certified_threshold(f_sup, fam.alpha, params.beta, fam.gamma)
    except ThresholdNotFound:
        analytic = None
    analytic_ok = analytic is not None and analytic <= N + 1

    verdict = family_ok and not failures and analytic_ok
    return Certificate(
        records=records,
        empirical_threshold=_empirical_threshold(records),
        certified_threshold=analytic,
        remainder_bound=remainder,
        truncation=N,
        f_upper_bound=f_sup,
        family_ok=family_ok,
        analytic_ok=analytic_ok,
        truncation_note=_TRUNCATION_NOTE.format(N=N, rem=remainder),
        step_failures=failures,
        verdict=verdict,
    )
