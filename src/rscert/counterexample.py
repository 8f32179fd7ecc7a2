"""Construction and certification of the sign counterexample integrator.

Given a continuous positive integrand that oscillates upward by at least
alpha * n^-gamma along interleaved point sequences crest_n > trough_n
decreasing to the interval's left end, a truncated sum of n^-beta-high
half-open bricks on [trough_n, crest_n) is built, the partial integrals at
the trough points are computed exactly, and a threshold index is certified
past which every cumulative integral is negative. Truncation is handled
honestly: the finitely many stored bricks are checked numerically, the
discarded infinite tail is bounded analytically (it only pushes the
integrals further down), and a certificate records both parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bv_core import DomainError, Interval, StepFunction, slack
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
    "IndexRecord",
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
    so the oscillations outweigh any summable brick heights.
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
class IndexRecord:
    """Evidence for one index: exact truncated partial integral at trough(n),
    the analytic infinite-tail lower bound from n, the tail-corrected value
    (an upper bound for the untruncated partial integral), and its sign."""

    n: int
    partial_integral: float
    tail_lower_bound: float
    corrected: float
    negative: bool


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence that the built integrator works.

    verdict is True only when every cumulative-integral step value on
    [trough(truncation), b], corrected by the dropped-tail bound, is
    strictly negative, the oscillation hypothesis held wherever it was
    checked, and the analytic threshold argument covers the indices beyond
    the truncation horizon.
    """

    records: tuple[IndexRecord, ...]
    empirical_threshold: int | None
    certified_threshold: int | None
    remainder_bound: float
    truncation: int
    f_upper_bound: float | None
    family_ok: bool
    analytic_ok: bool
    truncation_note: str
    step_failures: tuple[tuple[float, float], ...]
    verdict: bool


@dataclass(frozen=True)
class FamilyReport:
    ok: bool
    checked: int
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
    -1 exactly, so f(crest) - f(trough) = crest^gamma + trough^gamma, which
    is at least alpha * n^-gamma for alpha = 2*(2*pi)^-gamma.
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


def _family_points(fam: OscillationFamily, count: int) -> tuple[np.ndarray, np.ndarray]:
    ns = np.arange(1, count + 1)
    troughs = np.asarray([fam.trough(int(n)) for n in ns], dtype=float)
    crests = np.asarray([fam.crest(int(n)) for n in ns], dtype=float)
    return troughs, crests


def validate_family(f: IntegrandSpec, fam: OscillationFamily, count: int) -> FamilyReport:
    """Check interleaving, the convergence trend and the oscillation bound
    for indices 1..count; reports the first violated index instead of raising."""
    if count < 1:
        raise DomainError("count must be at least 1")
    a = fam.accumulation_point
    b = f.interval.b
    troughs, crests = _family_points(fam, count)

    if not crests[0] <= b:
        return FamilyReport(False, count, 1, "interleaving",
                            f"crest(1)={crests[0]!r} exceeds the domain end {b!r}", 0.0)
    for n in range(count):
        lo, hi = troughs[n], crests[n]
        if not (a < lo < hi):
            return FamilyReport(False, count, n + 1, "interleaving",
                                f"need {a!r} < trough < crest at n={n + 1}", 0.0)
        if n + 1 < count and not crests[n + 1] < troughs[n]:
            return FamilyReport(False, count, n + 2, "interleaving",
                                f"crest({n + 2}) does not stay below trough({n + 1})", 0.0)

    horizon_gap = crests[-1] - a
    far_gap = fam.crest(64 * count) - a
    if not far_gap <= max(horizon_gap / 4.0, slack(horizon_gap)):
        return FamilyReport(False, count, count, "convergence",
                            f"crest({64 * count}) - a = {far_gap!r} is not shrinking toward 0",
                            horizon_gap)

    rises = integrand_values(f, crests) - integrand_values(f, troughs)
    required = fam.alpha * np.arange(1, count + 1, dtype=float) ** (-fam.gamma)
    bad = np.flatnonzero(rises < required - slack(float(required[0])))
    if bad.size:
        n = int(bad[0]) + 1
        return FamilyReport(False, count, n, "oscillation",
                            f"f(crest)-f(trough)={rises[bad[0]]!r} < alpha*n^-gamma={required[bad[0]]!r} at n={n}",
                            horizon_gap)
    return FamilyReport(True, count, None, None, "all checks passed", horizon_gap)


def build_bricks(fam: OscillationFamily, beta: float, truncation: int,
                 interval: Interval | None = None, first: int = 1) -> StepFunction:
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
    breakpoints: list[float] = []
    values: list[float] = [0.0]
    for n in range(truncation, first - 1, -1):
        lo, hi = fam.trough(n), fam.crest(n)
        if not (fam.accumulation_point < lo < hi):
            raise DomainError(f"interleaving violated at n={n}")
        if breakpoints and not breakpoints[-1] < lo:
            raise DomainError(f"bricks overlap at n={n}")
        breakpoints += [lo, hi]
        values += [float(n) ** (-beta), 0.0]
    if interval is None:
        interval = Interval(fam.accumulation_point, max(fam.crest(first), breakpoints[-1]))
    return StepFunction(interval, tuple(breakpoints), tuple(values), 0.0)


def partial_integral(f: IntegrandSpec, fam: OscillationFamily, beta: float,
                     n: int, truncation: int) -> float:
    """Exact truncated partial integral up to trough(n):
    n^-beta * f(trough(n)) - sum_{k=n+1}^{truncation} k^-beta * (f(crest_k) - f(trough_k)).

    The entry for n of the index records a certificate stores; agrees with
    rs_jump_exact against build_bricks at y = trough(n). The discarded
    k > truncation tail is handled separately (tail_lower_bound).
    """
    if not 1 <= n <= truncation:
        raise DomainError(f"index {n} outside 1..{truncation}")
    records, _ = _index_records(f, fam, beta, truncation)
    return records[n - 1].partial_integral


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
    """
    if not f_sup > 0.0:
        raise DomainError("f_sup must be positive")
    n = 1
    while n <= cap:
        if f_sup * float(n) ** (-beta) < tail_lower_bound(alpha, beta, gamma, n):
            return n
        n += 1
    raise ThresholdNotFound(f"no certified threshold within 1..{cap}")


def _index_records(f: IntegrandSpec, fam: OscillationFamily, beta: float,
                   truncation: int) -> tuple[tuple[IndexRecord, ...], float]:
    """Per-index evidence via one vectorized pass (suffix sums over the bricks)."""
    ns = np.arange(1, truncation + 1, dtype=float)
    troughs, crests = _family_points(fam, truncation)
    f_troughs = integrand_values(f, troughs)
    rises = integrand_values(f, crests) - f_troughs
    weighted = ns ** (-beta) * rises
    # suffix[i] = sum of weighted[i+1:], the truncated tail past index i+1
    suffix = np.concatenate([np.cumsum(weighted[::-1])[::-1], [0.0]])[1:]
    partials = ns ** (-beta) * f_troughs - suffix
    remainder = tail_lower_bound(fam.alpha, beta, fam.gamma, truncation)
    records = []
    for i in range(truncation):
        n = i + 1
        value = float(partials[i])
        corrected = value - remainder
        records.append(
            IndexRecord(
                n=n,
                partial_integral=value,
                tail_lower_bound=tail_lower_bound(fam.alpha, beta, fam.gamma, n),
                corrected=corrected,
                negative=corrected < -slack(corrected, scale=SIGN_SLACK_SCALE),
            )
        )
    return tuple(records), remainder


def _empirical_threshold(records: tuple[IndexRecord, ...]) -> int | None:
    """Smallest n0 with records negative for every n0 <= n <= truncation."""
    last_bad = None
    for rec in records:
        if not rec.negative:
            last_bad = rec.n
    if last_bad is None:
        return 1
    if last_bad == len(records):
        return None
    return last_bad + 1


def _resolve_f_sup(f: IntegrandSpec, f_sup: float | None) -> float | None:
    if f_sup is not None:
        return float(f_sup)
    if f.heuristic:
        return None
    return f.enclose(f.interval.a, f.interval.b, 4097).upper


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
    f_sup: float | None = None,
    force_threshold: int | None = None,
) -> tuple[StepFunction, CounterexampleParams, Certificate]:
    """Build the truncated integrator that keeps every cumulative integral negative.

    The threshold index n0 is the smallest one whose corrected partial
    integrals stay negative through the truncation horizon (optionally forced
    to any not-smaller value); bricks below n0 are dropped, so the integrator
    is h * chi_[a, crest(n0)). The returned certificate carries the per-index
    evidence and the negativity verdict for the built integrator.
    """
    report = validate_family(f, fam, truncation)
    if not report.ok:
        raise DomainError(
            f"oscillation family invalid at n={report.violation_index} "
            f"({report.violation_kind}): {report.detail}"
        )
    records, remainder = _index_records(f, fam, beta, truncation)
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
    cert = _certify(f, g, fam, params, f_sup, records, remainder, report.ok)
    return g, params, cert


def certify_negative(
    f: IntegrandSpec,
    g: StepFunction,
    fam: OscillationFamily,
    params: CounterexampleParams,
    f_sup: float | None = None,
) -> Certificate:
    """Exact negativity check of the cumulative integral over [trough(N), b].

    The cumulative integral against a pure-jump integrator is a
    right-continuous step function of the upper limit, so checking its value
    at every jump point (plus constancy in between) covers the whole range.
    Values are corrected by the analytic bound for the discarded tail; any
    corrected value at or above -slack makes the verdict false and is
    reported with its location.
    """
    records, remainder = _index_records(f, fam, params.beta, params.truncation)
    family_ok = validate_family(f, fam, params.truncation).ok
    return _certify(f, g, fam, params, f_sup, records, remainder, family_ok)


def _certify(f: IntegrandSpec, g: StepFunction, fam: OscillationFamily,
             params: CounterexampleParams, f_sup: float | None,
             records: tuple[IndexRecord, ...], remainder: float,
             family_ok: bool) -> Certificate:
    """certify_negative on index records and a family check already computed."""
    N = params.truncation
    j = curve(f, g, [g.interval.b])
    corrected = j.values - remainder
    # elementwise: not corrected < -slack(corrected, scale=SIGN_SLACK_SCALE)
    failed = ~(corrected < -SIGN_SLACK_SCALE * (1.0 + np.abs(corrected)))
    failures = tuple(zip(j.ys[failed].tolist(), corrected[failed].tolist()))

    f_sup_eff = _resolve_f_sup(f, f_sup)
    analytic = None
    if f_sup_eff is not None:
        try:
            analytic = certified_threshold(f_sup_eff, fam.alpha, params.beta, fam.gamma)
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
        f_upper_bound=f_sup_eff,
        family_ok=family_ok,
        analytic_ok=analytic_ok,
        truncation_note=_TRUNCATION_NOTE.format(N=N, rem=remainder),
        step_failures=failures,
        verdict=verdict,
    )
