"""Seeded random instances for property runs.

Shared by the test suite and the CLI selftest so both exercise the same
distributions; everything is driven by a numpy Generator, so a fixed seed
reproduces runs bit for bit.
"""

from __future__ import annotations

import numpy as np

from .bv_core import BVFunction, Interval, PiecewiseLinear, StepFunction


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_interval(rng: np.random.Generator) -> Interval:
    a = float(rng.uniform(-1.0, 1.0))
    return Interval(a, a + float(rng.uniform(0.5, 2.0)))


def _distinct_points(rng: np.random.Generator, interval: Interval, count: int) -> list[float]:
    """Interior points with a minimum spacing, so breakpoints stay distinct."""
    if count <= 0:
        return []
    pad = 0.02 * interval.length
    raw = np.sort(rng.uniform(interval.a + pad, interval.b - pad, size=count))
    kept: list[float] = []
    for x in raw:
        if not kept or x - kept[-1] > 1e-4 * interval.length:
            kept.append(float(x))
    return kept


def random_piecewise_linear(
    rng: np.random.Generator,
    interval: Interval,
    max_knots: int = 6,
    low: float = -2.0,
    high: float = 2.0,
) -> PiecewiseLinear:
    inner = _distinct_points(rng, interval, int(rng.integers(0, max_knots)))
    xs = [interval.a] + inner + [interval.b]
    ys = rng.uniform(low, high, size=len(xs))
    return PiecewiseLinear(tuple(zip(xs, (float(y) for y in ys))))


def random_step(
    rng: np.random.Generator,
    interval: Interval,
    max_jumps: int = 6,
    nonnegative: bool = False,
    start_zero: bool = False,
) -> StepFunction:
    k = int(rng.integers(1, max_jumps + 1))
    bp = _distinct_points(rng, interval, k)
    low = 0.0 if nonnegative else -2.0
    values = [float(v) for v in rng.uniform(low, 2.0, size=len(bp) + 1)]
    if start_zero:
        values[0] = 0.0
    end_value = float(rng.uniform(low, 2.0))
    if rng.random() < 0.3:
        end_value = values[-1]  # no jump at the right endpoint
    return StepFunction(interval, tuple(bp), tuple(values), end_value)


def random_nonnegative_step(rng: np.random.Generator, interval: Interval,
                            max_jumps: int = 6) -> StepFunction:
    """g >= 0 with g(a) = 0 and at least one strictly positive value."""
    while True:
        g = random_step(rng, interval, max_jumps, nonnegative=True, start_zero=True)
        if g.piece_values.max() > 0.0 or g.end_value > 0.0:
            return g


def random_bv(rng: np.random.Generator, interval: Interval,
              max_jumps: int = 5, max_knots: int = 5) -> BVFunction:
    """Mixed integrator: random step part plus random linear part."""
    step = random_step(rng, interval, max_jumps)
    linear = random_piecewise_linear(rng, interval, max_knots)
    # keep the sum's left value unconstrained but finite and modest
    return BVFunction(step, linear)


def random_upper_limit(rng: np.random.Generator, interval: Interval) -> float:
    frac = float(rng.uniform(0.05, 1.0))
    return interval.a + frac * interval.length
