"""Jump extraction as columns, against the per-jump loops it replaced.

The functions below ending in _reference are the loops StepFunction.jumps_in,
jordan_decompose and pl_times_step ran when jumps were a Python list of
(point, jump) tuples; they stay here as the references that the columnar
code must match bit for bit, along with the list-based reads of
total_variation, rs_jump_exact and curve.
"""

from bisect import bisect_left, bisect_right

import numpy as np

from rscert import sampling
from rscert.bv_core import (
    BVFunction,
    Interval,
    PiecewiseLinear,
    StepFunction,
    jordan_decompose,
)
from rscert.counterexample import build_bricks, power_sine_family
from rscert.funcspec import integrand_values
from rscert.positivity import pl_times_step
from rscert.stieltjes import curve, rs_jump_exact


def jumps_in_reference(g: StepFunction, c: float, d: float) -> list[tuple[float, float]]:
    g.interval.require_subinterval(c, d)
    out = []
    if c == d:
        return out
    lo = bisect_right(g.breakpoints, c)
    hi = bisect_left(g.breakpoints, d)
    for i in range(lo, hi):
        out.append((g.breakpoints[i], g.piece_values[i + 1] - g.piece_values[i]))
    end_jump = g.evaluate(d) - g.left_limit(d)
    if end_jump != 0.0:
        out.append((d, end_jump))
    return out


def jordan_reference(g: BVFunction):
    a, b = g.interval.a, g.interval.b
    pos_cum, neg_cum = 0.0, 0.0
    pos_bp, pos_pv = [], [0.0]
    neg_bp, neg_pv = [], [0.0]
    end_jump = 0.0
    for p, jump in jumps_in_reference(g.step, a, b):
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
    return BVFunction(pos_step, pos_lin), BVFunction(neg_step, neg_lin)


def pl_times_step_reference(f: PiecewiseLinear, g: StepFunction) -> BVFunction:
    a, b = g.interval.a, g.interval.b
    interior = [(p, w) for p, w in jumps_in_reference(g, a, b) if p < b]
    end_jump = sum(f.evaluate(b) * w for p, w in jumps_in_reference(g, a, b) if p == b)
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


def rs_jump_exact_reference(f, step: StepFunction, y: float) -> float:
    """The jump terms f(p) * w(p) of the list of jumps, added in order to 0.0."""
    jumps = jumps_in_reference(step, step.interval.a, y)
    total = 0.0
    for (_, w), value in zip(jumps, integrand_values(f, [p for p, _ in jumps]).tolist()):
        total += value * w
    return total


def curve_jumps_reference(f, g: BVFunction, grid) -> tuple[np.ndarray, np.ndarray]:
    """curve's ys and cumulative jump sums, read from the list of jumps."""
    jump_list = jumps_in_reference(g.step, g.interval.a, g.interval.b)
    jump_ys = np.asarray([p for p, _ in jump_list], dtype=float)
    ys = np.union1d(np.asarray(grid, dtype=float), jump_ys)
    at = np.searchsorted(ys, jump_ys)
    jumps = np.zeros(len(ys))
    if jump_list:
        jumps[at] = integrand_values(f, jump_ys) * np.asarray([w for _, w in jump_list])
    return ys, np.cumsum(jumps)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool((got.view(np.uint64) == want.view(np.uint64)).all())


def same_step(got: StepFunction, want: StepFunction) -> bool:
    return (same_bits(got.breakpoints, want.breakpoints)
            and same_bits(got.piece_values, want.piece_values)
            and same_bits(got.end_value, want.end_value))


def same_bv(got: BVFunction, want: BVFunction) -> bool:
    return same_step(got.step, want.step) and same_bits(got.linear.knots, want.linear.knots)


def sub_ranges(rng, g: StepFunction) -> list[tuple[float, float]]:
    """[a, b], ends on breakpoints, ends at b, c == d, and random ends."""
    a, b = g.interval.a, g.interval.b
    bp = list(g.breakpoints)
    out = [(a, b), (a, a), (b, b), (a, 0.5 * (a + b))]
    for _ in range(4):
        c, d = sorted(rng.uniform(a, b, size=2).tolist())
        out += [(c, d), (c, b), (c, c)]
    if bp:
        p, q = sorted(rng.choice(bp, size=2).tolist())
        out += [(p, q), (a, p), (p, b), (p, p), (q, b), (a, bp[-1]), (bp[0], bp[-1])]
    return out


def step_instances():
    """Seeded random_step, random_bv step parts and build_bricks sums."""
    rng = sampling.make_rng(20261018)
    out = []
    for i in range(150):
        interval = sampling.random_interval(rng)
        out.append(sampling.random_step(rng, interval, max_jumps=1 + i % 12))
    for _ in range(100):
        out.append(sampling.random_bv(rng, sampling.random_interval(rng)).step)
    for i in range(60):
        _, fam = power_sine_family(float(rng.uniform(0.2, 0.9)))
        beta = float(rng.uniform(1.1, 3.0))
        truncation = 1 + int(rng.integers(0, 80))
        # odd i end on the outermost crest, crest(1)
        interval = Interval(fam.accumulation_point, fam.crest(1)) if i % 2 else Interval(0.0, 1.0)
        out.append(build_bricks(fam, beta, truncation, interval=interval))
    return out


STEPS = step_instances()  # 310 integrators


def test_jumps_in_matches_loop_reference():
    rng = sampling.make_rng(1)
    checked = 0
    for g in STEPS:
        for c, d in sub_ranges(rng, g):
            got = g.jumps_in(c, d)
            want = jumps_in_reference(g, c, d)
            assert got.shape == (len(want), 2)
            assert same_bits(got, np.reshape(want, (len(want), 2)))
            assert not got.flags.writeable
            points, weights = got.T
            assert points.flags.c_contiguous and weights.flags.c_contiguous
            assert same_bits(g.total_variation(c, d), float(sum(abs(j) for _, j in want)))
            checked += 1
    assert checked > 3000


def test_jordan_decompose_matches_loop_reference():
    rng = sampling.make_rng(2)
    for i, step in enumerate(STEPS):
        interval = step.interval
        linear = sampling.random_piecewise_linear(rng, interval, max_knots=1 + i % 8)
        if i % 3 == 0:
            linear = PiecewiseLinear.constant(interval)
        g = BVFunction(step, linear)
        pair = jordan_decompose(g)
        pos, neg = jordan_reference(g)
        assert same_bv(pair.pos, pos)
        assert same_bv(pair.neg, neg)


def test_pl_times_step_matches_loop_reference():
    rng = sampling.make_rng(3)
    for i, g in enumerate(STEPS):
        f = sampling.random_piecewise_linear(rng, g.interval, max_knots=1 + i % 8)
        if i % 4 == 0:
            # knots on g's breakpoints, and a zero of f at one of them
            xs = sorted({g.interval.a, *g.breakpoints[:3], g.interval.b})
            ys = rng.uniform(-2.0, 2.0, size=len(xs))
            ys[len(xs) // 2] = 0.0
            f = PiecewiseLinear(tuple(zip(xs, ys.tolist())))
        assert same_bv(pl_times_step(f, g), pl_times_step_reference(f, g))


def test_jump_integrals_match_list_reference():
    rng = sampling.make_rng(4)
    for i, step in enumerate(STEPS):
        interval = step.interval
        f = sampling.random_piecewise_linear(rng, interval)
        ys = [interval.b, *step.breakpoints[:2],
              *rng.uniform(interval.a, interval.b, size=2).tolist()]
        for y in ys:
            if y > interval.a:
                assert same_bits(rs_jump_exact(f, step, y).value,
                                 rs_jump_exact_reference(f, step, y))
        g = BVFunction.from_step(step)
        grid = np.sort(rng.uniform(interval.a, interval.b, size=1 + i % 5))
        grid = np.unique(np.append(grid[grid > interval.a], interval.b))
        c = curve(f, g, grid)
        ys_ref, values_ref = curve_jumps_reference(f, g, grid)
        assert same_bits(c.ys, ys_ref)
        assert same_bits(c.values, values_ref)
