"""Representation-level checks: evaluation, limits, jumps, variation, Jordan."""

import math

import numpy as np
import pytest

from rscert.bv_core import (
    BVFunction,
    ConstructionError,
    DomainError,
    Interval,
    PiecewiseLinear,
    StepFunction,
    _sorted_union,
    jordan_decompose,
    sampled_total_variation,
    slack,
)
from rscert.counterexample import power_sine_family
from rscert import sampling

UNIT = Interval(0.0, 1.0)


def brick(lo, hi, height=1.0, interval=UNIT):
    return StepFunction.brick(interval, lo, hi, height)


class TestInterval:
    def test_rejects_empty_and_reversed(self):
        with pytest.raises(ConstructionError):
            Interval(1.0, 1.0)
        with pytest.raises(ConstructionError):
            Interval(2.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ConstructionError):
            Interval(0.0, float("inf"))


def canonical_step_reference(interval, breakpoints, piece_values, end_value):
    """StepFunction's canonical (breakpoints, piece_values), or the
    ConstructionError message, by the per-element loop it once ran."""
    bp = tuple(float(p) for p in breakpoints)
    pv = tuple(float(v) for v in piece_values)
    for name, values in (("piece value", pv + (end_value,)), ("breakpoint", bp)):
        for v in values:
            if not math.isfinite(v):
                return f"{name} must be finite, got {v!r}"
    if len(pv) != len(bp) + 1:
        return f"need one more piece value than breakpoints, got {len(pv)} vs {len(bp)}"
    a, b = interval.a, interval.b
    for p, q in zip(bp, bp[1:]):
        if not p < q:
            return f"breakpoints not strictly increasing at {p!r}"
    if bp and not (a < bp[0] and bp[-1] <= b):
        return f"breakpoints must lie in ({a}, {b}]"
    if bp and bp[-1] == b:
        bp, pv = bp[:-1], pv[:-1]
    keep_bp, keep_pv = [], [pv[0]]
    for p, v in zip(bp, pv[1:]):
        if v != keep_pv[-1]:
            keep_bp.append(p)
            keep_pv.append(v)
    return tuple(keep_bp), tuple(keep_pv)


def random_step_arguments(rng):
    """Breakpoints and piece values with runs of equal values (0.0 beside
    -0.0 among them), often a breakpoint at b, sometimes one fault."""
    m = int(rng.integers(0, 12))
    bp = np.sort(rng.choice(np.linspace(0.05, 1.0, 20), size=m, replace=False)).tolist()
    pv = rng.choice([0.0, -0.0, 1.0, 2.5, -1.0], size=m + 1).tolist()
    end = float(rng.choice([0.0, -0.0, 3.0]))
    fault = int(rng.integers(0, 12))
    if fault == 0 and m:
        bp[int(rng.integers(0, m))] = float(rng.choice([np.nan, np.inf, -np.inf]))
    elif fault == 1:
        pv[int(rng.integers(0, m + 1))] = float(rng.choice([np.nan, np.inf]))
    elif fault == 2 and m > 1:
        i = int(rng.integers(0, m - 1))
        bp[i + 1] = bp[i] if rng.random() < 0.5 else bp[i] - 0.01
    elif fault == 3 and m:
        bp[int(rng.choice([0, m - 1]))] = float(rng.choice([0.0, -0.5, 1.5]))
    elif fault == 4:
        pv = pv[:-1] if rng.random() < 0.5 else pv + [1.0]
    elif fault == 5:
        end = float("nan")
    return bp, pv, end


class TestStepFunction:
    def test_canonical_form_matches_loop_reference(self):
        rng = np.random.default_rng(20241018)
        outcomes = set()
        for _ in range(600):
            bp, pv, end = random_step_arguments(rng)
            expected = canonical_step_reference(UNIT, bp, pv, end)
            if isinstance(expected, str):
                with pytest.raises(ConstructionError) as err:
                    StepFunction(UNIT, tuple(bp), tuple(pv), end)
                assert str(err.value) == expected
                outcomes.add(expected.split(" ")[0])
                continue
            g = StepFunction(UNIT, tuple(bp), tuple(pv), end)
            # repr tells 0.0 from -0.0: the first value of each run is kept
            assert list(map(repr, g.breakpoints.tolist())) == list(map(repr, expected[0]))
            assert list(map(repr, g.piece_values.tolist())) == list(map(repr, expected[1]))
            assert g.breakpoints.dtype == g.piece_values.dtype == np.float64
            outcomes.add("built at b" if bp and bp[-1] == 1.0 else "built")
        assert outcomes >= {"built", "built at b", "piece", "breakpoint", "breakpoints", "need"}

    def test_right_continuity_at_brick_edge(self):
        g = brick(0.5, 1.0)
        assert g.evaluate(0.5) == 1.0

    def test_end_value_of_half_open_brick(self):
        g = brick(0.5, 1.0)
        assert g.evaluate(1.0) == 0.0

    def test_one_sided_limits(self):
        g = brick(0.5, 1.0)
        assert g.left_limit(0.5) == 0.0
        assert g.left_limit(1.0) == 1.0
        assert g.right_limit(0.5) == 1.0

    def test_limit_domain_errors(self):
        g = brick(0.5, 1.0)
        with pytest.raises(DomainError):
            g.left_limit(0.0)
        with pytest.raises(DomainError):
            g.right_limit(1.0)
        with pytest.raises(DomainError):
            g.evaluate(1.5)

    def test_canonicalization_merges_equal_pieces(self):
        g = StepFunction(UNIT, (0.25, 0.5, 0.75), (0.0, 0.0, 1.0, 1.0), 0.0)
        assert list(map(repr, g.breakpoints.tolist())) == ["0.5"]
        assert list(map(repr, g.piece_values.tolist())) == ["0.0", "1.0"]

    def test_breakpoint_at_right_end_is_folded(self):
        g = StepFunction(UNIT, (0.5, 1.0), (0.0, 1.0, 5.0), 0.0)
        assert list(map(repr, g.breakpoints.tolist())) == ["0.5"]
        assert g.evaluate(1.0) == 0.0
        assert g.left_limit(1.0) == 1.0

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ConstructionError):
            StepFunction(UNIT, (0.5, 0.25), (0.0, 1.0, 2.0), 0.0)

    def test_rejects_breakpoint_outside(self):
        with pytest.raises(ConstructionError):
            StepFunction(UNIT, (0.0,), (0.0, 1.0), 0.0)

    def test_array_evaluation_matches_scalar(self):
        g = StepFunction(UNIT, (0.25, 0.7), (1.0, -2.0, 3.0), 4.0)
        xs = np.asarray([0.0, 0.25, 0.5, 0.7, 0.9, 1.0])
        np.testing.assert_array_equal(
            g.evaluate_array(xs), [g.evaluate(x) for x in xs]
        )

    def test_addition_merges_breakpoints(self):
        g = brick(0.2, 0.6) + brick(0.4, 0.8, 2.0)
        assert g.evaluate(0.5) == 3.0
        assert g.evaluate(0.1) == 0.0
        assert g.evaluate(0.7) == 2.0


def pl_reference(knots):
    """PiecewiseLinear's stored knots as a list of pairs, or its
    ConstructionError message, by the per-knot loops it once ran."""
    kn = [(float(x), float(y)) for x, y in knots]
    if len(kn) < 2:
        return "piecewise-linear function needs at least two knots"
    for x, y in kn:
        for v in (x, y):
            if not math.isfinite(v):
                return f"knot must be finite, got {v!r}"
    for (x0, _), (x1, _) in zip(kn, kn[1:]):
        if not x0 < x1:
            return f"knot abscissae not strictly increasing at {x1!r}"
    return [list(k) for k in kn]


class TestPiecewiseLinear:
    def test_construction_matches_loop_reference(self):
        rng = np.random.default_rng(77)
        outcomes = set()
        for _ in range(400):
            k = int(rng.integers(0, 8))
            knots = np.column_stack((np.sort(rng.uniform(-1.0, 1.0, k)), rng.normal(size=k)))
            for _ in range(int(rng.integers(0, 3))):
                if k:
                    i, j = int(rng.integers(0, k)), int(rng.integers(0, 2))
                    knots[i, j] = rng.choice([np.nan, np.inf, -np.inf, knots[i - 1, 0]])
            expected = pl_reference(knots.tolist())
            if isinstance(expected, str):
                with pytest.raises(ConstructionError) as err:
                    PiecewiseLinear(knots.tolist())
                assert str(err.value) == expected
                outcomes.add(" ".join(expected.split(" ")[:2]))
            else:
                assert PiecewiseLinear(knots.tolist()).knots.tolist() == expected
                outcomes.add("built")
        assert outcomes == {"built", "piecewise-linear function", "knot must", "knot abscissae"}

    def test_interpolation(self):
        f = PiecewiseLinear(((0.0, 0.0), (1.0, 2.0)))
        assert f.evaluate(0.25) == pytest.approx(0.5)
        # the array form runs the scalar arithmetic: equal bit for bit
        rng = sampling.make_rng(4242)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            g = sampling.random_piecewise_linear(rng, interval)
            xs = np.concatenate([g.xs, rng.uniform(interval.a, interval.b, 40)])
            assert g.evaluate_array(xs).tolist() == [g.evaluate(x) for x in xs]

    def test_continuity_of_limits(self):
        f = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
        for x in (0.25, 0.5, 0.75):
            assert f.left_limit(x) == pytest.approx(f.evaluate(x))
            assert f.right_limit(x) == pytest.approx(f.evaluate(x))

    def test_total_variation_is_knot_increment_sum(self):
        f = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.25)))
        assert f.total_variation(0.0, 1.0) == pytest.approx(1.75)

    def test_variation_ignores_a_constant_shift(self):
        # differences of values near 2^40 keep only a few fractional bits
        for k in range(41):
            s = 2.0**k
            f = PiecewiseLinear(((0.0, s), (0.4, s + 1.0), (1.0, s + 0.25)))
            assert f.total_variation(0.13, 0.73) == 1.0875, k

    def test_extremes_on_a_subinterval(self):
        # the exact range the positive half reads: the ends and the knots between
        f = PiecewiseLinear(((0.0, 1.0), (0.5, 3.0), (1.0, 0.5)))
        assert f.min_value(0.25, 0.75) == f.evaluate(0.75) == 1.75
        assert f.max_value(0.25, 0.75) == 3.0

    def test_vee_shape_variation(self):
        f = PiecewiseLinear(((0.0, 0.5), (0.5, 0.0), (1.0, 0.5)))
        assert f.total_variation(0.0, 1.0) == pytest.approx(1.0)

    def test_rejects_single_knot_and_duplicates(self):
        with pytest.raises(ConstructionError):
            PiecewiseLinear(((0.0, 0.0),))
        with pytest.raises(ConstructionError):
            PiecewiseLinear(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))


STEP_PARTS = ((0.25, 0.5, 0.75), (0.0, 1.0, -2.0, 3.0), 0.5)
KNOTS = ((0.0, 1.0), (0.3, -0.5), (1.0, 2.0))


class TestStoredColumns:
    """Both parts of a BVFunction are stored once, as read-only float64
    views of an array the function owns."""

    @staticmethod
    def parts():
        g = StepFunction(UNIT, *STEP_PARTS)
        f = PiecewiseLinear(KNOTS)
        return g, f, (g.breakpoints, g.piece_values, f.knots, f.xs, f.ys)

    def test_parts_are_read_only_float64(self):
        for part in self.parts()[2]:
            assert part.dtype == np.float64
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 9.0

    def test_parts_refuse_to_become_writeable(self):
        empty = StepFunction.constant(UNIT, 2.0)
        for part in (*self.parts()[2], empty.breakpoints, empty.piece_values):
            with pytest.raises(ValueError):
                part.flags.writeable = True

    def test_tuples_lists_and_arrays_build_equal_functions(self):
        bp, pv, end = STEP_PARTS
        steps = [StepFunction(UNIT, conv(bp), conv(pv), end)
                 for conv in (tuple, list, np.array, lambda v: np.array(v, dtype=np.float32))]
        assert steps[0] == steps[1] == steps[2]
        assert steps[3].breakpoints.dtype == np.float64
        lists = [list(k) for k in KNOTS]
        lines = [PiecewiseLinear(k) for k in (KNOTS, lists, np.array(KNOTS),
                                              np.asfortranarray(KNOTS))]
        assert lines[0] == lines[1] == lines[2] == lines[3]

    def test_writing_to_the_arguments_changes_nothing(self):
        bp, pv, end = (np.array(v, dtype=float) for v in STEP_PARTS)
        knots = np.array(KNOTS)
        columns = np.array(KNOTS).T.copy()  # a (k, 2) view laid out by column
        g = StepFunction(UNIT, bp, pv, end)
        f, f_cols = PiecewiseLinear(knots), PiecewiseLinear(columns.T)
        bp[0], pv[:] = 0.1, 7.0
        knots[1] = (0.9, 9.0)
        columns[1, 1] = 9.0
        expected = self.parts()
        assert g == expected[0]
        assert f == f_cols == expected[1]

    def test_xs_and_ys_are_contiguous_views_of_knots(self):
        f = PiecewiseLinear(KNOTS)
        assert f.knots.shape == (3, 2)
        for column, values in ((f.xs, [0.0, 0.3, 1.0]), (f.ys, [1.0, -0.5, 2.0])):
            assert np.shares_memory(column, f.knots)
            assert column.flags.c_contiguous
            assert column.tolist() == values

    def test_scalar_reads_are_python_floats(self):
        g, f, _ = self.parts()
        for h in (g, f, BVFunction(g, f)):
            reads = [h.evaluate(0.4), h.evaluate(0.5), h.evaluate(1.0), h.left_limit(0.5),
                     h.left_limit(1.0), h.right_limit(0.0), h.right_limit(0.75),
                     h.total_variation(), h.total_variation(0.2, 0.6)]
            assert all(type(v) is float for v in reads), h
        reads = [f.min_value(), f.max_value(0.1, 0.2), f.modulus_at(0.01)]
        assert all(type(v) is float for v in reads)

    def test_equality_fails_when_any_one_element_differs(self):
        g, f, _ = self.parts()
        bp, pv, end = list(STEP_PARTS[0]), list(STEP_PARTS[1]), STEP_PARTS[2]

        def bump(x):
            return float(np.nextafter(x, np.inf))

        for i in range(len(bp)):
            assert g != StepFunction(UNIT, bp[:i] + [bump(bp[i])] + bp[i + 1:], pv, end)
        for i in range(len(pv)):
            assert g != StepFunction(UNIT, bp, pv[:i] + [bump(pv[i])] + pv[i + 1:], end)
        assert g != StepFunction(UNIT, bp, pv, bump(end))
        assert g != StepFunction(Interval(0.0, bump(1.0)), bp, pv, end)
        for i in range(len(KNOTS)):
            for j in range(2):
                knots = np.array(KNOTS)
                knots[i, j] = bump(knots[i, j])
                assert f != PiecewiseLinear(knots)
        assert g == StepFunction(UNIT, bp, pv, end) and f == PiecewiseLinear(KNOTS)
        for h in (g, f, BVFunction(g, f)):
            with pytest.raises(TypeError):
                hash(h)


class TestStructuralProfile:
    def test_matches_scalar_reads_bit_for_bit(self):
        rng = sampling.make_rng(5151)
        for k in range(300):
            interval = sampling.random_interval(rng)
            if k % 3 == 0:
                g = sampling.random_bv(rng, interval)
            elif k % 3 == 1:
                g = BVFunction.from_step(sampling.random_step(rng, interval))
            else:
                g = BVFunction.from_linear(sampling.random_piecewise_linear(rng, interval))
            prof = g.profile
            assert prof.points.tolist() == list(g.structural_points())
            for i, x in enumerate(prof.points.tolist()):
                assert prof.right[i] == g.evaluate(x)
                if x > interval.a:
                    assert prof.left[i] == g.left_limit(x)
                if x < interval.b:
                    assert prof.right[i] == g.right_limit(x)
            # the missing one-sided value at either end is the value itself
            assert prof.left[0] == g.evaluate(interval.a)
            assert prof.right[-1] == g.evaluate(interval.b)

    def test_points_are_the_sorted_set_bit_for_bit(self):
        def reference(g):
            pts = {g.interval.a, g.interval.b}
            pts.update(g.step.breakpoints.tolist())
            pts.update(g.linear.xs.tolist())
            return np.array(sorted(pts))

        rng = sampling.make_rng(5454)
        gs = [sampling.random_bv(rng, sampling.random_interval(rng)) for _ in range(300)]
        # a knot on a breakpoint is one structural point
        gs.append(BVFunction(brick(0.3, 0.6),
                             PiecewiseLinear(((0.0, 0.0), (0.3, 1.0), (1.0, 0.5)))))
        for g in gs:
            assert g.profile.points.tobytes() == reference(g).tobytes()
            assert g.structural_points() == tuple(reference(g).tolist())
        assert gs[-1].structural_points() == (0.0, 0.3, 0.6, 1.0)

    def test_one_sided_matches_scalar_limits_anywhere(self):
        rng = sampling.make_rng(5252)
        for _ in range(200):
            interval = sampling.random_interval(rng)
            g = sampling.random_bv(rng, interval)
            xs = _sorted_union(g.profile.points,
                               rng.uniform(interval.a, interval.b, size=20))
            left, right = g.one_sided(xs)
            assert left.tolist() == [g.left_limit(x) if x > interval.a else g.evaluate(x)
                                     for x in xs.tolist()]
            assert right.tolist() == [g.right_limit(x) if x < interval.b else g.evaluate(x)
                                      for x in xs.tolist()]

    def test_sorted_union_matches_union1d(self):
        rng = sampling.make_rng(5353)
        for _ in range(100):
            parts = [rng.integers(0, 8, size=rng.integers(0, 6)) / 4.0 for _ in range(3)]
            assert _sorted_union(*parts).tolist() == np.union1d(
                np.concatenate(parts), []).tolist()
        assert _sorted_union(np.array([]), np.array([])).size == 0

    def test_read_once_and_read_only(self):
        g = BVFunction.from_step(brick(0.3, 0.6))
        assert g.profile is g.profile
        assert g.profile.right.tolist() == [0.0, 1.0, 0.0, 0.0]
        assert g.profile.left.tolist() == [0.0, 0.0, 1.0, 0.0]
        with pytest.raises(ValueError):
            g.profile.right[0] = 1.0


class TestJumps:
    def test_brick_jumps(self):
        g = brick(0.3, 0.6)
        assert g.jumps_in(0.0, 1.0).tolist() == [[0.3, 1.0], [0.6, -1.0]]

    def test_pl_has_no_jumps(self):
        f = BVFunction.from_linear(PiecewiseLinear(((0.0, 0.0), (1.0, 2.0))))
        assert f.jumps_in(0.0, 1.0).tolist() == []

    def test_two_brick_sum_jump_listing(self):
        _, fam = power_sine_family(0.5)
        from rscert.counterexample import build_bricks

        h = build_bricks(fam, 1.0, 2, interval=UNIT)
        expected = [
            (fam.trough(2), 0.5),
            (fam.crest(2), -0.5),
            (fam.trough(1), 1.0),
            (fam.crest(1), -1.0),
        ]
        got = h.jumps_in(0.0, 1.0)
        assert [p for p, _ in got] == sorted(p for p, _ in expected)
        for (p, w), (q, v) in zip(got, expected):
            assert p == pytest.approx(q)
            assert w == pytest.approx(v)

    def test_end_jump_reported_one_sided(self):
        g = brick(0.5, 1.0)
        assert g.jumps_in(0.7, 1.0).tolist() == [[1.0, -1.0]]


class TestTotalVariation:
    def test_vee_pl(self):
        f = PiecewiseLinear(((0.0, 0.5), (0.5, 0.0), (1.0, 0.5)))
        assert f.total_variation(0.0, 1.0) == pytest.approx(1.0)

    def test_constant_region_of_brick(self):
        g = brick(0.3, 0.6)
        assert g.total_variation(0.4, 0.5) == 0.0

    def test_brick_full_interval(self):
        g = brick(0.3, 0.6)
        assert g.total_variation(0.0, 1.0) == pytest.approx(2.0)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(DomainError):
            brick(0.3, 0.6).total_variation(0.7, 0.2)

    def test_additivity_random_instances(self):
        rng = sampling.make_rng(1001)
        for _ in range(100):
            interval = sampling.random_interval(rng)
            g = sampling.random_bv(rng, interval)
            full = g.total_variation(interval.a, interval.b)
            for _ in range(20):
                c = sampling.random_upper_limit(rng, interval)
                split = g.total_variation(interval.a, c) + g.total_variation(c, interval.b)
                assert abs(split - full) <= slack(full)

    def test_zero_tolerance_shows_why_slack_exists(self):
        # the additivity identity holds only up to summation-order rounding;
        # at tolerance 0 a sizable fraction of splits differ in the last ulp,
        # which is exactly what the scaled slack absorbs
        rng = sampling.make_rng(2024)
        mismatches = total = 0
        for _ in range(200):
            interval = sampling.random_interval(rng)
            g = sampling.random_bv(rng, interval)
            full = g.total_variation(interval.a, interval.b)
            for _ in range(10):
                c = sampling.random_upper_limit(rng, interval)
                total += 1
                split = g.total_variation(interval.a, c) + g.total_variation(c, interval.b)
                if split != full:
                    mismatches += 1
                assert abs(split - full) <= slack(full)
        assert mismatches > 0

    def test_variation_of_sum_splits_exactly(self):
        rng = sampling.make_rng(7)
        for _ in range(25):
            interval = sampling.random_interval(rng)
            g = sampling.random_bv(rng, interval)
            v = g.total_variation(interval.a, interval.b)
            parts = g.step.total_variation() + g.linear.total_variation()
            assert v == pytest.approx(parts)

    def test_running_variation_continuous_for_pl(self):
        f = PiecewiseLinear(((0.0, 0.0), (0.3, 2.0), (1.0, -1.0)))
        steepest = max(abs(s) for s in f.slopes())
        rng = sampling.make_rng(13)
        for _ in range(50):
            x = float(rng.uniform(0.0, 1.0 - 1e-3))
            delta = float(rng.uniform(1e-6, 1e-3))
            gap = f.total_variation(0.0, x + delta) - f.total_variation(0.0, x)
            assert 0.0 <= gap <= steepest * delta + slack(gap)


class TestJordan:
    def test_single_brick(self):
        pair = jordan_decompose(brick(0.3, 0.6))
        assert pair.pos.evaluate(0.3) == 1.0
        assert pair.neg.evaluate(0.5) == 0.0
        assert pair.neg.evaluate(0.6) == 1.0
        assert pair.pos.evaluate(1.0) + pair.neg.evaluate(1.0) == pytest.approx(2.0)

    def test_nondecreasing_step(self):
        g = StepFunction(UNIT, (0.2, 0.7), (0.0, 1.0, 1.5), 1.5)
        pair = jordan_decompose(g)
        assert pair.neg.evaluate(1.0) == 0.0
        for x in (0.0, 0.2, 0.5, 0.7, 1.0):
            assert pair.pos.evaluate(x) == pytest.approx(g.evaluate(x) - g.evaluate(0.0))

    def test_pl_slope_split(self):
        f = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.25)))
        pair = jordan_decompose(f)
        assert pair.pos.evaluate(0.5) == pytest.approx(1.0)
        assert pair.pos.evaluate(1.0) == pytest.approx(1.0)
        assert pair.neg.evaluate(0.5) == pytest.approx(0.0)
        assert pair.neg.evaluate(1.0) == pytest.approx(0.75)

    def test_invariants_on_random_instances(self):
        rng = sampling.make_rng(42)
        for _ in range(100):
            interval = sampling.random_interval(rng)
            g = sampling.random_bv(rng, interval)
            pair = jordan_decompose(g)
            pts = list(g.structural_points())
            mids = [0.5 * (p + q) for p, q in zip(pts, pts[1:])]

            assert pair.pos.evaluate(interval.a) == 0.0
            assert pair.neg.evaluate(interval.a) == 0.0
            # parts are non-decreasing: all jumps and slopes are non-negative
            for part in (pair.pos, pair.neg):
                assert all(w >= 0.0 for _, w in part.jumps_in(interval.a, interval.b))
                assert all(s >= 0.0 for s in part.linear.slopes())
            base = g.evaluate(interval.a)
            for x in pts + mids:
                recon = pair.pos.evaluate(x) - pair.neg.evaluate(x)
                assert abs(recon - (g.evaluate(x) - base)) <= slack(recon)
            v = g.total_variation(interval.a, interval.b)
            minimal = pair.pos.evaluate(interval.b) + pair.neg.evaluate(interval.b)
            assert abs(minimal - v) <= slack(v)

    def test_nonnegativity_iff_pos_dominates(self):
        rng = sampling.make_rng(99)
        seen_nonneg = seen_signed = 0
        for _ in range(200):
            interval = sampling.random_interval(rng)
            if rng.random() < 0.5:
                g = BVFunction.from_step(
                    sampling.random_nonnegative_step(rng, interval)
                )
            else:
                g = sampling.random_bv(rng, interval)
            pair = jordan_decompose(g)
            pts = list(g.structural_points())
            mids = [0.5 * (p + q) for p, q in zip(pts, pts[1:])]
            base = g.evaluate(interval.a)
            nonneg = all(g.evaluate(x) >= 0.0 for x in pts + mids)
            dominated = all(
                pair.pos.evaluate(x) >= pair.neg.evaluate(x) - base - slack(base)
                for x in pts + mids
            )
            if nonneg:
                seen_nonneg += 1
                assert dominated
            else:
                seen_signed += 1
        assert seen_nonneg > 10 and seen_signed > 10


class TestSampledTotalVariation:
    def test_identity_function(self):
        f = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))
        for size in (2, 7, 100):
            assert sampled_total_variation(f, 0.0, 1.0, size) == pytest.approx(1.0)

    def test_constant_function(self):
        f = PiecewiseLinear.constant(UNIT, 3.0)
        assert sampled_total_variation(f, 0.0, 1.0, 64) == 0.0

    def test_monotone_under_dyadic_refinement(self):
        f, _ = power_sine_family(0.5)
        values = [sampled_total_variation(f, 0.0, 0.1, 2**k) for k in range(4, 12)]
        assert all(v1 >= v0 for v0, v1 in zip(values, values[1:]))

    def test_pl_exact_once_knots_resolved(self):
        f = PiecewiseLinear(((0.0, 0.0), (0.25, 1.0), (1.0, 0.5)))
        # knots at quarters: a partition with multiples-of-1/4 points nails it
        assert sampled_total_variation(f, 0.0, 1.0, 8) == pytest.approx(
            f.total_variation()
        )

    def test_oscillating_integrand_dyadic_growth(self):
        f, _ = power_sine_family(0.5)
        coarse = sampled_total_variation(f, 0.0, 0.1, 2**10)
        fine = sampled_total_variation(f, 0.0, 0.1, 2**20)
        assert fine > coarse + 1.0

    def test_partition_size_validation(self):
        f = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(DomainError):
            sampled_total_variation(f, 0.0, 1.0, 1)


class TestBVFunction:
    def test_parts_must_share_interval(self):
        with pytest.raises(ConstructionError):
            BVFunction(
                StepFunction.constant(UNIT),
                PiecewiseLinear(((0.0, 0.0), (2.0, 1.0))),
            )

    def test_sum_evaluation(self):
        g = BVFunction(brick(0.5, 1.0), PiecewiseLinear(((0.0, 1.0), (1.0, 2.0))))
        assert g.evaluate(0.75) == pytest.approx(1.0 + 1.75)
        assert g.evaluate(1.0) == pytest.approx(0.0 + 2.0)

    def test_structural_points_sorted_unique(self):
        g = BVFunction(brick(0.5, 1.0), PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0))))
        assert g.structural_points() == (0.0, 0.5, 1.0)

    def test_pl_form_without_a_jump(self):
        lin = PiecewiseLinear(((0.0, 1.0), (0.4, 0.25), (1.0, 2.0)))
        level = BVFunction(StepFunction.constant(UNIT, 0.5), lin)
        assert level.pl_form() == lin.shifted(0.5)
        assert BVFunction.from_linear(lin).pl_form() == lin
        assert BVFunction(brick(0.5, 1.0), lin).pl_form() is None
        # a jump at b alone (the end value) leaves no continuous form either
        assert BVFunction(StepFunction(UNIT, (), (0.0,), 1.0), lin).pl_form() is None



@pytest.mark.parametrize("g", [brick(0.5, 1.0), PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))),
                               BVFunction(brick(0.5, 1.0), PiecewiseLinear(((0.0, 1.0), (1.0, 2.0))))],
                         ids=["step", "pl", "bv"])
@pytest.mark.parametrize("points", [[0.2, math.nan], [math.nan], [math.nan, 0.2]])
def test_evaluate_array_refuses_nan_as_evaluate_does(g, points):
    with pytest.raises(DomainError):
        g.evaluate(math.nan)
    with pytest.raises(DomainError):
        g.evaluate_array(np.array(points))
