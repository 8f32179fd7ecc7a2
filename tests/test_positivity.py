"""Positivity detectors, the witness search, measures and the Groenwall check."""

import numpy as np
import pytest

from rscert.bv_core import (
    BVFunction,
    Interval,
    PiecewiseLinear,
    StepFunction,
    slack,
    total_variation,
)
from rscert.funcspec import IntegrandSpec, Lipschitz, Sampled, parse
from rscert.stieltjes import rs_bv, rs_jump_exact
from rscert.counterexample import build_counterexample, power_sine_family, POWER_SINE_UPPER_BOUND
from rscert.positivity import (
    PreconditionError,
    detect_case1,
    detect_case2,
    find_positive_y,
    gdf_bound_check,
    gronwall_verify,
    pl_times_step,
    positive_interval,
    support_edge,
    variation_measure,
    weighted_variation_measure,
)
from rscert import sampling

UNIT = Interval(0.0, 1.0)


def const_pl(value, interval=UNIT):
    return PiecewiseLinear.constant(interval, value)


class TestVariationMeasure:
    def test_identity_density(self):
        nu = variation_measure(PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))))
        assert nu.mass(0.0, 1.0) == pytest.approx(1.0)
        assert nu.mass(0.2, 0.7) == pytest.approx(0.5)

    def test_vee_density(self):
        f = PiecewiseLinear(((0.0, 0.5), (0.5, 0.0), (1.0, 0.5)))
        nu = variation_measure(f)
        assert nu.mass(0.25, 0.75) == pytest.approx(0.5)

    def test_constant_gives_zero_measure(self):
        nu = variation_measure(const_pl(7.0))
        assert nu.mass(0.0, 1.0) == 0.0

    def test_matches_total_variation_on_random_instances(self):
        rng = sampling.make_rng(31)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval)
            nu = variation_measure(f)
            c = sampling.random_upper_limit(rng, interval)
            d = sampling.random_upper_limit(rng, interval)
            c, d = min(c, d), max(c, d)
            # continuous f: variation on [c, d] equals the measure of [c, d)
            assert nu.mass(c, d) == pytest.approx(
                total_variation(f, c, d), abs=slack(nu.mass(c, d))
            )


class TestAtomSupport:
    def test_atoms_counted_half_open(self):
        from rscert.positivity import VariationMeasure

        nu = VariationMeasure(UNIT, atoms=((0.25, 2.0), (0.75, 1.0)), density_pieces=())
        assert nu.mass(0.0, 0.25) == 0.0
        assert nu.mass(0.25, 0.75) == pytest.approx(2.0)  # left atom in, right out
        assert nu.mass(0.0, 1.0) == pytest.approx(3.0)

    def test_weighted_integration_over_atoms(self):
        from rscert.positivity import VariationMeasure, WeightedMeasure

        f = PiecewiseLinear(((0.0, 2.0), (1.0, 4.0)))
        nu = VariationMeasure(UNIT, atoms=((0.5, 3.0),), density_pieces=())
        mu = WeightedMeasure(nu, f)
        u = BVFunction.from_linear(PiecewiseLinear(((0.0, 1.0), (1.0, 1.0))))
        # single atom: mass * u(p) / f(p) = 3 * 1 / 3
        assert mu.integrate(u, 0.0, 1.0) == pytest.approx(1.0)
        assert mu.integrate(u, 0.0, 0.5) == 0.0  # half-open: atom at 0.5 excluded


class TestWeightedMeasure:
    def test_requires_positive_denominator(self):
        with pytest.raises(PreconditionError):
            weighted_variation_measure(PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))))

    def test_increment_bound_holds_exactly(self):
        # |f(d) - f(c)| <= integral of f over [c, d) against d(var f)/f
        rng = sampling.make_rng(67)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            mu = weighted_variation_measure(f)
            c = sampling.random_upper_limit(rng, interval)
            d = sampling.random_upper_limit(rng, interval)
            c, d = min(c, d), max(c, d)
            lhs = abs(f.evaluate(d) - f.evaluate(c))
            rhs = mu.integrate(BVFunction.from_linear(f), c, d)
            assert lhs <= rhs + slack(lhs, rhs)

    def test_closed_form_against_quadrature(self):
        f = PiecewiseLinear(((0.0, 1.0), (0.4, 3.0), (1.0, 0.5)))
        u = BVFunction.from_linear(PiecewiseLinear(((0.0, 2.0), (1.0, 4.0))))
        mu = weighted_variation_measure(f)
        got = mu.integrate(u, 0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 2_000_001)
        mids = 0.5 * (xs[:-1] + xs[1:])
        dens = np.where(mids < 0.4, 5.0, 2.5 / 0.6)  # |slope| of f
        vals = u.evaluate_array(mids) * dens / f.evaluate_array(mids)
        numeric = float(vals.sum() * (xs[1] - xs[0]))
        assert got == pytest.approx(numeric, rel=1e-6)


class TestProductRepresentation:
    def test_product_matches_pointwise(self):
        rng = sampling.make_rng(88)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            g = sampling.random_step(rng, interval)
            u = pl_times_step(f, g)
            grid = np.linspace(interval.a, interval.b, 101)
            xs = np.unique(np.concatenate([grid, np.asarray(u.structural_points())]))
            np.testing.assert_allclose(
                u.evaluate_array(xs),
                f.evaluate_array(xs) * g.evaluate_array(xs),
                atol=1e-10,
            )

    def test_product_keeps_one_sided_limits(self):
        f = PiecewiseLinear(((0.0, 1.0), (1.0, 3.0)))
        g = StepFunction(UNIT, (0.5,), (2.0, 5.0), 5.0)
        u = pl_times_step(f, g)
        assert u.left_limit(0.5) == pytest.approx(f.evaluate(0.5) * 2.0)
        assert u.evaluate(0.5) == pytest.approx(f.evaluate(0.5) * 5.0)
        assert u.evaluate(1.0) == pytest.approx(3.0 * 5.0)


class TestSupportEdge:
    def test_brick_edge(self):
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.3, 0.6))
        assert support_edge(g) == pytest.approx(0.3)

    def test_ramp_crossing(self):
        g = BVFunction.from_linear(PiecewiseLinear(((0.0, -1.0), (1.0, 1.0))))
        assert support_edge(g) == pytest.approx(0.5)

    def test_never_positive(self):
        g = BVFunction.from_linear(const_pl(0.0))
        assert support_edge(g) is None


class TestDetectCase1:
    def test_sustained_jump_yields_witness(self):
        g = StepFunction(UNIT, (0.3,), (0.0, 1.0), 1.0)  # jumps to 1 and stays
        f = IntegrandSpec(parse("2"), UNIT, Lipschitz(0.0))
        w = detect_case1(g, f)
        assert w is not None
        assert 0.3 < w.y < 1.0
        assert w.lower_bound >= 2.0 - 1e-12
        assert w.method == "case1"

    def test_continuous_ramp_gives_nothing(self):
        g = BVFunction.from_linear(PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))))
        f = const_pl(2.0)
        assert detect_case1(g, f) is None

    def test_truncated_counterexample_gives_nothing(self):
        f, fam = power_sine_family(0.5)
        g, _, _ = build_counterexample(f, fam, 1.5, 200, f_sup=POWER_SINE_UPPER_BOUND)
        # the integrand carries only a heuristic modulus: no certified bound
        assert detect_case1(g, f) is None

    def test_witness_respects_integral(self):
        rng = sampling.make_rng(3131)
        hits = 0
        for _ in range(100):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            w = detect_case1(g, f)
            if w is None:
                continue
            hits += 1
            r = rs_bv(f, g, w.y)
            assert r.value - r.error_bound >= w.lower_bound - slack(w.lower_bound)
        assert hits > 30


class TestDetectCase2:
    def test_nondecreasing_step(self):
        g = StepFunction(UNIT, (0.25, 0.5), (0.0, 0.1, 0.3), 0.3)
        f = IntegrandSpec(parse("2"), UNIT, Lipschitz(0.0))
        w = detect_case2(f, g, 0.5)
        assert w is not None
        assert w.lower_bound >= 0.3 * 2.0 - 1e-12
        assert w.method == "case2"

    def test_down_jump_blocks(self):
        g = StepFunction(UNIT, (0.25, 0.5), (0.0, 0.4, 0.3), 0.3)
        f = const_pl(1.0)
        assert detect_case2(f, g, 0.6) is None

    def test_zero_so_far_blocks(self):
        g = StepFunction.brick(UNIT, 0.5, 1.0)
        f = const_pl(1.0)
        assert detect_case2(f, g, 0.4) is None


class TestGdfBound:
    def test_constant_g_on_increasing_f(self):
        f = PiecewiseLinear(((0.0, 1.0), (1.0, 2.0)))
        g = BVFunction.from_step(StepFunction(UNIT, (), (0.5,), 0.5))
        lhs, rhs = gdf_bound_check(f, g, 1.0)
        assert lhs == pytest.approx(0.5 * 1.0)
        assert rhs == pytest.approx(0.5 * 1.0)
        assert lhs <= rhs + 1e-12

    def test_monotone_f_no_cancellation(self):
        rng = sampling.make_rng(515)
        from rscert.bv_core import jordan_decompose

        for _ in range(30):
            interval = sampling.random_interval(rng)
            f_raw = sampling.random_positive_pl(rng, interval)
            rise = jordan_decompose(f_raw).pos.linear.shifted(0.5)  # increasing, positive
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            y = sampling.random_upper_limit(rng, interval)
            lhs, rhs = gdf_bound_check(rise, g, y)
            assert lhs == pytest.approx(rhs, abs=slack(lhs, rhs))

    def test_property_run(self):
        rng = sampling.make_rng(626)
        for _ in range(200):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            y = sampling.random_upper_limit(rng, interval)
            lhs, rhs = gdf_bound_check(f, g, y)
            assert lhs <= rhs + slack(lhs, rhs)

    def test_sign_precondition(self):
        f = PiecewiseLinear(((0.0, 1.0), (1.0, 2.0)))
        g = BVFunction.from_step(StepFunction(UNIT, (0.5,), (0.0, -1.0), -1.0))
        with pytest.raises(PreconditionError):
            gdf_bound_check(f, g, 1.0)

    def test_positivity_precondition(self):
        f = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        with pytest.raises(PreconditionError):
            gdf_bound_check(f, g, 1.0)


class TestGronwall:
    def test_zero_function_passes(self):
        f = const_pl(1.0)
        mu = weighted_variation_measure(f)
        verdict = gronwall_verify(BVFunction.zero(UNIT), mu, strictness=1e-9)
        assert verdict.hypothesis_holds and verdict.conclusion_holds

    def test_positive_bump_violates_hypothesis(self):
        f = const_pl(1.0)  # zero variation: mu == 0
        mu = weighted_variation_measure(f)
        u = BVFunction.from_step(StepFunction(UNIT, (0.9,), (0.0, 1.0), 1.0))
        verdict = gronwall_verify(u, mu, strictness=1e-9)
        assert not verdict.hypothesis_holds
        y, u_val, integral = verdict.hypothesis_violation
        assert y == pytest.approx(0.9)
        assert u_val == pytest.approx(1.0)
        assert integral == 0.0
        assert verdict.conclusion_holds is None

    def test_counterexample_style_product_breaks_the_chain(self):
        # u = f * g for a nonvanishing step g must violate the hypothesis
        # somewhere, otherwise the contradiction argument would force g = 0
        rng = sampling.make_rng(737)
        for _ in range(100):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            g = sampling.random_nonnegative_step(rng, interval)
            u = pl_times_step(f, g)
            mu = weighted_variation_measure(f)
            verdict = gronwall_verify(u, mu, strictness=slack(1.0))
            assert (not verdict.hypothesis_holds) or verdict.conclusion_holds


class TestFindPositiveY:
    def test_unit_integrand_brick(self):
        f = const_pl(1.0)
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        w = find_positive_y(f, g)
        assert w.y == pytest.approx(0.5)
        assert w.lower_bound == pytest.approx(1.0)

    def test_nondecreasing_goes_to_case2(self):
        f = PiecewiseLinear(((0.0, 1.0), (1.0, 2.0)))
        g = BVFunction.from_step(StepFunction(UNIT, (0.25, 0.5), (0.0, 0.1, 0.3), 0.3))
        w = find_positive_y(f, g)
        assert w.method == "case2"

    def test_preconditions(self):
        f = const_pl(1.0)
        with pytest.raises(PreconditionError) as err:
            find_positive_y(f, BVFunction.from_step(
                StepFunction(UNIT, (0.5,), (0.2, 1.0), 1.0)))  # g(a) != 0
        assert err.value.reason == "start"
        with pytest.raises(PreconditionError) as err:
            find_positive_y(f, BVFunction.from_step(
                StepFunction(UNIT, (0.5,), (0.0, -1.0), -1.0)))
        assert err.value.reason == "sign"
        with pytest.raises(PreconditionError) as err:
            find_positive_y(f, BVFunction.zero(UNIT))
        assert err.value.reason == "vanishing"

    def test_heuristic_non_affine_integrand_rejected(self):
        f = IntegrandSpec(parse("sin(x)+2"), UNIT, Sampled(256, 1.5))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        with pytest.raises(PreconditionError) as err:
            find_positive_y(f, g)
        assert err.value.reason == "no_bv_coverage"

    def test_affine_heuristic_integrand_uses_exact_cover(self):
        # the affine cover is exact, so a Sampled modulus does not block it
        f = IntegrandSpec(parse("2"), UNIT, Sampled(256, 1.5))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        w = find_positive_y(f, g)
        assert w.lower_bound == pytest.approx(2.0)

    def test_nonpositive_integrand_rejected(self):
        f = IntegrandSpec(parse("x"), UNIT, Lipschitz(1.0))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        with pytest.raises(PreconditionError) as err:
            find_positive_y(f, g)
        assert err.value.reason == "positivity"

    def test_oscillating_integrand_lacks_coverage(self):
        f, fam = power_sine_family(0.5)
        g, _, _ = build_counterexample(f, fam, 1.5, 100, f_sup=POWER_SINE_UPPER_BOUND)
        with pytest.raises(PreconditionError) as err:
            find_positive_y(f, BVFunction.from_step(g))
        assert err.value.reason == "no_bv_coverage"

    def test_affine_text_integrand_has_coverage(self):
        f = IntegrandSpec(parse("2"), UNIT, Lipschitz(0.0))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        w = find_positive_y(f, g)
        assert w.lower_bound == pytest.approx(2.0)

    def test_property_run_with_oracle(self):
        rng = sampling.make_rng(848)
        for _ in range(200):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            w = find_positive_y(f, g)
            # oracle: the maximum of J over jump points must be positive too
            best = max(
                rs_jump_exact(f, g.step, p).value
                for p, _ in g.jumps_in(interval.a, interval.b)
            )
            assert best > 0.0
            r = rs_bv(f, g, w.y)
            assert r.value - r.error_bound > 0.0
            assert r.value - r.error_bound >= w.lower_bound - slack(w.lower_bound)

    def test_smallest_y_wins(self):
        # case2 at the first jump (0.5) must beat case1's 0.5 + eps
        f = const_pl(1.0)
        g = BVFunction.from_step(StepFunction(UNIT, (0.5,), (0.0, 1.0), 1.0))
        w = find_positive_y(f, g)
        assert w.y == pytest.approx(0.5)
        assert w.method == "case2"

    def test_sloped_integrator_scan(self):
        f = const_pl(1.0)
        g = BVFunction.from_linear(PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))))
        w = find_positive_y(f, g)
        r = rs_bv(f, g, w.y)
        assert r.value - r.error_bound > 0.0

    def test_property_run_on_sloped_mixed_integrators(self):
        # non-negative step plus a rising piecewise-linear part, g(a) = 0
        rng = sampling.make_rng(1717)
        intervals = 0
        for _ in range(200):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            lin = sampling.random_piecewise_linear(rng, interval, low=0.0, high=1.0)
            rising = PiecewiseLinear(tuple(zip(lin.xs, np.cumsum((0.0,) + lin.ys[1:]))))
            g = BVFunction(sampling.random_nonnegative_step(rng, interval), rising)
            w = find_positive_y(f, g)
            r = rs_bv(f, g, w.y)
            assert 0.0 < w.lower_bound <= r.value + slack(r.value)
            if w.interval is None:
                continue
            intervals += 1
            for q in g.structural_points():
                if not w.interval.a <= q <= w.interval.b:
                    continue
                value = rs_bv(f, g, q).value
                assert value > 0.0
                if q > w.interval.a:
                    left = value - f.evaluate(q) * (g.evaluate(q) - g.left_limit(q))
                    assert left > 0.0
        assert intervals > 100

    def test_witness_carries_certified_interval(self):
        f = const_pl(1.0)
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        w = find_positive_y(f, g)
        assert w.interval is not None
        assert w.interval.a == pytest.approx(0.5)
        assert w.interval.b == pytest.approx(0.75)
        direct = positive_interval(f, g, w)
        assert (direct.a, direct.b) == (w.interval.a, w.interval.b)


class TestPositiveInterval:
    def test_brick_midpoint_convention(self):
        f = const_pl(1.0)
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        w = find_positive_y(f, g)
        iv = positive_interval(f, g, w)
        assert iv.a == pytest.approx(0.5)
        assert iv.b == pytest.approx(0.75)

    def test_sustained_step_reaches_endpoint(self):
        f = const_pl(1.0)
        g = BVFunction.from_step(StepFunction(UNIT, (0.5,), (0.0, 1.0), 1.0))
        w = find_positive_y(f, g)
        iv = positive_interval(f, g, w)
        assert iv.b == 1.0

    def test_interval_reverifies_pointwise(self):
        rng = sampling.make_rng(959)
        count = 0
        for _ in range(100):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            w = find_positive_y(f, g)
            if w.y >= interval.b:
                continue
            iv = positive_interval(f, g, w)
            count += 1
            for t in np.linspace(iv.a, iv.b, 12):
                r = rs_jump_exact(f, g.step, float(t))
                assert r.value > 0.0
        assert count > 60

    def test_witness_at_right_end_rejected(self):
        f = const_pl(1.0)
        g = BVFunction.from_step(StepFunction(UNIT, (), (0.0,), 1.0))  # jump at b only
        w = find_positive_y(f, g)
        assert w.y == 1.0
        with pytest.raises(PreconditionError):
            positive_interval(f, g, w)
