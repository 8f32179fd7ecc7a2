"""Integration paths: exact jump sums, certified quadrature, the brute-force
oracle, integration by parts, and cumulative curves."""

import math

import numpy as np
import pytest

from rscert.bv_core import (
    BVFunction,
    DomainError,
    Interval,
    PiecewiseLinear,
    StepFunction,
    jordan_decompose,
    slack,
)
from rscert.funcspec import Hoelder, IntegrandSpec, Lipschitz, Sampled, parse
from rscert.stieltjes import (
    ToleranceNotReached,
    curve,
    integration_by_parts_residual,
    rs_bruteforce_oracle,
    rs_bv,
    rs_jump_exact,
    rs_pl_certified,
    rs_pl_integrator_exact,
)
from rscert.counterexample import build_bricks, power_sine_family
from rscert import sampling

UNIT = Interval(0.0, 1.0)
IDENTITY = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))


def const_pl(value, interval=UNIT):
    return PiecewiseLinear.constant(interval, value)


class TestJumpExact:
    def test_constant_times_single_jump(self):
        g = StepFunction(UNIT, (0.3,), (0.0, 0.7), 0.7)
        r = rs_jump_exact(const_pl(5.0), g, 0.9)
        assert r.value == pytest.approx(3.5)
        assert r.error_bound == 0.0 and r.certified

    def test_endpoint_jump_counts_one_sided(self):
        g = StepFunction.brick(UNIT, 0.5, 1.0)
        r = rs_jump_exact(IDENTITY, g, 1.0)
        assert r.value == pytest.approx(0.5 * 1.0 + 1.0 * (-1.0))

    def test_upper_limit_before_any_jump(self):
        g = StepFunction.brick(UNIT, 0.5, 1.0)
        assert rs_jump_exact(IDENTITY, g, 0.25).value == 0.0

    def test_upper_limit_at_jump_includes_it(self):
        g = StepFunction.brick(UNIT, 0.5, 1.0)
        assert rs_jump_exact(IDENTITY, g, 0.5).value == pytest.approx(0.5)

    def test_truncated_brick_sum_matches_series_oracle(self):
        f, fam = power_sine_family(0.5)
        beta, N = 1.5, 1000
        h = build_bricks(fam, beta, N, interval=UNIT)
        y = fam.trough(7)
        got = rs_jump_exact(f, h, y).value

        def f_ref(x):  # independent of the expression machinery
            return math.sqrt(x) * math.sin(1.0 / x) + 2.0

        terms = [7.0 ** (-beta) * f_ref(fam.trough(7))]
        terms += [
            -(k ** (-beta)) * (f_ref(fam.crest(k)) - f_ref(fam.trough(k)))
            for k in range(8, N + 1)
        ]
        expected = math.fsum(terms)
        assert got == pytest.approx(expected, abs=1e-13)
        assert got < 0.0
        assert got == pytest.approx(-0.007574680224503916, rel=1e-10)

    def test_domain_validation(self):
        g = StepFunction.brick(UNIT, 0.5, 1.0)
        with pytest.raises(DomainError):
            rs_jump_exact(IDENTITY, g, 0.0)
        with pytest.raises(DomainError):
            rs_jump_exact(IDENTITY, g, 1.5)


class TestPlCertified:
    def test_constant_integrand_any_tolerance(self):
        g = PiecewiseLinear(((0.0, 0.0), (0.4, 2.0), (1.0, -1.0)))
        r = rs_pl_certified(const_pl(3.0), g, 1.0, tol=1e-15)
        assert r.value == pytest.approx(3.0 * (g.evaluate(1.0) - g.evaluate(0.0)))
        assert r.error_bound == 0.0

    def test_identity_against_identity(self):
        r = rs_pl_certified(IDENTITY, IDENTITY, 1.0)
        assert r.value == pytest.approx(0.5)
        assert r.certified

    def test_quadratic_against_tent(self):
        # slope +2 on [0, 0.5], slope -2 on [0.5, 1]:
        # 2*int_0^0.5 x^2 dx - 2*int_0.5^1 x^2 dx = 1/12 - 7/12 = -0.5
        tent = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
        f = IntegrandSpec(parse("x^2"), UNIT, Lipschitz(2.0))
        r = rs_pl_certified(f, tent, 1.0, tol=1e-5)
        assert abs(r.value - (-0.5)) <= r.error_bound + 1e-12
        assert r.error_bound <= 1e-5
        assert r.certified

    def test_expression_bound_honest_on_smooth_case(self):
        f = IntegrandSpec(parse("sin(x)"), UNIT, Lipschitz(1.0))
        r = rs_pl_certified(f, IDENTITY, 1.0, tol=1e-6)
        assert abs(r.value - (1.0 - math.cos(1.0))) <= r.error_bound

    def test_unreachable_tolerance_carries_best_bound(self):
        f = IntegrandSpec(parse("sin(x)"), UNIT, Lipschitz(1.0))
        with pytest.raises(ToleranceNotReached) as err:
            rs_pl_certified(f, IDENTITY, 1.0, tol=1e-13)
        assert err.value.error_bound > 1e-13
        assert abs(err.value.value - (1.0 - math.cos(1.0))) <= err.value.error_bound

    def test_sampled_modulus_never_certifies(self):
        f = IntegrandSpec(parse("sin(x)"), UNIT, Sampled(4096, 1.5))
        r = rs_pl_certified(f, IDENTITY, 1.0, tol=1e-3)
        assert not r.certified

    def test_hoelder_modulus_drives_bound(self):
        f = IntegrandSpec(parse("x^0.5"), UNIT, Hoelder(1.0, 0.5))
        r = rs_pl_certified(f, IDENTITY, 1.0, tol=1e-3)
        assert abs(r.value - 2.0 / 3.0) <= r.error_bound
        assert r.error_bound <= 1e-3


class TestRsBv:
    def test_zero_integrator_integrates_to_zero(self):
        zero = BVFunction.zero(UNIT)
        r = rs_bv(IDENTITY, zero, 1.0)
        assert r.value == 0.0 and r.error_bound == 0.0 and r.certified

    def test_pure_step_matches_jump_exact(self):
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        assert rs_bv(IDENTITY, g, 0.75).value == rs_jump_exact(IDENTITY, g.step, 0.75).value

    def test_pure_pl_matches_pl_certified(self):
        g = BVFunction.from_linear(IDENTITY)
        assert rs_bv(IDENTITY, g, 1.0).value == rs_pl_certified(IDENTITY, IDENTITY, 1.0).value

    def test_telescoping_for_unit_integrand(self):
        rng = sampling.make_rng(321)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            g = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            r = rs_bv(const_pl(1.0, interval), g, y)
            expected = g.evaluate(y) - g.evaluate(interval.a)
            assert abs(r.value - expected) <= r.error_bound + slack(expected)

    def test_linearity_in_the_integrator(self):
        rng = sampling.make_rng(654)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval)
            g1 = sampling.random_bv(rng, interval)
            g2 = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            lhs = rs_bv(f, g1 + g2, y).value
            rhs = rs_bv(f, g1, y).value + rs_bv(f, g2, y).value
            assert abs(lhs - rhs) <= slack(lhs, rhs)

    def test_jordan_split_of_the_integral(self):
        rng = sampling.make_rng(987)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval)
            g = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            pair = jordan_decompose(g)
            whole = rs_bv(f, g, y).value
            base = g.evaluate(interval.a)
            split = rs_bv(f, pair.pos, y).value - rs_bv(f, pair.neg, y).value
            # g and pos - neg differ by the constant g(a), which integrates to 0
            assert abs(whole - split) <= slack(whole, base)

    def test_sign_equivalence_through_jordan_split(self):
        # the integral is positive exactly when the increasing part's integral
        # exceeds the decreasing part's, beyond the combined bounds
        rng = sampling.make_rng(468)
        decided = 0
        for _ in range(60):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            g = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            pair = jordan_decompose(g)
            whole = rs_bv(f, g, y)
            up = rs_bv(f, pair.pos, y)
            down = rs_bv(f, pair.neg, y)
            budget = whole.error_bound + up.error_bound + down.error_bound
            margin = slack(whole.value, up.value, down.value)
            if abs(whole.value) <= budget + margin:
                continue  # too close to call either way
            decided += 1
            assert (whole.value > 0) == (up.value - down.value > budget)
        assert decided > 40

    def test_monotone_integrator_lower_bound(self):
        rng = sampling.make_rng(246)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            f = sampling.random_positive_pl(rng, interval)
            g = jordan_decompose(sampling.random_bv(rng, interval)).pos
            y = sampling.random_upper_limit(rng, interval)
            rise = g.evaluate(y) - g.evaluate(interval.a)
            if rise <= 0.0:
                continue
            r = rs_bv(f, g, y)
            floor = f.min_value(interval.a, y) * rise
            assert r.value >= floor - r.error_bound - slack(floor)


class TestOracle:
    def test_constant_exact_for_any_mesh(self):
        rng = sampling.make_rng(135)
        for _ in range(20):
            interval = sampling.random_interval(rng)
            g = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            r = rs_bruteforce_oracle(const_pl(4.0, interval), g, y, mesh=0.3)
            expected = 4.0 * (g.evaluate(y) - g.evaluate(interval.a))
            assert r.value == pytest.approx(expected, abs=1e-12)

    def test_single_jump_convergence(self):
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        for mesh in (0.1, 0.01, 0.001):
            r = rs_bruteforce_oracle(IDENTITY, g, 0.75, mesh)
            assert abs(r.value - 0.5) <= r.error_bound

    def test_agreement_with_exact_path(self):
        rng = sampling.make_rng(579)
        for _ in range(60):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval)
            g = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            exact = rs_bv(f, g, y)
            approx = rs_bruteforce_oracle(f, g, y, mesh=1e-3)
            assert abs(exact.value - approx.value) <= (
                exact.error_bound + approx.error_bound + slack(exact.value)
            )


class TestIntegrationByParts:
    def test_worked_example(self):
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        residual = integration_by_parts_residual(IDENTITY, g, 0.75)
        assert residual <= 1e-12

    def test_constant_integrand_telescopes(self):
        rng = sampling.make_rng(864)
        for _ in range(20):
            interval = sampling.random_interval(rng)
            g = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            residual = integration_by_parts_residual(const_pl(2.5, interval), g, y)
            assert residual <= slack(g.total_variation())

    def test_exact_swapped_integral_worked_example(self):
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        r = rs_pl_integrator_exact(g, IDENTITY, 0.75)
        assert r.value == pytest.approx(0.25)  # int_0.5^0.75 of 1 dx
        assert r.error_bound == 0.0

    def test_property_run(self):
        rng = sampling.make_rng(1000)
        for _ in range(300):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval)
            g = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            residual = integration_by_parts_residual(f, g, y)
            budget = slack(f.max_value(), g.total_variation())
            assert residual <= budget

    def test_rejects_expression_integrand(self):
        f = IntegrandSpec(parse("sin(x)"), UNIT, Lipschitz(1.0))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        with pytest.raises(TypeError):
            integration_by_parts_residual(f, g, 0.75)


class TestCurve:
    def test_pure_step_curve_matches_pointwise_integrals(self):
        g = StepFunction(UNIT, (0.2, 0.5, 0.8), (0.0, 1.0, 0.25, 2.0), 0.0)
        f = PiecewiseLinear(((0.0, 1.0), (1.0, 3.0)))
        c = curve(f, g, [0.1, 0.35, 0.65, 0.9, 1.0])
        for y, value in zip(c.ys, c.values):
            assert value == pytest.approx(rs_jump_exact(f, g, y).value, abs=1e-12)
        kinds = {y: "jump" if j else "grid" for y, j in zip(c.ys, c.at_jump)}
        assert kinds[0.2] == "jump" and kinds[0.35] == "grid"

    def test_unit_integrand_reproduces_integrator(self):
        rng = sampling.make_rng(222)
        interval = UNIT
        g = sampling.random_bv(rng, interval)
        grid = [0.1, 0.4, 0.7, 1.0]
        c = curve(const_pl(1.0), g, grid)
        for y, value, bound in zip(c.ys, c.values, c.error_bounds):
            expected = g.evaluate(y) - g.evaluate(0.0)
            assert abs(value - expected) <= bound + slack(expected)

    def test_constancy_between_jumps(self):
        g = StepFunction(UNIT, (0.25, 0.75), (0.0, 1.0, -0.5), -0.5)
        f = PiecewiseLinear(((0.0, 2.0), (1.0, 2.5)))
        c = curve(f, g, [1.0])
        assert c.constant_segments is not None
        for lo, hi, value in c.constant_segments:
            for t in np.linspace(lo, hi, 7)[1:-1]:
                assert rs_jump_exact(f, g, float(t)).value == pytest.approx(value, abs=1e-12)

    def test_mixed_integrator_has_no_constancy_annotation(self):
        g = BVFunction(StepFunction.brick(UNIT, 0.5, 1.0), IDENTITY)
        c = curve(const_pl(1.0), g, [0.5, 1.0])
        assert c.constant_segments is None

    def test_incremental_matches_direct_on_mixed_integrator(self):
        rng = sampling.make_rng(444)
        for _ in range(10):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval)
            g = sampling.random_bv(rng, interval)
            grid = sorted({sampling.random_upper_limit(rng, interval) for _ in range(8)})
            c = curve(f, g, grid)
            assert not c.error_bounds.any()  # piecewise-linear integrand: exact
            for y, value, bound in zip(c.ys, c.values, c.error_bounds):
                direct = rs_bv(f, g, y)
                assert abs(value - direct.value) <= (
                    bound + direct.error_bound + slack(direct.value)
                )

    def test_grid_must_increase(self):
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        with pytest.raises(DomainError):
            curve(IDENTITY, g, [0.5, 0.5])
