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
from rscert.funcspec import (
    Hoelder,
    IntegrandSpec,
    Lipschitz,
    Sampled,
    integrand_modulus,
    integrand_values,
    parse,
)
from rscert.stieltjes import (
    EVALUATION_BUDGET,
    REFINEMENT_ROUNDS,
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


def clipped_pieces_reference(g, lo_limit, hi_limit):
    """(lo, hi, slope) for each sloped piece of g clipped to [lo_limit, hi_limit]."""
    out = []
    xs, ys = g.xs.tolist(), g.ys.tolist()
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        lo, hi = max(x0, lo_limit), min(x1, hi_limit)
        if hi <= lo:
            continue
        slope = (y1 - y0) / (x1 - x0)
        if slope != 0.0:
            out.append((lo, hi, slope))
    return out


def quadrature_reference(f, g, y, tol):
    """rs_pl_certified(f, g, y, tol) for an f with no exact form, by the
    per-piece loop it replaced: (value, bound, certified, message), with
    the message of ToleranceNotReached, or None when the bound meets tol."""
    pieces = clipped_pieces_reference(g, g.interval.a, y)
    if not pieces:
        return 0.0, 0.0, True, None
    domain_len = f.interval.length

    def bound_at(width):
        total = 0.0
        for lo, hi, s in pieces:
            length = hi - lo
            n = max(1, math.ceil(length / width))
            total += abs(s) * length * integrand_modulus(f, min(length / n, domain_len) / (1.0 if f.heuristic else 4.0))
        return total

    width = max(hi - lo for lo, hi, _ in pieces)
    best_width, best_bound = width, bound_at(width)
    for _ in range(REFINEMENT_ROUNDS):
        if best_bound <= tol:
            break
        width /= 2.0
        points_needed = sum(max(1, math.ceil((hi - lo) / width)) for lo, hi, _ in pieces)
        if points_needed > EVALUATION_BUDGET:
            break
        candidate = bound_at(width)
        if candidate < best_bound:
            best_width, best_bound = width, candidate

    total = 0.0
    for lo, hi, s in pieces:
        length = hi - lo
        n = max(1, math.ceil(length / best_width))
        mids = lo + (np.arange(n) + 0.5) * (length / n)
        total += s * (length / n) * float(integrand_values(f, mids).sum())
    message = None
    if best_bound > tol:
        message = f"tolerance {tol} unreachable within the refinement cap; best bound {best_bound}"
    return total, best_bound, not f.heuristic, message


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
        # an affine expression takes the same exact path, whatever its modulus
        affine = IntegrandSpec(parse("x"), UNIT, Sampled(4096, 1.5))
        for f in (IDENTITY, affine):
            r = rs_pl_certified(f, IDENTITY, 1.0)
            assert r.value == pytest.approx(0.5)
            assert r.certified
            assert r.error_bound == 0.0

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


class TestTolerance:
    """tol must be positive on every entry point and either path; NaN is not."""

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("f", [IntegrandSpec(parse("sin(x)"), UNIT, Lipschitz(1.0)), IDENTITY],
                             ids=["quadrature", "exact"])
    def test_rejected_on_a_sloped_integrator(self, f, tol):
        g = BVFunction(StepFunction.brick(UNIT, 0.25, 0.5), IDENTITY)
        for call in (lambda: rs_pl_certified(f, IDENTITY, 1.0, tol), lambda: rs_bv(f, g, 1.0, tol),
                     lambda: curve(f, g, [0.5, 1.0], tol)):
            with pytest.raises(DomainError, match="tol must be positive"):
                call()


class TestSharpMidpointBound:
    """A midpoint sum on cells of width h is charged omega(h/4) per unit of
    |s| * length for a certified (concave) modulus."""

    def test_lipschitz_bound_is_attained(self):
        # |x - 1/2| has midpoint sum 0 on one cell and integral 1/4 = omega(1/4):
        # any smaller factor than 1/4 would understate the error
        f = IntegrandSpec(parse("((x-0.5)^2)^0.5"), UNIT, Lipschitz(1.0))
        r = rs_pl_certified(f, IDENTITY, 1.0, tol=0.25)
        assert (r.value, r.error_bound, r.certified) == (0.0, 0.25, True)
        assert abs(r.value - 0.25) <= r.error_bound

    def test_hoelder_bound_covers_the_cusp(self):
        f = IntegrandSpec(parse("((x-0.5)^2)^0.25"), UNIT, Hoelder(1.0, 0.5))
        r = rs_pl_certified(f, IDENTITY, 1.0, tol=0.5)
        exact = 4.0 / 3.0 * 0.5**1.5  # twice the integral of t^0.5 over [0, 1/2]
        assert (r.value, r.error_bound) == (0.0, 0.5)
        assert abs(r.value - exact) <= r.error_bound

    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6])
    def test_closed_form_integrals_against_random_integrators(self, tol):
        rng = sampling.make_rng(1919)
        met = 0
        for i in range(8):
            if i % 2:
                interval = Interval(0.0, float(rng.uniform(0.5, 2.0)))
                f = IntegrandSpec(parse("x^0.5"), interval, Hoelder(1.0, 0.5))

                def antiderivative(x):
                    return 2.0 / 3.0 * x**1.5
            else:
                interval = sampling.random_interval(rng)
                a, w, p, c = (float(v) for v in rng.uniform([0.5, 1.0, 0.0, -1.0],
                                                            [2.0, 5.0, 3.0, 1.0]))
                top = max(abs(interval.a), abs(interval.b))
                f = IntegrandSpec(parse(f"{a!r}*sin({w!r}*x+{p!r})+{c!r}*x^2"), interval,
                                  Lipschitz(abs(a * w) + 2.0 * abs(c) * top))

                def antiderivative(x, a=a, w=w, p=p, c=c):
                    return -a / w * math.cos(w * x + p) + c * x**3 / 3.0
            g = sampling.random_piecewise_linear(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            exact = math.fsum(s * (antiderivative(hi) - antiderivative(lo))
                              for lo, hi, s in clipped_pieces_reference(g, interval.a, y))
            try:
                r = rs_pl_certified(f, g, y, tol)
            except ToleranceNotReached as err:
                # the best bound the evaluation budget allows still covers the error
                assert err.error_bound > tol
                assert abs(err.value - exact) <= err.error_bound + slack(exact)
                continue
            met += 1
            assert r.certified
            assert r.error_bound <= tol
            assert abs(r.value - exact) <= r.error_bound + slack(exact)
        assert met > 0


class TestQuadratureKernel:
    def test_single_limit_matches_per_piece_reference_bit_for_bit(self):
        rng = sampling.make_rng(1717)
        moduli = (Lipschitz(9.0), Hoelder(13.0, 0.5), Sampled(512, 1.5))
        seen = set()
        for i in range(45):
            interval = sampling.random_interval(rng)
            lin = sampling.random_piecewise_linear(rng, interval)
            g = BVFunction(sampling.random_step(rng, interval), lin)
            modulus = moduli[i % 3]
            f = IntegrandSpec(parse("sin(3*x) + x^2"), interval, modulus)
            on_knot = i % 2 == 0 and len(lin.xs) > 2
            y = float(rng.choice(lin.xs[1:])) if on_knot else sampling.random_upper_limit(rng, interval)
            tol = float(rng.choice([1e-2, 1e-4, 1e-7]))
            value, bound, certified, message = quadrature_reference(f, lin, y, tol)
            jump = rs_jump_exact(f, g.step, y).value
            if message is None:
                r, rb = rs_pl_certified(f, lin, y, tol), rs_bv(f, g, y, tol)
                assert (r.value.hex(), r.error_bound.hex(), r.certified) == (
                    value.hex(), bound.hex(), certified)
                assert (rb.value.hex(), rb.error_bound.hex()) == ((jump + value).hex(), bound.hex())
            else:
                for call in (lambda: rs_pl_certified(f, lin, y, tol), lambda: rs_bv(f, g, y, tol)):
                    with pytest.raises(ToleranceNotReached) as err:
                        call()
                    assert str(err.value) == message
                    assert (err.value.value.hex(), err.value.error_bound.hex()) == (
                        value.hex(), bound.hex())
            seen.add((type(modulus).__name__, on_knot, message is None))
        assert {(m, k) for m, k, _ in seen} == {
            (m, k) for m in ("Lipschitz", "Hoelder", "Sampled") for k in (True, False)}
        assert {met for _, _, met in seen} == {True, False}

    def test_curve_bound_meets_tol_at_every_point(self):
        rng = sampling.make_rng(50)
        interval = Interval(0.0, 2.0)
        xs = np.linspace(0.0, 2.0, 41)
        lin = PiecewiseLinear(np.column_stack((xs, np.append(0.0, np.cumsum(rng.uniform(-1, 1, 40))))))
        f = IntegrandSpec(parse("sin(x)+2"), interval, Lipschitz(1.0))
        grid = np.sort(rng.uniform(0.0, 2.0, 50))
        tol = 1e-4
        c = curve(f, lin, grid, tol)
        assert c.ys.tolist() == grid.tolist()
        for y, value, bound in zip(c.ys, c.values, c.error_bounds):
            exact = math.fsum(s * (math.cos(lo) - math.cos(hi) + 2.0 * (hi - lo))
                              for lo, hi, s in clipped_pieces_reference(lin, 0.0, y))
            assert abs(value - exact) <= bound + slack(exact)
        assert (np.diff(c.error_bounds) >= 0.0).all()
        assert c.error_bounds[-1] <= tol

    def test_curve_raises_with_the_last_value_and_bound(self):
        f = IntegrandSpec(parse("sin(x)"), UNIT, Lipschitz(1.0))
        with pytest.raises(ToleranceNotReached) as err:
            curve(f, IDENTITY, [0.25, 0.5, 1.0], tol=1e-13)
        value, bound, _, message = quadrature_reference(f, IDENTITY, 1.0, 1e-13)
        assert str(err.value) == message
        assert abs(err.value.value - value) <= 1e-15
        assert err.value.error_bound > 1e-13


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
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
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
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
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

    def test_midpoint_tags_charge_half_the_mesh(self):
        # one cell, tagged at 0.5 where |x - 0.5| is 0; the integral is 0.25
        f = IntegrandSpec(parse("((x-0.5)^2)^0.5"), UNIT, Lipschitz(1.0))
        r = rs_bruteforce_oracle(f, IDENTITY, 1.0, mesh=1.0)
        assert (r.value, r.error_bound, r.certified) == (0.0, 0.5, True)
        assert abs(r.value - 0.25) <= r.error_bound

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
        # J is 0 up to the first jump and constant from each jump to the next
        lows = [0.0, *c.ys[c.at_jump]]
        highs = [*c.ys[c.at_jump], 1.0]
        levels = [0.0, *c.values[c.at_jump]]
        segments = [(lo, hi, v) for lo, hi, v in zip(lows, highs, levels) if lo < hi]
        assert len(segments) == 3
        for lo, hi, value in segments:
            for t in np.linspace(lo, hi, 7)[1:-1]:
                assert rs_jump_exact(f, g, float(t)).value == pytest.approx(value, abs=1e-12)

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
