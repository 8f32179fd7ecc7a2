"""Positivity detectors, the witness search, measures and the Groenwall check."""

import math
import time

import numpy as np
import pytest

from rscert.bv_core import (
    BVFunction,
    DomainError,
    Interval,
    PiecewiseLinear,
    StepFunction,
    slack,
)
from rscert.funcspec import IntegrandSpec, Lipschitz, Sampled, parse
from rscert.stieltjes import rs_bv, rs_jump_exact
from rscert.counterexample import build_counterexample, power_sine_family, POWER_SINE_UPPER_BOUND
from rscert.positivity import (
    GronwallVerdict,
    InternalInconsistencyError,
    PositivityWitness,
    PreconditionError,
    WeightedMeasure,
    detect_case1,
    detect_case2,
    find_positive_y,
    gdf_bound_check,
    gronwall_verify,
    pl_times_step,
    positive_interval,
    support_edge,
)
from rscert import bv_core, sampling, stieltjes

UNIT = Interval(0.0, 1.0)


def const_pl(value, interval=UNIT):
    return PiecewiseLinear.constant(interval, value)


def affine_ratio_reference(u, f, x0, x1, s):
    """integral over [x0, x1] of u(x)/f(x) dx, both affine on the piece and
    f with the stored slope s there, by the scalar form of the vectorised
    cell terms: (L / f0) * (u0 * phi1(z) + (u1 - u0) * phi2(z)) with
    z = s * L / f0, phi1 and phi2 by Horner on their series below |z| = 0.05."""
    span = x1 - x0
    u0 = u.right_limit(x0)
    u1 = u.left_limit(x1)
    f0 = f.evaluate(x0)
    z = s * span / f0
    if abs(z) < 0.05:
        phi1 = phi2 = 0.0
        for k in reversed(range(24)):
            phi1 = 1.0 / (k + 1) - z * phi1
            phi2 = 1.0 / (k + 2) - z * phi2
    else:
        log = math.log1p(z)
        phi1, phi2 = log / z, (z - log) / (z * z)
    return span / f0 * (u0 * phi1 + (u1 - u0) * phi2)


def weighted_integrate_reference(f, u, c, d):
    """WeightedMeasure(f).integrate(u, c, d) by the per-piece loop it
    replaced: every sloped knot interval of f clipped to [c, d], cut at the
    structural points of u inside it, summed cell by cell from 0.0."""
    if c == d:
        return 0.0
    total = 0.0
    xs = f.xs.tolist()
    for lo, hi, s in zip(xs, xs[1:], f.slopes().tolist()):
        if s == 0.0:
            continue
        seg_lo, seg_hi = max(lo, c), min(hi, d)
        if seg_hi <= seg_lo:
            continue
        cuts = sorted({seg_lo, seg_hi}
                      | {x for x in u.structural_points() if seg_lo < x < seg_hi})
        for x0, x1 in zip(cuts, cuts[1:]):
            total += abs(s) * affine_ratio_reference(u, f, x0, x1, s)
    return float(total)


def gronwall_reference(u, f, strictness):
    """gronwall_verify(u, WeightedMeasure(f), strictness) by the per-probe
    loop it replaced, which integrates again from a at every probe."""
    a, b = u.interval.a, u.interval.b
    pts = sorted(set(u.structural_points()) | set(f.xs.tolist()))
    probes = []
    for x0, x1 in zip(pts, pts[1:]):
        mid = 0.5 * (x0 + x1)
        probes += [(x0, u.evaluate(x0)), (mid, u.evaluate(mid)), (x1, u.left_limit(x1))]
    probes.append((b, u.evaluate(b)))
    for y, u_val in probes:
        integral = weighted_integrate_reference(f, u, a, y)
        if u_val > integral + slack(u_val, integral):
            return GronwallVerdict(False, (y, u_val, integral), None, None)
    for y, u_val in probes:
        if u_val > strictness + slack(u_val):
            return GronwallVerdict(True, None, False, (y, u_val))
    return GronwallVerdict(True, None, True, None)


class TestWeightedMeasure:
    def test_requires_positive_denominator(self):
        with pytest.raises(PreconditionError):
            WeightedMeasure(PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))))

    def test_increment_bound_holds_exactly(self):
        # |f(d) - f(c)| <= integral of f over [c, d) against d(var f)/f
        rng = sampling.make_rng(67)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            mu = WeightedMeasure(f)
            c = sampling.random_upper_limit(rng, interval)
            d = sampling.random_upper_limit(rng, interval)
            c, d = min(c, d), max(c, d)
            lhs = abs(f.evaluate(d) - f.evaluate(c))
            rhs = mu.integrate(BVFunction.from_linear(f), c, d)
            assert lhs <= rhs + slack(lhs, rhs)

    def test_closed_form_against_quadrature(self):
        f = PiecewiseLinear(((0.0, 1.0), (0.4, 3.0), (1.0, 0.5)))
        u = BVFunction.from_linear(PiecewiseLinear(((0.0, 2.0), (1.0, 4.0))))
        mu = WeightedMeasure(f)
        got = mu.integrate(u, 0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 2_000_001)
        mids = 0.5 * (xs[:-1] + xs[1:])
        dens = np.where(mids < 0.4, 5.0, 2.5 / 0.6)  # |slope| of f
        vals = u.evaluate_array(mids) * dens / f.evaluate_array(mids)
        numeric = float(vals.sum() * (xs[1] - xs[0]))
        assert got == pytest.approx(numeric, rel=1e-6)


    def test_cell_terms_against_mpmath(self):
        """One cell term against the integral at 40 digits, relative to the
        cell's scale |s| * L * (|u0| + |u1|) / f0, for |z| = |s| * L / f0
        from 1e-9 to 0.8 and f shifted by up to 10^6 in a third of the
        cells: the closed form in log1p(z) cancels as |z| shrinks."""
        import mpmath

        rng = sampling.make_rng(4000)
        worst = 0.0
        with mpmath.workdps(40):
            for k in range(4000):
                z = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, math.log10(0.8)))
                span, f0 = float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.2, 3.0))
                if k % 3 == 0:
                    f0 += float(10.0 ** rng.uniform(1.0, 6.0))
                u0, u1 = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
                f = PiecewiseLinear(((0.0, f0), (span, f0 + z * f0)))
                u = BVFunction.from_linear(PiecewiseLinear(((0.0, u0), (span, u1))))
                got = WeightedMeasure(f).integrate(u, 0.0, span)
                s = f.slopes()[0].item()
                zm = mpmath.mpf(s) * span / f0
                log = mpmath.log1p(zm)
                phi1, phi2 = log / zm, (zm - log) / zm**2
                exact = abs(mpmath.mpf(s)) * span / f0 * (u0 * phi1 + (mpmath.mpf(u1) - u0) * phi2)
                scale = abs(s) * span * (abs(u0) + abs(u1)) / f0
                worst = max(worst, float(abs(got - exact)) / scale)
        assert worst <= 1e-14


class TestCellGridAgainstReferences:
    """The measure integrals read off one cell grid equal the loops they
    replaced bit for bit: the same cells, terms and additions in order."""

    @staticmethod
    def instances(seed, count):
        rng = sampling.make_rng(seed)
        for k in range(count):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            g = sampling.random_nonnegative_step(rng, interval)
            if k % 5 == 0:
                u = BVFunction.zero(interval)
            elif k % 5 == 1:
                u = pl_times_step(f, g).scaled(1e-13)  # the hypothesis holds
            elif k % 5 == 2:
                u = pl_times_step(f, g)
            elif k % 5 == 3:
                u = sampling.random_bv(rng, interval)
            else:
                u = BVFunction(g, sampling.random_piecewise_linear(rng, interval, low=0.0))
            c, d = sorted(sampling.random_upper_limit(rng, interval) for _ in range(2))
            yield interval, f, u, c, d

    def test_gronwall_verdicts_bit_for_bit(self):
        held = 0
        for interval, f, u, _, _ in self.instances(2024, 1500):
            verdict = gronwall_verify(u, WeightedMeasure(f), strictness=slack(1.0))
            assert verdict == gronwall_reference(u, f, slack(1.0))
            held += verdict.hypothesis_holds
        assert held >= 600  # u = 0 and the 1e-13 product visit every probe

    def test_integrate_and_mass_bit_for_bit(self):
        for interval, f, u, c, d in self.instances(2025, 1500):
            mu = WeightedMeasure(f)
            one = BVFunction.from_linear(const_pl(1.0, interval))
            for lo, hi in ((c, d), (interval.a, interval.b)):
                assert mu.integrate(u, lo, hi) == weighted_integrate_reference(f, u, lo, hi)
                assert mu.mass(lo, hi) == weighted_integrate_reference(f, one, lo, hi)
            assert mu.integrate(u, c, c) == 0.0

    def test_many_knots_and_jumps(self):
        # f with 200 knots in [1, 2], g >= 0 with 200 jumps and u = 1e-14 f g:
        # the hypothesis holds, so every probe is read; the per-probe loop
        # took 17 s here
        rng = sampling.make_rng(200)
        f = PiecewiseLinear(np.column_stack((np.linspace(0.0, 1.0, 200),
                                             rng.uniform(1.0, 2.0, 200))))
        g = StepFunction(UNIT, np.sort(rng.uniform(0.01, 0.99, 200)),
                         np.append(0.0, rng.uniform(0.0, 1.0, 200)), 0.5)
        u = pl_times_step(f, g).scaled(1e-14)
        start = time.perf_counter()
        verdict = gronwall_verify(u, WeightedMeasure(f), strictness=slack(1.0))
        assert time.perf_counter() - start < 1.0
        assert verdict.hypothesis_holds and verdict.conclusion_holds


class TestProductRepresentation:
    def test_product_matches_pointwise(self):
        rng = sampling.make_rng(88)
        for _ in range(50):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
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

    def test_step_plus_ramp_crossing_after_a_breakpoint(self):
        # x - 1 on [0, 0.4), x - 0.6 from the jump at 0.4 on: the sloped
        # piece that starts at the breakpoint crosses zero at 0.6
        step = StepFunction(UNIT, (0.4,), (-1.0, -0.6), -0.6)
        g = BVFunction(step, PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))))
        edge = support_edge(g)
        assert edge == pytest.approx(0.6)
        assert abs(g.evaluate(edge)) <= slack(1.0)
        assert g.evaluate(0.4) < 0.0 < g.evaluate(0.61)


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
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
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


class TestDetectorsReadTheExactForm:
    G = StepFunction(UNIT, (0.3,), (0.0, 1.0), 1.0)

    def test_affine_spec_with_sampled_modulus_is_exact(self):
        f = IntegrandSpec(parse("x+2"), UNIT, Sampled(256, 1.5))
        w1 = detect_case1(self.G, f)
        assert (w1.lower_bound, w1.method) == (2.0, "case1")  # f(0) on the window [0, y]
        assert w1 == detect_case1(self.G, f.pl_form())
        assert detect_case2(f, self.G, 0.5) == PositivityWitness(0.5, 2.0, "case2")

    def test_no_exact_form_gives_nothing(self):
        f = IntegrandSpec(parse("sin(x)+2"), UNIT, Lipschitz(1.0))
        assert detect_case1(self.G, f) is None
        assert detect_case2(f, self.G, 0.5) is None


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
            f_raw = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            rise = jordan_decompose(f_raw).pos.linear.shifted(0.5)  # increasing, positive
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            y = sampling.random_upper_limit(rng, interval)
            lhs, rhs = gdf_bound_check(rise, g, y)
            assert lhs == pytest.approx(rhs, abs=slack(lhs, rhs))

    def test_property_run(self):
        rng = sampling.make_rng(626)
        for _ in range(200):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            y = sampling.random_upper_limit(rng, interval)
            lhs, rhs = gdf_bound_check(f, g, y)
            assert lhs <= rhs + slack(lhs, rhs)

    def test_sign_precondition(self):
        f = PiecewiseLinear(((0.0, 1.0), (1.0, 2.0)))
        g = BVFunction.from_step(StepFunction(UNIT, (0.5,), (0.0, -1.0), -1.0))
        with pytest.raises(PreconditionError):
            gdf_bound_check(f, g, 1.0)

    def test_reads_the_integrands_exact_form(self):
        g = BVFunction.from_step(StepFunction(UNIT, (0.25, 0.5), (0.0, 1.0, 0.5), 0.5))
        spec = IntegrandSpec(parse("1+x"), UNIT, Lipschitz(1.0))
        assert gdf_bound_check(spec, g, 0.75) == gdf_bound_check(spec.pl_form(), g, 0.75)
        with pytest.raises(PreconditionError) as err:
            gdf_bound_check(IntegrandSpec(parse("sin(x)+2"), UNIT, Lipschitz(1.0)), g, 0.75)
        assert err.value.reason == "no_bv_coverage"

    def test_positivity_precondition(self):
        f = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        with pytest.raises(PreconditionError):
            gdf_bound_check(f, g, 1.0)

    def test_rejects_f_and_g_on_different_intervals(self):
        f = PiecewiseLinear(((0.0, 1.0), (2.0, 3.0)))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.25, 1.0))
        with pytest.raises(DomainError):
            gdf_bound_check(f, g, 0.5)

    def test_negated_cell_terms_break_the_bound(self, monkeypatch):
        # the two sides are separate kernel reads, so wrong signs in the
        # exact cell terms show; |sum t| <= sum |t| over one set of terms t
        # holds whatever t is
        exact = bv_core._exact_cells

        def negated(*cells):
            cuts, steps, bound_terms, certified = exact(*cells)
            return cuts, -steps, bound_terms, certified

        rng = sampling.make_rng(707)  # criterion 7's instances
        checked = 0
        for _ in range(500):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            y = sampling.random_upper_limit(rng, interval)
            _, rhs = gdf_bound_check(f, g, y)
            with monkeypatch.context() as m:
                m.setattr(bv_core, "_exact_cells", negated)
                lhs_bad, rhs_bad = gdf_bound_check(f, g, y)
            if rhs > slack(rhs):
                checked += 1
                assert lhs_bad > rhs_bad + slack(lhs_bad, rhs_bad)
        assert checked >= 300


class TestGronwall:
    def test_zero_function_passes(self):
        f = const_pl(1.0)
        mu = WeightedMeasure(f)
        verdict = gronwall_verify(BVFunction.zero(UNIT), mu, strictness=1e-9)
        assert verdict.hypothesis_holds and verdict.conclusion_holds

    def test_positive_bump_violates_hypothesis(self):
        f = const_pl(1.0)  # zero variation: mu == 0
        mu = WeightedMeasure(f)
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
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            g = sampling.random_nonnegative_step(rng, interval)
            u = pl_times_step(f, g)
            mu = WeightedMeasure(f)
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

    def test_jumping_bv_integrand_lacks_coverage(self):
        # 1 + chi_[0.5,1) jumps (where g does): no exact form
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        f = BVFunction(StepFunction.brick(UNIT, 0.5, 1.0), const_pl(1.0))
        for search in (lambda: find_positive_y(f, g),
                       lambda: positive_interval(f, g, PositivityWitness(0.5, 1.0, "case2"))):
            with pytest.raises(PreconditionError) as err:
                search()
            assert err.value.reason == "no_bv_coverage"

    def test_continuous_bv_integrand_reads_its_exact_form(self):
        # 1 + x, its level in the step part: the search reads its form
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        lifted = BVFunction(StepFunction.constant(UNIT, 1.0),
                            PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))))
        w = find_positive_y(lifted, g)
        assert w == find_positive_y(lifted.pl_form(), g)
        assert (w.y, w.lower_bound, w.method) == (0.5, 1.0, "case2")
        assert (w.interval.a, w.interval.b) == (0.5, 0.75)
        assert positive_interval(lifted, g, w) == w.interval

    def test_affine_text_integrand_has_coverage(self):
        f = IntegrandSpec(parse("2"), UNIT, Lipschitz(0.0))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        w = find_positive_y(f, g)
        assert w.lower_bound == pytest.approx(2.0)

    @pytest.mark.parametrize("text, fill, lower", [
        ("x+0.75", (0.5, 1.25), 0.75),  # a fill that agrees with the program
        ("2", None, 2.0),
    ])
    def test_f_read_at_jumps_through_the_callers_spec(self, monkeypatch, text, fill, lower):
        reads = []
        original = stieltjes.integrand_values

        def spy(f, xs):
            reads.append((f, np.asarray(xs, dtype=float).copy()))
            return original(f, xs)

        monkeypatch.setattr(stieltjes, "integrand_values", spy)
        f = IntegrandSpec(parse(text), UNIT, Sampled(256, 1.5), fill)
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        w = find_positive_y(f, g)
        assert (w.y, w.lower_bound, w.method) == (0.5, lower, "case2")
        iv = positive_interval(f, g, w)
        assert (iv.a, iv.b) == (w.interval.a, w.interval.b) == (0.5, 0.75)
        assert len(reads) == 2  # one curve in each call
        for reader, xs in reads:
            assert reader is f and not isinstance(reader, PiecewiseLinear)
            assert 0.5 in xs

    def test_property_run_with_oracle(self):
        rng = sampling.make_rng(848)
        for _ in range(200):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            w = find_positive_y(f, g)
            # g jumps up off zero at its support edge
            assert w.y == support_edge(g)
            assert w.method == "case2"
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
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            lin = sampling.random_piecewise_linear(rng, interval, low=0.0, high=1.0)
            rising = PiecewiseLinear(tuple(zip(lin.xs, np.cumsum(np.append(0.0, lin.ys[1:])))))
            g = BVFunction(sampling.random_nonnegative_step(rng, interval), rising)
            w = find_positive_y(f, g)
            # the witness lies in the piece that holds the support edge
            edge = support_edge(g)
            assert w.y <= min(q for q in g.structural_points() if q > edge)
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

    @pytest.mark.xfail(
        strict=True, raises=InternalInconsistencyError,
        reason="every certified sign decision asks x > slack(x), an absolute "
        "threshold near 1e-9 below magnitude 1, so a witness whose integral "
        "is at most 1e-9 is never certified, whatever the scale of g",
    )
    @pytest.mark.parametrize("g", [
        BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0)).scaled(1e-9),
        BVFunction.from_linear(PiecewiseLinear(((0.0, 0.0), (1.0, 1e-9)))),
    ], ids=["brick", "ramp"])
    def test_witness_is_scale_covariant(self, g):
        w = find_positive_y(const_pl(1.0), g)
        assert w.lower_bound > 0.0

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
        # pure-jump integrators, then sloped ones: a non-negative step, whose
        # down-jumps can drag the integral down, plus a rising PL part
        for sloped, seed in ((False, 959), (True, 960)):
            rng = sampling.make_rng(seed)
            count = inside = 0
            for _ in range(100):
                interval = sampling.random_interval(rng)
                f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
                g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
                if sloped:
                    lin = sampling.random_piecewise_linear(rng, interval, low=0.0, high=0.2)
                    rise = np.cumsum(np.append(0.0, lin.ys[1:]))
                    g = BVFunction(g.step, PiecewiseLinear(np.column_stack((lin.xs, rise))))
                w = find_positive_y(f, g)
                if w.y >= interval.b:
                    continue
                iv = positive_interval(f, g, w)
                count += 1
                # a midpoint strictly inside a stretch, before a jump-only drop
                inside += iv.b not in g.structural_points()
                for t in np.linspace(iv.a, iv.b, 12):
                    assert rs_bv(f, g, float(t)).value > 0.0
            assert count > 60
            assert inside > 0

    def test_witness_below_its_bound_is_refused(self):
        # J(0.1) = g(0.1) = -0.8 on this sloped g, below half the bound 1.2
        g = BVFunction(StepFunction(UNIT, (0.05,), (0.0, -1.0), -1.0),
                       PiecewiseLinear(((0.0, 0.0), (1.0, 2.0))))
        with pytest.raises(InternalInconsistencyError):
            positive_interval(const_pl(1.0), g, PositivityWitness(0.1, 1.2, "scan"))

    def test_sign_changing_integrand_refused(self):
        # the stretch rule needs f > 0: with this f, J(0.625) < 0 against g(x) = x
        f = PiecewiseLinear(((0.0, 1.0), (0.5, -1.0), (1.0, 3.0)))
        g = BVFunction.from_linear(PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))))
        assert rs_bv(f, g, 0.625).value == -0.0625
        with pytest.raises(PreconditionError) as err:
            positive_interval(f, g, PositivityWitness(0.1, 0.08, "scan"))
        assert err.value.reason == "positivity"

    def test_witness_at_right_end_rejected(self):
        f = const_pl(1.0)
        g = BVFunction.from_step(StepFunction(UNIT, (), (0.0,), 1.0))  # jump at b only
        w = find_positive_y(f, g)
        assert w.y == 1.0
        with pytest.raises(PreconditionError):
            positive_interval(f, g, w)
