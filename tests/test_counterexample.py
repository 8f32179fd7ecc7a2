"""Brick construction, partial integrals, tail bounds, thresholds, certificates."""

import math

import numpy as np
import pytest

from rscert.bv_core import DomainError, Interval
from rscert import counterexample
from rscert.funcspec import IntegrandSpec, Lipschitz, integrand_values, parse
from rscert.stieltjes import curve, rs_jump_exact
from rscert.counterexample import (
    CounterexampleParams,
    IndexRecords,
    OscillationFamily,
    ThresholdNotFound,
    build_bricks,
    build_counterexample,
    certified_threshold,
    certify_negative,
    partial_integral,
    power_sine_family,
    tail_lower_bound,
    validate_family,
    POWER_SINE_UPPER_BOUND,
    _empirical_threshold,
    _family_values,
    _index_records,
)

UNIT = Interval(0.0, 1.0)
GAMMA, BETA, N = 0.5, 1.5, 1000


@pytest.fixture(scope="module")
def family():
    return power_sine_family(GAMMA)


@pytest.fixture(scope="module")
def built(family):
    f, fam = family
    return build_counterexample(f, fam, BETA, N, f_sup=POWER_SINE_UPPER_BOUND)


class TestPowerSineFamily:
    def test_first_crest_and_trough(self, family):
        _, fam = family
        assert fam.crest(1) == pytest.approx(2.0 / math.pi, rel=1e-15)
        assert fam.trough(1) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-15)

    def test_alpha_formula(self, family):
        _, fam = family
        assert fam.alpha == pytest.approx(2.0 * (2.0 * math.pi) ** (-0.5), rel=1e-15)

    def test_rise_is_sum_of_powers(self, family):
        f, fam = family
        for n in (1, 2, 10, 137):
            rise = f.evaluate(fam.crest(n)) - f.evaluate(fam.trough(n))
            exact = fam.crest(n) ** GAMMA + fam.trough(n) ** GAMMA
            assert rise == pytest.approx(exact, abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(DomainError):
            power_sine_family(0.0)
        with pytest.raises(DomainError):
            power_sine_family(1.0)


class TestValidateFamily:
    def test_large_horizon_success(self, family):
        f, fam = family
        report = validate_family(f, fam, 10**4)
        assert report.ok
        assert report.horizon_gap < 1e-4

    def test_swapped_points_flagged_at_one(self, family):
        f, fam = family
        broken = OscillationFamily(
            accumulation_point=0.0,
            trough=fam.crest,  # swapped
            crest=fam.trough,
            alpha=fam.alpha,
            gamma=fam.gamma,
        )
        report = validate_family(f, broken, 100)
        assert not report.ok
        assert report.violation_kind == "interleaving"
        assert report.violation_index == 1

    def test_doubled_alpha_breaks_oscillation(self, family):
        f, fam = family
        greedy = OscillationFamily(
            accumulation_point=0.0,
            trough=fam.trough,
            crest=fam.crest,
            alpha=2.0 * fam.alpha,
            gamma=fam.gamma,
        )
        report = validate_family(f, greedy, 1000)
        assert not report.ok
        assert report.violation_kind == "oscillation"
        # the true rise is crest^g + trough^g ~ alpha * n^-g * (1 + o(1)); doubling
        # alpha leaves early indices valid but fails well before the horizon
        assert report.violation_index is not None
        assert 1 <= report.violation_index <= 1000

    def test_stalled_sequence_fails_convergence(self, family):
        f, fam = family
        stalled = OscillationFamily(
            accumulation_point=0.0,
            trough=lambda n: 0.5 + 0.001 / (4 * n - 1),
            crest=lambda n: 0.5 + 0.001 / (4 * n - 3),
            alpha=fam.alpha,
            gamma=fam.gamma,
        )
        report = validate_family(f, stalled, 50)
        assert not report.ok
        assert report.violation_kind in ("convergence", "oscillation")


def interleaving_reference(fam, count, b):
    """validate_family's interleaving verdict on a domain ending at b,
    (index, detail) of the first violation or None, by the per-index loop
    it once ran."""
    a = fam.accumulation_point
    troughs = [fam.trough(n) for n in range(1, count + 1)]
    crests = [fam.crest(n) for n in range(1, count + 1)]
    if not crests[0] <= b:
        return 1, f"crest(1)={float(crests[0])!r} exceeds the domain end {b!r}"
    for n in range(count):
        lo, hi = troughs[n], crests[n]
        if not (a < lo < hi):
            return n + 1, f"need {a!r} < trough < crest at n={n + 1}"
        if n + 1 < count and not crests[n + 1] < troughs[n]:
            return n + 2, f"crest({n + 2}) does not stay below trough({n + 1})"
    return None


class TestInterleavingMatchesLoopReference:
    M = 40

    @staticmethod
    def tables(m, seed=3):
        """Valid descending points: trough(n) < crest(n) < trough(n - 1),
        in tables indexed by n (entry 0 unused), padded with zeros up to the
        crest(64 * m) that the convergence check reads."""
        edges = np.sort(np.random.default_rng(seed).uniform(0.01, 1.0, size=2 * m))[::-1]
        pad = np.zeros(63 * m)
        return (np.concatenate([[np.nan], edges[1::2], pad]),
                np.concatenate([[np.nan], edges[0::2], pad]))

    def check(self, f, troughs, crests, m):
        fam = table_family(troughs, crests)
        expected = interleaving_reference(fam, m, f.interval.b)
        report = validate_family(f, fam, m)
        if expected is None:
            assert report.violation_kind != "interleaving"
        else:
            assert report.violation_kind == "interleaving"
            assert (report.violation_index, report.detail) == expected
        return expected

    def test_named_cases(self, family):
        f, _ = family
        m = self.M

        def swapped(n):
            t, c = self.tables(m)
            t[n], c[n] = c[n], t[n]
            return t, c

        def tied(n):  # crest(n + 1) == trough(n)
            t, c = self.tables(m)
            c[n + 1] = t[n]
            return t, c

        def nan_trough(n):
            t, c = self.tables(m)
            t[n] = np.nan
            return t, c

        def both_at(n):  # both checks of one index fail: the first reports
            t, c = swapped(n)
            c[n + 1] = t[n]
            return t, c

        cases = {
            "at 1": (swapped(1), (1, "need")),
            "mid-way": (swapped(m // 2), (m // 2, "need")),
            "at the last index": (swapped(m), (m, "need")),
            "tie": (tied(7), (8, "crest(8)")),
            "tie at the last index": (tied(m - 1), (m, f"crest({m})")),
            "NaN trough": (nan_trough(11), (11, "need")),
            "both checks at one index": (both_at(5), (5, "need")),
        }
        for name, ((t, c), (index, start)) in cases.items():
            expected = self.check(f, t, c, m)
            assert expected is not None and expected[0] == index, name
            assert expected[1].startswith(start), name
        assert self.check(f, *self.tables(m), m) is None

    def test_random_faults(self, family):
        f, _ = family
        rng = np.random.default_rng(34)
        found = set()
        for trial in range(300):
            m = int(rng.integers(1, 30))
            troughs, crests = self.tables(m, seed=trial)
            for _ in range(int(rng.integers(0, 4))):
                n = int(rng.integers(1, m + 1))
                fault = int(rng.integers(0, 4))
                if fault == 0:
                    troughs[n], crests[n] = crests[n], troughs[n]
                elif fault == 1 and n < m:
                    crests[n + 1] = troughs[n]
                elif fault == 2:
                    troughs[n] = float(rng.choice([0.0, -0.1, np.nan]))
                else:
                    crests[n] = troughs[n]
            expected = self.check(f, troughs, crests, m)
            found.add(None if expected is None else expected[1].split(" ")[0])
        assert {None, "need"} <= found
        assert any(kind.startswith("crest(") for kind in found - {None})


def bricks_reference(fam, beta, truncation, first):
    """build_bricks' breakpoints and piece values, or its DomainError
    message, by the per-brick loop counting down from truncation."""
    breakpoints, values = [], [0.0]
    for n in range(truncation, first - 1, -1):
        lo, hi = fam.trough(n), fam.crest(n)
        if not (fam.accumulation_point < lo < hi):
            return f"interleaving violated at n={n}"
        if breakpoints and not breakpoints[-1] < lo:
            return f"bricks overlap at n={n}"
        breakpoints += [lo, hi]
        values += [float(n) ** (-beta), 0.0]
    return breakpoints, values


def table_family(troughs, crests):
    """A family read from tables indexed by n (entry 0 unused); indexing
    takes an integer or an integer array alike."""
    return OscillationFamily(0.0, lambda n: troughs[n], lambda n: crests[n], 1.0, 0.5)


class TestBuildBricks:
    def test_matches_loop_reference(self, family):
        _, fam = family
        for beta, truncation, first in ((1.5, 1000, 1), (1.8, 4000, 6), (2.0, 1, 1), (0.7, 37, 37)):
            h = build_bricks(fam, beta, truncation, interval=UNIT, first=first)
            bp, values = bricks_reference(fam, beta, truncation, first)
            # bit for bit: heights n^-beta come from Python's pow
            assert list(map(repr, h.breakpoints.tolist())) == list(map(repr, bp))
            assert list(map(repr, h.piece_values.tolist())) == list(map(repr, values))

    def test_first_violation_counting_down_matches_loop_reference(self):
        rng = np.random.default_rng(8)
        kinds = set()
        for _ in range(300):
            m = int(rng.integers(1, 30))
            # valid descending bricks: trough(n) < crest(n) < trough(n - 1)
            edges = np.sort(rng.uniform(0.01, 1.0, size=2 * m))[::-1]
            troughs = np.concatenate([[np.nan], edges[1::2]])
            crests = np.concatenate([[np.nan], edges[0::2]])
            for _ in range(int(rng.integers(0, 4))):
                n = int(rng.integers(1, m + 1))
                fault = int(rng.integers(0, 4))
                if fault == 0:
                    troughs[n], crests[n] = crests[n], troughs[n]
                elif fault == 1 and n < m:
                    crests[n + 1] = troughs[n]
                elif fault == 2:
                    troughs[n] = float(rng.choice([0.0, -0.1, np.nan]))
                else:
                    crests[n] = troughs[n]
            fam = table_family(troughs, crests)
            first = int(rng.integers(1, m + 1))
            expected = bricks_reference(fam, 1.5, m, first)
            if isinstance(expected, str):
                with pytest.raises(DomainError) as err:
                    build_bricks(fam, 1.5, m, interval=UNIT, first=first)
                assert str(err.value) == expected
                kinds.add(expected.split(" at ")[0])
            else:
                h = build_bricks(fam, 1.5, m, interval=UNIT, first=first)
                assert h.breakpoints.tolist() == expected[0]
                kinds.add("built")
        assert kinds == {"built", "interleaving violated", "bricks overlap"}

    def test_single_brick(self, family):
        _, fam = family
        h = build_bricks(fam, 2.0, 1, interval=UNIT)
        assert h.evaluate(fam.trough(1)) == 1.0
        assert h.evaluate(fam.crest(1)) == 0.0
        assert h.evaluate(0.0) == 0.0
        assert len(h.breakpoints) == 2

    def test_two_bricks_piecewise_values(self, family):
        _, fam = family
        h = build_bricks(fam, 1.0, 2, interval=UNIT)
        t2, c2, t1, c1 = fam.trough(2), fam.crest(2), fam.trough(1), fam.crest(1)
        assert h.evaluate(0.5 * t2) == 0.0
        assert h.evaluate(0.5 * (t2 + c2)) == 0.5
        assert h.evaluate(0.5 * (c2 + t1)) == 0.0
        assert h.evaluate(0.5 * (t1 + c1)) == 1.0
        assert h.evaluate(0.5 * (c1 + 1.0)) == 0.0

    def test_full_jump_count_and_height(self, family):
        _, fam = family
        h = build_bricks(fam, BETA, N, interval=UNIT)
        assert len(h.breakpoints) == 2 * N
        assert max(h.piece_values) == 1.0
        assert h.evaluate(0.0) == 0.0

    def test_interleaving_guard(self):
        fam = OscillationFamily(
            accumulation_point=0.0,
            trough=lambda n: 0.5 / n,
            crest=lambda n: 0.9 / n,  # overlaps the next brick
            alpha=1.0,
            gamma=0.5,
        )
        with pytest.raises(DomainError):
            build_bricks(fam, 1.5, 3, interval=UNIT)


class TestPartialIntegral:
    def test_constant_integrand_kills_the_tail(self, family):
        _, fam = family
        f2 = IntegrandSpec(parse("2"), UNIT, Lipschitz(0.0))
        for n in (1, 3, 17):
            got = partial_integral(f2, fam, BETA, n, 40)
            assert got == pytest.approx(2.0 * n ** (-BETA), rel=1e-14)

    def test_last_index_has_empty_tail(self, family):
        f, fam = family
        got = partial_integral(f, fam, BETA, N, N)
        assert got == pytest.approx(N ** (-BETA) * f.evaluate(fam.trough(N)), rel=1e-14)

    def test_matches_exact_jump_integration(self, family):
        f, fam = family
        h = build_bricks(fam, BETA, N, interval=UNIT)
        rng = np.random.default_rng(17)
        for n in rng.integers(1, N + 1, size=40):
            n = int(n)
            lhs = partial_integral(f, fam, BETA, n, N)
            rhs = rs_jump_exact(f, h, fam.trough(n)).value
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_regression_pin_at_seven(self, family):
        f, fam = family
        # frozen from an independent math.fsum oracle over the same series
        assert partial_integral(f, fam, BETA, 7, N) == pytest.approx(
            -0.007574680224503916, rel=1e-10
        )

    def test_equals_the_index_records_bit_for_bit(self, family):
        f, fam = family
        records, _ = _index_records(fam, BETA, N, _family_values(f, fam, N))
        rng = np.random.default_rng(29)
        for n in [1, 2, N - 1, N] + rng.integers(1, N + 1, size=40).tolist():
            assert partial_integral(f, fam, BETA, n, N) == records.partial_integral[n - 1]

    def test_reads_f_at_bricks_n_to_truncation_only(self, family, monkeypatch):
        f, fam = family
        counts = []

        def counting(spec, xs):
            counts.append(len(xs))
            return integrand_values(spec, xs)

        monkeypatch.setattr(counterexample, "integrand_values", counting)
        for n in (1, 7, 500, N):
            counts.clear()
            partial_integral(f, fam, BETA, n, N)
            assert sum(counts) == 2 * (N - n + 1)

    def test_index_validation(self, family):
        f, fam = family
        with pytest.raises(DomainError):
            partial_integral(f, fam, BETA, 0, N)
        with pytest.raises(DomainError):
            partial_integral(f, fam, BETA, N + 1, N)


class TestTailLowerBound:
    def test_direct_substitution(self):
        assert tail_lower_bound(1.0, 1.5, 0.5, 1) == pytest.approx(1.0 / 3.0)

    def test_linear_in_alpha(self):
        assert tail_lower_bound(2.0, 1.5, 0.5, 1) == pytest.approx(2.0 / 3.0)

    def test_numeric_tail_dominates_bound(self, family):
        _, fam = family
        alpha = fam.alpha
        ks = np.arange(8, 10**6 + 1, dtype=float)
        numeric = float((alpha * ks ** (-(BETA + GAMMA))).sum())
        bound = tail_lower_bound(alpha, BETA, GAMMA, 7)
        assert bound == pytest.approx(alpha / 9.0)
        assert numeric >= bound

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            tail_lower_bound(1.0, 0.9, 0.5, 1)
        with pytest.raises(DomainError):
            tail_lower_bound(1.0, 1.5, 1.0, 1)


class TestCertifiedThreshold:
    def test_tiny_supremum_gives_one(self):
        assert certified_threshold(1e-9, 1.0, 1.5, 0.5) == 1

    def test_pinned_value_for_canonical_parameters(self, family):
        _, fam = family
        # frozen from a direct inequality scan
        assert certified_threshold(3.0, fam.alpha, BETA, GAMMA) == 18

    def test_once_below_stays_below(self, family):
        _, fam = family
        n0 = certified_threshold(3.0, fam.alpha, BETA, GAMMA)
        for n in range(n0, n0 + 500):
            assert 3.0 * n ** (-BETA) < tail_lower_bound(fam.alpha, BETA, GAMMA, n)

    def test_monotone_in_alpha_and_f_sup(self, family):
        _, fam = family
        base = certified_threshold(3.0, fam.alpha, BETA, GAMMA)
        assert certified_threshold(3.0, 2.0 * fam.alpha, BETA, GAMMA) <= base
        assert certified_threshold(6.0, fam.alpha, BETA, GAMMA) >= base


def threshold_scan(f_sup, alpha, beta, gamma, cap):
    """certified_threshold as a linear scan over n = 1..cap (None past cap)."""
    for n in range(1, cap + 1):
        if f_sup * float(n) ** (-beta) < tail_lower_bound(alpha, beta, gamma, n):
            return n
    return None


# (gamma, beta) of the counterexample instances of the certify benchmark pool
# for seeds 20240901 and 11, all at N = 4000
POOL_PARAMETERS = [
    (0.280956, 2.398857), (0.568448, 2.005169), (0.506539, 2.458713), (0.343738, 2.485402),
    (0.588249, 1.706118), (0.590676, 2.27291), (0.570941, 1.251267), (0.204234, 2.37556),
    (0.318223, 2.141811), (0.397452, 1.689787), (0.503282, 2.328204), (0.583505, 2.430328),
    (0.441112, 2.262129), (0.381463, 2.087467), (0.48762, 2.123933), (0.354718, 1.978873),
    (0.404975, 1.217015), (0.572395, 2.0939), (0.240337, 2.027873), (0.543348, 2.358775),
]


class TestThresholdBisection:
    def test_equals_the_linear_scan_on_a_seeded_grid(self):
        rng = np.random.default_rng(20240921)
        found = missing = 0
        for _ in range(200):
            gamma, beta = float(rng.uniform(0.05, 0.95)), float(rng.uniform(1.05, 3.5))
            f_sup, alpha = float(10 ** rng.uniform(-2.0, 1.5)), float(10 ** rng.uniform(-1.5, 0.5))
            cap = int(rng.integers(1, 3000))
            want = threshold_scan(f_sup, alpha, beta, gamma, cap)
            if want is None:
                missing += 1
                with pytest.raises(ThresholdNotFound, match=f"1..{cap}"):
                    certified_threshold(f_sup, alpha, beta, gamma, cap=cap)
            else:
                found += 1
                assert certified_threshold(f_sup, alpha, beta, gamma, cap=cap) == want
        assert found >= 40 and missing >= 40  # both outcomes are exercised

    @pytest.mark.parametrize("gamma,beta", POOL_PARAMETERS)
    def test_equals_the_linear_scan_on_the_pool(self, gamma, beta):
        _, fam = power_sine_family(gamma)
        want = threshold_scan(POWER_SINE_UPPER_BOUND, fam.alpha, beta, gamma, 10**6)
        assert certified_threshold(POWER_SINE_UPPER_BOUND, fam.alpha, beta, gamma) == want

    def test_no_threshold_within_the_default_cap(self):
        _, fam = power_sine_family(0.95)
        # the inequality first holds near n = 8e21
        with pytest.raises(ThresholdNotFound, match=r"1\.\.1000000"):
            certified_threshold(POWER_SINE_UPPER_BOUND, fam.alpha, 1.5, 0.95)

    def test_a_cap_below_one_finds_nothing(self):
        with pytest.raises(ThresholdNotFound):
            certified_threshold(1e-9, 1.0, 1.5, 0.5, cap=0)


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def seeded_case(seed):
    """A seeded (gamma, beta, truncation), the power-sine family of gamma,
    and the index records and running sum from its family values."""
    rng = np.random.default_rng([seed, 21])
    gamma, beta = float(rng.uniform(0.2, 0.8)), float(rng.uniform(1.2, 2.6))
    truncation = int(rng.integers(100, 6000))
    f, fam = power_sine_family(gamma)
    records, sweep = _index_records(fam, beta, truncation, _family_values(f, fam, truncation))
    return rng, beta, truncation, f, fam, records, sweep


def assert_sweep_prefix_is_curve(f, g, sweep, first, truncation):
    """The running sum through crest(first), the last jump of the bricks
    g = build_bricks(..., first), read at each breakpoint and then at b, is
    curve(f, g, [b]) bit for bit: the step values build_counterexample
    certifies."""
    b = g.interval.b
    j = curve(f, g, [b])
    count = 2 * (truncation - first + 1)
    assert same_bits(j.ys, np.append(g.breakpoints, b))
    assert same_bits(j.values[j.at_jump], sweep[1:count + 1])
    assert same_bits(j.values[-1:], sweep[count:count + 1])


class TestBrickSteps:
    """build_counterexample reads the step values off the running sum behind
    its index records; they equal curve(f, g, [b]) bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_curve_bit_for_bit(self, seed):
        rng, beta, truncation, f, fam, records, sweep = seeded_case(seed)
        low = _empirical_threshold(records) or 1
        forced = int(rng.integers(low + 1, truncation + 1)) if low < truncation else low
        for first in (low, forced):
            g = build_bricks(fam, beta, truncation, interval=f.interval, first=first)
            assert_sweep_prefix_is_curve(f, g, sweep, first, truncation)

    @pytest.mark.parametrize("seed", range(8))
    def test_partials_are_rs_jump_exact_at_every_trough(self, seed):
        _, beta, truncation, f, fam, records, _ = seeded_case(seed)
        g = build_bricks(fam, beta, truncation, interval=f.interval)
        exact = [rs_jump_exact(f, g, fam.trough(n)).value for n in range(1, truncation + 1)]
        assert same_bits(records.partial_integral, np.array(exact))

    @pytest.mark.parametrize("forced", [None, 40])
    def test_certificate_equals_certify_negative(self, family, forced):
        f, fam = family
        g, params, cert = build_counterexample(f, fam, BETA, N, f_sup=POWER_SINE_UPPER_BOUND,
                                               force_threshold=forced)
        again = certify_negative(f, g, fam, params, f_sup=POWER_SINE_UPPER_BOUND)
        assert params.threshold == (forced or cert.empirical_threshold)
        assert cert.step_failures == again.step_failures
        assert cert.verdict == again.verdict

    def test_crest_on_the_interval_end(self):
        # crest(1) = b: the breakpoint there folds away, and its jump is read at b
        count = 60
        n = np.arange(count + 1)
        troughs = np.append(0.0, 1.0 / (2.0 * n[1:]))
        crests = np.append(0.0, 1.0 / (2.0 * n[1:] - 1.0))
        fam = table_family(troughs, crests)
        f = IntegrandSpec(parse("x^2+2"), UNIT, Lipschitz(2.0))
        _, sweep = _index_records(fam, BETA, count, _family_values(f, fam, count))
        g = build_bricks(fam, BETA, count, interval=UNIT, first=1)
        assert g.breakpoints[-1] < UNIT.b
        assert_sweep_prefix_is_curve(f, g, sweep, 1, count)


class TestBuildCounterexample:
    # beta = 0.5 makes beta + gamma - 1 zero, beta = 0.9 a negative tail bound
    @pytest.mark.parametrize("beta", [0.5, 0.9, 1.0, 0.0, -1.0])
    def test_beta_at_most_one_rejected(self, family, beta):
        f, fam = family
        with pytest.raises(DomainError, match="need beta > 1"):
            build_counterexample(f, fam, beta, N, f_sup=POWER_SINE_UPPER_BOUND)
        with pytest.raises(DomainError, match="need beta > 1"):
            partial_integral(f, fam, beta, 7, N)

    def test_thresholds_and_verdict(self, built):
        g, params, cert = built
        assert cert.empirical_threshold == 6  # frozen minimal corrected threshold
        assert params.threshold == 6
        assert cert.certified_threshold == 18
        assert cert.verdict
        assert cert.family_ok and cert.analytic_ok
        assert not cert.step_failures

    def test_seven_remains_valid(self, built):
        _, _, cert = built
        assert cert.empirical_threshold <= 7
        assert cert.records.negative[cert.records.n >= 7].all()

    def test_records_are_read_only_columns(self, built):
        _, _, cert = built
        rec = cert.records
        assert rec.n.tolist() == list(range(1, N + 1))
        for col in (rec.n, rec.partial_integral, rec.tail_lower_bound, rec.corrected,
                    rec.negative):
            assert col.shape == (N,)
            with pytest.raises(ValueError):
                col[0] = col[1]
        assert (rec.corrected == rec.partial_integral - cert.remainder_bound).all()

    def test_tail_column_is_tail_lower_bound_bit_for_bit(self):
        # decay beta + gamma - 1 = 1.2, where numpy's vector ** and Python's
        # pow disagree in the last bit at some n
        gamma, beta, horizon = 0.4, 1.8, 4000
        f, fam = power_sine_family(gamma)
        _, _, cert = build_counterexample(f, fam, beta, horizon, f_sup=POWER_SINE_UPPER_BOUND)
        assert cert.records.tail_lower_bound.tolist() == [
            tail_lower_bound(fam.alpha, beta, gamma, n) for n in range(1, horizon + 1)
        ]

    def test_partials_are_computed_from_the_integrator_heights(self):
        # the certificate's partial integrals, recomputed from the brick
        # heights the built integrator holds as the jump terms in increasing
        # x, h_N f(trough N), -h_N f(crest N), ..., added one by one from 0.0,
        # bit for bit; at beta = 1.8 numpy's vector ** misses Python's pow in
        # the last bit
        gamma, beta, horizon = 0.4, 1.8, 4000
        f, fam = power_sine_family(gamma)
        g, params, cert = build_counterexample(f, fam, beta, horizon, f_sup=POWER_SINE_UPPER_BOUND)
        ns = np.arange(horizon, params.threshold - 1, -1)  # horizon .. n0, increasing x
        heights = g.piece_values[1::2]
        assert len(heights) == len(ns)
        troughs = f.evaluate_array(fam.trough(ns))
        crests = f.evaluate_array(fam.crest(ns))
        terms = np.column_stack([heights * troughs, -heights * crests]).ravel().tolist()
        running, total = [], 0.0
        for term in terms:
            total += term
            running.append(total)
        partials = cert.records.partial_integral[ns - 1]
        assert partials.tolist() == running[::2]
        # a priori: an in-order sum of k terms is within about (k - 1) * 2^-53
        # * sum |terms| of the exact sum, and math.fsum is correctly rounded
        for n in np.unique(np.linspace(params.threshold, horizon, 50).astype(int)).tolist():
            head = terms[:2 * (horizon - n) + 1]
            bound = 2 * horizon * 2.0**-53 * math.fsum(map(abs, head))
            assert abs(cert.records.partial_integral[n - 1] - math.fsum(head)) <= bound

    @pytest.mark.parametrize("negative, threshold", [
        ([True, True, True], 1),
        ([False, True, True], 2),
        ([True, False, True], 3),
        ([False, True, False, True, True], 4),
        ([True, True, False], None),
    ])
    def test_empirical_threshold_is_the_last_nonnegative_index_plus_one(self, negative, threshold):
        size = len(negative)
        zeros = np.zeros(size)
        records = IndexRecords(np.arange(1, size + 1), zeros, zeros, zeros, np.array(negative))
        assert _empirical_threshold(records) == threshold

    def test_truncation_structure(self, family, built):
        _, fam = family
        g, params, _ = built
        n0 = params.threshold
        assert g.evaluate(fam.crest(n0)) == 0.0
        assert g.evaluate(fam.trough(n0)) == pytest.approx(n0 ** (-BETA))
        assert g.evaluate(0.0) == 0.0
        assert len(g.breakpoints) == 2 * (N - n0 + 1)
        assert max(g.piece_values) == pytest.approx(n0 ** (-BETA))

    def test_built_integrator_shape(self, built):
        g, _, _ = built
        assert all(v >= 0.0 for v in g.piece_values)
        assert g.end_value >= 0.0
        assert g.evaluate(0.0) == 0.0
        assert math.isfinite(g.total_variation())
        assert g.total_variation() > 0.0

    def test_forced_threshold_seven(self, family):
        f, fam = family
        g, params, cert = build_counterexample(
            f, fam, BETA, N, f_sup=POWER_SINE_UPPER_BOUND, force_threshold=7
        )
        assert params.threshold == 7
        assert cert.verdict
        assert max(g.piece_values) == pytest.approx(7.0 ** (-1.5))

    def test_forcing_below_minimum_rejected(self, family):
        f, fam = family
        with pytest.raises(DomainError):
            build_counterexample(
                f, fam, BETA, N, f_sup=POWER_SINE_UPPER_BOUND, force_threshold=5
            )

    def test_tiny_horizon_has_no_threshold(self, family):
        f, fam = family
        with pytest.raises(ThresholdNotFound):
            build_counterexample(f, fam, BETA, 3, f_sup=POWER_SINE_UPPER_BOUND)

    def test_flat_integrand_rejected_by_family_validation(self, family):
        _, fam = family
        f2 = IntegrandSpec(parse("2"), UNIT, Lipschitz(0.0))
        with pytest.raises(DomainError):
            build_counterexample(f2, fam, BETA, 100, f_sup=2.0)


class TestIntegrandReads:
    """f is read once at each trough and each crest."""

    @pytest.fixture
    def reads(self, monkeypatch):
        from rscert import counterexample

        sizes = []
        original = counterexample.integrand_values

        def counting(f, xs):
            sizes.append(len(xs))
            return original(f, xs)

        monkeypatch.setattr(counterexample, "integrand_values", counting)
        return sizes

    def test_build_counterexample(self, family, reads):
        f, fam = family
        _, _, cert = build_counterexample(f, fam, BETA, N, f_sup=POWER_SINE_UPPER_BOUND)
        assert reads == [N, N]  # the crests, then the troughs
        assert cert.verdict

    def test_build_counterexample_sweeps_no_curve(self, family, monkeypatch):
        from rscert import counterexample

        def refuse(*args, **kwargs):
            raise AssertionError("curve evaluates f again")

        monkeypatch.setattr(counterexample, "curve", refuse)
        f, fam = family
        assert build_counterexample(f, fam, BETA, N, f_sup=POWER_SINE_UPPER_BOUND)[2].verdict

    def test_certify_negative(self, family, built, reads):
        f, fam = family
        g, params, expected = built
        cert = certify_negative(f, g, fam, params, f_sup=POWER_SINE_UPPER_BOUND)
        assert reads == [N, N]  # the troughs, then the crests
        assert cert.verdict == expected.verdict and cert.family_ok == expected.family_ok
        assert np.array_equal(cert.records.corrected, expected.records.corrected)

    def test_bad_family_reads_nothing(self, family, reads):
        f, fam = family
        swapped = OscillationFamily(fam.accumulation_point, fam.crest, fam.trough,
                                    fam.alpha, fam.gamma)
        with pytest.raises(DomainError, match="interleaving"):
            build_counterexample(f, swapped, BETA, 50, f_sup=POWER_SINE_UPPER_BOUND)
        assert reads == []


class TestCertifyNegative:
    def test_canonical_verdict(self, built):
        _, _, cert = built
        assert cert.verdict
        assert cert.remainder_bound == pytest.approx(
            tail_lower_bound(power_sine_family(GAMMA)[1].alpha, BETA, GAMMA, N)
        )

    def test_retained_extra_brick_fails(self, family):
        f, fam = family
        g_bad = build_bricks(fam, BETA, N, interval=UNIT, first=5)  # brick 5 kept
        params = CounterexampleParams(beta=BETA, truncation=N, threshold=5)
        cert = certify_negative(f, g_bad, fam, params, f_sup=POWER_SINE_UPPER_BOUND)
        assert not cert.verdict
        assert cert.step_failures
        offending = [y for y, _ in cert.step_failures]
        assert any(abs(y - fam.trough(5)) < 1e-12 for y in offending)

    def test_flat_integrand_fails(self, family):
        _, fam = family
        f2 = IntegrandSpec(parse("2"), UNIT, Lipschitz(0.0))
        g = build_bricks(fam, BETA, 200, interval=UNIT, first=7)
        params = CounterexampleParams(beta=BETA, truncation=200, threshold=7)
        cert = certify_negative(f2, g, fam, params, f_sup=2.0)
        assert not cert.verdict
        assert not cert.family_ok
        assert cert.step_failures  # the first up-jump alone exceeds the correction

    def test_certificate_notes_truncation(self, built):
        _, _, cert = built
        assert "not stored" in cert.truncation_note
        assert str(cert.truncation) in cert.truncation_note
