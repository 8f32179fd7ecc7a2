"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from rscert.bv_core import (
    BVFunction,
    jordan_decompose,
    sampled_total_variation,
    slack,
)
from rscert.stieltjes import (
    integration_by_parts_residual,
    rs_bruteforce_oracle,
    rs_bv,
    rs_jump_exact,
)
from rscert.counterexample import (
    build_bricks,
    build_counterexample,
    certify_negative,
    partial_integral,
    power_sine_family,
    tail_lower_bound,
    POWER_SINE_UPPER_BOUND,
)
from rscert.positivity import (
    WeightedMeasure,
    find_positive_y,
    gdf_bound_check,
    gronwall_verify,
    pl_times_step,
    positive_interval,
)
from rscert.cli import main as cli_main
from rscert import sampling

GAMMA, BETA, N = 0.5, 1.5, 1000
SIGN_SCALE = 1e-12


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


@pytest.fixture(scope="module")
def family():
    return power_sine_family(GAMMA)


def test_criterion_1_counterexample_certification(family):
    with criterion(1, "counterexample certification at the canonical parameters"):
        f, fam = family
        g, params, cert = build_counterexample(
            f, fam, BETA, N, f_sup=POWER_SINE_UPPER_BOUND
        )
        assert cert.empirical_threshold is not None
        assert cert.empirical_threshold <= 7
        # n0 = 7 (the figure pipeline's forced threshold) is also valid: every
        # corrected partial integral from 7 through the horizon is negative
        assert cert.records.negative[cert.records.n >= 7].all()
        assert params.threshold == cert.empirical_threshold
        assert cert.verdict
        assert not cert.step_failures
        # negativity was checked at the 1e-12-scaled slack over [trough(N), b]
        recheck = certify_negative(f, g, fam, params, f_sup=POWER_SINE_UPPER_BOUND)
        assert recheck.verdict


def test_criterion_2_partial_integral_identity(family):
    with criterion(2, "partial integrals match exact jump integration at 200 indices"):
        f, fam = family
        h = build_bricks(fam, BETA, N, interval=f.interval)
        _, _, cert = build_counterexample(f, fam, BETA, N, f_sup=POWER_SINE_UPPER_BOUND)
        rng = sampling.make_rng(202)
        indices = sorted(set(int(n) for n in rng.integers(1, N + 1, size=200)))
        assert len(indices) >= 150
        for n in indices:
            lhs = partial_integral(f, fam, BETA, n, N)
            # the certificate's own number for index n
            assert cert.records.n[n - 1] == n
            assert cert.records.partial_integral[n - 1] == lhs
            rhs = rs_jump_exact(f, h, fam.trough(n)).value
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_criterion_3_tail_bound_chain(family):
    with criterion(3, "numeric oscillation tails dominate the analytic bound for n <= 500"):
        _, fam = family
        alpha = fam.alpha
        horizon = 10**6
        ks = np.arange(2, horizon + 1, dtype=np.float64)
        terms = alpha * ks ** (-(BETA + GAMMA))
        suffix = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])
        # suffix[i] = sum over k = i+2 .. horizon, so the tail past n is suffix[n-1]
        remainder_past_horizon = alpha / (BETA + GAMMA - 1.0) * float(horizon) ** (
            -(BETA + GAMMA - 1.0)
        )  # integral comparison: sum_{k > horizon} <= alpha * horizon^-(beta+gamma-1)/(1)
        for n in range(1, 501):
            numeric_tail = float(suffix[n - 1])
            bound = tail_lower_bound(alpha, BETA, GAMMA, n)
            assert numeric_tail >= bound
            # and the infinite-sum version is consistent once the dropped
            # k > horizon remainder is added back analytically
            assert numeric_tail + remainder_past_horizon >= bound


def test_criterion_4_integration_by_parts():
    with criterion(4, "integration-by-parts residual within bounds on 1000 instances"):
        rng = sampling.make_rng(404)
        for _ in range(1000):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval)
            g = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            residual = integration_by_parts_residual(f, g, y)
            # both integrals are exact here, so the budget is numeric slack
            budget = slack(f.max_value(), g.total_variation())
            assert residual <= budget


def test_criterion_5_oracle_agreement():
    with criterion(5, "exact path agrees with the definitional sum at mesh 1e-4"):
        rng = sampling.make_rng(505)
        for _ in range(200):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval)
            g = sampling.random_bv(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            exact = rs_bv(f, g, y)
            approx = rs_bruteforce_oracle(f, g, y, mesh=1e-4)
            budget = exact.error_bound + approx.error_bound + slack(exact.value)
            assert abs(exact.value - approx.value) <= budget


def test_criterion_6_positivity_witness_suite():
    with criterion(6, "witness found and re-verified on 500 positive-case instances"):
        rng = sampling.make_rng(606)
        intervals_checked = 0
        for _ in range(500):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            witness = find_positive_y(f, g)
            check = rs_bv(f, g, witness.y)
            assert check.value - check.error_bound > 0.0
            if witness.y < interval.b:
                iv = positive_interval(f, g, witness)
                intervals_checked += 1
                for t in np.linspace(iv.a, iv.b, 10):
                    r = rs_jump_exact(f, g.step, float(t))
                    assert r.value > 0.0
        assert intervals_checked >= 400


def test_criterion_7_gdf_and_gronwall():
    with criterion(7, "gdf bound on 500 instances; Groenwall dichotomy on 100"):
        rng = sampling.make_rng(707)
        for _ in range(500):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
            y = sampling.random_upper_limit(rng, interval)
            lhs, rhs = gdf_bound_check(f, g, y)
            assert lhs <= rhs + slack(lhs, rhs)
        for i in range(100):
            interval = sampling.random_interval(rng)
            f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
            mu = WeightedMeasure(f)
            if i % 4 == 0:
                u = BVFunction.zero(interval)
            else:
                u = pl_times_step(f, sampling.random_nonnegative_step(rng, interval))
            verdict = gronwall_verify(u, mu, strictness=slack(1.0))
            if verdict.hypothesis_holds:
                assert verdict.conclusion_holds  # u stayed at (numeric) zero
            else:
                assert verdict.hypothesis_violation is not None


def test_criterion_8_unbounded_variation_diagnostic(family):
    with criterion(8, "sampled variation of the oscillating integrand diverges dyadically"):
        f, _ = family
        coarse = sampled_total_variation(f, 0.0, 0.1, 2**10)
        fine = sampled_total_variation(f, 0.0, 0.1, 2**20)
        assert fine >= coarse + 1.0
        assert fine >= coarse  # refinement by inclusion never loses variation


def test_criterion_9_figure_reproduction(tmp_path, family):
    with criterion(9, "figure CSV deterministic with the certified sign structure"):
        _, fam = family
        first = tmp_path / "fig.csv"
        again = tmp_path / "fig_again.csv"
        assert cli_main(["reproduce-figure", "--out", str(first)]) == 0
        assert cli_main(["reproduce-figure", "--out", str(again)]) == 0
        assert first.read_bytes() == again.read_bytes()
        for suffix in ("_f.csv", "_g.csv"):
            a = open(str(first)[:-4] + suffix, "rb").read()
            b = open(str(again)[:-4] + suffix, "rb").read()
            assert a == b

        rows = []
        for line in first.read_text().splitlines():
            if line.startswith("#") or line.startswith("y,"):
                continue
            y, j, flag = line.split(",")
            rows.append((float(y), float(j)))
        first_brick = fam.trough(N)
        assert all(j <= 0.0 for _, j in rows)
        assert all(j < 0.0 for y, j in rows if y >= first_brick)

        g_max = 0.0
        for line in open(str(first)[:-4] + "_g.csv"):
            if line.startswith("#") or line.startswith("x,"):
                continue
            g_max = max(g_max, float(line.split(",")[1]))
        assert 0.0 <= g_max <= 7.0 ** -1.5 + 1e-15
        assert g_max == pytest.approx(7.0 ** -1.5)


def test_criterion_10_jordan_variation_invariants():
    with criterion(10, "variation additivity and minimal Jordan split on 100 instances"):
        rng = sampling.make_rng(1010)
        for _ in range(100):
            interval = sampling.random_interval(rng)
            g = sampling.random_bv(rng, interval)
            full = g.total_variation(interval.a, interval.b)
            for _ in range(100):
                c = sampling.random_upper_limit(rng, interval)
                parts = g.total_variation(interval.a, c) + g.total_variation(c, interval.b)
                assert abs(parts - full) <= slack(full)

            pair = jordan_decompose(g)
            assert pair.pos.evaluate(interval.a) == 0.0
            assert pair.neg.evaluate(interval.a) == 0.0
            for part in (pair.pos, pair.neg):
                assert all(w >= 0.0 for _, w in part.jumps_in(interval.a, interval.b))
                assert all(s >= 0.0 for s in part.linear.slopes())
            pts = list(g.structural_points())
            probe = pts + [0.5 * (p + q) for p, q in zip(pts, pts[1:])]
            base = g.evaluate(interval.a)
            for x in probe:
                recon = pair.pos.evaluate(x) - pair.neg.evaluate(x)
                assert abs(recon - (g.evaluate(x) - base)) <= slack(recon)
            minimal = pair.pos.evaluate(interval.b) + pair.neg.evaluate(interval.b)
            assert abs(minimal - full) <= slack(full)
