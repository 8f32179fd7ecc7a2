"""The column float formatter against float.__repr__, on seeded values."""

import numpy as np
import pytest

from rscert._floattext import _shortest, float_texts
from rscert.bv_core import BVFunction
from rscert.cli import integrator_to_doc
from rscert.counterexample import POWER_SINE_UPPER_BOUND, build_counterexample, power_sine_family

JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def reference(values):
    return [JSON_SPELLING.get(t, t) for t in map(float.__repr__, np.asarray(values).tolist())]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    near = [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    return np.concatenate(near + [-v for v in near])


def property_values(seed):
    """About 1.07 million values: random bit patterns; uniform draws in
    every decade from 1e-30 to 1e20; integers, including exact ties above
    2^53; values rounded to 1-6 decimals; powers of two and ten, the layout
    edges and their neighbours; zeros, subnormals, extremes and non-finite."""
    rng = np.random.default_rng(seed)
    parts = [rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64)]
    for d in range(-30, 20):
        parts.append(rng.uniform(10.0**d, 10.0 ** (d + 1), 6000) * rng.choice([-1.0, 1.0], 6000))
    parts.append(rng.integers(-10**6, 10**6, 50_000).astype(np.float64))
    parts.append(rng.integers(-(2**62), 2**62, 100_000).astype(np.float64))
    parts += [np.round(u, k) for k, u in enumerate(np.split(rng.uniform(-1e4, 1e4, 300_000), 6), 1)]
    parts.append(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    parts.append(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))
    parts.append(with_neighbours([1e-4, 1e16, 1e-5, 1e15, 1e99, 1e100, 1e-99, 1e-100]))
    subnormal = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    parts += [subnormal, -subnormal]
    parts.append(np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, -1.7976931348623157e308,
                           np.nan, -np.nan, np.inf, -np.inf]))
    return np.concatenate(parts)


def test_equals_repr_on_a_million_seeded_values():
    values = property_values(20240901)
    assert values.size >= 10**6
    got, want = float_texts(values), reference(values)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong[:10], f"{len(wrong)} texts differ from repr"


@pytest.mark.parametrize("values", [[], [0.1], [-0.0, 0.0], [1.5, float("nan"), 2.5e-7]])
def test_short_columns_and_lists(values):
    assert float_texts(values) == float_texts(np.array(values)) == reference(values)


@pytest.mark.parametrize("size", [1, 7, 8192, 20001])
def test_half_zeros_skip_the_digit_search(size):
    # a brick integrator's piece_values: every other element is a zero,
    # here of either sign, among values that need the digit search
    rng = np.random.default_rng(size)
    values = rng.uniform(-2.0, 2.0, size) * 10.0 ** rng.integers(-8, 8, size)
    values[::2] = rng.choice([0.0, -0.0], values[::2].size)
    # and some that fall back on float.__repr__
    values[1::7] = np.resize([np.nan, 2.0**-60, 5e-324], values[1::7].size)
    assert float_texts(values) == reference(values)
    assert float_texts(values[::2]) == reference(values[::2])  # zeros alone


@pytest.mark.parametrize("gamma,beta", [(0.5, 1.5), (0.4, 1.8), (0.2, 1.2), (0.6, 2.5)])
def test_under_one_percent_falls_back_on_a_counterexample(gamma, beta):
    f, fam = power_sine_family(gamma)
    g, _, cert = build_counterexample(f, fam, beta, 4000, f_sup=POWER_SINE_UPPER_BOUND)
    doc = integrator_to_doc(BVFunction.from_step(g))
    records = cert.records
    values = np.concatenate([records.partial_integral, records.tail_lower_bound,
                             records.corrected, doc["breakpoints"], doc["piece_values"]])
    # float_texts writes zeros itself and hands every other element that
    # _shortest did not decide to float.__repr__
    fallback = ~(_shortest(values)[3] | (values == 0.0))
    assert fallback.sum() < 0.01 * values.size
    assert float_texts(values) == reference(values)
