"""Seeded instance pools for the two workloads.

Everything here uses numpy only and never imports ``rscert``: the pools are
plain JSON-ready dictionaries that the worker process turns into the
program's objects inside each timed operation, and that ``checks`` turns
into reference values.

Instances of one workload are built to cost about the same, so that the
latency median of a run does not depend on which instances a seed drew:
the counterexample horizon is fixed, witness integrators have a fixed
number of jumps, and the integrate workload's integrators have
equal-length sloped pieces whose refinement depth is fixed through the
tolerance.

Each workload mixes two kinds of operation in a fixed pattern, so a run of
whole passes always holds the same share of each. The shares are unequal,
so that when one kind gets much faster than the other, the latency median
still falls inside one kind's cluster rather than in the gap between them.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SEED = 20240901
# The default-tolerance Sampled operations of the integrate workload fail
# every time today (see README); their instances come from this constant,
# not from --seed, so the failure count cannot depend on the seed.
MODULUS_FIXED_SEED = 7

# One pass of each workload. certify: c counterexample, w witness; both cost
# about 0.18 s today, and counterexample is five eighths of a pass.
# integrate: l Lipschitz (~20 ms), s Sampled (~0.17 s). Sampled operations
# are a sixteenth of a pass, so the latency median and 90th percentile fall
# among the Lipschitz ones; they take about two fifths of the wall time and
# so a share of ops_per_s. Their pure-Python loop slows most when the
# machine does (see README), which is why they do not hold a percentile.
CERTIFY_PATTERN = "cwcwcwcc" * 2
INTEGRATE_PATTERN = ("l" * 15 + "s") * 4

COUNTEREXAMPLE_N = 4000
COUNTEREXAMPLE_POOL = CERTIFY_PATTERN.count("c")
GAMMA_RANGE = (0.2, 0.6)
BETA_RANGE = (1.2, 2.5)

WITNESS_POOL = CERTIFY_PATTERN.count("w")
WITNESS_SLOPED_AT = (2, 5)  # positions of the mixed integrators among them
WITNESS_JUMPS = 900
WITNESS_SLOPED_JUMPS = 300
WITNESS_SLOPED_PIECES = 42
WITNESS_F_KNOTS = 12

QUADRATURE_POOL = INTEGRATE_PATTERN.count("l")
QUADRATURE_JUMPS = 300
QUADRATURE_PIECES = 32
QUADRATURE_ROUNDS = 13  # midpoints per operation: 32 * 2^13 = 262144

MODULUS_DEFAULT = 1  # Sampled instances per pass at the default tolerance
MODULUS_OK = INTEGRATE_PATTERN.count("s") - MODULUS_DEFAULT
MODULUS_RESOLUTION = 2**12
MODULUS_SAFETY = 1.5
MODULUS_PIECES = 4
MODULUS_JUMPS = 100
MODULUS_OK_CELLS = 4  # the tolerance is met once the midpoint spacing is 4 grid cells
DEFAULT_TOL = 1e-9  # rscert's default tolerance for rs_bv


def _distinct_sorted(rng: np.random.Generator, lo: float, hi: float, count: int) -> list[float]:
    """count sorted points in (lo, hi), at least 1e-3 of the span apart."""
    span = hi - lo
    while True:
        pts = np.sort(rng.uniform(lo + 1e-3 * span, hi - 1e-3 * span, size=count))
        if count < 2 or np.diff(pts).min() > 1e-6 * span:
            return [float(p) for p in pts]


def _interval(rng: np.random.Generator, length: float | None = None) -> list[float]:
    a = float(rng.uniform(-1.0, 1.0))
    b = a + (float(rng.uniform(1.0, 2.0)) if length is None else length)
    return [a, b]


# -- counterexample -----------------------------------------------------------


def counterexample_instances(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    return [
        {
            "kind": "counterexample",
            "gamma": round(float(rng.uniform(*GAMMA_RANGE)), 6),
            "beta": round(float(rng.uniform(*BETA_RANGE)), 6),
            "N": COUNTEREXAMPLE_N,
        }
        for _ in range(COUNTEREXAMPLE_POOL)
    ]


# -- witness ------------------------------------------------------------------


def _positive_pl(rng: np.random.Generator, a: float, b: float) -> list[list[float]]:
    """Integrand knots with values in [1, 2]: certified positive, bounded ratio."""
    xs = [a] + _distinct_sorted(rng, a, b, WITNESS_F_KNOTS - 2) + [b]
    ys = rng.uniform(1.0, 2.0, size=len(xs))
    return [[x, float(y)] for x, y in zip(xs, ys)]


def _mostly_rising_step(rng: np.random.Generator, a: float, b: float, jumps: int) -> dict:
    """g >= 0, g(a) = 0; every tenth jump falls by at most a quarter of the
    rise before it. With the integrand in [1, 2], the cumulative integral
    then never falls below its value at the first jump, so the positive
    stretch after the witness runs to b and its search visits every jump."""
    bp = _distinct_sorted(rng, a, b, jumps)
    level = 0.0
    values = [0.0]
    last_rise = 0.0
    for k in range(jumps):
        if k % 10 == 9:
            level -= float(rng.uniform(0.05, 0.25)) * last_rise
        else:
            last_rise = float(rng.uniform(0.5, 1.5))
            level += last_rise
        values.append(level)
    return {"breakpoints": bp, "piece_values": values, "end_value": level}


def _rising_pl(rng: np.random.Generator, a: float, b: float, pieces: int) -> list[list[float]]:
    """Non-decreasing from 0 at a, with one flat piece in four."""
    xs = [a] + _distinct_sorted(rng, a, b, pieces - 1) + [b]
    ys = [0.0]
    for k in range(pieces):
        ys.append(ys[-1] + (0.0 if k % 4 == 3 else float(rng.uniform(0.5, 1.5))))
    return [[x, y] for x, y in zip(xs, ys)]


def witness_instances(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    pool = []
    for i in range(WITNESS_POOL):
        a, b = _interval(rng)
        sloped = i in WITNESS_SLOPED_AT
        jumps = WITNESS_SLOPED_JUMPS if sloped else WITNESS_JUMPS
        inst = {
            "kind": "witness",
            "interval": [a, b],
            "f_knots": _positive_pl(rng, a, b),
            "g_step": _mostly_rising_step(rng, a, b, jumps),
            "g_knots": _rising_pl(rng, a, b, WITNESS_SLOPED_PIECES) if sloped else [[a, 0.0], [b, 0.0]],
        }
        pool.append(inst)
    return pool


def certify_pool(seed: int) -> list[dict]:
    """Counterexample and witness instances in CERTIFY_PATTERN order."""
    kinds = {"c": iter(counterexample_instances(seed)), "w": iter(witness_instances(seed))}
    return [next(kinds[k]) for k in CERTIFY_PATTERN]


# -- quadrature and modulus ---------------------------------------------------


def expression_text(c: dict) -> str:
    """c0 + c1*x + c2*x^2 + a1*sin(w1*x + p1) + a2*cos(w2*x + p2)."""
    r = repr
    return (
        f"{r(c['c0'])} + {r(c['c1'])}*x + {r(c['c2'])}*x^2"
        f" + {r(c['a1'])}*sin({r(c['w1'])}*x + {r(c['p1'])})"
        f" + {r(c['a2'])}*cos({r(c['w2'])}*x + {r(c['p2'])})"
    )


def lipschitz_constant(c: dict, a: float, b: float) -> float:
    """sup |f'| <= |c1| + 2|c2| max|x| + |a1 w1| + |a2 w2| on [a, b]."""
    return (abs(c["c1"]) + 2.0 * abs(c["c2"]) * max(abs(a), abs(b))
            + abs(c["a1"] * c["w1"]) + abs(c["a2"] * c["w2"]))


def _smooth_coefficients(rng: np.random.Generator, convex: bool, a: float, b: float) -> dict:
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    c = {"c0": u(2.0, 4.0)}
    if convex:
        # f'' >= 2 c2 - a1 w1^2 - a2 w2^2 >= 1.6 c2 > 0, so every midpoint
        # sum falls short of the integral by a definite amount; f' >= 1 as
        # well, so every instance gives the sliding-window loop the same
        # rising data to walk
        c["c2"] = u(1.0, 2.0)
        c["w1"], c["w2"] = u(1.0, 3.0), u(1.0, 3.0)
        c["a1"] = 0.2 * c["c2"] / c["w1"] ** 2
        c["a2"] = 0.2 * c["c2"] / c["w2"] ** 2
        c["c1"] = (u(1.0, 2.0) + 2.0 * c["c2"] * max(abs(a), abs(b))
                   + c["a1"] * c["w1"] + c["a2"] * c["w2"])
    else:
        c["c1"], c["c2"] = u(-1.0, 1.0), u(-1.0, 1.0)
        c["w1"], c["w2"] = u(2.0, 12.0), u(2.0, 12.0)
        c["a1"], c["a2"] = u(0.2, 1.0), u(0.2, 1.0)
    c["p1"], c["p2"] = u(0.0, 2.0 * math.pi), u(0.0, 2.0 * math.pi)
    return c


def _mixed_integrator(rng: np.random.Generator, a: float, b: float, jumps: int,
                      pieces: int, rising: bool) -> tuple[dict, list[list[float]]]:
    bp = _distinct_sorted(rng, a, b, jumps)
    # small jumps keep the rounding of the jump sum well below the midpoint error
    values = [0.0] + [float(v) for v in np.cumsum(rng.uniform(-0.1, 0.1, size=jumps))]
    step = {"breakpoints": bp, "piece_values": values, "end_value": values[-1]}
    xs = np.linspace(a, b, pieces + 1)
    rises = rng.uniform(0.2, 1.0, size=pieces) if rising else rng.uniform(-1.0, 1.0, size=pieces)
    ys = np.concatenate([[0.0], np.cumsum(rises)])
    return step, [[float(x), float(y)] for x, y in zip(xs, ys)]


def _slopes(knots: list[list[float]]) -> tuple[np.ndarray, np.ndarray]:
    k = np.asarray(knots)
    lengths = np.diff(k[:, 0])
    return lengths, np.diff(k[:, 1]) / lengths


def quadrature_instance(rng: np.random.Generator) -> dict:
    a, b = _interval(rng, length=1.0)
    c = _smooth_coefficients(rng, False, a, b)
    step, knots = _mixed_integrator(rng, a, b, QUADRATURE_JUMPS, QUADRATURE_PIECES, rising=False)
    lipschitz = lipschitz_constant(c, a, b)
    lengths, slopes = _slopes(knots)
    # first-order bound after QUADRATURE_ROUNDS halvings of the piece length;
    # 1.5x lets that round meet it while the round before (twice the bound) does not
    width = lengths.max() / 2.0**QUADRATURE_ROUNDS
    bound = lipschitz * float(np.sum(np.abs(slopes) * lengths)) * width
    return {
        "kind": "quadrature",
        "interval": [a, b],
        "coeffs": c,
        "expr": expression_text(c),
        "modulus": ["lipschitz", lipschitz],
        "g_step": step,
        "g_knots": knots,
        "y": b,
        "tol": 1.5 * bound,
    }


def smooth_values(c: dict, xs: np.ndarray) -> np.ndarray:
    """The generated integrand, evaluated with the operations its text names."""
    return (c["c0"] + c["c1"] * xs + c["c2"] * xs**2
            + c["a1"] * np.sin(c["w1"] * xs + c["p1"])
            + c["a2"] * np.cos(c["w2"] * xs + c["p2"]))


def _grid_oscillation(values: np.ndarray, cells: int) -> float:
    windows = np.lib.stride_tricks.sliding_window_view(values, cells + 1)
    return float((windows.max(axis=1) - windows.min(axis=1)).max())


def modulus_instance(rng: np.random.Generator, tol: float | None) -> dict:
    """Convex integrand, rising linear part, Sampled modulus at 2^12 points.

    With tol None the tolerance is one the sampled bound meets with a
    positive bound: 1.25 times the bound at a midpoint spacing of
    MODULUS_OK_CELLS grid cells, which the spacing twice as wide misses.
    """
    a, b = _interval(rng, length=1.0)
    c = _smooth_coefficients(rng, True, a, b)
    step, knots = _mixed_integrator(rng, a, b, MODULUS_JUMPS, MODULUS_PIECES, rising=True)
    if tol is None:
        lengths, slopes = _slopes(knots)
        grid = smooth_values(c, np.linspace(a, b, MODULUS_RESOLUTION + 1))
        weight = float(np.sum(np.abs(slopes) * lengths))
        tol = 1.25 * MODULUS_SAFETY * weight * _grid_oscillation(grid, MODULUS_OK_CELLS)
    return {
        "kind": "quadrature",
        "interval": [a, b],
        "coeffs": c,
        "expr": expression_text(c),
        "modulus": ["sampled", MODULUS_RESOLUTION, MODULUS_SAFETY],
        "g_step": step,
        "g_knots": knots,
        "y": b,
        "tol": tol,
    }


def integrate_pool(seed: int) -> list[dict]:
    """Lipschitz and Sampled instances in INTEGRATE_PATTERN order; the last
    Sampled instance runs at the default tolerance."""
    lipschitz_rng = np.random.default_rng([seed, 3])
    sampled_rng = np.random.default_rng([seed, 4])
    fixed = np.random.default_rng([MODULUS_FIXED_SEED, 5])
    sampled = ([modulus_instance(sampled_rng, None) for _ in range(MODULUS_OK)]
               + [modulus_instance(fixed, DEFAULT_TOL) for _ in range(MODULUS_DEFAULT)])
    kinds = {"l": iter([quadrature_instance(lipschitz_rng) for _ in range(QUADRATURE_POOL)]),
             "s": iter(sampled)}
    return [next(kinds[k]) for k in INTEGRATE_PATTERN]


POOLS = {
    "certify": certify_pool,
    "integrate": integrate_pool,
}
