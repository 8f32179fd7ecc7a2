"""The exact piecewise-linear paths against a rational oracle.

A piecewise-linear f against a piecewise-linear, step or mixed g, all with
dyadic knots and values, so that adding 2^k to g (k up to 40) is exact. The
oracle sums the same terms in fractions.Fraction: f(p) times each jump of g,
and slope * (x1 - x0) * (u(x0+) + u(x1-)) / 2 over each cell where both are
affine. The kernel's reads, rs_bv and curve for int f dg and
rs_pl_certified both ways round (int g df against f, and int f dg against a
piecewise-linear g), must land within 16 * (n + 1) * 2^-53 * sum|terms| of
it, and a constant added to g must not move int f dg by a single bit.
"""

import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest

from rscert.bv_core import BVFunction, Interval, PiecewiseLinear, StepFunction
from rscert.cli import main
from rscert.stieltjes import curve, rs_bv, rs_pl_certified

UNIT = Interval(0.0, 1.0)
SHIFTS = [2.0**k for k in range(41)]
GRID = 64  # knots and breakpoints on multiples of 1/GRID


class Exact:
    """A step part and a piecewise-linear part, read in exact rationals."""

    def __init__(self, breakpoints=(), piece_values=(0.0,), end_value=0.0,
                 knots=((0.0, 0.0), (1.0, 0.0))):
        self.bp = [Fraction(p) for p in breakpoints]
        self.pv = [Fraction(v) for v in piece_values]
        self.end = Fraction(end_value)
        self.kx = [Fraction(x) for x, _ in knots]
        self.ky = [Fraction(v) for _, v in knots]
        self.b = self.kx[-1]

    def lin(self, x):
        i = min(max(bisect_right(self.kx, x), 1), len(self.kx) - 1) - 1
        x0, x1, y0, y1 = self.kx[i], self.kx[i + 1], self.ky[i], self.ky[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def slope(self, x0, x1):
        """The linear part's slope on a cell [x0, x1] between knots."""
        return (self.lin(x1) - self.lin(x0)) / (x1 - x0)

    def right(self, x):
        step = self.end if x == self.b else self.pv[bisect_right(self.bp, x)]
        return step + self.lin(x)

    def left(self, x):
        return self.pv[bisect_left(self.bp, x)] + self.lin(x)

    def points(self):
        return set(self.bp) | set(self.kx)

    def jumps(self, y):
        """(point, jump) for every jump in (a, y], one-sided at b."""
        out = [(p, self.pv[i + 1] - self.pv[i]) for i, p in enumerate(self.bp) if p <= y]
        if y == self.b:
            out.append((y, self.end - self.pv[-1]))
        return out


def exact_terms(u: Exact, v: Exact, y: float) -> list[Fraction]:
    """The terms of int_a^y u dv, for u continuous at the jumps of v."""
    y = Fraction(y)
    terms = [u.right(p) * w for p, w in v.jumps(y)]
    cuts = sorted(x for x in u.points() | v.points() | {y} if x <= y)
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        terms.append(v.slope(x0, x1) * (x1 - x0) * (u.right(x0) + u.left(x1)) / 2)
    return terms


def assert_close(value: float, terms: list[Fraction]) -> None:
    bound = 16 * (len(terms) + 1) * Fraction(1, 2**53) * sum(abs(t) for t in terms)
    assert abs(Fraction(value) - sum(terms)) <= bound


def dyadic_knots(rng, lo, hi):
    xs = np.unique(rng.integers(1, GRID, size=int(rng.integers(1, 7)))) / GRID
    xs = np.concatenate(([0.0], xs, [1.0]))
    return np.column_stack((xs, rng.integers(lo * 16, hi * 16, size=len(xs)) / 16))


def random_case(rng, kind):
    """f's Exact twin, f, g_at(shift) and the ys: on a knot of f, a knot of
    g, a breakpoint, off the knots, and b. g_at builds g's Exact twin and g
    with the shift added to g's linear part (to its step part when g is a
    pure step)."""
    f_knots = dyadic_knots(rng, 0.5, 2.5)
    bp = np.unique(rng.integers(1, GRID, size=int(rng.integers(1, 6)))) / GRID
    pv = rng.integers(4, 64, size=len(bp) + 1) / 16
    end = float(rng.integers(4, 64)) / 16
    g_knots = dyadic_knots(rng, 0.25, 4.0)
    flat = [[0.0, 0.0], [1.0, 0.0]]

    def g_at(shift):
        if kind == "pl":
            return Exact(knots=g_knots + [0.0, shift]), PiecewiseLinear(g_knots + [0.0, shift])
        lin = g_knots + [0.0, shift] if kind == "mixed" else flat
        step_shift = shift if kind == "step" else 0.0
        step = StepFunction(UNIT, bp, pv + step_shift, end + step_shift)
        exact = Exact(bp, pv + step_shift, end + step_shift, lin)
        return exact, BVFunction(step, PiecewiseLinear(lin))

    ys = sorted({float(rng.choice(f_knots[1:, 0])), float(rng.choice(g_knots[1:, 0])),
                 float(rng.choice(bp)), float(rng.uniform(0.01, 1.0)), 1.0})
    return Exact(knots=f_knots), PiecewiseLinear(f_knots), g_at, ys


@pytest.mark.parametrize("kind", ["pl", "step", "mixed"])
@pytest.mark.parametrize("seed", range(6))
def test_exact_paths_against_rationals_and_shifts(kind, seed):
    rng = np.random.default_rng([seed, ["pl", "step", "mixed"].index(kind)])
    f_exact, f, g_at, ys = random_case(rng, kind)
    unshifted = None
    for shift in [0.0] + SHIFTS:
        g_exact, g = g_at(shift)
        f_dg = [rs_bv(f, g, y).value for y in ys]
        c = curve(f, g, ys)
        on_curve = c.values[np.searchsorted(c.ys, ys)].tolist()
        for y, value, read in zip(ys, f_dg, on_curve):
            terms = exact_terms(f_exact, g_exact, y)
            assert_close(value, terms)
            assert_close(read, terms)
            # int g df: its value moves with the shift, its accuracy must not
            assert_close(rs_pl_certified(g, f, y).value, exact_terms(g_exact, f_exact, y))
        outputs = f_dg + on_curve
        if kind == "pl":
            for y in ys:
                outputs.append(rs_pl_certified(f, g, y).value)
                assert_close(outputs[-1], exact_terms(f_exact, g_exact, y))
        if unshifted is None:
            unshifted = outputs
        assert outputs == unshifted, f"shift {shift}"


def test_cli_value_does_not_move_with_a_shift(tmp_path, capsys):
    # x + 2 against g of slope 2.5 on [0, 0.4] and -1.25 on [0.4, 1]:
    # 2.5 * 0.4 * (2 + 2.4) / 2 - 1.25 * 0.33 * (2.4 + 2.73) / 2 = 1.1419375
    path = tmp_path / "g.json"
    for shift in [0.0] + SHIFTS:
        knots = [[0.0, shift], [0.4, shift + 1.0], [1.0, shift + 0.25]]
        path.write_text(json.dumps({"type": "piecewise_linear", "knots": knots}))
        assert main(["integrate", "--f", "x+2", "--g", str(path), "--y", "0.73"]) == 0
        out = capsys.readouterr().out
        assert "error_bound=0.0" in out and "certified=true" in out
        value = float(out.split("value=")[1].splitlines()[0])
        assert abs(value - 1.1419375) <= 4 * math.ulp(1.1419375), f"shift {shift}"


def test_integrand_wider_than_the_integrator():
    # the exact cells run from the integrator's a: f's knot at -1 cuts none
    g = PiecewiseLinear([[0.0, 0.0], [0.4, 1.0], [1.0, 0.25]])
    wide = PiecewiseLinear([[-1.0, 1.0], [2.0, 4.0]])  # x + 2 on [-1, 2]
    assert abs(rs_bv(wide, g, 0.73).value - 1.1419375) <= 4 * math.ulp(1.1419375)
