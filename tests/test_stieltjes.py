"""Integration paths: exact jump sums, certified quadrature, the brute-force
oracle, integration by parts, and cumulative curves."""

import functools
import itertools
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
    EVALUATION_BUDGET,
    EvaluationError,
    Hoelder,
    IntegrandSpec,
    Lipschitz,
    Sampled,
    integrand_modulus,
    integrand_values,
    parse,
)
from rscert.stieltjes import (
    ToleranceNotReached,
    curve,
    integration_by_parts_residual,
    rs_bruteforce_oracle,
    rs_bv,
    rs_jump_exact,
    rs_pl_certified,
)
from rscert.counterexample import build_bricks, power_sine_family
from rscert import funcspec, sampling, stieltjes

UNIT = Interval(0.0, 1.0)
IDENTITY = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))
# the integrate benchmark's kind of integrand; |f'| <= 11.4 on [0, 1]
SMOOTH = "3+0.5*x+0.9*x^2+0.4*sin(9.4*x+2.4)+0.6*cos(8.9*x+0.3)"


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


def reference_bound(f, pieces, width):
    """The quadrature's bound over pieces (lo, hi, slope) at width, by the
    per-piece loop it replaced: each piece gets max(1, ceil(length / width))
    midpoints."""
    total = 0.0
    for lo, hi, s in pieces:
        length = hi - lo
        n = max(1, math.ceil(length / width))
        total += abs(s) * length * integrand_modulus(
            f, min(length / n, f.interval.length) / (1.0 if f.heuristic else 4.0))
    return total


def reference_inverse(f, eps):
    """sup{delta in (0, length] : modulus_at(delta) <= eps}: the closed forms
    for Lipschitz and Hoelder, and for Sampled a bisection over the positive
    floats themselves, which are ordered as their bit patterns."""
    length = f.interval.length
    if f.modulus_at(length) <= eps:
        return length
    m = f.modulus
    if isinstance(m, Lipschitz):
        return eps / m.constant
    if isinstance(m, Hoelder):
        return (eps / m.constant) ** (1.0 / m.exponent)
    bits = np.array([5e-324, length]).view(np.int64).tolist()  # modulus_at within, beyond eps
    while bits[1] - bits[0] > 1:
        middle = (bits[0] + bits[1]) // 2
        bits[f.modulus_at(float(np.int64(middle).view(np.float64))) > eps] = middle
    return float(np.int64(bits[0]).view(np.float64))


def reference_width(f, pieces, tol):
    """(width, bound) that the quadrature's fitted rule over pieces ends
    with, by a per-piece loop: 4 * delta* (delta* when Sampled) for the
    widest delta* with omega(delta*) <= (tol - charged) / (sum of |s| *
    length over the other pieces), where the pieces no longer than that
    width, shortest first, are charged at their own length, until no more
    fall under it; narrowed by a relative 2^-20 while rounding carries the
    bound past tol; over the budget, the sum of the lengths over (budget -
    pieces)."""
    scale = 1.0 if f.heuristic else 4.0
    lengths = [hi - lo for lo, hi, _ in pieces]
    weights = [abs(s) * (hi - lo) for lo, hi, s in pieces]
    short, charged = set(), 0.0
    while True:
        rest = 0.0
        for k, weight in enumerate(weights):
            if k not in short:
                rest += weight
        width = reference_inverse(f, max(0.0, tol - charged) / rest if rest > 0.0 else math.inf) * scale
        newly = sorted((k for k, length in enumerate(lengths) if k not in short and length <= width),
                       key=lambda k: (lengths[k], k))
        if not newly:
            break
        for k in newly:
            charged += weights[k] * integrand_modulus(f, min(lengths[k], f.interval.length) / scale)
        short.update(newly)
    total = 0.0
    for length in lengths:
        total += length

    def points(width):
        return sum(max(1, math.ceil((hi - lo) / width)) for lo, hi, _ in pieces)

    if width * EVALUATION_BUDGET >= total and points(width) <= EVALUATION_BUDGET:
        bound = reference_bound(f, pieces, width)
        for _ in range(funcspec._ROUNDING_STEPS):
            narrower = width * (1.0 - 2.0**-20)
            if bound <= tol or points(narrower) > EVALUATION_BUDGET:
                break
            width, bound = narrower, reference_bound(f, pieces, narrower)
        return width, bound
    if len(pieces) < EVALUATION_BUDGET:
        width = total / (EVALUATION_BUDGET - len(pieces))
    else:
        width = max(hi - lo for lo, hi, _ in pieces)
    return width, reference_bound(f, pieces, width)


def halving_width(f, pieces, tol):
    """(width, bound) that the quadrature's earlier refinement ended with:
    the width halved from the longest piece until the bound met tol or the
    midpoints would exceed the budget, keeping the best bound seen."""
    bound_at = functools.partial(reference_bound, f, pieces)
    width = max(hi - lo for lo, hi, _ in pieces)
    best_width, best_bound = width, bound_at(width)
    while best_bound > tol:
        width /= 2.0
        points_needed = sum(max(1, math.ceil((hi - lo) / width)) for lo, hi, _ in pieces)
        if points_needed > EVALUATION_BUDGET:
            break
        candidate = bound_at(width)
        if candidate < best_bound:
            best_width, best_bound = width, candidate
    return best_width, best_bound


def midpoint_counts(f, pieces, tol):
    """Each piece's midpoint count at the width reference_width ends with."""
    width, _ = reference_width(f, pieces, tol)
    return [max(1, math.ceil((hi - lo) / width)) for lo, hi, _ in pieces]


def curve_reference(f, lin, grid, tol):
    """(values, bounds) of curve(f, lin, grid, tol) for an f with no exact
    form, by the per-cell loop it replaced: the cells lie between a, lin's
    knots and the grid points, and each is read with its own midpoint array."""
    cuts = sorted({lin.interval.a, *grid, *(x for x in lin.xs.tolist() if x <= grid[-1])})
    cells = [clipped_pieces_reference(lin, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    width, _ = reference_width(f, [piece for cell in cells for piece in cell], tol)
    value = bound = 0.0
    at = {}
    for hi, cell in zip(cuts[1:], cells):
        for lo, _, s in cell:  # empty where lin is flat
            length = hi - lo
            n = max(1, math.ceil(length / width))
            mids = lo + (np.arange(n) + 0.5) * (length / n)
            value += s * (length / n) * float(integrand_values(f, mids).sum())
            bound += reference_bound(f, cell, width)
        at[hi] = (value, bound)
    return [at[y][0] for y in grid], [at[y][1] for y in grid]


def quadrature_reference(f, g, y, tol):
    """rs_pl_certified(f, g, y, tol) for an f with no exact form, by the
    per-piece loop it replaced: (value, bound, certified, message), with
    the message of ToleranceNotReached, or None when the bound meets tol."""
    if not clipped_pieces_reference(g, g.interval.a, y):
        return 0.0, 0.0, True, None
    (value,), (bound,) = curve_reference(f, g, [y], tol)
    message = None
    if bound > tol:
        message = f"tolerance {tol} unreachable within the refinement cap; best bound {bound}"
    return value, bound, not f.heuristic, message


def random_slopes_pl(rng, xs, flat=()):
    """A PiecewiseLinear on the knots xs with random rises, 0 on the pieces in flat."""
    rises = rng.uniform(-1.0, 1.0, len(xs) - 1)
    rises[list(flat)] = 0.0
    return PiecewiseLinear(np.column_stack((xs, np.append(0.0, np.cumsum(rises)))))


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


    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_rejected_on_a_pure_step_integrator(self, tol):
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.25, 0.5))
        for call in (lambda: rs_bv(IDENTITY, g, 1.0, tol), lambda: curve(IDENTITY, g, [0.5, 1.0], tol)):
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


def random_quadrature_instances(seed, count):
    """(f, g, y, tol, on_knot) for sin(3x) + x^2 under the three moduli in
    turn, against a random mixed integrator g, with y on one of g's knots
    past a in every other instance (where g has an inner knot) and tol one
    of 1e-2, 1e-4 and 1e-7."""
    rng = sampling.make_rng(seed)
    moduli = (Lipschitz(9.0), Hoelder(13.0, 0.5), Sampled(512, 1.5))
    for i in range(count):
        interval = sampling.random_interval(rng)
        lin = sampling.random_piecewise_linear(rng, interval)
        g = BVFunction(sampling.random_step(rng, interval), lin)
        f = IntegrandSpec(parse("sin(3*x) + x^2"), interval, moduli[i % 3])
        on_knot = i % 2 == 0 and len(lin.xs) > 2
        y = float(rng.choice(lin.xs[1:])) if on_knot else sampling.random_upper_limit(rng, interval)
        yield f, g, y, float(rng.choice([1e-2, 1e-4, 1e-7])), on_knot


class TestQuadratureKernel:
    def test_single_limit_matches_per_piece_reference_bit_for_bit(self):
        seen = set()
        for f, g, y, tol, on_knot in random_quadrature_instances(1717, 45):
            lin, modulus = g.linear, f.modulus
            value, bound, certified, message = quadrature_reference(f, lin, y, tol)
            jump = rs_jump_exact(f, g.step, y).value
            if message is None:
                r, rb = rs_pl_certified(f, lin, y, tol), rs_bv(f, g, y, tol)
                assert (r.value.hex(), r.error_bound.hex(), r.certified) == (
                    value.hex(), bound.hex(), certified)
                assert (rb.value.hex(), rb.error_bound.hex()) == ((jump + value).hex(), bound.hex())
            else:
                # the raise carries the whole integral: rs_bv's jumps included
                for call, whole in ((lambda: rs_pl_certified(f, lin, y, tol), value),
                                    (lambda: rs_bv(f, g, y, tol), jump + value)):
                    with pytest.raises(ToleranceNotReached) as err:
                        call()
                    assert str(err.value) == message
                    assert (err.value.value.hex(), err.value.error_bound.hex()) == (
                        whole.hex(), bound.hex())
            seen.add((type(modulus).__name__, on_knot, message is None))
        assert {(m, k) for m, k, _ in seen} == {
            (m, k) for m in ("Lipschitz", "Hoelder", "Sampled") for k in (True, False)}
        assert {met for _, _, met in seen} == {True, False}

    def test_fitted_read_against_the_halving(self, monkeypatch):
        """Wherever the earlier halving met tol, the fitted width meets it too,
        and is at least half the halving's: at half its width, the halving's
        own bound already charges every piece at least what the fitted rule
        does. So the fitted read evaluates at most twice the midpoints, and
        in all about three quarters of them."""
        points = []
        values_of = funcspec.integrand_values
        monkeypatch.setattr(funcspec, "integrand_values",
                            lambda f, xs: points.append(len(xs)) or values_of(f, xs))
        met = {"halving": 0, "fitted": 0}
        shares = {"Lipschitz": [], "Hoelder": [], "Sampled": []}
        for f, g, y, tol, _ in random_quadrature_instances(1818, 300):
            pieces = clipped_pieces_reference(g.linear, f.interval.a, y)
            fitted, bound = reference_width(f, pieces, tol)
            met["fitted"] += bound <= tol
            width, bound = halving_width(f, pieces, tol)
            if bound > tol:
                continue
            met["halving"] += 1
            assert fitted >= width / 2.0
            points.clear()
            r = rs_pl_certified(f, g.linear, y, tol)
            assert r.error_bound <= tol
            halving_points = sum(max(1, math.ceil((hi - lo) / width)) for lo, hi, _ in pieces)
            assert sum(points) <= 2 * halving_points
            shares[type(f.modulus).__name__].append(sum(points) / halving_points)
        assert met["fitted"] >= met["halving"] >= 150
        # the halving's bound lands anywhere in (tol/2, tol], the fitted one near tol
        assert all(np.mean(share) < 0.8 for share in shares.values())

    def test_sampled_inverse_is_the_supremum(self):
        """delta* = f._modulus_inverse(eps) for eps across the window
        oscillations of seeded Sampled specs: the modulus there is within
        eps, and at the next float beyond it; below the one-cell oscillation,
        delta* lies just under one grid cell, where the bound is 0."""
        rng = sampling.make_rng(1919)
        for _ in range(6):
            interval = sampling.random_interval(rng)
            a, w = (float(v) for v in rng.uniform([0.5, 2.0], [2.0, 9.0]))
            f = IntegrandSpec(parse(f"{a!r}*sin({w!r}*x) + x^2"), interval,
                              Sampled(int(rng.integers(64, 1024)), 1.5))
            cell = interval.length / f.modulus.resolution
            levels = sorted({f.modulus_at(min(k * cell, interval.length))
                             for k in range(1, f.modulus.resolution + 1)})
            for eps in levels[:-1] + [(lo + hi) / 2.0 for lo, hi in zip(levels, levels[1:])]:
                delta = f._modulus_inverse(eps)
                assert 0.0 < delta < interval.length
                assert f.modulus_at(delta) <= eps < f.modulus_at(math.nextafter(delta, math.inf))
            assert f._modulus_inverse(levels[-1]) == interval.length
            delta = f._modulus_inverse(levels[0] / 2.0)
            assert f.modulus_at(delta) == 0.0 and cell * (1.0 - 1e-6) < delta < cell
            # the zero-bound regime: a bound of 0, not met and not certified, never a raise
            r = rs_pl_certified(f, PiecewiseLinear(((interval.a, 0.0), (interval.b, 1.0))),
                                interval.b, 1e-12)
            assert (r.error_bound, r.certified) == (0.0, False)

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
        # the budget width depends on the number of cells, three here
        values, bounds = curve_reference(f, IDENTITY, [0.25, 0.5, 1.0], 1e-13)
        assert str(err.value) == (
            f"tolerance 1e-13 unreachable within the refinement cap; best bound {bounds[-1]}")
        assert (err.value.value.hex(), err.value.error_bound.hex()) == (values[-1].hex(), bounds[-1].hex())
        assert err.value.error_bound > 1e-13

    # (knots on [0, 1], flat pieces, a width whose bound, times 1.1, is tol);
    # the midpoint counts below are those of the three moduli's fitted widths
    READ_SHAPES = {
        # 32 equal cells of 1025-1862 midpoints: a run cut into blocks of whole rows
        "equal": (np.arange(33) / 32.0, (), 1.0 / 32.0 / 2**11),
        # 13546-16385 midpoints on [0, 0.25] (one row over the block size when
        # Sampled), then 30 cells of 1355-1639: blocks of 9-12 rows
        "uneven": (np.append(0.0, np.append(0.25 + 0.025 * np.arange(30), 1.0)), (), 0.25 / 2**14),
        # 27082-29790 midpoints on [0, 0.9]: one row over the block size
        "long": (np.array([0.0, 0.9, 1.0]), (), 0.9 / 2**15),
        # ten cells of length 1e-6 get one midpoint each, around a flat one
        "short": (np.concatenate(([0.0], 0.5 + 1e-6 * np.arange(11), [1.0])), (3,), 0.5 / 2**10),
        # lengths 2/30 and 1/30 alternate: every run is one cell
        "alternating": (np.cumsum(np.append(0.0, np.tile([2.0, 1.0], 15))) / 30.0, (), 2.0 / 30.0 / 2**8),
    }

    def test_batched_read_matches_per_piece_reference_bit_for_bit(self, monkeypatch):
        # the reference asks omega once per piece; a Sampled window oscillation
        # over 2^16 grid cells is worth reading once per delta
        monkeypatch.setitem(globals(), "integrand_modulus",
                            functools.cache(lambda f, d: f.modulus_at(d)))
        rng = sampling.make_rng(2424)
        block = funcspec._BLOCK_POINTS
        moduli = (Lipschitz(12.0), Hoelder(12.0, 0.5), Sampled(2**16, 1.5))
        seen = set()
        for xs, flat, width in self.READ_SHAPES.values():
            lin = random_slopes_pl(rng, xs, flat)
            pieces = clipped_pieces_reference(lin, 0.0, 1.0)
            for modulus in moduli:
                f = IntegrandSpec(parse(SMOOTH), UNIT, modulus)
                tol = 1.1 * reference_bound(f, pieces, width)
                value, bound, certified, message = quadrature_reference(f, lin, 1.0, tol)
                assert message is None
                r = rs_pl_certified(f, lin, 1.0, tol)
                assert (r.value.hex(), r.error_bound.hex(), r.certified) == (
                    value.hex(), bound.hex(), certified)
                runs = [(n, len(list(run))) for n, run in itertools.groupby(midpoint_counts(f, pieces, tol))]
                kinds = {"split" for n, k in runs if n <= block < n * k}
                kinds |= {"long" for n, _ in runs if n > block} | {"one" for n, _ in runs if n == 1}
                if len(runs) == len(pieces) > 2:
                    kinds.add("alternating")
                seen |= {(kind, type(modulus).__name__) for kind in kinds}
        assert seen == {(kind, m) for kind in ("split", "long", "one", "alternating")
                        for m in ("Lipschitz", "Hoelder", "Sampled")}

    def test_budget_stop_matches_per_piece_reference_bit_for_bit(self):
        lin = random_slopes_pl(sampling.make_rng(2425), np.arange(33) / 32.0)
        f = IntegrandSpec(parse(SMOOTH), UNIT, Lipschitz(12.0))
        value, bound, _, message = quadrature_reference(f, lin, 1.0, 1e-13)
        assert message is not None
        # the width is the sum of the lengths over (budget - cells), which
        # leaves each cell at most one midpoint short of its share
        pieces = clipped_pieces_reference(lin, 0.0, 1.0)
        assert midpoint_counts(f, pieces, 1e-13) == [EVALUATION_BUDGET // 32 - 1] * 32
        with pytest.raises(ToleranceNotReached) as err:
            rs_pl_certified(f, lin, 1.0, 1e-13)
        assert str(err.value) == message
        assert (err.value.value.hex(), err.value.error_bound.hex()) == (value.hex(), bound.hex())

    def test_curve_matches_per_cell_reference_bit_for_bit(self):
        rng = sampling.make_rng(2426)
        lin = random_slopes_pl(rng, np.linspace(0.0, 1.0, 17), flat=(5,))
        f = IntegrandSpec(parse(SMOOTH), UNIT, Lipschitz(12.0))
        grid = np.sort(rng.uniform(0.0, 1.0, 50))
        c = curve(f, lin, grid, 1e-4)
        values, bounds = curve_reference(f, lin, grid.tolist(), 1e-4)
        assert [v.hex() for v in c.values.tolist()] == [v.hex() for v in values]
        assert [v.hex() for v in c.error_bounds.tolist()] == [v.hex() for v in bounds]

    def test_undefined_midpoint_is_reported_at_the_leftmost(self):
        # 5 midpoints on [0, 0.5], then 2 on [0.5, 0.7]: the poles at the
        # second midpoint of each, so a read of the second cell first would
        # name 0.6499999999999999
        g = PiecewiseLinear(((0, 0), (0.5, 1), (0.7, 2), (1, 2)))
        f = IntegrandSpec(parse("1/(x-0.15000000000000002) + 1/(x-0.6499999999999999)"), UNIT,
                          Lipschitz(1.0))
        assert midpoint_counts(f, clipped_pieces_reference(g, 0.0, 0.7), 0.05) == [5, 2]
        with pytest.raises(EvaluationError, match=r"^expression undefined at x=0\.15000000000000002$"):
            rs_pl_certified(f, g, 0.7, 0.05)

    def test_workload_shaped_read_counts(self, monkeypatch):
        """32 equal sloped cells and two jumps, with tol 1.5 times the bound
        at 2048 midpoints a cell, as in the integrate benchmark: the fitted
        width gives each cell ceil(2048 / 1.5) = 1366 midpoints where the
        halving gave 2048; the points are read in whole blocks, the same
        points as the per-piece loop, and omega is asked once per distinct
        delta."""
        lin = random_slopes_pl(sampling.make_rng(2427), np.arange(33) / 32.0)
        g = BVFunction(StepFunction(UNIT, (0.3, 0.6), (0.0, 0.05, -0.02), -0.02), lin)
        f = IntegrandSpec(parse(SMOOTH), UNIT, Lipschitz(12.0))
        pieces = clipped_pieces_reference(lin, 0.0, 1.0)
        tol = 1.5 * reference_bound(f, pieces, 1.0 / 32.0 / 2**11)
        n = 1366
        assert midpoint_counts(f, pieces, tol) == [n] * 32
        assert halving_width(f, pieces, tol)[0] == 1.0 / 32.0 / 2**11

        reference_deltas = []
        monkeypatch.setitem(globals(), "integrand_modulus",
                            lambda f, d: reference_deltas.append(d) or f.modulus_at(d))
        reference_width(f, pieces, tol)
        points, deltas = [], []
        values_of, modulus_of = funcspec.integrand_values, funcspec.integrand_modulus

        def values_spy(f, xs):
            points.append(len(xs))
            return values_of(f, xs)

        for module in (funcspec, stieltjes):
            monkeypatch.setattr(module, "integrand_values", values_spy)
        monkeypatch.setattr(funcspec, "integrand_modulus", lambda f, d: deltas.append(d) or modulus_of(f, d))
        rs_bv(f, g, 1.0, tol)
        assert len(points) <= 1 + math.ceil(32 * n / funcspec._BLOCK_POINTS)
        assert sum(points) == 2 + 32 * n
        assert deltas == [1.0 / 32.0 / n / 4.0]
        assert reference_deltas == [d for d in deltas for _ in range(32)]


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


    def test_unreachable_tolerance_carries_the_whole_integral(self):
        # a jump of +1 at 0.5 plus a piecewise-linear part: the raise carries
        # J(0.95) = 4.71..., the jump's 2.48 included, not the linear part alone
        pl3 = PiecewiseLinear(((0.0, 0.0), (0.3, 0.5), (0.6, 0.2), (1.0, 1.0)))
        g = BVFunction(StepFunction(UNIT, (0.5,), (0.0, 1.0), 1.0), pl3)
        f = IntegrandSpec(parse("sin(x)+2"), UNIT, Lipschitz(1.0))
        whole = rs_bv(f, g, 0.95, 1e-6)
        for call in (lambda: rs_bv(f, g, 0.95, 1e-12), lambda: curve(f, g, [0.95], 1e-12)):
            with pytest.raises(ToleranceNotReached) as err:
                call()
            gap = abs(err.value.value - whole.value)
            assert gap <= err.value.error_bound + whole.error_bound + 1e-12

    def test_jump_exact_is_the_curve_read_at_y(self):
        rng = sampling.make_rng(2828)
        for _ in range(200):
            interval = sampling.random_interval(rng)
            step = sampling.random_step(rng, interval, max_jumps=40)
            f = sampling.random_piecewise_linear(rng, interval)
            y = sampling.random_upper_limit(rng, interval)
            c = curve(f, step, [y])
            at_y = c.values[np.searchsorted(c.ys, y)].item()
            assert rs_jump_exact(f, step, y).value.hex() == at_y.hex()


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
        r = rs_pl_certified(g, IDENTITY, 0.75)
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
        with pytest.raises(DomainError):
            integration_by_parts_residual(f, g, 0.75)

    def test_rejects_f_and_g_on_different_intervals(self):
        f = PiecewiseLinear(((0.0, 1.0), (2.0, 3.0)))
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.25, 1.0))
        with pytest.raises(DomainError):
            integration_by_parts_residual(f, g, 0.5)

    def test_reads_the_integrands_exact_form(self):
        # an affine spec and a BVFunction whose step part does not jump are
        # read through pl_form; a jumping one has no form and is refused
        g = BVFunction.from_step(StepFunction(UNIT, (0.25, 0.5), (0.0, 1.0, 0.5), 0.5))
        spec = IntegrandSpec(parse("0.5+2*x"), UNIT, Lipschitz(2.0))
        lifted = BVFunction(StepFunction.constant(UNIT, 0.5),
                            PiecewiseLinear(((0.0, 0.0), (1.0, 2.0))))
        for f in (spec, lifted):
            residual = integration_by_parts_residual(f, g, 0.75)
            assert residual == integration_by_parts_residual(f.pl_form(), g, 0.75)
            assert residual <= slack(2.5, g.total_variation())
        jumping = BVFunction(StepFunction.brick(UNIT, 0.5, 1.0), IDENTITY)
        with pytest.raises(DomainError):
            integration_by_parts_residual(jumping, g, 0.75)


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

    @pytest.mark.parametrize("grid", [[0.5, 0.5], 0.5, [[0.25, 0.75]]],
                             ids=["repeated", "scalar", "two-dimensional"])
    def test_grid_must_increase(self, grid):
        g = BVFunction.from_step(StepFunction.brick(UNIT, 0.5, 1.0))
        with pytest.raises(DomainError):
            curve(IDENTITY, g, grid)


class CellsOnly:
    """An integrand with only the members the integrators may ask for:
    interval, evaluate_array and cell_integrals, each that of a
    PiecewiseLinear."""

    __slots__ = ("interval", "_pl")

    def __init__(self, pl):
        self.interval, self._pl = pl.interval, pl

    def evaluate_array(self, xs):
        return self._pl.evaluate_array(xs)

    def cell_integrals(self, lin, ys, tol):
        return self._pl.cell_integrals(lin, ys, tol)


class TestProtocolBoundary:
    """rs_bv, rs_pl_certified and curve ask an integrand for its point
    values and its cell integrals, nothing else: an object with only those
    gives the results of the piecewise-linear function behind it, bit for bit."""

    @pytest.mark.parametrize("kind", ["step", "pl", "mixed"])
    def test_bit_identical_to_the_piecewise_linear_behind_it(self, kind):
        rng = sampling.make_rng({"step": 31, "pl": 32, "mixed": 33}[kind])
        for _ in range(30):
            interval = sampling.random_interval(rng)
            pl = sampling.random_piecewise_linear(rng, interval)
            f = CellsOnly(pl)
            step = sampling.random_step(rng, interval)
            linear = sampling.random_piecewise_linear(rng, interval)
            g = {"step": BVFunction.from_step(step), "pl": BVFunction.from_linear(linear),
                 "mixed": BVFunction(step, linear)}[kind]
            y = sampling.random_upper_limit(rng, interval)
            assert rs_bv(f, g, y) == rs_bv(pl, g, y)
            assert rs_pl_certified(f, linear, y) == rs_pl_certified(pl, linear, y)
            grid = sorted({sampling.random_upper_limit(rng, interval) for _ in range(6)})
            got, want = curve(f, g, grid), curve(pl, g, grid)
            for name in ("ys", "values", "error_bounds", "jumps", "at_jump"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
