"""Parser, evaluator and modulus checks."""

import math

import numpy as np
import pytest

from rscert.bv_core import DomainError, Interval, PiecewiseLinear
from rscert.funcspec import (
    BinaryOp,
    Call,
    EvaluationError,
    Hoelder,
    IntegrandSpec,
    Lipschitz,
    Literal,
    Negate,
    ParseError,
    Power,
    Sampled,
    X,
    _window_oscillation,
    format_expr,
    integrand_modulus,
    parse,
)
from rscert.counterexample import power_sine_family
from rscert import sampling

UNIT = Interval(0.0, 1.0)


def spec_of(text, modulus=None, removable=None, interval=UNIT):
    return IntegrandSpec(parse(text), interval, modulus or Lipschitz(0.0), removable)


class TestParser:
    def test_oscillating_integrand_shape(self):
        e = parse("x^0.5*sin(1/x)+2")
        assert e == BinaryOp(
            "+",
            BinaryOp("*", Power(X, 0.5), Call("sin", BinaryOp("/", Literal(1.0), X))),
            Literal(2.0),
        )

    def test_constant(self):
        assert parse("2") == Literal(2.0)

    def test_function_requires_parentheses(self):
        with pytest.raises(ParseError):
            parse("sin x")

    def test_unknown_identifier_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("1+tan(x)")
        assert err.value.position == 2

    def test_precedence_power_over_product(self):
        assert parse("2*x^3") == BinaryOp("*", Literal(2.0), Power(X, 3.0))

    def test_left_associativity_of_subtraction(self):
        e = parse("1-2-3")
        assert e == BinaryOp("-", BinaryOp("-", Literal(1.0), Literal(2.0)), Literal(3.0))

    def test_power_right_associative_folds_exponent(self):
        assert parse("x^2^3") == Power(X, 8.0)

    def test_unary_minus_binds_below_power(self):
        # -x^2 == -(x^2)
        assert parse("-x^2") == Negate(Power(X, 2.0))

    def test_negative_exponent(self):
        assert parse("x^-2") == Power(X, -2.0)

    def test_variable_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x^x")

    @pytest.mark.parametrize("text, reason", [
        ("x^(1/0)", "division by zero"),
        ("x^(10^400)", "power evaluation failed"),
        ("x^((0-8)^0.5)", "negative base -8.0 with non-integer exponent"),
        ("x^(2*(0^-1))", "zero base with negative exponent"),
        ("x^sin(10^300*10^300)", "sin(inf) is not a real number"),
        ("x^(1/0+sin(10^300*10^300))", "division by zero"),  # the first reason
    ])
    def test_unfoldable_constant_exponent_is_reported(self, text, reason):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "must be a constant" not in str(err.value)
        assert f"power exponent cannot be evaluated: {reason}" in str(err.value)
        assert err.value.position == 2

    @pytest.mark.parametrize("text", ["x^x", "x^(1/0*x)", "x^(x+10^400)", "x^(x-x)"])
    def test_exponent_mentioning_x_must_be_constant(self, text):
        with pytest.raises(ParseError, match="power exponent must be a constant"):
            parse(text)

    @pytest.mark.parametrize("text, exponent", [
        ("x^(1+0)", 1.0), ("x^(2-0)", 2.0), ("x^(3*0)", 0.0), ("x^(0/2)", 0.0),
    ])
    def test_zero_right_operand_folds(self, text, exponent):
        assert parse(text) == Power(X, exponent)

    def test_overflowing_constant_exponent_is_not_finite(self):
        # 2 * inf leaves c1 = 0 * inf = nan; free of x, it is still a constant
        with pytest.raises(ParseError, match=r"^power exponent inf is not finite \(at position 2\)$"):
            parse("x^(2*(1e308*10))")

    def test_scientific_literals(self):
        assert parse("1.5e-3") == Literal(1.5e-3)
        assert parse("2E+4") == Literal(2e4)

    @pytest.mark.parametrize("text, position", [
        ("1e400", 0), ("x/1e400", 2), ("x+2^1e999", 4),
        ("x^(10^300*10^300)", 2), ("x^(0*(10^300*10^300))", 2),
    ])
    def test_non_finite_numbers_rejected(self, text, position):
        with pytest.raises(ParseError, match="not finite") as err:
            parse(text)
        assert err.value.position == position

    def test_large_finite_numbers_kept(self):
        assert parse("1e308") == Literal(1e308)
        assert parse("x^(10^300*10^-300)") == Power(X, 1e300 * 1e-300)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(1+2")

    def test_garbage_character(self):
        with pytest.raises(ParseError):
            parse("1 + $")


class TestFormatRoundTrip:
    CASES = [
        "x^0.5*sin(1.0/x)+2.0",
        "-(x+1.0)",
        "(x+1.0)*(x-2.0)",
        "(x^2.0)^3.0",
        "cos(x)^2.0+sin(x)^2.0",
        "1.0/(1.0+x)",
        "--x",
        "x^-2.0",
        "1.0-2.0-3.0",
        "2.0/(3.0/x)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_fixed_cases(self, text):
        e = parse(text)
        assert parse(format_expr(e)) == e

    def test_random_trees(self):
        rng = sampling.make_rng(5150)

        def random_expr(depth):
            kinds = ["lit", "var"]
            if depth > 0:
                kinds += ["neg", "bin", "pow", "call"]
            kind = kinds[int(rng.integers(0, len(kinds)))]
            if kind == "lit":
                return Literal(float(np.round(rng.uniform(0, 4), 3)))
            if kind == "var":
                return X
            if kind == "neg":
                return Negate(random_expr(depth - 1))
            if kind == "bin":
                op = "+-*/"[int(rng.integers(0, 4))]
                return BinaryOp(op, random_expr(depth - 1), random_expr(depth - 1))
            if kind == "pow":
                exponent = float(np.round(rng.uniform(-3, 3), 2))
                return Power(random_expr(depth - 1), exponent)
            return Call("sin" if rng.random() < 0.5 else "cos", random_expr(depth - 1))

        for _ in range(300):
            e = random_expr(3)
            assert parse(format_expr(e)) == e


class TestEvaluation:
    def test_removable_fill(self):
        f, _ = power_sine_family(0.5)
        assert f.evaluate(0.0) == 2.0

    def test_oscillating_integrand_crest_value(self):
        f, fam = power_sine_family(0.5)
        x = fam.crest(1)  # 2/pi, where sin(1/x) = 1
        assert f.evaluate(x) == pytest.approx(math.sqrt(2.0 / math.pi) + 2.0, abs=1e-12)

    def test_oscillating_integrand_trough_value(self):
        f, fam = power_sine_family(0.5)
        x = fam.trough(1)  # 2/(3 pi), where sin(1/x) = -1
        assert f.evaluate(x) == pytest.approx(2.0 - math.sqrt(2.0 / (3.0 * math.pi)), abs=1e-12)

    def test_polynomial_agrees_with_horner(self):
        spec = spec_of("2*x^3-x^2+4*x-1")
        for x in np.linspace(0.0, 1.0, 37):
            expected = ((2 * x - 1) * x + 4) * x - 1
            assert spec.evaluate(float(x)) == pytest.approx(expected, abs=1e-12)

    def test_division_by_zero_names_point(self):
        spec = spec_of("1/x")
        with pytest.raises(EvaluationError) as err:
            spec.evaluate(0.0)
        assert "0.0" in str(err.value)

    def test_negative_base_fractional_power(self):
        spec = spec_of("(x-1)^0.5", interval=Interval(0.0, 2.0))
        with pytest.raises(EvaluationError):
            spec.evaluate(0.5)
        assert spec.evaluate(1.0) == 0.0

    def test_negative_base_integer_power_ok(self):
        spec = spec_of("(0-2)^3")
        assert spec.evaluate(0.5) == -8.0

    def test_array_matches_scalar_on_grid(self):
        f, _ = power_sine_family(0.5)
        xs = np.linspace(0.0, 1.0, 101)
        arr = f.evaluate_array(xs)
        for x, v in zip(xs, arr):
            assert v == pytest.approx(f.evaluate(float(x)), abs=1e-12)

    def test_array_detects_hidden_singularity(self):
        spec = spec_of("1/(1/x)")  # finite in exact arithmetic, undefined at 0
        with pytest.raises(EvaluationError):
            spec.evaluate_array(np.asarray([0.0, 0.5]))

    @pytest.mark.parametrize("text", ["x", "x^2+1", "2"])
    def test_array_rejects_nan_points(self, text):
        spec = spec_of(text)
        with pytest.raises(DomainError):
            spec.evaluate_array(np.asarray([0.5, math.nan]))
        with pytest.raises(DomainError):
            spec.evaluate(math.nan)

    def test_removable_point_must_be_inside_domain(self):
        with pytest.raises(DomainError):
            spec_of("x", removable=(2.0, 0.0))


class TestModulus:
    def test_lipschitz_formula(self):
        spec = spec_of("x", modulus=Lipschitz(3.0))
        assert spec.modulus_at(0.1) == pytest.approx(0.3)

    def test_hoelder_formula(self):
        spec = spec_of("x", modulus=Hoelder(2.0, 0.5))
        assert spec.modulus_at(0.25) == pytest.approx(1.0)

    def test_constant_sampled_is_zero(self):
        spec = spec_of("2", modulus=Sampled(1024, 2.0))
        assert spec.modulus_at(0.1) == 0.0

    def test_delta_validation(self):
        spec = spec_of("x", modulus=Lipschitz(1.0))
        with pytest.raises(DomainError):
            spec.modulus_at(0.0)
        with pytest.raises(DomainError):
            spec.modulus_at(2.0)

    def test_monotone_in_delta(self):
        f, _ = power_sine_family(0.5)
        deltas = np.logspace(-4, -0.5, 25)
        values = [f.modulus_at(float(d)) for d in deltas]
        assert all(v1 >= v0 for v0, v1 in zip(values, values[1:]))

    def test_sampled_oscillation_pinned(self):
        # dense-grid oracle: the largest oscillation of x^0.5 sin(1/x) + 2 over
        # any window of span 0.01 inside [0, 1], estimated on the same grid
        f_small, _ = power_sine_family(0.5)
        spec = IntegrandSpec(
            f_small.expr, f_small.interval, Sampled(10**6, 1.5), f_small.removable_value_at
        )
        got = spec.modulus_at(0.01)
        xs = np.linspace(0.0, 1.0, 10**6 + 1)
        vals = spec.evaluate_array(xs)
        width = 10**4  # 0.01 / (1/10^6)
        lo = np.minimum.reduce([vals[i : len(vals) - width + i] for i in range(0, width + 1, 500)])
        hi = np.maximum.reduce([vals[i : len(vals) - width + i] for i in range(0, width + 1, 500)])
        coarse_osc = float((hi - lo).max())  # lower estimate of the window oscillation
        assert got >= coarse_osc
        # regression pin; analytic cross-check: the largest full swing inside a
        # 0.01-window is ~2*sqrt(x*) at pi*x*^2 = 0.01, i.e. ~0.475, times 1.5
        assert got == pytest.approx(0.7141078301049117, rel=1e-8)

    def test_pl_modulus_is_exact_lipschitz(self):
        f = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
        assert f.modulus_at(0.25) == pytest.approx(0.5)
        assert integrand_modulus(f, 0.25) == f.modulus_at(0.25)


class TestWindowOscillation:
    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=int(rng.integers(40, 200)))
        n = len(values)
        for width in (0, 1, 7, n - 1, n + 5):
            expected = 0.0
            if width > 0:
                windows = np.lib.stride_tricks.sliding_window_view(values, min(width, n - 1) + 1)
                expected = float((windows.max(axis=1) - windows.min(axis=1)).max())
            assert _window_oscillation(values, width) == expected


def _protocol_integrands():
    f, _ = power_sine_family(0.5)
    return [
        PiecewiseLinear(((0.0, 1.0), (0.5, 3.0), (1.0, 0.5))),
        spec_of("3*x-1", modulus=Lipschitz(3.0)),
        spec_of("x^2+1", modulus=Lipschitz(2.0)),
        f,
    ]


class TestIntegrandProtocol:
    # (heuristic, has an exact piecewise-linear form) per integrand above
    EXPECTED = [(False, True), (False, True), (False, False), (True, False)]

    @pytest.mark.parametrize("index", range(4), ids=["pl", "affine", "quadratic", "power_sine"])
    def test_members(self, index):
        f = _protocol_integrands()[index]
        heuristic, exact = self.EXPECTED[index]
        for name in ("interval", "evaluate_array", "modulus_at", "heuristic", "pl_form", "enclose"):
            assert hasattr(f, name), name
        assert f.interval == UNIT
        assert f.heuristic is heuristic
        assert f.modulus_at(0.25) >= 0.0
        assert (f.pl_form() is None) is not exact
        bounds = f.enclose(0.2, 0.7)
        assert bounds.certified is not heuristic
        if exact:
            pl = f.pl_form()
            assert bounds.lower <= pl.min_value(0.2, 0.7) <= pl.max_value(0.2, 0.7) <= bounds.upper


class TestCheckPositive:
    """Grid positivity on the whole interval, read off enclose."""

    def test_constant_two_certified(self):
        spec = spec_of("2", modulus=Lipschitz(0.0))
        bounds = spec.enclose(0.0, 1.0, 16)
        assert bounds.min_sample == 2.0
        assert bounds.certified and bounds.lower > 0.0

    def test_oscillating_integrand_grid_minimum(self):
        f, _ = power_sine_family(0.5)
        bounds = f.enclose(0.0, 1.0, 4097)
        assert bounds.min_sample >= 1.0
        assert bounds.min_sample == pytest.approx(1.536685997010431, rel=1e-10)
        assert not bounds.certified  # Sampled modulus never certifies

    def test_identity_not_certified_positive(self):
        spec = spec_of("x", modulus=Lipschitz(1.0))
        bounds = spec.enclose(0.0, 1.0, 64)
        assert bounds.min_sample == 0.0
        assert not (bounds.certified and bounds.lower > 0.0)

    def test_positive_affine_certified(self):
        spec = spec_of("x+1", modulus=Lipschitz(1.0))
        bounds = spec.enclose(0.0, 1.0, 64)
        assert bounds.certified and bounds.lower > 0.0
        assert bounds.lower > 0.9


class TestOscillationIdentity:
    def test_rise_equals_power_sum_and_dominates_alpha(self):
        for gamma in (0.25, 0.5, 0.75):
            f, fam = power_sine_family(gamma)
            ns = np.arange(1, 10**4 + 1)
            crests = (2.0 / math.pi) / (4 * ns - 3)
            troughs = (2.0 / math.pi) / (4 * ns - 1)
            rises = f.evaluate_array(crests) - f.evaluate_array(troughs)
            exact = crests**gamma + troughs**gamma
            np.testing.assert_allclose(rises, exact, atol=1e-12)
            floor = fam.alpha * ns.astype(float) ** (-gamma)
            assert np.all(rises >= floor - 1e-12)


class TestAffineDetection:
    def test_affine_forms(self):
        assert spec_of("2").pl_form() is not None
        assert spec_of("3*x-1").pl_form() is not None
        assert spec_of("(x+1)/2").pl_form() is not None
        assert spec_of("sin(1)+x").pl_form() is not None

    def test_non_affine_forms(self):
        assert spec_of("x^2").pl_form() is None
        assert spec_of("sin(x)").pl_form() is None
        assert spec_of("1/x").pl_form() is None

    def test_affine_values_match(self):
        spec = spec_of("3*x-1")
        pl = spec.pl_form()
        for x in (0.0, 0.3, 1.0):
            assert pl.evaluate(x) == pytest.approx(spec.evaluate(x))

    def test_pl_coverage_dispatch(self):
        pl = PiecewiseLinear(((0.0, 1.0), (1.0, 2.0)))
        assert pl.pl_form() is pl
        f, _ = power_sine_family(0.5)
        assert f.pl_form() is None


class TestIntegrandRange:
    def test_pl_exact(self):
        f = PiecewiseLinear(((0.0, 1.0), (0.5, 3.0), (1.0, 0.5)))
        bounds = f.enclose(0.25, 0.75)
        assert bounds.certified
        assert bounds.lower == pytest.approx(f.evaluate(0.75))
        assert bounds.upper == pytest.approx(3.0)

    def test_expression_padded(self):
        spec = spec_of("x", modulus=Lipschitz(1.0))
        bounds = spec.enclose(0.0, 1.0, 11)
        assert bounds.lower <= 0.0 <= bounds.min_sample
        assert bounds.upper >= 1.0
        assert bounds.certified

    def test_pad_is_omega_of_half_the_mesh(self):
        # every point lies within mesh/2 = 0.05 of one of the 11 samples
        bounds = spec_of("x", modulus=Lipschitz(1.0)).enclose(0.0, 1.0, 11)
        assert (bounds.min_sample, bounds.max_sample) == (0.0, 1.0)
        assert (bounds.lower, bounds.upper) == (-0.05, 1.0 + 0.05)
