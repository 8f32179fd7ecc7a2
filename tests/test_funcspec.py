"""Parser, evaluator and modulus checks."""

import math

import numpy as np
import pytest

from rscert import funcspec
from rscert.bv_core import (BVFunction, ConstructionError, DomainError, Interval, PiecewiseLinear,
                            StepFunction)
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
from rscert.positivity import find_positive_y, positive_interval
from rscert.stieltjes import rs_bv
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

    def test_fill_contradicting_the_expression_is_rejected(self):
        # x+1 is 1.5 at 0.5: a fill of -5 there would make f jump, and the
        # witness search once certified a positive integral that rs_bv read as -5
        with pytest.raises(ConstructionError, match="contradicts"):
            IntegrandSpec(parse("x+1"), UNIT, Lipschitz(1.0), (0.5, -5.0))
        with pytest.raises(ConstructionError):
            spec_of("x^2+1", removable=(0.0, 1.0 + 2.0**-52))

    @pytest.mark.parametrize("text,fill", [
        ("x^2+1", (0.5, 1.25)),  # the fill equals the expression's value
        ("2", (0.25, 2.0)),
        ("x-0.5", (0.5, -0.0)),  # -0.0 == 0.0
        ("1/x", (0.0, 7.0)),  # the expression is undefined there
        ("x^0.5*sin(1/x)+2", (0.0, 2.0)),
    ])
    def test_fill_where_consistent_or_undefined_constructs(self, text, fill):
        spec = spec_of(text, removable=fill)
        assert spec.evaluate(fill[0]) == fill[1]

    def test_power_sine_fill_constructs(self):
        f, _ = power_sine_family(0.3)
        assert f.removable_value_at == (0.0, 2.0)


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
        for width in (0, 1, 2, 3, 7, 8, 9, 31, n - 2, n - 1, n + 5):
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
    # the integral of each over [0, 0.7] (power_sine: None, not checked)
    INTEGRALS = [1.5, 0.035, 0.343 / 3.0 + 0.7, None]

    @pytest.mark.parametrize("index", range(4), ids=["pl", "affine", "quadratic", "power_sine"])
    def test_members(self, index):
        f = _protocol_integrands()[index]
        heuristic, exact = self.EXPECTED[index]
        for name in ("interval", "evaluate_array", "cell_integrals", "modulus_at", "heuristic",
                     "pl_form"):
            assert hasattr(f, name), name
        assert f.interval == UNIT
        assert f.heuristic is heuristic
        assert f.modulus_at(0.25) >= 0.0
        assert (f.pl_form() is None) is not exact
        # against the identity, the cell integrals are integrals of f dx
        cuts, steps, terms, certified = f.cell_integrals(
            PiecewiseLinear(((0.0, 0.0), (1.0, 1.0))), np.array([0.7]), 1e-6)
        assert cuts[0] == 0.0 and cuts[-1] == 0.7
        assert len(steps) == len(terms) == len(cuts) - 1
        assert certified is not heuristic
        if exact:
            assert not terms.any()
        if self.INTEGRALS[index] is not None:
            assert abs(steps.sum() - self.INTEGRALS[index]) <= terms.sum() + 1e-12


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


class TestExactFormFixedAtConstruction:
    """The exact form is decided once, when the spec is built: no later read
    folds the expression again, and the exact cell read builds no function."""

    PL3 = PiecewiseLinear(((0.0, 0.0), (0.3, 0.5), (0.6, 0.2), (1.0, 1.0)))
    BRICK = StepFunction.brick(UNIT, 0.5, 1.0)
    INTEGRATORS = (PL3, BVFunction(BRICK, PL3), BRICK)
    AFFINE = (("0.3+0.7*x", None), ("x+0.75", (0.5, 1.25)))

    @staticmethod
    def spy(monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)

    @pytest.mark.parametrize("text, fill", AFFINE)
    def test_no_fold_after_construction(self, monkeypatch, text, fill):
        f = spec_of(text, Lipschitz(1.0), fill)
        assert f.pl_form() is not None
        folds = []
        self.spy(monkeypatch, funcspec, "_fold", folds)
        for g in self.INTEGRATORS:
            f.cell_integrals(self.PL3, np.array([0.25, 0.95]), 1e-9)
            rs_bv(f, g, 0.95)
            witness = find_positive_y(f, g)
            positive_interval(f, g, witness)
        assert folds == []
        assert f.pl_form() is f.pl_form()

    def test_fold_runs_when_constructing(self, monkeypatch):
        expr = parse("0.3+0.7*x")
        folds = []
        self.spy(monkeypatch, funcspec, "_fold", folds)
        IntegrandSpec(expr, UNIT, Lipschitz(1.0))
        assert folds

    @pytest.mark.parametrize("text, fill", AFFINE)
    def test_exact_cell_read_builds_no_function(self, monkeypatch, text, fill):
        f = spec_of(text, Lipschitz(1.0), fill)
        pl = PiecewiseLinear(((0.0, 1.0), (0.4, 0.25), (1.0, 2.0)))
        built = []
        for cls in (StepFunction, PiecewiseLinear):
            self.spy(monkeypatch, cls, "__post_init__", built)
        for integrand in (f, pl):
            cuts, steps, terms, certified = integrand.cell_integrals(
                self.PL3, np.array([0.25, 0.95]), 1e-9)
            assert certified and not terms.any() and len(steps) == len(cuts) - 1
        assert built == []
