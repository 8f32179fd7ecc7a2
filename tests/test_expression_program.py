"""The compiled expression program and the fold against the walks they replaced.

_eval_array below is the recursive evaluator IntegrandSpec.evaluate_array
used before expressions were compiled into a flat program; it stays here as
the reference that the program must match value for value and mask for mask.
_const_value and _affine_coefficients are the walks the parser and pl_form
read before both read funcspec._fold; they stay as its references.
"""

import math
import operator

import numpy as np
import pytest

from rscert import funcspec
from rscert.bv_core import ConstructionError, Interval, PiecewiseLinear
from rscert.funcspec import (
    BinaryOp,
    Call,
    EvaluationError,
    IntegrandSpec,
    Lipschitz,
    Literal,
    Negate,
    Power,
    Sampled,
    X,
    _fold,
    _pow,
    _Program,
    parse,
)


def _eval_array(e, xs):
    """Vectorized walk returning (values, invalid-mask).

    The mask records every point where some sub-expression left the reals
    (division by zero, bad power); later operations cannot launder it away.
    """
    if isinstance(e, Literal):
        return np.full(xs.shape, e.value), np.zeros(xs.shape, dtype=bool)
    if isinstance(e, type(X)):
        return xs.astype(float, copy=True), np.zeros(xs.shape, dtype=bool)
    if isinstance(e, Negate):
        v, bad = _eval_array(e.operand, xs)
        return -v, bad
    if isinstance(e, BinaryOp):
        lv, lbad = _eval_array(e.left, xs)
        rv, rbad = _eval_array(e.right, xs)
        bad = lbad | rbad
        with np.errstate(all="ignore"):
            if e.op == "+":
                v = lv + rv
            elif e.op == "-":
                v = lv - rv
            elif e.op == "*":
                v = lv * rv
            else:
                v = np.divide(lv, rv)
                bad = bad | (rv == 0.0)
        return v, bad | ~np.isfinite(v)
    if isinstance(e, Power):
        bv, bbad = _eval_array(e.base, xs)
        exponent = e.exponent
        with np.errstate(all="ignore"):
            v = np.power(bv, exponent)
        bad = bbad | ~np.isfinite(v)
        if exponent != int(exponent):
            bad = bad | (bv < 0.0)
        if exponent < 0.0:
            bad = bad | (bv == 0.0)
        return v, bad
    if isinstance(e, Call):
        av, abad = _eval_array(e.arg, xs)
        with np.errstate(all="ignore"):
            v = np.sin(av) if e.func == "sin" else np.cos(av)
        return v, abad | ~np.isfinite(v)
    raise TypeError(f"not an expression node: {e!r}")


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _mentions_x(e):
    if isinstance(e, (Literal, type(X))):
        return isinstance(e, type(X))
    if isinstance(e, BinaryOp):
        return _mentions_x(e.left) or _mentions_x(e.right)
    if isinstance(e, Negate):
        return _mentions_x(e.operand)
    return _mentions_x(e.base if isinstance(e, Power) else e.arg)


def _const_value(e):
    """The value of a subtree, None if it mentions x; EvaluationError when a
    subtree free of x has no real value."""
    if _mentions_x(e):
        return None
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Negate):
        return -_const_value(e.operand)
    if isinstance(e, BinaryOp):
        left, right = _const_value(e.left), _const_value(e.right)
        if e.op == "/" and right == 0.0:
            raise EvaluationError("division by zero")
        return _OPERATORS[e.op](left, right)
    if isinstance(e, Power):
        return _pow(_const_value(e.base), e.exponent)
    v = _const_value(e.arg)
    if not math.isfinite(v):
        raise EvaluationError(f"{e.func}({v!r}) is not a real number")
    return math.sin(v) if e.func == "sin" else math.cos(v)


def _affine_coefficients(e):
    """(c0, c1) with e == c0 + c1*x, or None when e is not syntactically affine."""
    if isinstance(e, Literal):
        return (e.value, 0.0)
    if isinstance(e, type(X)):
        return (0.0, 1.0)
    if isinstance(e, Negate):
        inner = _affine_coefficients(e.operand)
        return None if inner is None else (-inner[0], -inner[1])
    if isinstance(e, BinaryOp):
        left = _affine_coefficients(e.left)
        right = _affine_coefficients(e.right)
        if left is None or right is None:
            return None
        if e.op == "+":
            return (left[0] + right[0], left[1] + right[1])
        if e.op == "-":
            return (left[0] - right[0], left[1] - right[1])
        if e.op == "*":
            if right[1] == 0.0:
                return (left[0] * right[0], left[1] * right[0])
            if left[1] == 0.0:
                return (left[0] * right[0], left[0] * right[1])
            return None
        if right[1] == 0.0 and right[0] != 0.0:
            return (left[0] / right[0], left[1] / right[0])
        return None
    if isinstance(e, Power):
        base = _affine_coefficients(e.base)
        if base is None:
            return None
        if e.exponent == 1.0:
            return base
        if e.exponent == 0.0:
            return (1.0, 0.0)
        if base[1] == 0.0:
            try:
                return (_pow(base[0], e.exponent), 0.0)
            except EvaluationError:
                return None
        return None
    arg = _affine_coefficients(e.arg)
    if arg is None or arg[1] != 0.0 or not math.isfinite(arg[0]):
        return None
    fn = math.sin if e.func == "sin" else math.cos
    return (fn(arg[0]), 0.0)


def run_program(e, xs):
    """The program's values and its mask, with None spelled out."""
    values, bad = _Program(e).run(xs)
    return values, np.zeros(xs.shape, dtype=bool) if bad is None else bad


def assert_matches_reference(e, xs):
    values, bad = run_program(e, xs)
    ref_values, ref_bad = _eval_array(e, xs)
    assert values.dtype == ref_values.dtype
    assert values.shape == ref_values.shape
    assert np.array_equal(values, ref_values, equal_nan=True), e
    assert bad.shape == ref_bad.shape
    assert (bad == ref_bad).all(), e


EXPONENTS = [0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, -3.0, 0.5, -0.5, 1.5, -2.5, 0.25, 400.0, -400.0]
SPECIAL_LITERALS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e300]
POINTS = np.concatenate([np.linspace(-2.0, 2.0, 81), [0.0, -0.0, 1e-3, -1e-3, 1e-300, 1e300]])


def random_tree(rng, depth):
    kinds = ["lit", "var"]
    if depth > 0:
        kinds += ["neg", "bin", "pow", "call"] * 2
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "lit":
        if rng.random() < 0.25:
            return Literal(SPECIAL_LITERALS[int(rng.integers(0, len(SPECIAL_LITERALS)))])
        return Literal(float(np.round(rng.uniform(-3.0, 3.0), 2)))
    if kind == "var":
        return X
    if kind == "neg":
        return Negate(random_tree(rng, depth - 1))
    if kind == "bin":
        op = "+-*/"[int(rng.integers(0, 4))]
        return BinaryOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if kind == "pow":
        return Power(random_tree(rng, depth - 1), EXPONENTS[int(rng.integers(0, len(EXPONENTS)))])
    return Call("sin" if rng.random() < 0.5 else "cos", random_tree(rng, depth - 1))


class TestAgainstTreeWalk:
    def test_random_trees(self):
        rng = np.random.default_rng(20240901)
        kinds = set()
        for _ in range(2500):
            e = random_tree(rng, int(rng.integers(0, 6)))
            kinds.add(type(e).__name__)
            assert_matches_reference(e, POINTS)
        assert kinds == {"Literal", "Variable", "Negate", "BinaryOp", "Power", "Call"}

    @pytest.mark.parametrize("text", [
        "0.3+1.2*x-0.7*x^2+0.9*sin(3.1*x+0.2)+0.4*cos(5.3*x+1.1)",
        "x^0.5*sin(1/x)+2",
        "2", "-2", "x", "-x", "--x", "1/0", "2^3", "sin(1)", "(0-2)^0.5", "0^-1",
    ])
    def test_parsed_expressions(self, text):
        assert_matches_reference(parse(text), POINTS)

    @pytest.mark.parametrize("e", [
        Literal(math.inf), Negate(Literal(math.nan)), BinaryOp("/", X, Literal(math.inf)),
        BinaryOp("*", Literal(math.inf), X), Power(Literal(math.inf), 0.0),
        Power(Literal(math.nan), -1.0), Call("sin", Literal(math.inf)),
        BinaryOp("/", X, Negate(BinaryOp("*", Literal(math.inf), X))),
    ])
    def test_non_finite_literals(self, e):
        assert_matches_reference(e, POINTS)


def parser_reading(e):
    """What the parser reads of an exponent subtree under the reference: the
    repr of its value, the reason it has none, or None when it mentions x."""
    try:
        value = _const_value(e)
    except EvaluationError as exc:
        return ("reason", str(exc))
    return None if value is None else ("value", repr(value))


def reference_pl_form(e, interval):
    """The form pl_form gave before the fold, or None where it gave none or
    the tree walk finds a point at either end invalid."""
    coeffs = _affine_coefficients(e)
    if coeffs is None:
        return None
    c0, c1 = coeffs
    a, b = interval.a, interval.b
    try:
        form = PiecewiseLinear(((a, c0 + c1 * a), (b, c0 + c1 * b)))
    except ConstructionError:
        return None
    return None if _eval_array(e, np.asarray([a, b]))[1].any() else form


class TestOneFold:
    """The parser and pl_form read one fold; it agrees with the two walks it
    replaced wherever the expression evaluates."""

    def test_random_trees(self):
        rng = np.random.default_rng(20261019)
        intervals = (Interval(-1.0, 1.0), Interval(0.5, 3.0))
        seen = {"value": 0, "reason": 0, "x": 0, "form": 0, "dropped": 0}
        for _ in range(4000):
            e = random_tree(rng, int(rng.integers(0, 6)))
            folded = _fold(e)
            if isinstance(folded, str):
                got = ("reason", folded)
            elif folded is None or folded[2]:
                got = None
            else:
                got = ("value", repr(folded[0]))
            want = parser_reading(e)
            assert got == want, e
            seen[want[0] if want else "x"] += 1
            for interval in intervals:
                form = IntegrandSpec(e, interval, Lipschitz(1.0)).pl_form()
                ref = reference_pl_form(e, interval)
                if ref is None:
                    assert form is None, e
                    seen["dropped"] += _affine_coefficients(e) is not None
                    continue
                assert form is not None, e
                assert form.knots.tobytes() == ref.knots.tobytes(), e
                seen["form"] += 1
        assert min(seen.values()) > 0, seen


class TestOneEvaluator:
    """evaluate(x) reads the compiled program: evaluate_array on one point."""

    def test_random_trees_scalar_equals_array(self):
        rng = np.random.default_rng(20261018)
        interval = Interval(float(POINTS.min()), float(POINTS.max()))
        raised = 0
        for _ in range(400):
            spec = IntegrandSpec(random_tree(rng, int(rng.integers(0, 6))), interval,
                                 Lipschitz(1.0))
            for x in POINTS.tolist():
                try:
                    want = spec.evaluate_array(np.asarray([x]))[0]
                except EvaluationError:
                    with pytest.raises(EvaluationError):
                        spec.evaluate(x)
                    raised += 1
                    continue
                got = spec.evaluate(x)
                assert type(got) is float
                assert np.asarray(got).view(np.uint64) == np.asarray(want).view(np.uint64)
        assert raised > 0

    def test_infinite_exponent(self):
        spec = IntegrandSpec(Power(X, math.inf), Interval(-1.0, 1.0), Lipschitz(1.0))
        assert spec.evaluate(-0.5) == spec.evaluate_array(np.asarray([-0.5]))[0] == 0.0

    @pytest.mark.parametrize("e", [
        Power(Literal(-2.0), math.inf), Call("sin", BinaryOp("*", Literal(1e308), Literal(10.0))),
    ])
    def test_constant_without_real_value_has_no_pl_form(self, e):
        assert IntegrandSpec(e, Interval(-1.0, 1.0), Lipschitz(1.0)).pl_form() is None

    def test_overflow_is_an_evaluation_error_on_both_paths(self):
        spec = IntegrandSpec(parse("x*1e308*10"), Interval(0.5, 1.0), Lipschitz(1.0))
        with pytest.raises(EvaluationError, match=r"expression undefined at x=1\.0$"):
            spec.evaluate(1.0)
        with pytest.raises(EvaluationError, match=r"expression undefined at x=1\.0$"):
            spec.evaluate_array(np.asarray([1.0]))


class TestLaundering:
    """A later operation can turn a non-finite value back into a finite one;
    the point stays invalid."""

    @pytest.mark.parametrize("text", ["1/(1/x)", "(1/x)^0", "(1/x)^-1", "0*(1/x)"])
    def test_reciprocal_at_zero(self, text):
        spec = IntegrandSpec(parse(text), Interval(0.0, 1.0), Lipschitz(1.0))
        with pytest.raises(EvaluationError, match=r"expression undefined at x=0\.0$"):
            spec.evaluate_array(np.asarray([0.5, 0.0, 0.25]))
        assert_matches_reference(parse(text), np.asarray([0.5, 0.0, 0.25]))

    def test_overflowing_power_in_a_divisor(self):
        spec = IntegrandSpec(parse("1/x^-400"), Interval(0.0, 1.0), Lipschitz(1.0))
        with pytest.raises(EvaluationError, match=r"expression undefined at x=0\.001$"):
            spec.evaluate_array(np.asarray([0.5, 1e-3]))
        assert_matches_reference(parse("1/x^-400"), np.asarray([0.5, 1e-3]))


class TestProgramLifetime:
    def test_built_once_per_spec(self, monkeypatch):
        built = []

        class Counting(_Program):
            __slots__ = ()

            def __init__(self, e):
                built.append(e)
                super().__init__(e)

        monkeypatch.setattr(funcspec, "_Program", Counting)
        spec = IntegrandSpec(parse("sin(x)+2"), Interval(0.0, 1.0), Sampled(64, 1.5))
        program = spec._program
        for n in (3, 65, 513):
            spec.evaluate_array(np.linspace(0.0, 1.0, n))
        spec.modulus_at(0.5)
        spec.enclose(0.0, 1.0)
        assert built == [spec.expr]
        assert spec._program is program

    def test_equality_hash_and_repr_ignore_the_program(self):
        def make():
            return IntegrandSpec(parse("x^2+1"), Interval(0.0, 1.0), Lipschitz(2.0), (0.5, 1.25))

        a, b = make(), make()
        assert a._program is not b._program
        assert a == b
        assert hash(a) == hash(b) == hash((a.expr, a.interval, a.modulus, a.removable_value_at))
        assert repr(a) == (
            f"IntegrandSpec(expr={a.expr!r}, interval={a.interval!r}, "
            f"modulus={a.modulus!r}, removable_value_at=(0.5, 1.25))"
        )
        assert a != IntegrandSpec(parse("x^2+2"), Interval(0.0, 1.0), Lipschitz(2.0), (0.5, 1.25))

    @pytest.mark.parametrize("text", ["x", "2"])
    def test_leaf_roots_return_fresh_writable_arrays(self, text):
        spec = IntegrandSpec(parse(text), Interval(0.0, 1.0), Lipschitz(1.0))
        xs = np.linspace(0.0, 1.0, 9)
        xs.flags.writeable = False
        values = spec.evaluate_array(xs)
        assert values.dtype == np.float64
        assert values.flags.writeable
        assert not np.shares_memory(values, xs)
        expected = values.copy()
        values[:] = -1.0
        assert np.array_equal(spec.evaluate_array(xs), expected)
