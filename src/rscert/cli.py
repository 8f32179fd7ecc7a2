"""Command-line front end.

Five verbs: integrate (one integral, printed with its bound), counterexample
(build and certify the oscillating-brick integrator, writing its spec and
certificate), reproduce-figure (deterministic CSV curves for the canonical
parameters), search-positive (witness search), and selftest (the invariant
suite on seeded random instances).

Integrator spec files are JSON documents with an explicit "type" tag:
step | piecewise_linear | sum | counterexample. Exit codes are stable:
0 ok, 1 selftest failure, 2 parse/validation, 3 evaluation, 4 threshold not
found, 5 I/O, 6 precondition.

The counterexample files are the bytes of json.dump(doc, fh, indent=2),
streamed from a non-empty flat object (see _write_json). The g file's
breakpoints and piece_values reach the writer as the stored float64 arrays,
and the certificate's records as the IndexRecords columns. Their float text,
and that of the reproduce-figure CSV columns, comes a column at a time from
_floattext.float_texts, which equals float.__repr__ and falls back to it.
Each record row is assembled a column at a time: every field's texts are
placed in one interleaved list with the key heads and row closers, which is
joined once per piece.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

import numpy as np

from .bv_core import (
    BVFunction,
    ConstructionError,
    DomainError,
    Interval,
    PiecewiseLinear,
    StepFunction,
    as_bv_function,
    jordan_decompose,
    sampled_total_variation,
    slack,
)
from .funcspec import (
    EvaluationError,
    IntegrandSpec,
    ParseError,
    Sampled,
    parse,
)
from .stieltjes import (
    ToleranceNotReached,
    curve,
    integration_by_parts_residual,
    rs_bruteforce_oracle,
    rs_bv,
)
from .counterexample import (
    Certificate,
    IndexRecords,
    ThresholdNotFound,
    build_counterexample,
    power_sine_family,
    POWER_SINE_UPPER_BOUND,
)
from .positivity import (
    InternalInconsistencyError,
    PreconditionError,
    WeightedMeasure,
    find_positive_y,
    gdf_bound_check,
    gronwall_verify,
    pl_times_step,
    support_edge,
)
from . import sampling
from ._floattext import float_texts

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_EVAL = 3
EXIT_THRESHOLD = 4
EXIT_IO = 5
EXIT_PRECONDITION = 6

DEFAULT_SEED = 20240901
FIGURE_GAMMA = 0.5
FIGURE_BETA = 1.5
FIGURE_TRUNCATION = 1000
FIGURE_THRESHOLD = 7
FIGURE_WINDOW = 0.04
FIGURE_GRID = 4000


class SpecFileError(ValueError):
    """Integrator spec validation failure, carrying a JSON path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Integrator spec files
# ---------------------------------------------------------------------------


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise SpecFileError(f"missing field {key!r}", path)
    return doc[key]


def _need_array(doc: dict, key: str, path: str, size: int | None = None) -> list:
    """doc[key], which must be a JSON array, of exactly size entries when
    size is given."""
    value = _need(doc, key, path)
    if isinstance(value, list) and size in (None, len(value)):
        return value
    raise SpecFileError("expected an array" + (f" of {size} entries" if size else ""), f"{path}.{key}")


def _as_numbers(values, path_of) -> list[float]:
    """Every element as a float. path_of(i) gives the JSON path of element i;
    it is called only for the first element that is not a number."""
    for i, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecFileError(f"expected a number, got {value!r}", path_of(i))
    return [float(v) for v in values]


def _as_number(value, path: str) -> float:
    return _as_numbers((value,), lambda _: path)[0]


def integrator_from_doc(doc, path: str = "$") -> BVFunction:
    """Build an integrator from a JSON document, validating every invariant."""
    if not isinstance(doc, dict):
        raise SpecFileError("expected an object with a 'type' tag", path)
    kind = _need(doc, "type", path)
    try:
        if kind == "step":
            interval = Interval(*_as_numbers(_need_array(doc, "interval", path, 2),
                                             lambda i: f"{path}.interval[{i}]"))
            bp = _as_numbers(_need_array(doc, "breakpoints", path),
                             lambda i: f"{path}.breakpoints[{i}]")
            pv = _as_numbers(_need_array(doc, "piece_values", path),
                             lambda i: f"{path}.piece_values[{i}]")
            end = _as_number(_need(doc, "end_value", path), path + ".end_value")
            return BVFunction.from_step(StepFunction(interval, bp, pv, end))
        if kind == "piecewise_linear":
            knots = _need_array(doc, "knots", path)
            for i, pair in enumerate(knots):
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise SpecFileError("knot must be an [x, y] pair", f"{path}.knots[{i}]")
            flat = _as_numbers([v for pair in knots for v in pair],
                               lambda i: f"{path}.knots[{i // 2}][{i % 2}]")
            return BVFunction.from_linear(PiecewiseLinear(list(zip(flat[0::2], flat[1::2]))))
        if kind == "sum":
            parts = _need_array(doc, "parts", path)
            if not parts:
                raise SpecFileError("sum needs at least one part", path + ".parts")
            total = None
            for i, part in enumerate(parts):
                g = integrator_from_doc(part, f"{path}.parts[{i}]")
                total = g if total is None else total + g
            return total
        if kind == "counterexample":
            gamma = _as_number(_need(doc, "gamma", path), path + ".gamma")
            beta = _as_number(_need(doc, "beta", path), path + ".beta")
            truncation = _need(doc, "truncation", path)
            if type(truncation) is not int or truncation < 1:  # JSON true is no count
                raise SpecFileError("truncation must be a positive integer", path + ".truncation")
            threshold = doc.get("threshold")
            if threshold is not None and (type(threshold) is not int or threshold < 1):
                raise SpecFileError("threshold must be a positive integer", path + ".threshold")
            f, fam = power_sine_family(gamma)
            g, _, _ = build_counterexample(
                f, fam, beta, truncation,
                f_sup=POWER_SINE_UPPER_BOUND, force_threshold=threshold,
            )
            return BVFunction.from_step(g)
        raise SpecFileError(f"unknown integrator type {kind!r}", path + ".type")
    except (ConstructionError, DomainError) as exc:
        raise SpecFileError(str(exc), path) from exc


def integrator_to_doc(g: BVFunction) -> dict:
    """Canonical JSON document: pure parts collapse to their own tag."""
    return _integrator_doc(g, np.ndarray.tolist)


def _integrator_doc(g: BVFunction, column) -> dict:
    """integrator_to_doc with the step part's breakpoints and piece_values
    as column(stored float64 array): lists for integrator_to_doc, the arrays
    themselves for _write_json."""
    g = as_bv_function(g)
    step_doc = {
        "type": "step",
        "interval": [g.interval.a, g.interval.b],
        "breakpoints": column(g.step.breakpoints),
        "piece_values": column(g.step.piece_values),
        "end_value": g.step.end_value,
    }
    linear_doc = {"type": "piecewise_linear", "knots": g.linear.knots.tolist()}
    step_trivial = g.step.is_zero()
    linear_trivial = g.linear.is_constant() and g.linear.ys[0] == 0.0
    if linear_trivial:
        return step_doc
    if step_trivial:
        return linear_doc
    return {"type": "sum", "parts": [step_doc, linear_doc]}


def load_integrator(path: str) -> BVFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(str(exc), path) from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON: {exc.msg}", f"{path}:{exc.lineno}:{exc.colno}") from exc
    return integrator_from_doc(doc)


def integrand_from_text(text: str, interval: Interval) -> IntegrandSpec:
    """Parse --f text on the integrator's interval, with a heuristic Sampled
    modulus. Affine expressions that evaluate on the interval never consult
    it: they answer for their cells exactly, through their piecewise-linear
    form (IntegrandSpec.cell_integrals), which also admits them to the
    witness search. Any other expression answers with funcspec's midpoint
    quadrature, whose bound the Sampled modulus leaves uncertified, and the
    witness search refuses it (no_bv_coverage)."""
    return IntegrandSpec(parse(text), interval, Sampled(resolution=2**16, safety_factor=1.5))


# ---------------------------------------------------------------------------
# Output helpers (deterministic, locale-independent)
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: str, header: str, rows, metadata: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in metadata:
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# JSON files, streamed
# ---------------------------------------------------------------------------

_CHUNK = 8192  # column elements or records formatted per write


def _texts(column) -> list[str]:
    """What json.dumps writes for each element of a 1-D numpy column of
    bools, integers or floats. Floats go through float_texts in one call: it
    equals float.__repr__, falls back to it for the elements it cannot
    decide, and spells non-finite values as json does."""
    if column.dtype == bool:
        return np.where(column, "true", "false").tolist()
    if column.dtype.kind in "iu":
        return list(map(int.__repr__, column.tolist()))
    return float_texts(column)


def _rows(heads: list[str], columns) -> str:
    """The text of one JSON object per row of the columns, heads[j] before
    field j: each field's texts go into one interleaved list by slice
    assignment, between the key heads and the row closers, and are joined
    once."""
    size, width = len(columns[0]), 2 * len(heads) + 1
    pieces = ["\n    },\n    "] * (size * width)
    for j, (head, column) in enumerate(zip(heads, columns)):
        pieces[2 * j::width] = [head] * size
        pieces[2 * j + 1::width] = _texts(column)
    pieces[-1] = "\n    }"
    return "".join(pieces)


def _member_pieces(value):
    """The text of one member value of a flat object, one level in: a 1-D
    float64 column or the records in pieces of _CHUNK elements, anything
    else whole."""
    if isinstance(value, IndexRecords):
        names = [field.name for field in fields(IndexRecords)]
        columns = [getattr(value, name) for name in names]
        heads = [",\n      " + json.dumps(name) + ": " for name in names]
        heads[0] = "{" + heads[0][1:]
        size, chunk = len(value.n), lambda start, stop: _rows(
            heads, [col[start:stop] for col in columns])
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim == 1:
        size, chunk = value.size, lambda start, stop: ",\n    ".join(
            float_texts(value[start:stop]))
    else:
        yield json.dumps(value, indent=2).replace("\n", "\n  ")
        return
    sep = "[\n    "
    for start in range(0, size, _CHUNK):
        yield sep + chunk(start, start + _CHUNK)
        sep = ",\n    "
    yield "\n  ]" if size else "[]"


def _write_json(path: str, doc: dict) -> None:
    """Write the bytes of json.dump(doc, fh, indent=2) and a newline, where
    a 1-D float64 ndarray member is written as the list of its floats and
    IndexRecords as one object per record. doc is a non-empty flat object.
    Float columns and records stream in bounded pieces; every other member
    goes through json.dumps."""
    with open(path, "w", encoding="utf-8") as fh:
        sep = "{\n  "
        for key, value in doc.items():
            fh.write(sep + json.dumps(key) + ": ")
            fh.writelines(_member_pieces(value))
            sep = ",\n  "
        fh.write("\n}\n")


def _certificate_doc(cert: Certificate, params, records) -> dict:
    return {
        "beta": params.beta,
        "truncation": params.truncation,
        "threshold": params.threshold,
        "empirical_threshold": cert.empirical_threshold,
        "certified_threshold": cert.certified_threshold,
        "remainder_bound": cert.remainder_bound,
        "f_upper_bound": cert.f_upper_bound,
        "family_ok": cert.family_ok,
        "analytic_ok": cert.analytic_ok,
        "verdict": cert.verdict,
        "truncation_note": cert.truncation_note,
        "step_failures": [list(x) for x in cert.step_failures],
        "records": records,
    }


def certificate_to_doc(cert: Certificate, params) -> dict:
    """The certificate as the JSON document the counterexample verb writes,
    with one object per index record."""
    names = [field.name for field in fields(IndexRecords)]
    columns = [getattr(cert.records, name).tolist() for name in names]
    return _certificate_doc(cert, params, [dict(zip(names, r)) for r in zip(*columns)])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_integrate(args) -> int:
    g = load_integrator(args.g)
    f = integrand_from_text(args.f, g.interval)
    result = rs_bv(f, g, args.y, args.tol)
    print(f"value={_fmt(result.value)}")
    print(f"error_bound={_fmt(result.error_bound)}")
    print(f"certified={'true' if result.certified else 'false'}")
    return EXIT_OK


def cmd_counterexample(args) -> int:
    f, fam = power_sine_family(args.gamma)
    g, params, cert = build_counterexample(
        f, fam, args.beta, args.N, f_sup=POWER_SINE_UPPER_BOUND,
        force_threshold=args.n0,
    )
    if args.out_g:
        _write_json(args.out_g, _integrator_doc(BVFunction.from_step(g), np.asarray))
    if args.out_certificate:
        _write_json(args.out_certificate, _certificate_doc(cert, params, cert.records))
    print(f"threshold={params.threshold}")
    print(f"empirical_threshold={cert.empirical_threshold}")
    print(f"certified_threshold={cert.certified_threshold}")
    print(f"verdict={'true' if cert.verdict else 'false'}")
    return EXIT_OK if cert.verdict else EXIT_SELFTEST


def cmd_reproduce_figure(args) -> int:
    f, fam = power_sine_family(FIGURE_GAMMA)
    g, params, cert = build_counterexample(
        f, fam, FIGURE_BETA, FIGURE_TRUNCATION,
        f_sup=POWER_SINE_UPPER_BOUND, force_threshold=FIGURE_THRESHOLD,
    )
    window = FIGURE_WINDOW
    first_brick = fam.trough(FIGURE_TRUNCATION)
    grid = np.linspace(0.0, window, FIGURE_GRID + 1)[1:]
    full = curve(f, g, [float(y) for y in grid])
    correction = cert.remainder_bound

    metadata = [
        "cumulative integral J of the oscillating integrand against the brick integrator",
        f"gamma={_fmt(FIGURE_GAMMA)} beta={_fmt(FIGURE_BETA)} truncation={FIGURE_TRUNCATION} "
        f"threshold={FIGURE_THRESHOLD}",
        f"window=[0,{_fmt(window)}] grid={FIGURE_GRID} uniform points plus jump points",
        f"rows with y >= {_fmt(first_brick)} subtract the analytic dropped-tail bound "
        f"{_fmt(correction)} (certified upper bound for the untruncated construction); "
        "earlier rows carry the raw truncated value 0",
        f"negativity verdict: {'true' if cert.verdict else 'false'}",
    ]
    shown = full.ys <= window
    ys, values = full.ys[shown], full.values[shown]
    values = np.where(ys >= first_brick, values - correction, values)
    flags = np.where(full.at_jump[shown], "jump", "grid").tolist()
    _write_csv(args.out, "y,J,flag", zip(float_texts(ys), float_texts(values), flags), metadata)

    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    xs = np.linspace(0.0, window, FIGURE_GRID + 1)
    _write_csv(
        stem + "_f.csv", "x,f",
        zip(float_texts(xs), float_texts(f.evaluate_array(xs))),
        ["oscillating integrand sampled on the window"],
    )
    points = g.jumps_in(0.0, window)[:, 0]
    xs = np.concatenate([[0.0], points, [window]])
    g_vals = np.concatenate([[g.evaluate(0.0)], g.evaluate_array(points), [g.evaluate(window)]])
    flags = ["grid"] + ["jump"] * len(points) + ["grid"]
    _write_csv(
        stem + "_g.csv", "x,g,flag", zip(float_texts(xs), float_texts(g_vals), flags),
        ["brick integrator at its jump points (right-continuous values)"],
    )
    print(f"wrote {args.out}, {stem}_f.csv, {stem}_g.csv")
    return EXIT_OK


def cmd_search_positive(args) -> int:
    g = load_integrator(args.g)
    f = integrand_from_text(args.f, g.interval)
    try:
        witness = find_positive_y(f, g)
    except PreconditionError as exc:
        print(f"precondition failed ({exc.reason}): {exc}", file=sys.stderr)
        if exc.reason == "no_bv_coverage":
            _print_variation_diagnostic(f, g)
        return EXIT_PRECONDITION
    print(f"y={_fmt(witness.y)}")
    print(f"lower_bound={_fmt(witness.lower_bound)}")
    print(f"method={witness.method}")
    if witness.interval is not None:
        print(f"interval=[{_fmt(witness.interval.a)},{_fmt(witness.interval.b)}]")
    else:
        print("interval=none")
    return EXIT_OK


def _print_variation_diagnostic(f, g) -> None:
    """Sampled-variation growth near the support edge: the unbounded-variation regime."""
    g = as_bv_function(g)
    edge = support_edge(g)
    if edge is None:
        return
    hi = min(g.interval.b, edge + 0.25 * g.interval.length)
    if hi <= edge:
        return
    try:
        coarse = sampled_total_variation(f, edge, hi, 2**10)
        fine = sampled_total_variation(f, edge, hi, 2**14)
    except EvaluationError:
        return
    if not fine > coarse + slack(fine):
        return  # the sampled variation does not grow: no sign of that regime
    print(
        "unbounded-variation regime diagnostic: sampled variation on "
        f"[{_fmt(edge)},{_fmt(hi)}] grows {_fmt(coarse)} -> {_fmt(fine)} "
        "under 16x refinement",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------


def _selftest_jordan(rng) -> tuple[int, int]:
    good = total = 0
    for _ in range(60):
        total += 1
        interval = sampling.random_interval(rng)
        g = sampling.random_bv(rng, interval)
        pair = jordan_decompose(g)
        pts = list(g.structural_points())
        mids = [0.5 * (p + q) for p, q in zip(pts, pts[1:])]
        ok = True
        base = g.evaluate(interval.a)
        for x in pts + mids:
            lhs = pair.pos.evaluate(x) - pair.neg.evaluate(x)
            if abs(lhs - (g.evaluate(x) - base)) > slack(lhs):
                ok = False
        v = g.total_variation(interval.a, interval.b)
        if abs(pair.pos.evaluate(interval.b) + pair.neg.evaluate(interval.b) - v) > slack(v):
            ok = False
        c = sampling.random_upper_limit(rng, interval)
        add = g.total_variation(interval.a, c) + g.total_variation(c, interval.b)
        if abs(add - v) > slack(v):
            ok = False
        good += ok
    return good, total


def _selftest_ibp(rng) -> tuple[int, int]:
    good = total = 0
    for _ in range(200):
        total += 1
        interval = sampling.random_interval(rng)
        f = sampling.random_piecewise_linear(rng, interval)
        g = sampling.random_bv(rng, interval)
        y = sampling.random_upper_limit(rng, interval)
        residual = integration_by_parts_residual(f, g, y)
        scale = slack(f.max_value(), g.total_variation())
        good += residual <= scale
    return good, total


def _selftest_oracle(rng) -> tuple[int, int]:
    good = total = 0
    for _ in range(50):
        total += 1
        interval = sampling.random_interval(rng)
        f = sampling.random_piecewise_linear(rng, interval)
        g = sampling.random_bv(rng, interval)
        y = sampling.random_upper_limit(rng, interval)
        exact = rs_bv(f, g, y)
        approx = rs_bruteforce_oracle(f, g, y, mesh=1e-3)
        budget = exact.error_bound + approx.error_bound + slack(exact.value)
        good += abs(exact.value - approx.value) <= budget
    return good, total


def _selftest_gdf(rng) -> tuple[int, int]:
    good = total = 0
    for _ in range(100):
        total += 1
        interval = sampling.random_interval(rng)
        f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
        g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
        y = sampling.random_upper_limit(rng, interval)
        lhs, rhs = gdf_bound_check(f, g, y)
        good += lhs <= rhs + slack(lhs, rhs)
    return good, total


def _selftest_gronwall(rng) -> tuple[int, int]:
    good = total = 0
    for i in range(50):
        total += 1
        interval = sampling.random_interval(rng)
        f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
        mu = WeightedMeasure(f)
        if i % 5 == 0:
            u = BVFunction.zero(interval)
            verdict = gronwall_verify(u, mu, strictness=slack(1.0))
            good += verdict.hypothesis_holds and verdict.conclusion_holds
        else:
            g = sampling.random_nonnegative_step(rng, interval)
            u = pl_times_step(f, g)
            verdict = gronwall_verify(u, mu, strictness=slack(1.0))
            # dichotomy: either the hypothesis chain breaks, or u is (near) zero
            good += (not verdict.hypothesis_holds) or verdict.conclusion_holds
    return good, total


def _selftest_positive(rng) -> tuple[int, int]:
    good = total = 0
    for _ in range(100):
        total += 1
        interval = sampling.random_interval(rng)
        f = sampling.random_piecewise_linear(rng, interval, low=0.2, high=3.0)
        g = BVFunction.from_step(sampling.random_nonnegative_step(rng, interval))
        witness = find_positive_y(f, g)
        check = rs_bv(f, g, witness.y)
        good += check.value - check.error_bound > 0.0
    return good, total


def _selftest_counterexample(rng) -> tuple[int, int]:
    f, fam = power_sine_family(0.5)
    g, params, cert = build_counterexample(
        f, fam, 1.5, 400, f_sup=POWER_SINE_UPPER_BOUND
    )
    return int(cert.verdict), 1


def cmd_selftest(args) -> int:
    rng = sampling.make_rng(args.seed)
    suites = [
        ("jordan-and-variation", _selftest_jordan),
        ("integration-by-parts", _selftest_ibp),
        ("oracle-agreement", _selftest_oracle),
        ("gdf-bound", _selftest_gdf),
        ("gronwall-dichotomy", _selftest_gronwall),
        ("positivity-witness", _selftest_positive),
        ("counterexample-certificate", _selftest_counterexample),
    ]
    failures = []
    for name, fn in suites:
        good, total = fn(rng)
        status = "PASS" if good == total else "FAIL"
        print(f"{status} {name}: {good}/{total}")
        if good != total:
            failures.append(name)
    if failures:
        print("failing properties: " + ", ".join(failures))
        return EXIT_SELFTEST
    print(f"all {len(suites)} property suites passed (seed={args.seed})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscert",
        description="Riemann-Stieltjes integration with certified error bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="integrate --f against --g up to --y")
    p.add_argument("--f", required=True, help="integrand expression in x")
    p.add_argument("--g", required=True, help="integrator spec file (JSON)")
    p.add_argument("--y", required=True, type=float, help="upper limit of integration")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("counterexample", help="build and certify the brick integrator")
    p.add_argument("--gamma", required=True, type=float)
    p.add_argument("--beta", required=True, type=float)
    p.add_argument("--N", required=True, type=int, help="truncation horizon")
    p.add_argument("--n0", type=int, default=None, help="force a threshold index")
    p.add_argument("--out-certificate", default=None, help="certificate JSON path")
    p.add_argument("--out-g", default=None, help="integrator spec JSON path")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("reproduce-figure", help="emit the canonical curves as CSV")
    p.add_argument("--out", required=True, help="CSV path for the J curve")
    p.set_defaults(fn=cmd_reproduce_figure)

    p = sub.add_parser("search-positive", help="find y with a positive integral")
    p.add_argument("--f", required=True, help="integrand expression in x")
    p.add_argument("--g", required=True, help="integrator spec file (JSON)")
    p.set_defaults(fn=cmd_search_positive)

    p = sub.add_parser("selftest", help="run the seeded invariant suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parse_args keeps no
    state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SpecFileError, ConstructionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EvaluationError, ToleranceNotReached) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except ThresholdNotFound as exc:
        print(f"threshold not found: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_SELFTEST


if __name__ == "__main__":
    sys.exit(main())
