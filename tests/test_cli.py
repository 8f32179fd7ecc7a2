"""Command-line behavior: spec files, commands, exit codes, output formats."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rscert.bv_core import BVFunction, Interval
from rscert.cli import (
    EXIT_EVAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_SELFTEST,
    EXIT_THRESHOLD,
    SpecFileError,
    build_parser,
    certificate_to_doc,
    integrator_from_doc,
    integrator_to_doc,
    main,
    _certificate_doc,
    _write_json,
)
from rscert.counterexample import (
    POWER_SINE_UPPER_BOUND,
    CounterexampleParams,
    IndexRecords,
    build_bricks,
    build_counterexample,
    certify_negative,
    power_sine_family,
)

SRC = Path(__file__).resolve().parents[1] / "src"

UNIT = Interval(0.0, 1.0)

BRICK_DOC = {
    "type": "step",
    "interval": [0.0, 1.0],
    "breakpoints": [0.5],
    "piece_values": [0.0, 1.0],
    "end_value": 0.0,
}


def write_doc(tmp_path, doc, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSpecFiles:
    def test_step_round_trip(self):
        g = integrator_from_doc(BRICK_DOC)
        doc = integrator_to_doc(g)
        assert doc == BRICK_DOC
        assert integrator_from_doc(doc) == g

    def test_pl_round_trip(self):
        doc = {"type": "piecewise_linear", "knots": [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]}
        g = integrator_from_doc(doc)
        assert integrator_to_doc(g) == doc

    def test_sum_collapses_to_canonical(self):
        doc = {"type": "sum", "parts": [BRICK_DOC, BRICK_DOC]}
        g = integrator_from_doc(doc)
        canonical = integrator_to_doc(g)
        assert canonical["type"] == "step"
        assert canonical["piece_values"] == [0.0, 2.0]
        # serialize-deserialize is idempotent on the canonical form
        assert integrator_to_doc(integrator_from_doc(canonical)) == canonical

    def test_mixed_sum_round_trip(self):
        doc = {
            "type": "sum",
            "parts": [
                BRICK_DOC,
                {"type": "piecewise_linear", "knots": [[0.0, 0.0], [1.0, 1.0]]},
            ],
        }
        g = integrator_from_doc(doc)
        canonical = integrator_to_doc(g)
        assert canonical["type"] == "sum"
        assert integrator_to_doc(integrator_from_doc(canonical)) == canonical

    def test_counterexample_type_builds_bricks(self):
        doc = {"type": "counterexample", "gamma": 0.5, "beta": 1.5,
               "truncation": 50, "threshold": 7}
        g = integrator_from_doc(doc)
        assert g.linear.is_constant()
        assert len(g.step.breakpoints) == 2 * (50 - 7 + 1)
        assert max(g.step.piece_values) == pytest.approx(7.0 ** -1.5)

    def test_positioned_validation_errors(self):
        bad = dict(BRICK_DOC, breakpoints=[0.5, 0.25])
        with pytest.raises(SpecFileError) as err:
            integrator_from_doc(bad)
        assert "$" in str(err.value)
        with pytest.raises(SpecFileError) as err:
            integrator_from_doc({"type": "step", "interval": [0, 1],
                                 "breakpoints": ["x"], "piece_values": [0, 1],
                                 "end_value": 0})
        assert ".breakpoints[0]" in str(err.value)

    def test_bad_breakpoint_path_is_exact(self, tmp_path, capsys):
        doc = dict(BRICK_DOC, breakpoints=[0.1, 0.2, 0.3, "0.4", 0.5],
                   piece_values=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(SpecFileError) as err:
            integrator_from_doc(doc)
        assert err.value.path == "$.breakpoints[3]"
        path = write_doc(tmp_path, doc)
        assert main(["integrate", "--f", "2", "--g", path, "--y", "0.5"]) == EXIT_PARSE
        assert "$.breakpoints[3]: expected a number, got '0.4'" in capsys.readouterr().err

    def test_bad_knot_path_is_exact(self):
        doc = {"type": "piecewise_linear", "knots": [[0.0, 0.0], [0.5, None], [1.0, 0.0]]}
        with pytest.raises(SpecFileError) as err:
            integrator_from_doc(doc)
        assert err.value.path == "$.knots[1][1]"

    def test_unknown_type(self):
        with pytest.raises(SpecFileError):
            integrator_from_doc({"type": "mystery"})

    @pytest.mark.parametrize("doc, path", [
        ({"type": "piecewise_linear", "knots": 5}, "$.knots"),
        (dict(BRICK_DOC, breakpoints=5), "$.breakpoints"),
        (dict(BRICK_DOC, piece_values=5), "$.piece_values"),
        ({"type": "sum", "parts": 5}, "$.parts"),
        ({"type": "sum", "parts": {"a": 1}}, "$.parts"),
        (dict(BRICK_DOC, interval=5), "$.interval"),
        (dict(BRICK_DOC, interval=[0]), "$.interval"),
        (dict(BRICK_DOC, interval=[0, 1, 2]), "$.interval"),
        ({"type": "sum", "parts": [dict(BRICK_DOC, interval=[0])]}, "$.parts[0].interval"),
    ])
    def test_fields_that_are_not_arrays_exit_parse(self, tmp_path, capsys, doc, path):
        with pytest.raises(SpecFileError) as err:
            integrator_from_doc(doc)
        assert err.value.path == path
        assert main(["integrate", "--f", "x+1", "--g", write_doc(tmp_path, doc), "--y", "0.5"]) == EXIT_PARSE
        assert f"{path}: expected an array" in capsys.readouterr().err

    def test_counterexample_beta_at_most_one(self, tmp_path, capsys):
        doc = {"type": "counterexample", "gamma": 0.5, "beta": 0.5, "truncation": 1000}
        with pytest.raises(SpecFileError, match="need beta > 1"):
            integrator_from_doc(doc)
        path = write_doc(tmp_path, doc)
        assert main(["integrate", "--f", "2", "--g", path, "--y", "0.5"]) == EXIT_PARSE
        assert "need beta > 1, gamma in (0,1), alpha > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["truncation", "threshold"])
    def test_boolean_is_not_a_count(self, tmp_path, capsys, field):
        doc = {"type": "counterexample", "gamma": 0.5, "beta": 1.5, "truncation": 1000}
        doc[field] = True
        with pytest.raises(SpecFileError) as err:
            integrator_from_doc(doc)
        assert err.value.path == "$." + field
        path = write_doc(tmp_path, doc)
        assert main(["integrate", "--f", "2", "--g", path, "--y", "0.5"]) == EXIT_PARSE
        assert f"$.{field}: {field} must be a positive integer" in capsys.readouterr().err


class TestIntegrateCommand:
    def test_constant_against_brick(self, tmp_path, capsys):
        path = write_doc(tmp_path, BRICK_DOC)
        code = main(["integrate", "--f", "2", "--g", path, "--y", "0.75"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "value=2.0" in out
        assert "error_bound=0.0" in out
        assert "certified=true" in out

    def test_identity_against_brick_full_interval(self, tmp_path, capsys):
        path = write_doc(tmp_path, BRICK_DOC)
        code = main(["integrate", "--f", "x", "--g", path, "--y", "1.0"])
        assert code == EXIT_OK
        assert "value=-0.5" in capsys.readouterr().out

    def test_affine_integrand_against_sloped_integrator_is_exact(self, tmp_path, capsys):
        doc = {"type": "piecewise_linear",
               "knots": [[0.0, 0.0], [0.3, 0.6], [0.7, 0.2], [1.0, 1.0]]}
        path = write_doc(tmp_path, doc)
        code = main(["integrate", "--f", "x+2", "--g", path, "--y", "0.95"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "error_bound=0.0" in out
        assert "certified=true" in out
        value = float(out.split("value=")[1].splitlines()[0])
        # slope 2, -1, 8/3 on [0, 0.3], [0.3, 0.7], [0.7, 0.95] times the
        # integrals of x + 2 over them: 1.29 - 1.0 + 1.88333... = 163/75
        assert value == pytest.approx(163.0 / 75.0, rel=1e-12)

    def test_oscillating_integrand_against_bricks(self, tmp_path, capsys):
        doc = {"type": "counterexample", "gamma": 0.5, "beta": 1.5,
               "truncation": 1000, "threshold": 7}
        path = write_doc(tmp_path, doc)
        code = main(["integrate", "--f", "x^0.5*sin(1/x)+2", "--g", path,
                     "--y", "0.04"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        value = float(out.split("value=")[1].splitlines()[0])
        assert value < 0.0
        # pinned from an independent math.fsum series oracle over bricks 7..1000
        assert value == pytest.approx(-0.12418087301417036, rel=1e-10)

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, BRICK_DOC)
        code = main(["integrate", "--f", "sin x", "--g", path, "--y", "0.5"])
        assert code == EXIT_PARSE

    def test_non_finite_number_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, BRICK_DOC)
        assert main(["integrate", "--f", "1e400", "--g", path, "--y", "0.5"]) == EXIT_PARSE
        assert "number '1e400' is not finite (at position 0)" in capsys.readouterr().err

    def test_unfoldable_exponent_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, BRICK_DOC)
        assert main(["integrate", "--f", "x^(1/0)", "--g", path, "--y", "0.5"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "power exponent cannot be evaluated: division by zero (at position 2)" in err

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["integrate", "--f", "2", "--g", str(path), "--y", "0.5"]) == EXIT_PARSE

    def test_evaluation_error_exits_3(self, tmp_path):
        path = write_doc(tmp_path, BRICK_DOC)
        # 1/(x - 0.5) blows up exactly at the brick's jump point
        assert main(["integrate", "--f", "1/(x-0.5)", "--g", path, "--y", "0.75"]) == EXIT_EVAL

    @pytest.mark.parametrize("text, point", [
        ("x/(1e308*10)", "0.0"), ("(x-1e308*10)^0", "0.0"), ("1e308*x*10", "0.179779052734375"),
    ])
    def test_affine_integrand_without_a_value_exits_3(self, tmp_path, capsys, text, point):
        # affine, but its program has no value (a constant overflows, or x
        # times one does): no exact form, so the quadrature names a point
        doc = {"type": "piecewise_linear", "knots": [[0, 0], [0.3, 0.5], [0.6, 0.2], [1, 1]]}
        path = write_doc(tmp_path, doc)
        assert main(["integrate", "--f", text, "--g", path, "--y", "0.95"]) == EXIT_EVAL
        assert f"expression undefined at x={point}\n" in capsys.readouterr().err


class TestCounterexampleCommand:
    def test_canonical_run_writes_files(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        g_path = tmp_path / "g.json"
        code = main([
            "counterexample", "--gamma", "0.5", "--beta", "1.5", "--N", "1000",
            "--out-certificate", str(cert_path), "--out-g", str(g_path),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict=true" in out
        cert = json.loads(cert_path.read_text())
        assert cert["verdict"] is True
        assert cert["empirical_threshold"] == 6
        assert cert["certified_threshold"] == 18
        assert len(cert["records"]) == 1000
        g_doc = json.loads(g_path.read_text())
        assert g_doc["type"] == "step"
        g = integrator_from_doc(g_doc)
        assert len(g.step.breakpoints) == 2 * (1000 - 6 + 1)

    @pytest.mark.parametrize("N", [400, 1000])
    def test_files_are_the_bytes_of_json_dump(self, tmp_path, capsys, N):
        cert_path = tmp_path / "cert.json"
        g_path = tmp_path / "g.json"
        assert main([
            "counterexample", "--gamma", "0.5", "--beta", "1.5", "--N", str(N),
            "--out-certificate", str(cert_path), "--out-g", str(g_path),
        ]) == EXIT_OK
        f, fam = power_sine_family(0.5)
        g, params, cert = build_counterexample(f, fam, 1.5, N, f_sup=POWER_SINE_UPPER_BOUND)
        cert_doc = certificate_to_doc(cert, params)
        g_doc = integrator_to_doc(BVFunction.from_step(g))
        assert cert_path.read_bytes() == (json.dumps(cert_doc, indent=2) + "\n").encode()
        assert g_path.read_bytes() == (json.dumps(g_doc, indent=2) + "\n").encode()

    def test_tiny_horizon_exits_4(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        g_path = tmp_path / "g.json"
        assert main(["counterexample", "--gamma", "0.5", "--beta", "1.5", "--N", "3",
                     "--out-certificate", str(cert_path), "--out-g", str(g_path)]) == EXIT_THRESHOLD
        assert not cert_path.exists()
        assert not g_path.exists()

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rscert", "counterexample", "--gamma", "0.5",
             "--beta", "1.5", "--N", "3"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_THRESHOLD
        assert "threshold not found" in proc.stderr

    def test_bad_gamma_exits_2(self):
        assert main(["counterexample", "--gamma", "1.5", "--beta", "1.5",
                     "--N", "10"]) == EXIT_PARSE

    @pytest.mark.parametrize("beta", ["0.5", "0.9"])
    def test_beta_at_most_one_exits_2(self, capsys, beta):
        assert main(["counterexample", "--gamma", "0.5", "--beta", beta,
                     "--N", "1000"]) == EXIT_PARSE
        assert "need beta > 1, gamma in (0,1), alpha > 0" in capsys.readouterr().err


WRITER_DOCS = [
    {"none": None, "empty_list": [], "empty_object": {}, "nested_empty": [[], {}]},
    {"type": "sum", "parts": [
        BRICK_DOC, {"type": "piecewise_linear", "knots": [[0.0, 0.0], [0.5, 1], [1.0, 0.0]]},
    ]},
    {"verdict": False, "threshold": 7, "note": 'caf\u00e9 "quoted"\n\ttab',
     "step_failures": [[0.25, 1.5e-13], [0.5, -0.0]]},
    {"column": [float("nan"), float("inf"), -float("inf"), 1e300, 5e-324, -0.0],
     "scalars": [3, True, None, "s", 2.5], "number": 2.5, "nothing": None},
    # a long float column, and a list of containers and scalars
    {"flat": [i / 7.0 for i in range(5000)], "mixed": [2, 1.5, [3.0, {"x": []}], None] * 1500},
]


def index_records(size):
    """IndexRecords of size rows whose float columns hold NaN and +-inf."""
    x = np.linspace(-1.0, 1.0, size)
    x[size // 2:size // 2 + 3] = [np.nan, np.inf, -np.inf][:min(3, size)]
    return IndexRecords(np.arange(1, size + 1), x, x[::-1].copy(), 2.0 * x, x < 0.0)


class TestJsonWriter:
    @pytest.mark.parametrize("doc", WRITER_DOCS)
    def test_bytes_equal_json_dump(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        _write_json(str(path), doc)
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()

    @pytest.mark.parametrize("size", [0, 1, 5000])
    def test_rows_are_written_as_objects(self, tmp_path, size):
        records = index_records(size)
        keys = [field.name for field in fields(IndexRecords)]
        columns = [getattr(records, key).tolist() for key in keys]
        rows = [dict(zip(keys, r)) for r in zip(*columns)]
        path = tmp_path / "rows.json"
        _write_json(str(path), {"head": [1.0], "records": records, "tail": None})
        expected = json.dumps({"head": [1.0], "records": rows, "tail": None}, indent=2)
        assert path.read_bytes() == (expected + "\n").encode()

    def test_many_pieces_equal_json_dump(self, tmp_path, monkeypatch):
        from rscert import cli

        monkeypatch.setattr(cli, "_CHUNK", 1000)
        records = index_records(2500)
        keys = [field.name for field in fields(IndexRecords)]
        rows = [dict(zip(keys, r)) for r in zip(*(getattr(records, k).tolist() for k in keys))]
        flat = [i / 7.0 - 100.0 for i in range(2500)]
        path = tmp_path / "pieces.json"
        _write_json(str(path), {"flat": flat, "records": records})
        expected = json.dumps({"flat": flat, "records": rows}, indent=2)
        assert path.read_bytes() == (expected + "\n").encode()

    @pytest.mark.parametrize("chunk", [8192, 1000])
    def test_float_arrays_equal_json_dump_of_lists(self, tmp_path, monkeypatch, chunk):
        from rscert import cli

        monkeypatch.setattr(cli, "_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        column = rng.standard_normal(2500) * 10.0 ** rng.integers(-30, 30, 2500)
        column[::2] = 0.0
        column[1::5] = -0.0
        column[3:6] = [np.nan, np.inf, -np.inf]
        doc = {"type": "step", "interval": [0.0, 1.0], "breakpoints": np.linspace(0.1, 0.9, 3),
               "piece_values": column, "empty": np.zeros(0), "one": np.array([2.5]),
               "end_value": 0.0}
        path = tmp_path / "arrays.json"
        _write_json(str(path), doc)
        as_lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
        assert path.read_bytes() == (json.dumps(as_lists, indent=2) + "\n").encode()

    def test_failing_certificate_equals_json_dump(self, tmp_path):
        f, fam = power_sine_family(0.5)
        g_bad = build_bricks(fam, 1.5, 200, interval=f.interval, first=5)  # brick 5 kept
        params = CounterexampleParams(beta=1.5, truncation=200, threshold=5)
        cert = certify_negative(f, g_bad, fam, params, f_sup=POWER_SINE_UPPER_BOUND)
        assert cert.step_failures
        path = tmp_path / "cert.json"
        _write_json(str(path), _certificate_doc(cert, params, cert.records))
        expected = json.dumps(certificate_to_doc(cert, params), indent=2) + "\n"
        assert path.read_bytes() == expected.encode()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("figure")
    first = base / "fig.csv"
    again = base / "fig2.csv"
    assert main(["reproduce-figure", "--out", str(first)]) == EXIT_OK
    assert main(["reproduce-figure", "--out", str(again)]) == EXIT_OK
    return first, again


class TestFigureCommand:

    @staticmethod
    def rows(path):
        out = []
        for line in path.read_text().splitlines():
            if line.startswith("#") or line.startswith("y,"):
                continue
            y, j, flag = line.split(",")
            out.append((float(y), float(j), flag))
        return out

    def test_deterministic_bytes(self, outputs):
        first, again = outputs
        assert first.read_bytes() == again.read_bytes()
        stem_a, stem_b = str(first)[:-4], str(again)[:-4]
        for suffix in ("_f.csv", "_g.csv"):
            with open(stem_a + suffix, "rb") as fa, open(stem_b + suffix, "rb") as fb:
                assert fa.read() == fb.read()

    def test_j_column_sign_structure(self, outputs):
        first, _ = outputs
        rows = self.rows(first)
        first_brick = (2.0 / math.pi) / (4 * 1000 - 1)
        assert all(j <= 0.0 for _, j, _ in rows)
        assert all(j < 0.0 for y, j, _ in rows if y >= first_brick)
        assert any(j == 0.0 for y, j, _ in rows if y < first_brick)

    def test_g_column_bounds(self, outputs):
        first, _ = outputs
        g_rows = []
        for line in open(str(first)[:-4] + "_g.csv"):
            if line.startswith("#") or line.startswith("x,"):
                continue
            x, g, flag = line.split(",")
            g_rows.append(float(g))
        assert min(g_rows) >= 0.0
        assert max(g_rows) == pytest.approx(7.0 ** -1.5)

    def test_window_and_flags(self, outputs):
        first, _ = outputs
        rows = self.rows(first)
        assert rows[-1][0] <= 0.04 + 1e-15
        ys = [y for y, _, _ in rows]
        assert all(y0 < y1 for y0, y1 in zip(ys, ys[1:]))
        flags = {flag for _, _, flag in rows}
        assert flags == {"jump", "grid"}


class TestSearchPositiveCommand:
    def test_constant_on_monotone_step(self, tmp_path, capsys):
        doc = dict(BRICK_DOC, piece_values=[0.0, 0.3], end_value=0.3)
        path = write_doc(tmp_path, doc)
        code = main(["search-positive", "--f", "2", "--g", path])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "method=case2" in out
        assert "y=0.5" in out

    def test_unbounded_variation_regime_exits_6(self, tmp_path, capsys):
        doc = {"type": "counterexample", "gamma": 0.5, "beta": 1.5,
               "truncation": 100, "threshold": 7}
        path = write_doc(tmp_path, doc)
        code = main(["search-positive", "--f", "x^0.5*sin(1/x)+2", "--g", path])
        err = capsys.readouterr().err
        assert code == EXIT_PRECONDITION
        assert "no_bv_coverage" in err
        assert "unbounded-variation" in err

    def test_smooth_integrand_on_monotone_step_has_no_variation_diagnostic(
            self, tmp_path, capsys):
        # sin(x)+2 has bounded variation: its sampled variation does not grow
        doc = dict(BRICK_DOC, piece_values=[0.0, 0.3], end_value=0.3)
        path = write_doc(tmp_path, doc)
        code = main(["search-positive", "--f", "sin(x)+2", "--g", path])
        err = capsys.readouterr().err
        assert code == EXIT_PRECONDITION
        assert "no_bv_coverage" in err
        assert "unbounded-variation" not in err

    def test_affine_integrand_without_a_value_exits_6(self, tmp_path, capsys):
        path = write_doc(tmp_path, BRICK_DOC)
        assert main(["search-positive", "--f", "1e308*x*10", "--g", path]) == EXIT_PRECONDITION
        assert "no_bv_coverage" in capsys.readouterr().err

    def test_constant_on_ramp_scans_the_edge_piece(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"type": "piecewise_linear", "knots": [[0, 0], [1, 1]]})
        code = main(["search-positive", "--f", "2", "--g", path])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "y=0.1111111111111111" in out
        assert "method=scan" in out
        assert "interval=[0.1111111111111111,1.0]" in out

    def test_vanishing_integrator_exits_6(self, tmp_path):
        doc = dict(BRICK_DOC, piece_values=[0.0, 0.0], end_value=0.0)
        path = write_doc(tmp_path, doc)
        assert main(["search-positive", "--f", "2", "--g", path]) == EXIT_PRECONDITION


class TestSelftestCommand:
    def test_passes_and_prints_lines(self, capsys):
        code = main(["selftest", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    def test_deterministic_under_seed(self, capsys):
        main(["selftest", "--seed", "123"])
        first = capsys.readouterr().out
        main(["selftest", "--seed", "123"])
        second = capsys.readouterr().out
        assert first == second


def test_verbs_leave_numpy_ma_unimported(tmp_path):
    """np.union1d, plain np.unique and np.isin import numpy.ma on their first
    call in a process, about 14 ms; no verb calls them."""
    write_doc(tmp_path, dict(BRICK_DOC, piece_values=[0.0, 0.3], end_value=0.3))
    write_doc(tmp_path, {"type": "piecewise_linear",
                         "knots": [[0, 0], [0.3, 0.5], [0.6, 0.2], [1, 1]]}, "pl.json")
    script = """if True:
        import sys
        from rscert.cli import main
        for argv in (
            ["counterexample", "--gamma", "0.5", "--beta", "1.5", "--N", "1000",
             "--out-certificate", "cert.json", "--out-g", "out.json"],
            ["search-positive", "--f", "2", "--g", "g.json"],
            ["integrate", "--f", "x+2", "--g", "pl.json", "--y", "0.95"],
            ["integrate", "--f", "sin(x)+2", "--g", "pl.json", "--y", "0.95"],
            ["selftest", "--seed", "7"],
        ):
            assert main(argv) == 0, argv
        assert "numpy.ma" not in sys.modules
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestRepeatedMain:
    """main builds its argument parser once per process and can be called
    again after any verb or argument error."""

    def test_verbs_and_an_argument_error_in_one_process(self, tmp_path, capsys, monkeypatch):
        from rscert import cli

        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            g_path = write_doc(tmp_path, BRICK_DOC)
            integrate = ["integrate", "--f", "2", "--g", g_path, "--y", "0.75"]
            assert main(integrate) == EXIT_OK
            first = capsys.readouterr()
            assert main(["counterexample", "--gamma", "0.5", "--beta", "1.5", "--N", "3"]) \
                == EXIT_THRESHOLD
            capsys.readouterr()
            with pytest.raises(SystemExit) as err:
                main(["integrate", "--f", "2"])
            assert err.value.code == 2
            usage = capsys.readouterr().err
            assert usage.startswith("usage: rscert integrate")
            assert usage.endswith("error: the following arguments are required: --g, --y\n")
            assert main(["search-positive", "--f", "2", "--g", g_path]) == EXIT_OK
            capsys.readouterr()
            assert main(integrate) == EXIT_OK
            assert capsys.readouterr() == first
            with pytest.raises(SystemExit) as err:
                main(["--help"])
            assert err.value.code == 0
            assert capsys.readouterr().out == build_parser().format_help()
            with pytest.raises(SystemExit):
                main(["integrate", "--f", "2"])
            assert capsys.readouterr().err == usage
            assert built == [1]
        finally:
            cli._parser.cache_clear()


class TestNoNumpyScalarText:
    """numpy 2 writes a numpy scalar as np.float64(...) under !r; no verb
    prints or writes one, on success or on an error path."""

    def test_every_verb_and_an_error_path(self, tmp_path, capsys):
        g_path = write_doc(tmp_path, BRICK_DOC)
        ramp = {"type": "piecewise_linear", "knots": [[0.0, 0.0], [1.0, 1.0]]}
        mixed = write_doc(tmp_path, {"type": "sum", "parts": [BRICK_DOC, ramp]}, "mixed.json")
        unordered = write_doc(tmp_path, {"type": "piecewise_linear", "knots": [
            [0.0, 0.0], [0.6, 1.0], [0.4, 2.0], [1.0, 0.0]]}, "unordered.json")
        files = [tmp_path / name for name in ("cert.json", "g_out.json", "fig.csv",
                                              "fig_f.csv", "fig_g.csv")]
        counterexample = ["counterexample", "--gamma", "0.5", "--beta", "1.5", "--N", "400"]
        runs = [
            (["integrate", "--f", "x^2+1", "--g", mixed, "--y", "0.75"], EXIT_OK),
            (["integrate", "--f", "2", "--g", g_path, "--y", "1.5"], EXIT_PARSE),
            (["search-positive", "--f", "x+1", "--g", g_path], EXIT_OK),
            (["search-positive", "--f", "x+1", "--g", unordered], EXIT_PARSE),
            (counterexample + ["--out-certificate", str(files[0]), "--out-g", str(files[1])],
             EXIT_OK),
            (counterexample + ["--n0", "1"], EXIT_PARSE),
            (["reproduce-figure", "--out", str(files[2])], EXIT_OK),
            (["reproduce-figure", "--out", str(tmp_path / "missing" / "fig.csv")], EXIT_IO),
            (["selftest", "--seed", "5"], EXIT_OK),
        ]
        texts = []
        for argv, code in runs:
            assert main(argv) == code, argv
            out, err = capsys.readouterr()
            assert out or err, argv
            texts += [out, err]
        texts += [path.read_text() for path in files]
        assert "not strictly increasing at 0.4" in "".join(texts)
        for text in texts:
            assert "np.float64(" not in text


class TestExitCodeTable:
    def test_documented_values(self):
        assert (EXIT_OK, EXIT_SELFTEST, EXIT_PARSE, EXIT_EVAL) == (0, 1, 2, 3)
        assert EXIT_THRESHOLD == 4
        assert EXIT_PRECONDITION == 6
