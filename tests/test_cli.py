"""Command-line behavior: spec files, commands, exit codes, output formats."""

import json
import math

import pytest

from rscert.bv_core import Interval
from rscert.cli import (
    EXIT_EVAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_SELFTEST,
    EXIT_THRESHOLD,
    SpecFileError,
    integrator_from_doc,
    integrator_to_doc,
    main,
)

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
        assert g.is_pure_step()
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

    def test_unknown_type(self):
        with pytest.raises(SpecFileError):
            integrator_from_doc({"type": "mystery"})


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

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["integrate", "--f", "2", "--g", str(path), "--y", "0.5"]) == EXIT_PARSE

    def test_evaluation_error_exits_3(self, tmp_path):
        path = write_doc(tmp_path, BRICK_DOC)
        # 1/(x - 0.5) blows up exactly at the brick's jump point
        assert main(["integrate", "--f", "1/(x-0.5)", "--g", path, "--y", "0.75"]) == EXIT_EVAL


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

    def test_tiny_horizon_exits_4(self):
        assert main(["counterexample", "--gamma", "0.5", "--beta", "1.5",
                     "--N", "3"]) == EXIT_THRESHOLD

    def test_bad_gamma_exits_2(self):
        assert main(["counterexample", "--gamma", "1.5", "--beta", "1.5",
                     "--N", "10"]) == EXIT_PARSE


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


class TestExitCodeTable:
    def test_documented_values(self):
        assert (EXIT_OK, EXIT_SELFTEST, EXIT_PARSE, EXIT_EVAL) == (0, 1, 2, 3)
        assert EXIT_THRESHOLD == 4
        assert EXIT_PRECONDITION == 6
