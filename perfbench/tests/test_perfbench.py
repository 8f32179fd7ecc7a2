"""Tests of the benchmark itself: each output check accepts real program
output and rejects a hand-corrupted copy, the reference quadrature agrees
with mpmath, and a short run of every workload ends with the expected
failure counts.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Operations  # noqa: E402

SEED = 3


# -- counterexample -----------------------------------------------------------


@pytest.fixture(scope="module")
def counterexample_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("counterexample")
    inst = {"kind": "counterexample", "gamma": 0.45, "beta": 1.7, "N": 400}
    result = Operations(str(out)).run(inst)
    ref = checks.counterexample_reference(inst["gamma"], inst["beta"], inst["N"])
    cert = json.loads((out / "certificate.json").read_text())
    g = json.loads((out / "g.json").read_text())
    return ref, result, cert, g


def test_counterexample_output_passes(counterexample_output):
    ref, result, cert, g = counterexample_output
    assert result["rc"] == 0
    assert checks.check_counterexample_stdout(ref, result) == []
    assert checks.check_certificate(ref, cert) == []
    problems, all_negative = checks.check_integrator(ref, g)
    assert problems == [] and all_negative
    assert cert["verdict"] is True


def _first_negative(cert):
    return next(i for i, r in enumerate(cert["records"]) if r["negative"])


def _flip_flag(cert, g):
    cert["records"][_first_negative(cert)]["negative"] = False


def _flip_corrected(cert, g):
    r = cert["records"][_first_negative(cert)]
    r["corrected"] = -r["corrected"]


def _shrink_remainder(cert, g):
    cert["remainder_bound"] *= 0.5


def _shrink_tail(cert, g):
    cert["records"][10]["tail_lower_bound"] *= 0.5


def _bump_partial(cert, g):
    cert["records"][20]["partial_integral"] += 1e-6


def _wrong_threshold(cert, g):
    cert["threshold"] += 1


def _wrong_empirical(cert, g):
    cert["empirical_threshold"] += 1


def _wrong_analytic(cert, g):
    cert["certified_threshold"] -= 1


def _wrong_verdict(cert, g):
    cert["verdict"] = False


CERT_CORRUPTIONS = [_flip_flag, _flip_corrected, _shrink_remainder, _shrink_tail,
                    _bump_partial, _wrong_threshold, _wrong_empirical, _wrong_analytic,
                    _wrong_verdict]


@pytest.mark.parametrize("corrupt", CERT_CORRUPTIONS, ids=lambda f: f.__name__)
def test_certificate_check_rejects_corruption(counterexample_output, tmp_path, corrupt):
    ref, _, cert, g = counterexample_output
    cert, g = copy.deepcopy(cert), copy.deepcopy(g)
    corrupt(cert, g)
    (tmp_path / "c.json").write_text(json.dumps(cert))
    (tmp_path / "g.json").write_text(json.dumps(g))
    assert checks.check_counterexample_files(ref, str(tmp_path / "c.json"), str(tmp_path / "g.json"))


def _g_moved_brick(g):
    g["breakpoints"][3] *= 1.001


def _g_height(g):
    g["piece_values"][1] *= 1.01


def _g_negative(g):
    g["piece_values"][2] = -1e-3


def _g_start(g):
    g["piece_values"][0] = 1e-3


def _g_tall_brick(g):
    # a taller first brick pushes the cumulative integral at its trough above the remainder
    g["piece_values"][-2] = 50.0


@pytest.mark.parametrize("corrupt", [_g_moved_brick, _g_height, _g_negative, _g_start, _g_tall_brick],
                         ids=lambda f: f.__name__)
def test_integrator_check_rejects_corruption(counterexample_output, corrupt):
    ref, _, _, g = counterexample_output
    g = copy.deepcopy(g)
    corrupt(g)
    problems, _ = checks.check_integrator(ref, g)
    assert problems


def test_integrator_check_sees_nonnegative_integral(counterexample_output):
    ref, _, _, g = counterexample_output
    g = copy.deepcopy(g)
    g["piece_values"][-2] = 50.0
    _, all_negative = checks.check_integrator(ref, g)
    assert not all_negative


def test_stdout_check_rejects_wrong_verdict(counterexample_output):
    ref, result, _, _ = counterexample_output
    bad = dict(result, stdout=result["stdout"].replace("verdict=true", "verdict=false"))
    assert checks.check_counterexample_stdout(ref, bad)


# -- witness ------------------------------------------------------------------


@pytest.fixture(scope="module")
def witness_outputs(tmp_path_factory):
    pool = workloads.witness_instances(SEED)
    ops = Operations(str(tmp_path_factory.mktemp("witness")))
    picks = [pool[0], pool[workloads.WITNESS_SLOPED_AT[0]]]  # one pure-jump, one sloped
    assert picks[0]["g_knots"][0][1] == picks[0]["g_knots"][-1][1]
    assert picks[1]["g_knots"][0][1] != picks[1]["g_knots"][-1][1]
    return [(checks.WitnessReference(inst), ops.run(inst)) for inst in picks]


def test_witness_outputs_pass(witness_outputs):
    for ref, out in witness_outputs:
        assert checks.check_witness(ref, out) == []
        assert out["interval"] is not None


def test_witness_check_rejects_bound_above_integral(witness_outputs):
    for ref, out in witness_outputs:
        bad = dict(out, lower_bound=ref.J(out["y"]) * 1.001)
        assert checks.check_witness(ref, bad)
        assert checks.check_witness(ref, dict(out, lower_bound=0.0))


def test_witness_check_rejects_interval_past_a_drop():
    # g jumps up by 1 at 0.3 and back to 0 at 0.6; f rises, so J < 0 after 0.6
    inst = {"interval": [0.0, 1.0], "f_knots": [[0.0, 1.0], [1.0, 2.0]],
            "g_step": {"breakpoints": [0.3, 0.6], "piece_values": [0.0, 1.0, 0.0], "end_value": 0.0},
            "g_knots": [[0.0, 0.0], [1.0, 0.0]]}
    ref = checks.WitnessReference(inst)
    assert ref.J(0.3) == pytest.approx(1.3)
    assert ref.J(0.6) == pytest.approx(-0.3)
    good = {"y": 0.3, "lower_bound": 1.2, "method": "case2", "interval": [0.3, 0.45]}
    assert checks.check_witness(ref, good) == []
    assert checks.check_witness(ref, dict(good, interval=[0.3, 0.8]))


def test_witness_reference_linear_part():
    # f = 1 + x, g = x on [0, 1]: J(y) = y + y^2/2
    inst = {"interval": [0.0, 1.0], "f_knots": [[0.0, 1.0], [1.0, 2.0]],
            "g_step": {"breakpoints": [], "piece_values": [0.0], "end_value": 0.0},
            "g_knots": [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]}
    ref = checks.WitnessReference(inst)
    for y in (0.25, 0.5, 0.9, 1.0):
        assert ref.J(y) == pytest.approx(y + y * y / 2, rel=1e-14)


# -- integrate: Lipschitz and Sampled moduli -----------------------------------


@pytest.fixture(scope="module")
def quadrature_output(tmp_path_factory):
    inst = workloads.integrate_pool(SEED)[0]
    assert inst["modulus"][0] == "lipschitz"
    out = Operations(str(tmp_path_factory.mktemp("quadrature"))).run(inst)
    return inst, checks.quadrature_reference(inst), out


def test_quadrature_output_passes(quadrature_output):
    _, ref, out = quadrature_output
    assert checks.check_quadrature(ref, out) == checks.OK
    assert out["certified"] is True and not out["raised"]


def test_quadrature_check_rejects_bound_below_error(quadrature_output):
    _, ref, out = quadrature_output
    error = abs(out["value"] - ref.value)
    assert error > 10 * ref.slack  # the slack is rounding, far below the midpoint error
    status, _ = checks.check_quadrature(ref, dict(out, error_bound=0.5 * error))
    assert status == "wrong"
    status, _ = checks.check_quadrature(ref, dict(out, error_bound=0.5 * error, raised=True))
    assert status == "wrong"


def test_quadrature_check_rejects_bound_above_tol_and_wrong_flag(quadrature_output):
    _, ref, out = quadrature_output
    assert checks.check_quadrature(ref, dict(out, error_bound=2 * ref.tol))[0] == "wrong"
    assert checks.check_quadrature(ref, dict(out, certified=False))[0] == "wrong"


def test_quadrature_reference_matches_mpmath(quadrature_output):
    mpmath = pytest.importorskip("mpmath")
    inst, ref, _ = quadrature_output
    c = {k: mpmath.mpf(v) for k, v in inst["coeffs"].items()}
    mpmath.mp.dps = 30

    def f(x):
        return (c["c0"] + c["c1"] * x + c["c2"] * x**2 + c["a1"] * mpmath.sin(c["w1"] * x + c["p1"])
                + c["a2"] * mpmath.cos(c["w2"] * x + c["p2"]))

    s = inst["g_step"]
    total = mpmath.mpf(0)
    for p, v0, v1 in zip(s["breakpoints"], s["piece_values"], s["piece_values"][1:]):
        total += f(mpmath.mpf(p)) * (mpmath.mpf(v1) - mpmath.mpf(v0))
    for (x0, y0), (x1, y1) in zip(inst["g_knots"], inst["g_knots"][1:]):
        slope = (mpmath.mpf(y1) - mpmath.mpf(y0)) / (mpmath.mpf(x1) - mpmath.mpf(x0))
        total += slope * mpmath.quad(f, [x0, x1])
    assert abs(float(total) - ref.value) <= ref.slack


def test_modulus_default_tolerance_hits_the_zero_bound_fault(tmp_path):
    def sampled(seed):
        return [inst for inst in workloads.integrate_pool(seed) if inst["modulus"][0] == "sampled"]

    ops = Operations(str(tmp_path))
    default = [inst for inst in sampled(SEED) if inst["tol"] == workloads.DEFAULT_TOL]
    met = [inst for inst in sampled(SEED) if inst["tol"] != workloads.DEFAULT_TOL]
    assert len(default) == workloads.MODULUS_DEFAULT and len(met) == workloads.MODULUS_OK
    assert default == [inst for inst in sampled(SEED + 1) if inst["tol"] == workloads.DEFAULT_TOL]
    out = ops.run(default[0])
    status, why = checks.check_quadrature(checks.quadrature_reference(default[0]), out)
    assert status == "failed" and "zero-bound" in why
    out = ops.run(met[0])
    assert out["error_bound"] > 0.0 and out["certified"] is False
    assert checks.check_quadrature(checks.quadrature_reference(met[0]), out) == checks.OK


# -- whole runs ---------------------------------------------------------------


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = SEED):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", sorted(workloads.POOLS))
def test_short_run_reports_expected_failures(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    per_pass = workloads.QUADRATURE_POOL + workloads.MODULUS_OK + workloads.MODULUS_DEFAULT
    expected_share = workloads.MODULUS_DEFAULT / per_pass if workload == "integrate" else 0.0
    assert result["failed"] == expected_share * result["attempted"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in bench["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0.0


def test_traced_run_reports_every_layer_metric_and_repeats_counts():
    first, second = _run("integrate", 1), _run("integrate", 1)
    assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
    a = json.loads(first.stdout.strip().splitlines()[-1])["metrics"]
    b = json.loads(second.stdout.strip().splitlines()[-1])["metrics"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(a) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert a[m["name"]]["unit"] == m["unit"]
        if m["unit"] == "count":
            assert a[m["name"]]["value"] == b[m["name"]]["value"], m["name"]
    assert a["funcspec.integrand_values.points"]["value"] > 0.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("certify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_trace_aggregate_self_time(tmp_path):
    tracer = tracing.Tracer()
    inner = tracer.wrap("stieltjes.rs_jump_exact", lambda: None)

    def outer_fn():
        inner()
        inner()

    outer = tracer.wrap("stieltjes.rs_bv", outer_fn)
    tracer.op = 0
    outer()
    tracer.save(str(tmp_path / "spans.npz"))
    got = tracing.aggregate(str(tmp_path / "spans.npz"), operations=1)
    assert got["stieltjes.rs_jump_exact.calls"] == 2.0
    assert got["stieltjes.rs_bv.calls"] == 1.0
    total_ms = 1000.0 * (tracer.end[0] - tracer.start[0])
    children_ms = 1000.0 * sum(tracer.end[i] - tracer.start[i] for i in (1, 2))
    assert got["stieltjes.rs_bv.self_ms"] == pytest.approx(total_ms - children_ms)
