"""Benchmark of rscert: one workload, one seed, one process of operations.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload certify --seed 20240901 --seconds 55 --trace 0

The workloads are certify and integrate (see README.md). The instances
are generated from --seed; a worker process (worker.py) imports rscert from
./src and runs them in a closed loop for --seconds; this process checks
every output against references computed without rscert (checks.py). The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from a traced run (tracing.py). Other
output goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # the worker's own set-up plus four set-up-only interpreters
SETUP_TIMEOUT_S = 60
EXTRA_RUN_S = 120  # allowed beyond --seconds for the last pass and the output


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(pool_path: Path, out_dir: Path, mode: str, seconds: float, trace: int,
            timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--pool", str(pool_path), "--out", str(out_dir),
           "--mode", mode, "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=_worker_env(), cwd=str(ROOT), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "rscert" / "__init__.py").is_file():
        print(f"error: no rscert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    pool = workloads.POOLS[args.workload](args.seed)
    pool_path = out_dir / "pool.json"
    pool_path.write_text(json.dumps(pool), encoding="utf-8")
    checker = checks.Checker(pool, str(out_dir))

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(pool_path, out_dir, "setup", 0.0, 0, SETUP_TIMEOUT_S)["setup_s"])
    summary = _worker(pool_path, out_dir, "run", args.seconds, args.trace,
                      args.seconds + EXTRA_RUN_S)
    setups.append(summary["setup_s"])

    with open(out_dir / "results.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    statuses = [checker.check(rec) for rec in records]
    failed = sum(status == "failed" for status, _ in statuses)
    wrong = [(rec, why) for rec, (status, why) in zip(records, statuses) if status == "wrong"]
    for rec, why in wrong[:5]:
        print(f"wrong output, instance {rec['instance']}: {why}", file=sys.stderr)
    reasons = sorted({why for status, why in statuses if status == "failed"})
    for why in reasons[:5]:
        print(f"failed operation: {why}", file=sys.stderr)

    latencies = [rec["latency_s"] for rec in records]
    if args.trace:
        metrics = {
            name: {"value": value, "unit": tracing.UNITS[name.rsplit(".", 1)[1]]}
            for name, value in tracing.aggregate(str(out_dir / "spans.npz"), len(records)).items()
        }
        metrics[tracing.WALL] = {"value": 1000.0 * statistics.fmean(latencies), "unit": "ms"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
            "latency_p90_ms": {"value": 1000.0 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
                               "unit": "ms"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload} seed={args.seed}: {len(records)} operations, {failed} failed, "
          f"{len(wrong)} wrong", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
