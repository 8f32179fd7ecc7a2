"""The process that runs one workload's operations (started by run.py).

It reads the pool of generated instances, then takes the time from the
start of ``import rscert`` to the end of one untimed first operation (the
set-up). With ``--mode setup`` it reports that and exits. With
``--mode run`` it cycles through the pool in a closed loop, one operation at
a time, until ``--seconds`` have passed at the end of a whole pass. Every
operation builds the program's objects from the generated numbers, as a CLI
call would; a garbage collection runs between operations, outside the
timing. Outputs go to ``results.jsonl``, one line per operation as it
ends, for run.py to check; this process checks nothing, so checking does
not count towards its peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Operations:
    """Turns pool instances into calls of the program's public API."""

    def __init__(self, out_dir: str):
        from rscert import bv_core, cli, funcspec, positivity, stieltjes

        self.bv_core, self.cli, self.funcspec = bv_core, cli, funcspec
        self.positivity, self.stieltjes = positivity, stieltjes
        self.out_dir = out_dir
        self.cert_path = os.path.join(out_dir, "certificate.json")
        self.g_path = os.path.join(out_dir, "g.json")
        self.seen: dict[int, dict[str, int]] = {}

    def _integrator(self, inst):
        bv = self.bv_core
        a, b = inst["interval"]
        s = inst["g_step"]
        step = bv.StepFunction(bv.Interval(a, b), tuple(s["breakpoints"]),
                               tuple(s["piece_values"]), s["end_value"])
        linear = bv.PiecewiseLinear(tuple(tuple(k) for k in inst["g_knots"]))
        return bv.BVFunction(step, linear)

    def run(self, inst) -> dict:
        return getattr(self, "op_" + inst["kind"])(inst)

    def op_counterexample(self, inst) -> dict:
        argv = ["counterexample", "--gamma", repr(inst["gamma"]), "--beta", repr(inst["beta"]),
                "--N", str(inst["N"]), "--out-certificate", self.cert_path, "--out-g", self.g_path]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return {"rc": rc, "stdout": buf.getvalue()}

    def op_witness(self, inst) -> dict:
        f = self.bv_core.PiecewiseLinear(tuple(tuple(k) for k in inst["f_knots"]))
        w = self.positivity.find_positive_y(f, self._integrator(inst))
        interval = None if w.interval is None else [w.interval.a, w.interval.b]
        return {"y": w.y, "lower_bound": w.lower_bound, "method": w.method, "interval": interval}

    def op_quadrature(self, inst) -> dict:
        fs = self.funcspec
        a, b = inst["interval"]
        kind, *params = inst["modulus"]
        if kind == "lipschitz":
            modulus = fs.Lipschitz(params[0])
        else:
            modulus = fs.Sampled(int(params[0]), params[1])
        f = fs.IntegrandSpec(fs.parse(inst["expr"]), self.bv_core.Interval(a, b), modulus)
        try:
            r = self.stieltjes.rs_bv(f, self._integrator(inst), inst["y"], inst["tol"])
        except self.stieltjes.ToleranceNotReached as exc:
            return {"value": exc.value, "error_bound": exc.error_bound, "certified": None,
                    "raised": True}
        return {"value": r.value, "error_bound": r.error_bound, "certified": r.certified,
                "raised": False}

    def keep_files(self, index: int, output: dict) -> None:
        """Digest the written certificate and integrator; keep one copy of
        each distinct pair per instance, so every operation's files can be
        checked without checking every byte again."""
        key = _digest(self.cert_path) + _digest(self.g_path)
        copies = self.seen.setdefault(index, {})
        if key not in copies:
            copies[key] = len(copies)
            stem = os.path.join(self.out_dir, f"inst{index}-v{copies[key]}")
            shutil.copyfile(self.cert_path, stem + "-certificate.json")
            shutil.copyfile(self.g_path, stem + "-g.json")
        output["files"] = f"inst{index}-v{copies[key]}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["setup", "run"], required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    with open(args.pool, encoding="utf-8") as fh:
        pool = json.load(fh)

    t0 = time.perf_counter()
    ops = Operations(args.out)
    ops.run(pool[0])
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # records go to disk as they come, so the worker's peak RSS does not
    # grow with the number of operations a run completes
    operations = 0
    with open(os.path.join(args.out, "results.jsonl"), "w", encoding="utf-8") as results:
        started = time.perf_counter()
        while True:
            for index, inst in enumerate(pool):
                gc.collect()
                if tracer is not None:
                    tracer.op = operations
                t = time.perf_counter()
                try:
                    output, error = ops.run(inst), None
                except Exception as exc:  # reported as a failed operation
                    output, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t
                if output is not None and inst["kind"] == "counterexample":
                    ops.keep_files(index, output)
                results.write(json.dumps({"instance": index, "latency_s": latency,
                                          "output": output, "error": error}) + "\n")
                operations += 1
            if time.perf_counter() - started >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.save(os.path.join(args.out, "spans.npz"))
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                      "operations": operations}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
