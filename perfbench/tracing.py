"""Span recording around the public functions of each ``rscert`` layer.

The tracer replaces each listed function in every ``rscert`` module
namespace that binds it (``curve`` as imported into ``counterexample`` and
``cli``, ``rs_bv`` as imported into ``positivity``, and so on), so calls
between modules are seen as well as calls from the benchmark. Spans are
kept in flat in-memory lists (name, start, end, parent, operation, count)
and written to one ``.npz`` file when the run ends. ``aggregate`` turns
that file into per-operation averages; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute, what the count column records)
FUNCTIONS = [
    ("stieltjes.rs_jump_exact", "rscert.stieltjes", "rs_jump_exact", None),
    ("stieltjes.rs_pl_certified", "rscert.stieltjes", "rs_pl_certified", None),
    ("stieltjes.rs_bv", "rscert.stieltjes", "rs_bv", None),
    ("stieltjes.curve", "rscert.stieltjes", "curve", None),
    ("positivity.find_positive_y", "rscert.positivity", "find_positive_y", None),
    ("positivity.positive_interval", "rscert.positivity", "positive_interval", None),
    ("positivity.detect_case", "rscert.positivity", "detect_case1", None),
    ("positivity.detect_case", "rscert.positivity", "detect_case2", None),
    ("bv_core.jordan_decompose", "rscert.bv_core", "jordan_decompose", None),
    ("funcspec.integrand_values", "rscert.funcspec", "integrand_values", "points"),
    ("funcspec.integrand_modulus", "rscert.funcspec", "integrand_modulus", None),
    ("counterexample.validate_family", "rscert.counterexample", "validate_family", None),
    ("counterexample.build_bricks", "rscert.counterexample", "build_bricks", None),
    ("counterexample.certify_negative", "rscert.counterexample", "certify_negative", None),
    ("counterexample.build_counterexample", "rscert.counterexample", "build_counterexample", None),
    ("cli.main", "rscert.cli", "main", None),
    ("cli.certificate_to_doc", "rscert.cli", "certificate_to_doc", None),
]
# (span name, module, class, method, count column)
METHODS = [
    ("bv_core.jumps_in", "rscert.bv_core", "StepFunction", "jumps_in", "items"),
    ("bv_core.step_function_init", "rscert.bv_core", "StepFunction", "__init__", None),
]
JSON_DUMP = "cli.json_dump"

# The per-layer metrics: (metric name, span name, statistic), each averaged
# per operation. The README maps them to the end-to-end metrics they move.
PER_LAYER = [
    ("stieltjes.rs_jump_exact.calls", "stieltjes.rs_jump_exact", "calls"),
    ("bv_core.jumps_in.items", "bv_core.jumps_in", "items"),
    ("positivity.positive_interval.self_ms", "positivity.positive_interval", "self_ms"),
    ("positivity.find_positive_y.self_ms", "positivity.find_positive_y", "self_ms"),
    ("positivity.detect_case.self_ms", "positivity.detect_case", "self_ms"),
    ("bv_core.jordan_decompose.calls", "bv_core.jordan_decompose", "calls"),
    ("bv_core.jordan_decompose.self_ms", "bv_core.jordan_decompose", "self_ms"),
    ("funcspec.integrand_values.calls", "funcspec.integrand_values", "calls"),
    ("funcspec.integrand_values.points", "funcspec.integrand_values", "points"),
    ("funcspec.integrand_values.self_ms", "funcspec.integrand_values", "self_ms"),
    ("stieltjes.rs_pl_certified.calls", "stieltjes.rs_pl_certified", "calls"),
    ("stieltjes.rs_pl_certified.self_ms", "stieltjes.rs_pl_certified", "self_ms"),
    ("stieltjes.rs_bv.calls", "stieltjes.rs_bv", "calls"),
    ("stieltjes.rs_bv.self_ms", "stieltjes.rs_bv", "self_ms"),
    ("funcspec.integrand_modulus.calls", "funcspec.integrand_modulus", "calls"),
    ("funcspec.integrand_modulus.self_ms", "funcspec.integrand_modulus", "self_ms"),
    ("counterexample.validate_family.calls", "counterexample.validate_family", "calls"),
    ("counterexample.validate_family.self_ms", "counterexample.validate_family", "self_ms"),
    ("counterexample.build_bricks.self_ms", "counterexample.build_bricks", "self_ms"),
    ("counterexample.certify_negative.self_ms", "counterexample.certify_negative", "self_ms"),
    ("counterexample.build_counterexample.self_ms", "counterexample.build_counterexample", "self_ms"),
    ("stieltjes.curve.calls", "stieltjes.curve", "calls"),
    ("stieltjes.curve.self_ms", "stieltjes.curve", "self_ms"),
    ("bv_core.step_function_init.calls", "bv_core.step_function_init", "calls"),
    ("bv_core.step_function_init.self_ms", "bv_core.step_function_init", "self_ms"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
    ("cli.certificate_to_doc.self_ms", "cli.certificate_to_doc", "self_ms"),
    ("cli.json_dump.self_ms", JSON_DUMP, "self_ms"),
]
WALL = "trace.wall_ms"
UNITS = {"calls": "count", "items": "count", "points": "count", "self_ms": "ms"}


def _count(kind, args, result) -> int:
    if kind == "points":
        return len(args[1])
    if kind == "items":
        return len(result)
    return 0


class Tracer:
    """In-memory span recorder; ``op`` is the id of the operation under way."""

    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.opid: list[int] = []
        self.count: list[int] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, span: str, fn, count_kind=None):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.opid.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            self.count.append(0)
            self.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count_kind:
                self.count[idx] = _count(count_kind, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever an rscert module binds it."""
        import importlib
        import json as json_module

        modules = [m for n, m in sys.modules.items() if n == "rscert" or n.startswith("rscert.")]
        for span, module, attr, kind in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            traced = self.wrap(span, original, kind)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)
        for span, module, cls_name, attr, kind in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, self.wrap(span, getattr(cls, attr), kind))

        cli = importlib.import_module("rscert.cli")
        dump = self.wrap(JSON_DUMP, json_module.dump)

        class _Json:
            """The json module as cli sees it, with dump traced."""

            def __getattr__(self, name):
                return dump if name == "dump" else getattr(json_module, name)

        cli.json = _Json()

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            name=np.asarray(self.name, dtype=np.int32),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.opid, dtype=np.int64),
            count=np.asarray(self.count, dtype=np.int64),
            names=np.asarray(json.dumps(self.names)),
        )


def aggregate(path: str, operations: int) -> dict[str, float]:
    """Per-operation averages of every PER_LAYER metric from a spans file."""
    import numpy as np

    with np.load(path) as z:
        names = json.loads(str(z["names"]))
        name, parent, count = z["name"], z["parent"], z["count"]
        duration = z["end"] - z["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    self_time = duration - child_time
    out = {}
    for metric, span, stat in PER_LAYER:
        mask = name == names.index(span) if span in names else np.zeros(len(name), bool)
        if stat == "calls":
            total = float(mask.sum())
        elif stat == "self_ms":
            total = 1000.0 * float(self_time[mask].sum())
        else:
            total = float(count[mask].sum())
        out[metric] = total / operations
    return out
