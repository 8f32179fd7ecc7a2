"""Output checks made apart from the program.

Nothing here imports ``rscert``. Each pooled instance gets a reference
computed once, with numpy, from the generated numbers alone, outside the
timed region; every operation's output is then checked against it. A check
returns ``("ok", "")``, ``("failed", why)`` for an operation that raised or
hit the known zero-bound fault of a Sampled modulus, or ``("wrong", why)``
for any other output that disagrees with the reference.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from workloads import smooth_values

# float-rounding slack, relative to the sum of the magnitudes involved
ROUNDING = 64 * np.finfo(float).eps
# the counterexample sums N terms in some order; its rounding stays far below this
SUM_TOLERANCE = 1e-11
F_SUP = 3.0  # the bound for x^gamma*sin(1/x)+2 that the counterexample verb uses
SIGN_SCALE = 1e-12  # numeric slack of the program's negativity decisions
GAUSS_NODES, GAUSS_SPLIT = np.polynomial.legendre.leggauss(24), 4

OK = ("ok", "")


# -- counterexample -----------------------------------------------------------


def _power_sine(gamma: float, xs: np.ndarray) -> np.ndarray:
    """x^gamma * sin(1/x) + 2 for x > 0."""
    return xs**gamma * np.sin(1.0 / xs) + 2.0


@dataclass
class CounterexampleReference:
    gamma: float
    beta: float
    N: int
    troughs: np.ndarray
    crests: np.ndarray
    partial: np.ndarray
    tail: np.ndarray
    remainder: float
    corrected: np.ndarray
    negative: np.ndarray
    empirical_threshold: int | None
    analytic_threshold: int | None
    family_ok: bool
    tolerance: float

    @property
    def analytic_ok(self) -> bool:
        return self.analytic_threshold is not None and self.analytic_threshold <= self.N + 1


def counterexample_reference(gamma: float, beta: float, N: int) -> CounterexampleReference:
    n = np.arange(1, N + 1, dtype=float)
    troughs = (2.0 / math.pi) / (4.0 * n - 1.0)
    crests = (2.0 / math.pi) / (4.0 * n - 3.0)
    f_t, f_c = _power_sine(gamma, troughs), _power_sine(gamma, crests)
    weighted = n**-beta * (f_c - f_t)
    # suffix[n] = sum over k > n of the weighted rises, from the prefix sums
    suffix = math.fsum(weighted) - np.cumsum(weighted)
    partial = n**-beta * f_t - suffix

    alpha = 2.0 * (2.0 * math.pi) ** -gamma
    decay = beta + gamma - 1.0
    tail = alpha / decay * (n + 2.0) ** -decay
    remainder = float(tail[-1])
    corrected = partial - remainder
    negative = corrected < -SIGN_SCALE * (1.0 + np.abs(corrected))

    bad = np.flatnonzero(~negative)
    if bad.size == 0:
        empirical = 1
    elif bad[-1] == N - 1:
        empirical = None
    else:
        empirical = int(bad[-1]) + 2

    analytic = None
    for k in range(1, 10**6 + 1):
        if F_SUP * k**-beta < alpha / decay * (k + 2.0) ** -decay:
            analytic = k
            break

    rises = f_c - f_t
    family_ok = bool(
        crests[0] <= 1.0
        and np.all(troughs < crests)
        and np.all(crests[1:] < troughs[:-1])
        and np.all(rises >= alpha * n**-gamma - 1e-9 * (1.0 + alpha))
    )
    tolerance = SUM_TOLERANCE * (1.0 + float(np.abs(weighted).sum()) + float(np.abs(n**-beta * f_t).max()))
    return CounterexampleReference(gamma, beta, N, troughs, crests, partial, tail, remainder,
                                   corrected, negative, empirical, analytic, family_ok, tolerance)


def _close(a, b, rel: float, abs_: float = 0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.abs(b) + abs_))


def check_certificate(ref: CounterexampleReference, doc: dict) -> list[str]:
    """Problems with a certificate document, against the reference."""
    problems = []
    records = doc.get("records", [])
    if len(records) != ref.N:
        return [f"{len(records)} records for N={ref.N}"]
    col = lambda key: np.asarray([r[key] for r in records])  # noqa: E731
    ns, partial, tail = col("n"), col("partial_integral"), col("tail_lower_bound")
    corrected, negative = col("corrected"), col("negative").astype(bool)
    tol = ref.tolerance
    if not np.array_equal(ns, np.arange(1, ref.N + 1)):
        problems.append("record indices are not 1..N")
    if not _close(partial, ref.partial, 0.0, tol):
        problems.append("partial integrals differ from the suffix-sum reference")
    if not _close(tail, ref.tail, 1e-12):
        problems.append("tail lower bounds differ from alpha/(beta+gamma-1)*(n+2)^-(beta+gamma-1)")
    remainder = doc.get("remainder_bound")
    if not isinstance(remainder, float) or not _close(remainder, ref.remainder, 1e-12):
        problems.append(f"remainder bound {remainder!r} is not the tail bound at N, {ref.remainder!r}")
    elif not _close(corrected, partial - remainder, 0.0, tol):
        problems.append("corrected values are not partial integral minus remainder")
    if not _close(corrected, ref.corrected, 0.0, tol):
        problems.append("corrected values differ from the reference")
    decided = np.abs(ref.corrected) > tol
    if np.any((negative != ref.negative) & decided):
        first = int(np.flatnonzero((negative != ref.negative) & decided)[0]) + 1
        problems.append(f"negativity flag wrong at n={first}")
    expected = {
        "beta": ref.beta,
        "truncation": ref.N,
        "threshold": ref.empirical_threshold,
        "empirical_threshold": ref.empirical_threshold,
        "certified_threshold": ref.analytic_threshold,
        "f_upper_bound": F_SUP,
        "family_ok": ref.family_ok,
        "analytic_ok": ref.analytic_ok,
        "step_failures": [],
    }
    for key, want in expected.items():
        if doc.get(key) != want:
            problems.append(f"{key}={doc.get(key)!r}, expected {want!r}")
    return problems


def check_integrator(ref: CounterexampleReference, doc: dict) -> tuple[list[str], bool]:
    """Problems with the written integrator, and whether every cumulative
    integral at a jump, minus the remainder, is negative."""
    problems = []
    if doc.get("type") != "step" or doc.get("interval") != [0.0, 1.0]:
        return [f"not a step integrator on [0, 1]: {doc.get('type')!r} {doc.get('interval')!r}"], False
    bp = np.asarray(doc["breakpoints"], dtype=float)
    pv = np.asarray(doc["piece_values"], dtype=float)
    end = float(doc["end_value"])
    if pv[0] != 0.0 or (bp.size and not bp[0] > 0.0):
        problems.append("g(0) is not 0")
    if pv.min() < 0.0 or end < 0.0:
        problems.append("g takes a negative value")
    n0 = ref.empirical_threshold or 1
    ns = np.arange(ref.N, n0 - 1, -1)
    want_bp = np.column_stack([ref.troughs[ns - 1], ref.crests[ns - 1]]).ravel()
    heights = ns.astype(float) ** -ref.beta
    want_pv = np.concatenate([[0.0], np.column_stack([heights, np.zeros_like(heights)]).ravel()])
    if bp.shape != want_bp.shape or not _close(bp, want_bp, 1e-14):
        problems.append(f"bricks are not at [trough(n), crest(n)) for n={n0}..{ref.N}")
    elif pv.shape != want_pv.shape or end != 0.0 or not _close(pv, want_pv, 1e-14):
        problems.append("brick heights are not n^-beta")
    contributions = _power_sine(ref.gamma, bp) * np.diff(pv) if bp.size else np.zeros(0)
    below = np.cumsum(contributions) - ref.remainder
    margin = ROUNDING * (1.0 + float(np.abs(contributions).sum()))
    all_negative = bool(np.all(below < -margin))
    if not all_negative:
        problems.append("a cumulative integral at a jump, minus the remainder, is not negative")
    return problems, all_negative


def check_counterexample_files(ref: CounterexampleReference, cert_path: str, g_path: str) -> list[str]:
    with open(cert_path, encoding="utf-8") as fh:
        cert = json.load(fh)
    with open(g_path, encoding="utf-8") as fh:
        g = json.load(fh)
    problems = check_certificate(ref, cert)
    g_problems, all_negative = check_integrator(ref, g)
    want_verdict = ref.family_ok and ref.analytic_ok and all_negative
    if cert.get("verdict") is not want_verdict:
        problems.append(f"verdict={cert.get('verdict')!r}, expected {want_verdict!r}")
    return problems + g_problems


def check_counterexample_stdout(ref: CounterexampleReference, output: dict) -> list[str]:
    lines = dict(line.split("=", 1) for line in output["stdout"].split())
    want = {
        "threshold": str(ref.empirical_threshold),
        "empirical_threshold": str(ref.empirical_threshold),
        "certified_threshold": str(ref.analytic_threshold),
        "verdict": "true",
    }
    problems = [f"printed {k}={lines.get(k)!r}, expected {v!r}" for k, v in want.items()
                if lines.get(k) != v]
    if output["rc"] != 0:
        problems.append(f"exit code {output['rc']}")
    return problems


# -- witness ------------------------------------------------------------------


class WitnessReference:
    """J(y) for a piecewise-linear integrand against a step + linear integrator."""

    def __init__(self, inst: dict):
        self.a, self.b = inst["interval"]
        f = np.asarray(inst["f_knots"], dtype=float)
        self.fx, self.fy = f[:, 0], f[:, 1]
        # cumulative integral of f at its knots (trapezoids are exact)
        self.F_knots = np.concatenate([[0.0], np.cumsum(0.5 * (self.fy[1:] + self.fy[:-1]) * np.diff(self.fx))])
        s = inst["g_step"]
        self.bp = np.asarray(s["breakpoints"], dtype=float)
        pv = np.asarray(s["piece_values"], dtype=float)
        self.jumps = np.diff(pv)
        self.end_jump = float(s["end_value"]) - float(pv[-1])
        g = np.asarray(inst["g_knots"], dtype=float)
        self.gx = g[:, 0]
        self.slopes = np.diff(g[:, 1]) / np.diff(g[:, 0])
        self.jump_terms = self.f(self.bp) * self.jumps
        scale = (np.abs(self.jump_terms).sum() + abs(self.end_jump) * self.fy.max()
                 + np.sum(np.abs(self.slopes) * np.diff(self.gx)) * self.fy.max())
        self.slack = ROUNDING * (1.0 + float(scale))
        self.structural = np.unique(np.concatenate([self.bp, self.gx]))

    def f(self, xs):
        return np.interp(xs, self.fx, self.fy)

    def F(self, xs):
        xs = np.asarray(xs, dtype=float)
        k = np.clip(np.searchsorted(self.fx, xs, side="right") - 1, 0, len(self.fx) - 2)
        return self.F_knots[k] + (xs - self.fx[k]) * 0.5 * (self.fy[k] + self.f(xs))

    def J(self, y: float, left: bool = False) -> float:
        """Integral of f dg over [a, y]; with left=True the jump at y is left out."""
        hit = self.bp < y if left else self.bp <= y
        total = math.fsum(self.jump_terms[hit])
        if y == self.b and not left:
            total += float(self.f(self.b)) * self.end_jump
        lo = self.gx[:-1]
        hi = np.minimum(self.gx[1:], y)
        use = lo < y
        total += math.fsum(self.slopes[use] * (self.F(hi[use]) - self.F(lo[use])))
        return total


def check_witness(ref: WitnessReference, out: dict) -> list[str]:
    y, lower = out["y"], out["lower_bound"]
    problems = []
    if out["method"] not in ("case1", "case2", "scan"):
        problems.append(f"unknown method {out['method']!r}")
    if not (ref.a < y <= ref.b):
        return problems + [f"witness y={y!r} outside ({ref.a}, {ref.b}]"]
    value = ref.J(y)
    if not (0.0 < lower <= value + ref.slack):
        problems.append(f"lower bound {lower!r} not in (0, J(y)={value!r}]")
    if out["interval"] is not None:
        c, d = out["interval"]
        if not (c == y and c < d <= ref.b):
            problems.append(f"interval [{c!r}, {d!r}] does not start at y and end in (y, b]")
        else:
            inside = ref.structural[(ref.structural > c) & (ref.structural <= d)]
            values = [ref.J(c), ref.J(d)]
            values += [ref.J(q) for q in inside] + [ref.J(q, left=True) for q in inside]
            if min(values) <= 0.0:
                problems.append(f"J is not positive across [{c!r}, {d!r}]: min {min(values)!r}")
    return problems


# -- quadrature and modulus ---------------------------------------------------


@dataclass
class QuadratureReference:
    value: float
    slack: float
    tol: float
    sampled: bool


def quadrature_reference(inst: dict) -> QuadratureReference:
    """Jump sum plus Gauss-Legendre (24 nodes on quarters of each linear
    piece) of the smooth integrand; for these integrands on pieces of length
    at most 1/4 the Gauss error is far below float rounding."""
    c, y = inst["coeffs"], inst["y"]
    a, b = inst["interval"]
    s = inst["g_step"]
    bp = np.asarray(s["breakpoints"], dtype=float)
    pv = np.asarray(s["piece_values"], dtype=float)
    terms = smooth_values(c, bp[bp <= y]) * np.diff(pv)[bp <= y]
    end_term = smooth_values(c, np.asarray([b]))[0] * (s["end_value"] - pv[-1]) if y == b else 0.0
    g = np.asarray(inst["g_knots"], dtype=float)
    nodes, weights = GAUSS_NODES
    pieces = []
    f_max = 0.0
    for (x0, y0), (x1, y1) in zip(g[:-1], g[1:]):
        hi = min(x1, y)
        if hi <= x0:
            continue
        slope = (y1 - y0) / (x1 - x0)
        cuts = np.linspace(x0, hi, GAUSS_SPLIT + 1)
        half = 0.5 * np.diff(cuts)
        xs = (cuts[:-1] + half)[:, None] + half[:, None] * nodes[None, :]
        fx = smooth_values(c, xs)
        f_max = max(f_max, float(np.abs(fx).max()))
        pieces.append(slope * math.fsum((half[:, None] * weights[None, :] * fx).ravel()))
    value = math.fsum(list(terms) + [end_term] + pieces)
    linear_weight = float(np.sum(np.abs(np.diff(g[:, 1]))))
    scale = float(np.abs(terms).sum()) + abs(end_term) + linear_weight * f_max
    return QuadratureReference(value, ROUNDING * (1.0 + scale), inst["tol"],
                               inst["modulus"][0] == "sampled")


def check_quadrature(ref: QuadratureReference, out: dict) -> tuple[str, str]:
    error = abs(out["value"] - ref.value)
    bound = out["error_bound"]
    if out["raised"]:
        if error <= bound + ref.slack:
            return OK
        return "wrong", f"ToleranceNotReached bound {bound!r} below the error {error!r}"
    if ref.sampled and bound == 0.0 and error > ref.slack:
        return "failed", f"zero-bound fault: error_bound=0.0 while the error is {error!r}"
    problems = []
    if bound > ref.tol:
        problems.append(f"bound {bound!r} above tol {ref.tol!r}")
    if error > bound + ref.slack:
        problems.append(f"bound {bound!r} below the error {error!r}")
    if out["certified"] is ref.sampled:
        problems.append(f"certified={out['certified']!r} with a {'Sampled' if ref.sampled else 'Lipschitz'} modulus")
    return ("wrong", "; ".join(problems)) if problems else OK


# -- dispatch -----------------------------------------------------------------


def reference(inst: dict):
    if inst["kind"] == "counterexample":
        return counterexample_reference(inst["gamma"], inst["beta"], inst["N"])
    if inst["kind"] == "witness":
        return WitnessReference(inst)
    return quadrature_reference(inst)


class Checker:
    """Checks operation records against per-instance references.

    The program is deterministic, so repeated operations on one instance
    mostly return the same output; each distinct (instance, output) pair,
    and with it each distinct pair of counterexample files, is checked once.
    """

    def __init__(self, pool: list[dict], out_dir: str):
        self.pool = pool
        self.refs = [reference(inst) for inst in pool]
        self.out_dir = out_dir
        self.seen: dict[str, tuple[str, str]] = {}

    def check(self, record: dict) -> tuple[str, str]:
        if record["error"] is not None:
            return "failed", record["error"]
        key = json.dumps([record["instance"], record["output"]], sort_keys=True)
        if key not in self.seen:
            self.seen[key] = self._check(record["instance"], record["output"])
        return self.seen[key]

    def _check(self, index: int, out: dict) -> tuple[str, str]:
        inst, ref = self.pool[index], self.refs[index]
        if inst["kind"] == "counterexample":
            stem = os.path.join(self.out_dir, out["files"])
            problems = check_counterexample_stdout(ref, out) + check_counterexample_files(
                ref, stem + "-certificate.json", stem + "-g.json")
        elif inst["kind"] == "witness":
            problems = check_witness(ref, out)
        else:
            return check_quadrature(ref, out)
        return ("wrong", "; ".join(problems)) if problems else OK
