"""Riemann-Stieltjes integration with certified error bounds.

Exact integration of continuous integrands against bounded-variation
integrators (step plus piecewise-linear representations), construction and
certification of the oscillating-brick integrator that keeps every
cumulative integral negative, and witness searches for the positive case
when the integrand itself has bounded variation.
"""

from .bv_core import (
    BVFunction,
    ConstructionError,
    DomainError,
    Interval,
    JordanPair,
    PiecewiseLinear,
    StepFunction,
    jordan_decompose,
    sampled_total_variation,
    slack,
)
from .funcspec import (
    EvaluationError,
    Hoelder,
    IntegrandSpec,
    Lipschitz,
    ParseError,
    Sampled,
    format_expr,
    parse,
)
from .stieltjes import (
    IntegralCurve,
    IntegralResult,
    ToleranceNotReached,
    curve,
    integration_by_parts_residual,
    rs_bruteforce_oracle,
    rs_bv,
    rs_jump_exact,
    rs_pl_certified,
)
from .counterexample import (
    Certificate,
    CounterexampleParams,
    OscillationFamily,
    ThresholdNotFound,
    build_bricks,
    build_counterexample,
    certified_threshold,
    certify_negative,
    partial_integral,
    power_sine_family,
    tail_lower_bound,
    validate_family,
)
from .positivity import (
    GronwallVerdict,
    InternalInconsistencyError,
    PositivityWitness,
    PreconditionError,
    WeightedMeasure,
    detect_case1,
    detect_case2,
    find_positive_y,
    gdf_bound_check,
    gronwall_verify,
    positive_interval,
)

__version__ = "0.1.0"
