"""Simulation and numerical certification toolkit for Lenglart-type
domination inequalities.

The package builds the extremal process families that (nearly) saturate the
domination constants, estimates p-th moments of running suprema with
heavy-tail-aware Monte Carlo, and cross-checks every estimate against
closed-form or quadrature oracles.
"""

from .core_paths import (
    INFINITE_INDEX,
    PathPair,
    StoppingIndex,
    SupSample,
    TimeGrid,
    evaluate_at_stopping,
    p_moment_of_sup,
    running_sup,
)
from .extremal import (
    ExtremalParams,
    discretize_pair,
    hat_x,
    ramp,
    sample_exp_pair,
    sample_y,
)
from .montecarlo import (
    PLAIN,
    Estimate,
    EstimatorMethod,
    RatioEstimate,
    default_method,
    discrete_ratio_experiment,
    estimate,
    estimate_from_values,
    median_of_means,
    monotone_ratio_experiment,
    ratio_experiment,
)
from .oracles import (
    ConstantKind,
    IdentityReport,
    check_moment_identities,
    constant,
    full_extremal_sup_moment,
    gtilde_sup_moment,
    lambda_bound,
    xtilde_sup_moment,
    y_sup_moment,
)

__all__ = [
    "INFINITE_INDEX",
    "PathPair",
    "StoppingIndex",
    "SupSample",
    "TimeGrid",
    "evaluate_at_stopping",
    "p_moment_of_sup",
    "running_sup",
    "ExtremalParams",
    "discretize_pair",
    "hat_x",
    "ramp",
    "sample_exp_pair",
    "sample_y",
    "PLAIN",
    "Estimate",
    "EstimatorMethod",
    "RatioEstimate",
    "default_method",
    "discrete_ratio_experiment",
    "estimate",
    "estimate_from_values",
    "median_of_means",
    "monotone_ratio_experiment",
    "ratio_experiment",
    "ConstantKind",
    "IdentityReport",
    "check_moment_identities",
    "constant",
    "full_extremal_sup_moment",
    "gtilde_sup_moment",
    "lambda_bound",
    "xtilde_sup_moment",
    "y_sup_moment",
]
