"""Simulation and numerical certification toolkit for Lenglart-type
domination inequalities.

The package builds the extremal process families that (nearly) saturate the
domination constants, estimates p-th moments of running suprema with
heavy-tail-aware Monte Carlo, and cross-checks every estimate against
closed-form or quadrature oracles.
"""

from .extremal import ExtremalParams
from .montecarlo import (
    PLAIN,
    Estimate,
    EstimatorMethod,
    RatioEstimate,
    discrete_ratio_experiment,
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
    "ExtremalParams",
    "PLAIN",
    "Estimate",
    "EstimatorMethod",
    "RatioEstimate",
    "discrete_ratio_experiment",
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
