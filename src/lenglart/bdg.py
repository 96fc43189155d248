"""Burkholder-Davis-Gundy ratio experiment for time-changed Brownian motion.

For a continuous local martingale M with X = <M,M> and G = sup|M|^2, the
domination machinery with p = q/2 bounds E[<M,M>^(q/2)] by a constant times
E[sup|M|^q]. Since <M,M> is non-decreasing the monotone constant
(q/2)^(-q/2) applies, which for q = 1 gives sqrt(2), against the weaker
2 and 2*sqrt(2) and the numerically known optimum ~1.2727.

Fixed time: sup_{t<=T}|B_t| = sqrt(T) S with S = sup_{t<=1}|B_t|, whose
law is known (Borodin & Salminen, Handbook of Brownian Motion -- Facts and
Formulae; `oracles.sup_abs_bm_law`). The denominator is estimated from
exact draws of S, one uniform per path pushed through the inverse CDF.
Path simulation is the validation: one stepped pass at the configured step,
refined with exact Brownian-bridge extremum draws (inverse of the tail
exp(-2(m-x0)(m-x1)/h)), is compared against the quadrature value of
E[sup|B|^q], and `bias_relative_change` is their relative difference.

The stepped pass estimates E[max(M, L)^q], with M the running maximum and
L = -(running minimum), through a control variate (Glasserman, Monte Carlo
Methods in Financial Engineering, 2004, section 4.1). Each of M and L has
the exact law of sup_{t<=T} B_t = sqrt(T)|N|, so
max^q = M^q + L^q - min(M, L)^q gives the value
2 T^(q/2) E|N|^q - min(M, L)^q with the same mean. Single values can be
negative. Its relative standard deviation is at most 0.195 over q in
(0, 2), the worst case near q = 0.65 and independent of the step, so the
pass runs at a fixed ceil((6 * 0.2 / tolerance)^2) paths (14400 at the 1 %
tolerance), whatever the sample budget: a standard error of at most a
sixth of the tolerance.

Hitting time of (a, b): no closed form is used. The stepped, bridge-refined
paths are the estimator, and a step-halving check guards their bias. sup|M|
is read from the running extrema, capped at the barriers. Both kinds step
their paths through one bridge step, `_bridge_step`, in buffers that the
sampler allocates once per chunk.

A run's two passes share one pool of workers (`estimate_passes`), the
longer one handed out first: at fixed time the validation, one chunk of
14400 paths, runs beside the exact-law chunks; at the hitting time the
half-step pass goes before the step pass. Each pass draws the streams it
would draw alone, so the result does not depend on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import (
    PLAIN,
    Estimate,
    RatioEstimate,
    estimate_passes,
    ratio_from_estimates,
)
# not called here; perfbench/tracing.py wraps these names in this module
from .montecarlo import estimate_from_values, sample_values  # noqa: F401
from .oracles import ConstantKind, constant, sup_abs_bm_law, sup_abs_bm_moment

__all__ = [
    "BM_FIXED_TIME",
    "BM_HITTING",
    "OPTIMAL_BDG_Q1_REFERENCE",
    "MartingaleSpec",
    "BdgResult",
    "bdg_ratio",
    "z_score",
]

BM_FIXED_TIME = "bm_fixed_time"
BM_HITTING = "bm_hitting"

# numerically known optimal constant for q = 1, reported as a reference line
OPTIMAL_BDG_Q1_REFERENCE = 1.2727
# relative tolerance of the bias check
_BIAS_TOLERANCE = 0.01
# the hitting kind's paths still inside (a, b) at this time are censored
_HITTING_HORIZON_CAP = 50.0


@dataclass(frozen=True)
class MartingaleSpec:
    kind: str
    q: float = 1.0
    step: float = 1e-3
    T: float = 1.0          # horizon (fixed-time kind)
    a: float = -1.0         # lower barrier (hitting kind)
    b: float = 1.0          # upper barrier (hitting kind)

    def __post_init__(self) -> None:
        if self.kind not in (BM_FIXED_TIME, BM_HITTING):
            raise ValueError(f"unknown martingale kind {self.kind!r}")
        if not (0.0 < self.q < 2.0):
            raise ValueError("q must lie in (0,2)")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.kind == BM_FIXED_TIME and self.T <= 0:
            raise ValueError("horizon must be positive")
        if self.kind == BM_HITTING and not (self.a < 0.0 < self.b):
            raise ValueError("barriers must satisfy a < 0 < b")


def _bridge_max(x0, x1, h, u):
    """Exact draw of the maximum of a Brownian bridge between x0 and x1."""
    return 0.5 * (x0 + x1 + np.sqrt((x1 - x0) ** 2 - 2.0 * h * np.log(u)))


def _bridge_min(x0, x1, h, u):
    return 0.5 * (x0 + x1 - np.sqrt((x1 - x0) ** 2 - 2.0 * h * np.log(u)))


def _bridge_step(rng: np.random.Generator, x0, x1, up, dn, work, h: float, sqrt_h: float):
    """One step of length h from x0, written into buffers of x0's size that
    the caller owns: the end point into x1, then a uniform into each of up
    and dn, turned in place into exact draws of the bridge maximum and
    minimum. The draws come in the order normal, uniform, uniform, and each
    value is `_bridge_max` or `_bridge_min` to the last bit: the operations
    are theirs, in their order. work is scratch."""
    rng.standard_normal(out=x1)
    x1 *= sqrt_h
    x1 += x0
    rng.random(out=up)
    rng.random(out=dn)
    for u in (up, dn):
        np.log(u, out=u)
        u *= 2.0 * h
    np.subtract(x1, x0, out=work)
    work *= work
    for u in (up, dn):
        np.subtract(work, u, out=u)
        np.sqrt(u, out=u)
    np.add(x0, x1, out=work)
    up += work
    np.subtract(work, dn, out=dn)
    up *= 0.5
    dn *= 0.5


# P[S < 1], the value of float(sup_abs_bm_law(1.0)[0]): the quantile of a
# lower u lies on the theta-series side
_CDF_AT_ONE = 0.3707774297995239
_NEWTON_MAX = 20


def _sup_abs_quantile(u: np.ndarray) -> np.ndarray:
    """Inverse of P[S < x] for S = sup_{t<=1}|B_t| at u in (0, 1).

    Newton's method on log F below F(1) and on log(1 - F) above it, so both
    tails are solved in relative terms, from the leading term of the series
    on that side: (4/pi) exp(-pi^2/(8x^2)) = u, or 4 Phibar(x) = 1 - u.
    The convergence is quadratic, so once every relative step is below 1e-8
    the next one would be below double precision and the loop stops.
    """
    from scipy.special import ndtri

    low = u < _CDF_AT_ONE
    target = np.where(low, u, 1.0 - u)
    log_target = np.log(target)
    with np.errstate(divide="ignore"):  # the branch np.where does not pick
        x = np.where(low, np.pi / np.sqrt(8.0 * np.log(4.0 / (np.pi * u))),
                     -ndtri(0.25 * target))
    sign = np.where(low, 1.0, -1.0)
    for _ in range(_NEWTON_MAX):
        cdf, sf, pdf = sup_abs_bm_law(x)
        side = np.where(low, cdf, sf)
        step = sign * (np.log(side) - log_target) * side / pdf
        x -= step
        if np.max(np.abs(step) / x) < 1e-8:
            return x
    raise ArithmeticError("Newton inversion of the sup|B| law did not converge")


def _exact_fixed_time_sampler(spec: MartingaleSpec):
    """(T^(q/2), sup_{t<=T}|B_t|^q) with the supremum drawn from its law."""
    sqrt_T = math.sqrt(spec.T)
    qv = spec.q
    num_val = spec.T ** (qv / 2.0)

    def sampler(rng: np.random.Generator, m: int):
        # a uniform of exactly 0 (probability 2^-53) is read as 2^-53
        u = np.maximum(rng.random(m), 2.0**-53)
        return np.full(m, num_val), (sqrt_T * _sup_abs_quantile(u)) ** qv

    return sampler


def _fixed_time_sampler(spec: MartingaleSpec, step: float):
    """Stepped fixed-time paths, the validation of the exact sampler:
    (T^(q/2), 2 T^(q/2) E|N|^q - min(M, L)^q) with M the running maximum
    and L = -(running minimum). Every step's bridge maximum and minimum are
    exact draws, so M and L each have the exact law of sup_{t<=T} B_t =
    sqrt(T)|N| and E[M^q] = E[L^q] = T^(q/2) E|N|^q. They are drawn
    independently within a step, which is not their joint law; that bias
    sits in min(M, L), so the value's mean is the stepped E[max(M, L)^q]
    with its bias. Single values can be negative. The relative standard
    deviation is at most 0.195 for q in (0, 2) (worst near q = 0.65, at
    any step), against 0.20 to 0.86 for max(M, L)^q at q >= 0.5."""
    n_steps = int(round(spec.T / step))
    h = spec.T / n_steps
    sqrt_h = math.sqrt(h)
    qv = spec.q
    num_val = spec.T ** (qv / 2.0)
    # E|N|^q = 2^(q/2) Gamma((q+1)/2) / sqrt(pi)
    sup_mean = num_val * 2.0 ** (qv / 2.0) * math.gamma((qv + 1.0) / 2.0) / math.sqrt(math.pi)

    def sampler(rng: np.random.Generator, m: int):
        pos, nxt, up, dn, work = np.zeros((5, m))
        run_max = np.zeros(m)
        run_min = np.zeros(m)
        for _ in range(n_steps):
            _bridge_step(rng, pos, nxt, up, dn, work, h, sqrt_h)
            pos, nxt = nxt, pos
            np.maximum(run_max, up, out=run_max)
            np.minimum(run_min, dn, out=run_min)
        return np.full(m, num_val), 2.0 * sup_mean - np.minimum(run_max, -run_min) ** qv

    return sampler


def _hitting_sampler(spec: MartingaleSpec, step: float):
    sqrt_h = math.sqrt(step)
    qv = spec.q
    a, b = spec.a, spec.b
    max_steps = int(math.ceil(_HITTING_HORIZON_CAP / step))

    def sampler(rng: np.random.Generator, m: int):
        # rows: the alive paths' positions, then the step's end points,
        # maxima, minima and scratch; the first `alive.size` columns are used
        pos, x1, up, dn, work = np.zeros((5, m))
        run_max = np.zeros(m)
        run_min = np.zeros(m)
        exit_time = np.full(m, _HITTING_HORIZON_CAP)
        alive = np.arange(m)
        for k in range(1, max_steps + 1):
            n = alive.size
            if n == 0:
                break
            _bridge_step(rng, pos[:n], x1[:n], up[:n], dn[:n], work[:n], step, sqrt_h)
            # the exact bridge extremum draws double as crossing detectors:
            # P[up >= b] is exactly the bridge crossing probability
            exited = (up[:n] >= b) | (dn[:n] <= a)
            run_max[alive] = np.maximum(run_max[alive], np.minimum(up[:n], b))
            run_min[alive] = np.minimum(run_min[alive], np.maximum(dn[:n], a))
            exit_time[alive[exited]] = k * step
            stay = ~exited
            alive = alive[stay]
            np.compress(stay, x1[:n], out=pos[:alive.size])
        # capped at the barriers, the running extrema give sup|M| = b or -a
        # on an exit, and the supremum seen so far on a censored path
        return exit_time ** (qv / 2.0), np.maximum(run_max, -run_min) ** qv

    return sampler


def _make_sampler(spec: MartingaleSpec, step: float):
    if spec.kind == BM_FIXED_TIME:
        return _fixed_time_sampler(spec, step)
    return _hitting_sampler(spec, step)


# the control variate's relative sd is below this bound at every q in (0, 2)
_CV_RELATIVE_SD = 0.2
# the validation's standard error is at most tolerance / _VALIDATION_SIGMAS
_VALIDATION_SIGMAS = 6.0


def _validation_samples(tolerance: float) -> int:
    """Paths of the fixed-time validation pass: ceil((6 * 0.2 / tolerance)^2),
    14400 at the 1 % tolerance. The square is rounded first so that float
    noise cannot add a path."""
    return math.ceil(round((_VALIDATION_SIGMAS * _CV_RELATIVE_SD / tolerance) ** 2, 6))


@dataclass(frozen=True)
class BdgResult:
    spec: MartingaleSpec
    ratio: RatioEstimate
    reverse_ratio: float
    constant_gaps: dict
    bias_relative_change: float
    passed: bool
    # fixed time only: quadrature value of E[sup|B|^q] and the z-score of
    # the denominator estimate against it, and the stepped validation pass
    denominator_oracle: float | None = None
    denominator_z: float | None = None
    validation: Estimate | None = None

    def to_json(self) -> dict:
        d = {
            "kind": self.spec.kind,
            "q": self.spec.q,
            "step": self.spec.step,
            "ratio": self.ratio.to_json(),
            "reverse_ratio": self.reverse_ratio,
            "constant_gaps": self.constant_gaps,
            "bias_relative_change": self.bias_relative_change,
            "pass": self.passed,
        }
        if self.denominator_oracle is not None:
            d["denominator_oracle"] = self.denominator_oracle
            d["denominator_z"] = self.denominator_z
        if self.validation is not None:
            v = self.validation
            d["validation"] = {
                "n": v.n_samples,
                "value": v.value,
                "halfwidth": v.halfwidth,
                "z": z_score(v, self.denominator_oracle),
            }
        return d


def z_score(est: Estimate, oracle: float) -> float | None:
    """(estimate - oracle) / half-width, or None for a zero half-width."""
    return (est.value - oracle) / est.halfwidth if est.halfwidth > 0 else None


def bdg_ratio(
    spec: MartingaleSpec,
    n_samples: int = 10**5,
    seed: int = 0,
    threads: int = 1,
) -> BdgResult:
    """Estimate E[<M,M>^(q/2)] / E[sup|M|^q] and compare against the
    constant ladder. Passes iff the ratio clears the monotone constant at
    3 combined half-widths and the bias check holds: at fixed time the
    stepped pass against the oracle, at the hitting time the step-halving
    change."""
    p = spec.q / 2.0

    def estimate(*passes):
        # one pool for every chunk of both passes; the plain mean, since
        # sup|M|^q has light tails for q < 2
        return estimate_passes(passes, PLAIN, seed, threads)

    # bias control on the same seed: at fixed time the stepped paths against
    # the exact value, at a budget set by the tolerance; at the hitting time
    # the step halved, at the same budget. The longer pass goes first.
    oracle = z = validation = None
    if spec.kind == BM_FIXED_TIME:
        (_, validation), (num, den) = estimate(
            (_make_sampler(spec, spec.step), _validation_samples(_BIAS_TOLERANCE)),
            (_exact_fixed_time_sampler(spec), n_samples))
        oracle = sup_abs_bm_moment(spec.q, spec.T)
        z = z_score(den, oracle)
        bias_rel = abs(validation.value - oracle) / oracle
    else:
        (_, check), (num, den) = estimate((_make_sampler(spec, spec.step / 2.0), n_samples),
                                          (_make_sampler(spec, spec.step), n_samples))
        bias_rel = abs(check.value - den.value) / den.value
    ratio = ratio_from_estimates(num, den)

    ladder = {
        "lenglart": constant(ConstantKind.LENGLART, p),
        "pratelli_power": constant(ConstantKind.PRATELLI_POWER, p),
        "monotone": constant(ConstantKind.MONOTONE, p),
        "optimal_reference_q1": OPTIMAL_BDG_Q1_REFERENCE,
    }
    gaps = {name: val - ratio.ratio for name, val in ladder.items()}

    ci_half = 0.5 * (ratio.ci_high - ratio.ci_low)
    passed = (
        ratio.ratio <= ladder["monotone"] + 3.0 * ci_half
        and bias_rel < _BIAS_TOLERANCE
    )
    reverse = den.value / num.value if num.value > 0 else math.inf
    return BdgResult(
        spec=spec,
        ratio=ratio,
        reverse_ratio=reverse,
        constant_gaps=gaps,
        bias_relative_change=bias_rel,
        passed=passed,
        denominator_oracle=oracle,
        denominator_z=z,
        validation=validation,
    )
