"""Burkholder-Davis-Gundy ratio experiment for time-changed Brownian motion.

For a continuous local martingale M with X = <M,M> and G = sup|M|^2, the
domination machinery with p = q/2 bounds E[<M,M>^(q/2)] by a constant times
E[sup|M|^q]. Since <M,M> is non-decreasing the monotone constant
(q/2)^(-q/2) applies, which for q = 1 gives sqrt(2), against the weaker
2 and 2*sqrt(2) and the numerically known optimum ~1.2727.

Fixed time: sup_{t<=T}|B_t| = sqrt(T) S with S = sup_{t<=1}|B_t|, whose
law is known (Borodin & Salminen, Handbook of Brownian Motion -- Facts and
Formulae; `oracles.sup_abs_bm_law`). The denominator is estimated from
exact draws of S, one uniform per path pushed through the inverse CDF. The
inverse is read from a table: a cubic Hermite interpolant of log Q against
z = logit u, on 8193 knots over [-37, 36.8], with slopes from the density.
Newton's method on the law gives the knots, once per process, when the
first fixed-time sampler is made; it is never run at import or at draw
time. The table's quantile is within 1e-12 relative of Newton's, and a
draw costs about 30 ns where Newton took about 430 ns, so the denominator
moves at the 1e-13 level against draws by Newton.
Path simulation is the validation: one stepped pass at the configured step,
refined with exact Brownian-bridge extremum draws (inverse of the tail
exp(-2(m-x0)(m-x1)/h)), is compared against the quadrature value of
E[sup|B|^q], and `bias_relative_change` is their relative difference.

The stepped pass estimates E[max(M, L)^q], with M the running maximum and
L = -(running minimum), through two controls of exactly known mean
(Glasserman, Monte Carlo Methods in Financial Engineering, 2004, sections
4.1.1-4.1.2). Each of M and L has the exact law of sup_{t<=T} B_t =
sqrt(T)|N|, and so have Mr = M - B_T and Lr = L + B_T, the M and L of the
time reversal B_{T-t} - B_T; B_T itself is exactly N(0, T). With
E = T^(q/2) E|N|^q, each path returns

    (max(M, L)^q + max(Mr, Lr)^q) / 2
        - beta1 ((M^q + L^q + Mr^q + Lr^q) / 2 - 2 E) - beta2 (|B_T|^q - E).

The stepped scheme is invariant under time reversal: the Gaussian end
points form a reversible walk, and a step's bridge maximum and minimum are
symmetric in its two end points. So the reversed term has the stepped mean,
stepping bias included, and costs no draw; both controls have mean 0, so
for any fixed beta the value has the stepped mean. beta(q) is read from a
committed table (`_CV_BETA`, q = 0, 0.05, ..., 2, linear between rows),
fitted once by `scripts/fit_validation_beta.py`; a beta estimated from a
run's own draws would bias the mean. At beta = (1, 0) the value is
2 E - (min(M, L)^q + min(Mr, Lr)^q) / 2, the earlier single control. Single
values can be negative. The relative standard deviation over q in (0, 2)
is at most 0.069 at one step and 0.077 to 0.079 from two steps on (worst
at q = 0.81; checked up to 1000 steps), against 0.172 at one step and
0.134 from three on at beta = (1, 0). The pass runs at
ceil((6 s / tolerance)^2) paths, whatever the sample budget, with
s = 0.084 (2541 at the 1 % tolerance): a standard error of at most a sixth
of the tolerance at any step count.

Hitting time of (a, b): no closed form is used. The stepped, bridge-refined
paths are the estimator, and a step-halving check guards their bias. sup|M|
is read from the running extrema, capped at the barriers. Both kinds step
their paths through one helper, `_bridge_steps`, in buffers that the sampler
allocates once per chunk. The fixed-time validation takes blocks of k steps
and does the bridge arithmetic once per block on (k, m) arrays, so that each
numpy call runs long enough for two workers to overlap; its draws stay per
step, in the stream order of one step at a time, so no value depends on k.
The hitting kind takes one step at a time, since its draws follow the alive
set.

A run's two passes share one pool of workers (`estimate_passes`), the
longer one handed out first. At fixed time the validation is drawn in two
pieces of half its paths, whatever the worker count, from the streams
chunk_rng(seed, VALIDATION_STREAM + j) of the validation's own stream
domain: two workers share it, the exact-law chunks run beside it, and it
draws no stream that an exact-law chunk j = 0, 1, ... draws. At the
hitting time the half-step pass goes before the step pass, and its chunk j
draws chunk_rng(seed, VALIDATION_STREAM + j), so the two passes are
independent. Each pass draws the streams it would draw alone, so the result
does not depend on the worker count.

A spec asks for at most 10^6 steps, round(T / step) at fixed time and
50 / step at the hitting time, and at least one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import (
    CHUNK,
    PLAIN,
    VALIDATION_STREAM,
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
# the most steps a spec may ask for: round(T / step) at fixed time,
# 50 / step at the hitting time. At the cap the fixed-time validation alone
# is 7.1e9 path steps: about 5 minutes on one worker at 40-45 ns a path
# step, and 3 on two (2-core x86_64, 1000 steps).
_MAX_STEPS = 10**6


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
        if not 0.0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if self.kind == BM_FIXED_TIME:
            if not 0.0 < self.T < math.inf:
                raise ValueError("horizon must be positive and finite")
            # round(T / step) lies in [1, _MAX_STEPS] exactly when this holds
            if not 0.5 < self.T / self.step < _MAX_STEPS + 0.5:
                raise ValueError(f"T / step must round to between 1 and {_MAX_STEPS} steps")
        else:
            if not -math.inf < self.a < 0.0 < self.b < math.inf:
                raise ValueError("barriers must be finite and satisfy a < 0 < b")
            if _HITTING_HORIZON_CAP / self.step > _MAX_STEPS:
                raise ValueError(f"{_HITTING_HORIZON_CAP:g} / step must be at most "
                                 f"{_MAX_STEPS} steps")


def _bridge_max(x0, x1, h, u):
    """Exact draw of the maximum of a Brownian bridge between x0 and x1."""
    return 0.5 * (x0 + x1 + np.sqrt((x1 - x0) ** 2 - 2.0 * h * np.log(u)))


def _bridge_min(x0, x1, h, u):
    return 0.5 * (x0 + x1 - np.sqrt((x1 - x0) ** 2 - 2.0 * h * np.log(u)))


def _bridge_steps(rng: np.random.Generator, x, u, work, h: float, sqrt_h: float):
    """k steps of length h of m paths from x[0], written into buffers that the
    caller owns, each row contiguous: x of shape (k + 1, m), u of shape
    (k, 2, m) and work of shape (k, m). Step i draws a normal into x[i + 1]
    and then 2m uniforms into u[i] (one fill of 2m is the stream of two of
    m), so the draws come in the order normal, uniform, uniform, step by
    step. x[i + 1] becomes the step's end point and u[i, 0] and u[i, 1] the
    exact draws of its bridge maximum and minimum. Each value is
    `_bridge_max` or `_bridge_min` to the last bit: the operations are
    theirs, in their order, each done once over the block. work is
    scratch."""
    k = len(u)
    for i in range(k):
        rng.standard_normal(out=x[i + 1])
        rng.random(out=u[i])
    x0, x1 = x[:-1], x[1:]
    x1 *= sqrt_h
    # row by row in step order, so that each end point is x0 + sqrt_h N
    for i in range(k):
        np.add(x[i], x[i + 1], out=x[i + 1])
    np.log(u, out=u)
    u *= 2.0 * h
    np.subtract(x1, x0, out=work)
    work *= work
    np.subtract(work[:, None], u, out=u)
    np.sqrt(u, out=u)
    np.add(x0, x1, out=work)
    up, dn = u[:, 0], u[:, 1]
    up += work
    np.subtract(work, dn, out=dn)
    u *= 0.5


# P[S < 1], the value of float(sup_abs_bm_law(1.0)[0]): the quantile of a
# lower u lies on the theta-series side
_CDF_AT_ONE = 0.3707774297995241
_NEWTON_MAX = 20


def _normal_isf_start(p: np.ndarray) -> np.ndarray:
    """x with Phibar(x) = p to within 4.5e-4, for 0 < p <= 1/2 (Abramowitz &
    Stegun 26.2.23): a Newton start that needs no scipy."""
    t = np.sqrt(-2.0 * np.log(p))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))


def _newton_quantile(low: np.ndarray, target: np.ndarray) -> np.ndarray:
    """x with P[S < x] = target where low holds, and P[S >= x] = target
    elsewhere, for S = sup_{t<=1}|B_t|.

    Newton's method on log F or log(1 - F), so both tails are solved in
    relative terms, from the leading term of the series on that side:
    (4/pi) exp(-pi^2/(8x^2)) = target, or 4 Phibar(x) = target. The
    convergence is quadratic, so once every relative step is below 1e-8 the
    next one would be below double precision and the loop stops.
    """
    log_target = np.log(target)
    with np.errstate(divide="ignore"):  # the branch np.where does not pick
        x = np.where(low, np.pi / np.sqrt(8.0 * np.log(4.0 / (np.pi * target))),
                     _normal_isf_start(0.25 * target))
    sign = np.where(low, 1.0, -1.0)
    for _ in range(_NEWTON_MAX):
        cdf, sf, pdf = sup_abs_bm_law(x)
        side = np.where(low, cdf, sf)
        step = sign * (np.log(side) - log_target) * side / pdf
        x -= step
        if np.max(np.abs(step) / x) < 1e-8:
            return x
    raise ArithmeticError("Newton inversion of the sup|B| law did not converge")


def _sup_abs_quantile(u: np.ndarray) -> np.ndarray:
    """Inverse of P[S < x] at u in (0, 1) by Newton's method: the reference
    that `_log_quantile`'s table is built from and tested against."""
    low = u < _CDF_AT_ONE
    return _newton_quantile(low, np.where(low, u, 1.0 - u))


# knots of the quantile table: logit u on [-37, 36.8] in 8192 steps; a
# uniform u in [2^-53, 1 - 2^-53] has |logit u| <= 53 log 2 = 36.74
_TABLE_LO = -37.0
_TABLE_HI = 36.8
_TABLE_STEPS = 8192
_TABLE_INV_STEP = _TABLE_STEPS / (_TABLE_HI - _TABLE_LO)


@functools.cache
def _quantile_table() -> tuple[np.ndarray, ...]:
    """Coefficients c0..c3 of the cubic Hermite interpolant of log Q in
    s = (z - z_k) / dz on each knot interval [z_k, z_k+1] of z = logit u,
    where Q is the quantile of S at u. The knot values come from Newton's
    method (`_newton_quantile`) at u = 1/(1 + e^-z), with 1 - u = 1/(1 + e^z)
    formed directly for the upper side, and the slopes from the density:
    d log Q / dz = u (1 - u) / (Q f(Q)). Built once per process, on the first
    fixed-time run, in about 10 ms. Against Newton the interpolant's quantile
    is within 8.5e-13 relative (median 1.5e-13) over 2^20 uniforms, and
    within 7.3e-13 at both ends and beside _CDF_AT_ONE."""
    z = np.linspace(_TABLE_LO, _TABLE_HI, _TABLE_STEPS + 1)
    u = 1.0 / (1.0 + np.exp(-z))
    v = 1.0 / (1.0 + np.exp(z))
    low = u < _CDF_AT_ONE
    x = _newton_quantile(low, np.where(low, u, v))
    y = np.log(x)
    slope = (z[1] - z[0]) * u * v / (x * sup_abs_bm_law(x)[2])
    d0, d1, dy = slope[:-1], slope[1:], np.diff(y)
    return y[:-1], d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy


def _log_quantile(u: np.ndarray) -> np.ndarray:
    """log of the quantile of S at u in [2^-53, 1 - 2^-53], from the table: a
    new array, with u left as it is."""
    c0, c1, c2, c3 = _quantile_table()
    s = np.subtract(1.0, u)
    np.divide(u, s, out=s)
    np.log(s, out=s)
    s -= _TABLE_LO
    s *= _TABLE_INV_STEP
    k = s.astype(np.intp)
    s -= k
    y = c3.take(k)
    y *= s
    y += c2.take(k)
    y *= s
    y += c1.take(k)
    y *= s
    y += c0.take(k)
    return y


def _exact_fixed_time_sampler(spec: MartingaleSpec):
    """The one column sup_{t<=T}|B_t|^q, with the supremum drawn from its
    law: one uniform per path through the quantile table, as
    exp(q (log Q + log(T) / 2)). The table is built here, before any chunk
    is drawn, if this process has not built it yet."""
    _quantile_table()
    qv = spec.q
    half_log_T = 0.5 * math.log(spec.T)

    def sampler(rng: np.random.Generator, m: int):
        u = rng.random(m)
        # a uniform of exactly 0 (probability 2^-53) is read as 2^-53
        np.maximum(u, 2.0**-53, out=u)
        y = _log_quantile(u)
        y += half_log_T
        y *= qv
        return (np.exp(y, out=y),)

    return sampler


# the fixed-time validation steps its paths in blocks of k steps with
# k m <= _BLOCK_CELLS (k >= 1), about 1 MB of buffers for m paths: each
# numpy call then runs long enough that two pieces overlap on two workers
_BLOCK_CELLS = 2**15


def _stepped_extrema(rng: np.random.Generator, m: int, n_steps: int, h: float, sqrt_h: float):
    """M, L, Mr, Lr and B of m stepped paths from 0, n_steps steps of length h:
    M the running maximum, L = -(running minimum) and B the end point, and
    Mr = M - B and Lr = L + B, the M and L of each path's time reversal
    B_{T-t} - B_T."""
    k = min(n_steps, max(1, _BLOCK_CELLS // m))
    # one allocation: three of these sizes are mapped afresh by malloc on
    # every call, about 220 page faults a piece of 3528 paths
    rows = np.empty((4 * k + 1, m))
    x, work = rows[:k + 1], rows[3 * k + 1:]
    u = rows[k + 1:3 * k + 1].reshape(k, 2, m)
    x[0] = 0.0
    run_max = np.zeros(m)
    run_min = np.zeros(m)
    for done in range(0, n_steps, k):
        j = min(k, n_steps - done)
        _bridge_steps(rng, x[:j + 1], u[:j], work[:j], h, sqrt_h)
        np.maximum(run_max, np.max(u[:j, 0], axis=0, out=work[0]), out=run_max)
        np.minimum(run_min, np.min(u[:j, 1], axis=0, out=work[0]), out=run_min)
        x[0] = x[j]
    end = x[0].copy()
    run_low = np.negative(run_min, out=run_min)
    # a bridge maximum can round below its end point, or a minimum above it,
    # and a power of a negative difference would be NaN
    rev_max = np.maximum(run_max - end, 0.0)
    rev_low = np.maximum(run_low + end, 0.0)
    return run_max, run_low, rev_max, rev_low, end


def _sup_moment(q: float, T: float) -> float:
    """E = T^(q/2) E|N|^q, with E|N|^q = 2^(q/2) Gamma((q+1)/2) / sqrt(pi):
    the exact E[M^q] = E[L^q] = E[Mr^q] = E[Lr^q] = E|B_T|^q."""
    return T ** (q / 2.0) * 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)


def _value_and_controls(extrema, q: float, sup_mean: float):
    """The plain stepped value (max(M, L)^q + max(Mr, Lr)^q) / 2 and the two
    controls, (M^q + L^q + Mr^q + Lr^q) / 2 - 2 E and |B|^q - E, of
    `_stepped_extrema`'s paths, with E = `_sup_moment(q, T)`."""
    run_max, run_low, rev_max, rev_low, end = extrema
    plain = 0.5 * (np.maximum(run_max, run_low) ** q + np.maximum(rev_max, rev_low) ** q)
    sides = 0.5 * (run_max**q + run_low**q + rev_max**q + rev_low**q) - 2.0 * sup_mean
    return plain, sides, np.abs(end) ** q - sup_mean


# (q, beta1, beta2): the coefficients of the stepped value's two controls,
# read between rows by linear interpolation. `scripts/fit_validation_beta.py`
# fitted them, the regression of the plain value on the controls, on 10^6
# paths of 50 steps (seed 0). A literal, so that importing the module draws
# nothing.
_CV_BETA = (
    (0.00, 0.115, 0.228),
    (0.05, 0.147, 0.250),
    (0.10, 0.181, 0.271),
    (0.15, 0.216, 0.289),
    (0.20, 0.251, 0.305),
    (0.25, 0.286, 0.318),
    (0.30, 0.320, 0.329),
    (0.35, 0.353, 0.337),
    (0.40, 0.385, 0.343),
    (0.45, 0.414, 0.348),
    (0.50, 0.443, 0.350),
    (0.55, 0.469, 0.351),
    (0.60, 0.493, 0.351),
    (0.65, 0.517, 0.350),
    (0.70, 0.538, 0.348),
    (0.75, 0.558, 0.345),
    (0.80, 0.577, 0.341),
    (0.85, 0.595, 0.337),
    (0.90, 0.612, 0.332),
    (0.95, 0.628, 0.327),
    (1.00, 0.643, 0.321),
    (1.05, 0.657, 0.315),
    (1.10, 0.671, 0.309),
    (1.15, 0.684, 0.303),
    (1.20, 0.696, 0.296),
    (1.25, 0.708, 0.289),
    (1.30, 0.720, 0.282),
    (1.35, 0.731, 0.275),
    (1.40, 0.742, 0.268),
    (1.45, 0.752, 0.260),
    (1.50, 0.762, 0.253),
    (1.55, 0.771, 0.246),
    (1.60, 0.781, 0.238),
    (1.65, 0.790, 0.231),
    (1.70, 0.799, 0.223),
    (1.75, 0.807, 0.216),
    (1.80, 0.815, 0.209),
    (1.85, 0.823, 0.201),
    (1.90, 0.831, 0.194),
    (1.95, 0.839, 0.187),
    (2.00, 0.846, 0.180),
)


def _control_coefficients(q: float) -> tuple[float, float]:
    """(beta1, beta2) at q, linear between the rows of _CV_BETA."""
    qs, b1, b2 = zip(*_CV_BETA)
    return float(np.interp(q, qs, b1)), float(np.interp(q, qs, b2))


def _fixed_time_sampler(spec: MartingaleSpec, step: float):
    """Stepped fixed-time paths, the validation of the exact sampler: the
    one column

        (max(M, L)^q + max(Mr, Lr)^q) / 2
            - beta1(q) ((M^q + L^q + Mr^q + Lr^q) / 2 - 2 E)
            - beta2(q) (|B_T|^q - E),

    with M the running maximum, L = -(running minimum), Mr = M - B_T and
    Lr = L + B_T the same of the time reversal B_{T-t} - B_T, and
    E = T^(q/2) E|N|^q. Every step's bridge maximum and minimum are exact
    draws, so M and L each have the exact law of sup_{t<=T} B_t = sqrt(T)|N|,
    and so have Mr and Lr; B_T is exactly N(0, T). Both controls therefore
    have mean 0 for any fixed beta, and the value's mean is the stepped
    E[max(M, L)^q] with its bias: M and L are drawn independently within a
    step, which is not their joint law, and the stepped scheme is invariant
    under time reversal, so the reversed term has the same mean, bias
    included. beta comes from the committed table _CV_BETA, never from a
    run's own draws, which would bias the mean. Single values can be
    negative. The relative standard deviation over q in (0, 2) is at most
    0.079 at any step count (worst at q = 0.81), against 0.172 at one step
    and 0.134 from three on with beta = (1, 0), and 0.20 to 0.86 for
    max(M, L)^q alone at q >= 0.5."""
    n_steps = int(round(spec.T / step))
    h = spec.T / n_steps
    sqrt_h = math.sqrt(h)
    qv = spec.q
    sup_mean = _sup_moment(qv, spec.T)
    beta1, beta2 = _control_coefficients(qv)

    def sampler(rng: np.random.Generator, m: int):
        plain, sides, end = _value_and_controls(
            _stepped_extrema(rng, m, n_steps, h, sqrt_h), qv, sup_mean)
        return (plain - beta1 * sides - beta2 * end,)

    return sampler


def _hitting_sampler(spec: MartingaleSpec, step: float):
    sqrt_h = math.sqrt(step)
    qv = spec.q
    a, b = spec.a, spec.b
    max_steps = int(math.ceil(_HITTING_HORIZON_CAP / step))

    def sampler(rng: np.random.Generator, m: int):
        # one step at a time over the first cells of flat buffers, so that
        # every row is contiguous: xs holds the alive paths' positions, then
        # the step's end points, and us the step's maxima, then its minima
        xs, us = np.zeros((2, 2 * m))
        work = np.zeros(m)
        run_max = np.zeros(m)
        run_min = np.zeros(m)
        exit_time = np.full(m, _HITTING_HORIZON_CAP)
        alive = np.arange(m)
        for k in range(1, max_steps + 1):
            n = alive.size
            if n == 0:
                break
            x = xs[:2 * n].reshape(2, n)
            u = us[:2 * n].reshape(1, 2, n)
            _bridge_steps(rng, x, u, work[:n].reshape(1, n), step, sqrt_h)
            up, dn = u[0]
            # the exact bridge extremum draws double as crossing detectors:
            # P[up >= b] is exactly the bridge crossing probability
            exited = (up >= b) | (dn <= a)
            run_max[alive] = np.maximum(run_max[alive], np.minimum(up, b))
            run_min[alive] = np.minimum(run_min[alive], np.maximum(dn, a))
            exit_time[alive[exited]] = k * step
            stay = ~exited
            alive = alive[stay]
            np.compress(stay, x[1], out=xs[:alive.size])
        # capped at the barriers, the running extrema give sup|M| = b or -a
        # on an exit, and the supremum seen so far on a censored path
        return exit_time ** (qv / 2.0), np.maximum(run_max, -run_min) ** qv

    return sampler


def _make_sampler(spec: MartingaleSpec, step: float):
    if spec.kind == BM_FIXED_TIME:
        return _fixed_time_sampler(spec, step)
    return _hitting_sampler(spec, step)


# a bound on the stepped value's relative sd over q in (0, 2) at any step
# count: the worst of `scripts/fit_validation_beta.py`'s sweep (0.0787 at
# 20 steps, q = 0.81; 10^6 paths per step count, q from 0.01 to 1.99 by 0.02,
# steps 1, 2, 3, 5, 20 and 50) with a margin of about 6 %
_CV_RELATIVE_SD = 0.084
# the validation's standard error is at most tolerance / _VALIDATION_SIGMAS
_VALIDATION_SIGMAS = 6.0


# the validation is drawn in this many pieces, whatever the thread count,
# from streams chunk_rng(seed, VALIDATION_STREAM + j)
_VALIDATION_PIECES = 2


def _validation_samples(tolerance: float) -> int:
    """Paths of the fixed-time validation pass: ceil((6 s / tolerance)^2)
    with s the relative sd bound, 2541 paths at the 1 % tolerance at every
    step count. The square is rounded first so that float noise cannot add
    a path."""
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

    # bias control on the same seed, drawn from the validation's streams: at
    # fixed time the stepped paths against the exact value, at a budget set
    # by the tolerance; at the hitting time the step halved, at the same
    # budget. The longer pass goes first.
    oracle = z = validation = None
    if spec.kind == BM_FIXED_TIME:
        n_check = _validation_samples(_BIAS_TOLERANCE)
        (validation,), (den,) = estimate(
            (_make_sampler(spec, spec.step), n_check, -(-n_check // _VALIDATION_PIECES),
             VALIDATION_STREAM),
            (_exact_fixed_time_sampler(spec), n_samples))
        # E[<B,B>_T^(q/2)] = T^(q/2) exactly: nothing to draw
        num = Estimate(spec.T ** (spec.q / 2.0), 0.0, n_samples, PLAIN)
        oracle = sup_abs_bm_moment(spec.q, spec.T)
        z = z_score(den, oracle)
        bias_rel = abs(validation.value - oracle) / oracle
    else:
        (_, check), (num, den) = estimate(
            (_make_sampler(spec, spec.step / 2.0), n_samples, CHUNK, VALIDATION_STREAM),
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
