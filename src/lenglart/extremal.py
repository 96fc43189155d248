"""Samplers for the extremal process families.

The basic object is the exponential pair: a single jump of height
A(Z) = exp(Z/p) at an Exp(1) time Z, compensated by the running integral
p expm1(t/p) of A up to Z. Appending an independent Brownian excursion
after the horizon multiplies the supremum moment by 1/(1-p): the supremum
of that excursion started at level x has the exact Pareto tail
P[sup >= y] = x/y, so it is x/U with U uniform, and E[U^-p] = 1/(1-p).

The vectorized sup samplers that feed the moment estimates return the x
side's moment itself, a float, since it is a closed form in the horizon n.
On the compensator side they add exactly the two parts of the moment that
have closed forms, the mass beyond n and the integral of a plateau below
it, and draw only the deficit under the plateau, by importance sampling
from its own exponential rate of decay, with the uniform behind each draw
as a control variate. They return these weighted values, of which only the
mean is the moment. At r = p each continuous value is a smooth function of
its one uniform, with a second control variate for the cusp at v = 0, and
on a chunk that montecarlo offers for it the kernel draws its uniforms
stratified, two to a stratum; the discrete kernel draws replicated Latin
columns there (see the block comment below). The exponent r
defaults to the family's p. The values are bounded and finite at every
0 < p < 1.

The checks read paths only at stopping rules (FixedIndexRule, HittingRule),
where a single-jump path is a closed form of its jump time Z ~ Exp(1):
exp_pair_stopped and discrete_stopped draw Z and return the stopped (x, g)
values, at O(size) per rule instead of O(size n 2^N). Both paths are
constant from the grid index of the jump on, so every rule reads them at
one grid index k for all paths (read_index): a fixed index its own, a
hitting rule on x the last (at a level <= 0 the first), and a hitting rule
on g the first index where the grid row of g reaches the level (the last if
none does). At k the path holds (exp(Z/p) 1[t_k >= Z], g_end) where
t_k >= Z and (0, the grid row of g at k) elsewhere, with g_end the path's g
from its jump on; so the pair stopped there is the monotone pair on
[0, t_k], whose sups monotone_sup_sampler draws at horizon t_k.
The path batches (exp_pair_path_batch, discrete_path_batch) hold x and g
at every grid index, from the same Z, as the tests' dense reference.
Both routes hold exp(Z/p), so grid_last refuses n/p beyond ln(DBL_MAX),
where it is not a float64, and both it and discrete_sup_sampler refuse a
grid of more than _MAX_GRID_STEPS steps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExtremalParams",
    "FixedIndexRule",
    "HittingRule",
    "sharpness_sup_sampler",
    "monotone_sup_sampler",
    "discrete_sup_sampler",
    "grid_last",
    "grid_g_row",
    "read_index",
    "zero_moments",
    "exp_pair_path_batch",
    "discrete_path_batch",
    "exp_pair_stopped",
    "discrete_stopped",
]


@dataclass(frozen=True)
class ExtremalParams:
    """p-exponent and integer horizon of one extremal family member."""

    p: float
    n: int

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise ValueError("p must lie in (0,1)")
        if self.n < 1:
            raise ValueError("horizon n must be a positive integer")


# ---------------------------------------------------------------------------
# Vectorized sup-statistic samplers (closed forms, computed in place)
#
# A sampler returns the r-th powers of the sups, for an exponent r in (0, 1)
# that defaults to the family's p. The x side needs no draw: sup X is
# A(Z)^r = e^(rZ/p) below the horizon n, times U^-r in the full pair, and 0
# beyond it, with U independent of Z. So E[(sup X)^r] =
# E[e^(rZ/p); Z <= n] E[U^-r] = int_0^n e^((r/p - 1) z) dz / (1 - r), which
# is n/(1-r) at r = p and expm1(a n)/(a (1-r)) with a = r/p - 1 otherwise,
# and n for the monotone pair, which has no U. A sampler returns it as a
# float, which the estimator reports as exact (montecarlo.estimate_passes).
#
# On the compensator side, no jump happens beyond the horizon and G runs to
# n, so f(Z) = (sup G)^r is a known constant on Z > n and E[f(Z)] =
# int_0^n e^-z f(z) dz + e^-n f(n); the second term, the mass beyond the
# horizon, is exp(r log(p (1 - e^(-n/p))) + a n). Below the horizon G runs
# to t: z itself, or for the discrete pair the end of z's grid step. With
# y = e^(-t/p) and phi(y) = (1 - (1 - y)^r) / y, which lies in [r, 1] and
# rises with y, e^-z (p expm1(t/p))^r = p^r e^(rt/p - z) (1 - y phi(y)):
# a plateau p^r e^(rt/p - z) less a deficit
# p^r e^(-kappa z/p) phi(y) e^(-(1-r)(t-z)/p), kappa = 1 + p - r. The
# plateau's integral P is a closed form: p^r expm1(a n)/a (p^r n at r = p),
# and p^r expm1(h) sum_{k=1}^{n/h} e^(a k h) on the grid of step h. So the
# samplers add P exactly, as a control variate of known mean, and draw only
# the deficit, from the density proportional to e^(-kappa z/p) on [0, n],
# the deficit's own rate of decay: z = -(p/kappa) log(1 - v c_u) for v
# uniform, c_u = -expm1(-kappa n/p), with the weight W = p^(r+1) c_u/kappa.
# Each value is
#
#     P + beyond - W phi(e^(-t/p)) e^(-(1-r)(t-z)/p) - beta (v - 1/2):
#
# v - 1/2 is a further control variate, of mean 0, and beta its best fixed
# coefficient, 12 Cov of the deficit term with v, from a midpoint rule when
# the sampler is built (Owen, Monte Carlo theory, methods and examples,
# 2013, ch. 8-9). The deficit term rises almost linearly with v
# (correlation 0.93 at p = 0.5, n = 10), so it takes a further 5 to 13
# times the variance away. Only the mean of the values is the moment. At
# r = p and t = z, e^(-z/p) = 1 - s with s = v c_u, so the deficit term is
# W expm1(p log s)/(1 - s), and z is never formed. The discrete pair's t is
# k h for the grid index k = ceil(z/h), so its phi is a table over k,
# constant from kh/p >= _PHI_FLAT on. It takes the continuous pair's beta
# at r != p and at r = p without the cusp control below, so its value is at
# least that continuous value on every v, since its P is larger and its t
# later, and discretization effects isolate cleanly.
#
# At r = p a continuous value is a smooth function of its one uniform, so
# the kernel may draw the v of a column of n values stratified: n/2 strata
# of width 2/n, two independent uniforms in each, a chunk of m values from
# entry start on holding strata start/2 + k at entries k and m/2 + k:
# v = (start/2 + k + u) 2/n, whose within-pair differences give the chunk's
# variance (montecarlo._reduce_strata); an odd n ends in one stratum of
# three values, of width 3/n, and n = 1 draws v = u. The variance of the
# column's mean then falls as n^-3, not n^-1, except that W s^p has an
# infinite slope at s = 0, which would leave the first strata carrying the
# variance and the pair differences a heavy tail. So the kernel also
# subtracts the cusp control W (s^p - c_u^p/(p+1)), of mean 0:
#
#     W (s^p - 1)/(1 - s) - W (s^p - c_u^p/(p+1))
#         = W (s^(p+1) - 1)/(1 - s) + W c_u^p/(p+1),
#
# which takes expm1's exponent from p to p + 1 at no further pass, folds the
# constant into the offset, and refits beta by the midpoint rule. The
# stratified offsets k come from one cached array, and 2/n is folded into
# c_u. The discrete kernel's value jumps at every grid time, so its pair
# differences would be a poor variance estimate; it draws its v, on a
# column of at least 64 values, as 32 replicated Latin columns, replicate i
# one v in each of the n/32 strata of width 32/n, and montecarlo reads the
# spread of the 32 replicate means (montecarlo.ChunkStream.replicates); its
# scale 32/n is folded into c_u and beta. The continuous kernel at r != p,
# and every kernel under sample_values (which median of means draws
# through), keep i.i.d. draws.
#
# The values lie within 3 W of each other and are bounded at every
# 0 < p < 1; at r > p the moments grow as e^(a n), and the samplers refuse
# an r, p and n at which the x moment is no float64, or at which the
# estimator's sum of a chunk of squared deviations from the mean could not
# be: rounding at the size of the values, about e^(a n), leaves deviations
# of up to 2^-48 of them. The monotone pair's G is the full pair's, and its sampler returns
# the full sampler's g values.
#
# Every constant above is a function of the horizon n, and _constants and
# the two kernels take any horizon t on their grid in its place (n when
# none is given, to the same bits): the single-jump pair stopped at grid
# time t is the monotone pair on [0, t], since X_t = e^(Z/p) 1[Z <= t] and
# G_t = G(min(Z, t)). monotone_sup_sampler at horizon t is the freeze's
# sampler (verifier.HatXGenerator): x exact, int_0^t e^(a z) dz, and the g
# kernel at t, continuous or on the grid.
#
# Each kernel evaluates its closed form in place, in the rows of one
# allocation of m doubles each (two, three for the discrete kernel) whose
# first row the bit generator filled, and at r = p allocates no other
# full-size array: glibc returns a freed heap top to the operating system
# and every chunk would page-fault it in again; it keeps a freed heap top of
# up to twice the largest block it has unmapped, which separate blocks of m
# doubles would exceed.
# ---------------------------------------------------------------------------

# largest t with exp(t) a finite float64, ~709.78
_MAX_EXP_ARG = math.log(sys.float_info.max)
# from x = t/p = 40 on, phi(e^-x) = r (1 + (1 - r) e^-x/2 + ...) is r in float64
_PHI_FLAT = 40.0
# midpoints of the rule that fixes a control variate's coefficient
_SLOPE_NODES = 1 << 12


def _exponent(params: ExtremalParams, r: float | None) -> float:
    if r is None:
        return params.p
    if not (0.0 < r < 1.0):
        raise ValueError("exponent r must lie in (0,1)")
    return r


def _constants(params: ExtremalParams, r: float, h: float = 0.0,
               horizon: float | None = None,
               cusp: bool = False) -> tuple[float, float, float, float, float]:
    """(E[(sup X)^r] of the full pair, top, W, c_u, beta) at the horizon n,
    or at horizon, a multiple of h, if given: top = P + beyond, the
    plateau's integral on the grid of step h (continuous at h = 0) plus
    the mass beyond the horizon, W the deficit's weight, c_u its draws'
    normaliser, and beta = 12 Cov(-W phi(e^(-z(V)/p)), V) for V uniform, by
    the midpoint rule, of the deficit term less the cusp control if cusp:
    the multiple of the control variate V - 1/2 that leaves the continuous
    values least variance (any beta keeps the mean exact). Raises
    ValueError where the x moment or top is no float64, or where CHUNK
    squared deviations of values from their mean, which the estimator sums,
    could exceed DBL_MAX: the values lie within 3 W of each other, and
    rounding near top adds up to about 2^-48 top."""
    from .montecarlo import CHUNK  # montecarlo imports this module

    p = params.p
    n = params.n if horizon is None else horizon
    a = r / p - 1.0
    kappa = 1.0 + p - r
    c_u = -math.expm1(-kappa * n / p)
    weight = p ** (r + 1.0) * c_u / kappa
    try:
        supx = n / (1.0 - r) if a == 0.0 else math.expm1(a * n) / (a * (1.0 - r))
        # int_0^n e^(a z) dz, or expm1(h) sum_{k=1}^{n/h} e^(a k h)
        if a == 0.0:
            plateau = n * math.expm1(h) / h if h else float(n)
        else:
            step = math.expm1(h) * math.exp(a * h) / math.expm1(a * h) if h else 1.0 / a
            plateau = math.expm1(a * n) * step
        top = p**r * plateau + math.exp(r * math.log(-p * math.expm1(-n / p)) + a * n)
    except OverflowError:
        supx = top = math.inf
    spread = 3.0 * weight + top * 2.0**-48
    if not (math.isfinite(supx) and 2.0 * math.log(spread) + math.log(CHUNK) <= _MAX_EXP_ARG):
        at = f"n = {n}" if horizon is None else f"n = {params.n} stopped at t = {n:g}"
        raise ValueError(f"the moments of order r = {r} of the extremal pair at p = {p}, "
                         f"{at} exceed DBL_MAX, or the squared deviations their estimate "
                         "sums could; they grow as e^((r/p - 1) n)")
    v = (np.arange(_SLOPE_NODES) + 0.5) / _SLOPE_NODES
    minus_phi = _continuous_minus_phi(v.copy(), np.empty_like(v), p, r, c_u, cusp)
    return supx, top, weight, c_u, 12.0 * weight * float(np.mean(minus_phi * (v - 0.5)))


def _minus_phi(x: np.ndarray, r: float) -> np.ndarray:
    """-phi(e^-x) = ((1 - e^-x)^r - 1) e^x for x >= 0, a new array: log(1 - e^-x)
    by log1p(-e^-x) where e^-x is small and by log(-expm1(-x)) where it is
    near 1, each where it keeps its digits (Maechler, Rmpfr note, 2012)."""
    x = np.minimum(x, _PHI_FLAT)
    y = np.exp(-x)
    with np.errstate(divide="ignore"):  # x = 0 gives log 0 = -inf, and phi 1
        log_w = np.where(x > math.log(2.0), np.log1p(-y), np.log(-np.expm1(-x)))
    log_w *= r
    np.expm1(log_w, out=log_w)
    log_w /= y
    return log_w


def _continuous_minus_phi(s: np.ndarray, rest: np.ndarray, p: float, r: float,
                          c_u: float, cusp: bool = False) -> np.ndarray:
    """-phi(e^(-z/p)) of the continuous pair for the uniforms v in s, in s at
    r = p and in a new array otherwise; rest receives 1 - v c_u. With cusp,
    at r = p only, less s^p, s = v c_u: (s^(p+1) - 1)/(1 - s)."""
    s *= c_u
    np.subtract(1.0, s, out=rest)
    if r == p:  # e^(-z/p) = 1 - s
        with np.errstate(divide="ignore"):  # v = 0 gives log 0 = -inf, and phi 1
            np.log(s, out=s)
        s *= p + 1.0 if cusp else p
        np.expm1(s, out=s)
        s /= rest
        return s
    np.negative(s, out=s)
    np.log1p(s, out=s)
    s *= -1.0 / (1.0 + p - r)  # z/p
    return _minus_phi(s, r)


# the most steps, n 2^N, of a dyadic grid. At 2^22 (n = 4, N = 20 and n = 16,
# N = 18) and 10^5 samples, on one core of a 2-core x86_64 Xeon, a check of
# the discrete pair took 0.11-0.20 s, a freeze of it where x reaches 3
# 0.20-0.23 s and its audit 0.54-0.58 s, at a peak RSS of 232 MB
_MAX_GRID_STEPS = 1 << 22


def _check_level(n: int, level_N: int) -> None:
    if level_N < 0:
        raise ValueError("level_N must be non-negative")
    if n > _MAX_GRID_STEPS >> level_N:  # n 2^N, without forming 2^N
        raise ValueError(f"a grid of n 2^level_N steps at n = {n}, level_N = {level_N} "
                         f"exceeds {_MAX_GRID_STEPS}; lower n or level_N")


def _fill_uniforms(rng, out: np.ndarray, spread: float | None = None,
                   step: bool = False) -> float:
    """Fill out with a kernel's uniforms v divided by the returned scale. If
    rng offers a stratified column (montecarlo.ChunkStream, on the chunks of
    montecarlo.estimate_passes), a kernel whose values are each a smooth
    function of one uniform, within an interval of width spread, draws them
    two to a stratum through it, and a kernel whose values are a step
    function of one uniform (step) draws replicated Latin columns through
    it, where the column is long enough. Otherwise they are i.i.d., at
    scale 1."""
    if spread is not None and (strata := getattr(rng, "strata", None)):
        return strata(out, spread)
    if step and (replicates := getattr(rng, "replicates", None)):
        return replicates(out)
    rng.random(out=out)
    return 1.0


def sharpness_sup_sampler(params: ExtremalParams, r: float | None = None,
                          horizon: float | None = None):
    """Paired sampler (rng, m) -> (E[(sup X)^r], importance-weighted
    (sup G)^r) for the full extremal family, Brownian tail by exact law; r
    defaults to p, and the horizon to n. The x side is its exact moment, a
    float; only the mean of the g side is the moment. At r = p the g side
    carries the cusp control and is drawn stratified where rng offers strata
    (_fill_uniforms). Raises ValueError where the moments are no float64."""
    p = params.p
    r = _exponent(params, r)
    cusp = r == p
    supx, top, weight, c_u, beta = _constants(params, r, horizon=horizon, cusp=cusp)
    # -beta (v - 1/2) = (beta/c_u) (1 - v c_u) - beta/c_u + beta/2
    slope, offset = beta / c_u, top - beta / c_u + 0.5 * beta
    # the cusp control's mean, W E[(V c_u)^p]; its deficit term lies in
    # [-(1 + p) W, -W] and the beta term spans |beta|
    spread = None
    if cusp:
        offset += weight * c_u**p / (p + 1.0)
        spread = p * weight + abs(beta)

    def sampler(rng: np.random.Generator, m: int):
        block = np.empty((2, m))
        s, rest = block
        scale = _fill_uniforms(rng, s, spread)
        g = _continuous_minus_phi(s, rest, p, r, c_u * scale, cusp)
        g *= weight
        rest *= slope
        g += rest
        g += offset
        return supx, g

    return sampler


def monotone_sup_sampler(params: ExtremalParams, r: float | None = None,
                         horizon: float | None = None, level_N: int | None = None):
    """Paired sampler of (E[(sup X)^r], importance-weighted (sup G)^r) for
    the monotone pair (no Brownian tail) on [0, horizon], r defaulting to p
    and the horizon to n: the single-jump pair stopped at the horizon. The x
    side is its exact moment, int_0^horizon e^((r/p - 1) z) dz (n at the
    defaults); the g side is the full pair's, or with level_N given, and a
    horizon on its grid, the discrete pair's. Only the mean of the g side
    is the moment."""
    r = _exponent(params, r)
    t = params.n if horizon is None else horizon
    a = r / params.p - 1.0
    full = (sharpness_sup_sampler(params, r, t) if level_N is None
            else discrete_sup_sampler(params, level_N, r, t))
    # finite: the kernel refused the full pair's x moment, 1/(1 - r) times
    # this one, past DBL_MAX
    supx = float(t) if a == 0.0 else math.expm1(a * t) / a

    def sampler(rng: np.random.Generator, m: int):
        return supx, full(rng, m)[1]

    return sampler


def discrete_sup_sampler(params: ExtremalParams, level_N: int, r: float | None = None,
                         horizon: float | None = None):
    """Paired sampler of (E[(sup X)^r], importance-weighted (sup G)^r) for
    the dyadic discretization, r defaulting to p and the horizon, a grid
    time, to n; the continuous sampler's beta, without its cusp control, so
    discretization effects isolate cleanly. Its v are drawn in replicated
    Latin columns where rng offers them (_fill_uniforms), else i.i.d. The x
    side does not see the grid and is the continuous pair's exact moment;
    only the mean of the g side is the moment. The g side reads
    -W phi(e^(-kh/p)) from a table over the grid index k of at most
    min(horizon 2^N, _PHI_FLAT p 2^N) + 1 entries."""
    _check_level(params.n, level_N)
    p = params.p
    r = _exponent(params, r)
    h = 2.0 ** (-level_N)
    supx, top, weight, c_u, beta = _constants(params, r, h, horizon)
    offset = top + 0.5 * beta
    kappa = 1.0 + p - r
    steps = params.n * 2**level_N if horizon is None else int(horizon * 2**level_N)
    last = min(steps, math.ceil(_PHI_FLAT * p / h))
    table = _minus_phi(np.arange(last + 1) * (h / p), r)
    table *= weight

    def sampler(rng: np.random.Generator, m: int):
        block = np.empty((3, m))
        z, k, g = block
        scale = _fill_uniforms(rng, z, step=True)
        np.multiply(z, -beta * scale, out=g)
        z *= -c_u * scale
        np.log1p(z, out=z)
        z *= -p / (kappa * h)  # z/h
        np.ceil(z, out=k)  # t = k h ends the grid step that holds z
        np.subtract(k, z, out=z)
        z *= -(1.0 - r) * h / p
        np.exp(z, out=z)  # e^(-(1-r)(t-z)/p)
        index = k.view(np.intp)  # cast in place, element by element
        np.copyto(index, k, casting="unsafe")
        # clip: beyond the table phi is r, and k = horizon/h + 1, which a
        # z rounded past the horizon gives, reads the last grid time
        np.take(table, index, out=k, mode="clip")
        k *= z
        g += k
        g += offset
        return supx, g

    return sampler


def grid_last(params: ExtremalParams, level_N: int) -> int:
    """n 2^N, the last index of the path grid of step 2^-N. Raises
    ValueError at a negative N or past _MAX_GRID_STEPS, and at n/p beyond
    ln(DBL_MAX): a path row holds exp(Z/p) and p expm1(t/p) up to t = n,
    which are not float64 there."""
    _check_level(params.n, level_N)
    if params.n / params.p > _MAX_EXP_ARG:
        raise ValueError(
            f"path values exp(n/p) overflow at n/p = {params.n / params.p:.6g} > "
            f"ln(DBL_MAX) = {_MAX_EXP_ARG:.2f}; lower n or raise p")
    return params.n * 2**level_N


def grid_g_row(params: ExtremalParams, level_N: int, discrete: bool = False) -> np.ndarray:
    """g on the grid t_k = k 2^-N, k = 0 .. n 2^N, of a path that has not
    jumped: p expm1(t_k/p), or for the discrete pair the partial sums of the
    step integrals. Every path's g follows it until the path jumps and is
    constant from there on. Raises as grid_last."""
    t = np.arange(grid_last(params, level_N) + 1) * 2.0 ** (-level_N)
    if discrete:
        return np.concatenate([[0.0], np.cumsum(_step_integrals(params.p, t))])
    return params.p * np.expm1(t / params.p)


def read_index(rule, g_row: np.ndarray) -> int:
    """The grid index k at which rule reads every single-jump path whose g
    follows g_row: rule.common_index, or, for a hitting rule on x at a
    positive level, the last index, since both paths are constant from the
    jump on (see the module docstring)."""
    k = rule.common_index(g_row)
    return g_row.size - 1 if k is None else k


def zero_moments(rng: np.random.Generator, m: int) -> tuple[float, float]:
    """The sampler of a pair stopped at time 0, where X and G are 0: exact
    zeros, with no draw."""
    return 0.0, 0.0


def _jump_times(params: ExtremalParams, level_N: int, rng: np.random.Generator,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """(z, t) for a batch on the dyadic grid t_k = k 2^-N, k = 0 .. n 2^N:
    the Exp(1) jump times z, computed in the array of their uniforms (a
    uniform 0 gives z = inf, a path that never jumps), and the grid t."""
    last = grid_last(params, level_N)
    z = rng.random(size)
    with np.errstate(divide="ignore"):
        np.log(z, out=z)
    np.negative(z, out=z)
    return z, np.arange(last + 1) * 2.0 ** (-level_N)


def _jump_heights(params: ExtremalParams, z: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The jump heights exp(z/p), 0 for z > n, in out if given."""
    jump = np.minimum(z, params.n, out=out)
    jump /= params.p
    np.exp(jump, out=jump)
    np.copyto(jump, 0.0, where=z > params.n)
    return jump


def _jump_paths(params: ExtremalParams, level_N: int, rng: np.random.Generator,
                size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, t, x) for a batch on the dyadic grid: the jump times z as a
    (size, 1) column, and the jump paths x, which jump to exp(z/p) at the
    first grid point >= z if z <= n."""
    z, t = _jump_times(params, level_N, rng, size)
    jump = _jump_heights(params, z)
    z = z[:, None]
    return z, t, np.where(t >= z, jump[:, None], 0.0)


def _step_integrals(p: float, t: np.ndarray) -> np.ndarray:
    """p (e^(t_k/p) - e^(t_(k-1)/p)), the growth integral over each grid step."""
    return p * (np.exp(t[1:] / p) - np.exp(t[:-1] / p))


@dataclass(frozen=True)
class FixedIndexRule:
    """Stop at grid index k."""

    k: int

    def label(self) -> str:
        return f"fixed[{self.k}]"

    def index(self, last: int) -> int:
        """k, refused outside a grid whose last index is last."""
        if not (0 <= self.k <= last):
            raise ValueError("fixed stopping index outside the grid")
        return self.k

    def common_index(self, g_row: np.ndarray) -> int:
        """k, the index at which every path stops (see HittingRule)."""
        return self.index(g_row.size - 1)


@dataclass(frozen=True)
class HittingRule:
    """Stop at the first index where x (side "x") or g (side "g") is >= level,
    else at the last index."""

    side: str
    level: float

    def __post_init__(self) -> None:
        if self.side not in ("x", "g"):
            raise ValueError(f"hitting rule side must be 'x' or 'g', not {self.side!r}")

    def label(self) -> str:
        return f"hit[{self.side}>={self.level:.4g}]"

    def common_index(self, g_row: np.ndarray) -> int | None:
        """The index at which the rule stops every path whose g is the
        non-decreasing g_row: on g, the first index where g_row reaches the
        level, else the last. None on x at a positive level, where the stop
        depends on the path; since x starts at 0 and never decreases, a
        level <= 0 stops every path at 0, and a NaN level, which nothing
        reaches, at the last index."""
        last = g_row.size - 1
        if self.side == "g":
            return min(int(np.searchsorted(g_row, self.level)), last)
        if self.level <= 0:
            return 0
        return last if math.isnan(self.level) else None


def _blend(jumped: np.ndarray, g_end: np.ndarray, level: float, out: np.ndarray) -> None:
    """out = jumped g_end + (1 - jumped) level for a 0/1 jumped, which it
    overwrites; out may be g_end. Exact where g_end and level are finite,
    since one of the two terms is then 0, and several times faster than a
    masked copy of g_end over level."""
    np.multiply(g_end, jumped, out=out)
    np.subtract(1.0, jumped, out=jumped)
    jumped *= level
    out += jumped


def _stopped_jumps(rules, t: np.ndarray, z: np.ndarray, g_row: np.ndarray,
                   block: np.ndarray) -> list:
    """(x_tau, g_tau) per rule, rows 2i and 2i + 1 of block, for the
    single-jump paths x_k = jump 1[t_k >= z] and a g that equals the
    non-decreasing g_row before the jump and g_end from it on, where g_end
    is g_row[last] on a path with no jump. On entry the last two rows of
    block hold jump and g_end; the last rule is stopped in them, with z's
    array as its scratch. Equal, element for element, to stopping the
    dense paths."""
    last = t.size - 1
    jump, g_end = block[-2], block[-1]
    pairs = []
    for i, rule in enumerate(rules):
        # both paths are constant from the jump on, so a rule on x that
        # stops each path at its jump or at the last index reads the values
        # at the last index; and g <= g_row, so a rule on g cannot stop
        # before g_row reaches its level, where g, if it has not reached it,
        # is already constant
        k = read_index(rule, g_row)
        x, g = block[2 * i], block[2 * i + 1]
        if k == last:  # every path reads (jump, g_end)
            if i < len(rules) - 1:
                np.copyto(x, jump)
                np.copyto(g, g_end)
        elif i < len(rules) - 1:  # x's row is the scratch until x is written
            _blend(np.less_equal(z, t[k], out=x), g_end, g_row[k], out=g)
            np.less_equal(z, t[k], out=x)  # 1 where the path has jumped by t_k
            x *= jump
        else:  # in the rows of jump and g_end
            jumped = np.less_equal(z, t[k], out=z)
            x *= jumped
            _blend(jumped, g, g_row[k], out=g)
        pairs.append((x, g))
    return pairs


def exp_pair_path_batch(params: ExtremalParams, level_N: int, rng: np.random.Generator,
                        size: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch of exponential pairs (size x (n 2^N + 1) arrays) at step
    h = 2^-N: the jump paths x and g = p expm1(min(t, z)/p), computed in
    g's array."""
    z, t, x = _jump_paths(params, level_N, rng, size)
    g = np.minimum(t, z)
    g /= params.p
    np.expm1(g, out=g)
    g *= params.p
    return x, g


def discrete_path_batch(params: ExtremalParams, level_N: int, rng: np.random.Generator,
                        size: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch of dyadic discrete pairs (size x (n 2^N + 1) arrays) at step
    h = 2^-N.

    x is the continuous path sampled on the grid, the same as in
    exp_pair_path_batch. g accrues, one step ahead, the full growth integral
    of the coming step for as long as the jump has not yet happened: the
    increment over ((k-1)h, kh] is gated on z > (k-1)h, which is measurable
    one step ahead, keeps g non-decreasing and keeps
    g_k >= g(continuous at kh), so the discrete pair still satisfies the
    domination hypothesis. The increments are summed in g's array.
    """
    z, t, x = _jump_paths(params, level_N, rng, size)
    g = np.empty_like(x)
    g[:, 0] = 0.0
    increments = g[:, 1:]
    np.multiply(_step_integrals(params.p, t), z > t[:-1], out=increments)
    np.cumsum(increments, axis=1, out=increments)
    return x, g


def exp_pair_stopped(params: ExtremalParams, level_N: int, rules, rng: np.random.Generator,
                     size: int, g_divisor: float = 1.0) -> list:
    """(x_tau, g_tau) per rule (FixedIndexRule or HittingRule) on the
    exponential pairs that exp_pair_path_batch(params, level_N, rng, size)
    would build, from the same draws and without building them; g is
    divided by g_divisor before stopping. The arrays are the rows of one
    new (2 len(rules), size) array, and the jump times are the only other
    array of size doubles allocated. g_end is p expm1(min(z, n)/p), g's
    value from the jump on."""
    z, t = _jump_times(params, level_N, rng, size)
    if not rules:
        return []
    p = params.p
    block = np.empty((2 * len(rules), size))
    _jump_heights(params, z, out=block[-2])
    g_end = np.minimum(z, params.n, out=block[-1])
    g_end /= p
    np.expm1(g_end, out=g_end)
    g_end *= p
    g_end /= g_divisor
    return _stopped_jumps(rules, t, z, grid_g_row(params, level_N) / g_divisor, block)


def discrete_stopped(params: ExtremalParams, level_N: int, rules, rng: np.random.Generator,
                     size: int) -> list:
    """(x_tau, g_tau) per rule on the dyadic discrete pairs that
    discrete_path_batch would build, as exp_pair_stopped but with g
    undivided. g_k is levels[min(k, c)], the partial sums of the step
    integrals up to the count c of grid points t_0 .. t_(last-1) below z, so
    g_end is levels[c]. The first grid index j with t_j >= z is
    ceil(z 2^N), or last + 1 if there is none, since t_k = k 2^-N and the
    scaling by 2^N is exact; c is min(j, last)."""
    z, t = _jump_times(params, level_N, rng, size)
    if not rules:
        return []
    last = t.size - 1
    block = np.empty((2 * len(rules), size))
    levels = grid_g_row(params, level_N, discrete=True)
    c = np.multiply(z, 2.0**level_N, out=block[-1])
    np.ceil(c, out=c)
    np.minimum(c, last, out=c)
    index = block[-2].view(np.intp)  # the jump's row, before it holds the jump
    np.copyto(index, c, casting="unsafe")
    np.take(levels, index, out=block[-1], mode="clip")
    _jump_heights(params, z, out=block[-2])
    return _stopped_jumps(rules, t, z, levels, block)
