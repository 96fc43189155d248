"""Samplers for the extremal process families.

The basic object is the exponential pair: a single jump of height
A(Z) = exp(Z/p) at an Exp(1) time Z, compensated by the running integral
p expm1(t/p) of A up to Z. Appending an independent Brownian excursion
after the horizon multiplies the supremum moment by 1/(1-p): the supremum
of that excursion started at level x has the exact Pareto tail
P[sup >= y] = x/y, so it is x/U with U uniform, and E[U^-p] = 1/(1-p).

The vectorized sup samplers that feed the moment estimates return the x
side's moment itself, a float, since it is a closed form in the horizon n.
On the compensator side they draw Z uniformly below n rather than from
Exp(1), add the mass beyond n exactly, and return importance-weighted
values: a single value is not a draw of (sup G)^r, only their mean is the
moment. The exponent r defaults to the family's p. They work in log space
and are finite at every 0 < p < 1.

The checks read paths only at stopping rules (FixedIndexRule, HittingRule),
where a single-jump path is a closed form of its jump time Z ~ Exp(1):
exp_pair_stopped and discrete_stopped draw Z and return the stopped (x, g)
values, at O(size) per rule instead of O(size n 2^N). Both paths are
constant from the grid index of the jump on, so every rule reads them at
one grid index k for all paths: a fixed index its own, a hitting rule on x
the last (at a level <= 0 the first), and a hitting rule on g the first
index where the grid row of g reaches the level (the last if none does).
At k the path holds (exp(Z/p) 1[t_k >= Z], g_end) where t_k >= Z and (0,
the grid row of g at k) elsewhere, with g_end the path's g from its jump on.
The path batches (exp_pair_path_batch, discrete_path_batch) hold x and g
at every grid index, from the same Z, for dump-paths and as the tests'
dense reference. Both routes hold exp(Z/p), so grid_last refuses n/p
beyond ln(DBL_MAX), where it is not a float64.
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
# n, so f(Z) is a known constant on Z > n and E[f(Z)] =
# int_0^n e^-z f(z) dz + e^-n f(n). The samplers draw Z = n v, v uniform on
# [0, 1), weight each value by n e^-z, and add the mass beyond the horizon,
# e^-n (p expm1(n/p))^r, exactly; plain Exp(1) draws would leave a Pareto(1)
# tail. The weight e^-z cancels the e^(rz/p) inside (p expm1(z/p))^r up to
# e^((r/p - 1) z), so every weighted value has a closed form with no exp(z/p)
# in it: n e^-z (sup G)^r = n (p (1 - e^(-z/p)))^r e^((r/p - 1) z), at r = p
# the integrand of oracles.gtilde_sup_moment. At r = p the exponential is 1
# and is not evaluated, and no value can overflow at any p in (0, 1); at
# r > p the moments grow as e^((r/p - 1) n), and the samplers refuse an r, p
# and n at which the x moment or the mass beyond the horizon is no float64,
# or at which the estimator's sum of a chunk of squared values could not be.
# The monotone pair's G is the full pair's, and its sampler returns the full
# sampler's g values at r = p.
#
# Each kernel evaluates its closed form in place, in the array that the bit
# generator filled: at r = p a chunk allocates no full-size temporary (the
# discrete kernel keeps its caps in the second row of its draws' one
# allocation), because glibc returns a freed heap top to the operating
# system and every chunk would page-fault it in again; it keeps a freed heap
# top of up to twice the largest block it has unmapped, which two separate
# blocks of m doubles would exceed.
# ---------------------------------------------------------------------------

# largest t with exp(t) a finite float64, ~709.78
_MAX_EXP_ARG = math.log(sys.float_info.max)


def _horizon_draws(rng: np.random.Generator, m: int, n: int, rows: int = 1) -> np.ndarray:
    """rows arrays of m doubles, the rows of one allocation: the first holds
    the jump times Z = n v below the horizon, in the array of the uniforms
    v, and the others are left for the caller."""
    block = np.empty((rows, m))
    rng.random(out=block[0])
    block[0] *= n
    return block


def _exponent(params: ExtremalParams, r: float | None) -> float:
    if r is None:
        return params.p
    if not (0.0 < r < 1.0):
        raise ValueError("exponent r must lie in (0,1)")
    return r


def _moments(params: ExtremalParams, r: float, step: float = 0.0) -> tuple[float, float]:
    """(E[(sup X)^r] of the full pair, e^-n (p expm1(n/p))^r), the x moment
    and the compensator's mass beyond the horizon, the latter as
    exp(r log(p (1 - e^(-n/p))) + a n), a = r/p - 1. Raises ValueError where
    either is no float64, or where CHUNK squared weighted g values, which
    the estimator sums, could exceed DBL_MAX. Those values are at most
    (n + 1) (p (1 - e^(-n/p)))^r e^(max(a, 0) n + step), where step is how
    far past z a kernel runs g: the grid step for the discrete kernel."""
    from .montecarlo import CHUNK  # montecarlo imports this module

    p, n = params.p, params.n
    a = r / p - 1.0
    level = r * math.log(-p * math.expm1(-n / p))
    log_largest = math.log(n + 1) + level + max(a, 0.0) * n + step
    try:
        supx = n / (1.0 - r) if a == 0.0 else math.expm1(a * n) / (a * (1.0 - r))
        beyond = math.exp(level + a * n)
    except OverflowError:
        supx = beyond = math.inf
    if not (math.isfinite(supx) and math.isfinite(beyond)
            and 2.0 * log_largest + math.log(CHUNK) <= _MAX_EXP_ARG):
        raise ValueError(f"the moments of order r = {r} of the extremal pair at p = {p}, "
                         f"n = {n} exceed DBL_MAX, or the squares their estimate sums do; "
                         "they grow as e^((r/p - 1) n)")
    return supx, beyond


def _weighted_sup_g_pow(p: float, r: float, n: int, beyond: float, t_eff: np.ndarray,
                        shift: np.ndarray | None = None) -> np.ndarray:
    """n e^-z (p expm1(t_eff/p))^r + beyond, computed in place in t_eff, for
    a compensator run up to t_eff >= z; beyond is the mass beyond the
    horizon. With L(t) = r log(p (1 - e^(-t/p))) the first term is
    exp(L(t_eff) + log n + shift), where shift holds (r/p) t_eff - z when it
    is not zero. At r = p it is bounded, so no p in (0, 1) overflows, and
    t_eff = 0 gives exactly 0."""
    t_eff *= -1.0 / p
    np.expm1(t_eff, out=t_eff)
    t_eff *= -p
    with np.errstate(divide="ignore"):
        np.log(t_eff, out=t_eff)
    t_eff *= r
    t_eff += math.log(n)
    if shift is not None:
        t_eff += shift
    np.exp(t_eff, out=t_eff)
    t_eff += beyond
    return t_eff


def _check_level(level_N: int) -> None:
    if level_N < 0:
        raise ValueError("level_N must be non-negative")


def sharpness_sup_sampler(params: ExtremalParams, r: float | None = None):
    """Paired sampler (rng, m) -> (E[(sup X)^r], importance-weighted
    (sup G)^r) for the full extremal family, Brownian tail by exact law; r
    defaults to p. The x side is its exact moment, a float; only the mean of
    the g side is the moment. Raises ValueError where the moments are no
    float64."""
    p, n = params.p, params.n
    r = _exponent(params, r)
    supx, beyond = _moments(params, r)

    def sampler(rng: np.random.Generator, m: int):
        (z,) = _horizon_draws(rng, m, n)
        # (r/p - 1) z, the log of what the weight leaves of e^(rz/p)
        growth = None if r == p else (r / p - 1.0) * z
        return supx, _weighted_sup_g_pow(p, r, n, beyond, z, shift=growth)

    return sampler


def monotone_sup_sampler(params: ExtremalParams):
    """Paired sampler of (E[(sup X)^p], importance-weighted (sup G)^p) for
    the monotone pair (no Brownian tail): the x side is its exact moment n,
    the g side the full pair's; only the mean of the g side is the moment."""
    full = sharpness_sup_sampler(params)

    def sampler(rng: np.random.Generator, m: int):
        return float(params.n), full(rng, m)[1]

    return sampler


def discrete_sup_sampler(params: ExtremalParams, level_N: int, r: float | None = None):
    """Paired sampler of (E[(sup X)^r], importance-weighted (sup G)^r) for
    the dyadic discretization, r defaulting to p; same draws and weights as
    the continuous sampler, so discretization effects isolate cleanly. The
    x side does not see the grid and is the continuous pair's exact moment;
    only the mean of the g side is the moment."""
    _check_level(level_N)
    p, n = params.p, params.n
    r = _exponent(params, r)
    h = 2.0 ** (-level_N)
    supx, beyond = _moments(params, r, step=h)

    def sampler(rng: np.random.Generator, m: int):
        z, cap = _horizon_draws(rng, m, n, rows=2)
        # g keeps accruing through the grid step that contains z, which ends
        # at n at the latest; z's array takes the shift (r/p) cap - z
        np.divide(z, h, out=cap)
        np.ceil(cap, out=cap)
        cap *= h
        np.subtract(cap, z, out=z)
        if r != p:
            z += (r / p - 1.0) * cap
        return supx, _weighted_sup_g_pow(p, r, n, beyond, cap, shift=z)

    return sampler


def grid_last(params: ExtremalParams, level_N: int) -> int:
    """n 2^N, the last index of the path grid of step 2^-N. Raises
    ValueError at a negative N, and at n/p beyond ln(DBL_MAX): a path row
    holds exp(Z/p) and p expm1(t/p) up to t = n, which are not float64
    there."""
    _check_level(level_N)
    if params.n / params.p > _MAX_EXP_ARG:
        raise ValueError(
            f"path values exp(n/p) overflow at n/p = {params.n / params.p:.6g} > "
            f"ln(DBL_MAX) = {_MAX_EXP_ARG:.2f}; lower n or raise p")
    return params.n * 2**level_N


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
        k = rule.common_index(g_row)
        x, g = block[2 * i], block[2 * i + 1]
        if k is None or k == last:  # every path reads (jump, g_end)
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
    g_row = p * np.expm1(t / p) / g_divisor
    return _stopped_jumps(rules, t, z, g_row, block)


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
    levels = np.concatenate([[0.0], np.cumsum(_step_integrals(params.p, t))])
    c = np.multiply(z, 2.0**level_N, out=block[-1])
    np.ceil(c, out=c)
    np.minimum(c, last, out=c)
    index = block[-2].view(np.intp)  # the jump's row, before it holds the jump
    np.copyto(index, c, casting="unsafe")
    np.take(levels, index, out=block[-1], mode="clip")
    _jump_heights(params, z, out=block[-2])
    return _stopped_jumps(rules, t, z, levels, block)
