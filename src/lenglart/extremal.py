"""Samplers for the extremal process families.

The basic object is the exponential pair: a single jump of height
A(Z) = exp(Z/p) at an Exp(1) time Z, compensated by the running integral
p expm1(t/p) of A up to Z. Appending an independent Brownian excursion
after the horizon multiplies the supremum moment by 1/(1-p); the supremum
of that excursion started at level x has the exact Pareto tail
P[sup >= y] = x/y, so it is sampled as x/U rather than by path simulation.

The vectorized sup samplers that feed the moment estimates draw Z uniformly
below the horizon n rather than from Exp(1), add the mass beyond n exactly,
and return importance-weighted values: a single value is not a draw of
(sup X)^r or (sup G)^r, only the mean of each side is the moment. The
exponent r defaults to the family's p. They work in log space and are
finite at every 0 < p < 1.

The path batches (exp_pair_path_batch, discrete_path_batch) are the one
path representation: (size, n 2^N + 1) arrays of x and g on the dyadic grid
of step 2^-N, one row per realization, with Z ~ Exp(1) and no weights. The
two pairs share the jump path x and differ only in g. They hold exp(Z/p)
itself, so they refuse horizons with n/p beyond ln(DBL_MAX), where it is not
a float64.

A single-jump path is a closed form of its jump time, and so is its value
at a stopping rule (FixedIndexRule, HittingRule). exp_pair_stopped and
discrete_stopped draw the same Z as the batches and return the stopped
(x, g) values directly: a fixed index k reads (exp(Z/p) 1[t_k >= Z], g at
t_k), a hitting rule on x stops at the first grid point at or after Z, and
a hitting rule on g is a binary search on the grid row of g. The values
equal those of stopping the batches element for element, at a cost of
O(size) per rule and O(size log(n 2^N)) per draw instead of O(size n 2^N).
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
# Beyond the horizon no jump happens and G runs to n, so f(Z) is a known
# constant on Z > n and E[f(Z)] = int_0^n e^-z f(z) dz + e^-n f(n). The
# samplers draw Z = n v, v uniform on [0, 1), weight each value by n e^-z,
# and add the mass beyond the horizon exactly: 0 on the jump side,
# e^-n (p expm1(n/p))^r on the compensator side. Plain Exp(1) draws would
# leave both sides with Pareto(1) tails; here every weighted value is
# bounded, and the weighted monotone numerator is its own mean n. The
# Brownian-tail factor U^-p has tail index 1/p, which biases the median of
# means low once the intervals are tight; U is drawn from a defensive
# mixture (Hesterberg, Technometrics 37, 1995; Owen & Zhou, JASA 95, 2000),
# so that the weighted factor is bounded too.
#
# A sampler returns the r-th powers of the sups, for an exponent r in (0, 1)
# that defaults to the family's p. The weight e^-z cancels the e^(rz/p)
# inside (p expm1(z/p))^r up to e^((r/p - 1) z), so every weighted value has
# a closed form with no exp(z/p) in it: n e^-z (sup G)^r =
# n (p (1 - e^(-z/p)))^r e^((r/p - 1) z), at r = p the integrand of
# oracles.gtilde_sup_moment, and n e^-z (sup X)^r = n e^((r/p - 1) z)
# 2/(U^r + 1 - r). At r = p the exponential is 1 and is not evaluated, and
# neither side can overflow at any p in (0, 1); at r != p it grows with n as
# the moment itself does, to inf where the moment is no float64. Each kernel
# evaluates its closed form in place, in the arrays that the bit generator
# filled: at r = p a chunk allocates no full-size temporary (the discrete
# kernel one, for its caps), because glibc returns a freed heap top to the
# operating system and every chunk would page-fault it in again. For the
# same reason a chunk's two full-size arrays are the halves of one
# allocation (`_horizon_draws`): glibc keeps a freed heap top of up to twice
# the largest block it has unmapped, and two separate blocks of m doubles
# leave more than twice one of them free when the chunk ends.
# ---------------------------------------------------------------------------

# elements per block of the tail factor's exponents (64 KB)
_BLOCK = 1 << 13

# largest t with exp(t) a finite float64, ~709.78
_MAX_EXP_ARG = math.log(sys.float_info.max)


def _horizon_draws(rng: np.random.Generator, m: int, n: int, tail: bool):
    """(z, rest): the jump times Z = n v below the horizon, in the array of
    the uniforms v, and rest, the two halves of one array of 2m doubles.
    With tail, rest holds the uniforms behind the Brownian tail, drawn next;
    without, it is left for the caller to fill."""
    both = np.empty(2 * m)
    z, rest = both[:m], both[m:]
    rng.random(out=both if tail else z)
    z *= n
    return z, rest


def _exponent(params: ExtremalParams, r: float | None) -> float:
    if r is None:
        return params.p
    if not (0.0 < r < 1.0):
        raise ValueError("exponent r must lie in (0,1)")
    return r


def _excess_growth(p: float, r: float, z: np.ndarray) -> np.ndarray | None:
    """(r/p - 1) z, the log of what the weight leaves of e^(rz/p); None at
    r = p, where it is 0."""
    return None if r == p else (r / p - 1.0) * z


def _weighted_sup_x_pow(n: int, r: float, growth: np.ndarray | None,
                        u: np.ndarray) -> np.ndarray:
    """n e^-z (A(Z)/U)^r = n e^growth 2/(U^r + 1 - r), computed in place in
    u, with U drawn from the defensive mixture 1/2 U(0, 1) + 1/2 Beta(1-r, 1),
    whose second component has density (1-r) x^-r. u below or above 1/2
    picks the component and s = 2u mod 1 the draw: U = s, or U = s^(1/(1-r)),
    so U^r = exp(e log s) with e = r or r/(1-r). The weighted tail factor
    U^-r / (1/2 + 1/2 (1-r) U^-r) = 2 / (U^r + 1 - r) lies in
    (2/(2-r), 2/(1-r)], and its mean is E[U^-r] = 1/(1-r) for uniform U.
    The exponents e are formed one small block at a time: a full array of
    them would be a fresh temporary on every chunk, and a where= ufunc
    branches on every element."""
    second = u >= 0.5
    u *= 2.0
    u -= second
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    scratch = np.empty(min(u.size, _BLOCK))
    for i in range(0, u.size, _BLOCK):
        block = u[i : i + _BLOCK]
        e = scratch[: block.size]
        np.multiply(second[i : i + _BLOCK], r / (1.0 - r) - r, out=e)
        e += r
        block *= e
    np.exp(u, out=u)
    u += 1.0 - r
    np.divide(2.0 * n, u, out=u)
    if growth is not None:
        u *= np.exp(growth)
    return u


def _weighted_sup_g_pow(p: float, r: float, n: int, t_eff: np.ndarray,
                        shift: np.ndarray | None = None) -> np.ndarray:
    """n e^-z (p expm1(t_eff/p))^r + e^-n (p expm1(n/p))^r, computed in place
    in t_eff, for a compensator run up to t_eff >= z; the second term is the
    mass beyond the horizon. With L(t) = r log(p (1 - e^(-t/p))) the terms
    are exp(L(t_eff) + log n + shift) and exp(L(n) + (r/p - 1) n), where
    shift holds (r/p) t_eff - z when it is not zero. At r = p every term is
    bounded, so no p in (0, 1) overflows; t_eff = 0 gives exactly 0 to the
    first term, and the second is inf where it is no float64."""
    beyond = r * math.log(-p * math.expm1(-n / p)) + (r / p - 1.0) * n
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
    t_eff += math.exp(beyond) if beyond <= _MAX_EXP_ARG else math.inf
    return t_eff


def _check_level(level_N: int) -> None:
    if level_N < 0:
        raise ValueError("level_N must be non-negative")


def sharpness_sup_sampler(params: ExtremalParams, r: float | None = None):
    """Paired sampler (rng, m) -> importance-weighted ((sup X)^r, (sup G)^r)
    for the full extremal family, tail by exact law, common z draws for both
    sides; r defaults to p. Only the mean of each side is the moment."""
    p, n = params.p, params.n
    r = _exponent(params, r)

    def sampler(rng: np.random.Generator, m: int):
        z, u = _horizon_draws(rng, m, n, tail=True)
        growth = _excess_growth(p, r, z)
        supx = _weighted_sup_x_pow(n, r, growth, u)
        return supx, _weighted_sup_g_pow(p, r, n, z, shift=growth)

    return sampler


def monotone_sup_sampler(params: ExtremalParams):
    """Paired importance-weighted sampler of ((sup X)^p, (sup G)^p) for the
    monotone pair (no Brownian tail); only the mean of each side is the
    moment, and the numerator is the constant n, its mean. It draws only v:
    the uniforms behind the tail would come after v and go unused."""
    p, n = params.p, params.n

    def sampler(rng: np.random.Generator, m: int):
        z, supx_p = _horizon_draws(rng, m, n, tail=False)
        # n e^-z A(z)^p = n e^-z e^z below the horizon; no jump beyond it
        supx_p.fill(n)
        return supx_p, _weighted_sup_g_pow(p, p, n, z)

    return sampler


def discrete_sup_sampler(params: ExtremalParams, level_N: int, r: float | None = None):
    """Paired importance-weighted sampler of ((sup X)^r, (sup G)^r) for the
    dyadic discretization, r defaulting to p; same draws and weights as the
    continuous sampler so discretization effects isolate cleanly. Only the
    mean of each side is the moment."""
    _check_level(level_N)
    p, n = params.p, params.n
    r = _exponent(params, r)
    h = 2.0 ** (-level_N)

    def sampler(rng: np.random.Generator, m: int):
        z, u = _horizon_draws(rng, m, n, tail=True)
        supx = _weighted_sup_x_pow(n, r, _excess_growth(p, r, z), u)
        # g keeps accruing through the grid step that contains z, which ends
        # at n at the latest; the cap is the one array this kernel adds, and
        # z's array takes the shift (r/p) cap - z
        cap = z / h
        np.ceil(cap, out=cap)
        cap *= h
        np.subtract(cap, z, out=z)
        if r != p:
            z += (r / p - 1.0) * cap
        return supx, _weighted_sup_g_pow(p, r, n, cap, shift=z)

    return sampler


def _check_path_range(params: ExtremalParams) -> None:
    """Refuse n/p beyond ln(DBL_MAX): a path row holds exp(Z/p) and
    p expm1(t/p) up to t = n, which are not float64 there."""
    if params.n / params.p > _MAX_EXP_ARG:
        raise ValueError(
            f"path values exp(n/p) overflow at n/p = {params.n / params.p:.6g} > "
            f"ln(DBL_MAX) = {_MAX_EXP_ARG:.2f}; lower n or raise p")


def _jump_times(params: ExtremalParams, level_N: int, rng: np.random.Generator,
                size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, t, jump) for a batch on the dyadic grid t_k = k 2^-N, k = 0 .. n 2^N:
    the Exp(1) jump times z, the grid t, and the jump heights exp(z/p), 0 for
    z > n."""
    _check_level(level_N)
    _check_path_range(params)
    p, n = params.p, params.n
    z = -np.log(rng.random(size))
    t = np.arange(n * 2**level_N + 1) * 2.0 ** (-level_N)
    jump = np.where(z <= n, np.exp(np.minimum(z, n) / p), 0.0)
    return z, t, jump


def _jump_paths(params: ExtremalParams, level_N: int, rng: np.random.Generator,
                size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, t, x) for a batch on the dyadic grid: the jump times z as a
    (size, 1) column, and the jump paths x, which jump to exp(z/p) at the
    first grid point >= z if z <= n."""
    z, t, jump = _jump_times(params, level_N, rng, size)
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


def _stopped_jumps(rules, t: np.ndarray, z: np.ndarray, jump: np.ndarray,
                   g_row: np.ndarray, g_at) -> list:
    """(x_tau, g_tau) per rule for the single-jump paths x_k = jump 1[t_k >= z]
    and a g that equals the non-decreasing g_row up to some index and stays
    constant, at most g_row, from there; g_at(k) is g at the index (array) k.
    Equal, element for element, to stopping the dense paths."""
    last = t.size - 1
    j = np.searchsorted(t, z)  # the first grid index with t_j >= z
    values = []
    for rule in rules:
        if isinstance(rule, FixedIndexRule):
            tau = rule.index(last)
        elif rule.side == "x":
            # x is 0 before j and the jump from j on
            tau = 0 if rule.level <= 0 else np.where(jump >= rule.level, j, last)
        else:
            # g <= g_row, so g cannot hit before the first index k where
            # g_row does; if g misses there it is already constant
            k = np.minimum(np.searchsorted(g_row, rule.level), last)
            tau = np.where(g_at(k) >= rule.level, k, last)
        values.append((np.where(tau >= j, jump, 0.0), g_at(tau)))
    return values


def exp_pair_path_batch(
    params: ExtremalParams,
    level_N: int,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of exponential pairs (size x (n 2^N + 1) arrays) at step
    h = 2^-N: the jump paths x and g = p expm1(min(t, z)/p)."""
    z, t, x = _jump_paths(params, level_N, rng, size)
    p = params.p
    return x, p * np.expm1(np.minimum(t, z) / p)


def discrete_path_batch(
    params: ExtremalParams,
    level_N: int,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of dyadic discrete pairs (size x (n 2^N + 1) arrays) at step
    h = 2^-N.

    x is the continuous path sampled on the grid, the same as in
    exp_pair_path_batch. g accrues, one step ahead, the full growth integral
    of the coming step for as long as the jump has not yet happened: the
    increment over ((k-1)h, kh] is gated on z > (k-1)h, which is measurable
    one step ahead, keeps g non-decreasing and keeps
    g_k >= g(continuous at kh), so the discrete pair still satisfies the
    domination hypothesis.
    """
    z, t, x = _jump_paths(params, level_N, rng, size)
    increments = np.where(z > t[:-1], _step_integrals(params.p, t), 0.0)
    g = np.concatenate([np.zeros((size, 1)), np.cumsum(increments, axis=1)], axis=1)
    return x, g


def exp_pair_stopped(
    params: ExtremalParams,
    level_N: int,
    rules,
    rng: np.random.Generator,
    size: int,
    g_divisor: float = 1.0,
) -> list:
    """(x_tau, g_tau) per rule (FixedIndexRule or HittingRule) on the
    exponential pairs that exp_pair_path_batch(params, level_N, rng, size)
    would build, from the same draws and without building them; g is
    divided by g_divisor before stopping."""
    z, t, jump = _jump_times(params, level_N, rng, size)
    p = params.p
    g_row = p * np.expm1(t / p) / g_divisor
    return _stopped_jumps(rules, t, z, jump, g_row,
                          lambda k: p * np.expm1(np.minimum(t[k], z) / p) / g_divisor)


def discrete_stopped(
    params: ExtremalParams,
    level_N: int,
    rules,
    rng: np.random.Generator,
    size: int,
    g_divisor: float = 1.0,
) -> list:
    """(x_tau, g_tau) per rule on the dyadic discrete pairs that
    discrete_path_batch would build, as exp_pair_stopped. g_k is
    levels[min(k, c)], the partial sums of the step integrals up to the
    count c of grid points t_0 .. t_(last-1) below z."""
    z, t, jump = _jump_times(params, level_N, rng, size)
    levels = np.concatenate([[0.0], np.cumsum(_step_integrals(params.p, t))]) / g_divisor
    c = np.searchsorted(t[:-1], z)
    return _stopped_jumps(rules, t, z, jump, levels, lambda k: levels[np.minimum(k, c)])
