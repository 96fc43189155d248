"""Samplers for the extremal process families.

The basic object is the exponential pair: a single jump of height
A(Z) = exp(Z/p) at an Exp(1) time Z, compensated by the running integral
p expm1(t/p) of A up to Z. Appending an independent Brownian excursion
after the horizon multiplies the supremum moment by 1/(1-p); the supremum
of that excursion started at level x has the exact Pareto tail
P[sup >= y] = x/y, so it is sampled as x/U rather than by path simulation.

The vectorized sup samplers that feed the moment estimates draw Z from a
defensive mixture rather than from Exp(1) and return importance-weighted
values: a single value is not a draw of (sup X)^r or (sup G)^r, only the
mean of each side is the moment. The exponent r defaults to the family's p.
They work in log space and are finite at every 0 < p < 1.

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
# Z is drawn from the defensive mixture q = 1/2 U(0, n) + 1/2 (n + Exp(1))
# instead of its own law Exp(1), and every value is multiplied by the
# likelihood ratio w(z) = e^-z / q(z): 2n e^-z below n, 2 e^-n beyond it.
# Under Exp(1) both sides have Pareto(1) tails (e^Z and ~p^p e^min(Z,n)),
# so plain draws never see Z beyond ~ln N; under q the weighted monotone
# numerator is the constant 2n on the first component and all weights are
# bounded (Hesterberg, Technometrics 37, 1995; Owen & Zhou, JASA 95, 2000).
# The Brownian-tail factor U^-p has tail index 1/p, which biases the median
# of means low once the intervals are tight; U is drawn from a defensive
# mixture of the same kind, so that the weighted factor is bounded too.
#
# A sampler returns the r-th powers of the sups, for an exponent r in (0, 1)
# that defaults to the family's p. The weight e^-t cancels the e^(rt/p)
# inside (p expm1(t/p))^r up to e^((r/p - 1) t), so every weighted value has
# a closed form with no exp(t/p) in it: w (sup G)^r =
# 2 n^head (p (1 - e^(-t/p)))^r e^((r/p - 1) t), at r = p the integrand of
# oracles.gtilde_sup_moment, and w (sup X)^r = 2n head e^((r/p - 1) t)
# 2/(U^r + 1 - r). At r = p the exponential is 1 and is not evaluated, and
# neither side can overflow at any p in (0, 1); at r != p it grows with n as
# the moment itself does. Each kernel evaluates its closed form in place, in
# the arrays that Philox filled: at r = p a chunk allocates no full-size
# temporary (the discrete kernel one, for its caps), because glibc returns
# a freed heap top to the operating system and every chunk would page-fault
# it in again. For the same reason a chunk's two full-size arrays are the
# halves of one allocation (`_mixture_draws`): glibc keeps a freed heap top
# of up to twice the largest block it has unmapped, and two separate blocks
# of m doubles leave more than twice one of them free when the chunk ends.
# ---------------------------------------------------------------------------

# elements per block of _combine_with_mask's scratch (64 KB)
_BLOCK = 1 << 13


def _combine_with_mask(op, values: np.ndarray, mask: np.ndarray, off: float,
                       on: float) -> None:
    """values = op(values, on where mask else off), in place. The two-valued
    operand off + (on - off) mask is built one small block at a time: a full
    array of it would be a fresh temporary on every chunk, and a where= ufunc
    branches on every element."""
    scratch = np.empty(min(values.size, _BLOCK))
    for i in range(0, values.size, _BLOCK):
        block = values[i : i + _BLOCK]
        operand = scratch[: block.size]
        np.multiply(mask[i : i + _BLOCK], on - off, out=operand)
        operand += off
        op(block, operand, out=block)


def _mixture_draws(rng: np.random.Generator, m: int, n: int, tail: bool):
    """(t, head, rest) for Z drawn from q, with t = min(Z, n) in the array of
    the uniforms v. head marks the U(0, n) component, on which Z = 2n v.
    Beyond n every statistic depends on Z only through t = n, so Z is not
    inverted there. t and rest are the two halves of one array of 2m
    doubles. With tail, rest holds the uniforms behind the Brownian tail,
    drawn next as in the Exp(1) layout; without, it is left for the caller
    to fill."""
    both = np.empty(2 * m)
    t, rest = both[:m], both[m:]
    rng.random(out=both if tail else t)
    head = t < 0.5
    t *= 2.0 * n
    np.minimum(t, n, out=t)
    return t, head, rest


def _weighted_tail_factor(r: float, u: np.ndarray) -> np.ndarray:
    """U^-r importance-weighted, computed in place in u, with U drawn from the
    defensive mixture 1/2 U(0, 1) + 1/2 Beta(1-r, 1), whose second component
    has density (1-r) x^-r. u below or above 1/2 picks the component and
    s = 2u mod 1 the draw: U = s, or U = s^(1/(1-r)), so U^r = exp(e log s)
    with e = r or r/(1-r). The weighted value
    U^-r / (1/2 + 1/2 (1-r) U^-r) = 2 / (U^r + 1 - r) lies in
    (2/(2-r), 2/(1-r)], and its mean is E[U^-r] = 1/(1-r) for uniform U."""
    second = u >= 0.5
    u *= 2.0
    u -= second
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    _combine_with_mask(np.multiply, u, second, r, r / (1.0 - r))
    np.exp(u, out=u)
    u += 1.0 - r
    np.divide(2.0, u, out=u)
    return u


def _exponent(params: ExtremalParams, r: float | None) -> float:
    if r is None:
        return params.p
    if not (0.0 < r < 1.0):
        raise ValueError("exponent r must lie in (0,1)")
    return r


def _excess_growth(p: float, r: float, t: np.ndarray) -> np.ndarray | None:
    """(r/p - 1) t, the log of what the weight leaves of e^(rt/p); None at
    r = p, where it is 0."""
    return None if r == p else (r / p - 1.0) * t


def _weighted_sup_x_pow(n: int, r: float, head: np.ndarray,
                        growth: np.ndarray | None, u: np.ndarray) -> np.ndarray:
    """w(Z) (A(Z)/U)^r = 2n head e^growth 2/(U^r + 1 - r), computed in place
    in u: the jump happened iff Z came from the U(0, n) component."""
    supx = _weighted_tail_factor(r, u)
    supx *= 2.0 * n
    supx *= head
    if growth is not None:
        supx *= np.exp(growth)
    return supx


def _weighted_sup_g_pow(p: float, r: float, n: int, t_eff: np.ndarray,
                        head: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """w(Z) (p expm1(t_eff/p))^r, computed in place in t_eff, for t = min(Z, n)
    and a compensator run up to t_eff >= t. It is the exp of
    r log(p (1 - e^(-t_eff/p))) + log 2 + log n head + ((r/p) t_eff - t),
    where shift holds (r/p) t_eff - t when it is not zero; at r = p every
    term is bounded, so no p in (0, 1) overflows, and t_eff = 0 gives
    exactly 0."""
    np.divide(t_eff, -p, out=t_eff)
    np.expm1(t_eff, out=t_eff)
    t_eff *= -p
    with np.errstate(divide="ignore"):
        np.log(t_eff, out=t_eff)
    t_eff *= r
    t_eff += math.log(2.0)
    _combine_with_mask(np.add, t_eff, head, 0.0, math.log(n))
    if shift is not None:
        t_eff += shift
    np.exp(t_eff, out=t_eff)
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
        t, head, u = _mixture_draws(rng, m, n, tail=True)
        growth = _excess_growth(p, r, t)
        supx = _weighted_sup_x_pow(n, r, head, growth, u)
        return supx, _weighted_sup_g_pow(p, r, n, t, head, shift=growth)

    return sampler


def monotone_sup_sampler(params: ExtremalParams):
    """Paired importance-weighted sampler of ((sup X)^p, (sup G)^p) for the
    monotone pair (no Brownian tail); only the mean of each side is the
    moment. It draws only v: the uniforms behind the tail would come after
    v and go unused."""
    p, n = params.p, params.n

    def sampler(rng: np.random.Generator, m: int):
        t, head, supx_p = _mixture_draws(rng, m, n, tail=False)
        # w(z) A(z)^p = 2n e^-z exp(z)
        np.multiply(head, 2.0 * n, out=supx_p)
        return supx_p, _weighted_sup_g_pow(p, p, n, t, head)

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
        t, head, u = _mixture_draws(rng, m, n, tail=True)
        supx = _weighted_sup_x_pow(n, r, head, _excess_growth(p, r, t), u)
        # g keeps accruing through the grid step that contains z; the cap is
        # the one array this kernel adds, and t's array takes the shift
        # (r/p) cap - t
        cap = t / h
        np.ceil(cap, out=cap)
        cap *= h
        np.minimum(cap, n, out=cap)
        np.subtract(cap, t, out=t)
        if r != p:
            t += (r / p - 1.0) * cap
        return supx, _weighted_sup_g_pow(p, r, n, cap, head, shift=t)

    return sampler


# largest t with exp(t) a finite float64, ~709.78
_MAX_EXP_ARG = math.log(sys.float_info.max)


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
