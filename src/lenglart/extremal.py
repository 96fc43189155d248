"""Samplers for the extremal process families.

The basic object is the exponential pair: a single jump of height
A(Z) = exp(Z/p) at an Exp(1) time Z, compensated by the running integral
p expm1(t/p) of A up to Z. Appending an independent Brownian excursion
after the horizon multiplies the supremum moment by 1/(1-p); the supremum
of that excursion started at level x has the exact Pareto tail
P[sup >= y] = x/y, so it is sampled as x/U rather than by path simulation.
Path simulation (sample_y_path_batch) exists only to validate that law.

The vectorized sup samplers that feed the moment estimates draw Z from a
defensive mixture rather than from Exp(1) and return importance-weighted
values: a single value is not a draw of (sup X)^r or (sup G)^r, only the
mean of each side is the moment. The exponent r defaults to the family's p.
They work in log space and are finite at every 0 < p < 1.

The path batches (exp_pair_path_batch, discrete_path_batch) are the one
path representation: (size, n_points) arrays of x and g, one row per
realization, with Z ~ Exp(1) and no weights. They hold exp(Z/p) itself, so
they refuse horizons with n/p beyond ln(DBL_MAX), where it is not a
float64.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "ExtremalParams",
    "sample_y_path_batch",
    "sharpness_sup_sampler",
    "monotone_sup_sampler",
    "discrete_sup_sampler",
    "exp_pair_path_batch",
    "discrete_path_batch",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * step, k = 0 .. floor(horizon/step)."""

    step: float
    horizon: float

    def __post_init__(self) -> None:
        if not (self.step > 0):
            raise ValueError("step must be positive")
        if self.horizon < self.step:
            raise ValueError("horizon must be at least one step")

    @property
    def n_points(self) -> int:
        return int(math.floor(self.horizon / self.step + 1e-12)) + 1

    def times(self) -> np.ndarray:
        return np.arange(self.n_points) * self.step


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


def sample_y_path_batch(
    x: float,
    n_paths: int,
    rng: np.random.Generator,
    step: float = 1e-4,
    horizon: float = 100.0,
) -> np.ndarray:
    """Running maxima of Euler paths from x absorbed at 0; grid absorption,
    so the result is stochastically below the exact law."""
    if x <= 0:
        return np.zeros(n_paths)
    sups = np.full(n_paths, x)
    pos = np.full(n_paths, x)
    alive = np.arange(n_paths)
    sqrt_h = math.sqrt(step)
    block = max(1, int(round(1.0 / step)) // 10)  # ~0.1 time units per block
    n_blocks = int(math.ceil(horizon / (block * step)))
    for _ in range(n_blocks):
        if alive.size == 0:
            break
        incr = rng.standard_normal((alive.size, block)) * sqrt_h
        paths = pos[alive, None] + np.cumsum(incr, axis=1)
        hit = (paths <= 0.0).argmax(axis=1)
        was_hit = paths[np.arange(alive.size), hit] <= 0.0
        # maxima only count up to (and excluding) the absorption step
        capped = np.where(
            np.arange(block)[None, :] <= np.where(was_hit, hit, block)[:, None],
            paths,
            -np.inf,
        )
        np.maximum.at(sups, alive, capped.max(axis=1))
        pos[alive] = paths[:, -1]
        alive = alive[~was_hit]
    return sups


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
# it in again.
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


def _mixture_draws(rng: np.random.Generator, m: int, n: int):
    """(t, head) for Z drawn from q, with t = min(Z, n) in the array of the
    uniforms v. head marks the U(0, n) component, on which Z = 2n v. Beyond n
    every statistic depends on Z only through t = n, so Z is not inverted
    there. A sampler that needs the uniform behind the Brownian tail draws it
    next, as in the Exp(1) layout."""
    t = rng.random(m)
    head = t < 0.5
    t *= 2.0 * n
    np.minimum(t, n, out=t)
    return t, head


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


def sharpness_sup_sampler(params: ExtremalParams, r: float | None = None):
    """Paired sampler (rng, m) -> importance-weighted ((sup X)^r, (sup G)^r)
    for the full extremal family, tail by exact law, common z draws for both
    sides; r defaults to p. Only the mean of each side is the moment."""
    p, n = params.p, params.n
    r = _exponent(params, r)

    def sampler(rng: np.random.Generator, m: int):
        t, head = _mixture_draws(rng, m, n)
        growth = _excess_growth(p, r, t)
        supx = _weighted_sup_x_pow(n, r, head, growth, rng.random(m))
        return supx, _weighted_sup_g_pow(p, r, n, t, head, shift=growth)

    return sampler


def monotone_sup_sampler(params: ExtremalParams):
    """Paired importance-weighted sampler of ((sup X)^p, (sup G)^p) for the
    monotone pair (no Brownian tail); only the mean of each side is the
    moment. It draws only v: the uniforms behind the tail would come after
    v and go unused."""
    p, n = params.p, params.n

    def sampler(rng: np.random.Generator, m: int):
        t, head = _mixture_draws(rng, m, n)
        # w(z) A(z)^p = 2n e^-z exp(z)
        supx_p = head * (2.0 * n)
        return supx_p, _weighted_sup_g_pow(p, p, n, t, head)

    return sampler


def discrete_sup_sampler(params: ExtremalParams, level_N: int, r: float | None = None):
    """Paired importance-weighted sampler of ((sup X)^r, (sup G)^r) for the
    dyadic discretization, r defaulting to p; same draws and weights as the
    continuous sampler so discretization effects isolate cleanly. Only the
    mean of each side is the moment."""
    p, n = params.p, params.n
    r = _exponent(params, r)
    h = 2.0 ** (-level_N)

    def sampler(rng: np.random.Generator, m: int):
        t, head = _mixture_draws(rng, m, n)
        supx = _weighted_sup_x_pow(n, r, head, _excess_growth(p, r, t), rng.random(m))
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


def exp_pair_path_batch(
    params: ExtremalParams,
    grid: TimeGrid,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of exponential-pair paths (size x n_points arrays): x jumps to
    exp(z/p) at the first grid point >= z if z <= n, g = p expm1(min(t, z)/p)."""
    if abs(grid.horizon - params.n) > 1e-12:
        raise ValueError("grid horizon must equal the params horizon n")
    _check_path_range(params)
    p = params.p
    z = -np.log(rng.random(size))[:, None]
    t = grid.times()[None, :]
    jump = np.where(z <= params.n, np.exp(np.minimum(z, params.n) / p), 0.0)
    x = np.where(t >= z, jump, 0.0)
    g = p * np.expm1(np.minimum(t, z) / p)
    return x, g


def discrete_path_batch(
    params: ExtremalParams,
    level_N: int,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of dyadic discrete pairs (size x (n 2^N + 1) arrays) at step
    h = 2^-N.

    x is the continuous path sampled on the grid. g accrues, one step ahead,
    the full growth integral of the coming step for as long as the jump has
    not yet happened: the increment over ((k-1)h, kh] is gated on z > (k-1)h,
    which is measurable one step ahead, keeps g non-decreasing and keeps
    g_k >= g(continuous at kh), so the discrete pair still satisfies the
    domination hypothesis.
    """
    if level_N < 0:
        raise ValueError("level_N must be non-negative")
    _check_path_range(params)
    p, n = params.p, params.n
    h = 2.0 ** (-level_N)
    k_count = n * 2**level_N
    z = -np.log(rng.random(size))[:, None]
    t = np.arange(k_count + 1) * h
    jump = np.where(z <= n, np.exp(np.minimum(z, n) / p), 0.0)
    x = np.where(t[None, :] >= z, jump, 0.0)
    gated = z > t[None, :-1]
    step_integrals = p * (np.exp(t[1:] / p) - np.exp(t[:-1] / p))
    increments = np.where(gated, step_integrals[None, :], 0.0)
    g = np.concatenate([np.zeros((size, 1)), np.cumsum(increments, axis=1)], axis=1)
    return x, g
