"""Samplers for the extremal process families.

The basic object is the exponential pair: a single jump of height
A(Z) = exp(Z/p) at an Exp(1) time Z, compensated by the running integral of
A. Appending an independent Brownian excursion after the horizon multiplies
the supremum moment by 1/(1-p); the supremum of that excursion started at
level x has the exact Pareto tail P[sup >= y] = x/y, so it is sampled as
x/U rather than by path simulation. Path simulation exists only to validate
that law.

The vectorized sup samplers that feed the moment estimates draw Z from a
defensive mixture rather than from Exp(1) and return importance-weighted
values: a single value is not a draw of (sup X)^p or (sup G)^p, only the
mean of each side is the moment. The path-level samplers draw Z ~ Exp(1)
and are unweighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_paths import PathPair, StoppingIndex, TimeGrid

__all__ = [
    "EXACT_LAW",
    "PATH_SIM",
    "ExtremalParams",
    "ExtremalRealization",
    "DiscretePair",
    "ramp",
    "sample_exp_pair",
    "sample_y",
    "sample_y_batch",
    "sample_y_path_batch",
    "sample_full_extremal",
    "hat_x",
    "discretize_pair",
    "sharpness_sup_sampler",
    "monotone_sup_sampler",
    "discrete_sup_sampler",
    "exp_pair_path_batch",
    "discrete_path_batch",
]

EXACT_LAW = "exact_law"
PATH_SIM = "path_sim"


@dataclass(frozen=True)
class ExtremalParams:
    """p-exponent, integer horizon and seed of one extremal family member."""

    p: float
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise ValueError("p must lie in (0,1)")
        if self.n < 1:
            raise ValueError("horizon n must be a positive integer")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative 64-bit integer")


@dataclass(frozen=True)
class ExtremalRealization:
    """One draw of the full extremal pair, reduced to its sup statistics."""

    z: float
    x_tilde_n: float
    sup_g: float
    sup_x_full: float
    tail_mode: str

    def __post_init__(self) -> None:
        if self.z <= 0:
            raise ValueError("z must be positive")
        if self.sup_x_full < self.x_tilde_n:
            raise ValueError("tail supremum cannot undercut its starting level")
        if self.x_tilde_n == 0 and self.sup_x_full != 0:
            raise ValueError("no jump before the horizon means zero supremum")
        if self.tail_mode not in (EXACT_LAW, PATH_SIM):
            raise ValueError(f"unknown tail mode {self.tail_mode!r}")


def ramp(t: float, n: int) -> float:
    """Continuous non-decreasing interpolation: 0 up to n, 1 from n+1 on,
    linear in between."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if t <= n:
        return 0.0
    if t >= n + 1:
        return 1.0
    return t - n


def compensator_value(p: float, t: float) -> float:
    """int_0^t exp(s/p) ds = p (exp(t/p) - 1), the closed-form compensator."""
    return p * math.expm1(t / p)


def _rng_of(params: ExtremalParams) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=params.seed))


def sample_exp_pair(
    params: ExtremalParams,
    grid: TimeGrid,
    rng: np.random.Generator | None = None,
) -> PathPair:
    """One realization of the exponential jump process and its compensator
    on the given grid. The jump lands on the first grid point >= z."""
    if abs(grid.horizon - params.n) > 1e-12:
        raise ValueError("grid horizon must equal the params horizon n")
    k = grid.horizon / grid.step
    if abs(k - round(k)) > 1e-9:
        raise ValueError("grid step must divide the horizon")
    if rng is None:
        rng = _rng_of(params)
    z = -math.log(rng.random())
    t = grid.times()
    p = params.p
    jump = math.exp(z / p) if z <= params.n else 0.0
    x = np.where(t >= z, jump, 0.0)
    g = p * np.expm1(np.minimum(t, z) / p)
    return PathPair(x=x, g=g, grid=grid, g_predictable_shift=True)


def sample_y(
    x: float,
    p: float,
    mode: str = EXACT_LAW,
    rng: np.random.Generator | None = None,
    step: float = 1e-4,
    horizon: float = 100.0,
) -> float:
    """Supremum of a Brownian path started at x and absorbed at 0.

    exact_law draws from the Pareto tail P[Y >= y] = x/y (y >= x) as x/U.
    path_sim simulates on an Euler grid with absorption; it is validation
    only and biased low by discretization and by the finite horizon.
    """
    if x < 0:
        raise ValueError("starting level must be non-negative")
    if x == 0:
        return 0.0
    if rng is None:
        rng = np.random.default_rng()
    if mode == EXACT_LAW:
        return x / rng.random()
    if mode == PATH_SIM:
        return float(sample_y_path_batch(x, 1, rng, step=step, horizon=horizon)[0])
    raise ValueError(f"unknown mode {mode!r}")


def sample_y_batch(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized exact-law draws; zero entries stay zero."""
    u = rng.random(x.shape)
    return np.where(x > 0, x / u, 0.0)


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


def sample_full_extremal(
    params: ExtremalParams,
    rng: np.random.Generator | None = None,
    tail_mode: str = EXACT_LAW,
) -> ExtremalRealization:
    """One draw of (z, jump level, sup of compensator, overall sup)."""
    if rng is None:
        rng = _rng_of(params)
    p, n = params.p, params.n
    z = -math.log(rng.random())
    x_tilde_n = math.exp(z / p) if z <= n else 0.0
    sup_g = compensator_value(p, min(z, n))
    if x_tilde_n > 0:
        sup_x_full = sample_y(x_tilde_n, p, mode=tail_mode, rng=rng)
    else:
        sup_x_full = 0.0
    return ExtremalRealization(
        z=z,
        x_tilde_n=x_tilde_n,
        sup_g=sup_g,
        sup_x_full=sup_x_full,
        tail_mode=tail_mode,
    )


def hat_x(pair: PathPair, tau: StoppingIndex) -> PathPair:
    """Freeze the pair at a realized stopping index: the new x is a single
    jump to x[tau] at tau, the new g stops growing at tau."""
    if tau.is_infinite:
        raise ValueError("hat construction needs a realized (finite) stopping index")
    k = int(tau.k)
    if k > pair.last_index:
        raise ValueError("stopping index beyond the grid")
    x_new = np.zeros_like(pair.x)
    x_new[k:] = pair.x[k]
    g_new = np.array(pair.g)
    g_new[k:] = pair.g[k]
    out = PathPair(x=x_new, g=g_new, grid=pair.grid, g_predictable_shift=pair.g_predictable_shift)
    assert np.all(np.diff(out.x) >= 0)
    return out


@dataclass(frozen=True)
class DiscretePair:
    """Dyadic discretization of the extremal pair on k = 0 .. n 2^N, with
    the Brownian-tail supremum folded into sup_x_full at the last index."""

    x: np.ndarray
    g: np.ndarray
    step: float
    z: float
    sup_x_full: float

    @property
    def sup_g(self) -> float:
        return float(self.g[-1])

    @property
    def sup_x(self) -> float:
        return max(float(self.x.max()), self.sup_x_full)


def discretize_pair(
    params: ExtremalParams,
    level_N: int,
    rng: np.random.Generator | None = None,
    tail_mode: str = EXACT_LAW,
) -> DiscretePair:
    """Sample the dyadic discretization at step 2^-N.

    x is the continuous path sampled on the grid. g accrues, one step ahead,
    the full growth integral of the coming step for as long as the jump has
    not yet happened: the increment over ((k-1)h, kh] is gated on z > (k-1)h,
    which is measurable one step ahead, keeps g non-decreasing and keeps
    g_k >= g(continuous at kh), so the discrete pair still satisfies the
    domination hypothesis.
    """
    if level_N < 0:
        raise ValueError("level_N must be non-negative")
    if rng is None:
        rng = _rng_of(params)
    p, n = params.p, params.n
    h = 2.0 ** (-level_N)
    k_count = n * 2**level_N
    z = -math.log(rng.random())
    t = np.arange(k_count + 1) * h
    jump = math.exp(z / p) if z <= n else 0.0
    x = np.where(t >= z, jump, 0.0)
    gated = z > t[:-1]  # jump still pending at the start of step k
    increments = np.where(gated, p * (np.exp(t[1:] / p) - np.exp(t[:-1] / p)), 0.0)
    g = np.concatenate([[0.0], np.cumsum(increments)])
    if jump > 0:
        sup_x_full = sample_y(jump, p, mode=tail_mode, rng=rng)
    else:
        sup_x_full = 0.0
    return DiscretePair(x=x, g=g, step=h, z=z, sup_x_full=sup_x_full)


# ---------------------------------------------------------------------------
# Vectorized sup-statistic samplers (log-space to survive small p)
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
# ---------------------------------------------------------------------------


def _log_expm1(y: np.ndarray) -> np.ndarray:
    """log(exp(y) - 1) = y + log(1 - exp(-y)), stable for small and large y
    and free of branches, whose mispredictions cost more than the math on
    uniformly spread y."""
    return np.log(-np.expm1(-y)) + y


def _mixture_draws(rng: np.random.Generator, m: int, n: int):
    """(t, head, u) for Z drawn from q, with t = min(Z, n). head marks the
    U(0, n) component, on which Z = 2n v. Beyond n every statistic depends
    on Z only through t = n, so Z is not inverted there. u is the uniform
    behind the Brownian tail, drawn after v as in the Exp(1) layout."""
    v = rng.random(m)
    u = rng.random(m)
    return np.minimum((2.0 * n) * v, n), v < 0.5, u


def _weighted_tail_factor(p: float, u: np.ndarray) -> np.ndarray:
    """U^-p importance-weighted, with U drawn from the defensive mixture
    1/2 U(0, 1) + 1/2 Beta(1-p, 1), whose second component has density
    (1-p) x^-p. u below or above 1/2 picks the component and s = 2u mod 1
    the draw: U = s, or U = s^(1/(1-p)). The weighted value
    U^-p / (1/2 + 1/2 (1-p) U^-p) = 2 / (U^p + 1 - p) lies in
    (2/(2-p), 2/(1-p)], and its mean is E[U^-p] = 1/(1-p) for uniform U."""
    second = u >= 0.5
    u_pow_p = (2.0 * u - second) ** (p + (p / (1.0 - p) - p) * second)
    return 2.0 / (u_pow_p + (1.0 - p))


def _weighted_sup_g_pow_p(p: float, n: int, t_eff: np.ndarray, t: np.ndarray,
                          head: np.ndarray) -> np.ndarray:
    """w(Z) (p (exp(t_eff/p) - 1))^p computed in log space, with t = min(Z, n):
    log w = log 2n - t below n and log 2 - n beyond it."""
    with np.errstate(divide="ignore"):
        log_val = (p * _log_expm1(t_eff / p) + (p * math.log(p) + math.log(2.0) - t)
                   + math.log(n) * head)
    return np.exp(log_val)


def sharpness_sup_sampler(params: ExtremalParams):
    """Paired sampler (rng, m) -> importance-weighted ((sup X)^p, (sup G)^p)
    for the full extremal family, tail by exact law, common z draws for both
    sides. Only the mean of each side is the moment."""
    p, n = params.p, params.n

    def sampler(rng: np.random.Generator, m: int):
        t, head, u = _mixture_draws(rng, m, n)
        supg_p = _weighted_sup_g_pow_p(p, n, t, t, head)
        # w(z) (A(z)/U)^p = 2n e^-z exp(z) U^-p when the jump happened
        supx_p = ((2.0 * n) * _weighted_tail_factor(p, u)) * head
        return supx_p, supg_p

    return sampler


def monotone_sup_sampler(params: ExtremalParams):
    """Paired importance-weighted sampler for the monotone pair (no Brownian
    tail); only the mean of each side is the moment."""
    p, n = params.p, params.n

    def sampler(rng: np.random.Generator, m: int):
        t, head, _ = _mixture_draws(rng, m, n)  # u keeps the layout aligned
        supg_p = _weighted_sup_g_pow_p(p, n, t, t, head)
        # w(z) A(z)^p = 2n e^-z exp(z)
        supx_p = (2.0 * n) * head
        return supx_p, supg_p

    return sampler


def discrete_sup_sampler(params: ExtremalParams, level_N: int):
    """Paired importance-weighted sampler for the dyadic discretization;
    same draws and weights as the continuous sampler so discretization
    effects isolate cleanly. Only the mean of each side is the moment."""
    p, n = params.p, params.n
    h = 2.0 ** (-level_N)

    def sampler(rng: np.random.Generator, m: int):
        t, head, u = _mixture_draws(rng, m, n)
        # g keeps accruing through the grid step that contains z
        cap = np.minimum(np.ceil(t / h) * h, n)
        supg_p = _weighted_sup_g_pow_p(p, n, cap, t, head)
        supx_p = ((2.0 * n) * _weighted_tail_factor(p, u)) * head
        return supx_p, supg_p

    return sampler


def exp_pair_path_batch(
    params: ExtremalParams,
    grid: TimeGrid,
    rng: np.random.Generator,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of exponential-pair paths (size x n_points arrays)."""
    if abs(grid.horizon - params.n) > 1e-12:
        raise ValueError("grid horizon must equal the params horizon n")
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
    """Batch of dyadic discrete pairs (size x (n 2^N + 1) arrays)."""
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
