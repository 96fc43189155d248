"""Domination-pair generators and empirical inequality certification.

A generator guarantees, by construction, that its pair satisfies
E[X_tau] <= E[G_tau] for bounded stopping times. The checkers then certify
the p-th moment inequalities at the appropriate constant, with a pass rule
that tolerates Monte Carlo noise but nothing else: pass iff
lhs <= constant * rhs + 3 * combined half-widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extremal import (
    ExtremalParams,
    FixedIndexRule,
    HittingRule,
    discrete_path_batch,
    discrete_stopped,
    discrete_sup_sampler,
    exp_pair_path_batch,
    exp_pair_stopped,
    sharpness_sup_sampler,
)
from .montecarlo import (
    PILOT_STREAM,
    PLAIN,
    Estimate,
    EstimatorMethod,
    check_budget,
    chunk_rng,
    default_method,
    estimate_pair,
)
# not called here; perfbench/tracing.py wraps these names in this module
from .montecarlo import estimate_from_values, sample_values  # noqa: F401
from .oracles import ConstantKind, constant

__all__ = [
    "JumpLaw",
    "FixedIndexRule",
    "HittingRule",
    "stopping_indices",
    "ExtremalGenerator",
    "DiscreteExtremalGenerator",
    "CompensatedBernoulliGenerator",
    "HatXGenerator",
    "check_type",
    "read_object",
    "generator_from_config",
    "VerifierReport",
    "AuditEntry",
    "AuditReport",
    "PowerF",
    "PiecewiseLinearF",
    "inequality_setup",
    "check_inequality",
    "check_pratelli",
    "domination_audit",
    "enumerate_jump_sup_moments",
    "enumerate_jump_stopping_means",
]


# ---------------------------------------------------------------------------
# Jump laws for the compensated random walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpLaw:
    """Non-negative i.i.d. jump law with an exactly known mean."""

    kind: str  # "bernoulli" | "exp" | "const"
    q: float = 0.5  # success probability (bernoulli)
    c: float = 1.0  # jump size (const)

    def __post_init__(self) -> None:
        if self.kind not in ("bernoulli", "exp", "const"):
            raise ValueError(f"unknown jump law {self.kind!r}")
        if self.kind == "bernoulli" and not (0.0 < self.q <= 1.0):
            raise ValueError("bernoulli parameter must lie in (0,1]")
        if not math.isfinite(self.c):
            raise ValueError(f"c must be finite, not {self.c!r}")
        if self.kind == "const" and self.c < 0:
            raise ValueError("constant jump must be non-negative")

    @property
    def mean(self) -> float:
        if self.kind == "bernoulli":
            return self.q
        if self.kind == "exp":
            return 1.0
        return self.c

    def sample(self, rng: np.random.Generator, shape=None,
               out: np.ndarray | None = None) -> np.ndarray:
        """i.i.d. jumps of the given shape, or of the shape of out, a
        C-contiguous array they are written into; computed in the array of
        the uniforms they come from."""
        u = np.empty(shape) if out is None else out
        if self.kind == "const":
            u.fill(self.c)
            return u
        rng.random(out=u)
        if self.kind == "bernoulli":
            return np.less(u, self.q, out=u)
        np.log(u, out=u)
        return np.negative(u, out=u)


# ---------------------------------------------------------------------------
# Stopping rules (FixedIndexRule, HittingRule, from extremal) on path batches
# ---------------------------------------------------------------------------


def stopping_indices(rule, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-path stopping index; hitting rules cap at the final index."""
    last = x.shape[1] - 1
    if isinstance(rule, FixedIndexRule):
        return np.full(x.shape[0], rule.index(last))
    arr = x if rule.side == "x" else g
    hit_mask = arr >= rule.level
    idx = hit_mask.argmax(axis=1)
    # argmax is 0 on a row without a hit, so the mask there tells them apart
    return np.where(hit_mask[np.arange(idx.size), idx], idx, last)


def _gather(tau: np.ndarray, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = np.arange(x.shape[0])
    return x[rows, tau], g[rows, tau]


def _stopped(rule, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_tau, g_tau) per path under a stopping rule."""
    return _gather(stopping_indices(rule, x, g), x, g)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


# dyadic level of the extremal generator's path grid: step 1/8
_GRID_LEVEL = 3


class _Generator:
    monotone_x = False
    exact_compensator = False
    name = "generator"

    def sup_sampler(self, r: float):
        """(rng, m) -> two arrays whose means are E[(sup X)^r] and
        E[(sup G)^r], or for a side whose moment is known, that float.
        Unit-weight generators return the r-th powers of the sups, and r = 1
        the sups themselves; the extremal ones weight their g values, of
        which only the mean is the moment."""
        raise NotImplementedError

    def path_batch(self, rng: np.random.Generator, size: int):
        """(x, g) arrays of shape (size, n_points); g may be a read-only view."""
        raise NotImplementedError(f"{self.name} has no path representation")

    def stopped_batch(self, rules, rng: np.random.Generator, size: int,
                      g_divisor: float = 1.0) -> list:
        """(x_tau, g_tau) per rule on the size paths that path_batch(rng, size)
        draws, with g divided by g_divisor before stopping, so that a hitting
        rule on g stops on the scaled g. The arrays are rows 2i and 2i + 1
        of one new (2 len(rules), size) array: distinct, writable, and the
        caller's to overwrite. Here the paths are built and stopped; the
        single-jump generators and the walks stop them in closed form."""
        x, g = self.path_batch(rng, size)
        if g_divisor != 1.0:
            g = g / g_divisor
        stopped = np.empty((2 * len(rules), size))
        for i, rule in enumerate(rules):
            stopped[2 * i], stopped[2 * i + 1] = _stopped(rule, x, g)
        return list(zip(stopped[0::2], stopped[1::2]))


@dataclass(frozen=True)
class ExtremalGenerator(_Generator):
    """Full extremal pair: exponential jump plus Brownian tail (exact law).
    Paths (used by the domination audit) cover the pre-tail phase [0, n],
    where the compensator identity E[X_tau] = E[G_tau] holds."""

    params: ExtremalParams

    monotone_x = False
    exact_compensator = True
    name = "extremal"

    def sup_sampler(self, r):
        return sharpness_sup_sampler(self.params, r)

    def path_batch(self, rng, size):
        return exp_pair_path_batch(self.params, _GRID_LEVEL, rng, size)

    def stopped_batch(self, rules, rng, size, g_divisor=1.0):
        return exp_pair_stopped(self.params, _GRID_LEVEL, rules, rng, size, g_divisor)


@dataclass(frozen=True)
class DiscreteExtremalGenerator(_Generator):
    """Dyadic discretization of the extremal pair at step 2^-N."""

    params: ExtremalParams
    level_N: int

    monotone_x = False
    exact_compensator = False  # g dominates the compensator from above
    name = "discrete_extremal"

    def sup_sampler(self, r):
        return discrete_sup_sampler(self.params, self.level_N, r)

    def path_batch(self, rng, size):
        return discrete_path_batch(self.params, self.level_N, rng, size)

    def stopped_batch(self, rules, rng, size, g_divisor=1.0):
        return discrete_stopped(self.params, self.level_N, rules, rng, size, g_divisor)


def _binomial_pmf(n: int, q: float) -> np.ndarray:
    """P[K = k], k = 0..n, for K ~ Binomial(n, q) and q in [0, 1]: the ratio
    recurrence P[K = k + 1] / P[K = k] = (n - k) q / ((k + 1)(1 - q)), run
    out from the mode in both directions (so nothing overflows), then
    divided by its sum. q > 0.5 reverses the law on 1 - q, which is exact."""
    if q > 0.5:
        return _binomial_pmf(n, 1.0 - q)[::-1]
    mode = int((n + 1) * q)
    k = np.arange(1.0, n + 1)
    # P[K = k] / P[K = k - 1] for k = 1..n; k - k q rounds once per k, where
    # k (1 - q) would share the rounding of 1 - q among all the ratios
    up = (n + 1 - k) * q / (k - k * q)
    w = np.empty(n + 1)
    w[mode] = 1.0
    w[mode + 1:] = np.cumprod(up[mode:])
    w[:mode] = np.cumprod(1.0 / up[:mode][::-1])[::-1]
    return w / w.sum()


def _binomial_thresholds(n: int, q: float) -> tuple[int, np.ndarray]:
    """(lo, T) with T[i] = P[K <= lo + i] for K ~ Binomial(n, q): the cdf at
    k < n wherever it lies in [2^-53, 1 - 2^-53), lo being the count of k
    where it lies below. rng.random() returns the multiples of 2^-53 in
    [0, 1), so it exceeds none of the cdf values from 1 - 2^-53 up and,
    unless it is 0, every one below 2^-53. Above 1/2 the cdf is
    1 - P[K > k], summed from the top, so that it stays within a few
    units of 2^-53 of the exact cdf there too."""
    pmf = _binomial_pmf(n, q)
    below = np.cumsum(pmf[:-1])
    cdf = np.where(below < 0.5, below, 1.0 - np.cumsum(pmf[:0:-1])[::-1])
    lo, hi = np.searchsorted(cdf, [2.0**-53, 1.0 - 2.0**-53])
    return int(lo), cdf[lo:hi]


def _binomial_sampler(n: int, q: float):
    """(rng, m) -> m draws of Binomial(n, q) as floats, by inversion: the
    count of cdf values that U = rng.random() exceeds, one U per draw, on
    min(q, 1 - q) and subtracted from n for q > 0.5. Only the window of
    thresholds between 2^-53 and 1 - 2^-53 is compared (_binomial_thresholds),
    so the count never exceeds n."""
    flip = q > 0.5
    lo, thresholds = _binomial_thresholds(n, 1.0 - q if flip else q)
    dtype = np.uint8 if n < 256 else np.uint16  # holds counts up to n < 2^16

    def sampler(rng, m):
        u = rng.random(m)
        count = np.zeros(m, dtype)
        if lo:
            np.copyto(count, lo, where=u > 0.0)
        above = np.empty(m, bool)
        for t in thresholds:
            count += np.greater(u, t, out=above).view(np.uint8)
        np.copyto(u, count)
        return np.subtract(n, u, out=u) if flip else u

    return sampler


# the battery's pilot holds 2048 (steps + 1) doubles: at this cap, at
# verify's default 10^5 samples, a hatx_of check with a hitting rule on x
# took 1.5 s in process on one core (2-core x86_64), the audit 1.6 s and the
# Pratelli check 1.7 s
_MAX_WALK_STEPS = 10**3

# the walks' stopped_batch draws its jump rows in blocks of about this many
# cells (512 KB of doubles), into one buffer, and sums them into another. A
# block makes about one numpy call per step, so it has at least
# _WALK_BLOCK_ROWS rows (2 MB at the step cap): past 256 steps the calls per
# row then grow as steps, not as steps^2
_WALK_BLOCK_CELLS = 1 << 16
_WALK_BLOCK_ROWS = 256


@dataclass(frozen=True)
class CompensatedBernoulliGenerator(_Generator):
    """Random walk of non-negative i.i.d. jumps with its deterministic
    (hence predictable) compensator G_k = k E[J]; optional stopping makes
    E[X_tau] = E[G_tau] exact for bounded tau.

    sup X is the last value. Bernoulli walks draw it from Binomial(steps, q)
    by inversion of one rng.random double per draw, on a cdf table computed
    here (_binomial_sampler); exponential walks still draw it with
    rng.standard_gamma(steps). stopped_batch stops the walks path_batch
    draws a block of rows at a time, without the path matrices: it sums the
    jump columns in cumsum's order, up to the last index a rule needs, into
    one row of x per index. A fixed index reads its row; a hitting rule on
    x stops at its first passage, one index after the count of values below
    the level, since x never decreases. At most _MAX_WALK_STEPS steps."""

    jump: JumpLaw
    steps: int

    monotone_x = True
    exact_compensator = True
    name = "compensated_bernoulli"

    def __post_init__(self) -> None:
        if not 1 <= self.steps <= _MAX_WALK_STEPS:
            raise ValueError(f"steps must lie in [1, {_MAX_WALK_STEPS}]")

    def sup_sampler(self, r=1.0):
        jump, k = self.jump, self.steps
        # sup G = k E[J] on every path, so its moment is exact
        sup_g = float(k * jump.mean) ** r
        if jump.kind == "const":  # sup X = sup G = k c
            return lambda rng, m: (sup_g, sup_g)
        if jump.kind == "bernoulli":
            draw = _binomial_sampler(k, jump.q)
        else:
            def draw(rng, m):
                return rng.standard_gamma(k, m)

        def sampler(rng, m):
            sup_x = draw(rng, m)
            sup_x **= r
            return sup_x, sup_g

        return sampler

    def path_batch(self, rng, size):
        jumps = self.jump.sample(rng, (size, self.steps))
        np.cumsum(jumps, axis=1, out=jumps)
        x = np.empty((size, self.steps + 1))
        x[:, 0] = 0.0
        x[:, 1:] = jumps
        g = np.broadcast_to(np.arange(self.steps + 1) * self.jump.mean, x.shape)
        return x, g

    def stopped_batch(self, rules, rng, size, g_divisor=1.0):
        last = self.steps
        g_row = np.arange(last + 1) * self.jump.mean
        if g_divisor != 1.0:
            g_row = g_row / g_divisor
        # None: a hitting rule on x, which stops each walk at its first passage
        index = [rule.common_index(g_row) for rule in rules]
        reach = last if None in index else max(index, default=0)
        stopped = np.empty((2 * len(rules), size))
        x_tau, g_tau = stopped[0::2], stopped[1::2]
        x_tau.fill(0.0)
        for k, gt in zip(index, g_tau):
            if k is not None:
                gt.fill(g_row[k])
        block = max(1, min(size, max(_WALK_BLOCK_ROWS, _WALK_BLOCK_CELLS // last)))
        jump_buf = np.empty((block, last))
        x_buf = np.empty((last, block))  # row k - 1 holds x_k, contiguous
        for start in range(0, size, block):
            rows = slice(start, min(start + block, size))
            b = rows.stop - start
            # the stream is read row-major, as by one (size, last) draw
            jumps = self.jump.sample(rng, out=jump_buf[:b])
            x = x_buf[:, :b]
            np.copyto(x[0], jumps[:, 0])
            for k in range(1, reach):
                np.add(x[k - 1], jumps[:, k], out=x[k])
            for rule, k, xt, gt in zip(rules, index, x_tau, g_tau):
                if k is None:  # reach is last; tau is tau_row + 1, at most last
                    tau_row = np.count_nonzero(x < rule.level, axis=0)
                    np.minimum(tau_row, last - 1, out=tau_row)
                    xt[rows] = np.take_along_axis(x, tau_row[None], axis=0)[0]
                    gt[rows] = g_row[tau_row + 1]
                elif k > 0:
                    xt[rows] = x[k - 1]
        return list(zip(x_tau, g_tau))


@dataclass(frozen=True)
class HatXGenerator(_Generator):
    """Freeze an inner pair at a stopping rule: the x side becomes the
    single-jump process 1[tau, inf) * X_tau, the g side stops at tau.
    Both sups reduce to the values at tau."""

    inner: _Generator
    rule: FixedIndexRule | HittingRule

    monotone_x = True
    exact_compensator = False  # freezing can only lose x-mass
    name = "hatx_of"

    def sup_sampler(self, r=1.0):
        def sampler(rng, m):
            [(x_tau, g_tau)] = self.inner.stopped_batch([self.rule], rng, m)
            x_tau **= r
            g_tau **= r
            return x_tau, g_tau

        return sampler

    def path_batch(self, rng, size):
        x, g = self.inner.path_batch(rng, size)
        tau = stopping_indices(self.rule, x, g)
        x_tau, g_tau = _gather(tau, x, g)
        after = np.arange(x.shape[1]) >= tau[:, None]
        return np.where(after, x_tau[:, None], 0.0), np.where(after, g_tau[:, None], g)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {value!r}")
    return value


def check_type(key: str, value, kind: type):
    """value, if it follows the rule of a --config setting of type kind: an
    int for int, an int or float for float, a str for str, and never a bool.
    Raises ValueError otherwise; nothing is cast."""
    types = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{key} must be {kind.__name__}, not {value!r}")
    return value


def read_object(value, what: str, keys: dict) -> dict:
    """value, if it is a JSON object whose keys are all in keys, which maps
    each to the type its value must have (see check_type). Raises ValueError
    otherwise. A key left out is the caller's to default or to miss."""
    unknown = sorted(_object(value, what).keys() - keys.keys())
    if unknown:
        raise ValueError(f"{what} has no key {unknown[0]!r}; it takes {', '.join(keys)}")
    return {key: check_type(key, item, keys[key]) for key, item in value.items()}


# generator kind -> the keys it may hold besides "kind", with their types
_GENERATOR_KEYS = {
    "extremal": {"p": float, "n": int},
    "discrete_extremal": {"p": float, "n": int, "level_N": int},
    "compensated_bernoulli": {"jump": str, "steps": int},
    "hatx_of": {"inner": dict, "rule": dict},
}
# compensated_bernoulli's "jump" (bernoulli when left out) -> the key it
# adds; JumpLaw defaults a key left out, and refuses an unknown law
_JUMP_KEYS = {"bernoulli": {"q": float}, "exp": {}, "const": {"c": float}}


def generator_from_config(cfg: dict) -> _Generator:
    """Build a generator from a JSON-style description: "kind" and the keys
    of that kind, and no other key. Its numbers follow the --config rules
    (see check_type)."""
    kind = _object(cfg, "generator").get("kind")
    if kind not in _GENERATOR_KEYS:
        raise ValueError(f"unknown generator kind {kind!r}")
    jump = cfg.get("jump", "bernoulli") if kind == "compensated_bernoulli" else None
    values = read_object(cfg, f"{kind} generator",
                         {"kind": str, **_GENERATOR_KEYS[kind], **_JUMP_KEYS.get(jump, {})})
    if kind == "compensated_bernoulli":
        law = {key: values[key] for key in ("q", "c") if key in values}
        return CompensatedBernoulliGenerator(jump=JumpLaw(jump, **law), steps=values["steps"])
    if kind == "hatx_of":
        # a rule holds a fixed index, or a level on one side
        index = "k" in values["rule"]
        rule = read_object(values["rule"], "hatx_of rule",
                           {"k": int} if index else {"side": str, "level": float})
        return HatXGenerator(inner=generator_from_config(values["inner"]),
                             rule=FixedIndexRule(**rule) if index else HittingRule(**rule))
    params = ExtremalParams(p=values["p"], n=values["n"])
    if kind == "extremal":
        return ExtremalGenerator(params)
    return DiscreteExtremalGenerator(params, level_N=values["level_N"])


# ---------------------------------------------------------------------------
# Reports and checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifierReport:
    lhs: Estimate
    rhs_constant: float
    rhs: Estimate
    constant_kind: ConstantKind | None
    label: str = ""

    @property
    def margin(self) -> float:
        return self.rhs_constant * self.rhs.value - self.lhs.value

    @property
    def combined_halfwidth(self) -> float:
        return self.lhs.halfwidth + self.rhs_constant * self.rhs.halfwidth

    @property
    def passed(self) -> bool:
        return self.margin >= -3.0 * self.combined_halfwidth

    @property
    def ratio(self) -> float | None:
        """lhs over rhs; None where the rhs estimate is 0, as E[G_tau] is for
        a walk frozen at index 0."""
        return None if self.rhs.value == 0 else self.lhs.value / self.rhs.value

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "constant_kind": self.constant_kind.value if self.constant_kind else None,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "rhs_constant": self.rhs_constant,
            "margin": self.margin,
            "ratio": self.ratio,
            "pass": self.passed,
        }


def inequality_setup(gen: _Generator, p: float, kind: ConstantKind, n_samples: int,
                     method: EstimatorMethod | None = None):
    """(constant(kind, p), estimator, gen.sup_sampler(p)) of check_inequality's
    run, the estimator defaulting to default_method(p). Raises ValueError,
    without drawing, where the check does not apply, its samples cannot fill
    the blocks or its moments are no float64."""
    if kind is ConstantKind.MONOTONE and not gen.monotone_x:
        raise ValueError(f"{gen.name} does not produce non-decreasing X; the monotone "
                         "constant does not apply")
    method = default_method(p) if method is None else method
    check_budget(n_samples, method)
    rhs_constant = constant(kind, p)  # rejects p outside (0, 1)
    return rhs_constant, method, gen.sup_sampler(p)


def check_inequality(
    gen: _Generator,
    p: float,
    kind: ConstantKind,
    n_samples: int = 10**5,
    seed: int = 0,
    method: EstimatorMethod | None = None,
    threads: int = 1,
) -> VerifierReport:
    """Certify E[(sup X)^p] <= constant(kind, p) * E[(sup G)^p] empirically."""
    rhs_constant, method, sampler = inequality_setup(gen, p, kind, n_samples, method)
    lhs, rhs = estimate_pair(sampler, n_samples, method, seed, threads)
    return VerifierReport(
        lhs=lhs,
        rhs_constant=rhs_constant,
        rhs=rhs,
        constant_kind=kind,
        label=f"{gen.name}:{kind.value}:p={p}",
    )


# concave test functions for the Pratelli-style check ----------------------


@dataclass(frozen=True)
class PowerF:
    p: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p <= 1.0):
            raise ValueError("power must lie in (0,1] to be concave with F(0)=0")

    def __call__(self, arr: np.ndarray) -> np.ndarray:
        return np.asarray(arr, dtype=float) ** self.p


@dataclass(frozen=True)
class PiecewiseLinearF:
    """F(0) = 0, linear pieces with non-increasing slopes (checked)."""

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]  # one per piece, last one extends to infinity

    def __post_init__(self) -> None:
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ValueError("need one slope per piece (breakpoints + 1)")
        if any(b <= 0 for b in self.breakpoints) or list(self.breakpoints) != sorted(
            self.breakpoints
        ):
            raise ValueError("breakpoints must be positive and increasing")
        if any(s < 0 for s in self.slopes):
            raise ValueError("slopes must be non-negative (F non-decreasing)")
        if any(a < b for a, b in zip(self.slopes, self.slopes[1:])):
            raise ValueError("slopes must be non-increasing (F concave)")

    def __call__(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        out = np.zeros_like(arr)
        prev_break = 0.0
        for b, s in zip(self.breakpoints, self.slopes[:-1]):
            seg = np.clip(arr, prev_break, b) - prev_break
            out += s * seg
            prev_break = b
        out += self.slopes[-1] * np.maximum(arr - prev_break, 0.0)
        return out


def default_tau_battery(x: np.ndarray, g: np.ndarray) -> list:
    """Deterministic stopping battery: fixed deciles of the horizon plus
    hitting levels at empirical quantiles of sup X."""
    last = x.shape[1] - 1
    rules: list = []
    for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
        rules.append(FixedIndexRule(k=max(1, int(round(frac * last)))))
    sup_x = x.max(axis=1)
    for qtl in (0.5, 0.9, 0.99):
        level = float(np.quantile(sup_x, qtl))
        if level > 0:
            rules.append(HittingRule(side="x", level=level))
    level_g = float(np.quantile(g.max(axis=1), 0.5))
    if level_g > 0:
        rules.append(HittingRule(side="g", level=level_g))
    return rules


def _battery_pass(gen: _Generator, columns, n_samples: int, seed: int,
                  g_divisor: float, spare: int = 0) -> list:
    """Estimates of columns(x_tau, g_tau, *rows), a tuple of arrays, at
    every rule of the stopping battery, all rules evaluated on the same
    paths. The battery is built on a 2048-path pilot drawn as dense paths
    from chunk_rng(seed, PILOT_STREAM), the pilot's own stream domain, so it
    shares no draw with the estimation chunks. Each estimation chunk is
    stopped by gen.stopped_batch, so g is divided by g_divisor before
    stopping and a hitting rule on g stops on the scaled g. The single-jump
    generators and the walks stop in closed form and build no path matrix
    there. A chunk's stopped arrays are the rows of one allocation, and the
    spare rows per rule that columns may write its own columns into are
    the rows of one more: freed, two blocks stay on glibc's heap for the
    next chunk, while a column-sized array per column raises glibc's trim
    threshold too little and is page-faulted in again in every chunk.
    columns may overwrite the stopped arrays, which are the battery's own.
    Returns (rule, estimates) pairs, one per rule."""
    # the pilot's paths are freed before the first chunk is drawn: held, they
    # would split the heap top, which then grows past glibc's trim threshold
    rules = default_tau_battery(*gen.path_batch(chunk_rng(seed, PILOT_STREAM), 2048))

    def paired(rng, m):
        stopped = gen.stopped_batch(rules, rng, m, g_divisor)
        own = np.empty((len(rules), spare, m))
        return tuple(col for (x_tau, g_tau), rows in zip(stopped, own)
                     for col in columns(x_tau, g_tau, *rows))

    estimates = estimate_pair(paired, n_samples, PLAIN, seed)
    k = len(estimates) // len(rules)
    return [(rule, estimates[k * i : k * i + k]) for i, rule in enumerate(rules)]


def check_pratelli(
    gen: _Generator,
    F,
    c: float,
    n_samples: int = 10**5,
    seed: int = 0,
) -> VerifierReport:
    """Certify E[F(Y_tau)] <= (1+c) E[F(G_tau)] over a stopping battery.

    The generator must carry an exact compensator so that scaling g by 1/c
    realizes the hypothesis E[Y_tau] <= c E[(G/c)_tau]. Returns the report
    of the binding (worst-margin) stopping time.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, not {c!r}")
    if not gen.exact_compensator:
        raise ValueError(
            f"{gen.name} does not guarantee the scaled domination hypothesis"
        )
    if not callable(F):
        raise ValueError("F must be callable (PowerF or PiecewiseLinearF)")
    if isinstance(F, PowerF):
        def columns(x, g):
            # in the stopped arrays; ** as in PowerF.__call__, so the bits match
            x **= F.p
            g **= F.p
            return x, g
    else:
        def columns(x, g):
            return F(x), F(g)
    battery = _battery_pass(gen, columns, n_samples, seed, g_divisor=c)
    reports = [
        VerifierReport(lhs=lhs, rhs_constant=1.0 + c, rhs=rhs, constant_kind=None,
                       label=f"{gen.name}:pratelli:{rule.label()}")
        for rule, (lhs, rhs) in battery
    ]
    # the first of equal keys binds
    return min(reports, key=lambda r: r.margin + 3 * r.combined_halfwidth)


@dataclass(frozen=True)
class AuditEntry:
    tau_label: str
    mean_x: float
    mean_g: float
    stderr: float

    @property
    def diff(self) -> float:
        return self.mean_x - self.mean_g

    @property
    def flagged(self) -> bool:
        return self.diff > 3.0 * self.stderr

    def to_json(self) -> dict:
        return {
            "tau": self.tau_label,
            "mean_x": self.mean_x,
            "mean_g": self.mean_g,
            "diff": self.diff,
            "stderr": self.stderr,
            "flagged": self.flagged,
        }


@dataclass(frozen=True)
class AuditReport:
    generator: str
    entries: tuple[AuditEntry, ...]

    @property
    def passed(self) -> bool:
        return not any(e.flagged for e in self.entries)

    def to_json(self) -> dict:
        return {
            "generator": self.generator,
            "pass": self.passed,
            "entries": [e.to_json() for e in self.entries],
        }


def domination_audit(
    gen: _Generator,
    n_samples: int = 10**5,
    seed: int = 0,
) -> AuditReport:
    """Estimate E[X_tau] - E[G_tau] over a stopping battery and flag any
    positive excess beyond 3 stderr. Report only; generators are expected
    to satisfy the domination hypothesis by construction."""
    battery = _battery_pass(gen, lambda x, g, diff: (x, g, np.subtract(x, g, out=diff)),
                            n_samples, seed, g_divisor=1.0, spare=1)
    entries = tuple(
        AuditEntry(tau_label=rule.label(), mean_x=mean_x.value, mean_g=mean_g.value,
                   stderr=diff.halfwidth)
        for rule, (mean_x, mean_g, diff) in battery
    )
    return AuditReport(generator=gen.name, entries=entries)


# ---------------------------------------------------------------------------
# Exact oracles of the Bernoulli walk, in closed form
# ---------------------------------------------------------------------------


def enumerate_jump_sup_moments(q: float, steps: int, p: float) -> tuple[float, float]:
    """Exact (E[(sup X)^p], E[(sup G)^p]) for the Bernoulli compensated walk:
    sup X is its last value, Binomial(steps, q), and sup G is steps q."""
    return float(_binomial_pmf(steps, q) @ np.arange(steps + 1.0) ** p), (steps * q) ** p


def enumerate_jump_stopping_means(q: float, steps: int, rule) -> tuple[float, float]:
    """Exact (E[X_tau], E[G_tau]) for the Bernoulli compensated walk under a
    stopping rule. X - G is a martingale and tau <= steps, so both are
    q E[tau]. Every rule but a hitting rule on x at a positive level L
    stops every walk at one index (common_index); that one stops at the
    ceil(L)-th success, capped at the last index, so E[tau] = sum over
    k < steps of P[Binomial(k, q) < ceil(L)]."""
    mean_tau = rule.common_index(np.arange(steps + 1) * q)
    if mean_tau is None:
        successes = math.ceil(min(rule.level, steps))
        mean_tau = sum(_binomial_pmf(k, q)[:successes].sum() for k in range(steps))
    return q * mean_tau, q * mean_tau
