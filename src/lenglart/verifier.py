"""Domination-pair generators and empirical inequality certification.

A generator guarantees, by construction, that its pair satisfies
E[X_tau] <= E[G_tau] for bounded stopping times. The checkers then certify
the p-th moment inequalities at the appropriate constant, with a pass rule
that tolerates Monte Carlo noise but nothing else (montecarlo.Verdict):
pass iff lhs <= constant * rhs + 3 * combined half-widths. This module
takes built generators; cli.generator_from_config reads the suite format.

A generator's read_index(rule, g_row) is the grid index at which a stopping
rule reads every path, known before any draw (None where tau depends on the
path): stopped_sup_sampler, which a freeze draws its sups through, and the
stopping battery, which draws one column per index (the Pratelli check at a
PowerF below 1 through stopped_sup_sampler as well), both key on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .extremal import (
    ExtremalParams,
    FixedIndexRule,
    HittingRule,
    discrete_stopped,
    discrete_sup_sampler,
    exp_pair_stopped,
    grid_g_row,
    grid_last,
    monotone_sup_sampler,
    read_index,
    sharpness_sup_sampler,
    zero_moments,
)
from .montecarlo import (
    PILOT_STREAM,
    Estimate,
    Verdict,
    chunk_rng,
    estimate_pair,
)
# not called here; perfbench/tracing.py wraps these names in this module
from .extremal import discrete_path_batch, exp_pair_path_batch  # noqa: F401
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
# Stopping rules (FixedIndexRule, HittingRule, from extremal) on path matrices
# ---------------------------------------------------------------------------


# not called here: the tests' dense reference, which perfbench/tracing.py wraps
def stopping_indices(rule, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-path stopping index; hitting rules cap at the final index."""
    last = x.shape[1] - 1
    if isinstance(rule, FixedIndexRule):
        return np.full(x.shape[0], rule.index(last))
    hit = (x if rule.side == "x" else g) >= rule.level
    # argmax is 0 on a row without a hit too
    return np.where(hit.any(axis=1), hit.argmax(axis=1), last)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


# dyadic level of the extremal generator's path grid: step 1/8
_GRID_LEVEL = 3


class _Generator:
    monotone_x = False
    # E[X_tau] = E[G_tau] exactly; only such a generator's stopped_batch
    # takes a g_divisor, which check_pratelli passes
    exact_compensator = False
    name = "generator"

    def sup_sampler(self, r: float):
        """(rng, m) -> two arrays whose means are E[(sup X)^r] and
        E[(sup G)^r], or for a side whose moment is known, that float.
        Unit-weight generators return the r-th powers of the sups, and r = 1
        the sups themselves; the extremal ones, and a freeze of one, weight
        their g values, of which only the mean is the moment."""
        raise NotImplementedError

    def read_index(self, rule, g_row: np.ndarray) -> int | None:
        """The grid index k at which rule (FixedIndexRule or HittingRule)
        stops or reads every path whose g follows g_row, known before any
        draw: every rule with that k stops the same pair, a member of the
        generator's own family whose sups sampler_at(k, r) draws at k >= 1.
        None where tau depends on the path."""
        raise NotImplementedError

    def stopped_sup_sampler(self, rule, r: float, **stop):
        """sup_sampler(r) of the pair stopped by rule, (X_tau, G_tau), which
        a freeze at rule draws; with stop's g_divisor, which only a
        generator with exact_compensator takes (as stopped_batch), of
        (X_tau, (G / g_divisor)_tau). Exact zeros where read_index on
        g_row / g_divisor is 0, sampler_at(k, r) where it is k, its g side
        times g_divisor^-r, and else per_path_sampler."""
        g_divisor = stop.get("g_divisor", 1.0)
        k = self.read_index(rule, self.g_row / g_divisor)
        if k is None:
            return self.per_path_sampler(rule, r, **stop)
        if k == 0:
            return zero_moments
        sampler = self.sampler_at(k, r)
        if g_divisor == 1.0:
            return sampler
        scale = g_divisor ** -r

        def scaled(rng, m):
            x, g = sampler(rng, m)
            g *= scale  # in place on an array, which is the caller's
            return x, g

        return scaled

    def per_path_sampler(self, rule, r: float, **stop):
        """stopped_sup_sampler(rule, r, **stop) at any rule: the r-th powers
        of stopped_batch([rule], **stop), path by path."""
        def sampler(rng, m):
            [(x_tau, g_tau)] = self.stopped_batch([rule], rng, m, **stop)
            x_tau **= r
            g_tau **= r
            return x_tau, g_tau

        return sampler

    last: int  # the last index of the path grid; raises where no path can be drawn
    # g on the path grid of a path that has not jumped, which no path's g exceeds
    g_row: np.ndarray

    def stopped_batch(self, rules, rng: np.random.Generator, size: int) -> list:
        """(x_tau, g_tau) per rule (FixedIndexRule or HittingRule) on size
        paths drawn from rng, in closed form, without the paths. The arrays
        are rows of one new array, two distinct rows per rule: writable, and
        the caller's to overwrite. A generator with exact_compensator takes
        a fourth argument, g_divisor (default 1.0), and stops g / g_divisor,
        so that a hitting rule on g stops on the scaled g."""
        raise NotImplementedError


class _SingleJumpGenerator(_Generator):
    """One jump per path, on the grid of step 2^-level_N: every rule reads
    every path at one grid index k (extremal.read_index), where the stopped
    pair is the monotone pair on [0, t_k], with the discrete g if discrete."""

    params: ExtremalParams
    level_N: int
    discrete = False

    def read_index(self, rule, g_row):
        return read_index(rule, g_row)

    def sampler_at(self, k, r):
        return monotone_sup_sampler(self.params, r, k * 2.0 ** (-self.level_N),
                                    self.level_N if self.discrete else None)

    @property
    def last(self):
        return grid_last(self.params, self.level_N)

    @property
    def g_row(self):
        return grid_g_row(self.params, self.level_N, self.discrete)


@dataclass(frozen=True)
class ExtremalGenerator(_SingleJumpGenerator):
    """Full extremal pair: exponential jump plus Brownian tail (exact law).
    Paths (used by the domination audit) cover the pre-tail phase [0, n],
    where the compensator identity E[X_tau] = E[G_tau] holds."""

    params: ExtremalParams

    exact_compensator = True
    level_N = _GRID_LEVEL
    name = "extremal"

    def sup_sampler(self, r):
        return sharpness_sup_sampler(self.params, r)

    def stopped_batch(self, rules, rng, size, g_divisor=1.0):
        return exp_pair_stopped(self.params, self.level_N, rules, rng, size, g_divisor)


@dataclass(frozen=True)
class DiscreteExtremalGenerator(_SingleJumpGenerator):
    """Dyadic discretization of the extremal pair at step 2^-N."""

    params: ExtremalParams
    level_N: int

    exact_compensator = False  # g dominates the compensator from above
    discrete = True
    name = "discrete_extremal"

    def sup_sampler(self, r):
        return discrete_sup_sampler(self.params, self.level_N, r)

    def stopped_batch(self, rules, rng, size):
        return discrete_stopped(self.params, self.level_N, rules, rng, size)


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


# at this cap and verify's default 10^5 samples, a hatx_of check with a
# hitting rule on x took 1.1-1.4 s in process on one core of a 2-core x86_64
# Xeon, the audit 1.4-1.7 s and the Pratelli check 1.3-1.5 s
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
    rng.standard_gamma(steps). stopped_batch stops the walks without their
    path matrices, a block of rows at a time: it sums the jump columns in
    cumsum's order, up to the last index a rule needs, into one row of x per
    index. A fixed index reads its row; a hitting rule on x stops at its
    first passage, one index after the count of values below the level,
    since x never decreases. At most _MAX_WALK_STEPS steps."""

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

    def read_index(self, rule, g_row):
        # every rule but a hitting rule on x at a positive level stops every
        # walk at one index k, where the walk stopped is the walk of k steps
        return rule.common_index(g_row)

    def sampler_at(self, k, r):
        return replace(self, steps=k).sup_sampler(r)

    @property
    def last(self):
        return self.steps

    @property
    def g_row(self):
        return np.arange(self.steps + 1) * self.jump.mean

    # not called here: the tests' dense reference, which perfbench/tracing.py wraps
    def path_batch(self, rng, size):
        x = np.zeros((size, self.steps + 1))
        np.cumsum(self.jump.sample(rng, (size, self.steps)), axis=1, out=x[:, 1:])
        return x, np.broadcast_to(np.arange(self.steps + 1) * self.jump.mean, x.shape)

    def stopped_batch(self, rules, rng, size, g_divisor=1.0):
        last = self.steps
        g_row = self.g_row / g_divisor
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
    Both sups reduce to the values at tau, so sup_sampler is the inner
    pair's stopped_sup_sampler at the rule: where the rule stops or reads
    every inner path at one grid index k (inner.read_index), the inner
    family's member at horizon k (the walk of k steps; the monotone
    single-jump pair on [0, t_k], with x exact and g from the weighted
    kernel; a nested freeze's own sups when k is at or past its bound on
    tau), and otherwise, as for a walk frozen where x reaches a positive
    level, the inner pair's stopped values, path by path. stopped_batch
    reads the frozen pair, (X_tau 1[tau <= s], G_min(tau, s)), from one
    stopped_batch of the inner pair at each rule's inner index s: a fixed
    index its own; on x, 0 at a level <= 0 and else the last, as x jumps
    once; on g, G's passage. X and G never decrease, so tau <= s where s
    reaches the bound on tau (the fixed index, or the last), as a hitting s
    does where G one index before the bound is below its level, or where
    the freeze rule's side has passed its level at s."""

    inner: _Generator
    rule: FixedIndexRule | HittingRule

    monotone_x = True
    exact_compensator = False  # freezing can only lose x-mass
    name = "hatx_of"

    def __post_init__(self) -> None:
        # refused before any draw: undrawable inner paths (last raises), an index off the grid
        last = self.inner.last
        if isinstance(self.rule, FixedIndexRule):
            self.rule.index(last)

    @property
    def last(self):
        return self.inner.last

    @property
    def g_row(self):
        return self.inner.g_row

    @property
    def _bound(self) -> int:
        """A bound on tau known before any draw: the fixed index, or the last."""
        return self.rule.k if isinstance(self.rule, FixedIndexRule) else self.last

    def sup_sampler(self, r):
        return self.inner.stopped_sup_sampler(self.rule, r)

    def read_index(self, rule, g_row):
        # both frozen paths are constant from tau on, so a stop at or past
        # tau reads the freeze's own sups. Every stop is, where k reaches
        # the bound on tau: a fixed or g rule stops no path before k, as
        # g-hat <= g_row, and x-hat, 0 before tau, reaches a positive level
        # (k = last) at tau or never
        k = read_index(rule, g_row)
        return min(k, self._bound) if k == 0 or k >= self._bound else None

    def sampler_at(self, k, r):
        # k is the bound on tau: the freeze's own sups
        return self.sup_sampler(r)

    def stopped_batch(self, rules, rng, size):
        freeze, last, bound = self.rule, self.last, self._bound
        reads = [FixedIndexRule(0 if rule.level <= 0 else last)
                 if isinstance(rule, HittingRule) and rule.side == "x" else rule
                 for rule in rules]
        helper = [FixedIndexRule(bound - 1)] if bound > 0 else []
        stopped = self.inner.stopped_batch(reads + [freeze] + helper, rng, size)
        x_tau, g_tau = stopped[len(rules)]
        for s, (x, g) in zip(reads, stopped):
            frozen = (s.k >= bound if isinstance(s, FixedIndexRule)
                      else np.logical_not(stopped[-1][1] >= s.level) if helper else True)
            if isinstance(freeze, HittingRule):
                frozen = frozen | ((x if freeze.side == "x" else g) >= freeze.level)
            np.copyto(g, g_tau, where=frozen)
            np.multiply(x_tau, frozen, out=x)  # X_tau is finite and >= 0
        return stopped[:len(rules)]


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
    def verdict(self) -> Verdict:
        """lhs <= rhs_constant * rhs, at 3 combined half-widths."""
        return Verdict(self.rhs_constant * self.rhs.value - self.lhs.value,
                       self.lhs.halfwidth + self.rhs_constant * self.rhs.halfwidth)

    @property
    def passed(self) -> bool:
        return self.verdict.passed

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
            "margin": self.verdict.margin,
            "ratio": self.ratio,
            "pass": self.passed,
        }


def inequality_setup(gen: _Generator, p: float, kind: ConstantKind):
    """(constant(kind, p), gen.sup_sampler(p)) of check_inequality's run.
    Raises ValueError, without drawing, where the check does not apply or its
    moments are no float64."""
    if kind is ConstantKind.MONOTONE and not gen.monotone_x:
        raise ValueError(f"{gen.name} does not produce non-decreasing X; the monotone "
                         "constant does not apply")
    rhs_constant = constant(kind, p)  # rejects p outside (0, 1)
    return rhs_constant, gen.sup_sampler(p)


def check_inequality(
    gen: _Generator,
    p: float,
    kind: ConstantKind,
    n_samples: int = 10**5,
    seed: int = 0,
    threads: int = 1,
) -> VerifierReport:
    """Certify E[(sup X)^p] <= constant(kind, p) * E[(sup G)^p] empirically,
    by the plain mean of n_samples draws."""
    rhs_constant, sampler = inequality_setup(gen, p, kind)
    lhs, rhs = estimate_pair(sampler, n_samples, seed, threads)
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

    def __call__(self, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """F(arr), written into out if given, which may be arr, by numpy's **:
        at p = 0.5 a square root, faster than np.power's loop, to the same bits."""
        if out is None:
            out = np.array(arr, dtype=float)
        elif out is not arr:
            np.copyto(out, arr)
        out **= self.p
        return out


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

    def __call__(self, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """F(arr), written into out if given, which may be arr: the sum of
        slope times the part of arr in each piece, accumulated piece by
        piece in a scratch array, with a second one for each piece's term."""
        arr = np.asarray(arr, dtype=float)
        acc = np.zeros_like(arr)
        seg = np.empty_like(arr)
        prev_break = 0.0
        for b, s in zip(self.breakpoints, self.slopes[:-1]):
            np.clip(arr, prev_break, b, out=seg)
            seg -= prev_break
            seg *= s
            acc += seg
            prev_break = b
        np.subtract(arr, prev_break, out=seg)
        np.maximum(seg, 0.0, out=seg)
        seg *= self.slopes[-1]
        return np.add(acc, seg, out=out)


def default_tau_battery(gen: _Generator, seed: int) -> list:
    """Deterministic stopping battery: fixed deciles of the horizon plus
    hitting levels at empirical quantiles of sup X and sup G over a pilot of
    2048 paths, drawn from chunk_rng(seed, PILOT_STREAM), the pilot's own
    stream domain, so it shares no draw with the estimation chunks. X and G
    never decrease, so the pilot reads their sups at the last index."""
    last = gen.last
    [(sup_x, sup_g)] = gen.stopped_batch([FixedIndexRule(last)],
                                         chunk_rng(seed, PILOT_STREAM), 2048)
    levels = [("x", level) for level in np.quantile(sup_x, (0.5, 0.9, 0.99))]
    levels.append(("g", np.quantile(sup_g, 0.5)))
    return ([FixedIndexRule(k=max(1, int(round(frac * last))))
             for frac in (0.1, 0.25, 0.5, 0.75, 1.0)]
            + [HittingRule(side, float(level)) for side, level in levels if level > 0])


def _battery_pass(gen: _Generator, columns, n_samples: int, seed: int,
                  r: float | None = None, **stop) -> list:
    """Estimates of a column pair at every rule of default_tau_battery(gen,
    seed), all rules evaluated on the same chunk streams. Rules with one
    read index (gen.read_index on g_row / g_divisor) stop equal columns, as
    do equal rules read path by path (None), so only the first of them is
    drawn, and its estimates go to each of them.

    A rule read path by path, and without an exponent r every rule, reduces
    columns(x_tau, g_tau) of one gen.stopped_batch(rules, rng, m, **stop)
    per chunk: only check_pratelli passes a stop, g_divisor=c. columns may
    overwrite the stopped arrays, the rows of one allocation and no other:
    freed, the block stays on glibc's heap for the next chunk, while an
    array per column is page-faulted in again in every chunk.

    With r (check_pratelli with a PowerF of exponent r < 1), a rule with a
    read index reduces the pair that gen.stopped_sup_sampler(rule, r,
    **stop) draws from the chunk's one stream, after the stopped batch:
    exact zeros at index 0, else the freeze's sampler_at(k, r), an exact x
    moment and, on a single-jump pair, the weighted g kernel. Their array
    columns are copied into the rows of one further allocation, so that
    each sampler's own block is freed before the next one draws: with the
    six kernel blocks of the extremal battery alive at once, glibc returned
    them to the operating system after every chunk, about 3 000 page faults
    per op at 2^17 draws (ru_minflt, 2-core x86_64). A chunk's array
    columns share one reduction (montecarlo.ChunkStream.rows): on a
    single-jump pair every rule has a read index, and every column is the
    kernel's, stratified at r = p and i.i.d. otherwise; on the walks every
    column is i.i.d.

    Returns (rule, (a, b)) pairs, one per rule, in battery order."""
    rules = default_tau_battery(gen, seed)
    g_row = gen.g_row / stop.get("g_divisor", 1.0)
    keys = [rule if (k := gen.read_index(rule, g_row)) is None else k for rule in rules]
    drawn = {key: rules[keys.index(key)] for key in keys}  # the first rule of each key
    by_path = [key for key in drawn if r is None or not isinstance(key, int)]
    at_index = [key for key in drawn if key not in by_path]
    path_rules = [drawn[key] for key in by_path]
    samplers = [gen.stopped_sup_sampler(drawn[key], r, **stop) for key in at_index]

    def paired(rng, m):
        stopped = gen.stopped_batch(path_rules, rng, m, **stop) if path_rules else []
        cols = [col for x_tau, g_tau in stopped for col in columns(x_tau, g_tau)]
        rows = iter(np.empty((2 * len(samplers), m)))
        for sampler in samplers:
            for col, row in zip(sampler(rng, m), rows):
                if not isinstance(col, float):
                    np.copyto(row, col)
                    col = row
                cols.append(col)
        return tuple(cols)

    estimates = estimate_pair(paired, n_samples, seed)
    pairs = dict(zip(by_path + at_index, zip(estimates[0::2], estimates[1::2])))
    return [(rule, pairs[key]) for rule, key in zip(rules, keys)]


def check_pratelli(
    gen: _Generator,
    F,
    c: float,
    n_samples: int = 10**5,
    seed: int = 0,
) -> VerifierReport:
    """Certify E[F(Y_tau)] <= (1+c) E[F(G_tau)] over a stopping battery.

    The generator must carry an exact compensator (exact_compensator), so
    that scaling g by 1/c realizes the hypothesis E[Y_tau] <= c E[(G/c)_tau];
    only such a generator's stopped_batch takes the g_divisor c, and the
    others are refused before any draw. With F = PowerF(r), r < 1, the two
    sides are the r-th sup moments of the pair stopped at each rule, so a
    rule with a read index k (on g / c) reads the pair that a freeze there
    draws (_battery_pass): on the extremal pair the monotone pair on
    [0, t_k], E[X_tau^r] exact and the weighted g kernel times c^-r, in
    stratified pairs at r = p and i.i.d. otherwise; on a walk the walk of k
    steps. PowerF(1), which the kernels refuse, PiecewiseLinearF and the
    walks' rules on x at a positive level read F of the stopped arrays.
    Returns the report of the binding (worst-margin) stopping time.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, not {c!r}")
    if not gen.exact_compensator:
        raise ValueError(
            f"{gen.name} does not guarantee the scaled domination hypothesis"
        )
    # their constructors check the concavity and F(0) = 0 the inequality needs
    if not isinstance(F, (PowerF, PiecewiseLinearF)):
        raise ValueError(f"F must be a PowerF or a PiecewiseLinearF, not {F!r}")
    # PowerF(1), which the kernels refuse, and PiecewiseLinearF write F into
    # the stopped arrays, the latter with two scratch columns per call
    r = F.p if isinstance(F, PowerF) and F.p < 1.0 else None
    battery = _battery_pass(gen, lambda x, g: (F(x, out=x), F(g, out=g)), n_samples,
                            seed, r, g_divisor=c)
    reports = [
        VerifierReport(lhs=lhs, rhs_constant=1.0 + c, rhs=rhs, constant_kind=None,
                       label=f"{gen.name}:pratelli:{rule.label()}")
        for rule, (lhs, rhs) in battery
    ]
    # the first of equal keys binds
    return min(reports, key=lambda r: r.verdict.slack)


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
        # E[X_tau] <= E[G_tau] fails by more than 3 standard errors
        return not Verdict(-self.diff, self.stderr).passed

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
    """Flag any excess of E[X_tau] over E[G_tau] beyond 3 stderr of x - g at
    each rule of a stopping battery; mean g is read as mean x - mean(x - g).
    Report only: generators satisfy the domination hypothesis by construction."""
    battery = _battery_pass(gen, lambda x, g: (x, np.subtract(x, g, out=g)),
                            n_samples, seed)
    entries = tuple(
        AuditEntry(tau_label=rule.label(), mean_x=mean_x.value,
                   mean_g=mean_x.value - diff.value, stderr=diff.halfwidth)
        for rule, (mean_x, diff) in battery
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
