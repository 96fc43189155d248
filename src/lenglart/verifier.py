"""Domination-pair generators and empirical inequality certification.

A generator guarantees, by construction, that its pair satisfies
E[X_tau] <= E[G_tau] for bounded stopping times. The checkers then certify
the p-th moment inequalities at the appropriate constant, with a pass rule
that tolerates Monte Carlo noise but nothing else: pass iff
lhs <= constant * rhs + 3 * combined half-widths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .extremal import (
    ExtremalParams,
    TimeGrid,
    discrete_path_batch,
    discrete_sup_sampler,
    exp_pair_path_batch,
    sharpness_sup_sampler,
)
from .montecarlo import (
    PLAIN,
    Estimate,
    EstimatorMethod,
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
    "generator_from_config",
    "VerifierReport",
    "AuditEntry",
    "AuditReport",
    "PowerF",
    "PiecewiseLinearF",
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
        if self.kind == "const" and self.c < 0:
            raise ValueError("constant jump must be non-negative")

    @property
    def mean(self) -> float:
        if self.kind == "bernoulli":
            return self.q
        if self.kind == "exp":
            return 1.0
        return self.c

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.kind == "bernoulli":
            return (rng.random(shape) < self.q).astype(float)
        if self.kind == "exp":
            return -np.log(rng.random(shape))
        return np.full(shape, self.c)


# ---------------------------------------------------------------------------
# Stopping rules on path batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedIndexRule:
    k: int

    def label(self) -> str:
        return f"fixed[{self.k}]"


@dataclass(frozen=True)
class HittingRule:
    side: str  # "x" or "g"
    level: float

    def label(self) -> str:
        return f"hit[{self.side}>={self.level:.4g}]"


def stopping_indices(rule, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-path stopping index; hitting rules cap at the final index."""
    last = x.shape[1] - 1
    if isinstance(rule, FixedIndexRule):
        if not (0 <= rule.k <= last):
            raise ValueError("fixed stopping index outside the grid")
        return np.full(x.shape[0], rule.k)
    arr = x if rule.side == "x" else g
    hit_mask = arr >= rule.level
    idx = hit_mask.argmax(axis=1)
    return np.where(hit_mask.any(axis=1), idx, last)


def _stopped(rule, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_tau, g_tau) per path under a stopping rule."""
    tau = stopping_indices(rule, x, g)
    rows = np.arange(x.shape[0])
    return x[rows, tau], g[rows, tau]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


# time points per unit of the extremal generator's path grid
_GRID_POINTS_PER_UNIT = 8


class _Generator:
    monotone_x = False
    exact_compensator = False
    name = "generator"

    def sup_sampler(self, r: float):
        """(rng, m) -> two arrays whose means are E[(sup X)^r] and
        E[(sup G)^r]. Unit-weight generators return the r-th powers of the
        sups, and r = 1 the sups themselves; the extremal ones return
        importance-weighted values, of which only the mean is the moment."""
        raise NotImplementedError

    def path_batch(self, rng: np.random.Generator, size: int):
        """(x, g) arrays of shape (size, n_points)."""
        raise NotImplementedError(f"{self.name} has no path representation")


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
        grid = TimeGrid(step=1.0 / _GRID_POINTS_PER_UNIT, horizon=self.params.n)
        return exp_pair_path_batch(self.params, grid, rng, size)


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


@dataclass(frozen=True)
class CompensatedBernoulliGenerator(_Generator):
    """Random walk of non-negative i.i.d. jumps with its deterministic
    (hence predictable) compensator G_k = k E[J]; optional stopping makes
    E[X_tau] = E[G_tau] exact for bounded tau."""

    jump: JumpLaw
    steps: int

    monotone_x = True
    exact_compensator = True
    name = "compensated_bernoulli"

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("need at least one step")

    def sup_sampler(self, r=1.0):
        jump, k = self.jump, self.steps
        sup_g = k * jump.mean

        def sampler(rng, m):
            if jump.kind == "bernoulli":
                sup_x = rng.binomial(k, jump.q, m).astype(float)
            elif jump.kind == "exp":
                sup_x = rng.standard_gamma(k, m)
            else:
                sup_x = np.full(m, k * jump.c)
            return sup_x**r, np.full(m, sup_g) ** r

        return sampler

    def path_batch(self, rng, size):
        jumps = self.jump.sample(rng, (size, self.steps))
        x = np.concatenate([np.zeros((size, 1)), np.cumsum(jumps, axis=1)], axis=1)
        g = np.tile(np.arange(self.steps + 1) * self.jump.mean, (size, 1))
        return x, g


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
            x_tau, g_tau = _stopped(self.rule, *self.inner.path_batch(rng, m))
            return x_tau**r, g_tau**r

        return sampler

    def path_batch(self, rng, size):
        x, g = self.inner.path_batch(rng, size)
        tau = stopping_indices(self.rule, x, g)
        cols = np.arange(x.shape[1])[None, :]
        rows = np.arange(size)
        x_tau = x[rows, tau][:, None]
        g_tau = g[rows, tau][:, None]
        x_hat = np.where(cols >= tau[:, None], x_tau, 0.0)
        g_hat = np.where(cols >= tau[:, None], g_tau, g)
        return x_hat, g_hat


def generator_from_config(cfg: dict) -> _Generator:
    """Build a generator from a JSON-style description."""
    kind = cfg.get("kind")
    if kind == "extremal":
        return ExtremalGenerator(ExtremalParams(p=cfg["p"], n=int(cfg["n"])))
    if kind == "discrete_extremal":
        return DiscreteExtremalGenerator(
            ExtremalParams(p=cfg["p"], n=int(cfg["n"])), level_N=int(cfg["level_N"])
        )
    if kind == "compensated_bernoulli":
        jump = JumpLaw(
            kind=cfg.get("jump", "bernoulli"),
            q=cfg.get("q", 0.5),
            c=cfg.get("c", 1.0),
        )
        return CompensatedBernoulliGenerator(jump=jump, steps=int(cfg["steps"]))
    if kind == "hatx_of":
        inner = generator_from_config(cfg["inner"])
        rule_cfg = cfg["rule"]
        if "k" in rule_cfg:
            rule = FixedIndexRule(k=int(rule_cfg["k"]))
        else:
            rule = HittingRule(side=rule_cfg["side"], level=float(rule_cfg["level"]))
        return HatXGenerator(inner=inner, rule=rule)
    raise ValueError(f"unknown generator kind {kind!r}")


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
    def ratio(self) -> float:
        return self.lhs.value / self.rhs.value

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
    if kind is ConstantKind.MONOTONE and not gen.monotone_x:
        raise ValueError(
            f"{gen.name} does not produce non-decreasing X; the monotone "
            "constant does not apply"
        )
    rhs_constant = constant(kind, p)  # rejects p outside (0, 1) before any draw
    if method is None:
        method = default_method(p)
    lhs, rhs = estimate_pair(gen.sup_sampler(p), n_samples, method, seed, threads)
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
                  g_divisor: float) -> list:
    """Estimates of columns(x_tau, g_tau), a tuple of arrays, at every rule
    of the stopping battery, all rules evaluated on the same paths. The
    battery is built on a 2048-path pilot drawn from Philox(key=seed); on
    the estimation paths g is divided by g_divisor before stopping, so a
    hitting rule on g stops on the scaled g. Returns (rule, estimates)
    pairs, one per rule."""
    pilot_x, pilot_g = gen.path_batch(np.random.Generator(np.random.Philox(key=seed)), 2048)
    rules = default_tau_battery(pilot_x, pilot_g)

    def paired(rng, m):
        x, g = gen.path_batch(rng, m)
        g = g / g_divisor
        return tuple(col for rule in rules for col in columns(*_stopped(rule, x, g)))

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
    if c <= 0:
        raise ValueError("c must be positive")
    if not gen.exact_compensator:
        raise ValueError(
            f"{gen.name} does not guarantee the scaled domination hypothesis"
        )
    if not callable(F):
        raise ValueError("F must be callable (PowerF or PiecewiseLinearF)")
    battery = _battery_pass(gen, lambda x, g: (F(x), F(g)), n_samples, seed, g_divisor=c)
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
    battery = _battery_pass(gen, lambda x, g: (x, g, x - g), n_samples, seed, g_divisor=1.0)
    entries = tuple(
        AuditEntry(tau_label=rule.label(), mean_x=mean_x.value, mean_g=mean_g.value,
                   stderr=diff.halfwidth)
        for rule, (mean_x, mean_g, diff) in battery
    )
    return AuditReport(generator=gen.name, entries=entries)


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracles (small Bernoulli walks)
# ---------------------------------------------------------------------------


def enumerate_jump_sup_moments(q: float, steps: int, p: float) -> tuple[float, float]:
    """Exact (E[(sup X)^p], E[(sup G)^p]) for the Bernoulli compensated walk
    by exhaustive enumeration over all 2^steps outcome paths."""
    if steps > 20:
        raise ValueError("enumeration limited to 20 steps")
    e_x = 0.0
    sup_g = steps * q
    for outcome in itertools.product((0, 1), repeat=steps):
        k = sum(outcome)
        prob = q**k * (1 - q) ** (steps - k)
        e_x += prob * (float(k) ** p if k > 0 else 0.0)
    return e_x, sup_g**p


def enumerate_jump_stopping_means(q: float, steps: int, rule) -> tuple[float, float]:
    """Exact (E[X_tau], E[G_tau]) for the Bernoulli compensated walk under a
    stopping rule, by exhaustive enumeration."""
    if steps > 20:
        raise ValueError("enumeration limited to 20 steps")
    e_x = 0.0
    e_g = 0.0
    for outcome in itertools.product((0, 1), repeat=steps):
        k = sum(outcome)
        prob = q**k * (1 - q) ** (steps - k)
        path = np.concatenate([[0.0], np.cumsum(outcome)])
        g = np.arange(steps + 1) * q
        x_tau, g_tau = _stopped(rule, path[None, :], g[None, :])
        e_x += prob * x_tau[0]
        e_g += prob * g_tau[0]
    return e_x, e_g
