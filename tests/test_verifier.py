"""Generators, stopping rules, inequality checks and enumeration oracles."""

import inspect
import math
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import binom
from test_extremal import discrete_rhs, g_moment

from lenglart import extremal, verifier
from lenglart.cli import generator_from_config
from lenglart.extremal import (
    ExtremalParams,
    discrete_path_batch,
    discrete_stopped,
    exp_pair_path_batch,
    exp_pair_stopped,
)
from lenglart.montecarlo import (
    CHUNK,
    PILOT_STREAM,
    PLAIN,
    chunk_rng,
    estimate_from_values,
    estimate_pair,
    median_of_means,
)
from lenglart.oracles import ConstantKind, constant
from lenglart.verifier import (
    CompensatedBernoulliGenerator,
    DiscreteExtremalGenerator,
    ExtremalGenerator,
    FixedIndexRule,
    HatXGenerator,
    HittingRule,
    JumpLaw,
    PiecewiseLinearF,
    PowerF,
    VerifierReport,
    check_inequality,
    check_pratelli,
    domination_audit,
    enumerate_jump_stopping_means,
    enumerate_jump_sup_moments,
    stopping_indices,
)


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def dense_stopped(rule, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_tau, g_tau) per path of the path matrices x and g under a rule."""
    tau = stopping_indices(rule, x, g)
    rows = np.arange(x.shape[0])
    return x[rows, tau], g[rows, tau]


def dense_paths(gen, rng, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The (size, last + 1) path matrices of x and g whose stopped values
    gen.stopped_batch returns, drawn from rng as it draws them; a freeze
    is applied to its inner pair's matrices."""
    if isinstance(gen, HatXGenerator):
        x, g = dense_paths(gen.inner, rng, size)
        tau = stopping_indices(gen.rule, x, g)
        x_tau, g_tau = x[np.arange(size), tau, None], g[np.arange(size), tau, None]
        after = np.arange(x.shape[1]) >= tau[:, None]
        return np.where(after, x_tau, 0.0), np.where(after, g_tau, g)
    if isinstance(gen, ExtremalGenerator):
        return exp_pair_path_batch(gen.params, verifier._GRID_LEVEL, rng, size)
    if isinstance(gen, DiscreteExtremalGenerator):
        return discrete_path_batch(gen.params, gen.level_N, rng, size)
    return gen.path_batch(rng, size)


def dense_stopped_batch(gen, rules, rng, size: int, g_divisor: float = 1.0) -> list:
    """gen.stopped_batch's values, from stopping gen's path matrices."""
    x, g = dense_paths(gen, rng, size)
    g = g / g_divisor
    return [dense_stopped(rule, x, g) for rule in rules]


@dataclass(frozen=True)
class ScaledCompensatorGenerator(CompensatedBernoulliGenerator):
    """The compensated walk with its compensator scaled by scale, stopped by
    the walk's closed form at g_divisor / scale: below scale 1,
    E[X_tau] = E[G_tau] / scale > E[G_tau], so the domination hypothesis
    fails and a checker must say so."""

    scale: float = 1.0

    def stopped_batch(self, rules, rng, size, g_divisor=1.0):
        return super().stopped_batch(rules, rng, size, g_divisor / self.scale)


@dataclass(frozen=True)
class ScaledStoppedXGenerator(ExtremalGenerator):
    """The extremal pair with each stopped x row scaled by factor after its
    closed-form stopping: above factor 1, E[X_tau] = factor E[G_tau] >
    E[G_tau] at every rule, so the audit must say so. Unlike
    ScaledCompensatorGenerator, the checkers take the closed-form route."""

    factor: float = 1.0

    def stopped_batch(self, rules, rng, size, g_divisor=1.0):
        stopped = super().stopped_batch(rules, rng, size, g_divisor)
        for x_tau, _ in stopped:
            x_tau *= self.factor
        return stopped


@dataclass(frozen=True)
class CountingGenerator(CompensatedBernoulliGenerator):
    """The compensated walk, recording the size of every batch stopped."""

    sizes: list = field(default_factory=list, compare=False)

    def stopped_batch(self, rules, rng, size, g_divisor=1.0):
        self.sizes.append(size)
        return super().stopped_batch(rules, rng, size, g_divisor)


# unscaled, each checker passes with a wide margin (audit: max z 0.05;
# Pratelli: margin +246 combined half-widths); scaled, it must fail (audit:
# an excess of 64 stderr at g x 0.8; Pratelli: margin -192 at g x 0.1)
FALSIFIED_WALK = dict(jump=JumpLaw("bernoulli", q=0.3), steps=12)


class TestJumpLaw:
    def test_means(self):
        assert JumpLaw("bernoulli", q=0.3).mean == 0.3
        assert JumpLaw("exp").mean == 1.0
        assert JumpLaw("const", c=2.0).mean == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            JumpLaw("poisson")
        with pytest.raises(ValueError):
            JumpLaw("bernoulli", q=0.0)
        with pytest.raises(ValueError):
            JumpLaw("const", c=-1.0)
        for c in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="c must be finite"):
                JumpLaw("const", c=c)

    def test_sample_means(self):
        for law in (JumpLaw("bernoulli", q=0.3), JumpLaw("exp"), JumpLaw("const", c=2.0)):
            draws = law.sample(rng_of(1), 100_000)
            assert draws.min() >= 0
            se = draws.std() / math.sqrt(draws.size) + 1e-12
            assert abs(draws.mean() - law.mean) < 4.0 * se + 1e-12


class TestStoppingRules:
    def test_fixed(self):
        x = np.zeros((3, 5))
        g = np.zeros((3, 5))
        np.testing.assert_array_equal(stopping_indices(FixedIndexRule(k=2), x, g), [2, 2, 2])
        with pytest.raises(ValueError):
            stopping_indices(FixedIndexRule(k=9), x, g)

    def test_hitting_caps_at_end(self):
        x = np.array([[0.0, 1.0, 3.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
        g = np.tile(np.arange(4.0), (2, 1))
        idx = stopping_indices(HittingRule(side="x", level=2.0), x, g)
        np.testing.assert_array_equal(idx, [2, 3])
        idx_g = stopping_indices(HittingRule(side="g", level=2.5), x, g)
        np.testing.assert_array_equal(idx_g, [3, 3])

    def test_labels(self):
        assert FixedIndexRule(k=2).label() == "fixed[2]"
        assert "hit[x>=" in HittingRule(side="x", level=1.0).label()


def enumerated_walks(q: float, steps: int):
    """Every Bernoulli walk of the given steps: (probabilities, x, g), x and g
    of shape (2^steps, steps + 1), by brute force over the jump bits."""
    bits = (np.arange(2**steps)[:, None] >> np.arange(steps)) & 1
    successes = bits.sum(axis=1)
    prob = q**successes * (1.0 - q) ** (steps - successes)
    x = np.zeros((2**steps, steps + 1))
    x[:, 1:] = np.cumsum(bits, axis=1)
    return prob, x, np.broadcast_to(np.arange(steps + 1) * q, x.shape)


class TestEnumeration:
    """The closed-form walk oracles, against scipy's binomial pmf and a
    brute-force enumeration of all 2^steps walks."""

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_sup_moment_matches_binomial_formula(self, p):
        # independent oracle: sup X = Binomial(steps, q) for monotone jumps
        q, steps = 0.3, 12
        e_x, e_g = enumerate_jump_sup_moments(q, steps, p)
        ks = np.arange(steps + 1)
        ref = float((ks.astype(float) ** p * binom.pmf(ks, steps, q)).sum())
        assert e_x == pytest.approx(ref, abs=1e-12)
        assert e_g == pytest.approx((steps * q) ** p, abs=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_inequalities_hold_exactly(self, p):
        e_x, e_g = enumerate_jump_sup_moments(0.3, 12, p)
        assert e_x <= constant(ConstantKind.LENGLART, p) * e_g
        assert e_x <= constant(ConstantKind.MONOTONE, p) * e_g

    def test_optional_stopping_is_exact(self):
        # X - G is a martingale, so E[X_tau] = E[G_tau] for every bounded tau
        for rule in (
            FixedIndexRule(k=4),
            FixedIndexRule(k=12),
            HittingRule(side="x", level=2.0),
            HittingRule(side="g", level=1.0),
        ):
            e_x, e_g = enumerate_jump_stopping_means(0.3, 12, rule)
            assert e_x == pytest.approx(e_g, abs=1e-12)

    def test_step_limit(self):
        # the closed forms serve every walk the generator accepts, up to its
        # step cap
        steps = verifier._MAX_WALK_STEPS
        assert enumerate_jump_sup_moments(0.3, steps, 1.0)[0] == pytest.approx(0.3 * steps,
                                                                                rel=1e-12)
        e_x, e_g = enumerate_jump_stopping_means(0.3, steps, HittingRule("x", 0.5 * steps))
        assert e_x == e_g == pytest.approx(0.3 * steps, rel=1e-12)
        with pytest.raises(ValueError, match="steps must lie"):
            CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=steps + 1)

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("steps", [1, 2, 5, 12])
    def test_sup_moments(self, q, steps):
        prob, x, _ = enumerated_walks(q, steps)
        for p in (0.3, 0.5, 1.0):
            e_x, e_g = enumerate_jump_sup_moments(q, steps, p)
            assert e_x == pytest.approx(prob @ x[:, -1] ** p, rel=1e-14, abs=1e-14)
            assert e_g == pytest.approx((steps * q) ** p, rel=1e-14)

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("steps", [1, 2, 5, 12])
    def test_stopping_means(self, q, steps):
        prob, x, g = enumerated_walks(q, steps)
        levels = [-math.inf, -1.0, 0.0, 0.5, 1.0, 2.5, 3.0, steps * q, steps, steps + 0.5,
                  math.inf, math.nan]
        rules = ([FixedIndexRule(k) for k in range(steps + 1)]
                 + [HittingRule(side, level) for side in ("x", "g") for level in levels])
        for rule in rules:
            x_tau, g_tau = dense_stopped(rule, x, g)
            e_x, e_g = enumerate_jump_stopping_means(q, steps, rule)
            assert e_x == pytest.approx(prob @ x_tau, rel=1e-14, abs=1e-14), rule
            assert e_g == pytest.approx(prob @ g_tau, rel=1e-14, abs=1e-14), rule


class Uniforms:
    """Stands in for a Generator whose random(size) returns given uniforms."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def uniforms_hitting(z_targets) -> list:
    """Uniforms u with -log(u) exactly a target z, for the targets that have
    one within 64 ulps of exp(-z)."""
    found = []
    for z in z_targets:
        u = np.full(129, math.exp(-z))
        u += np.arange(-64, 65) * np.spacing(u[0])
        hit = u[-np.log(u) == z]
        if hit.size:
            found.append(hit[0])
    return found


# (dense batch, closed-form stopping, g divisors) for both single-jump pairs:
# only the exponential pair, which has an exact compensator, divides g
JUMP_PAIRS = [(exp_pair_path_batch, exp_pair_stopped, [1.0, 0.5, 3.0]),
              (discrete_path_batch, discrete_stopped, [1.0])]


class TestClosedFormStopping:
    """The jump generators stop their paths in closed form, without
    building them. The stopped values must equal stopping the dense paths
    built from the same draws, element for element."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), pair=st.sampled_from(JUMP_PAIRS), n=st.integers(1, 12),
           level_N=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_stopping(self, data, pair, n, level_N, seed):
        dense, closed, divisors = pair
        divisor = data.draw(st.sampled_from(divisors), label="divisor")
        p = data.draw(st.floats(n / 700, 1.0, exclude_max=True), label="p")
        params = ExtremalParams(p=p, n=n)
        t = np.arange(n * 2**level_N + 1) * 2.0**-level_N
        # Philox rows, rows jumping exactly on a grid point, rows with z > n
        on_grid = data.draw(st.lists(st.sampled_from(list(t[1:])), max_size=6), label="on_grid")
        u = np.concatenate([
            rng_of(seed).random(data.draw(st.integers(1, 24), label="rows")),
            uniforms_hitting(on_grid),
            [0.5 * math.exp(-n), math.exp(-n - 1e-9), 1e-300, 0.0],
        ])
        x, g = dense(params, level_N, Uniforms(u), u.size)
        g = g / divisor
        above = np.nextafter(max(x.max(), g.max()), np.inf)
        specials = [0.0, -1.0, math.nan, above]
        x_levels = specials + data.draw(
            st.lists(st.sampled_from(list(x[:, -1])), max_size=4), label="x_levels")
        # every value g takes on a row without a jump, and frozen values
        g_values = list(g[-1]) + list(g[:, -1])
        g_levels = specials + data.draw(
            st.lists(st.sampled_from(g_values), max_size=8), label="g_levels")
        rules = ([FixedIndexRule(k) for k in range(t.size)]
                 + [HittingRule("x", level) for level in x_levels]
                 + [HittingRule("g", level) for level in g_levels])
        got = (closed(params, level_N, rules, Uniforms(u), u.size) if divisor == 1.0
               else closed(params, level_N, rules, Uniforms(u), u.size, divisor))
        assert len(got) == len(rules)
        for rule, (x_tau, g_tau) in zip(rules, got):
            want_x, want_g = dense_stopped(rule, x, g)
            assert np.array_equal(x_tau, want_x), rule
            assert np.array_equal(g_tau, want_g), rule

    def test_uniforms_reach_the_grid(self):
        # the grid points the property test aims at are mostly reachable
        t = np.arange(1, 12 * 16 + 1) / 16.0
        assert len(uniforms_hitting(t)) > 0.9 * t.size

    # the discrete pair takes no divisor, and stops its g undivided
    @pytest.mark.parametrize(("gen", "divided"), [
        pytest.param(ExtremalGenerator(ExtremalParams(p=0.5, n=10)), (1.0,), id="1.0-gen0"),
        pytest.param(ExtremalGenerator(ExtremalParams(p=0.5, n=10)), (0.5,), id="0.5-gen0"),
        pytest.param(DiscreteExtremalGenerator(ExtremalParams(p=0.3, n=4), level_N=2), (),
                     id="1.0-gen1"),
    ])
    def test_generator_draws_what_path_batch_draws(self, gen, divided):
        rng_closed, rng_dense = rng_of(7), rng_of(7)
        rules = verifier.default_tau_battery(gen, 1)
        got = gen.stopped_batch(rules, rng_closed, 4096, *divided)
        want = dense_stopped_batch(gen, rules, rng_dense, 4096, *divided)
        for (x_tau, g_tau), (want_x, want_g) in zip(got, want, strict=True):
            assert np.array_equal(x_tau, want_x) and np.array_equal(g_tau, want_g)
        assert rng_closed.random() == rng_dense.random()

    @pytest.mark.parametrize(("gen", "match"), [
        (ExtremalGenerator(ExtremalParams(p=0.01, n=10)), "DBL_MAX"),
        (DiscreteExtremalGenerator(ExtremalParams(p=0.01, n=10), level_N=3), "DBL_MAX"),
        (DiscreteExtremalGenerator(ExtremalParams(p=0.5, n=4), level_N=-1), "level_N"),
        (ExtremalGenerator(ExtremalParams(p=0.5, n=4)), "outside the grid"),
    ])
    def test_closed_form_refuses(self, gen, match):
        with pytest.raises(ValueError, match=match):
            gen.stopped_batch([FixedIndexRule(k=33)], rng_of(0), 16)


class TestStoppedBlock:
    """Every closed-form stopped_batch returns its columns as the rows of one
    allocation: distinct and writable, as estimate_pair needs them, and
    with no other array of the batch's size left behind."""

    GENERATORS = [
        ExtremalGenerator(ExtremalParams(p=0.5, n=10)),
        DiscreteExtremalGenerator(ExtremalParams(p=0.3, n=4), level_N=2),
        CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12),
        CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=5),
        CompensatedBernoulliGenerator(jump=JumpLaw("const", c=1.5), steps=3),
    ]
    RULES = [FixedIndexRule(0), FixedIndexRule(2), FixedIndexRule(2), HittingRule("x", 2.5),
             HittingRule("x", 0.0), HittingRule("g", 1.0), HittingRule("g", math.nan)]

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda gen: gen.name)
    @pytest.mark.parametrize("n_rules", [1, 2, len(RULES)])
    def test_columns_share_one_allocation(self, gen, n_rules):
        rules, size = self.RULES[:n_rules], 1000
        divided = (0.5,) if gen.exact_compensator else ()  # the discrete pair takes none
        got = gen.stopped_batch(rules, rng_of(2), size, *divided)
        arrays = [a for pair in got for a in pair]
        assert len(got) == n_rules
        assert all(a.shape == (size,) and a.flags.writeable and a.flags.c_contiguous
                   for a in arrays)
        base = arrays[0].base
        assert base is not None and all(a.base is base for a in arrays)
        assert base.nbytes == 2 * n_rules * size * 8
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    @pytest.mark.parametrize("gen", GENERATORS[:2], ids=lambda gen: gen.name)
    def test_single_jump_route_allocates_the_block_and_the_draws(self, gen):
        # the jump times are the one array of size doubles besides the
        # block; a mask of size bytes, numpy's cast buffers and the grid
        # rows are all the rest, less than half a column
        size = 1 << 15
        gen.stopped_batch(self.RULES, rng_of(1), size)  # numpy's one-time set-up
        tracemalloc.start()
        try:
            gen.stopped_batch(self.RULES, rng_of(1), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * len(self.RULES) + 1.5) * size * 8


WALK_LAWS = [JumpLaw("bernoulli", q=0.3), JumpLaw("bernoulli", q=0.7),
             JumpLaw("bernoulli", q=1.0), JumpLaw("exp"), JumpLaw("const", c=1.5)]


def law_id(law: JumpLaw) -> str:
    return {"bernoulli": f"bernoulli{law.q}", "const": f"const{law.c}"}.get(law.kind, law.kind)


class TestWalkClosedForm:
    """The walks stop without building their paths, and draw sup X without
    them. The stopped values must equal stopping the paths drawn from the
    same stream, element for element, and leave the stream where those
    leave it; the Bernoulli sups are rng.binomial's draws wherever numpy
    inverts the cdf."""

    @pytest.mark.parametrize("law", WALK_LAWS, ids=law_id)
    @pytest.mark.parametrize("steps", [1, 5, 12, 20])
    @pytest.mark.parametrize("divisor", [1.0, 0.5])
    @pytest.mark.parametrize("block_cells", [verifier._WALK_BLOCK_CELLS, 1000])
    def test_matches_dense_stopping(self, monkeypatch, law, steps, divisor, block_cells):
        monkeypatch.setattr(verifier, "_WALK_BLOCK_CELLS", block_cells)
        gen = CompensatedBernoulliGenerator(jump=law, steps=steps)
        size = 2500
        x, g = gen.path_batch(rng_of(9), size)
        g_row = g[0] / divisor
        # x at 0, at levels it reaches (on a row and between rows), never;
        # g at each of its values, between two, never
        x_levels = [0.0, -1.0, float(np.median(x[:, -1])), float(x[size // 2, steps // 2]),
                    0.37 * steps * law.mean + 0.1, float(x.max()) + 1.0, math.inf, math.nan]
        g_levels = [*g_row, 0.5 * (g_row[0] + g_row[-1]) + 1e-9, -1.0, g_row[-1] + 1.0,
                    math.nan]
        rules = ([FixedIndexRule(k) for k in sorted({0, 1, steps // 2, steps})]
                 + [FixedIndexRule(steps // 2)]  # a duplicate gets its own arrays
                 + [HittingRule("x", level) for level in x_levels]
                 + [HittingRule("g", level) for level in g_levels])
        rng_closed, rng_dense = rng_of(3), rng_of(3)
        got = gen.stopped_batch(rules, rng_closed, size, divisor)
        want = dense_stopped_batch(gen, rules, rng_dense, size, divisor)
        for rule, (x_tau, g_tau), (want_x, want_g) in zip(rules, got, want, strict=True):
            assert np.array_equal(x_tau, want_x), rule
            assert np.array_equal(g_tau, want_g), rule
        assert rng_closed.random() == rng_dense.random()
        arrays = [a for pair in got for a in pair]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    @pytest.mark.parametrize("law", [JumpLaw("bernoulli", q=0.3), JumpLaw("exp")], ids=law_id)
    @pytest.mark.parametrize("steps", [300, 1000])
    def test_long_walks_match_dense_stopping(self, law, steps):
        # past 256 steps a block holds _WALK_BLOCK_ROWS rows, more than
        # _WALK_BLOCK_CELLS / steps: 600 rows are two whole blocks and a part
        gen = CompensatedBernoulliGenerator(jump=law, steps=steps)
        size = 600
        x, _ = gen.path_batch(rng_of(9), size)
        rules = [FixedIndexRule(steps // 2), FixedIndexRule(steps),
                 HittingRule("x", float(np.median(x[:, -1]))),
                 HittingRule("g", 0.4 * steps * law.mean)]
        rng_closed, rng_dense = rng_of(4), rng_of(4)
        got = gen.stopped_batch(rules, rng_closed, size)
        want = dense_stopped_batch(gen, rules, rng_dense, size)
        for rule, (x_tau, g_tau), (want_x, want_g) in zip(rules, got, want, strict=True):
            assert np.array_equal(x_tau, want_x), rule
            assert np.array_equal(g_tau, want_g), rule
        assert rng_closed.random() == rng_dense.random()

    def test_refuses_index_outside_the_walk(self):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=4)
        with pytest.raises(ValueError, match="outside the grid"):
            gen.stopped_batch([FixedIndexRule(k=5)], rng_of(0), 16)

    # every case where numpy's binomial inverts the cdf with one double per
    # draw, 0 < min(q, 1 - q) * steps <= 30; it draws by rejection above
    BINOMIAL_CASES = [(steps, q)
                      for q in (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 1.0)
                      for steps in (1, 2, 3, 5, 8, 12, 20, 30, 40, 60, 100, 200, 300, 600,
                                    1000, 3000)
                      if 0 < min(q, 1 - q) * steps <= 30]

    @pytest.mark.parametrize(("steps", "q"), BINOMIAL_CASES)
    def test_binomial_sampler_is_numpys(self, steps, q):
        # wherever numpy inverts, the table of this package's own cdf draws
        # what rng.binomial draws from the same stream, so the outputs of
        # those walks are unchanged; the package itself never calls it
        rng_table, rng_numpy = rng_of(steps), rng_of(steps)
        got = verifier._binomial_sampler(steps, q)(rng_table, 50_000)
        want = rng_numpy.binomial(steps, q, 50_000).astype(float)
        assert np.array_equal(got, want)
        assert rng_table.random() == rng_numpy.random()

    @pytest.mark.parametrize("law", WALK_LAWS, ids=law_id)
    @pytest.mark.parametrize("r", [1.0, 0.5, 0.3])
    def test_sup_sampler_is_the_last_value(self, law, r):
        # the binomial table's or the Gamma draws, with full arrays raised to
        # r; sup G = 12 E[J] on every path, and so is sup X for constant
        # jumps, and those sides are their exact moments, floats
        gen = CompensatedBernoulliGenerator(jump=law, steps=12)
        sup_x, sup_g = gen.sup_sampler(r)(rng_of(5), 4000)
        assert type(sup_g) is float and sup_g == (12 * law.mean) ** r
        if law.kind == "const":
            assert sup_x == sup_g
            return
        rng = rng_of(5)
        if law.kind == "bernoulli":
            want_x = verifier._binomial_sampler(12, law.q)(rng, 4000)
        else:
            want_x = rng.standard_gamma(12, 4000)
        assert np.array_equal(sup_x, want_x**r)


# inner pairs of the freeze tests: both single-jump pairs, the three walk
# laws, and freezes of a walk and of the discrete pair
FREEZE_INNERS = [
    ExtremalGenerator(ExtremalParams(p=0.5, n=2)),
    DiscreteExtremalGenerator(ExtremalParams(p=0.3, n=2), level_N=2),
    CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12),
    CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=7),
    CompensatedBernoulliGenerator(jump=JumpLaw("const", c=1.5), steps=5),
    HatXGenerator(CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.5), steps=9),
                  HittingRule("x", 3.0)),
    HatXGenerator(DiscreteExtremalGenerator(ExtremalParams(p=0.5, n=3), level_N=1),
                  FixedIndexRule(4)),
]


class TestFreezeClosedForm:
    """hatx_of stops the frozen pair from its inner pair's stopped values,
    without paths. They must equal freezing the dense paths drawn from the
    same stream and stopping those, element for element, and leave the
    stream where those leave it."""

    @staticmethod
    def rule_on(data, x, g, label):
        """A fixed index, or a hitting rule on x or g at a level <= 0, NaN,
        above every value, at a value of the paths or next to one."""
        kind = data.draw(st.sampled_from(["fixed", "x", "g"]), label=f"{label} kind")
        if kind == "fixed":
            return FixedIndexRule(data.draw(st.integers(0, x.shape[1] - 1), label=label))
        values = x if kind == "x" else g
        level = data.draw(st.one_of(
            st.sampled_from([0.0, -1.0, math.nan, float(np.nextafter(values.max(), np.inf))]),
            st.sampled_from(np.unique(values).tolist()).flatmap(lambda v: st.sampled_from(
                [v, float(np.nextafter(v, -np.inf)), float(np.nextafter(v, np.inf))]))),
            label=label)
        return HittingRule(kind, level)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), inner=st.sampled_from(FREEZE_INNERS),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_freezing_dense_paths(self, data, inner, seed):
        size = 48
        freeze = self.rule_on(data, *dense_paths(inner, rng_of(seed), size), "freeze")
        gen = HatXGenerator(inner, freeze)
        x, g = dense_paths(gen, rng_of(seed), size)
        rules = [self.rule_on(data, x, g, f"rule {i}")
                 for i in range(data.draw(st.integers(0, 8), label="rules"))]
        rng_closed, rng_dense = rng_of(seed), rng_of(seed)
        got = gen.stopped_batch(rules, rng_closed, size)
        want = dense_stopped_batch(gen, rules, rng_dense, size)
        for rule, (x_tau, g_tau), (want_x, want_g) in zip(rules, got, want, strict=True):
            assert np.array_equal(x_tau, want_x), rule
            assert np.array_equal(g_tau, want_g, equal_nan=True), rule
        assert rng_closed.random() == rng_dense.random()
        arrays = [a for pair in got for a in pair]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    @pytest.mark.parametrize(("inner", "rule", "match"), [
        (FREEZE_INNERS[2], FixedIndexRule(13), "outside the grid"),
        (FREEZE_INNERS[2], FixedIndexRule(-1), "outside the grid"),
        (FREEZE_INNERS[5], FixedIndexRule(10), "outside the grid"),
        (ExtremalGenerator(ExtremalParams(p=0.01, n=10)), FixedIndexRule(3), "DBL_MAX"),
        (DiscreteExtremalGenerator(ExtremalParams(p=0.5, n=4), level_N=-1),
         HittingRule("x", 2.0), "level_N"),
    ], ids=["past-the-walk", "negative", "past-the-nested-walk", "overflow", "level_N"])
    def test_refused_at_construction(self, inner, rule, match):
        # what stopping the inner paths would refuse at the first draw
        with pytest.raises(ValueError, match=match):
            HatXGenerator(inner, rule)


def freeze_rules(inner) -> list:
    """Fixed indices at 0, mid-grid (a fractional grid time on the
    single-jump pairs) and last; a g rule whose level lies between two
    values of g's grid row; hitting rules on x at 0, below 0 and at NaN;
    and on every generator but a walk, on x at a positive level."""
    last, g_row = inner.last, inner.g_row
    mid = last // 2 + 1
    rules = [FixedIndexRule(0), FixedIndexRule(mid), FixedIndexRule(last),
             HittingRule("g", float(g_row[mid - 2:mid].mean())),
             HittingRule("x", 0.0), HittingRule("x", -1.0), HittingRule("x", math.nan)]
    if not isinstance(inner, CompensatedBernoulliGenerator):
        rules.append(HittingRule("x", 3.0))
    return rules


def exact_stopped_moments(inner, rule, r: float):
    """(E[X_tau^r], E[G_tau^r]) for the inner pair stopped by rule, where
    the rule stops or reads every path at one grid index k: the walk of k
    steps, or the monotone pair on [0, t_k]. None for a walk stopped where
    x reaches a positive level, and for a freeze."""
    if isinstance(inner, HatXGenerator):
        return None
    if isinstance(inner, CompensatedBernoulliGenerator):
        k, law = rule.common_index(inner.g_row), inner.jump
        if k is None:
            return None
        if law.kind == "bernoulli":
            return enumerate_jump_sup_moments(law.q, k, r)
        # E[Gamma(k)^r] = Gamma(k + r) / Gamma(k)
        x = (k * law.c) ** r if law.kind == "const" else (
            math.exp(math.lgamma(k + r) - math.lgamma(k)) if k else 0.0)
        return x, float(k * law.mean) ** r
    discrete = isinstance(inner, DiscreteExtremalGenerator)
    level_N = inner.level_N if discrete else verifier._GRID_LEVEL
    k = rule.common_index(inner.g_row)
    t = (inner.last if k is None else k) * 2.0**-level_N
    p = inner.params.p
    if t == 0:
        return 0.0, 0.0
    a = r / p - 1.0
    x = t if a == 0.0 else math.expm1(a * t) / a
    return x, discrete_rhs(p, t, level_N, r) if discrete else g_moment(r, p, t)


class TestFreezeDelegates:
    """A freeze draws its sups through its inner pair's stopped_sup_sampler:
    where the rule stops or reads every inner path at one grid index k, the
    inner family's member at horizon k. Its estimates must agree, within 4
    combined half-widths, with the r-th powers of the inner pair's
    stopped_batch on draws of their own, and with the exact moments where
    they exist; a sampler delegated one index too far must not."""

    N = 1 << 15
    R = 0.5
    CASES = [(inner, rule) for inner in FREEZE_INNERS for rule in freeze_rules(inner)]

    @staticmethod
    def estimates(sampler, seed):
        return estimate_pair(sampler, TestFreezeDelegates.N, PLAIN, seed)

    @staticmethod
    def agree(got, want) -> bool:
        """Every side within 4 combined half-widths; exact sides to rounding."""
        return all(abs(a.value - b.value) <= 4.0 * (a.halfwidth + b.halfwidth)
                   + 1e-12 * abs(b.value) for a, b in zip(got, want, strict=True))

    def per_path(self, inner, rule, seed):
        return self.estimates(verifier._Generator.stopped_sup_sampler(inner, rule, self.R),
                              seed)

    @pytest.mark.parametrize(("inner", "rule"), CASES,
                             ids=[f"{inner.name}-{rule.label()}" for inner, rule in CASES])
    def test_agrees_with_stopped_batch_and_exact(self, inner, rule):
        got = self.estimates(HatXGenerator(inner, rule).sup_sampler(self.R), 1)
        want = self.per_path(inner, rule, 2)
        assert self.agree(got, want), (got, want)
        exact = exact_stopped_moments(inner, rule, self.R)
        if exact is not None:
            for est, value in zip(got, exact, strict=True):
                assert abs(est.value - value) <= 4.0 * est.halfwidth + 1e-12 * value, (
                    est, value)

    @pytest.mark.parametrize("inner", FREEZE_INNERS, ids=lambda inner: inner.name)
    def test_delegating_one_index_late_is_caught(self, inner):
        # at k = mid - 1: below the bound of the fixed freeze among the inners
        k = inner.last // 2
        late = self.estimates(inner.stopped_sup_sampler(FixedIndexRule(k + 1), self.R), 1)
        assert not self.agree(late, self.per_path(inner, FixedIndexRule(k), 2))

    def test_draws_through_the_family_samplers(self):
        # the benchmark's freezes: the walk of 6 steps, one binomial draw
        # per path, and the monotone discrete pair on [0, 5]
        m = 1000
        walk6 = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=6)
        for gen, family in (
                (HatXGenerator(WALK, FixedIndexRule(6)), walk6.sup_sampler(self.R)),
                (HatXGenerator(DISCRETE, HittingRule("x", 3.0)),
                 extremal.monotone_sup_sampler(DISCRETE.params, self.R, 5, 4))):
            x, g = gen.sup_sampler(self.R)(rng_of(8), m)
            want_x, want_g = family(rng_of(8), m)
            np.testing.assert_array_equal(x, want_x)
            np.testing.assert_array_equal(g, want_g)
        assert HatXGenerator(DISCRETE, HittingRule("x", 3.0)).sup_sampler(self.R)(
            rng_of(8), m)[0] == 5.0

    @pytest.mark.parametrize("inner", FREEZE_INNERS, ids=lambda inner: inner.name)
    def test_index_zero_draws_nothing(self, inner):
        # X_0 = G_0 = 0: exact zeros, with no draw
        for rule in (FixedIndexRule(0), HittingRule("x", 0.0), HittingRule("g", -1.0)):
            assert HatXGenerator(inner, rule).sup_sampler(self.R)(None, 10) == (0.0, 0.0)

    def test_walk_frozen_where_x_reaches_a_level_stops_path_by_path(self):
        rule = HittingRule("x", 2.0)
        x, g = HatXGenerator(WALK, rule).sup_sampler(self.R)(rng_of(9), 1000)
        [(x_tau, g_tau)] = WALK.stopped_batch([rule], rng_of(9), 1000)
        np.testing.assert_array_equal(x, x_tau**self.R)
        np.testing.assert_array_equal(g, g_tau**self.R)


def exact_cdf(n: int, q: float) -> np.ndarray:
    """P[K <= k] for k < n, K ~ Binomial(n, q) at the exact value a / d of
    the double q, in integers: term_k = C(n, k) a^k (d - a)^(n - k), then
    one correctly rounded division by d^n."""
    a, d = q.as_integer_ratio()
    term, total, denominator, cdf = (d - a) ** n, 0, d**n, []
    for k in range(n):
        total += term
        cdf.append(total / denominator)
        term = term * (n - k) * a // ((k + 1) * (d - a))
    return np.array(cdf)


class TestBinomialLaw:
    """The Bernoulli walk's sup, Binomial(steps, q), drawn by inversion of
    rng.random's doubles on a cdf table of the package's own."""

    GRID = 2.0**-53  # the spacing of rng.random's doubles

    @pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.7, 0.99])
    def test_thresholds_match_exact_cdf(self, q):
        # the sampler's table, on min(q, 1 - q), within 4 * 2^-53 of the
        # exact cdf; the window drops only values below 2^-53 or from
        # 1 - 2^-53 up. 304 steps gave the largest error seen, 3 * 2^-53
        p = min(q, 1.0 - q)  # 1 - q is exact for q > 0.5
        for steps in [*range(1, 41), 304, *range(100, verifier._MAX_WALK_STEPS + 1, 150)]:
            exact = exact_cdf(steps, p)
            lo, thresholds = verifier._binomial_thresholds(steps, p)
            hi = lo + thresholds.size
            tol = 4 * self.GRID
            np.testing.assert_allclose(thresholds, exact[lo:hi], rtol=0, atol=tol,
                                       err_msg=f"steps={steps}")
            assert np.all(exact[:lo] < self.GRID + tol), steps
            assert np.all(exact[hi:] >= 1.0 - self.GRID - tol), steps

    @pytest.mark.parametrize("steps", [1, 12, 255, 256, verifier._MAX_WALK_STEPS])
    def test_q_one_gives_steps(self, steps):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=1.0), steps=steps)
        sup_x, sup_g = gen.sup_sampler()(rng_of(1), 1000)
        assert np.all(sup_x == steps) and np.all(sup_g == steps)

    @pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.7, 0.99])
    @pytest.mark.parametrize("steps", [1, 12, 255, 256, verifier._MAX_WALK_STEPS])
    def test_count_at_the_ends(self, steps, q):
        # U = 0 exceeds no cdf value, U = 2^-53 every one below 2^-53, and
        # U = 1 - 2^-53 gives the largest count, which never passes steps
        u = np.array([0.0, self.GRID, 1.0 - self.GRID])
        low, second, top = verifier._binomial_sampler(steps, q)(Uniforms(u), u.size)
        lo, thresholds = verifier._binomial_thresholds(steps, min(q, 1.0 - q))
        count_second = np.count_nonzero(exact_cdf(steps, min(q, 1.0 - q)) < self.GRID)
        if q > 0.5:
            low, second, top = steps - low, steps - second, steps - top
        assert low == 0
        assert second == lo == count_second
        assert top == lo + thresholds.size <= steps

    def test_no_rng_binomial_in_src(self):
        sources = sorted(Path(verifier.__file__).parent.glob("*.py"))
        assert [path.name for path in sources if ".binomial(" in path.read_text()] == []


class TestGenerators:
    def test_bernoulli_sup_sampler_matches_enumeration(self):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12)
        e_x, e_g = enumerate_jump_sup_moments(0.3, 12, 0.5)
        base = gen.sup_sampler()
        (est,) = estimate_pair(lambda rng, m: (base(rng, m)[0] ** 0.5,), 200_000, PLAIN,
                               seed=3)
        assert abs(est.value - e_x) < 3.0 * est.halfwidth
        sup_x, sup_g = base(rng_of(0), 100)
        assert np.all(sup_g == 12 * 0.3)

    @pytest.mark.parametrize("law", [JumpLaw("bernoulli", q=0.3), JumpLaw("exp"),
                                     JumpLaw("const", c=2.0)])
    def test_path_batch_sums_the_jumps(self, law):
        # the walk is summed in place; it must equal the running sums of the
        # same draws, with 0 prepended
        x, _ = CompensatedBernoulliGenerator(jump=law, steps=12).path_batch(rng_of(4), 300)
        jumps = law.sample(rng_of(4), (300, 12))
        np.testing.assert_array_equal(
            x, np.concatenate([np.zeros((300, 1)), np.cumsum(jumps, axis=1)], axis=1))

    def test_path_batch_shapes_and_monotonicity(self):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=6)
        x, g = gen.path_batch(rng_of(2), 64)
        assert x.shape == (64, 7) and g.shape == (64, 7)
        assert np.all(np.diff(x, axis=1) >= 0)
        np.testing.assert_allclose(g[0], np.arange(7.0))

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.99])
    def test_extremal_generator_weighted_bounds(self, p):
        # x is the exact moment n/(1-p); the weighted g values are bounded by
        # n (p (1 - e^(-z/p)))^p plus the mass beyond the horizon,
        # e^-n (p expm1(n/p))^p = (p (1 - e^(-n/p)))^p
        n = 5
        gen = ExtremalGenerator(ExtremalParams(p=p, n=n))
        x_p, g_p = gen.sup_sampler(p)(rng_of(1), 10_000)
        assert x_p == n / (1.0 - p)
        assert np.all(np.isfinite(g_p)) and np.all(g_p >= 0)
        beyond = (p * -math.expm1(-n / p)) ** p
        assert g_p.max() <= (n * p**p + beyond) * (1 + 1e-12)

    @pytest.mark.parametrize(("p", "n", "r"), [(0.5, 10, 0.25), (0.5, 10, 0.75),
                                               (0.25, 10, 0.5)])
    def test_extremal_exponent_differs_from_p(self, p, n, r):
        # E[(sup X)^r] = E[e^(rZ/p); Z < n] E[U^-r]; E[(sup G)^r] by quadrature
        a = r / p - 1.0
        x_exact = math.expm1(a * n) / (a * (1.0 - r))
        head, _ = quad(lambda z: (p * math.expm1(z / p)) ** r * math.exp(-z), 0.0, n)
        g_exact = head + math.exp(-n) * (p * math.expm1(n / p)) ** r
        x_r, g_r = ExtremalGenerator(ExtremalParams(p=p, n=n)).sup_sampler(r)(
            rng_of(4), 10**6)
        assert x_r == pytest.approx(x_exact, rel=1e-14)
        se = g_r.std() / math.sqrt(g_r.size)
        assert abs(g_r.mean() - g_exact) < 4.0 * se, (g_r.mean(), g_exact, se)

    def test_discrete_exponent_matches_continuous_x(self):
        # the x side does not see the grid; the g side runs on to the cap
        params = ExtremalParams(p=0.5, n=10)
        cont = ExtremalGenerator(params).sup_sampler(0.75)(rng_of(5), 4096)
        disc = DiscreteExtremalGenerator(params, level_N=3).sup_sampler(0.75)(rng_of(5), 4096)
        np.testing.assert_array_equal(disc[0], cont[0])
        assert np.all(disc[1] >= cont[1] * (1 - 1e-12))

    def test_exponent_out_of_range(self):
        gen = ExtremalGenerator(ExtremalParams(p=0.5, n=5))
        for r in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="exponent"):
                gen.sup_sampler(r)

    def test_hatx_generator_is_monotone(self):
        inner = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.4), steps=10)
        gen = HatXGenerator(inner=inner, rule=FixedIndexRule(k=5))
        x, g = dense_paths(gen, rng_of(3), 32)
        assert np.all(np.diff(x, axis=1) >= 0)
        assert np.all(np.diff(g, axis=1) >= -1e-12)
        # the sups are the values at the freeze, which the inner pair stops
        [(sup_x, sup_g)] = inner.stopped_batch([gen.rule], rng_of(3), 32)
        np.testing.assert_array_equal(sup_x, x.max(axis=1))
        np.testing.assert_array_equal(sup_g, g.max(axis=1))

    def test_config_roundtrip(self):
        gen = generator_from_config(
            {"kind": "discrete_extremal", "p": 0.5, "n": 4, "level_N": 3}
        )
        assert isinstance(gen, DiscreteExtremalGenerator)
        gen2 = generator_from_config(
            {"kind": "hatx_of",
             "inner": {"kind": "compensated_bernoulli", "jump": "exp", "steps": 8},
             "rule": {"k": 4}}
        )
        assert isinstance(gen2, HatXGenerator)
        with pytest.raises(ValueError, match="unknown generator"):
            generator_from_config({"kind": "levy"})


class TestCheckInequality:
    @pytest.mark.parametrize(
        ("cfg", "kind"),
        [
            ({"kind": "extremal", "p": 0.5, "n": 5}, ConstantKind.LENGLART),
            ({"kind": "discrete_extremal", "p": 0.5, "n": 5, "level_N": 4},
             ConstantKind.LENGLART),
            ({"kind": "compensated_bernoulli", "jump": "bernoulli", "q": 0.3,
              "steps": 12}, ConstantKind.MONOTONE),
            ({"kind": "compensated_bernoulli", "jump": "exp", "steps": 8},
             ConstantKind.MONOTONE),
            ({"kind": "hatx_of",
              "inner": {"kind": "compensated_bernoulli", "jump": "exp", "steps": 8},
              "rule": {"side": "x", "level": 4.0}}, ConstantKind.MONOTONE),
        ],
    )
    def test_passes(self, cfg, kind):
        report = check_inequality(generator_from_config(cfg), p=0.5, kind=kind,
                                  n_samples=60_000, seed=5)
        assert report.passed, report.to_json()

    def test_monotone_constant_fails_on_full_extremal_pair(self):
        # the full pair's ratio n/(1-p) / E[(sup G)^p] = 1.4306 at p = 0.12,
        # n = 40 exceeds the monotone constant p^-p = 1.2897 by 10.9 %, so a
        # check against it must FAIL; check_inequality refuses the monotone
        # constant here, so the report is built directly
        p = 0.12
        gen = ExtremalGenerator(ExtremalParams(p=p, n=40))
        lhs, rhs = estimate_pair(gen.sup_sampler(p), 10**5, PLAIN, 0)
        report = VerifierReport(lhs=lhs, rhs_constant=constant(ConstantKind.MONOTONE, p),
                                rhs=rhs, constant_kind=ConstantKind.MONOTONE)
        assert not report.passed, report.to_json()
        assert report.ratio > constant(ConstantKind.MONOTONE, p)

    def test_monotone_rejected_for_non_monotone_x(self):
        gen = ExtremalGenerator(ExtremalParams(p=0.5, n=5))
        with pytest.raises(ValueError, match="non-decreasing"):
            check_inequality(gen, p=0.5, kind=ConstantKind.MONOTONE)

    def test_exponent_rejected_before_sampling(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the exponent was checked")

        monkeypatch.setattr(verifier, "estimate_pair", no_draws)
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=5)
        with pytest.raises(ValueError, match="p must lie"):
            check_inequality(gen, p=1.5, kind=ConstantKind.LENGLART)

    def test_report_fields(self):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=5)
        report = check_inequality(gen, p=0.5, kind=ConstantKind.LENGLART,
                                  n_samples=20_000, seed=1)
        d = report.to_json()
        assert d["rhs_constant"] == pytest.approx(2.0 * math.sqrt(2.0))
        assert d["ratio"] == pytest.approx(report.lhs.value / report.rhs.value)
        assert d["pass"] == report.passed


class TestPratelli:
    def test_power_f_passes(self):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.4), steps=10)
        report = check_pratelli(gen, PowerF(0.5), c=1.0, n_samples=40_000, seed=2)
        assert report.passed, report.to_json()

    def test_piecewise_linear_f_passes(self):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=6)
        F = PiecewiseLinearF(breakpoints=(1.0, 3.0), slopes=(2.0, 1.0, 0.25))
        report = check_pratelli(gen, F, c=0.5, n_samples=40_000, seed=2)
        assert report.passed, report.to_json()

    @pytest.mark.parametrize(("scale", "passed"), [(1.0, True), (0.1, False)])
    def test_fails_when_domination_fails(self, scale, passed):
        gen = ScaledCompensatorGenerator(**FALSIFIED_WALK, scale=scale)
        report = check_pratelli(gen, PowerF(0.5), c=1.0, n_samples=20_000, seed=0)
        assert report.passed is passed, report.to_json()

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_c_must_be_positive_and_finite(self, c):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.4), steps=10)
        with pytest.raises(ValueError, match="c must be positive and finite"):
            check_pratelli(gen, PowerF(0.5), c=c, n_samples=1000)

    def test_requires_exact_compensator(self):
        discrete = DiscreteExtremalGenerator(ExtremalParams(p=0.5, n=4), level_N=2)
        walk = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.4), steps=10)
        for gen in (discrete, HatXGenerator(walk, HittingRule("g", 2.0))):
            with pytest.raises(ValueError, match="domination"):
                check_pratelli(gen, PowerF(0.5), c=1.0)

    def test_g_divisor_only_where_the_compensator_is_exact(self):
        # check_pratelli, which refuses the others, passes the one g_divisor
        classes = verifier._Generator.__subclasses__()
        assert {cls.name for cls in classes} == {
            "extremal", "discrete_extremal", "compensated_bernoulli", "hatx_of"}
        for cls in classes:
            takes = "g_divisor" in inspect.signature(cls.stopped_batch).parameters
            assert takes is cls.exact_compensator, cls.name

    def test_f_validation(self):
        with pytest.raises(ValueError):
            PowerF(1.5)
        with pytest.raises(ValueError, match="non-increasing"):
            PiecewiseLinearF(breakpoints=(1.0,), slopes=(1.0, 2.0))
        with pytest.raises(ValueError, match="one slope"):
            PiecewiseLinearF(breakpoints=(1.0,), slopes=(1.0,))

    def test_piecewise_values(self):
        F = PiecewiseLinearF(breakpoints=(1.0, 2.0), slopes=(2.0, 1.0, 0.0))
        np.testing.assert_allclose(F(np.array([0.0, 0.5, 1.0, 1.5, 2.0, 10.0])),
                                   [0.0, 1.0, 2.0, 2.5, 3.0, 3.0])

    @pytest.mark.parametrize("F", [
        PiecewiseLinearF(breakpoints=(1.0, 3.0), slopes=(2.0, 1.0, 0.25)),
        PiecewiseLinearF(breakpoints=(), slopes=(0.7,)),
    ], ids=["three-pieces", "one-piece"])
    def test_piecewise_in_place_is_bit_identical(self, F):
        # F written into its argument equals F into a new array, and the sum
        # over the pieces that F's definition gives, bit for bit
        arr = np.concatenate([rng_of(5).random(1000) * 5, [0.0, 1.0, 3.0, np.inf]])
        expected = np.zeros_like(arr)
        prev = 0.0
        for b, s in zip(F.breakpoints, F.slopes[:-1]):
            expected += s * (np.clip(arr, prev, b) - prev)
            prev = b
        expected += F.slopes[-1] * np.maximum(arr - prev, 0.0)
        assert F(arr).tobytes() == expected.tobytes()
        assert F(arr, out=arr) is arr
        assert arr.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
    def test_power_in_place_is_bit_identical(self, p):
        # F into a new array and into its argument equal arr ** p bit for bit
        arr = np.concatenate([rng_of(5).random(1000) * 5, [0.0, 1.0, 1e300, np.inf]])
        expected = arr ** p
        assert PowerF(p)(arr).tobytes() == expected.tobytes()
        assert PowerF(p)(arr, out=arr) is arr
        assert arr.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("F", [lambda x: x ** 0.5, np.sqrt], ids=["lambda", "ufunc"])
    def test_other_f_refused_before_drawing(self, monkeypatch, F):
        # only PowerF's and PiecewiseLinearF's constructors check that F is
        # concave with F(0) = 0
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before F was refused")

        monkeypatch.setattr(verifier, "chunk_rng", no_draws)
        monkeypatch.setattr(verifier, "estimate_pair", no_draws)
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.4), steps=10)
        with pytest.raises(ValueError, match="F must be a PowerF or a PiecewiseLinearF"):
            check_pratelli(gen, F, c=1.0, n_samples=1000)


class TestDominationAudit:
    @pytest.mark.parametrize(
        "cfg",
        [
            {"kind": "compensated_bernoulli", "jump": "bernoulli", "q": 0.3, "steps": 12},
            {"kind": "compensated_bernoulli", "jump": "exp", "steps": 8},
            {"kind": "extremal", "p": 0.5, "n": 4},
            {"kind": "discrete_extremal", "p": 0.5, "n": 4, "level_N": 3},
        ],
    )
    def test_no_flags(self, cfg):
        report = domination_audit(generator_from_config(cfg), n_samples=40_000, seed=6)
        assert report.passed, report.to_json()

    @pytest.mark.parametrize(("scale", "passed"), [(1.0, True), (0.8, False)])
    def test_flags_when_domination_fails(self, scale, passed):
        gen = ScaledCompensatorGenerator(**FALSIFIED_WALK, scale=scale)
        report = domination_audit(gen, n_samples=20_000, seed=0)
        assert report.passed is passed, report.to_json()

    @pytest.mark.parametrize("check", [
        lambda gen: domination_audit(gen, n_samples=1000),
        lambda gen: check_pratelli(gen, PowerF(0.5), c=1.0, n_samples=1000),
    ])
    def test_refuses_overflowing_paths(self, check):
        # n/p = 1000: the path rows would hold exp(1000), which is no float64
        with pytest.raises(ValueError, match="DBL_MAX"):
            check(ExtremalGenerator(ExtremalParams(p=0.01, n=10)))

    def test_entries_have_means(self):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=5)
        report = domination_audit(gen, n_samples=20_000, seed=0)
        for entry in report.entries:
            assert entry.mean_g >= 0
            assert entry.diff == pytest.approx(entry.mean_x - entry.mean_g)


class TestStreamedReportsMatchConcatenated:
    """The audit and the Pratelli check reduce each chunk where it is drawn.
    Their reports must match pinned values to 1e-12 relative (means and
    standard errors; a difference of two means only to 1e-12 of the means,
    as it cancels). The values were first pinned from the reduction of the
    concatenated arrays, and check_inequality's on hatx_of from dense path
    batches; they were re-recorded once on stream layout 2 (PCG64DXSM
    streams, the pilot on its own domain), and check_inequality's on
    hatx_of again when the freeze began to draw through the monotone
    discrete pair's sampler."""

    GEN = ExtremalGenerator(ExtremalParams(p=0.5, n=10))
    N = 3 * 2**15 + 17
    AUDIT = [  # (tau, mean_x, mean_g, stderr)
        ("fixed[8]", 1.7167930233987114, 1.7259065991088776, 0.008059055975035652),
        ("fixed[20]", 11.167165307305835, 11.209034994844076, 0.07832741699983946),
        ("fixed[40]", 153.38981603999758, 147.65921969851448, 3.3139124281626406),
        ("fixed[60]", 1686.8035216154608, 1707.3605405625628, 137.511486691311),
        ("fixed[80]", 15557.096557246956, 17647.05277226757, 5385.063876805189),
        ("hit[x>=4.216]", 15557.096557246956, 17647.05277226757, 5385.063876805189),
        ("hit[x>=80.7]", 15557.096557246956, 17647.05277226757, 5385.063876805189),
        ("hit[x>=6491]", 15557.096557246956, 17647.05277226757, 5385.063876805189),
        ("hit[g>=1.608]", 1.1124948827807242, 1.1210935919804448, 0.005367593689226007),
    ]

    @pytest.mark.parametrize("check", [
        lambda gen, n: domination_audit(gen, n_samples=n),
        lambda gen, n: check_pratelli(gen, PowerF(0.5), 0.5, n_samples=n),
    ])
    def test_one_path_batch_per_chunk(self, check):
        # the pilot, then each chunk's paths serve every rule of the battery
        gen = CountingGenerator(**FALSIFIED_WALK)
        check(gen, self.N)
        assert gen.sizes == [2048, 2**15, 2**15, 2**15, 17]

    def test_domination_audit(self):
        report = domination_audit(self.GEN, n_samples=self.N, seed=5)
        assert len(report.entries) == len(self.AUDIT)
        for entry, (tau, mean_x, mean_g, stderr) in zip(report.entries, self.AUDIT):
            assert entry.tau_label == tau
            assert entry.mean_x == pytest.approx(mean_x, rel=1e-12)
            assert entry.mean_g == pytest.approx(mean_g, rel=1e-12)
            assert entry.stderr == pytest.approx(stderr, rel=1e-12)
            assert entry.diff == pytest.approx(mean_x - mean_g, abs=1e-12 * abs(mean_x))

    def test_check_inequality_on_hatx(self):
        gen = HatXGenerator(DiscreteExtremalGenerator(ExtremalParams(p=0.5, n=5), level_N=4),
                            HittingRule(side="x", level=3.0))
        # the values were pinned under 31-block median of means; the freeze
        # draws the monotone discrete pair on [0, 5], whose x moment is 5
        report = check_inequality(gen, 0.5, ConstantKind.MONOTONE, n_samples=self.N, seed=5,
                                  method=median_of_means(31))
        assert report.label == "hatx_of:monotone:p=0.5"
        for est, (value, halfwidth) in (
                (report.lhs, (5.0, 0.0)),
                (report.rhs, (4.1511323800219255, 4.182845328505807e-05))):
            assert est.value == pytest.approx(value, rel=1e-12)
            assert est.halfwidth == pytest.approx(halfwidth, rel=1e-12)

    @pytest.mark.parametrize("gen, n, seed, expected", [
        (GEN, N, 5, ("extremal:pratelli:hit[g>=1.608]", 0.49709677875120645,
                     0.002012807846603884, 1.0870199202410125, 0.0011023100102027128)),
        (CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12),
         40_000, 2, ("compensated_bernoulli:pratelli:fixed[1]", 0.29855,
                     0.0022881386162027363, 0.7745966692414832, 0.0)),
    ])
    def test_check_pratelli(self, gen, n, seed, expected):
        label, lhs, lhs_hw, rhs, rhs_hw = expected
        report = check_pratelli(gen, PowerF(0.5), 0.5, n_samples=n, seed=seed)
        assert report.label == label
        assert report.lhs.value == pytest.approx(lhs, rel=1e-12)
        assert report.lhs.halfwidth == pytest.approx(lhs_hw, rel=1e-12)
        assert report.rhs.value == pytest.approx(rhs, rel=1e-12)
        # a constant column: its half-width is 0 up to rounding of the mean
        assert report.rhs.halfwidth == pytest.approx(rhs_hw, rel=1e-12, abs=1e-12 * rhs)


def battery_rules(gen, seed):
    """The stopping battery the audit and the Pratelli check build from
    their pilot at this seed."""
    return verifier.default_tau_battery(gen, seed)


class TestBatteryColumnPair:
    """Each battery rule reduces one column pair, in the rows stopped_batch
    returns: (x, x - g) for the audit, (F(x), F(g)) for the Pratelli check."""

    GENERATORS = [
        ExtremalGenerator(ExtremalParams(p=0.5, n=10)),
        CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12),
    ]

    @staticmethod
    def traced_peak(call) -> int:
        call()  # numpy's one-time set-up
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda gen: gen.name)
    @pytest.mark.parametrize(("check", "g_divisor"), [
        (lambda gen: domination_audit(gen, n_samples=CHUNK, seed=3), 1.0),
        (lambda gen: check_pratelli(gen, PowerF(0.5), 0.5, n_samples=CHUNK, seed=3), 0.5),
    ], ids=["audit", "pratelli"])
    def test_no_block_besides_the_stopped_rows(self, gen, check, g_divisor):
        # every column is reduced in the rows stopped_batch returned
        rules = battery_rules(gen, 3)
        stopped = self.traced_peak(
            lambda: gen.stopped_batch(rules, chunk_rng(3, 0), CHUNK, g_divisor))
        checked = self.traced_peak(lambda: check(gen))
        assert checked - stopped < 0.5 * CHUNK * 8, (checked - stopped) / (CHUNK * 8)

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda gen: gen.name)
    def test_piecewise_linear_f_in_two_scratch_columns(self, gen):
        # F is written into the stopped rows, through an accumulator and one
        # piece's term at a time
        F = PiecewiseLinearF(breakpoints=(1.0, 3.0), slopes=(2.0, 1.0, 0.25))
        rules = battery_rules(gen, 3)
        stopped = self.traced_peak(
            lambda: gen.stopped_batch(rules, chunk_rng(3, 0), CHUNK, 0.5))
        checked = self.traced_peak(
            lambda: check_pratelli(gen, F, 0.5, n_samples=CHUNK, seed=3))
        assert checked - stopped < 2.5 * CHUNK * 8, (checked - stopped) / (CHUNK * 8)

    @pytest.mark.parametrize(("factor", "passed"), [(1.0, True), (1.2, False)])
    def test_flags_scaled_x_on_the_closed_form_route(self, factor, passed):
        gen = ScaledStoppedXGenerator(ExtremalParams(p=0.5, n=10), factor=factor)
        report = domination_audit(gen, n_samples=20_000, seed=0)
        assert report.passed is passed, report.to_json()
        if not passed:
            assert any(e.flagged and e.tau_label.startswith("fixed[") for e in report.entries)

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda gen: gen.name)
    def test_audit_reduces_x_and_x_minus_g(self, gen):
        n, seed = 2 * CHUNK + 17, 4
        rules = battery_rules(gen, seed)
        chunks = [gen.stopped_batch(rules, chunk_rng(seed, j), min(CHUNK, n - start))
                  for j, start in enumerate(range(0, n, CHUNK))]
        report = domination_audit(gen, n_samples=n, seed=seed)
        assert [e.tau_label for e in report.entries] == [rule.label() for rule in rules]
        for i, entry in enumerate(report.entries):
            x = np.concatenate([chunk[i][0] for chunk in chunks])
            g = np.concatenate([chunk[i][1] for chunk in chunks])
            assert entry.stderr == estimate_from_values(x - g, PLAIN).halfwidth
            assert entry.mean_x == estimate_from_values(x, PLAIN).value
            assert entry.mean_g == pytest.approx(estimate_from_values(g, PLAIN).value,
                                                 rel=1e-15, abs=0)


def dense_battery(x: np.ndarray, g: np.ndarray) -> list:
    """The stopping battery as built on a pilot's path matrices: fixed
    deciles of the horizon, hitting levels at quantiles of the row maxima."""
    last = x.shape[1] - 1
    rules = [FixedIndexRule(k=max(1, int(round(frac * last))))
             for frac in (0.1, 0.25, 0.5, 0.75, 1.0)]
    for qtl in (0.5, 0.9, 0.99):
        level = float(np.quantile(x.max(axis=1), qtl))
        if level > 0:
            rules.append(HittingRule(side="x", level=level))
    level_g = float(np.quantile(g.max(axis=1), 0.5))
    if level_g > 0:
        rules.append(HittingRule(side="g", level=level_g))
    return rules


WALK = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12)
DISCRETE = DiscreteExtremalGenerator(ExtremalParams(p=0.5, n=5), level_N=4)


class TestPilot:
    """The battery's pilot stops its paths at the last index, without
    building them."""

    GENERATORS = [
        ExtremalGenerator(ExtremalParams(p=0.5, n=10)),
        DiscreteExtremalGenerator(ExtremalParams(p=0.5, n=10), level_N=4),
        WALK,
        CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=20),
        HatXGenerator(WALK, FixedIndexRule(6)),
        HatXGenerator(DISCRETE, HittingRule("x", 3.0)),
    ]

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda gen: f"{gen.name}")
    def test_matches_the_battery_of_dense_paths(self, gen):
        # X and G never decrease, so the last index holds the row maxima
        for seed in range(20):
            x, g = dense_paths(gen, chunk_rng(seed, PILOT_STREAM), 2048)
            assert verifier.default_tau_battery(gen, seed) == dense_battery(x, g), seed

    @pytest.mark.parametrize("gen", GENERATORS[:2], ids=lambda gen: gen.name)
    def test_allocates_two_rows_and_the_jump_times(self, gen):
        # the stopped pair and the jump times, 2048 doubles each, then the
        # pair and np.quantile's copy of a row; the rest, 7.7 KB at most, is
        # a mask of 2048 bytes, the grid rows (81 or 161 doubles) and the
        # pilot's bit generator. Dense paths took 2 * 2048 * 81 doubles
        verifier.default_tau_battery(gen, 0)  # numpy's one-time set-up
        tracemalloc.start()
        try:
            verifier.default_tau_battery(gen, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2048 * 8 + 12 * 1024, peak - 3 * 2048 * 8


class TestNoDenseRoute:
    """No check in the package builds or stops a path matrix: with every
    dense builder and the dense stopping rule made to raise, each runs."""

    def test_checks_run_without_path_matrices(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("a check built or stopped a path matrix")

        for module in (extremal, verifier):
            monkeypatch.setattr(module, "exp_pair_path_batch", dense)
            monkeypatch.setattr(module, "discrete_path_batch", dense)
        monkeypatch.setattr(verifier, "stopping_indices", dense)
        monkeypatch.setattr(CompensatedBernoulliGenerator, "path_batch", dense)
        exact = [ExtremalGenerator(ExtremalParams(p=0.5, n=4)), WALK,
                 CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=8),
                 CompensatedBernoulliGenerator(jump=JumpLaw("const", c=1.5), steps=3)]
        nested = HatXGenerator(HatXGenerator(WALK, FixedIndexRule(6)), HittingRule("x", 2.0))
        for gen in [*exact, DISCRETE, HatXGenerator(WALK, HittingRule("g", 1.0)),
                    HatXGenerator(DISCRETE, HittingRule("x", 3.0)), nested]:
            assert domination_audit(gen, n_samples=3000, seed=1).passed, gen
        for gen in exact:
            assert check_pratelli(gen, PowerF(0.5), 0.5, n_samples=3000, seed=1).passed, gen
        assert check_inequality(nested, 0.5, ConstantKind.MONOTONE, n_samples=3000).passed
