"""Extremal-family samplers: exponential pair, Brownian tail, discretization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lenglart.core_paths import StoppingIndex, TimeGrid, INFINITE_INDEX
from lenglart.extremal import (
    PATH_SIM,
    DiscretePair,
    ExtremalParams,
    compensator_value,
    discrete_path_batch,
    discrete_sup_sampler,
    discretize_pair,
    exp_pair_path_batch,
    hat_x,
    monotone_sup_sampler,
    ramp,
    sample_exp_pair,
    sample_y,
    sample_y_batch,
    sample_y_path_batch,
    sharpness_sup_sampler,
)


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


class TestParams:
    def test_valid(self):
        params = ExtremalParams(p=0.5, n=10, seed=3)
        assert params.p == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0, "n": 10},
            {"p": 1.0, "n": 10},
            {"p": 0.5, "n": 0},
            {"p": 0.5, "n": 10, "seed": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExtremalParams(**kwargs)


class TestRamp:
    def test_shape(self):
        assert ramp(3.0, 5) == 0.0
        assert ramp(5.0, 5) == 0.0
        assert ramp(5.5, 5) == 0.5
        assert ramp(6.0, 5) == 1.0
        assert ramp(100.0, 5) == 1.0

    @given(t=st.floats(0, 100), n=st.integers(1, 50))
    def test_range_and_monotone(self, t, n):
        v = ramp(t, n)
        assert 0.0 <= v <= 1.0
        assert ramp(t + 0.25, n) >= v

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ramp(-1.0, 5)


class TestCompensatorValue:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
    def test_matches_quadrature(self, p, t):
        ref, _ = quad(lambda s: math.exp(s / p), 0.0, t)
        assert compensator_value(p, t) == pytest.approx(ref, rel=1e-10)


class TestExpPair:
    def test_structure(self):
        params = ExtremalParams(p=0.5, n=5, seed=1)
        grid = TimeGrid(step=0.125, horizon=5.0)
        pair = sample_exp_pair(params, grid)
        t = grid.times()
        jumps = np.flatnonzero(np.diff(pair.x) != 0)
        # at most one jump, and x is a flat-then-flat single step path
        assert jumps.size <= 1
        assert np.all(np.diff(pair.g) >= 0)
        if jumps.size == 1:
            k = jumps[0] + 1
            level = pair.x[k]
            assert np.all(pair.x[k:] == level)
            assert np.all(pair.x[:k] == 0.0)
            # jump level is exp(z/p) with z in the step before the jump point
            z = 0.5 * math.log(level)
            assert t[k - 1] < z <= t[k]
            # compensator freezes at z
            assert pair.g[-1] == pytest.approx(compensator_value(0.5, z), rel=1e-12)

    def test_no_jump_case(self):
        params = ExtremalParams(p=0.5, n=1, seed=0)
        grid = TimeGrid(step=0.25, horizon=1.0)
        for seed in range(30):
            pair = sample_exp_pair(
                ExtremalParams(p=0.5, n=1, seed=seed), grid
            )
            if pair.x.max() == 0.0:
                # no jump before the horizon: compensator saturates at t = n
                assert pair.g[-1] == pytest.approx(compensator_value(0.5, 1.0), rel=1e-12)
                return
        pytest.fail("never sampled the no-jump branch (P = 1/e per draw)")

    def test_grid_must_match_horizon(self):
        params = ExtremalParams(p=0.5, n=5)
        with pytest.raises(ValueError, match="horizon"):
            sample_exp_pair(params, TimeGrid(step=0.5, horizon=4.0))

    def test_mean_sup_x_pow_p(self):
        # E[(sup X)^p] = n for the jump process without tail
        params = ExtremalParams(p=0.5, n=5)
        x, _ = exp_pair_path_batch(params, TimeGrid(step=0.5, horizon=5.0), rng_of(4), 200_000)
        vals = x.max(axis=1) ** 0.5
        stderr = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - 5.0) < 4.0 * stderr


class TestYLaw:
    def test_exact_tail(self):
        rng = rng_of(9)
        draws = np.array([sample_y(1.0, 0.5, rng=rng) for _ in range(50_000)])
        emp = (draws >= 4.0).mean()
        se = math.sqrt(0.25 * 0.75 / draws.size)
        assert abs(emp - 0.25) < 4.0 * se
        assert draws.min() >= 1.0

    def test_batch_zeros_stay_zero(self):
        x = np.array([0.0, 1.0, 0.0, 2.0])
        out = sample_y_batch(x, rng_of(2))
        assert out[0] == 0.0 and out[2] == 0.0
        assert out[1] >= 1.0 and out[3] >= 2.0

    def test_zero_start(self):
        assert sample_y(0.0, 0.5) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            sample_y(-1.0, 0.5)
        with pytest.raises(ValueError):
            sample_y(1.0, 0.5, mode="magic")

    @pytest.mark.slow
    def test_path_sim_matches_exact_median(self):
        # median of Y_1 is 2 (P[Y >= y] = 1/y); Euler absorption biases low,
        # so allow a one-sided tolerance of the order sqrt(step)
        sups = sample_y_path_batch(1.0, 3000, rng_of(5), step=1e-3, horizon=50.0)
        med = float(np.median(sups))
        assert 1.75 < med < 2.15


class TestHatX:
    def test_freeze(self):
        params = ExtremalParams(p=0.5, n=5, seed=1)
        grid = TimeGrid(step=0.125, horizon=5.0)
        pair = sample_exp_pair(params, grid)
        frozen = hat_x(pair, StoppingIndex(k=10))
        assert np.all(np.diff(frozen.x) >= 0)
        assert np.all(frozen.x[:10] == 0.0)
        assert np.all(frozen.x[10:] == pair.x[10])
        assert np.all(frozen.g[10:] == pair.g[10])
        np.testing.assert_array_equal(frozen.g[:10], pair.g[:10])

    def test_infinite_rejected(self):
        params = ExtremalParams(p=0.5, n=5, seed=1)
        pair = sample_exp_pair(params, TimeGrid(step=0.5, horizon=5.0))
        with pytest.raises(ValueError, match="finite"):
            hat_x(pair, StoppingIndex(k=INFINITE_INDEX))


class TestDiscretization:
    def test_pair_invariants(self):
        params = ExtremalParams(p=0.5, n=5, seed=3)
        for seed in range(25):
            dp = discretize_pair(ExtremalParams(p=0.5, n=5, seed=seed), level_N=3)
            assert isinstance(dp, DiscretePair)
            assert np.all(np.diff(dp.g) >= 0)
            assert dp.step == 0.125
            # discrete g dominates the continuous compensator on the grid
            t = np.arange(dp.g.size) * dp.step
            cont = 0.5 * np.expm1(np.minimum(t, dp.z) / 0.5)
            assert np.all(dp.g >= cont - 1e-9)
            assert dp.sup_x >= dp.x.max()

    def test_g_terminal_value(self):
        # g accrues the full step integral through the step containing z
        p, n, level = 0.5, 5, 2
        h = 2.0**-level
        for seed in range(15):
            dp = discretize_pair(ExtremalParams(p=p, n=n, seed=seed), level)
            cap = min(math.ceil(dp.z / h - 1e-12) * h, float(n))
            assert dp.sup_g == pytest.approx(compensator_value(p, cap), rel=1e-10)

    def test_batch_matches_single(self):
        params = ExtremalParams(p=0.5, n=3, seed=0)
        x, g = discrete_path_batch(params, 2, rng_of(7), 100)
        assert x.shape == (100, 13) and g.shape == (100, 13)
        assert np.all(np.diff(g, axis=1) >= -1e-12)
        assert np.all(g >= 0) and np.all(x >= 0)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            discretize_pair(ExtremalParams(p=0.5, n=5), level_N=-1)


class TestSupSamplers:
    def test_draw_layout_alignment(self):
        """All three samplers consume (z, u) in the same order, so the
        compensator stream of the sharpness and monotone samplers agree and
        the x stream of the sharpness and discrete samplers agree."""
        params = ExtremalParams(p=0.5, n=10)
        m = 4096
        full_x, full_g = sharpness_sup_sampler(params)(rng_of(3), m)
        mono_x, mono_g = monotone_sup_sampler(params)(rng_of(3), m)
        disc_x, disc_g = discrete_sup_sampler(params, 4)(rng_of(3), m)
        np.testing.assert_allclose(full_g, mono_g)
        np.testing.assert_allclose(full_x, disc_x)
        # the discrete compensator runs through the step containing z
        assert np.all(disc_g >= full_g - 1e-12)
        # the tail multiplies sup X, never shrinks it
        assert np.all(full_x >= mono_x - 1e-12)

    def test_monotone_means(self):
        # E[(sup X)^p] = n and E[(sup G)^p] matches the quadrature oracle
        from lenglart.oracles import gtilde_sup_moment

        params = ExtremalParams(p=0.5, n=5)
        x_p, g_p = monotone_sup_sampler(params)(rng_of(11), 400_000)
        se_x = x_p.std() / math.sqrt(x_p.size)
        assert abs(x_p.mean() - 5.0) < 4.0 * se_x
        se_g = g_p.std() / math.sqrt(g_p.size)
        assert abs(g_p.mean() - gtilde_sup_moment(0.5, 5.0)) < 4.0 * se_g

    def test_monotone_means_off_the_headline(self):
        # the importance weights must not be tuned to p = 1/2, n = 40: at
        # n = 40 the unweighted statistics see only Z up to ~ln N, so both
        # sides miss their oracles by many standard errors
        from lenglart.oracles import gtilde_sup_moment, xtilde_sup_moment

        for p, n in ((0.25, 40), (0.75, 40), (0.1, 5)):
            x_p, g_p = monotone_sup_sampler(ExtremalParams(p=p, n=n))(rng_of(12), 200_000)
            for vals, exact in ((x_p, xtilde_sup_moment(p, n)), (g_p, gtilde_sup_moment(p, n))):
                se = vals.std() / math.sqrt(vals.size)
                assert abs(vals.mean() - exact) < 4.0 * se, (p, n, vals.mean(), exact, se)

    @pytest.mark.parametrize("p", [0.25, 0.75])
    def test_sharpness_numerator_bounded(self, p):
        # the weighted Brownian-tail factor 2/(U^p + 1 - p) is bounded by
        # 2/(1-p), so the numerator has a variance even where U^-p has none
        from lenglart.oracles import full_extremal_sup_moment

        n = 40
        x_p, _ = sharpness_sup_sampler(ExtremalParams(p=p, n=n))(rng_of(13), 200_000)
        assert x_p.max() <= 4.0 * n / (1.0 - p)
        se = x_p.std() / math.sqrt(x_p.size)
        assert abs(x_p.mean() - full_extremal_sup_moment(p, n)) < 4.0 * se

    @settings(max_examples=10, deadline=None)
    @given(p=st.floats(0.03, 0.97), n=st.integers(1, 60))
    def test_log_space_stability(self, p, n):
        # exp(z/p) overflows naively for small p; the samplers must not
        params = ExtremalParams(p=p, n=n)
        x_p, g_p = sharpness_sup_sampler(params)(rng_of(1), 1000)
        assert np.all(np.isfinite(x_p)) and np.all(np.isfinite(g_p))
        assert np.all(x_p >= 0) and np.all(g_p >= 0)


# The log-space formulas the sup samplers used before their closed forms,
# kept as the reference: Z ~ q = 1/2 U(0, n) + 1/2 (n + Exp(1)) from v, the
# tail uniform u drawn after v, and every value weighted by e^-z / q(z).
def _reference_draws(rng, m, n):
    v = rng.random(m)
    u = rng.random(m)
    return np.minimum((2.0 * n) * v, n), v < 0.5, u


def _reference_tail_factor(p, u):
    second = u >= 0.5
    u_pow_p = (2.0 * u - second) ** (p + (p / (1.0 - p) - p) * second)
    return 2.0 / (u_pow_p + (1.0 - p))


def _reference_sup_g_pow_p(p, n, t_eff, t, head):
    with np.errstate(divide="ignore"):
        log_expm1 = np.log(-np.expm1(-t_eff / p)) + t_eff / p
        log_val = (p * log_expm1 + (p * math.log(p) + math.log(2.0) - t)
                   + math.log(n) * head)
    return np.exp(log_val)


def _reference_sampler(kind, p, n, level_N):
    def sampler(rng, m):
        t, head, u = _reference_draws(rng, m, n)
        t_eff = t
        if kind == "discrete":
            h = 2.0 ** (-level_N)
            t_eff = np.minimum(np.ceil(t / h) * h, n)
        supx_p = (2.0 * n) * head
        if kind != "monotone":
            supx_p = supx_p * _reference_tail_factor(p, u)
        return supx_p, _reference_sup_g_pow_p(p, n, t_eff, t, head)

    return sampler


def _kernel(kind, p, n, level_N):
    params = ExtremalParams(p=p, n=n)
    if kind == "sharpness":
        return sharpness_sup_sampler(params)
    if kind == "monotone":
        return monotone_sup_sampler(params)
    return discrete_sup_sampler(params, level_N)


KERNELS = ("sharpness", "monotone", "discrete")
FULL_RANGE_P = (0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999)


class TestClosedFormKernels:
    """The in-place closed forms against the log-space reference over the
    whole range 0 < p < 1, not just the hypothesis range above."""

    @pytest.mark.parametrize("n", [1, 10, 40])
    @pytest.mark.parametrize("p", FULL_RANGE_P)
    def test_matches_log_space_reference(self, p, n):
        for kind in KERNELS:
            got = _kernel(kind, p, n, 4)(rng_of(21), 2**15)
            ref = _reference_sampler(kind, p, n, 4)(rng_of(21), 2**15)
            for side, new, old in zip("xg", got, ref):
                np.testing.assert_array_equal(new == 0.0, old == 0.0, err_msg=f"{kind} {side}")
                np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0,
                                           err_msg=f"{kind} {side}")

    @pytest.mark.parametrize("p", [0.001, 0.999])
    def test_long_horizon_finite(self, p):
        for kind in KERNELS:
            for values in _kernel(kind, p, 1000, 4)(rng_of(22), 2**15):
                assert np.all(np.isfinite(values)) and np.all(values >= 0.0), kind
