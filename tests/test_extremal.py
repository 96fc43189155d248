"""Extremal-family samplers: path batches, Brownian tail,
importance-weighted sup samplers."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lenglart.extremal import (
    ExtremalParams,
    discrete_path_batch,
    discrete_sup_sampler,
    exp_pair_path_batch,
    monotone_sup_sampler,
    sharpness_sup_sampler,
)
from lenglart.oracles import full_extremal_sup_moment, gtilde_sup_moment, xtilde_sup_moment
from lenglart.verifier import ExtremalGenerator, FixedIndexRule, HatXGenerator


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def compensator(p, t):
    """int_0^t exp(s/p) ds in closed form."""
    return p * np.expm1(np.asarray(t) / p)


class TestParams:
    def test_valid(self):
        params = ExtremalParams(p=0.5, n=10)
        assert params.p == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0, "n": 10},
            {"p": 1.0, "n": 10},
            {"p": 0.5, "n": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExtremalParams(**kwargs)


class TestCompensatorValue:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
    def test_matches_quadrature(self, p, t):
        # while the jump is pending, g of the path batch is int_0^t_k exp(s/p) ds
        # at the grid point t_k nearest t (step 1/8: t = 0.1 is read at 0.125)
        k = int(round(t * 8))
        t_k = k / 8
        ref, _ = quad(lambda s: math.exp(s / p), 0.0, t_k)
        x, g = exp_pair_path_batch(ExtremalParams(p=p, n=4), 3, rng_of(0), 2000)
        pending = x[:, k] == 0.0
        assert pending.any()
        np.testing.assert_allclose(g[pending, k], ref, rtol=1e-10)


class TestExpPair:
    def test_structure(self):
        # at most one jump per row, to exp(z/p) at the first grid point >= z;
        # x is flat before and after it, and g is frozen at p expm1(z/p) from
        # the jump on
        p = 0.5
        t = np.arange(41) / 8
        x, g = exp_pair_path_batch(ExtremalParams(p=p, n=5), 3, rng_of(1), 500)
        assert np.all(np.diff(g, axis=1) >= 0)
        jumped = 0
        for xr, gr in zip(x, g):
            jumps = np.flatnonzero(np.diff(xr) != 0)
            assert jumps.size <= 1
            if jumps.size == 0:
                continue
            jumped += 1
            k = jumps[0] + 1
            assert np.all(xr[:k] == 0.0)
            assert np.all(xr[k:] == xr[k])
            z = p * math.log(xr[k])
            assert t[k - 1] < z <= t[k]
            np.testing.assert_allclose(gr[k:], compensator(p, z), rtol=1e-12)
            np.testing.assert_allclose(gr[:k], compensator(p, t[:k]), rtol=1e-12)
        assert 0 < jumped < len(x)

    def test_no_jump_case(self):
        # no jump before the horizon (P = 1/e per row): g saturates at t = n
        x, g = exp_pair_path_batch(ExtremalParams(p=0.5, n=1), 2, rng_of(0), 64)
        no_jump = x.max(axis=1) == 0.0
        assert no_jump.any()
        np.testing.assert_allclose(g[no_jump, -1], compensator(0.5, 1.0), rtol=1e-12)

    def test_mean_sup_x_pow_p(self):
        # E[(sup X)^p] = n for the jump process without tail
        params = ExtremalParams(p=0.5, n=5)
        x, _ = exp_pair_path_batch(params, 1, rng_of(4), 200_000)
        vals = x.max(axis=1) ** 0.5
        stderr = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - 5.0) < 4.0 * stderr


class TestPathRange:
    """Path rows hold exp(z/p) itself, which is a float64 only up to
    n/p = ln(DBL_MAX) ~ 709.78; the sup samplers work in log space and have
    no such bound (TestClosedFormKernels.test_long_horizon_finite)."""

    @pytest.mark.parametrize(("p", "n"), [(0.001, 4), (0.01, 10)])
    def test_refused_beyond_bound(self, p, n):
        params = ExtremalParams(p=p, n=n)
        with pytest.raises(ValueError, match="DBL_MAX"):
            exp_pair_path_batch(params, 2, rng_of(0), 1)
        with pytest.raises(ValueError, match="DBL_MAX"):
            discrete_path_batch(params, 2, rng_of(0), 1)

    def test_finite_below_bound(self):
        # n/p = 700: exp(700) ~ 1e304
        params = ExtremalParams(p=0.01, n=7)
        for x, g in (exp_pair_path_batch(params, 2, rng_of(0), 256),
                     discrete_path_batch(params, 2, rng_of(0), 256)):
            assert np.all(np.isfinite(x)) and np.all(np.isfinite(g))
            assert np.all(np.diff(g, axis=1) >= 0)


_Y_STEP = 1e-3
_Y_HORIZON = 50.0


def sample_y_path_batch(x: float, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Running maxima of Euler paths from x absorbed at 0, at step _Y_STEP up
    to time _Y_HORIZON; grid absorption, so the result is stochastically below
    the exact law. The samplers draw the Brownian tail from its exact Pareto
    law; this path simulation checks that law independently."""
    if x <= 0:
        return np.zeros(n_paths)
    sups = np.full(n_paths, x)
    pos = np.full(n_paths, x)
    alive = np.arange(n_paths)
    sqrt_h = math.sqrt(_Y_STEP)
    block = max(1, int(round(1.0 / _Y_STEP)) // 10)  # ~0.1 time units per block
    n_blocks = int(math.ceil(_Y_HORIZON / (block * _Y_STEP)))
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


class TestYLaw:
    def test_zero_start(self):
        np.testing.assert_array_equal(sample_y_path_batch(0.0, 5, rng_of(0)), np.zeros(5))

    @pytest.mark.slow
    def test_path_sim_matches_exact_median(self):
        # median of Y_1 is 2 (P[Y >= y] = 1/y); Euler absorption biases low,
        # so allow a one-sided tolerance of the order sqrt(step)
        sups = sample_y_path_batch(1.0, 3000, rng_of(5))
        med = float(np.median(sups))
        assert 1.75 < med < 2.15


class TestHatX:
    def test_freeze(self):
        # x is 0 before tau and x[tau] from tau on; g is unchanged before
        # tau and frozen at g[tau] after
        inner = ExtremalGenerator(ExtremalParams(p=0.5, n=5))
        x, g = inner.path_batch(rng_of(1), 64)
        frozen_x, frozen_g = HatXGenerator(inner, FixedIndexRule(k=10)).path_batch(rng_of(1), 64)
        assert np.all(np.diff(frozen_x, axis=1) >= 0)
        assert np.all(frozen_x[:, :10] == 0.0)
        np.testing.assert_array_equal(frozen_x[:, 10:], np.broadcast_to(x[:, 10:11], (64, 31)))
        np.testing.assert_array_equal(frozen_g[:, :10], g[:, :10])
        np.testing.assert_array_equal(frozen_g[:, 10:], np.broadcast_to(g[:, 10:11], (64, 31)))


class TestDiscretization:
    def test_pair_invariants(self):
        # same z stream as the exponential pair at every level: x agrees, the
        # grid has n 2^N + 1 points, and the discrete g dominates the
        # continuous compensator
        params = ExtremalParams(p=0.5, n=5)
        for level, seed in itertools.product(range(5), range(5)):
            x, g = discrete_path_batch(params, level, rng_of(seed), 200)
            x_c, g_c = exp_pair_path_batch(params, level, rng_of(seed), 200)
            assert x.shape == g_c.shape == (200, 5 * 2**level + 1)
            np.testing.assert_array_equal(x, x_c)
            assert np.all(np.diff(g, axis=1) >= 0)
            assert np.all(g >= g_c * (1 - 1e-12))
        for batch in (discrete_path_batch, exp_pair_path_batch):
            with pytest.raises(ValueError, match="level_N"):
                batch(params, -1, rng_of(0), 1)

    def test_g_terminal_value(self):
        # g accrues the full step integral through the step containing z
        p, n, level = 0.5, 5, 2
        h = 2.0**-level
        for seed in range(3):
            _, g = discrete_path_batch(ExtremalParams(p=p, n=n), level, rng_of(seed), 100)
            z = -np.log(rng_of(seed).random(100))  # the batch draws z first
            cap = np.minimum(np.ceil(z / h - 1e-12) * h, float(n))
            np.testing.assert_allclose(g[:, -1], compensator(p, cap), rtol=1e-10)

    def test_batch_matches_single(self):
        params = ExtremalParams(p=0.5, n=3)
        x, g = discrete_path_batch(params, 2, rng_of(7), 100)
        assert x.shape == (100, 13) and g.shape == (100, 13)
        assert np.all(np.diff(g, axis=1) >= -1e-12)
        assert np.all(g >= 0) and np.all(x >= 0)

    def test_level_validation(self):
        with pytest.raises(ValueError, match="level_N"):
            discrete_path_batch(ExtremalParams(p=0.5, n=5), -1, rng_of(0), 1)


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
        # the weighted numerator is the constant n = E[(sup X)^p], and
        # E[(sup G)^p] matches the quadrature oracle
        from lenglart.oracles import gtilde_sup_moment

        params = ExtremalParams(p=0.5, n=5)
        x_p, g_p = monotone_sup_sampler(params)(rng_of(11), 400_000)
        assert np.all(x_p == 5.0)
        se_g = g_p.std() / math.sqrt(g_p.size)
        assert abs(g_p.mean() - gtilde_sup_moment(0.5, 5.0)) < 4.0 * se_g

    def test_monotone_means_off_the_headline(self):
        # the importance weights must not be tuned to p = 1/2, n = 40: at
        # n = 40 the unweighted statistics see only Z up to ~ln N, so both
        # sides miss their oracles by many standard errors
        from lenglart.oracles import gtilde_sup_moment, xtilde_sup_moment

        for p, n in ((0.25, 40), (0.75, 40), (0.1, 5)):
            x_p, g_p = monotone_sup_sampler(ExtremalParams(p=p, n=n))(rng_of(12), 200_000)
            assert np.all(x_p == xtilde_sup_moment(p, n)), (p, n)
            se = g_p.std() / math.sqrt(g_p.size)
            exact = gtilde_sup_moment(p, n)
            assert abs(g_p.mean() - exact) < 4.0 * se, (p, n, g_p.mean(), exact, se)

    def test_relative_sd_ceiling(self):
        # with every draw below the horizon and the mass beyond it added
        # exactly, the relative sd at (0.5, 10) is 0.31 (numerator) and 0.096
        # (denominator); a defensive mixture in Z that spends half its draws
        # beyond the horizon gives 1.09 and 0.82
        params = ExtremalParams(p=0.5, n=10)
        x_p, g_p = sharpness_sup_sampler(params)(rng_of(14), 1 << 17)
        assert x_p.std() / x_p.mean() < 0.35
        assert g_p.std() / g_p.mean() < 0.11
        x_p, g_p = monotone_sup_sampler(params)(rng_of(14), 1 << 17)
        assert x_p.std() == 0.0
        assert g_p.std() / g_p.mean() < 0.11

    @pytest.mark.parametrize("p", [0.25, 0.75])
    def test_sharpness_numerator_bounded(self, p):
        # the weighted Brownian-tail factor 2/(U^p + 1 - p) is bounded by
        # 2/(1-p), so the numerator has a variance even where U^-p has none
        from lenglart.oracles import full_extremal_sup_moment

        n = 40
        x_p, _ = sharpness_sup_sampler(ExtremalParams(p=p, n=n))(rng_of(13), 200_000)
        assert x_p.max() <= 2.0 * n / (1.0 - p)
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


# The log-space formulas of the sup samplers, kept as the reference for their
# in-place closed forms: Z = n v below the horizon, the tail uniform u drawn
# after v, every value weighted by n e^-z, and the mass beyond the horizon,
# e^-n (p expm1(n/p))^p, added to the compensator side.
def _reference_draws(rng, m, n):
    v = rng.random(m)
    u = rng.random(m)
    return n * v, u


def _reference_tail_factor(p, u):
    second = u >= 0.5
    u_pow_p = (2.0 * u - second) ** (p + (p / (1.0 - p) - p) * second)
    return 2.0 / (u_pow_p + (1.0 - p))


def _log_sup_g_pow_p(p, t):
    """log (p expm1(t/p))^p."""
    with np.errstate(divide="ignore"):
        return p * (np.log(-np.expm1(-t / p)) + t / p + math.log(p))


def _reference_sup_g_pow_p(p, n, t_eff, z):
    beyond = math.exp(-n + _log_sup_g_pow_p(p, n))
    return np.exp(_log_sup_g_pow_p(p, t_eff) - z + math.log(n)) + beyond


def _reference_sampler(kind, p, n, level_N):
    def sampler(rng, m):
        z, u = _reference_draws(rng, m, n)
        t_eff = z
        if kind == "discrete":
            h = 2.0 ** (-level_N)
            t_eff = np.ceil(z / h) * h
        supx_p = np.full(m, float(n))
        if kind != "monotone":
            supx_p = supx_p * _reference_tail_factor(p, u)
        return supx_p, _reference_sup_g_pow_p(p, n, t_eff, z)

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
                np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0,
                                           err_msg=f"{kind} {side}")

    @pytest.mark.parametrize("p", [0.001, 0.999])
    def test_long_horizon_finite(self, p):
        for kind in KERNELS:
            for values in _kernel(kind, p, 1000, 4)(rng_of(22), 2**15):
                assert np.all(np.isfinite(values)) and np.all(values >= 0.0), kind


# -- the kernels integrated by quadrature ---------------------------------------
#
# Each kernel is a function of the uniforms it draws: v alone for the
# monotone pair, v then u (one fill of 2m) for the sharpness and discrete
# pairs. A stand-in rng that fills them from a product quadrature grid turns
# the unchanged kernel into its exact mean, with no sampling noise. The rule
# is tanh-sinh (Takahasi & Mori, Publ. RIMS 9, 1974) on each piece between
# the kernels' breakpoints: 1/2 in u (the tail factor's two components), and
# for the discrete kernel every grid time k 2^-N, that is v = k 2^-N / n.
# The rule for v splits at 1/2 too, which costs nothing in accuracy.


class GridRng:
    """Stands in for a Generator: each random(out=...) receives the given
    columns, one after the other."""

    def __init__(self, *columns):
        self.fill = np.concatenate(columns)

    def random(self, out):
        assert out.size == self.fill.size
        out[...] = self.fill


def tanh_sinh(breaks, step, t_max=3.2):
    """Nodes and weights of the tanh-sinh rule of this step on each piece
    between consecutive breaks. Each node is formed from its nearer end,
    and the nodes that round onto an end are dropped: the pieces meet at
    the kernels' breakpoints, where the integrand jumps."""
    t = np.arange(-math.ceil(t_max / step), math.ceil(t_max / step) + 1) * step
    s = 0.5 * math.pi * np.sinh(t)
    nodes, weights = [], []
    for a, b in zip(breaks, breaks[1:]):
        node = np.where(s < 0, a + (b - a) / (1.0 + np.exp(2.0 * s)),
                        b - (b - a) / (1.0 + np.exp(-2.0 * s)))
        weight = 0.25 * math.pi * (b - a) * step * np.cosh(t) / np.cosh(s) ** 2
        inside = (node > a) & (node < b)
        nodes.append(node[inside])
        weights.append(weight[inside])
    return np.concatenate(nodes), np.concatenate(weights)


def integrate(sampler, v_rule, u_rule=None, block=1 << 17):
    """The mean of each column a kernel returns, over the product rule of v
    and u, u in blocks so that no call holds more than about block points."""
    v, wv = v_rule
    if u_rule is None:
        return [float(wv @ col) for col in sampler(GridRng(v), v.size)]
    u, wu = u_rule
    rows = max(1, block // v.size)
    sums = np.zeros(2)
    for i in range(0, u.size, rows):
        uu, wuu = u[i:i + rows], wu[i:i + rows]
        m = v.size * uu.size
        cols = sampler(GridRng(np.repeat(v, uu.size), np.tile(uu, v.size)), m)
        weight = np.outer(wv, wuu).ravel()
        sums += [weight @ col for col in cols]
    return sums.tolist()


HALVES = [0.0, 0.5, 1.0]
# step 1/64: 411 nodes a piece, enough for the steep tail factor at p = 0.999
FINE = tanh_sinh(HALVES, 1.0 / 64)


def discrete_rhs(p, n, level_N):
    """E[(sup G)^p] of the dyadic discretization, with h = 2^-N: G runs up
    to the grid time kh that ends the step holding the jump time, or to n:
    sum_k (e^-(k-1)h - e^-kh) (p expm1(kh/p))^p + e^-n (p expm1(n/p))^p,
    each term in log space."""
    h = 2.0 ** -level_N

    def log_g(t):  # log (p expm1(t/p))^p
        return p * (math.log(p) + t / p + math.log1p(-math.exp(-t / p)))

    log_step = math.log(-math.expm1(-h))
    terms = [math.exp(-(k - 1) * h + log_step + log_g(k * h))
             for k in range(1, n * 2**level_N + 1)]
    return math.fsum(terms + [math.exp(-n + log_g(n))])


class TestKernelQuadrature:
    """The unchanged sup kernels integrate to their oracles within 1e-12
    relative: an exact check of each kernel's mean, where a Monte Carlo
    z-score resolves about 1e-3."""

    @pytest.mark.parametrize("n", [1, 10, 1000, 4096])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
    def test_sharpness_kernel(self, p, n):
        x, g = integrate(sharpness_sup_sampler(ExtremalParams(p=p, n=n)), FINE, FINE)
        assert x == pytest.approx(full_extremal_sup_moment(p, n), rel=1e-12, abs=0)
        assert g == pytest.approx(gtilde_sup_moment(p, n), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 10, 1000, 4096])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
    def test_monotone_kernel(self, p, n):
        x, g = integrate(monotone_sup_sampler(ExtremalParams(p=p, n=n)), FINE)
        assert x == pytest.approx(xtilde_sup_moment(p, n), rel=1e-12, abs=0)
        assert g == pytest.approx(gtilde_sup_moment(p, n), rel=1e-12, abs=0)

    def test_discrete_rhs_oracle(self):
        assert discrete_rhs(0.5, 10, 4) == pytest.approx(7.7993834102075, rel=1e-13)

    @pytest.mark.parametrize(("p", "n", "level_N"),
                             [(0.5, 10, 4), (0.25, 5, 3), (0.75, 20, 2), (0.1, 3, 1)])
    def test_discrete_kernel(self, p, n, level_N):
        # v breaks at every grid time, 2^-N / n apart in v
        cells = n * 2**level_N
        v_rule = tanh_sinh(np.arange(cells + 1) / cells, 1.0 / 16)
        u_rule = tanh_sinh(HALVES, 1.0 / 16)
        x, g = integrate(discrete_sup_sampler(ExtremalParams(p=p, n=n), level_N),
                         v_rule, u_rule)
        assert x == pytest.approx(full_extremal_sup_moment(p, n), rel=1e-12, abs=0)
        assert g == pytest.approx(discrete_rhs(p, n, level_N), rel=1e-12, abs=0)
