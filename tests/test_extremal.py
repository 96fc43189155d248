"""Extremal-family samplers: path batches, Brownian tail, exact numerators
and importance-weighted compensator samplers."""

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
        # tau and frozen at g[tau] after: the frozen pair read at every
        # index of the grid of step 1/8
        params = ExtremalParams(p=0.5, n=5)
        x, g = exp_pair_path_batch(params, 3, rng_of(1), 64)
        gen = HatXGenerator(ExtremalGenerator(params), FixedIndexRule(k=10))
        stopped = gen.stopped_batch([FixedIndexRule(k) for k in range(41)], rng_of(1), 64)
        frozen_x, frozen_g = (np.stack(side, axis=1) for side in zip(*stopped))
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
        """All three samplers draw the same v, so the compensator columns of
        the sharpness and monotone samplers agree, and the sharpness and
        discrete samplers return the same exact x moment."""
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
        # with the plateau's integral added exactly, only the deficit drawn,
        # from its own rate of decay, and the uniform as a control variate,
        # the denominator's relative sd at (0.5, 10) is 0.00165 (0.0046
        # without the control variate, 0.096 with z uniform below the
        # horizon, 0.82 with half the draws beyond it). Both numerators are
        # exact floats
        params = ExtremalParams(p=0.5, n=10)
        for kernel, exact in ((sharpness_sup_sampler, 20.0), (monotone_sup_sampler, 10.0)):
            x_p, g_p = kernel(params)(rng_of(14), 1 << 17)
            assert type(x_p) is float and x_p == exact
            assert g_p.std() / g_p.mean() < 0.002
        # measured at this seed: 0.00147 for the discrete kernel at N = 4
        # (0.086 with z uniform), 0.0094 at r = 0.25 against p = 0.5 (1.14)
        for sampler, ceiling in ((discrete_sup_sampler(params, 4), 0.0018),
                                 (sharpness_sup_sampler(params, 0.25), 0.011)):
            _, g = sampler(rng_of(14), 1 << 17)
            assert g.std() / g.mean() < ceiling

    @pytest.mark.parametrize("p", [0.25, 0.75])
    def test_sharpness_numerator_exact(self, p):
        # U is independent of Z and E[U^-p] = 1/(1-p), so the numerator is
        # the closed form n/(1-p), whatever the draws
        from lenglart.oracles import full_extremal_sup_moment

        n = 40
        sampler = sharpness_sup_sampler(ExtremalParams(p=p, n=n))
        for seed in (13, 14):
            x_p, _ = sampler(rng_of(seed), 1000)
            assert x_p == full_extremal_sup_moment(p, n) == n / (1.0 - p)

    @settings(max_examples=10, deadline=None)
    @given(p=st.floats(0.03, 0.97), n=st.integers(1, 60))
    def test_log_space_stability(self, p, n):
        # exp(z/p) overflows naively for small p; the samplers must not
        params = ExtremalParams(p=p, n=n)
        x_p, g_p = sharpness_sup_sampler(params)(rng_of(1), 1000)
        assert np.all(np.isfinite(x_p)) and np.all(np.isfinite(g_p))
        assert np.all(x_p >= 0) and np.all(g_p >= 0)


# The compensator kernels' closed form in log space, kept as the reference
# for their in-place evaluation at r = p: z = -p log(1 - v c_u) with
# c_u = -expm1(-n/p), t = z or the end of z's grid step, and each value
# top - exp(log W + log phi(e^(-t/p)) - (1 - p)(t - z)/p) - beta (v - 1/2),
# W = p^(p+1) c_u. top is the plateau's integral, p^p n or its sum over the
# grid steps term by term, plus the mass beyond the horizon; beta is
# 12 Cov(deficit(V), V) of the continuous deficit, over 4096 midpoints.
# TestExactNumerators checks the x side.
def _log1mexp(u):
    """log(1 - e^-u) for u >= 0 (Maechler, Rmpfr note, 2012)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(u > math.log(2.0), np.log1p(-np.exp(-u)), np.log(-np.expm1(-u)))


def _log_phi(p, x):
    """log phi(e^-x) = log(1 - (1 - e^-x)^p) + x; phi is p from x = 700 on."""
    x = np.minimum(x, 700.0)
    return _log1mexp(-p * _log1mexp(x)) + x


def _reference_top(p, n, level_N):
    beyond = math.exp(p * (math.log(p) + math.log(-math.expm1(-n / p))))
    if level_N is None:
        return p**p * n + beyond
    h = 2.0**-level_N
    log_step = math.log(-math.expm1(-h))
    # p^p e^(kh) (e^-(k-1)h - e^-kh) per grid step
    return math.fsum([math.exp(p * math.log(p) + k * h - (k - 1) * h + log_step)
                      for k in range(1, n * 2**level_N + 1)] + [beyond])


def _reference_deficit(p, n, level_N, v):
    c_u = -math.expm1(-n / p)
    z = -p * np.log1p(-v * c_u)
    t = z if level_N is None else np.ceil(z * 2.0**level_N) * 2.0**-level_N
    log_w = (p + 1.0) * math.log(p) + math.log(c_u)
    return -np.exp(log_w + _log_phi(p, t / p) - (1.0 - p) * (t - z) / p)


def _reference_sup_g(kind, p, n, level_N, rng, m):
    grid = level_N if kind == "discrete" else None
    mid = (np.arange(4096) + 0.5) / 4096
    beta = 12.0 * np.mean(_reference_deficit(p, n, None, mid) * (mid - 0.5))
    v = rng.random(m)
    return _reference_top(p, n, grid) + _reference_deficit(p, n, grid, v) - beta * (v - 0.5)


def _kernel(kind, p, n, level_N, r=None):
    params = ExtremalParams(p=p, n=n)
    if kind == "sharpness":
        return sharpness_sup_sampler(params, r)
    if kind == "monotone":
        return monotone_sup_sampler(params)
    return discrete_sup_sampler(params, level_N, r)


KERNELS = ("sharpness", "monotone", "discrete")
FULL_RANGE_P = (0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999)


class TestClosedFormKernels:
    """The in-place closed forms against the log-space reference over the
    whole range 0 < p < 1, not just the hypothesis range above."""

    @pytest.mark.parametrize("n", [1, 10, 40])
    @pytest.mark.parametrize("p", FULL_RANGE_P)
    def test_matches_log_space_reference(self, p, n):
        for kind in KERNELS:
            _, g = _kernel(kind, p, n, 4)(rng_of(21), 2**15)
            ref = _reference_sup_g(kind, p, n, 4, rng_of(21), 2**15)
            np.testing.assert_allclose(g, ref, rtol=1e-12, atol=0.0, err_msg=kind)

    @pytest.mark.parametrize("p", [0.001, 0.999])
    def test_long_horizon_finite(self, p):
        for kind in KERNELS:
            for values in _kernel(kind, p, 1000, 4)(rng_of(22), 2**15):
                assert np.all(np.isfinite(values)) and np.all(values >= 0.0), kind


class CountingRng:
    """A Generator that records how many doubles each random() call draws;
    any other draw is an AttributeError."""

    def __init__(self, seed):
        self._rng = rng_of(seed)
        self.draws = []

    def random(self, size=None, out=None):
        values = self._rng.random(size, out=out)
        self.draws.append(np.size(values))
        return values


class TestExactNumerators:
    """U is independent of Z, so each kernel's x side is
    E[e^(rZ/p); Z <= n] E[U^-r], a closed form returned as a float, and each
    kernel draws v alone."""

    @pytest.mark.parametrize("n", [1, 10, 40, 1000, 4096])
    @pytest.mark.parametrize("p", FULL_RANGE_P)
    def test_r_equal_to_p_is_the_oracle(self, p, n):
        full, monotone = full_extremal_sup_moment(p, n), xtilde_sup_moment(p, n)
        for kind, exact in (("sharpness", full), ("discrete", full), ("monotone", monotone)):
            x, _ = _kernel(kind, p, n, 2)(rng_of(0), 8)
            assert type(x) is float and x == exact, kind

    @pytest.mark.parametrize("n", [1, 10, 40])
    @pytest.mark.parametrize("p", [0.25, 0.5])
    @pytest.mark.parametrize("r", [0.1, 0.3, 0.9])
    def test_r_other_than_p_matches_quadrature(self, r, p, n):
        jump, _ = quad(lambda z: math.exp((r / p - 1.0) * z), 0.0, n)
        tail, _ = quad(lambda u: u**-r, 0.0, 1.0)
        for kind in ("sharpness", "discrete"):
            x, _ = _kernel(kind, p, n, 3, r)(rng_of(0), 8)
            assert x == pytest.approx(jump * tail, rel=1e-12, abs=0), kind

    @pytest.mark.parametrize(("kind", "r"), [(kind, None) for kind in KERNELS]
                             + [("sharpness", 0.75), ("discrete", 0.75)])
    def test_draws_m_doubles(self, kind, r):
        for m in (1, 1000, 2**15):
            rng = CountingRng(m)
            _kernel(kind, 0.5, 10, 4, r)(rng, m)
            assert rng.draws == [m], (kind, m)

    @pytest.mark.parametrize("kind", ["sharpness", "discrete"])
    def test_refused_where_no_float64(self, kind):
        # at r = 0.9 > p = 0.5 the moments grow as e^(0.8 n): past DBL_MAX
        # at n = 1000, not at n = 300
        with pytest.raises(ValueError, match=r"r = 0\.9 .* p = 0\.5, n = 1000"):
            _kernel(kind, 0.5, 1000, 2, 0.9)
        x, g = _kernel(kind, 0.5, 300, 2, 0.9)(rng_of(0), 1000)
        assert math.isfinite(x) and np.all(np.isfinite(g))


# -- the kernels integrated by quadrature ---------------------------------------
#
# Each kernel is a function of the m uniforms v it draws, and returns its x
# side as the exact moment. A stand-in rng that fills v from a quadrature rule
# turns the unchanged kernel into the exact mean of its g side, with no
# sampling noise. The rule is tanh-sinh (Takahasi & Mori, Publ. RIMS 9, 1974)
# on each piece between the kernel's breakpoints in v: none for the sharpness
# and monotone kernels, and for the discrete kernel the v of every grid time
# t_k = k 2^-N, v_k = expm1(-kappa t_k/p) / expm1(-kappa n/p) with
# kappa = 1 + p - r, since the kernels draw z = -(p/kappa) log(1 - v c_u).


class GridRng:
    """Stands in for a Generator: its one random(out=...) call receives the
    given nodes."""

    def __init__(self, nodes):
        self.fill = nodes
        self.calls = 0

    def random(self, out):
        self.calls += 1
        assert self.calls == 1 and out.size == self.fill.size
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


def integrate(sampler, v_rule):
    """The mean of each column a kernel returns, over the rule in v; a float
    column is its own mean."""
    v, wv = v_rule
    return [col if isinstance(col, float) else float(wv @ col)
            for col in sampler(GridRng(v), v.size)]


# step 1/64: 411 nodes, enough for the steep rise of g near v = 0 at p = 0.01
FINE = tanh_sinh([0.0, 1.0], 1.0 / 64)


def discrete_rhs(p, n, level_N, r=None):
    """E[(sup G)^r] of the dyadic discretization, r defaulting to p, with
    h = 2^-N, on the horizon n, a grid time: G runs up to the grid time kh
    that ends the step holding the jump time, or to n:
    sum_k (e^-(k-1)h - e^-kh) (p expm1(kh/p))^r + e^-n (p expm1(n/p))^r,
    each term in log space."""
    h = 2.0 ** -level_N
    r = p if r is None else r

    def log_g(t):  # log (p expm1(t/p))^r
        return r * (math.log(p) + t / p + math.log1p(-math.exp(-t / p)))

    log_step = math.log(-math.expm1(-h))
    terms = [math.exp(-(k - 1) * h + log_step + log_g(k * h))
             for k in range(1, round(n * 2**level_N) + 1)]
    return math.fsum(terms + [math.exp(-n + log_g(n))])


def grid_breaks(r, p, n, level_N):
    """The v of every grid time k 2^-N, k = 0 .. n 2^N, at exponent r, for
    the horizon n, a grid time."""
    kappa = 1.0 + p - r
    t = np.arange(round(n * 2**level_N) + 1) * 2.0**-level_N
    return np.expm1(-kappa * t / p) / math.expm1(-kappa * n / p)


def g_moment(r, p, n):
    """E[(sup G)^r] by quadrature in z: int_0^n e^-z (p expm1(z/p))^r dz
    plus the mass beyond the horizon, the integrand in log space."""
    a = r / p - 1.0
    head, _ = quad(lambda z: math.exp(r * (math.log(p) + math.log(-math.expm1(-z / p)))
                                      + a * z), 0.0, n, epsabs=0.0, epsrel=1e-13, limit=200)
    return head + math.exp(r * math.log(-p * math.expm1(-n / p)) + a * n)


class TestKernelQuadrature:
    """The unchanged sup kernels integrate to their oracles within 1e-12
    relative: an exact check of each kernel's mean, where a Monte Carlo
    z-score resolves about 1e-3."""

    @pytest.mark.parametrize("n", [1, 10, 1000, 4096])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
    def test_sharpness_kernel(self, p, n):
        x, g = integrate(sharpness_sup_sampler(ExtremalParams(p=p, n=n)), FINE)
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
        v_rule = tanh_sinh(grid_breaks(p, p, n, level_N), 1.0 / 16)
        x, g = integrate(discrete_sup_sampler(ExtremalParams(p=p, n=n), level_N), v_rule)
        assert x == pytest.approx(full_extremal_sup_moment(p, n), rel=1e-12, abs=0)
        assert g == pytest.approx(discrete_rhs(p, n, level_N), rel=1e-12, abs=0)

    @pytest.mark.parametrize(("r", "p", "n"), [(0.1, 0.5, 10), (0.9, 0.5, 10),
                                               (0.3, 0.25, 40), (0.9, 0.25, 1)])
    def test_kernels_at_r_other_than_p(self, r, p, n):
        # the plateau's integral, the deficit's density and its weight all
        # move with r; the x side is TestExactNumerators'
        params = ExtremalParams(p=p, n=n)
        _, g = integrate(sharpness_sup_sampler(params, r), FINE)
        assert g == pytest.approx(g_moment(r, p, n), rel=1e-12, abs=0)
        v_rule = tanh_sinh(grid_breaks(r, p, n, 3), 1.0 / 16)
        _, g = integrate(discrete_sup_sampler(params, 3, r), v_rule)
        assert g == pytest.approx(discrete_rhs(p, n, 3, r), rel=1e-12, abs=0)

    @pytest.mark.parametrize(("r", "p", "n", "t"), [(0.5, 0.5, 10, 1.125), (0.5, 0.5, 10, 7.5),
                                                    (0.25, 0.5, 4, 0.375), (0.9, 0.25, 5, 2.25),
                                                    (0.3, 0.75, 2, 0.125)])
    def test_kernels_at_a_horizon(self, r, p, n, t):
        # the monotone pair on [0, t], a grid time below n: the pair
        # stopped at t, continuous and on the grid of step 1/8
        params = ExtremalParams(p=p, n=n)
        a = r / p - 1.0
        x_exact = t if a == 0.0 else math.expm1(a * t) / a
        x, g = integrate(monotone_sup_sampler(params, r, t), FINE)
        assert x == pytest.approx(x_exact, rel=1e-14, abs=0)
        assert g == pytest.approx(g_moment(r, p, t), rel=1e-12, abs=0)
        v_rule = tanh_sinh(grid_breaks(r, p, t, 3), 1.0 / 16)
        x, g = integrate(monotone_sup_sampler(params, r, t, level_N=3), v_rule)
        assert x == pytest.approx(x_exact, rel=1e-14, abs=0)
        assert g == pytest.approx(discrete_rhs(p, t, 3, r), rel=1e-12, abs=0)

    @pytest.mark.parametrize("r", [None, 0.25])
    def test_kernels_at_the_horizon_n_are_the_defaults(self, r):
        # horizon n, as an int or a float, draws the default kernels' bits
        params = ExtremalParams(p=0.5, n=10)
        for horizon in (10, 10.0):
            for make in (lambda **kw: sharpness_sup_sampler(params, r, **kw),
                         lambda **kw: discrete_sup_sampler(params, 4, r, **kw),
                         lambda **kw: monotone_sup_sampler(params, r, **kw)):
                want, got = make()(rng_of(7), 1000), make(horizon=horizon)(rng_of(7), 1000)
                assert want[0] == got[0]
                np.testing.assert_array_equal(want[1], got[1])
