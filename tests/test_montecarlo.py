"""Estimator behavior: determinism, thread invariance, heavy-tail robustness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenglart.extremal import ExtremalParams, sharpness_sup_sampler
from lenglart.montecarlo import (
    CHUNK,
    PLAIN,
    Estimate,
    EstimatorMethod,
    chunk_rng,
    default_method,
    estimate,
    estimate_from_values,
    estimate_pair,
    median_of_means,
    monotone_ratio_experiment,
    ratio_experiment,
    ratio_from_estimates,
    sample_values,
)

# frozen golden ratios from the quadrature oracle: n / gtilde(0.5, n) and
# (n/(1-p)) / gtilde(0.5, n)
TRUE_MONOTONE_RATIO_N10 = 1.3225419407043706
TRUE_LENGLART_RATIO_N10 = 2.645083881408741


class TestEstimatorMethod:
    def test_plain_takes_no_blocks(self):
        with pytest.raises(ValueError):
            EstimatorMethod("plain", blocks=5)

    @pytest.mark.parametrize("blocks", [0, 2, 4, 1])
    def test_mom_needs_odd_blocks(self, blocks):
        with pytest.raises(ValueError):
            EstimatorMethod("median_of_means", blocks=blocks)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            EstimatorMethod("mean_of_medians")

    def test_default_method_threshold(self):
        assert default_method(0.3) == PLAIN
        assert default_method(0.45).name == "median_of_means"
        assert default_method(0.9).blocks == 31


class TestEstimateTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            Estimate(value=1.0, halfwidth=-1.0, n_samples=10, method=PLAIN)
        with pytest.raises(ValueError):
            Estimate(value=1.0, halfwidth=math.nan, n_samples=10, method=PLAIN)
        with pytest.raises(ValueError):
            Estimate(value=1.0, halfwidth=0.0, n_samples=0, method=PLAIN)

    def test_json_with_seed(self):
        e = Estimate(value=2.0, halfwidth=0.1, n_samples=100, method=PLAIN)
        d = ratio_from_estimates(e, e).to_json(seed=5)
        assert d["seed"] == 5 and d["ratio"] == 1.0
        assert d["numerator"] == e.to_json() and "seed" not in d["numerator"]


class TestSampling:
    def test_chunk_rng_is_deterministic(self):
        a = chunk_rng(3, 7).random(5)
        b = chunk_rng(3, 7).random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, chunk_rng(3, 8).random(5))

    def test_thread_invariance_scalar(self):
        sampler = lambda rng, m: rng.random(m)
        n = 3 * CHUNK + 17
        a = sample_values(sampler, n, seed=1, threads=1)
        b = sample_values(sampler, n, seed=1, threads=4)
        assert a.size == n
        np.testing.assert_array_equal(a, b)

    def test_thread_invariance_paired(self):
        sampler = sharpness_sup_sampler(ExtremalParams(p=0.5, n=10))
        a = sample_values(sampler, 2 * CHUNK + 5, seed=2, threads=1)
        b = sample_values(sampler, 2 * CHUNK + 5, seed=2, threads=3)
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_values(lambda rng, m: rng.random(m), 0, seed=0)


class TestEstimateFromValues:
    def test_plain_matches_numpy(self):
        vals = np.arange(10.0)
        est = estimate_from_values(vals, PLAIN)
        assert est.value == pytest.approx(vals.mean())
        assert est.halfwidth == pytest.approx(vals.std(ddof=1) / math.sqrt(10))

    def test_mom_is_median_of_block_means(self):
        vals = np.arange(15.0)
        est = estimate_from_values(vals, median_of_means(3))
        block_means = vals.reshape(3, 5).mean(axis=1)
        assert est.value == pytest.approx(np.median(block_means))

    def test_too_few_samples_for_blocks(self):
        with pytest.raises(ValueError, match="blocks"):
            estimate_from_values(np.arange(5.0), median_of_means(7))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_from_values(np.array([]), PLAIN)

    def test_known_uniform_moment(self):
        # E[U^0.5] = 2/3
        vals = sample_values(lambda rng, m: rng.random(m) ** 0.5, 400_000, seed=4)
        est = estimate_from_values(vals, PLAIN)
        assert abs(est.value - 2.0 / 3.0) < 4.0 * est.halfwidth


class TestStreamedEqualsConcatenated:
    """estimate/estimate_pair reduce every chunk in its worker; the result
    must be bit for bit the estimate of the concatenated values."""

    @staticmethod
    def paired(rng, m):
        u = rng.random(m)
        return u, 1.0 / np.sqrt(u)  # the second has infinite variance

    # 3 * CHUNK with 3 blocks puts the block edges on chunk edges; the other
    # sizes put them inside chunks, and 31 blocks put several in one chunk
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, 3 * CHUNK, 3 * CHUNK + 17])
    @pytest.mark.parametrize("method", [PLAIN, median_of_means(3), median_of_means(31)],
                             ids=["plain", "mom3", "mom31"])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bit_identical(self, n, method, seed):
        if n < method.blocks:
            for threads in (1, 2, 4):
                with pytest.raises(ValueError, match="blocks"):
                    estimate_pair(self.paired, n, method, seed, threads)
                with pytest.raises(ValueError, match="blocks"):
                    estimate(lambda rng, m: rng.random(m), n, method, seed, threads)
            return
        num_vals, den_vals = sample_values(self.paired, n, seed)
        expected = (estimate_from_values(num_vals, method),
                    estimate_from_values(den_vals, method))
        for threads in (1, 2, 4):
            assert estimate_pair(self.paired, n, method, seed, threads) == expected
            single = estimate(lambda rng, m: self.paired(rng, m)[1], n, method,
                              seed, threads)
            assert single == expected[1]


class TestRatio:
    def test_interval_arithmetic_is_conservative(self):
        num = Estimate(value=2.0, halfwidth=0.2, n_samples=100, method=PLAIN)
        den = Estimate(value=1.0, halfwidth=0.1, n_samples=100, method=PLAIN)
        r = ratio_from_estimates(num, den)
        assert r.ratio == pytest.approx(2.0)
        assert r.ci_low == pytest.approx(1.8 / 1.1)
        assert r.ci_high == pytest.approx(2.2 / 0.9)

    def test_degenerate_denominator(self):
        num = Estimate(value=1.0, halfwidth=0.1, n_samples=10, method=PLAIN)
        den = Estimate(value=0.0, halfwidth=0.1, n_samples=10, method=PLAIN)
        with pytest.raises(ValueError, match="denominator"):
            ratio_from_estimates(num, den)


class TestReproducibility:
    def test_estimate_same_seed_identical(self):
        sampler = lambda rng, m: rng.random(m)
        e1 = estimate(sampler, 50_000, PLAIN, seed=9)
        e2 = estimate(sampler, 50_000, PLAIN, seed=9, threads=2)
        assert e1 == e2

    def test_estimate_pair_shares_draws(self):
        sampler = sharpness_sup_sampler(ExtremalParams(p=0.5, n=10))
        num, den = estimate_pair(sampler, 50_000, median_of_means(31), seed=0)
        num2, den2 = estimate_pair(sampler, 50_000, median_of_means(31), seed=0)
        assert (num, den) == (num2, den2)


class TestHeavyTails:
    def test_mom_beats_plain_dispersion(self):
        """Across 50 replicates of the heavy-tailed numerator (tail index 2
        at p = 0.5), median of means disperses less than the plain mean.
        The package's samplers weight away that tail, so the unweighted
        statistic exp(Z) U^-p 1{Z <= n}, Z ~ Exp(1), is drawn here."""

        def sampler(rng, m):
            z = -np.log(rng.random(m))
            u = rng.random(m)
            return np.where(z <= 10, np.exp(z) * u ** (-0.5), 0.0)

        plain_vals, mom_vals = [], []
        for rep in range(50):
            x_p = sampler(chunk_rng(100 + rep, 0), 20_000)
            plain_vals.append(estimate_from_values(x_p, PLAIN).value)
            mom_vals.append(estimate_from_values(x_p, median_of_means(31)).value)
        assert np.std(mom_vals) < np.std(plain_vals)

    def test_mom_is_biased_low_but_stable(self):
        # the median of block means undershoots the heavy-tailed mean; it
        # must still land within ~10% of the truth at this budget
        r = monotone_ratio_experiment(0.5, 10, n_samples=200_000, seed=1)
        assert abs(r.ratio - TRUE_MONOTONE_RATIO_N10) < 0.1 * TRUE_MONOTONE_RATIO_N10


class TestExperiments:
    def test_monotone_ratio_near_truth(self):
        r = monotone_ratio_experiment(0.5, 10, n_samples=300_000, seed=0)
        assert r.ci_low <= TRUE_MONOTONE_RATIO_N10 * 1.05
        assert r.ratio == pytest.approx(TRUE_MONOTONE_RATIO_N10, rel=0.05)

    def test_lenglart_ratio_near_truth(self):
        params = ExtremalParams(p=0.5, n=10)
        r = ratio_experiment(params, n_samples=300_000, seed=0)
        assert r.ratio == pytest.approx(TRUE_LENGLART_RATIO_N10, rel=0.08)
