"""Estimator behavior: determinism, thread invariance, heavy-tail robustness."""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lenglart
from lenglart import montecarlo
from lenglart.bdg import BM_FIXED_TIME, MartingaleSpec, bdg_ratio
from lenglart.cli import main
from lenglart.extremal import ExtremalParams, sharpness_sup_sampler
from lenglart.montecarlo import (
    CHUNK,
    DOMAIN_STRIDE,
    PILOT_STREAM,
    PLAIN,
    VALIDATION_STREAM,
    Estimate,
    EstimatorMethod,
    Verdict,
    _map_chunks,
    chunk_rng,
    estimate_from_values,
    estimate_pair,
    estimate_passes,
    median_of_means,
    monotone_ratio_experiment,
    ratio_experiment,
    ratio_from_estimates,
    sample_values,
)
from lenglart.oracles import ConstantKind, gtilde_sup_moment
from lenglart.verifier import (
    CompensatedBernoulliGenerator,
    ExtremalGenerator,
    JumpLaw,
    PowerF,
    check_inequality,
    check_pratelli,
    domination_audit,
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

    @pytest.mark.parametrize("seed, index", [
        (0, 0), (3, 7), (5, PILOT_STREAM + 2), (2**64 - 1, 2**64 - 1)])
    def test_chunk_rng_is_advanced_pcg64dxsm(self, seed, index):
        bits = np.random.PCG64DXSM(seed)
        bits.advance(index * 2**64)
        expected = np.random.Generator(bits)
        rng = chunk_rng(seed, index)
        np.testing.assert_array_equal(rng.random(1000), expected.random(1000))
        np.testing.assert_array_equal(rng.bit_generator.random_raw(1000),
                                      bits.random_raw(1000))

    @pytest.mark.parametrize("index", [-1, 2**64, -(2**64)])
    def test_chunk_rng_refuses_an_index_outside_the_span(self, index):
        with pytest.raises(ValueError, match="stream index"):
            chunk_rng(3, index)

    def test_thread_invariance_scalar(self):
        sampler = lambda rng, m: rng.random(m)
        n = 3 * CHUNK + 17
        a = sample_values(sampler, n, seed=1, threads=1)
        b = sample_values(sampler, n, seed=1, threads=4)
        assert a.size == n
        np.testing.assert_array_equal(a, b)

    def test_thread_invariance_paired(self):
        def sampler(rng, m):
            u = rng.random(m)
            return u, 1.0 / np.sqrt(u)

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
        # the reduction writes into a copy, never into the caller's array
        np.testing.assert_array_equal(vals, np.arange(10.0))
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
    """estimate_pair reduces every chunk in its worker; the result must be
    bit for bit the estimate of the concatenated values."""

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
                    estimate_pair(lambda rng, m: (rng.random(m),), n, method, seed, threads)
            return
        num_vals, den_vals = sample_values(self.paired, n, seed)
        expected = (estimate_from_values(num_vals, method),
                    estimate_from_values(den_vals, method))
        for threads in (1, 2, 4):
            assert estimate_pair(self.paired, n, method, seed, threads) == expected
            single = estimate_pair(lambda rng, m: self.paired(rng, m)[1:], n, method,
                                   seed, threads)
            assert single == expected[1:]


class TestPassScheduler:
    """estimate_passes runs the chunks of several passes on one pool of
    workers; each pass must get exactly the estimates that estimate_pair
    gives it alone, whatever the order of the passes and the worker count."""

    @staticmethod
    def paired(rng, m):
        u = rng.random(m)
        return u, 1.0 / np.sqrt(u)

    @staticmethod
    def squared_normal(rng, m):
        return (rng.standard_normal(m) ** 2,)

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("method", [PLAIN, median_of_means(3)], ids=["plain", "mom3"])
    def test_each_pass_as_if_alone(self, method, threads, order):
        # one sample (the fewest that fill the blocks, for median of means),
        # one partial chunk, and four chunks with a partial last one
        smallest = 1 if method is PLAIN else method.blocks
        passes = [(self.paired, smallest), (self.squared_normal, CHUNK - 100),
                  (self.paired, 3 * CHUNK + 5)]
        if order == "reversed":
            passes.reverse()
        expected = [estimate_pair(sampler, n, method, 11, threads) for sampler, n in passes]
        assert estimate_passes(passes, method, 11, threads) == expected

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_piece_layout(self, monkeypatch, threads):
        # piece j of a (work, n, piece, first_stream) pass holds the samples
        # from j * piece on and draws stream first_stream + j; a two-element
        # pass keeps the chunk grid. Each piece's work gets the (seed, index)
        # that it asked chunk_rng for.
        monkeypatch.setattr(montecarlo, "chunk_rng", lambda seed, index: (seed, index))

        def work(stream, start, m):
            return (*stream, start, m)

        first = VALIDATION_STREAM
        pieces, chunks = _map_chunks([(work, 7, 3, first), (work, CHUNK + 1)], 5, threads)
        assert pieces == [(5, first, 0, 3), (5, first + 1, 3, 3), (5, first + 2, 6, 1)]
        assert chunks == [(5, 0, 0, CHUNK), (5, 1, CHUNK, 1)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("method", [PLAIN, median_of_means(3)], ids=["plain", "mom3"])
    def test_float_component_is_exact(self, method, threads):
        # a float component is its column's exact mean: reported as it is,
        # with half-width 0, while the array beside it is reduced as alone.
        # A column filled with 40/0.75 = 53.333333333333336 reduces to
        # 53.33333333333334, with a half-width of 1e-17 to 1e-14, instead
        exact = 40 / 0.75

        def with_float(rng, m):
            return exact, self.paired(rng, m)[1]

        n = 3 * CHUNK + 5
        passes = [(with_float, n), (self.paired, CHUNK - 100)]
        (num, den), alone = estimate_passes(passes, method, 11, threads)
        assert num == Estimate(value=exact, halfwidth=0.0, n_samples=n, method=method)
        assert den == estimate_pair(self.paired, n, method, 11, threads)[1]
        assert alone == estimate_pair(self.paired, CHUNK - 100, method, 11, threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("method", [PLAIN, median_of_means(3)], ids=["plain", "mom3"])
    def test_float_component_differs_between_chunks(self, method, threads):
        # the last chunk is partial, so m differs there
        def drifting(rng, m):
            return float(m), rng.random(m)

        def float_or_array(rng, m):
            return (1.0 if m == CHUNK else np.ones(m)), rng.random(m)

        for sampler in (drifting, float_or_array):
            with pytest.raises(ValueError, match="same float in every chunk"):
                estimate_pair(sampler, 2 * CHUNK + 5, method, 0, threads)

    def test_pass_that_cannot_fill_the_blocks(self):
        def sampler(rng, m):
            raise AssertionError("drew before checking the budgets")

        with pytest.raises(ValueError, match="blocks"):
            estimate_passes([(sampler, 3 * CHUNK), (sampler, 1)], median_of_means(3), 0, 2)


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


class TestVerdict:
    """The one k-half-width rule, against the comparisons it replaced."""

    @settings(max_examples=500, deadline=None)
    @given(m=st.floats(allow_nan=False, allow_infinity=False),
           s=st.floats(min_value=0.0, allow_nan=False))
    def test_pass_iff_margin_clears_three_scales(self, m, s):
        assert Verdict(m, s).passed == (m >= -3.0 * s)
        assert (not Verdict(-m, s).passed) == (m > 3.0 * s)

    def test_slack(self):
        assert Verdict(-1.0, 0.25, k=5).slack == 0.25
        assert Verdict(-1.0, 0.25).slack == -0.25


class TestReproducibility:
    def test_estimate_same_seed_identical(self):
        sampler = lambda rng, m: (rng.random(m),)
        e1 = estimate_pair(sampler, 50_000, PLAIN, seed=9)
        e2 = estimate_pair(sampler, 50_000, PLAIN, seed=9, threads=2)
        assert e1 == e2

    def test_estimate_pair_shares_draws(self):
        sampler = sharpness_sup_sampler(ExtremalParams(p=0.5, n=10))
        num, den = estimate_pair(sampler, 50_000, median_of_means(31), seed=0)
        num2, den2 = estimate_pair(sampler, 50_000, median_of_means(31), seed=0)
        assert (num, den) == (num2, den2)


def _no_draw(rng, m):
    pytest.fail("a chunk was drawn")


class TestThreads:
    @pytest.mark.parametrize("threads", [0, -1])
    @pytest.mark.parametrize("run", [
        lambda t: estimate_pair(_no_draw, 10, PLAIN, 0, threads=t),
        lambda t: sample_values(_no_draw, 10, 0, threads=t),
        lambda t: ratio_experiment(ExtremalParams(p=0.5, n=10), 10, PLAIN, threads=t),
        lambda t: monotone_ratio_experiment(0.5, 10, 10, PLAIN, threads=t),
        lambda t: bdg_ratio(MartingaleSpec(kind=BM_FIXED_TIME), 10, threads=t),
        lambda t: check_inequality(ExtremalGenerator(ExtremalParams(p=0.5, n=10)), 0.5,
                                   ConstantKind.LENGLART, 10, method=PLAIN, threads=t),
    ], ids=["estimate_pair", "sample_values", "ratio_experiment",
            "monotone_ratio_experiment", "bdg_ratio", "check_inequality"])
    def test_nonpositive_threads_rejected(self, run, threads):
        with pytest.raises(ValueError, match="threads must be positive"):
            run(threads)


class TestStreamSource:
    SOURCES = sorted(Path(lenglart.__file__).parent.glob("*.py"))

    def test_only_montecarlo_builds_a_generator(self):
        # a Generator, any numpy bit generator or seed sequence, or a moved
        # stream, however the name was imported
        builds = re.compile(r"\b(Generator|Philox|PCG64|PCG64DXSM|SFC64|MT19937|RandomState"
                            r"|default_rng|SeedSequence)\(|\.(advance|jumped)\(")
        builders = [path.name for path in self.SOURCES if builds.search(path.read_text())]
        assert builders == ["montecarlo.py"]

    def test_no_module_reads_the_environment(self):
        readers = [path.name for path in self.SOURCES
                   if re.search(r"os\.environ|getenv", path.read_text())]
        assert readers == []


class TestStreamLayout:
    """Every stream one run asks chunk_rng for, as (seed, index). Each index
    lies in a domain the run draws from (index // DOMAIN_STRIDE: 0 for the
    chunks, 1 for the battery pilot, 2 for dump-paths, 4 for the BDG bias
    checks), no stream is asked for twice, and the output is the same at 1,
    2 and 3 threads."""

    SEED = 7
    SAMPLES = 2 * CHUNK + 5
    # a second check on its own seed: two checks on one seed would share
    # their chunk streams
    SUITE = [{"generator": {"kind": "extremal", "p": 0.5, "n": 10}, "p": 0.5,
              "n_samples": SAMPLES},
             {"generator": {"kind": "compensated_bernoulli", "q": 0.3, "steps": 12},
              "p": 0.5, "constant": "monotone", "n_samples": SAMPLES, "seed": 8}]
    SHARP = f"--p 0.5 --n 10 --samples {SAMPLES} --seed {SEED}"
    GEN = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12)
    # run -> (its domains, its argv or an API call)
    RUNS = {
        "sharpness": ({0}, f"sharpness {SHARP}"),
        "monotone-sharpness": ({0}, f"monotone-sharpness {SHARP}"),
        "bdg-fixed": ({0, 4}, f"bdg --kind fixed --samples {SAMPLES} --step 0.05 --seed {SEED}"),
        "bdg-hitting": ({0, 4}, f"bdg --kind hitting --samples {CHUNK + 5} --step 0.05 "
                                f"--seed {SEED}"),
        "verify": ({0}, f"verify --seed {SEED}"),
        "dump-paths": ({2}, f"dump-paths --kind discrete --p 0.5 --n 10 --level-N 3 "
                            f"--seed {SEED}"),
        "domination_audit": ({0, 1}, lambda: domination_audit(
            TestStreamLayout.GEN, TestStreamLayout.SAMPLES, TestStreamLayout.SEED)),
        "check_pratelli": ({0, 1}, lambda: check_pratelli(
            TestStreamLayout.GEN, PowerF(0.5), 0.5, TestStreamLayout.SAMPLES,
            TestStreamLayout.SEED)),
    }

    @staticmethod
    def output(run, threads: int, tmp_path: Path) -> str:
        """The run's JSON without timestamp and thread count, or the CSV
        that dump-paths writes. dump-paths and the API calls take no thread
        count."""
        if callable(run):
            return json.dumps(run().to_json(), sort_keys=True)
        argv = run.split()
        if argv[0] == "dump-paths":
            csv_path = tmp_path / "paths.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + ["--output", str(csv_path)]) == 0
            return csv_path.read_text()
        if argv[0] == "verify":
            suite = tmp_path / "suite.jsonl"
            suite.write_text("".join(json.dumps(e) + "\n" for e in TestStreamLayout.SUITE))
            argv += ["--suite", str(suite)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(argv + ["--threads", str(threads)])
        text = out.getvalue()
        payload, _ = json.JSONDecoder().raw_decode(text, text.index("{"))
        del payload["timestamp"], payload["config"]["threads"]
        return json.dumps(payload, sort_keys=True)

    @pytest.mark.parametrize("name", RUNS)
    def test_streams_of_one_run(self, monkeypatch, tmp_path, name):
        domains, run = self.RUNS[name]
        make_stream = montecarlo.chunk_rng
        asked = []

        def recording(seed, index):
            asked.append((seed, index))
            return make_stream(seed, index)

        # every module of the package that holds chunk_rng by name
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "lenglart"
                    and getattr(module, "chunk_rng", None) is make_stream):
                monkeypatch.setattr(module, "chunk_rng", recording)
        outputs, streams = set(), set()
        for threads in (1, 2, 3):
            asked.clear()
            outputs.add(self.output(run, threads, tmp_path))
            assert len(asked) == len(set(asked)), "a stream was asked for twice"
            assert {index // DOMAIN_STRIDE for _, index in asked} == domains
            streams.add(tuple(sorted(asked)))
        assert len(outputs) == 1
        assert len(streams) == 1


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
        r = monotone_ratio_experiment(0.5, 10, n_samples=200_000, method=median_of_means(31),
                                      seed=1)
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

    @pytest.mark.parametrize("p", [0.5, 0.75, 0.9])
    def test_default_interval_covers(self, p):
        """The default estimator is the plain mean at every p, and its
        denominator interval covers the exact moment at about the normal
        rate: over seeds 0-399 at 2^15 draws, at most 32 seeds miss by more
        than 2 half-widths and at most 5 by more than 3, the Binomial(400,
        nominal) upper tails at about 1e-3."""
        oracle = gtilde_sup_moment(p, 10)
        z = np.empty(400)
        for seed in range(z.size):
            den = ratio_experiment(ExtremalParams(p, 10), 2**15, seed=seed).denominator
            assert den.method == PLAIN
            z[seed] = (den.value - oracle) / den.halfwidth
        assert np.sum(np.abs(z) > 2) <= 32
        assert np.sum(np.abs(z) > 3) <= 5

    def test_small_budget_interval_covers(self):
        """At 2^12 draws the plain interval still covers at about the normal
        rate: over seeds 0-399 at most 4 seeds put the denominator more than
        3 half-widths from the exact moment (1.1 expected). With z drawn
        uniformly below the horizon, a heavier-tailed value, 6 seeds did."""
        oracle = gtilde_sup_moment(0.5, 10)
        misses = 0
        for seed in range(400):
            den = ratio_experiment(ExtremalParams(0.5, 10), 2**12, seed=seed).denominator
            misses += abs(den.value - oracle) > 3.0 * den.halfwidth
        assert misses <= 4
