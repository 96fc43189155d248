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
from test_extremal import GridRng, discrete_rhs

import lenglart
from lenglart import montecarlo
from lenglart.bdg import BM_FIXED_TIME, MartingaleSpec, bdg_ratio
from lenglart.cli import main
from lenglart import extremal
from lenglart.extremal import (
    ExtremalParams,
    discrete_sup_sampler,
    monotone_sup_sampler,
    sharpness_sup_sampler,
)
from lenglart.montecarlo import (
    CHUNK,
    DOMAIN_STRIDE,
    PILOT_STREAM,
    PLAIN,
    VALIDATION_STREAM,
    Estimate,
    EstimatorMethod,
    Verdict,
    ChunkStream,
    _map_chunks,
    chunk_rng,
    discrete_ratio_experiment,
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
    DiscreteExtremalGenerator,
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

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, CHUNK + 1, 3 * CHUNK + 5])
    def test_paired_samplers_of_the_package(self, n, threads):
        # each returns its x side as a float, its exact moment: sample_values
        # gives that float, and the g column that a sampler of g alone
        # draws (a float itself for the pair stopped at 0 and the walk of
        # constant jumps)
        params = ExtremalParams(0.5, 10)
        walk = CompensatedBernoulliGenerator(jump=JumpLaw("const", c=2.0), steps=12)
        samplers = [sharpness_sup_sampler(params), monotone_sup_sampler(params),
                    discrete_sup_sampler(params, 4), extremal.zero_moments,
                    walk.sup_sampler(0.5)]
        for sampler in samplers:
            x, g = sample_values(sampler, n, 6, threads)
            assert type(x) is float and x == sampler(chunk_rng(0, 0), 1)[0]
            alone = sample_values(lambda rng, m: sampler(rng, m)[1], n, 6, threads)
            if isinstance(alone, float):
                assert type(g) is float and g == alone
            else:
                assert g.size == n
                np.testing.assert_array_equal(g, alone)


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

    # 17 values in 3 blocks of 5 leave the last two unused; 15 and 3 in 3
    # blocks leave none, 61 in 31 blocks of 1 leave 30
    @pytest.mark.parametrize("n, blocks", [(17, 3), (15, 3), (3, 3), (61, 31),
                                           (3 * CHUNK + 17, 31)])
    def test_mom_leaves_the_remainder_unused(self, n, blocks):
        vals = np.arange(float(n)) ** 2
        method = median_of_means(blocks)
        est = estimate_from_values(vals, method)
        size = n // blocks
        block_means = [vals[j * size : (j + 1) * size].mean() for j in range(blocks)]
        assert est.value == np.median(block_means)
        assert est.halfwidth == pytest.approx(
            math.sqrt(math.pi / 2.0) * np.std(block_means, ddof=1) / math.sqrt(blocks),
            rel=1e-15)
        assert est.n_samples == n and est.method == method
        changed = vals.copy()
        changed[blocks * size :] = 1e300
        assert estimate_from_values(changed, method) == est

    @pytest.mark.parametrize("n, blocks", [(5, 7), (2, 3)])
    def test_too_few_samples_for_blocks(self, n, blocks):
        with pytest.raises(ValueError, match=f"{n} samples cannot fill {blocks} blocks"):
            estimate_from_values(np.arange(float(n)), median_of_means(blocks))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_from_values(np.array([]), PLAIN)

    def test_known_uniform_moment(self):
        # E[U^0.5] = 2/3
        vals = sample_values(lambda rng, m: rng.random(m) ** 0.5, 400_000, seed=4)
        est = estimate_from_values(vals, PLAIN)
        assert abs(est.value - 2.0 / 3.0) < 4.0 * est.halfwidth


class TestStreamedEqualsConcatenated:
    """estimate_pair reduces every chunk in its worker, and median of means
    reduces the g column drawn chunk by chunk; either result must be bit for
    bit the estimate of the concatenated values."""

    @staticmethod
    def paired(rng, m):
        u = rng.random(m)
        return u, 1.0 / np.sqrt(u)  # the second has infinite variance

    @pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, 3 * CHUNK, 3 * CHUNK + 17])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bit_identical(self, n, seed):
        num_vals, den_vals = sample_values(self.paired, n, seed)
        expected = (estimate_from_values(num_vals, PLAIN),
                    estimate_from_values(den_vals, PLAIN))
        for threads in (1, 2, 4):
            assert estimate_pair(self.paired, n, seed, threads) == expected
            single = estimate_pair(lambda rng, m: self.paired(rng, m)[1:], n, seed, threads)
            assert single == expected[1:]

    # 3 * CHUNK with 3 blocks puts the block edges on chunk edges; the other
    # sizes put them inside chunks, and 31 blocks put several in one chunk
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, 3 * CHUNK, 3 * CHUNK + 17])
    @pytest.mark.parametrize("blocks", [3, 31], ids=["mom3", "mom31"])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mom_reduces_the_concatenated_column(self, n, blocks, seed):
        method = median_of_means(blocks)

        def exact_x(rng, m):
            return 1.0, self.paired(rng, m)[1]

        if n < blocks:
            for threads in (1, 2, 4):
                with pytest.raises(ValueError, match=f"{n} samples cannot fill {blocks} blocks"):
                    montecarlo._sup_ratio(exact_x, n, method, seed, threads)
            return
        _, den_vals = sample_values(self.paired, n, seed)
        expected = estimate_from_values(den_vals, method)
        for threads in (1, 2, 4):
            r = montecarlo._sup_ratio(exact_x, n, method, seed, threads)
            assert r.denominator == expected
            assert r.numerator == Estimate(value=1.0, halfwidth=0.0, n_samples=n, method=method)


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
    def test_each_pass_as_if_alone(self, threads, order):
        # two samples, one partial chunk, and four chunks with a partial last one
        passes = [(self.paired, 2), (self.squared_normal, CHUNK - 100),
                  (self.paired, 3 * CHUNK + 5)]
        if order == "reversed":
            passes.reverse()
        expected = [estimate_pair(sampler, n, 11, threads) for sampler, n in passes]
        assert estimate_passes(passes, 11, threads) == expected

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_piece_layout(self, monkeypatch, threads):
        # piece j of a (work, n, piece, first_stream) pass holds the samples
        # from j * piece on and draws stream first_stream + j; a two-element
        # pass keeps the chunk grid. Each piece's work gets the (seed, index)
        # that it asked chunk_rng for, its size, its start and its pass's n.
        monkeypatch.setattr(montecarlo, "chunk_rng", lambda seed, index: (seed, index))

        def work(stream, m, start, n):
            return (*stream, m, start, n)

        first = VALIDATION_STREAM
        pieces, chunks = _map_chunks([(work, 7, 3, first), (work, CHUNK + 1)], 5, threads)
        assert pieces == [(5, first, 3, 0, 7), (5, first + 1, 3, 3, 7), (5, first + 2, 1, 6, 7)]
        assert chunks == [(5, 0, CHUNK, 0, CHUNK + 1), (5, 1, 1, CHUNK, CHUNK + 1)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_float_component_is_exact(self, threads):
        # a float component is its column's exact mean: reported as it is,
        # with half-width 0, while the array beside it is reduced as alone.
        # A column filled with 40/0.75 = 53.333333333333336 reduces to
        # 53.33333333333334, with a half-width of 1e-17 to 1e-14, instead
        exact = 40 / 0.75

        def with_float(rng, m):
            return exact, self.paired(rng, m)[1]

        n = 3 * CHUNK + 5
        passes = [(with_float, n), (self.paired, CHUNK - 100)]
        (num, den), alone = estimate_passes(passes, 11, threads)
        assert num == Estimate(value=exact, halfwidth=0.0, n_samples=n, method=PLAIN)
        assert den == estimate_pair(self.paired, n, 11, threads)[1]
        assert alone == estimate_pair(self.paired, CHUNK - 100, 11, threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_float_component_differs_between_chunks(self, threads):
        # the last chunk is partial, so m differs there
        def drifting(rng, m):
            return float(m), rng.random(m)

        def float_or_array(rng, m):
            return (1.0 if m == CHUNK else np.ones(m)), rng.random(m)

        def array_then_float(rng, m):
            return (np.ones(m) if m == CHUNK else 1.0), rng.random(m)

        # both draw paths read a column by one rule
        for sampler in (drifting, float_or_array, array_then_float):
            for draw in (estimate_pair, sample_values):
                with pytest.raises(ValueError, match="same float in every chunk"):
                    draw(sampler, 2 * CHUNK + 5, 0, threads)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_pass_without_samples_refused_before_any_draw(self, threads):
        def sampler(rng, m):
            raise AssertionError("drew before checking the budgets")

        with pytest.raises(ValueError, match="n_samples must be positive"):
            estimate_passes([(sampler, 3 * CHUNK), (sampler, 0)], 0, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_iid_value_is_refused(self, threads):
        # one i.i.d. value has no standard error: a half-width of 0 would
        # give a verdict on it no slack. A float column stays exact, and a
        # stratified column of one value keeps its spread bound
        for draw in (lambda: estimate_pair(self.paired, 1, 5, threads),
                     lambda: estimate_from_values(np.array([2.0]), PLAIN)):
            with pytest.raises(ValueError, match="one i.i.d. value has no standard error"):
                draw()
        supx, den = estimate_pair(sharpness_sup_sampler(ExtremalParams(p=0.5, n=10)), 1, 5,
                                  threads)
        assert supx.halfwidth == 0.0 and den.halfwidth > 0.0


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
        e1 = estimate_pair(sampler, 50_000, seed=9)
        e2 = estimate_pair(sampler, 50_000, seed=9, threads=2)
        assert e1 == e2

    def test_estimate_pair_shares_draws(self):
        sampler = sharpness_sup_sampler(ExtremalParams(p=0.5, n=10))
        num, den = estimate_pair(sampler, 50_000, seed=0)
        num2, den2 = estimate_pair(sampler, 50_000, seed=0)
        assert (num, den) == (num2, den2)


def _no_draw(rng, m):
    pytest.fail("a chunk was drawn")


class TestThreads:
    @pytest.mark.parametrize("threads", [0, -1])
    @pytest.mark.parametrize("run", [
        lambda t: estimate_pair(_no_draw, 10, 0, threads=t),
        lambda t: sample_values(_no_draw, 10, 0, threads=t),
        lambda t: ratio_experiment(ExtremalParams(p=0.5, n=10), 10, PLAIN, threads=t),
        lambda t: monotone_ratio_experiment(0.5, 10, 10, PLAIN, threads=t),
        lambda t: bdg_ratio(MartingaleSpec(kind=BM_FIXED_TIME), 10, threads=t),
        lambda t: check_inequality(ExtremalGenerator(ExtremalParams(p=0.5, n=10)), 0.5,
                                   ConstantKind.LENGLART, 10, threads=t),
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

    def test_only_montecarlo_names_an_estimator(self):
        # the streaming layer and its callers reduce by the plain mean alone;
        # __init__.py names the estimators only to re-export them
        names = re.compile(r"\b(PLAIN|median_of_means|EstimatorMethod)\b")
        reexport = re.compile(r"from \.montecarlo import \([^)]*\)|__all__ = \[[^\]]*\]")
        namers = []
        for path in self.SOURCES:
            text = path.read_text()
            if path.name == "__init__.py":
                text = reexport.sub("", text)
            if names.search(text):
                namers.append(path.name)
        assert namers == ["montecarlo.py"]

    def test_no_module_reads_the_environment(self):
        readers = [path.name for path in self.SOURCES
                   if re.search(r"os\.environ|getenv", path.read_text())]
        assert readers == []


class TestStreamLayout:
    """Every stream one run asks chunk_rng for, as (seed, index). Each index
    lies in a domain the run draws from (index // DOMAIN_STRIDE: 0 for the
    chunks, 1 for the battery pilot, 2 for dump-paths, 4 for the BDG bias
    checks), no stream is asked for twice, and the output is the same at 1,
    2 and 3 threads. A JSON output names stream layout 5."""

    SEED = 7
    # neither CHUNK nor REPLICATES divides it
    SAMPLES = 2 * CHUNK + 5
    # each check after the first on its own seed: two checks on one seed
    # would share their chunk streams. The discrete pair and its freeze
    # draw replicates, the continuous pair strata
    SUITE = [{"generator": {"kind": "extremal", "p": 0.5, "n": 10}, "p": 0.5,
              "n_samples": SAMPLES},
             {"generator": {"kind": "compensated_bernoulli", "q": 0.3, "steps": 12},
              "p": 0.5, "constant": "monotone", "n_samples": SAMPLES, "seed": 8},
             {"generator": {"kind": "discrete_extremal", "p": 0.5, "n": 10, "level_N": 4},
              "p": 0.5, "n_samples": SAMPLES, "seed": 9},
             {"generator": {"kind": "hatx_of",
                            "inner": {"kind": "discrete_extremal", "p": 0.5, "n": 5,
                                      "level_N": 4},
                            "rule": {"side": "x", "level": 3.0}},
              "p": 0.5, "constant": "monotone", "n_samples": SAMPLES, "seed": 10}]
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
        assert payload["stream_layout"] == 5
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


MOM_PARAMS = ExtremalParams(p=0.5, n=10)
# the ratio experiments that still take an estimator, as the API calls them,
# each with the sampler it draws
MOM_EXPERIMENTS = {
    "ratio_experiment": (
        lambda n, method, threads=1: ratio_experiment(
            MOM_PARAMS, n, method, seed=2, threads=threads),
        lambda: sharpness_sup_sampler(MOM_PARAMS)),
    "monotone_ratio_experiment": (
        lambda n, method, threads=1: monotone_ratio_experiment(
            0.5, 10, n, method, seed=2, threads=threads),
        lambda: monotone_sup_sampler(MOM_PARAMS)),
    "discrete_ratio_experiment": (
        lambda n, method, threads=1: discrete_ratio_experiment(
            MOM_PARAMS, 3, n, method, seed=2, threads=threads),
        lambda: discrete_sup_sampler(MOM_PARAMS, 3)),
}


class TestMedianOfMeansThroughTheApi:
    """The CLI draws by the plain mean alone; median of means stays for the
    API callers of the ratio experiments, which draw the g column i.i.d.
    through sample_values and reduce it whole."""

    @pytest.mark.parametrize("name", MOM_EXPERIMENTS)
    def test_blocks_reach_both_estimates(self, name):
        experiment, _ = MOM_EXPERIMENTS[name]
        r = experiment(2000, median_of_means(11))
        for est in (r.numerator, r.denominator):
            assert est.method == median_of_means(11) and est.n_samples == 2000

    @pytest.mark.parametrize("name", MOM_EXPERIMENTS)
    def test_budget_below_blocks_rejected(self, name):
        experiment, _ = MOM_EXPERIMENTS[name]
        with pytest.raises(ValueError, match="10 samples cannot fill 31 blocks"):
            experiment(10, median_of_means(31))

    @pytest.mark.parametrize("name", MOM_EXPERIMENTS)
    def test_g_column_reduced_whole(self, monkeypatch, name):
        # three chunks with a partial last one; the last
        # 2 * CHUNK + 5 - 31 * 2114 = 7 values fill no block
        experiment, make_sampler = MOM_EXPERIMENTS[name]
        method, n = median_of_means(31), 2 * CHUNK + 5
        runs = [experiment(n, method, threads) for threads in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]
        sampler = make_sampler()
        _, g = sample_values(sampler, n, seed=2)
        assert runs[0].denominator == estimate_from_values(g, method)
        x, _ = sampler(chunk_rng(0, 0), 1)
        assert runs[0].numerator == Estimate(value=x, halfwidth=0.0, n_samples=n, method=method)

        def no_stream(seed, index):
            raise AssertionError("drew before the budget was refused")

        monkeypatch.setattr(montecarlo, "chunk_rng", no_stream)
        with pytest.raises(ValueError, match="30 samples cannot fill 31 blocks"):
            experiment(30, method, 2)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_exact_side_must_agree_between_chunks(self, threads):
        # the last chunk is partial, so m differs there
        def drifting(rng, m):
            return float(m), rng.random(m)

        with pytest.raises(ValueError, match="same float in every chunk"):
            montecarlo._sup_ratio(drifting, 2 * CHUNK + 5, median_of_means(3), 0, threads)


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


def _binomial_limit(trials: int, prob: float, tail: float = 1e-3) -> int:
    """The least k with P[Binomial(trials, prob) > k] <= tail."""
    cdf, k = 0.0, 0
    while True:
        cdf += math.comb(trials, k) * prob**k * (1.0 - prob) ** (trials - k)
        if 1.0 - cdf <= tail:
            return k
        k += 1


class TestStratifiedDraws:
    """On a plain-mean pass the continuous kernel at r = p draws its uniforms
    two to a stratum of the whole column, each chunk filling its window of
    the strata (montecarlo._fill_strata); its chunks reduce by the squared
    differences within the pairs and merge by their shares of the column.
    The discrete kernel draws replicates (TestReplicatedDraws); every other
    sampler and estimator draws i.i.d."""

    PARAMS = ExtremalParams(p=0.5, n=10)
    # P[|z| > 3] of a normal z, and the binomial limit of the coverage runs
    BEYOND_3 = math.erfc(3.0 / math.sqrt(2.0))
    RUNS = 200

    # (start, m, n): whole columns, then windows of longer ones, among them
    # the stratum of three split 2 + 1 at a last chunk of one value
    WINDOWS = [(0, m, m) for m in (1, 2, 3, 4, 5, 8, 9, CHUNK, CHUNK + 3)] + [
        (CHUNK, CHUNK, 3 * CHUNK), (2 * CHUNK, 6, 2 * CHUNK + 6), (2 * CHUNK, 5, 2 * CHUNK + 5),
        (0, CHUNK, CHUNK + 1), (CHUNK, 1, CHUNK + 1), (4, 4, 11), (8, 3, 11)]

    @staticmethod
    def strata_of(start, m, n):
        """The lower end and width of the stratum of each entry of a window,
        in units of the scale 2/n: the column's last three entries of an odd
        n share [(n - 3)/2, n/2), and the window's other entries k and h + k
        the pair stratum [start/2 + k, start/2 + k + 1), with those three
        entries last."""
        t = len(set(range(start, start + m)) & set(range(n - 3, n))) if n % 2 else 0
        h = (m - t) // 2
        low = np.concatenate([start // 2 + np.arange(h), start // 2 + np.arange(h),
                              [(n - 3) / 2] * t])
        return low, np.where(np.arange(m) < 2 * h, 1.0, 1.5)

    @pytest.mark.parametrize(("start", "m", "n"), WINDOWS)
    def test_fill_puts_each_entry_in_its_stratum(self, start, m, n):
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            out = np.empty(m)
            scale = montecarlo._fill_strata(GridRng(np.full(m, u)), out, start, n)
            if n == 1:
                assert (scale, out[0]) == (1.0, u)
                continue
            assert scale == 2.0 / n
            low, width = self.strata_of(start, m, n)
            np.testing.assert_allclose(out, low + u * width, rtol=1e-14, atol=1e-15)
            assert np.all(out >= low) and np.all(out * scale < 1.0)
            # s = v c_u stays below 1 at c_u = 1, as at p = 0.01, n = 10
            _, g = sharpness_sup_sampler(ExtremalParams(0.01, 10))(
                ChunkStream(GridRng(np.full(m, u)), start, n), m)
            assert np.all(np.isfinite(g))

    @pytest.mark.parametrize("n", [2, 7, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 5, 3 * CHUNK])
    def test_chunks_tile_the_column(self, n):
        # every pair stratum of the column gets two entries, and an odd n's
        # stratum of three its three, across all chunks
        counts = np.zeros(n // 2 + 1, dtype=int)
        for start in range(0, n, CHUNK):
            m = min(CHUNK, n - start)
            out = np.empty(m)
            v = out * montecarlo._fill_strata(GridRng(np.full(m, 0.5)), out, start, n)
            np.add.at(counts, np.floor(v * n / 2).astype(int), 1)
        expected = np.full(n // 2, 2)
        if n % 2:
            expected[-1] = 3
        np.testing.assert_array_equal(counts[: n // 2], expected)
        assert counts[n // 2] == 0

    @pytest.mark.parametrize(("start", "m", "n"), [(1, 2, 8), (0, 3, 8), (2, 3, 9)])
    def test_fill_refuses_windows_that_split_a_pair(self, start, m, n):
        with pytest.raises(ValueError, match="even entry"):
            montecarlo._fill_strata(chunk_rng(0, 0), np.empty(m), start, n)

    @staticmethod
    def window(start, n):
        stream = ChunkStream(None, start, n)
        stream.spread = 10.0
        return stream

    def test_reduce_strata_formula(self):
        # pairs (1, 3) and (2, 2.5) at entries k and k + 2, then a triple
        values = np.array([1.0, 2.0, 3.0, 2.5, 7.0, 4.0, 5.0])
        part = montecarlo._reduce_strata(values.copy(), self.window(0, 7))
        tail = values[4:]
        pairs = (1.0 - 3.0) ** 2 + (2.0 - 2.5) ** 2
        assert part.count == 7 and part.mean == pytest.approx(values.mean(), rel=1e-15)
        assert part.variance == pytest.approx(
            (pairs + 1.5 * np.sum((tail - tail.mean()) ** 2)) / 49, rel=1e-14)
        even = montecarlo._reduce_strata(values[:4].copy(), self.window(0, 4))
        assert even.mean == 2.125
        assert even.variance == pytest.approx(pairs / (4 * 2**2), rel=1e-15)
        # a window of a longer column reduces the same
        assert montecarlo._reduce_strata(values[:4].copy(), self.window(8, 20)) == even
        # two values of the stratum of three carry its whole variance, 3 s^2
        # with s^2 = d^2/2 from their difference d = 3, and the chunk
        # holding its third value adds none
        split = montecarlo._reduce_strata(values[:6].copy(), self.window(0, 7))
        assert split.variance == pytest.approx((pairs + 1.5 * 3.0**2) / 36, rel=1e-14)
        assert montecarlo._reduce_strata(np.array([4.0]), self.window(6, 7)).variance == 0.0
        # a column of one value: the largest variance of a value in an
        # interval of width 10
        assert montecarlo._reduce_strata(np.array([4.0]), self.window(0, 1)).variance == 25.0

    def test_chunks_merge_by_their_shares_of_the_column(self):
        parts = [montecarlo._Strata(4, 1.0, 0.5), montecarlo._Strata(2, 3.0, 2.0)]
        est = montecarlo._merge_chunks(parts, 6)
        assert est.value == pytest.approx((4 * 1.0 + 2 * 3.0) / 6, rel=1e-15)
        assert est.halfwidth == pytest.approx(
            math.sqrt((4 / 6) ** 2 * 0.5 + (2 / 6) ** 2 * 2.0), rel=1e-15)
        with pytest.raises(ValueError, match="mixes"):
            montecarlo._merge_chunks(parts + [(3, 1.0, 0.1)], 9)

    def test_half_width_has_a_rounding_floor(self):
        # a column whose strata leave no variance reports 2^-48 of its mean
        est = montecarlo._merge_chunks([montecarlo._Strata(2, -3.0, 0.0)], 2)
        assert est.halfwidth == 3.0 * 2.0**-48

    @pytest.mark.parametrize(("p", "n", "draws"),
                             [(0.001, 10**5, 10**6), (0.1, 1000, 10**6), (0.01, 10, 4 * 10**6)])
    def test_floor_keeps_the_interval_at_rounding(self, p, n, draws):
        # where the strata leave a variance below the rounding of the
        # values, the floor keeps |z| at most 3 (8.5e4 at (0.001, 10^5)
        # without it)
        sampler = sharpness_sup_sampler(ExtremalParams(p, n))
        (den,) = estimate_pair(self.g_column(sampler), draws, 0)
        assert abs(den.value - gtilde_sup_moment(p, n)) <= 3.0 * den.halfwidth

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n", [10, 40])
    def test_floor_does_not_bind_at_the_headline_budget(self, p, n):
        sampler = sharpness_sup_sampler(ExtremalParams(p, n))
        (den,) = estimate_pair(self.g_column(sampler), 10**6, 0)
        assert den.halfwidth > 10.0 * 2.0**-48 * den.value

    def test_spread_bounds_the_values(self):
        # the n = 1 rule reads the kernel's spread, which must hold every value
        for p, n in ((0.01, 10), (0.5, 10), (0.99, 1), (0.25, 1000)):
            sampler = sharpness_sup_sampler(ExtremalParams(p, n))
            stream = ChunkStream(chunk_rng(0, 0), 0, 2)
            sampler(stream, 2)
            v = np.linspace(0.0, 1.0 - 2.0**-53, 1 << 14)
            _, g = sampler(GridRng(v), v.size)
            assert np.ptp(g) <= stream.spread, (p, n)

    def test_only_the_plain_mean_at_r_equal_p_draws_strata(self):
        # the continuous kernel at r != p is bit for bit the i.i.d. reduction
        # of sample_values (the discrete kernel draws replicates:
        # TestReplicatedDraws)
        n, seed = 2 * CHUNK + 5, 3
        sampler = sharpness_sup_sampler(self.PARAMS, 0.25)
        _, g = sample_values(sampler, n, seed)
        assert estimate_pair(sampler, n, seed)[1] == estimate_from_values(g, PLAIN)
        _, g = sample_values(sharpness_sup_sampler(self.PARAMS), n, seed)
        iid = estimate_from_values(g, PLAIN)
        strata = estimate_pair(sharpness_sup_sampler(self.PARAMS), n, seed)[1]
        assert strata.halfwidth < 1e-3 * iid.halfwidth
        assert abs(strata.value - iid.value) < 4.0 * iid.halfwidth

    def test_chunk_stream_forwards_draws(self):
        stream = ChunkStream(chunk_rng(4, 0), 0, 5)
        assert stream.spread is None
        np.testing.assert_array_equal(stream.random(5), chunk_rng(4, 0).random(5))

    @pytest.mark.parametrize("n", [1, CHUNK + 1, 2 * CHUNK + 5, 3 * CHUNK + 5, 10**6])
    def test_remainder_chunks_are_thread_invariant(self, n):
        outputs = set()
        for threads in (1, 2, 3):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(f"sharpness --p 0.5 --n 10 --samples {n} --seed 5 "
                     f"--threads {threads}".split())
            payload, _ = json.JSONDecoder().raw_decode(out.getvalue())
            del payload["timestamp"], payload["config"]["threads"]
            outputs.add(json.dumps(payload, sort_keys=True))
        assert len(outputs) == 1
        den = payload["result"]["ratio"]["denominator"]
        assert den["halfwidth"] > 0
        assert abs(payload["result"]["denominator_z"]) < 4.0

    def misses(self, sampler, p, n, draws=CHUNK, runs=RUNS):
        """Runs of seeds 0 .. runs - 1 at a budget of draws, by default one
        chunk, whose estimate lies more than 3 half-widths from
        gtilde_sup_moment(p, n)."""
        oracle = gtilde_sup_moment(p, n)
        count = 0
        for seed in range(runs):
            (den,) = estimate_pair(sampler, draws, seed)
            count += not abs(den.value - oracle) <= 3.0 * den.halfwidth
        return count

    @staticmethod
    def g_column(sampler):
        return lambda rng, m: sampler(rng, m)[1:]

    @pytest.mark.parametrize(("p", "n"), [(0.01, 10), (0.5, 10)])
    def test_one_chunk_covers(self, p, n):
        """Over 200 seeds of one chunk, the runs beyond 3 half-widths stay
        within the Binomial(200, 0.0027) limit at 1e-3 (4); 0 were seen."""
        sampler = self.g_column(sharpness_sup_sampler(ExtremalParams(p, n)))
        assert self.misses(sampler, p, n) <= _binomial_limit(self.RUNS, self.BEYOND_3)

    @pytest.mark.parametrize(("p", "n"), [(0.01, 10), (0.5, 10)])
    def test_four_chunks_cover(self, p, n):
        """One stratification over a column of four chunks: over 200 seeds
        the runs beyond 3 half-widths stay within the Binomial(200, 0.0027)
        limit at 1e-3 (4)."""
        sampler = self.g_column(sharpness_sup_sampler(ExtremalParams(p, n)))
        assert self.misses(sampler, p, n, 4 * CHUNK) <= _binomial_limit(self.RUNS, self.BEYOND_3)

    def test_twin_with_cube_weights_fails(self, monkeypatch):
        # the column-wide fill merged with weights m_j^3/sum m^3, as when each
        # chunk was a stratification of its own: the short last chunk, which
        # holds the top 5 % of the strata, counts for 1e-4 of the mean
        def cube_weights(parts, n):
            total = sum(part.count**3 for part in parts)
            value = sum(part.count**3 / total * part.mean for part in parts)
            variance = sum((part.count**3 / total) ** 2 * part.variance for part in parts)
            return Estimate(value, math.sqrt(variance), n, PLAIN)

        monkeypatch.setattr(montecarlo, "_merge_chunks", cube_weights)
        sampler = self.g_column(sharpness_sup_sampler(self.PARAMS))
        runs = 20
        misses = self.misses(sampler, 0.5, 10, CHUNK + CHUNK // 20, runs)
        assert misses > _binomial_limit(runs, self.BEYOND_3)

    def test_one_value_past_the_chunks_keeps_the_width(self):
        # at 2^15 + 1 draws the last chunk's one value is the third of the
        # stratum of three, whose other two end chunk 0: the half-width
        # stays within 2x of the one at 2^15 + 2, where it rests on pairs
        sampler = sharpness_sup_sampler(self.PARAMS)
        for seed in range(5):
            odd = estimate_pair(sampler, CHUNK + 1, seed)[1].halfwidth
            even = estimate_pair(sampler, CHUNK + 2, seed)[1].halfwidth
            assert 0.5 < odd / even < 2.0

    def test_twin_without_the_cusp_control_fails(self):
        # the kernel at r = p without W (s^p - c_u^p/(p+1)), drawn as the
        # kernel draws: the first strata carry the variance, and their pair
        # differences a heavy tail (27 of 200 seeds beyond 3)
        params = ExtremalParams(0.01, 10)
        p = params.p
        _, top, weight, c_u, beta = extremal._constants(params, p)
        slope, offset = beta / c_u, top - beta / c_u + 0.5 * beta

        def twin(rng, m):
            block = np.empty((2, m))
            s, rest = block
            scale = extremal._fill_uniforms(rng, s, 1.0)
            g = extremal._continuous_minus_phi(s, rest, p, p, c_u * scale)
            g *= weight
            rest *= slope
            g += rest
            g += offset
            return (g,)

        assert self.misses(twin, 0.01, 10) > _binomial_limit(self.RUNS, self.BEYOND_3)

    def test_twin_with_one_uniform_per_stratum_fails(self, monkeypatch):
        # both entries of a stratum from one uniform: the pair differences
        # vanish, and with them the half-width
        fill = montecarlo._fill_strata

        def one_per_stratum(rng, out, start, n):
            scale = fill(rng, out, start, n)
            h, _ = montecarlo._strata_window(start, out.size, n)
            out[h : 2 * h] = out[:h]
            return scale

        monkeypatch.setattr(montecarlo, "_fill_strata", one_per_stratum)
        sampler = self.g_column(sharpness_sup_sampler(self.PARAMS))
        assert self.misses(sampler, 0.5, 10) > _binomial_limit(self.RUNS, self.BEYOND_3)


class TestReplicatedDraws:
    """On a plain-mean pass the discrete kernel draws its uniforms as R =
    REPLICATES replicated Latin columns of the whole column, each chunk
    filling its window of them (montecarlo._fill_strata at R rows); its
    chunks reduce to their replicates' sums, which add up in chunk order to
    R replicate means, read by the t_(R-1) quantile. Columns shorter than 2R
    and every sample_values draw stay i.i.d."""

    R = montecarlo.REPLICATES
    PARAMS = ExtremalParams(p=0.5, n=10)
    BEYOND_3 = math.erfc(3.0 / math.sqrt(2.0))
    # whole columns, one chunk or more, that neither CHUNK nor R divides,
    # among them a last stratum whose unused values are a chunk of their own
    COLUMNS = [2 * R, 3 * R - 1, CHUNK + 5, 2 * CHUNK + 40, 3 * CHUNK + 5]

    def test_t_quantile_is_scipys(self):
        from scipy.stats import t

        level = 1.0 - 0.5 * math.erfc(3.0 / math.sqrt(2.0))
        assert montecarlo._T_QUANTILE == pytest.approx(t.ppf(level, self.R - 1), rel=1e-13)

    def column(self, n, seed):
        """(v, replicate, weight, drawn) of every entry of a replicated
        column of n on seed's chunk streams: v, its replicate and its weight
        rebuilt from the streams' uniforms, and the v that
        ChunkStream.replicates draws. The column's last stratum holds its
        last R + e entries, e = n % R, the first R of them one per replicate
        at weight (R + e)/R and the other e unused (replicate -1); a chunk's
        other entries lie h to a row, row i replicate i's, entry k of each
        row in stratum start/R + k."""
        R = self.R
        e = n % R
        last = n - R - e if e else n
        v, rep, weight, drawn = [], [], [], []
        for j, start in enumerate(range(0, n, CHUNK)):
            m = min(CHUNK, n - start)
            u = chunk_rng(seed, j).random(m)
            out = np.empty(m)
            scale = ChunkStream(chunk_rng(seed, j), start, n).replicates(out)
            drawn.append(out * scale)
            regular = max(0, min(start + m, last) - start)
            h = regular // R
            k = np.arange(regular) % h if h else np.arange(0)
            v.append((start // R + k + u[:regular]) * R / n)
            rep.append(np.arange(regular) // h if h else np.arange(0))
            weight.append(np.ones(regular))
            index = np.arange(start + regular, start + m) - last
            v.append((n // R - 1 + u[regular:] * (R + e) / R) * R / n)
            rep.append(np.where(index < R, index, -1))
            weight.append(np.where(index < R, (R + e) / R, 0.0))
        return tuple(map(np.concatenate, (v, rep, weight, drawn)))

    @pytest.mark.parametrize("n", COLUMNS)
    def test_each_replicate_is_one_per_stratum(self, n):
        v, rep, weight, drawn = self.column(n, seed=1)
        np.testing.assert_allclose(drawn, v, rtol=1e-15, atol=1e-15)
        assert np.all(drawn < 1.0)
        m = n // self.R
        for i in range(self.R):
            strata = np.minimum(np.floor(drawn[rep == i] * n / self.R), m - 1)
            np.testing.assert_array_equal(np.sort(strata), np.arange(m))
        assert np.sum(rep == -1) == n % self.R

    @pytest.mark.parametrize("n", COLUMNS)
    @pytest.mark.parametrize("threads", [1, 3])
    def test_estimate_is_the_mean_of_replicate_means(self, n, threads):
        # f(v) = v^2 through the replicates: the estimate and its half-width
        # from the rebuilt column's replicate means
        def square(rng, m):
            out = np.empty(m)
            out *= rng.replicates(out)
            return (out * out,)

        v, rep, weight, _ = self.column(n, seed=2)
        means = np.array([np.sum((weight * v * v)[rep == i]) * self.R / n
                          for i in range(self.R)])
        (est,) = estimate_pair(square, n, 2, threads)
        assert est.value == pytest.approx(means.mean(), rel=1e-13)
        t_over_3 = montecarlo._T_QUANTILE / 3.0
        assert est.halfwidth == pytest.approx(
            t_over_3 * means.std(ddof=1) / math.sqrt(self.R), rel=1e-9)
        assert abs(est.value - 1.0 / 3.0) <= 3.0 * est.halfwidth

    def test_replicates_merge_in_chunk_order(self):
        R = self.R
        parts = [montecarlo._Replicates(np.arange(R, dtype=float)),
                 montecarlo._Replicates(np.ones(R))]
        est = montecarlo._merge_chunks(parts, 4 * R)
        means = (np.arange(R) + 1.0) / 4
        assert est.value == means.mean()
        assert est.halfwidth == pytest.approx(
            montecarlo._T_QUANTILE / 3.0 * means.std(ddof=1) / math.sqrt(R), rel=1e-15)
        with pytest.raises(ValueError, match="mixes"):
            montecarlo._merge_chunks(parts + [(3, 1.0, 0.1)], 4 * R + 3)
        # replicates that agree leave the rounding floor
        flat = [montecarlo._Replicates(np.full(R, 8.0))]
        assert montecarlo._merge_chunks(flat, 2 * R).halfwidth == 4.0 * 2.0**-48

    # sampler -> the rows its chunks are drawn at: the discrete pair, its
    # freeze (monotone_sup_sampler at a level) and the discrete generator's
    # sampler_at draw replicates, the continuous kernel at r = p pairs
    KERNELS = {
        "discrete": (discrete_sup_sampler(PARAMS, 4), R),
        "freeze": (monotone_sup_sampler(PARAMS, horizon=5, level_N=4), R),
        "sampler_at": (DiscreteExtremalGenerator(PARAMS, 4).sampler_at(80, 0.5), R),
        "continuous": (sharpness_sup_sampler(PARAMS), 2),
        "continuous r != p": (sharpness_sup_sampler(PARAMS, 0.25), None),
    }

    @pytest.mark.parametrize("name", KERNELS)
    def test_which_kernels_draw_replicates(self, monkeypatch, name):
        sampler, rows = self.KERNELS[name]
        seen = []
        reduce_chunk = montecarlo._reduce_chunk

        def recording(values, stream=None):
            seen.append(stream.rows)
            return reduce_chunk(values, stream)

        monkeypatch.setattr(montecarlo, "_reduce_chunk", recording)
        estimate_pair(sampler, 2 * CHUNK + 5, 0)
        assert seen == [rows] * 3

    @pytest.mark.parametrize("n", [2, 5, 2 * R - 1])
    def test_short_columns_stay_iid(self, n):
        # bit for bit the i.i.d. reduction of sample_values
        sampler = discrete_sup_sampler(self.PARAMS, 4)
        _, g = sample_values(sampler, n, 4)
        assert estimate_pair(sampler, n, 4)[1] == estimate_from_values(g, PLAIN)

    def test_one_iid_value_is_refused(self):
        with pytest.raises(ValueError, match="no standard error"):
            estimate_pair(discrete_sup_sampler(self.PARAMS, 4), 1, 0)

    @pytest.mark.parametrize("n", [2 * R, 2 * CHUNK + 5])
    def test_sample_values_draws_iid(self, n):
        # the kernel on each chunk stream's own uniforms, as median of means
        # reads them (discrete_ratio_experiment), where estimate_pair draws
        # replicates
        sampler = discrete_sup_sampler(self.PARAMS, 4)
        _, g = sample_values(sampler, n, 4)
        sizes = [min(CHUNK, n - start) for start in range(0, n, CHUNK)]
        expected = [sampler(GridRng(chunk_rng(4, j).random(m)), m)[1]
                    for j, m in enumerate(sizes)]
        np.testing.assert_array_equal(g, np.concatenate(expected))
        assert estimate_pair(sampler, n, 4)[1] != estimate_from_values(g, PLAIN)

    def misses(self, sampler, oracle, draws, runs=1000):
        """Runs of seeds 0 .. runs - 1 at a budget of draws whose g estimate
        lies more than 3 half-widths from oracle."""
        count = 0
        for seed in range(runs):
            (den,) = estimate_pair(lambda rng, m: sampler(rng, m)[1:], draws, seed)
            count += not abs(den.value - oracle) <= 3.0 * den.halfwidth
        return count

    @pytest.mark.parametrize(("p", "draws"), [(0.5, 64), (0.5, 1024), (0.1, 64), (0.1, 1024)])
    def test_replicated_columns_cover(self, p, draws):
        """Over seeds 0-999 the runs beyond 3 half-widths, the t_31 bound on
        the replicate means, from the exact discrete moment stay within the
        Binomial(1000, 0.0027) limit at 1e-3 (9); 7, 5, 0 and 5 were seen,
        and over seeds 0-9999 42, 25, 23 and 32 (27 expected)."""
        sampler = discrete_sup_sampler(ExtremalParams(p, 10), 4)
        misses = self.misses(sampler, discrete_rhs(p, 10, 4), draws)
        assert misses <= _binomial_limit(1000, self.BEYOND_3)

    def test_twin_with_one_stream_for_every_replicate_fails(self, monkeypatch):
        # every replicate drawn from replicate 0's uniforms: the replicate
        # means agree, and the half-width falls to the rounding floor
        fill = montecarlo._fill_strata

        def one_stream(rng, out, start, n, rows=2):
            scale = fill(rng, out, start, n, rows)
            h, _ = montecarlo._strata_window(start, out.size, n, rows)
            out[h : rows * h] = np.tile(out[:h], rows - 1)
            return scale

        monkeypatch.setattr(montecarlo, "_fill_strata", one_stream)
        sampler = discrete_sup_sampler(self.PARAMS, 4)
        runs = 100
        misses = self.misses(sampler, discrete_rhs(0.5, 10, 4), 1024, runs)
        assert misses > _binomial_limit(runs, self.BEYOND_3)
