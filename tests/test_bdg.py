"""Brownian-motion ratio experiment and bridge-maximum refinement."""

import math

import numpy as np
import pytest

from lenglart import bdg
from lenglart.bdg import (
    BM_FIXED_TIME,
    BM_HITTING,
    MartingaleSpec,
    _CDF_AT_ONE,
    _CV_BETA,
    _CV_RELATIVE_SD,
    _VALIDATION_PIECES,
    _bridge_max,
    _bridge_min,
    _bridge_steps,
    _control_coefficients,
    _exact_fixed_time_sampler,
    _fixed_time_sampler,
    _hitting_sampler,
    _log_quantile,
    _stepped_extrema,
    _sup_abs_quantile,
    _validation_samples,
    _value_and_controls,
    bdg_ratio,
)
from lenglart.cli import EXIT_STAT_FAIL, main
from lenglart import montecarlo
from lenglart.montecarlo import (
    CHUNK,
    PLAIN,
    VALIDATION_STREAM,
    estimate_from_values,
    estimate_pair,
    estimate_passes,
    sample_values,
)
from lenglart.oracles import sup_abs_bm_law, sup_abs_bm_moment

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)  # E[sup_{[0,1]} |B|]... see below


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


class TestSpecValidation:
    def test_valid(self):
        MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, T=2.0)
        MartingaleSpec(kind=BM_HITTING, a=-0.5, b=1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bm_levy"},
            {"kind": BM_FIXED_TIME, "q": 0.0},
            {"kind": BM_FIXED_TIME, "q": 2.0},
            {"kind": BM_FIXED_TIME, "step": 0.0},
            {"kind": BM_FIXED_TIME, "T": 0.0},
            {"kind": BM_HITTING, "a": 0.5, "b": 1.0},
            # step counts: round(T / step) of 0 and of more than 10^6, and
            # 50 / step above 10^6 at the hitting time
            {"kind": BM_FIXED_TIME, "T": 1.0, "step": 2.5},
            {"kind": BM_FIXED_TIME, "T": 1e300},
            {"kind": BM_FIXED_TIME, "step": 1e-300},
            {"kind": BM_FIXED_TIME, "step": 1.0 / (10**6 + 1)},
            {"kind": BM_HITTING, "step": 4.9e-5},
            {"kind": BM_HITTING, "a": -math.inf},
            {"kind": BM_HITTING, "b": math.inf},
            {"kind": BM_HITTING, "a": math.nan},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MartingaleSpec(**kwargs)


    def test_step_count_cap(self):
        # the largest step counts the cap admits: 10^6 fixed-time steps,
        # 50 / step = 10^6 at the hitting time
        MartingaleSpec(kind=BM_FIXED_TIME, step=1e-6)
        MartingaleSpec(kind=BM_FIXED_TIME, T=1.0, step=1.9)
        MartingaleSpec(kind=BM_HITTING, step=5e-5)


class TestBridgeExtrema:
    def test_bounds_endpoints(self):
        rng = rng_of(1)
        x0 = rng.standard_normal(10_000)
        x1 = x0 + rng.standard_normal(10_000) * 0.1
        u = rng.random(10_000)
        m_up = _bridge_max(x0, x1, 0.01, u)
        m_dn = _bridge_min(x0, x1, 0.01, u)
        assert np.all(m_up >= np.maximum(x0, x1) - 1e-12)
        assert np.all(m_dn <= np.minimum(x0, x1) + 1e-12)

    def test_step_is_the_closed_forms(self):
        # each in-place step draws a normal, then a uniform for the maximum
        # and one for the minimum, and matches the closed forms bit for bit,
        # alone and in a block of three steps
        h = 0.01
        for k in (1, 3):
            x = np.full((k + 1, 5_000), np.nan)
            x[0] = rng_of(3).standard_normal(5_000)
            u, work = np.full((k, 2, 5_000), np.nan), np.full((k, 5_000), np.nan)
            _bridge_steps(rng_of(4), x, u, work, h, math.sqrt(h))
            rng = rng_of(4)
            x0 = x[0]
            for i in range(k):
                end = x0 + rng.standard_normal(x0.size) * math.sqrt(h)
                u_max, u_min = rng.random(x0.size), rng.random(x0.size)
                np.testing.assert_array_equal(x[i + 1], end)
                np.testing.assert_array_equal(u[i, 0], _bridge_max(x0, end, h, u_max))
                np.testing.assert_array_equal(u[i, 1], _bridge_min(x0, end, h, u_min))
                x0 = end

    def test_tail_law(self):
        # for a bridge from 0 to 0 over h, P[max >= m] = exp(-2 m^2 / h)
        h, m_level = 0.04, 0.15
        u = rng_of(2).random(400_000)
        m_up = _bridge_max(np.zeros_like(u), np.zeros_like(u), h, u)
        target = math.exp(-2.0 * m_level**2 / h)
        emp = float((m_up >= m_level).mean())
        se = math.sqrt(target * (1 - target) / u.size)
        assert abs(emp - target) < 4.0 * se


def reference_extrema(rng, m, n_steps, h, sqrt_h):
    """`_stepped_extrema` one step at a time, each step's operations on
    arrays of m paths: the scheme that the blocked kernel must reproduce."""
    pos, nxt, up, dn, work = np.zeros((5, m))
    run_max = np.zeros(m)
    run_min = np.zeros(m)
    for _ in range(n_steps):
        rng.standard_normal(out=nxt)
        nxt *= sqrt_h
        nxt += pos
        rng.random(out=up)
        rng.random(out=dn)
        for u in (up, dn):
            np.log(u, out=u)
            u *= 2.0 * h
        np.subtract(nxt, pos, out=work)
        work *= work
        for u in (up, dn):
            np.subtract(work, u, out=u)
            np.sqrt(u, out=u)
        np.add(pos, nxt, out=work)
        up += work
        np.subtract(work, dn, out=dn)
        up *= 0.5
        dn *= 0.5
        pos, nxt = nxt, pos
        np.maximum(run_max, up, out=run_max)
        np.minimum(run_min, dn, out=run_min)
    run_low = -run_min
    return (run_max, run_low, np.maximum(run_max - pos, 0.0), np.maximum(run_low + pos, 0.0),
            pos)


def exact_mean(q, T):
    """E = T^(q/2) E|N|^q, the mean of M^q, L^q, Mr^q, Lr^q and |B_T|^q."""
    return T ** (q / 2.0) * 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)


class TestSteppedBlocks:
    @pytest.mark.parametrize("m", [1, 5, 3528])
    @pytest.mark.parametrize("n_steps", [1, 7, 50])
    @pytest.mark.parametrize("block_steps", [1, 3, "all", "default"])
    def test_blocks_are_the_per_step_scheme(self, monkeypatch, m, n_steps, block_steps):
        # blocks of one step, of 3 (which divides neither 7 nor 50), of
        # every step and of the default size (9 steps at 3528 paths) give
        # the per-step scheme's extrema and end points bit for bit
        if block_steps != "default":
            k = n_steps if block_steps == "all" else block_steps
            monkeypatch.setattr(bdg, "_BLOCK_CELLS", k * m)
        h = 1.0 / n_steps
        blocked = _stepped_extrema(rng_of(m + n_steps), m, n_steps, h, math.sqrt(h))
        reference = reference_extrema(rng_of(m + n_steps), m, n_steps, h, math.sqrt(h))
        for got, want in zip(blocked, reference, strict=True):
            np.testing.assert_array_equal(got, want)


class TestFixedTime:
    def test_expected_sup_abs(self):
        # E[sup_{[0,1]} |B|] = sqrt(pi/2)
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=2e-3, T=1.0)
        (den,) = sample_values(_fixed_time_sampler(spec, spec.step), 60_000, seed=3)
        est = estimate_from_values(den, PLAIN)
        assert abs(est.value - SQRT_HALF_PI) < 4.0 * est.halfwidth + 0.01

    def test_numerator_is_deterministic(self):
        # E[<B,B>_T^(q/2)] = T^(q/2) is reported exactly, with half-width 0,
        # not reduced from a column of draws, whose mean could miss it by
        # rounding at T != 1
        for T, q in ((4.0, 1.0), (5.0, 1.5), (2.0, 1.0)):
            spec = MartingaleSpec(kind=BM_FIXED_TIME, q=q, step=T / 20, T=T)
            num = bdg_ratio(spec, n_samples=1000, seed=0).ratio.numerator
            assert (num.value, num.halfwidth, num.n_samples) == (T ** (q / 2.0), 0.0, 1000)


class TestExactFixedTime:
    def test_quantile_inverts_cdf(self):
        u = np.concatenate([
            rng_of(9).random(10**5),
            2.0**-53 * np.arange(1, 200),          # near 0
            1.0 - 2.0**-53 * np.arange(1, 200),    # near 1
            [np.nextafter(_CDF_AT_ONE, 0.0), _CDF_AT_ONE, np.nextafter(_CDF_AT_ONE, 1.0)],
        ])
        u = np.maximum(u, 2.0**-53)
        x = _sup_abs_quantile(u)
        np.testing.assert_allclose(sup_abs_bm_law(x)[0], u, rtol=0.0, atol=1e-12)

    def test_table_matches_newton(self):
        # the table's quantile against Newton's over 2^20 uniforms, at both
        # ends of the uniforms' range and on both sides of the switch
        # between the two series
        u = np.concatenate([
            rng_of(21).random(1 << 20),
            [2.0**-53, 1.0 - 2.0**-53,
             np.nextafter(_CDF_AT_ONE, 0.0), _CDF_AT_ONE, np.nextafter(_CDF_AT_ONE, 1.0)],
        ])
        u = np.maximum(u, 2.0**-53)
        np.testing.assert_allclose(np.exp(_log_quantile(u)), _sup_abs_quantile(u),
                                   rtol=1e-11, atol=0.0)

    def test_table_leaves_u_alone(self):
        u = rng_of(22).random(1000)
        kept = u.copy()
        _log_quantile(u)
        np.testing.assert_array_equal(u, kept)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_mean_matches_oracle(self, q):
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=q, T=2.0)
        (den,) = sample_values(_exact_fixed_time_sampler(spec), 200_000, seed=10)
        est = estimate_from_values(den, PLAIN)
        assert abs(est.value - sup_abs_bm_moment(q, 2.0)) < 4.0 * est.halfwidth


class TestControlVariate:
    """The stepped validation value (max(M, L)^q + max(Mr, Lr)^q) / 2 less
    beta1 and beta2 times two controls of mean 0,
    (M^q + L^q + Mr^q + Lr^q) / 2 - 2 E and |B_T|^q - E."""

    def test_relative_sd_bound(self):
        # the validation budget is sized from one relative sd bound at every
        # step count; each step count's paths serve every q
        for n_steps in (1, 2, 3, 5, 20):
            h = 1.0 / n_steps
            extrema = _stepped_extrema(rng_of(11), 10**5, n_steps, h, math.sqrt(h))
            for q in np.linspace(0.01, 1.99, 34):
                beta1, beta2 = _control_coefficients(q)
                plain, sides, end = _value_and_controls(extrema, q, exact_mean(q, 1.0))
                value = plain - beta1 * sides - beta2 * end
                assert value.std() / value.mean() <= _CV_RELATIVE_SD, (n_steps, q)

    @pytest.mark.parametrize("n_steps", [1, 2, 20])
    def test_reversal_invariance(self, n_steps):
        # the reversed path's max(Mr, Lr) has the forward max(M, L)'s law,
        # stepping bias included: their powers' paired difference has mean 0
        h = 2.0 / n_steps
        run_max, run_low, rev_max, rev_low, _ = _stepped_extrema(
            rng_of(14), 10**5, n_steps, h, math.sqrt(h))
        for q in (0.5, 1.0, 1.5):
            diff = np.maximum(rev_max, rev_low)**q - np.maximum(run_max, run_low)**q
            assert abs(diff.mean()) < 4.0 * diff.std() / math.sqrt(diff.size), q

    @pytest.mark.parametrize("n_steps", [1, 20])
    def test_controls_keep_the_plain_mean(self, n_steps):
        # the controlled value and the plain (max(M, L)^q + max(Mr, Lr)^q) / 2
        # of the same paths agree within their paired difference's standard
        # error: the controls have mean 0
        h = 1.0 / n_steps
        extrema = _stepped_extrema(rng_of(18), 10**5, n_steps, h, math.sqrt(h))
        for q in (0.05, 0.5, 1.0, 1.5, 1.95):
            beta1, beta2 = _control_coefficients(q)
            plain, sides, end = _value_and_controls(extrema, q, exact_mean(q, 1.0))
            diff = (plain - beta1 * sides - beta2 * end) - plain
            assert abs(diff.mean()) < 4.0 * diff.std() / math.sqrt(diff.size), q

    def test_coefficients_interpolate_the_table(self):
        # rows are q = 0, 0.05, ..., 2, read as they are on a row and linearly
        # between rows
        assert [row[0] for row in _CV_BETA] == [round(0.05 * i, 2) for i in range(41)]
        assert _control_coefficients(0.5) == _CV_BETA[10][1:]
        (_, a1, a2), (_, b1, b2) = _CV_BETA[14:16]
        assert _control_coefficients(0.71) == pytest.approx((0.8 * a1 + 0.2 * b1,
                                                             0.8 * a2 + 0.2 * b2))

    def test_value_averages_path_and_reversal(self):
        q, T, n_steps = 0.72, 2.0, 5
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=q, step=T / n_steps, T=T)
        (value,) = _fixed_time_sampler(spec, spec.step)(rng_of(15), 1000)
        h = T / n_steps
        run_max, run_low, rev_max, rev_low, end = _stepped_extrema(
            rng_of(15), 1000, n_steps, h, math.sqrt(h))
        e = exact_mean(q, T)
        beta1, beta2 = _control_coefficients(q)
        plain = 0.5 * (np.maximum(run_max, run_low)**q + np.maximum(rev_max, rev_low)**q)
        sides = 0.5 * (run_max**q + run_low**q + rev_max**q + rev_low**q) - 2.0 * e
        np.testing.assert_array_equal(
            value, plain - beta1 * sides - beta2 * (np.abs(end)**q - e))

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_mean_matches_oracle(self, q):
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=q, step=0.05, T=2.0)
        (value,) = _fixed_time_sampler(spec, spec.step)(rng_of(12), 10**5)
        est = estimate_from_values(value, PLAIN)
        assert abs(est.value - sup_abs_bm_moment(q, 2.0)) < 4.0 * est.halfwidth

    def test_reversal_at_rounding_is_not_negative(self):
        # uniforms of 1 - 2^-53 put each bridge maximum and minimum within
        # rounding of its end points, where they can fall on the wrong side
        # of the end point B_T; the reversed path's M - B_T and L + B_T must
        # still not be negative
        class TopUniforms:
            normals = rng_of(17)

            def standard_normal(self, out):
                self.normals.standard_normal(out=out)

            def random(self, out):
                out.fill(1.0 - 2.0**-53)

        h = 0.05
        _, _, rev_max, rev_low, _ = _stepped_extrema(TopUniforms(), 10**4, 20, h, math.sqrt(h))
        assert np.all(rev_max >= 0.0) and np.all(rev_low >= 0.0)

    def test_budget_ignores_samples(self):
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=0.05)
        small, large = (bdg_ratio(spec, n_samples=n, seed=13, threads=2).to_json()
                        for n in (5_000, 10**6))
        assert small["validation"]["n"] == large["validation"]["n"] == _validation_samples(0.01)


class TestHitting:
    def test_symmetric_barriers_pin_the_sup(self):
        # exit from (-1, 1): sup|M| = 1 on every non-censored path
        spec = MartingaleSpec(kind=BM_HITTING, q=1.0, step=1e-2, a=-1.0, b=1.0)
        num, den = _hitting_sampler(spec, spec.step)(rng_of(4), 4000)
        assert float(np.mean(np.abs(den - 1.0) < 1e-9)) > 0.999
        # E[T] = |a| b = 1 for the exit time
        assert abs(float((num**2).mean()) - 1.0) < 0.05

    def test_asymmetric_barriers_bound_the_sup(self):
        # exit from (-0.5, 1.5): sup|M| <= 1.5 on every path, >= 0.5 on
        # every exited one, and exactly 1.5 on the exits through b, whose
        # probability is |a| / (b - a) = 0.25
        a, b, q = -0.5, 1.5, 1.5
        spec = MartingaleSpec(kind=BM_HITTING, q=q, step=1e-2, a=a, b=b)
        num, den = _hitting_sampler(spec, spec.step)(rng_of(9), 4000)
        sup = den ** (1.0 / q)
        exited = num < bdg._HITTING_HORIZON_CAP ** (q / 2.0)
        assert exited.mean() > 0.999
        assert np.all(sup <= max(b, -a) * (1.0 + 1e-12))
        assert np.all(sup[exited] >= min(b, -a) * (1.0 - 1e-12))
        assert abs(float(np.mean(np.abs(sup - b) < 1e-9)) - 0.25) < 0.03

    def test_ratio_below_monotone_constant(self):
        spec = MartingaleSpec(kind=BM_HITTING, q=1.0, step=5e-3, a=-1.0, b=1.0)
        result = bdg_ratio(spec, n_samples=20_000, seed=5)
        assert result.ratio.ratio <= math.sqrt(2.0)
        assert result.passed, result.to_json()


class TestBdgRatio:
    def test_fixed_time_result(self):
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=2e-3, T=1.0)
        result = bdg_ratio(spec, n_samples=30_000, seed=6)
        # ratio = 1 / E[sup|B|] = sqrt(2/pi) ~ 0.798
        assert result.ratio.ratio == pytest.approx(1.0 / SQRT_HALF_PI, abs=0.02)
        assert result.reverse_ratio == pytest.approx(SQRT_HALF_PI, abs=0.03)
        assert result.bias_relative_change < 0.01
        assert result.passed
        gaps = result.constant_gaps
        assert gaps["monotone"] <= gaps["pratelli_power"] <= gaps["lenglart"]

    def test_json_shape(self):
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=5e-2, T=1.0)
        result = bdg_ratio(spec, n_samples=5_000, seed=7)
        d = result.to_json()
        assert set(d) >= {"kind", "q", "step", "ratio", "reverse_ratio",
                          "constant_gaps", "bias_relative_change", "pass"}

    def test_fixed_time_reports_oracle_and_z(self):
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=5e-2, T=1.0)
        d = bdg_ratio(spec, n_samples=5_000, seed=7).to_json()
        den = d["ratio"]["denominator"]
        assert d["denominator_oracle"] == pytest.approx(SQRT_HALF_PI, abs=1e-10)
        assert d["denominator_z"] == pytest.approx(
            (den["value"] - d["denominator_oracle"]) / den["halfwidth"])
        assert abs(d["denominator_z"]) < 4.0

    def test_bias_check_is_stepped_pass_against_oracle(self):
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.5, step=5e-2, T=1.0)
        result = bdg_ratio(spec, n_samples=5_000, seed=7)
        # pieces of half the paths, drawn from the validation's first streams
        n_check = _validation_samples(0.01)
        piece = -(-n_check // _VALIDATION_PIECES)
        [(stepped,)] = estimate_passes(
            [(_fixed_time_sampler(spec, spec.step), n_check, piece, VALIDATION_STREAM)], PLAIN,
            seed=7)
        oracle = sup_abs_bm_moment(1.5, 1.0)
        assert result.bias_relative_change == abs(stepped.value - oracle) / oracle

    def test_validation_block(self):
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.5, step=5e-2, T=1.0)
        d = bdg_ratio(spec, n_samples=5_000, seed=7).to_json()
        v, oracle = d["validation"], d["denominator_oracle"]
        assert set(v) == {"n", "value", "halfwidth", "z"}
        assert v["n"] == _validation_samples(0.01)
        assert v["z"] == pytest.approx((v["value"] - oracle) / v["halfwidth"])
        assert d["bias_relative_change"] == abs(v["value"] - oracle) / oracle
        # standard error at most a sixth of the tolerance
        assert v["halfwidth"] / oracle <= 0.01 / 6.0

    @pytest.mark.parametrize("step", [1.0, 0.5, 0.2, 0.05])
    def test_validation_halfwidth_bound(self, step):
        # near the worst q of the relative sd (about 0.8, at 2 to 50 steps),
        # the standard error is at most a sixth of the tolerance at any step
        # count
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=0.8, step=step, T=1.0)
        d = bdg_ratio(spec, n_samples=1_000, seed=16).to_json()
        assert d["validation"]["halfwidth"] / d["denominator_oracle"] <= 0.01 / 6.0

    def test_bias_check_can_fail(self, monkeypatch, capsys):
        # an oracle 2 % off must fail the 1 % bias check
        true_moment = bdg.sup_abs_bm_moment
        monkeypatch.setattr(bdg, "sup_abs_bm_moment", lambda q, T: 1.02 * true_moment(q, T))
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=2e-3, T=1.0)
        result = bdg_ratio(spec, n_samples=30_000, seed=6)
        assert result.passed is False
        assert result.bias_relative_change > 0.01
        code = main(["bdg", "--kind", "fixed", "--q", "1.0", "--samples", "5000",
                     "--step", "0.02", "--seed", "1"])
        assert code == EXIT_STAT_FAIL

    def test_hitting_reports_no_oracle(self):
        spec = MartingaleSpec(kind=BM_HITTING, q=1.0, step=5e-2)
        d = bdg_ratio(spec, n_samples=2_000, seed=7).to_json()
        assert "denominator_oracle" not in d and "denominator_z" not in d
        assert "validation" not in d

    @pytest.mark.parametrize("spec", [
        MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=2e-2, T=1.0),
        MartingaleSpec(kind=BM_HITTING, q=1.0, step=5e-2, a=-0.5, b=1.5),
    ], ids=["fixed", "hitting"])
    def test_thread_invariance(self, spec):
        # three chunks, so the threads split the work
        r1, r2, r3 = (bdg_ratio(spec, n_samples=2 * CHUNK + 5, seed=8, threads=threads)
                      for threads in (1, 2, 3))
        assert r1.to_json() == r2.to_json() == r3.to_json()

    def test_validation_streams_are_disjoint(self, monkeypatch):
        # the (seed, index) of the streams each pass draws, as chunk_rng was
        # asked for them: two validation pieces, and one chunk per CHUNK
        # exact-law draws
        streams, drawn = {}, {"validation": [], "exact": []}
        make_stream = montecarlo.chunk_rng

        def recording_stream(seed, index):
            rng = make_stream(seed, index)
            streams[id(rng)] = (seed, index)
            return rng

        def recording(factory, name):
            def make(*args):
                sampler = factory(*args)

                def draw(rng, m):
                    drawn[name].append(streams[id(rng)])
                    return sampler(rng, m)

                return draw

            return make

        monkeypatch.setattr(montecarlo, "chunk_rng", recording_stream)
        monkeypatch.setattr(bdg, "_make_sampler", recording(bdg._make_sampler, "validation"))
        monkeypatch.setattr(bdg, "_exact_fixed_time_sampler",
                            recording(bdg._exact_fixed_time_sampler, "exact"))
        seed = 5
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=0.05)
        bdg_ratio(spec, n_samples=4 * CHUNK + 1, seed=seed, threads=2)
        assert sorted(drawn["validation"]) == [(seed, VALIDATION_STREAM + j) for j in range(2)]
        assert sorted(drawn["exact"]) == [(seed, j) for j in range(5)]


class TestGolden:
    """Pinned values, recorded on stream layout 2: PCG64DXSM streams, and
    the validation on its own domain's streams (at fixed time in two pieces,
    each path averaged with its time reversal, with two controls; at the
    hitting time the half-step pass in chunks).
    Scheduling and buffer reuse must not move a bit of them, at any thread
    count."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fixed(self, threads):
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=0.02)
        r = bdg_ratio(spec, n_samples=65_536, seed=3, threads=threads)
        assert r.ratio.ratio == 0.7999590236748375
        assert (r.ratio.numerator.value, r.ratio.numerator.halfwidth) == (1.0, 0.0)
        assert (r.ratio.denominator.value, r.ratio.denominator.halfwidth) == (
            1.250064028787647, 0.001995136659824181)
        assert (r.validation.value, r.validation.halfwidth) == (
            1.2522157827590843, 0.0018556774414138987)
        assert r.bias_relative_change == 0.0008763601428486582

    @pytest.mark.parametrize("threads", [1, 2])
    def test_hitting(self, threads):
        spec = MartingaleSpec(kind=BM_HITTING, q=1.5, step=0.01, a=-0.5, b=1.5)
        r = bdg_ratio(spec, n_samples=40_000, seed=3, threads=threads)
        assert r.ratio.ratio == 0.8690115964854067
        assert (r.ratio.numerator.value, r.ratio.numerator.halfwidth) == (
            0.7413528689001587, 0.0028662792200351062)
        assert (r.ratio.denominator.value, r.ratio.denominator.halfwidth) == (
            0.8530989366522317, 0.003195989206718429)
        assert r.validation is None
        assert r.bias_relative_change == 0.0012108331595387426
