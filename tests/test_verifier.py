"""Generators, stopping rules, inequality checks and enumeration oracles."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom

from lenglart import verifier
from lenglart.extremal import ExtremalParams
from lenglart.montecarlo import PLAIN, default_method, estimate, estimate_pair
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
    generator_from_config,
    stopping_indices,
)


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class ScaledCompensatorGenerator(CompensatedBernoulliGenerator):
    """The compensated walk with its compensator scaled on the paths: below
    scale 1, E[X_tau] = E[G_tau] / scale > E[G_tau], so the domination
    hypothesis fails and a checker run on the paths must say so."""

    scale: float = 1.0

    def path_batch(self, rng, size):
        x, g = super().path_batch(rng, size)
        return x, self.scale * g


@dataclass(frozen=True)
class CountingGenerator(CompensatedBernoulliGenerator):
    """The compensated walk, recording the size of every path batch drawn."""

    sizes: list = field(default_factory=list, compare=False)

    def path_batch(self, rng, size):
        self.sizes.append(size)
        return super().path_batch(rng, size)


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


class TestEnumeration:
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
        with pytest.raises(ValueError, match="20"):
            enumerate_jump_sup_moments(0.3, 21, 0.5)


class TestGenerators:
    def test_bernoulli_sup_sampler_matches_enumeration(self):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12)
        e_x, e_g = enumerate_jump_sup_moments(0.3, 12, 0.5)
        base = gen.sup_sampler()
        est = estimate(lambda rng, m: base(rng, m)[0] ** 0.5, 200_000, PLAIN, seed=3)
        assert abs(est.value - e_x) < 3.0 * est.halfwidth
        sup_x, sup_g = base(rng_of(0), 100)
        assert np.all(sup_g == 12 * 0.3)

    def test_path_batch_shapes_and_monotonicity(self):
        gen = CompensatedBernoulliGenerator(jump=JumpLaw("exp"), steps=6)
        x, g = gen.path_batch(rng_of(2), 64)
        assert x.shape == (64, 7) and g.shape == (64, 7)
        assert np.all(np.diff(x, axis=1) >= 0)
        np.testing.assert_allclose(g[0], np.arange(7.0))

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.99])
    def test_extremal_generator_weighted_bounds(self, p):
        # the weighted values are bounded: 2n times the tail factor
        # 2/(U^p + 1 - p) on x, 2n (p (1 - e^(-t/p)))^p on g
        n = 5
        gen = ExtremalGenerator(ExtremalParams(p=p, n=n))
        x_p, g_p = gen.sup_sampler(p)(rng_of(1), 10_000)
        for vals in (x_p, g_p):
            assert np.all(np.isfinite(vals)) and np.all(vals >= 0)
        assert x_p.max() <= 4.0 * n / (1.0 - p) * (1 + 1e-12)
        assert g_p.max() <= 2.0 * n * p**p * (1 + 1e-12)

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
        for vals, exact in ((x_r, x_exact), (g_r, g_exact)):
            se = vals.std() / math.sqrt(vals.size)
            assert abs(vals.mean() - exact) < 4.0 * se, (vals.mean(), exact, se)

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
        x, g = gen.path_batch(rng_of(3), 32)
        assert np.all(np.diff(x, axis=1) >= 0)
        assert np.all(np.diff(g, axis=1) >= -1e-12)
        sup_x, sup_g = gen.sup_sampler()(rng_of(3), 32)
        np.testing.assert_allclose(sup_x, x.max(axis=1))

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
        lhs, rhs = estimate_pair(gen.sup_sampler(p), 10**5, default_method(p), 0)
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

    def test_requires_exact_compensator(self):
        gen = DiscreteExtremalGenerator(ExtremalParams(p=0.5, n=4), level_N=2)
        with pytest.raises(ValueError, match="domination"):
            check_pratelli(gen, PowerF(0.5), c=1.0)

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
    Their reports must match the values the earlier reduction of the
    concatenated arrays gave at this seed, to 1e-12 relative (means and
    standard errors; a difference of two means only to 1e-12 of the means,
    as it cancels)."""

    GEN = ExtremalGenerator(ExtremalParams(p=0.5, n=10))
    N = 3 * 2**15 + 17
    AUDIT = [  # (tau, mean_x, mean_g, stderr)
        ("fixed[8]", 1.718408386274201, 1.7179590295267444, 0.008043920101822777),
        ("fixed[20]", 11.188269646564644, 11.199963980531765, 0.07835165285777872),
        ("fixed[40]", 148.13707017310622, 151.3055763167881, 3.395700709538639),
        ("fixed[60]", 1930.6091104710413, 2078.6264445350166, 154.8887834560849),
        ("fixed[80]", 17010.865421292856, 23308.439451112565, 6255.770991192705),
        ("hit[x>=4.261]", 17010.865421292856, 23308.439451112565, 6255.770991192705),
        ("hit[x>=110.3]", 17010.865421292856, 23308.439451112565, 6255.770991192705),
        ("hit[x>=6868]", 17010.865421292856, 23308.439451112565, 6255.770991192705),
        ("hit[g>=1.631]", 1.1182990492421359, 1.116634147309079, 0.005365083938920627),
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

    @pytest.mark.parametrize("gen, n, seed, expected", [
        (GEN, N, 5, ("extremal:pratelli:hit[g>=1.631]", 0.4992101649759746,
                     0.0020120877514673012, 1.084567900762489, 0.0011077112927850026)),
        (CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12),
         40_000, 2, ("compensated_bernoulli:pratelli:fixed[1]", 0.29795,
                     0.0022868156190742383, 0.7745966692414834, 0.0)),
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
