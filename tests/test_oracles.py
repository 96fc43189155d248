"""Oracle tests: closed-form constants, exact moments, quadrature identities.

Golden values were produced by the quadrature oracle itself in a separate
session and frozen here at 1e-9; they guard against regressions in the
integration scheme, not against the formulas (those have independent checks
below, e.g. the gamma-function cross-check for the Exp law).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import quad
from scipy.special import ndtr

from lenglart.oracles import (
    ConstantKind,
    ExpLaw,
    IdentityReport,
    PointMassLaw,
    TruncatedParetoLaw,
    UniformLaw,
    _reflection_series,
    _theta_series,
    check_moment_identities,
    constant,
    full_extremal_sup_moment,
    gtilde_sup_moment,
    lambda_bound,
    moment_identity_law,
    sup_abs_bm_law,
    sup_abs_bm_moment,
    xtilde_sup_moment,
    y_sup_moment,
)

P_GRID = [0.05, 0.1, 0.25, 0.5, 0.7071, 0.9, 0.99]

# frozen golden values (quadrature oracle, tolerance 1e-9)
GOLDEN_GTILDE = {
    (0.5, 5.0): 4.025654951880698,
    (0.5, 10.0): 7.561196883233899,
    (0.5, 40.0): 28.7744003191906,
}


class TestConstants:
    def test_headline_values(self):
        assert constant(ConstantKind.LENGLART, 0.5) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12
        )
        assert constant(ConstantKind.MONOTONE, 0.5) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )
        assert constant(ConstantKind.PRATELLI_POWER, 0.5) == pytest.approx(2.0, abs=1e-12)
        assert constant(ConstantKind.LENGLART_ORIGINAL, 0.5) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_lenglart_monotone_identity(self, p):
        assert constant(ConstantKind.LENGLART, p) == pytest.approx(
            constant(ConstantKind.MONOTONE, p) / (1.0 - p), abs=1e-12
        )

    @pytest.mark.parametrize("p", P_GRID)
    def test_improvement_chain(self, p):
        mono = constant(ConstantKind.MONOTONE, p)
        pratelli = constant(ConstantKind.PRATELLI_POWER, p)
        leng = constant(ConstantKind.LENGLART, p)
        assert mono <= pratelli <= leng

    def test_limits_near_one(self):
        assert constant(ConstantKind.MONOTONE, 0.99) == pytest.approx(1.0, abs=0.05)
        assert constant(ConstantKind.MONOTONE, 0.999) == pytest.approx(1.0, abs=0.01)
        assert constant(ConstantKind.LENGLART, 0.999) > 900.0

    @pytest.mark.parametrize("p", [-0.1, 0.0, 1.0, 1.5])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError, match="p must lie"):
            constant(ConstantKind.LENGLART, p)


class TestLambdaBound:
    def test_at_lambda_equals_p(self):
        for p in P_GRID:
            assert lambda_bound(p, p) == pytest.approx(p ** (-p), abs=1e-12)

    def test_direct_substitution(self):
        assert lambda_bound(0.5, 1.0) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_grid_argmin_is_p(self, p):
        lams = np.arange(1e-4, 3.0 + 1e-4, 1e-4)
        vals = lams ** (-p) * (lams + 1.0 - p)
        i = int(np.argmin(vals))
        assert abs(lams[i] - p) <= 1e-4 + 1e-12
        assert vals[i] == pytest.approx(p ** (-p), abs=1e-8)

    @given(
        p=st.floats(0.05, 0.95),
        lam=st.floats(1e-3, 10.0),
    )
    def test_p_is_global_minimizer(self, p, lam):
        assert lambda_bound(p, lam) >= lambda_bound(p, p) - 1e-12

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            lambda_bound(0.5, 0.0)


class TestExactMoments:
    def test_xtilde_is_t(self):
        assert xtilde_sup_moment(0.5, 0.0) == 0.0
        assert xtilde_sup_moment(0.5, 5.0) == 5.0
        assert xtilde_sup_moment(0.3, 17.25) == 17.25

    def test_y_moment(self):
        assert y_sup_moment(0.5, 0.0) == 0.0
        assert y_sup_moment(0.5, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert y_sup_moment(0.5, 4.0) == pytest.approx(4.0, abs=1e-12)

    def test_full_extremal(self):
        assert full_extremal_sup_moment(0.5, 10) == pytest.approx(20.0, abs=1e-12)
        assert full_extremal_sup_moment(0.5, 1) == pytest.approx(2.0, abs=1e-12)

    @given(p=st.floats(0.05, 0.95), n=st.integers(1, 100))
    def test_full_extremal_tower_identity(self, p, n):
        # n/(1-p) equals the y-law tower over the jump level
        assert full_extremal_sup_moment(p, n) == pytest.approx(
            xtilde_sup_moment(p, n) / (1.0 - p), rel=1e-12
        )

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            xtilde_sup_moment(0.5, -1.0)
        with pytest.raises(ValueError):
            y_sup_moment(0.5, -1.0)
        with pytest.raises(ValueError):
            full_extremal_sup_moment(0.5, 0)


class TestGtilde:
    def test_zero_horizon(self):
        assert gtilde_sup_moment(0.5, 0.0) == 0.0

    @pytest.mark.parametrize(("key", "value"), sorted(GOLDEN_GTILDE.items()))
    def test_golden_values(self, key, value):
        p, t = key
        assert gtilde_sup_moment(p, t) == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0, 10.0])
    def test_upper_bound(self, p, t):
        assert gtilde_sup_moment(p, t) <= p**p * (t + 1.0) * (1.0 + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(0.1, 0.9), t=st.floats(0.1, 10.0))
    def test_monotone_in_t(self, p, t):
        assert gtilde_sup_moment(p, t + 0.5) >= gtilde_sup_moment(p, t)

    @pytest.mark.parametrize("p", [0.01, 0.014])
    def test_finite_for_large_horizon_over_p(self, p):
        # t/p = 1000 and ~714: (p expm1(t/p))^p used to overflow here
        value = gtilde_sup_moment(p, 10.0)
        assert math.isfinite(value)
        assert 0.0 < value <= p**p * 11.0 * (1.0 + 1e-12)

    # values of the earlier (p expm1(x/p))^p e^-x form of the integrand
    @pytest.mark.parametrize(("key", "value"), sorted({
        (0.25, 10.0): 7.716344799301076,
        (0.25, 40.0): 28.92954823489745,
        (0.5, 10.0): 7.561196883235386,
        (0.5, 40.0): 28.77440031919616,
        (0.75, 10.0): 8.36672259924513,
        (0.75, 40.0): 32.54454631001448,
    }.items()))
    def test_matches_expm1_form(self, key, value):
        assert gtilde_sup_moment(*key) == pytest.approx(value, rel=1e-10)


class TestSupAbsBmLaw:
    """Law of S = sup_{t<=1}|B_t|: theta series below 1, reflection above."""

    def test_series_agree_across_the_switch(self):
        x = np.linspace(0.8, 1.5, 701)
        cdf, pdf_theta = _theta_series(x)
        sf, pdf_refl = _reflection_series(x)
        np.testing.assert_allclose(cdf, 1.0 - sf, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(pdf_theta, pdf_refl, rtol=0.0, atol=1e-13)

    def test_cdf_sf_pdf_consistent(self):
        x = np.linspace(0.05, 6.0, 400)
        cdf, sf, pdf = sup_abs_bm_law(x)
        np.testing.assert_allclose(cdf + sf, 1.0, rtol=0.0, atol=1e-15)
        h = 1e-6
        slope = (sup_abs_bm_law(x + h)[0] - sup_abs_bm_law(x - h)[0]) / (2.0 * h)
        np.testing.assert_allclose(slope, pdf, rtol=0.0, atol=1e-8)
        assert np.all(np.diff(cdf) > 0.0)

    def test_outside_support_and_tails(self):
        cdf, sf, pdf = sup_abs_bm_law(np.array([-1.0, 0.0]))
        assert list(cdf) == [0.0, 0.0] and list(sf) == [1.0, 1.0] and list(pdf) == [0.0, 0.0]
        # far tail: 4 Phibar(x) up to Phibar(3x) / Phibar(x), below 1e-30 here
        x = np.array([6.0, 8.0])
        np.testing.assert_allclose(sup_abs_bm_law(x)[1], 4.0 * ndtr(-x), rtol=1e-14)
        # near 0: the leading theta term, up to exp(-pi^2 / x^2) / 3
        x = np.array([0.1, 0.2])
        np.testing.assert_allclose(sup_abs_bm_law(x)[0],
                                   4.0 / np.pi * np.exp(-np.pi**2 / (8.0 * x * x)), rtol=1e-14)

    def test_exit_time_moments(self):
        # S < x iff the exit time tau of (-1, 1) exceeds 1/x^2, so
        # E[S^-2] = E[tau] = 1 and E[S^-4] = E[tau^2] = 5/3
        def moment(power):
            head, _ = quad(lambda x: power * x ** (-power - 1.0) * float(sup_abs_bm_law(x)[0]),
                           0.0, 1.0, epsabs=1e-13, limit=200)
            tail, _ = quad(lambda x: power * x ** (-power - 1.0) * float(sup_abs_bm_law(x)[0]),
                           1.0, np.inf, epsabs=1e-13, limit=200)
            return head + tail

        assert moment(2.0) == pytest.approx(1.0, abs=1e-10)
        assert moment(4.0) == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_mean_is_sqrt_half_pi(self):
        value = sup_abs_bm_moment(1.0, 1.0)
        assert type(value) is float  # results are written to JSON
        assert value == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-10)

    def test_second_moment_is_twice_catalan(self):
        catalan = 0.915965594177219015054603514932
        assert sup_abs_bm_moment(2.0) == pytest.approx(2.0 * catalan, abs=1e-10)

    @pytest.mark.parametrize("q", [0.01, 0.5, 1.5, 4.0])
    def test_matches_adaptive_quadrature(self, q):
        head, _ = quad(lambda x: q * x ** (q - 1.0) * float(sup_abs_bm_law(x)[0]),
                       0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
        tail, _ = quad(lambda x: q * x ** (q - 1.0) * float(sup_abs_bm_law(x)[1]),
                       1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
        assert sup_abs_bm_moment(q) == pytest.approx(1.0 - head + tail, rel=1e-12)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("T", [0.25, 3.0])
    def test_scales_as_T_to_half_q(self, q, T):
        assert sup_abs_bm_moment(q, T) == pytest.approx(
            T ** (q / 2.0) * sup_abs_bm_moment(q, 1.0), rel=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sup_abs_bm_moment(0.0)
        with pytest.raises(ValueError):
            sup_abs_bm_moment(4.5)
        with pytest.raises(ValueError):
            sup_abs_bm_moment(1.0, T=0.0)


class TestMomentIdentities:
    def test_uniform_value(self):
        report = check_moment_identities(UniformLaw(), 0.5)
        for v in (report.direct, report.via_tail_integral, report.via_truncated_mean):
            assert v == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert report.max_discrepancy < 1e-8

    def test_exp_matches_gamma_function(self):
        # independent closed form: E[Z^p] = Gamma(1+p) for Z ~ Exp(1)
        for p in (0.3, 0.5, 0.7):
            report = check_moment_identities(ExpLaw(), p)
            assert report.direct == pytest.approx(math.gamma(1.0 + p), abs=1e-8)
            assert report.max_discrepancy < 1e-8

    def test_point_mass_exact(self):
        report = check_moment_identities(PointMassLaw(2.5), 0.5)
        assert report.direct == pytest.approx(2.5**0.5, abs=1e-10)
        assert report.max_discrepancy < 1e-8

    def test_truncated_pareto(self):
        report = check_moment_identities(TruncatedParetoLaw(alpha=2.0, cap=1e6), 0.5)
        assert report.max_discrepancy < 1e-8

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    @pytest.mark.parametrize("law", ["uniform", "exp", "point", "pareto"])
    def test_identities_agree_over_p_grid(self, law, p):
        report = check_moment_identities(moment_identity_law(law, 1.7), p)
        assert report.max_discrepancy < 1e-8, report.to_json()

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.floats(0.1, 0.9),
        law=st.sampled_from(["uniform", "exp", "point"]),
    )
    def test_identities_agree_for_random_p(self, p, law):
        report = check_moment_identities(moment_identity_law(law, 1.7), p)
        assert report.max_discrepancy < 1e-8

    def test_report_json_shape(self):
        report = check_moment_identities(UniformLaw(), 0.5)
        d = report.to_json()
        assert set(d) == {
            "law", "p", "direct", "via_tail_integral", "via_truncated_mean",
            "max_discrepancy",
        }
        assert isinstance(report, IdentityReport)

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError, match="unknown law"):
            moment_identity_law("cauchy")

    def test_pareto_needs_finite_mean(self):
        with pytest.raises(ValueError, match="tail index"):
            TruncatedParetoLaw(alpha=1.0)
        # the identity quadratures split at the support edges 1 < cap
        with pytest.raises(ValueError, match="cap"):
            TruncatedParetoLaw(cap=1.0)
