"""Failing twins for every half-width rule: each check FAILs just past its
boundary and PASSes just inside it, at 1e-9 relative on each side.

A verdict that cannot fail is a bug. Each case builds estimates whose
violation is k half-widths times (1 - 1e-9), which must pass, or times
(1 + 1e-9), which must fail.
"""

import json

import pytest

from lenglart import bdg, cli
from lenglart.bdg import BM_FIXED_TIME, MartingaleSpec, bdg_ratio
from lenglart.cli import EXIT_PASS, EXIT_STAT_FAIL, main
from lenglart.montecarlo import PLAIN, Estimate, RatioEstimate
from lenglart.oracles import ConstantKind, constant
from lenglart.verifier import AuditEntry, AuditReport, VerifierReport

EPS = 1e-9
# (relative violation, passes): just inside the boundary, then just past it
TWINS = pytest.mark.parametrize("violation,passes", [(1 - EPS, True), (1 + EPS, False)],
                                ids=["inside", "past"])


def synthetic_ratio(r, h):
    """A RatioEstimate with ratio r and interval [r - h, r + h]."""
    den = Estimate(value=1.0, halfwidth=0.01, n_samples=1000, method=PLAIN)
    num = Estimate(value=r, halfwidth=0.0, n_samples=1000, method=PLAIN)
    return RatioEstimate(numerator=num, denominator=den, ratio=r, ci_low=r - h,
                         ci_high=r + h)


class TestSandwich:
    """sharpness at p = 0.5, n = 40: the ratio within 5 relative half-widths
    of the constant c, and its interval reaching c n/(n + 1) within 3."""

    C = constant(ConstantKind.LENGLART, 0.5)
    LOWER = C * 40 / 41

    def run_sharpness(self, monkeypatch, tmp_path, ratio):
        monkeypatch.setattr(cli, "ratio_experiment", lambda *args, **kwargs: ratio)
        out_file = tmp_path / "r.json"
        code = main(["sharpness", "--samples", "1000", "--output", str(out_file)])
        assert json.loads(out_file.read_text())["result"]["pass"] == (code == EXIT_PASS)
        return code

    @TWINS
    def test_upper_side(self, monkeypatch, tmp_path, violation, passes):
        # ratio - c = 5 c (h / ratio) * violation
        r = 1.1 * self.C
        h = r * (r - self.C) / (5.0 * self.C) / violation
        code = self.run_sharpness(monkeypatch, tmp_path, synthetic_ratio(r, h))
        assert code == (EXIT_PASS if passes else EXIT_STAT_FAIL)

    @TWINS
    def test_lower_side(self, monkeypatch, tmp_path, violation, passes):
        # lower - ci_high = 3 h * violation
        h = 0.1
        r = self.LOWER - h - 3.0 * h * violation
        code = self.run_sharpness(monkeypatch, tmp_path, synthetic_ratio(r, h))
        assert code == (EXIT_PASS if passes else EXIT_STAT_FAIL)


class TestVerifierReport:
    @TWINS
    def test_margin_at_three_combined_halfwidths(self, violation, passes):
        # margin = c rhs - lhs = -3 (hw(lhs) + c hw(rhs)) * violation
        c, combined = 2.0, 0.1 + 2.0 * 0.05
        rhs = Estimate(value=1.0, halfwidth=0.05, n_samples=1000, method=PLAIN)
        lhs = Estimate(value=c * 1.0 + 3.0 * combined * violation, halfwidth=0.1,
                       n_samples=1000, method=PLAIN)
        report = VerifierReport(lhs=lhs, rhs_constant=c, rhs=rhs,
                                constant_kind=ConstantKind.LENGLART)
        assert report.passed is passes
        assert report.to_json()["pass"] is passes


class TestAuditEntry:
    @TWINS
    def test_diff_at_three_stderr(self, violation, passes):
        stderr = 0.01
        entry = AuditEntry(tau_label="k=1", mean_x=1.0 + 3.0 * stderr * violation,
                           mean_g=1.0, stderr=stderr)
        assert entry.flagged is not passes
        assert AuditReport(generator="g", entries=(entry,)).passed is passes


class TestBdgRatioSide:
    @TWINS
    def test_ratio_at_three_halfwidths(self, monkeypatch, violation, passes):
        # ratio - (q/2)^(-q/2) = 3 h * violation, at q = 1; the bias check
        # of the coarse fixed-time pass holds (about 0.03 % at step 0.1)
        h = 0.05
        r = constant(ConstantKind.MONOTONE, 0.5) + 3.0 * h * violation
        monkeypatch.setattr(bdg, "ratio_from_estimates",
                            lambda num, den: synthetic_ratio(r, h))
        spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=0.1)
        result = bdg_ratio(spec, n_samples=1000)
        assert result.bias_relative_change < 0.01
        assert result.passed is passes
