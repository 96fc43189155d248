"""Acceptance gate: the ten headline checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.
"""

import json
import math

import numpy as np
import pytest

from lenglart.bdg import BM_FIXED_TIME, MartingaleSpec, bdg_ratio
from lenglart.cli import main as cli_main
from lenglart.extremal import ExtremalParams
from lenglart.montecarlo import (
    discrete_ratio_experiment,
    estimate_from_values,
    median_of_means,
    monotone_ratio_experiment,
    ratio_experiment,
    sample_values,
)
from lenglart.oracles import (
    ConstantKind,
    check_moment_identities,
    constant,
    moment_identity_law,
)
from lenglart.verifier import (
    CompensatedBernoulliGenerator,
    JumpLaw,
    enumerate_jump_sup_moments,
)

SEED = 0
MOM = median_of_means(31)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_constants_exact():
    checks = [
        abs(constant(ConstantKind.LENGLART, 0.5) - 2.0 * math.sqrt(2.0)),
        abs(constant(ConstantKind.MONOTONE, 0.5) - math.sqrt(2.0)),
        abs(constant(ConstantKind.PRATELLI_POWER, 0.5) - 2.0),
    ]
    worst = max(checks)
    report(1, "constants", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_02_monotone_sharpness():
    r = monotone_ratio_experiment(0.5, 40, n_samples=10**6, method=MOM, seed=SEED)
    lo = math.sqrt(2.0) * 40.0 / 41.0 - 0.03
    hi = math.sqrt(2.0) + 0.03
    in_window = lo <= r.ratio <= hi
    num_ok = abs(r.numerator.value - 40.0) <= 3.0 * r.numerator.halfwidth
    report(
        2, "monotone sharpness",
        in_window and num_ok,
        f"ratio {r.ratio:.4f} vs window [{lo:.4f}, {hi:.4f}], "
        f"numerator {r.numerator.value:.2f} vs 40 "
        f"(+/- {3.0 * r.numerator.halfwidth:.2f})",
    )


def test_criterion_03_lenglart_sharpness():
    params = ExtremalParams(p=0.5, n=40)
    r = ratio_experiment(params, n_samples=10**6, method=MOM, seed=SEED)
    c = 2.0 * math.sqrt(2.0)
    lo = c * 40.0 / 41.0 - 0.10
    hi = c + 0.10
    ok = lo <= r.ratio <= hi
    report(3, "lenglart sharpness", ok,
           f"ratio {r.ratio:.4f} vs window [{lo:.4f}, {hi:.4f}]")


def test_criterion_04_y_law():
    u = sample_values(lambda rng, m: rng.random(m), 10**6, seed=SEED)
    y = 1.0 / u  # exact law of Y_1: P[Y >= y] = 1/y
    emp = float((y >= 4.0).mean())
    se = math.sqrt(0.25 * 0.75 / y.size)
    tail_ok = abs(emp - 0.25) <= 3.0 * se
    est = estimate_from_values(np.sqrt(y), MOM)
    moment_ok = abs(est.value - 2.0) <= 0.02 * 2.0
    report(4, "y law", tail_ok and moment_ok,
           f"P[Y>=4] {emp:.5f} (3se {3*se:.5f}), E[Y^0.5] {est.value:.4f} vs 2 +/- 2%")


def test_criterion_05_moment_identities():
    worst = 0.0
    for name in ("uniform", "exp", "point"):
        rep = check_moment_identities(moment_identity_law(name, 2.0), 0.5)
        worst = max(worst, rep.max_discrepancy)
    report(5, "moment identities", worst <= 1e-8, f"max discrepancy {worst:.2e}")


def test_criterion_06_lambda_bound_minimizer():
    ok = True
    details = []
    for p in (0.1, 0.5, 0.9):
        lams = np.arange(1e-4, 3.0 + 1e-4, 1e-4)
        vals = lams ** (-p) * (lams + 1.0 - p)
        i = int(np.argmin(vals))
        ok &= abs(lams[i] - p) <= 1e-4 + 1e-12
        ok &= abs(vals[i] - p ** (-p)) <= 1e-8
        details.append(f"p={p}: lam*={lams[i]:.4f}")
    report(6, "lambda bound", ok, "; ".join(details))


def test_criterion_07_discretization():
    params = ExtremalParams(p=0.5, n=10)
    cont = ratio_experiment(params, n_samples=10**6, method=MOM, seed=SEED)
    ratios = {}
    for level in (2, 4, 6):
        ratios[level] = discrete_ratio_experiment(
            params, level, n_samples=10**6, method=MOM, seed=SEED
        )
    rel_gap = abs(ratios[6].ratio - cont.ratio) / cont.ratio
    close_ok = rel_gap <= 0.02
    # common random numbers make the increase sample-wise, so no CI slack
    # is needed; allow the combined half-widths anyway
    mono_ok = True
    for a, b in ((2, 4), (4, 6)):
        slack = 0.5 * (ratios[a].ci_high - ratios[a].ci_low) + 0.5 * (
            ratios[b].ci_high - ratios[b].ci_low
        )
        mono_ok &= ratios[b].ratio >= ratios[a].ratio - slack
    report(7, "discretization", close_ok and mono_ok,
           f"ratios N=2/4/6: {ratios[2].ratio:.4f}/{ratios[4].ratio:.4f}/"
           f"{ratios[6].ratio:.4f}, continuous {cont.ratio:.4f}, "
           f"gap {rel_gap:.3%}")


def test_criterion_08_brute_force_oracle():
    gen = CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12)
    base = gen.sup_sampler()
    ok = True
    details = []
    for p in (0.3, 0.5, 0.7):
        e_x, e_g = enumerate_jump_sup_moments(0.3, 12, p)
        # inequalities hold exactly in the enumeration
        ok &= e_x <= constant(ConstantKind.LENGLART, p) * e_g
        ok &= e_x <= constant(ConstantKind.MONOTONE, p) * e_g
        vals = sample_values(lambda rng, m: base(rng, m)[0] ** p, 200_000, seed=SEED)
        from lenglart.montecarlo import PLAIN

        est = estimate_from_values(vals, PLAIN)
        ok &= abs(est.value - e_x) <= 3.0 * est.halfwidth
        details.append(f"p={p}: enum {e_x:.5f} mc {est.value:.5f}")
    report(8, "brute force oracle", ok, "; ".join(details))


def test_criterion_09_bdg():
    spec = MartingaleSpec(kind=BM_FIXED_TIME, q=1.0, step=1e-3, T=1.0)
    res = bdg_ratio(spec, n_samples=10**5, seed=SEED)
    ci_half = 0.5 * (res.ratio.ci_high - res.ratio.ci_low)
    ratio_ok = res.ratio.ratio <= math.sqrt(2.0) + 3.0 * ci_half
    bias_ok = res.bias_relative_change < 0.01
    report(9, "bdg", ratio_ok and bias_ok,
           f"ratio {res.ratio.ratio:.4f} vs sqrt(2), "
           f"bias change {res.bias_relative_change:.4%}")


def test_criterion_10_determinism(tmp_path, capsys):
    commands = [
        ["sharpness", "--p", "0.5", "--n", "5", "--samples", "100000", "--seed", "0"],
        ["monotone-sharpness", "--p", "0.5", "--n", "5", "--samples", "100000",
         "--seed", "0"],
        ["identities", "--law", "exp", "--p", "0.5"],
        ["bdg", "--kind", "fixed", "--q", "1.0", "--samples", "8000",
         "--step", "0.01", "--seed", "0"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        payloads = []
        for threads, name in ((1, "a"), (4, "b")):
            out = tmp_path / f"{i}-{name}.json"
            cli_main(argv + ["--threads", str(threads), "--output", str(out)])
            payload = json.loads(out.read_text())
            del payload["timestamp"]
            del payload["config"]["threads"]
            del payload["config"]["output"]
            payloads.append(payload)
        ok &= payloads[0] == payloads[1]
    capsys.readouterr()
    report(10, "determinism", ok, f"{len(commands)} experiments, threads 1 vs 4")
