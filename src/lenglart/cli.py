"""Command-line entry point exposing the experiments as subcommands.

Exit codes: 0 = pass, 1 = statistical failure, 2 = usage error.
Every JSON output embeds the fully resolved configuration for provenance;
reruns with the same config and any thread count produce identical output
up to the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .bdg import BM_FIXED_TIME, BM_HITTING, MartingaleSpec, bdg_ratio, z_score
from .extremal import ExtremalParams, TimeGrid, discrete_path_batch, exp_pair_path_batch
from .montecarlo import (
    EstimatorMethod,
    default_method,
    median_of_means,
    monotone_ratio_experiment,
    ratio_experiment,
    PLAIN,
)
from .oracles import (
    ConstantKind,
    check_moment_identities,
    constant,
    full_extremal_sup_moment,
    gtilde_sup_moment,
    moment_identity_law,
    xtilde_sup_moment,
)
from .verifier import check_inequality, generator_from_config

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 10**6
MAX_DUMP_POINTS = 10**4

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2


@dataclass
class ExperimentConfig:
    subcommand: str
    p: float = 0.5
    n: int = 40
    level_N: int = 6
    n_samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    method: str = "auto"  # auto | plain | mom
    blocks: int = 31
    threads: int = 1
    output: str | None = None
    # identities
    law: str = "exp"
    point_value: float = 1.0
    # bdg
    kind: str = "fixed"
    T: float = 1.0
    a: float = -1.0
    b: float = 1.0
    q: float = 1.0
    step: float = 1e-3
    # verify / dump
    config_path: str | None = None
    dump_kind: str = "exp"

    def resolved_method(self) -> EstimatorMethod:
        if self.method == "plain":
            return PLAIN
        if self.method == "mom":
            return median_of_means(self.blocks)
        return default_method(self.p)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _validate_common(cfg: ExperimentConfig) -> None:
    """Raise ValueError on a bad setting of the extremal subcommands."""
    if not (0.0 < cfg.p < 1.0):
        raise ValueError("p must lie in (0,1)")
    if cfg.n < 1:
        raise ValueError("n must be a positive integer")
    if cfg.n_samples < 1:
        raise ValueError("samples must be positive")
    if cfg.level_N < 0:
        raise ValueError("level-N must be non-negative")
    _check_draws(cfg.seed, cfg.threads)


def _check_draws(seed: int, threads: int) -> None:
    """Raise ValueError on a bad stream setting. A run's seed is the high
    64-bit word of every Philox key it draws from."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must be a non-negative 64-bit integer")
    if threads < 1:
        raise ValueError("threads must be positive")


def _emit(cfg: ExperimentConfig, result: dict, summary: str) -> None:
    payload = {
        "config": asdict(cfg),
        "result": result,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary)


def _sandwich_verdict(ratio, c_target: float, lower_target: float) -> bool:
    """Pass iff the confidence interval reaches the finite-n lower bound and
    does not contradict the theorem's upper constant."""
    hw = 0.5 * (ratio.ci_high - ratio.ci_low)
    rel = hw / ratio.ratio if ratio.ratio > 0 else math.inf
    upper_ok = ratio.ratio <= c_target * (1.0 + 5.0 * rel)
    lower_ok = ratio.ci_high >= lower_target - 3.0 * hw
    return upper_ok and lower_ok


def _oracle_diagnostics(ratio, numerator_oracle: float, denominator_oracle: float) -> dict:
    """The exact moments behind a ratio and the z-score of each estimate
    against its own, (value - oracle) / halfwidth."""
    return {
        "numerator_oracle": numerator_oracle,
        "numerator_z": z_score(ratio.numerator, numerator_oracle),
        "denominator_oracle": denominator_oracle,
        "denominator_z": z_score(ratio.denominator, denominator_oracle),
    }


# subcommand -> (experiment(p, n, samples, method, seed, threads), constant
# kind, exact numerator moment); both share the denominator
_SHARPNESS = {
    "sharpness": (lambda p, n, *run: ratio_experiment(ExtremalParams(p=p, n=n), *run),
                  ConstantKind.LENGLART, full_extremal_sup_moment),
    "monotone-sharpness": (monotone_ratio_experiment, ConstantKind.MONOTONE,
                           xtilde_sup_moment),
}


def _run_sharpness(cfg: ExperimentConfig) -> int:
    _validate_common(cfg)
    experiment, kind, numerator_oracle = _SHARPNESS[cfg.subcommand]
    ratio = experiment(cfg.p, cfg.n, cfg.n_samples, cfg.resolved_method(),
                       cfg.seed, cfg.threads)
    c = constant(kind, cfg.p)
    lower = c * cfg.n / (cfg.n + 1)
    ok = _sandwich_verdict(ratio, c, lower)
    result = {
        "ratio": ratio.to_json(seed=cfg.seed),
        "constant": c,
        "finite_n_lower_bound": lower,
        "pass": ok,
        **_oracle_diagnostics(ratio, numerator_oracle(cfg.p, cfg.n),
                              gtilde_sup_moment(cfg.p, cfg.n)),
    }
    _emit(cfg, result,
          f"{cfg.subcommand}: ratio={ratio.ratio:.5f} in CI [{ratio.ci_low:.5f}, "
          f"{ratio.ci_high:.5f}], constant={c:.7f}, lower bound={lower:.5f}, "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_STAT_FAIL


def _run_identities(cfg: ExperimentConfig) -> int:
    _validate_common(cfg)
    report = check_moment_identities(moment_identity_law(cfg.law, cfg.point_value), cfg.p)
    ok = report.max_discrepancy < 1e-8
    result = {**report.to_json(), "pass": ok}
    _emit(cfg, result,
          f"identities: law={cfg.law}, p={cfg.p}, values="
          f"({report.direct:.8f}, {report.via_tail_integral:.8f}, "
          f"{report.via_truncated_mean:.8f}), max discrepancy="
          f"{report.max_discrepancy:.2e}, {'PASS' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_STAT_FAIL


def _run_verify(cfg: ExperimentConfig) -> int:
    if not cfg.config_path:
        return _usage_error("verify needs --suite pointing to a JSONL check file")
    _check_draws(cfg.seed, cfg.threads)
    try:
        with open(cfg.config_path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        return _usage_error(f"cannot read suite file: {exc}")
    # plain or mom applies to every check; auto keeps each check's default
    method = cfg.resolved_method() if cfg.method != "auto" else None
    reports = []
    all_ok = True
    for entry in lines:
        try:
            gen = generator_from_config(entry["generator"])
            kind = ConstantKind(entry.get("constant", "lenglart"))
            seed = int(entry.get("seed", cfg.seed))
            _check_draws(seed, cfg.threads)
            report = check_inequality(
                gen,
                p=float(entry["p"]),
                kind=kind,
                n_samples=int(entry.get("n_samples", 10**5)),
                seed=seed,
                method=method,
                threads=cfg.threads,
            )
        except (KeyError, ValueError) as exc:
            return _usage_error(f"bad suite entry {entry!r}: {exc}")
        reports.append(report.to_json())
        all_ok = all_ok and report.passed
        print(f"verify: {report.label}: ratio={report.ratio:.5f} vs "
              f"constant={report.rhs_constant:.5f}, "
              f"{'PASS' if report.passed else 'FAIL'}")
    _emit(cfg, {"checks": reports, "pass": all_ok},
          f"verify: {sum(r['pass'] for r in reports)}/{len(reports)} checks passed")
    return EXIT_PASS if all_ok else EXIT_STAT_FAIL


def _run_bdg(cfg: ExperimentConfig) -> int:
    if not (0.0 < cfg.q < 2.0):
        return _usage_error("q must lie in (0,2)")
    if cfg.n_samples < 1 or cfg.step <= 0:
        return _usage_error("samples must be positive and step positive")
    _check_draws(cfg.seed, cfg.threads)
    kind = BM_FIXED_TIME if cfg.kind == "fixed" else BM_HITTING
    spec = MartingaleSpec(kind=kind, q=cfg.q, step=cfg.step, T=cfg.T,
                          a=cfg.a, b=cfg.b)
    result = bdg_ratio(spec, cfg.n_samples, cfg.seed, cfg.threads)
    _emit(cfg, result.to_json(),
          f"bdg: ratio={result.ratio.ratio:.5f}, monotone constant="
          f"{constant(ConstantKind.MONOTONE, cfg.q / 2):.5f}, bias change="
          f"{result.bias_relative_change:.3%}, "
          f"{'PASS' if result.passed else 'FAIL'}")
    return EXIT_PASS if result.passed else EXIT_STAT_FAIL


def _run_dump_paths(cfg: ExperimentConfig) -> int:
    _validate_common(cfg)
    if not cfg.output:
        return _usage_error("dump-paths needs --output")
    params = ExtremalParams(p=cfg.p, n=cfg.n)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    if cfg.dump_kind == "exp":
        points = min(MAX_DUMP_POINTS - 1, 64 * cfg.n)
        grid = TimeGrid(step=cfg.n / points, horizon=cfg.n)
        t = grid.times()
        x, g = exp_pair_path_batch(params, grid, rng, 1)
    elif cfg.dump_kind == "discrete":
        points = cfg.n * 2**cfg.level_N
        if points + 1 > MAX_DUMP_POINTS:
            return _usage_error(
                f"dump would exceed {MAX_DUMP_POINTS} points; lower n or level-N")
        t = np.arange(points + 1) * 2.0 ** (-cfg.level_N)
        x, g = discrete_path_batch(params, cfg.level_N, rng, 1)
    else:
        return _usage_error("dump kind must be 'exp' or 'discrete'")
    # tolist: csv writes numpy scalars by their repr
    rows = list(zip(t.tolist(), x[0].tolist(), g[0].tolist()))
    with open(cfg.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "g"])
        writer.writerows(rows)
    print(f"dump-paths: wrote {len(rows)} points to {cfg.output}")
    return EXIT_PASS


_RUNNERS = {
    "sharpness": _run_sharpness,
    "monotone-sharpness": _run_sharpness,
    "identities": _run_identities,
    "verify": _run_verify,
    "bdg": _run_bdg,
    "dump-paths": _run_dump_paths,
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--level-N", dest="level_N", type=int, default=None)
    sp.add_argument("--samples", dest="n_samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--method", choices=("auto", "plain", "mom"), default=None)
    sp.add_argument("--blocks", type=int, default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--output", default=None)
    sp.add_argument("--config", dest="config_file", default=None,
                    help="JSON file with default values for any flag")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenglart",
        description="Domination-inequality experiments: extremal sharpness "
        "ratios, moment identities, inequality verification and the BDG "
        "constant ladder.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("sharpness", "monotone-sharpness"):
        sp = sub.add_parser(name)
        _add_common(sp)
    sp = sub.add_parser("identities")
    _add_common(sp)
    sp.add_argument("--law", choices=("uniform", "exp", "point", "pareto"),
                    default=None)
    sp.add_argument("--point-value", dest="point_value", type=float, default=None)
    sp = sub.add_parser("verify")
    _add_common(sp)
    sp.add_argument("--suite", dest="config_path", default=None,
                    help="JSONL file: one check per line")
    sp = sub.add_parser("bdg")
    _add_common(sp)
    sp.add_argument("--kind", choices=("fixed", "hitting"), default=None)
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp = sub.add_parser("dump-paths")
    _add_common(sp)
    sp.add_argument("--kind", dest="dump_kind", choices=("exp", "discrete"),
                    default=None)
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Precedence: explicit flag > LENGLART_SEED (seed only) > config file >
    built-in default (the headline experiment settings)."""
    cfg = ExperimentConfig(subcommand=args.subcommand)
    file_values: dict = {}
    if getattr(args, "config_file", None):
        with open(args.config_file) as fh:
            file_values = json.load(fh)
    for key, value in file_values.items():
        if hasattr(cfg, key):
            setattr(cfg, key, value)
    env_seed = os.environ.get("LENGLART_SEED")
    if env_seed is not None:
        cfg.seed = int(env_seed)
    for key, value in vars(args).items():
        if key in ("subcommand", "config_file") or value is None:
            continue
        setattr(cfg, key, value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _usage_error(f"bad config: {exc}")
    try:
        return _RUNNERS[cfg.subcommand](cfg)
    except ValueError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
