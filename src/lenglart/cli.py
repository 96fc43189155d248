"""Command-line entry point exposing the experiments as subcommands.

Each subcommand takes exactly the settings its runner reads. _SUBCOMMANDS
gives each subcommand its runner and those settings, as ExperimentConfig
fields, and _FLAGS gives each field one flag spec: option string, type,
choices, and the range a run checks before it draws. The parser and the
--config file both follow those tables, so a flag or config key that the
subcommand does not read, or a config value that its flag could not
produce, is a usage error.

Exit codes: 0 = pass, 1 = statistical failure, 2 = usage error.
Every JSON output embeds the fully resolved configuration for provenance;
reruns with the same config and any thread count produce identical output
up to the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .bdg import BM_FIXED_TIME, BM_HITTING, MartingaleSpec, bdg_ratio, z_score
from .extremal import ExtremalParams, discrete_path_batch, exp_pair_path_batch
from .montecarlo import (
    DUMP_STREAM,
    STREAM_LAYOUT,
    EstimatorMethod,
    chunk_rng,
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
from .verifier import check_inequality, check_type, generator_from_config

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

    def resolved_method(self) -> EstimatorMethod | None:
        """The estimator of --method; None for auto, which the library
        resolves from p."""
        if self.method == "plain":
            return PLAIN
        if self.method == "mom":
            return median_of_means(self.blocks)
        return None


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


@dataclass(frozen=True)
class _Flag:
    """The flag of one ExperimentConfig field: its option string, the type
    of its value (int, float or str), its choices, and a (holds, message)
    range that a run checks before it draws."""

    option: str
    type: type = str
    choices: tuple[str, ...] | None = None
    valid: tuple[Callable, str] | None = None
    help: str | None = None

    def check_type(self, key: str, value) -> None:
        """Raise ValueError unless the flag could produce value: an int for
        an int flag, an int or float for a float flag, a str for a str flag,
        and one of the choices where there are any."""
        check_type(key, value, self.type)
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{key} must be one of {', '.join(self.choices)}, "
                             f"not {value!r}")

    def check_range(self, value) -> None:
        if self.valid is not None and not self.valid[0](value):
            raise ValueError(self.valid[1])


# ExperimentConfig field -> its flag. A seed is the SeedSequence entropy of
# the PCG64DXSM streams that montecarlo.chunk_rng builds.
_FLAGS = {
    "p": _Flag("--p", float, valid=(lambda v: 0.0 < v < 1.0, "p must lie in (0,1)")),
    "n": _Flag("--n", int, valid=(lambda v: v >= 1, "n must be a positive integer")),
    "level_N": _Flag("--level-N", int,
                     valid=(lambda v: v >= 0, "level-N must be non-negative")),
    "n_samples": _Flag("--samples", int,
                       valid=(lambda v: v >= 1, "samples must be positive")),
    "seed": _Flag("--seed", int, valid=(lambda v: 0 <= v < 2**64,
                                        "seed must be a non-negative 64-bit integer")),
    "method": _Flag("--method", choices=("auto", "plain", "mom")),
    "blocks": _Flag("--blocks", int),
    "threads": _Flag("--threads", int,
                     valid=(lambda v: v >= 1, "threads must be positive")),
    "output": _Flag("--output"),
    "law": _Flag("--law", choices=("uniform", "exp", "point", "pareto")),
    "point_value": _Flag("--point-value", float),
    "kind": _Flag("--kind", choices=("fixed", "hitting")),
    "T": _Flag("--T", float),
    "a": _Flag("--a", float),
    "b": _Flag("--b", float),
    "q": _Flag("--q", float),
    "step": _Flag("--step", float),
    "config_path": _Flag("--suite", help="JSONL file: one check per line"),
    "dump_kind": _Flag("--kind", choices=("exp", "discrete")),
}

def _emit(cfg: ExperimentConfig, result: dict, summary: str) -> None:
    payload = {
        "config": asdict(cfg),
        "result": result,
        # which streams drew the result (montecarlo.STREAM_LAYOUT)
        "stream_layout": STREAM_LAYOUT,
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
    try:
        with open(cfg.config_path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        return _usage_error(f"cannot read suite file: {exc}")
    if not lines:
        return _usage_error("suite has no checks")
    for entry in lines:
        if not isinstance(entry, dict):
            return _usage_error(f"bad suite entry {entry!r}: not a JSON object")
    # plain or mom applies to every check; auto (None) keeps each check's default
    method = cfg.resolved_method()
    reports = []
    all_ok = True
    for entry in lines:
        try:
            gen = generator_from_config(entry["generator"])
            kind = ConstantKind(entry.get("constant", "lenglart"))
            # the values follow the rules of the same keys in a --config file
            settings = {"p": entry["p"], "n_samples": entry.get("n_samples", 10**5),
                        "seed": entry.get("seed", cfg.seed)}
            for key, value in settings.items():
                _FLAGS[key].check_type(key, value)
                _FLAGS[key].check_range(value)
            report = check_inequality(gen, kind=kind, method=method, threads=cfg.threads,
                                      **settings)
        except (KeyError, TypeError, ValueError) as exc:
            return _usage_error(f"bad suite entry {entry!r}: {exc}")
        reports.append(report.to_json())
        all_ok = all_ok and report.passed
        ratio = "n/a" if report.ratio is None else f"{report.ratio:.5f}"
        print(f"verify: {report.label}: ratio={ratio} vs "
              f"constant={report.rhs_constant:.5f}, "
              f"{'PASS' if report.passed else 'FAIL'}")
    _emit(cfg, {"checks": reports, "pass": all_ok},
          f"verify: {sum(r['pass'] for r in reports)}/{len(reports)} checks passed")
    return EXIT_PASS if all_ok else EXIT_STAT_FAIL


def _run_bdg(cfg: ExperimentConfig) -> int:
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
    if not cfg.output:
        return _usage_error("dump-paths needs --output")
    # looked up at call time, so that a patched module attribute is the one called
    batches = {"exp": exp_pair_path_batch, "discrete": discrete_path_batch}
    points = cfg.n * 2**cfg.level_N
    if points + 1 > MAX_DUMP_POINTS:
        return _usage_error(
            f"dump would exceed {MAX_DUMP_POINTS} points; lower n or level-N")
    t = np.arange(points + 1) * 2.0 ** (-cfg.level_N)
    rng = chunk_rng(cfg.seed, DUMP_STREAM)
    x, g = batches[cfg.dump_kind](ExtremalParams(p=cfg.p, n=cfg.n), cfg.level_N, rng, 1)
    # tolist: csv writes numpy scalars by their repr
    rows = list(zip(t.tolist(), x[0].tolist(), g[0].tolist()))
    with open(cfg.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "g"])
        writer.writerows(rows)
    print(f"dump-paths: wrote {len(rows)} points to {cfg.output}")
    return EXIT_PASS


_SHARPNESS_SETTINGS = ("p", "n", "n_samples", "seed", "method", "blocks", "threads",
                       "output")

# subcommand -> (runner, the ExperimentConfig fields it reads, which are its
# flags and the keys its --config file may hold). identities draws nothing
# and reads no thread count; it keeps --threads so that one argument list
# with --threads runs every headline subcommand.
_SUBCOMMANDS = {
    "sharpness": (_run_sharpness, _SHARPNESS_SETTINGS),
    "monotone-sharpness": (_run_sharpness, _SHARPNESS_SETTINGS),
    "identities": (_run_identities, ("p", "threads", "output", "law", "point_value")),
    "verify": (_run_verify, ("seed", "method", "blocks", "threads", "output", "config_path")),
    "bdg": (_run_bdg, ("n_samples", "seed", "threads", "output", "kind", "T", "a", "b", "q",
                       "step")),
    "dump-paths": (_run_dump_paths, ("p", "n", "level_N", "seed", "output", "dump_kind")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenglart",
        description="Domination-inequality experiments: extremal sharpness "
        "ratios, moment identities, inequality verification and the BDG "
        "constant ladder.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, fields) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        for field in fields:
            flag = _FLAGS[field]
            sp.add_argument(flag.option, dest=field, type=flag.type, choices=flag.choices,
                            default=None, help=flag.help)
        sp.add_argument("--config", dest="config_file", default=None,
                        help="JSON object of this subcommand's settings, named as "
                        "in the output's config block")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` parses with, built on the first call in a process
    and reused: building one costs about as much as a small run."""
    return build_parser()


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Precedence: explicit flag > config file > built-in default (the
    headline experiment settings). The config file must hold a JSON object
    whose keys are settings of the subcommand, each with a value that its
    flag could produce; anything else raises ValueError."""
    _, fields = _SUBCOMMANDS[args.subcommand]
    cfg = ExperimentConfig(subcommand=args.subcommand)
    if args.config_file:
        with open(args.config_file) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("the config file must hold a JSON object")
        for key, value in file_values.items():
            if key not in fields:
                raise ValueError(f"{args.subcommand} has no setting {key!r}; it "
                                 f"takes {', '.join(fields)}")
            _FLAGS[key].check_type(key, value)
            setattr(cfg, key, value)
    for key in fields:
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _usage_error(f"bad config: {exc}")
    runner, fields = _SUBCOMMANDS[cfg.subcommand]
    try:
        for key in fields:
            _FLAGS[key].check_range(getattr(cfg, key))
        if cfg.method != "mom" and cfg.blocks != ExperimentConfig.blocks:
            return _usage_error("--blocks applies only with --method mom")
        return runner(cfg)
    except ValueError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
