"""Command-line entry point exposing the experiments as subcommands.

Each subcommand takes exactly the settings its runner reads. _FLAGS declares
every setting once: its option string, type, default, choices, the range a
run checks before it draws, and for a setting read only when another setting
has one value, that setting and value: bdg's T at --kind fixed, a and b at
--kind hitting, identities' point_value at --law point. _SUBCOMMANDS gives
each subcommand its runner and its settings. The parser and the --config
file both follow those tables, so a flag or config key that the run does not
read, or a config value that its flag could not produce, is a usage error.

Exit codes: 0 = pass, 1 = statistical failure, 2 = usage error, an unwritable
--output, or an oracle whose quadrature did not converge.
Every JSON output names its subcommand, and its config block holds the
run's settings, apart from an unset --output: the block is a --config file
for the subcommand that reproduces the run. Reruns with the same config and
any thread count produce identical output up to the timestamp field.

This module reads every outside input: the flags, a --config file and
each line of a verify suite, whose generator objects generator_from_config
builds; verifier takes built generators and parses nothing. Imports follow
what a subcommand reads: numpy, montecarlo, extremal and oracles load with
this module, because every drawing subcommand reads them; verifier loads
inside verify alone, bdg inside bdg and csv inside dump-paths, so a
sharpness run, with or without a --config file, pays for none of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np

from .extremal import ExtremalParams, FixedIndexRule, discrete_stopped, exp_pair_stopped
from .montecarlo import (
    DUMP_STREAM,
    STREAM_LAYOUT,
    Verdict,
    chunk_rng,
    monotone_ratio_experiment,
    ratio_experiment,
    z_score,
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

MAX_DUMP_POINTS = 10**4

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2


def check_inequality(*args, **kwargs):
    """verifier.check_inequality, loading verifier on the first call.
    _run_verify calls the check through this module attribute, which is the
    one that tests and perfbench's tracer patch."""
    from . import verifier

    return verifier.check_inequality(*args, **kwargs)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


@dataclass(frozen=True)
class _Flag:
    """One setting: its option string, the type of its value (int, float or
    str), its default (None: unset), its choices, a (holds, message) range
    that a run checks before it draws, and (setting, value) where the run
    reads it only when that other setting has that value."""

    option: str
    type: type = str
    default: object = None
    choices: tuple[str, ...] | None = None
    valid: tuple[Callable, str] | None = None
    when: tuple[str, str] | None = None
    help: str | None = None

    def check_range(self, value) -> None:
        if self.valid is not None and not self.valid[0](value):
            raise ValueError(self.valid[1])


# setting -> its flag. The defaults are the headline experiment's settings.
# A seed is the SeedSequence entropy of the PCG64DXSM streams that
# montecarlo.chunk_rng builds.
_FLAGS = {
    "p": _Flag("--p", float, 0.5, valid=(lambda v: 0.0 < v < 1.0, "p must lie in (0,1)")),
    "n": _Flag("--n", int, 40, valid=(lambda v: v >= 1, "n must be a positive integer")),
    "level_N": _Flag("--level-N", int, 6,
                     valid=(lambda v: v >= 0, "level-N must be non-negative")),
    "n_samples": _Flag("--samples", int, 10**6,
                       valid=(lambda v: v >= 1, "samples must be positive")),
    "seed": _Flag("--seed", int, 0, valid=(lambda v: 0 <= v < 2**64,
                                           "seed must be a non-negative 64-bit integer")),
    "threads": _Flag("--threads", int, 1,
                     valid=(lambda v: v >= 1, "threads must be positive")),
    "output": _Flag("--output"),
    "law": _Flag("--law", default="exp", choices=("uniform", "exp", "point", "pareto")),
    "point_value": _Flag("--point-value", float, 1.0, when=("law", "point")),
    "kind": _Flag("--kind", default="fixed", choices=("fixed", "hitting")),
    "T": _Flag("--T", float, 1.0, when=("kind", "fixed")),
    "a": _Flag("--a", float, -1.0, when=("kind", "hitting")),
    "b": _Flag("--b", float, 1.0, when=("kind", "hitting")),
    "q": _Flag("--q", float, 1.0),
    "step": _Flag("--step", float, 1e-3),
    "config_path": _Flag("--suite", help="JSONL file: one check per line"),
    "dump_kind": _Flag("--kind", default="exp", choices=("exp", "discrete")),
}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {value!r}")
    return value


def check_type(key: str, value, kind: type):
    """value, if it follows the rule of a --config setting of type kind: an
    int for int, an int or float for float, a str for str, and never a bool.
    Raises ValueError otherwise; nothing is cast."""
    types = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{key} must be {kind.__name__}, not {value!r}")
    return value


def read_object(value, what: str, keys: dict) -> dict:
    """value, if it is a JSON object whose keys are all in keys, which maps
    each to the type its value must have (see check_type). Raises ValueError
    otherwise. A key left out is the caller's to default or to miss."""
    unknown = sorted(_object(value, what).keys() - keys.keys())
    if unknown:
        raise ValueError(f"{what} has no key {unknown[0]!r}; it takes {', '.join(keys)}")
    return {key: check_type(key, item, keys[key]) for key, item in value.items()}


# generator kind -> the keys it may hold besides "kind", with their types
_GENERATOR_KEYS = {
    "extremal": {"p": float, "n": int},
    "discrete_extremal": {"p": float, "n": int, "level_N": int},
    "compensated_bernoulli": {"jump": str, "steps": int},
    "hatx_of": {"inner": dict, "rule": dict},
}
# compensated_bernoulli's "jump" (bernoulli when left out) -> the key it
# adds; JumpLaw defaults a key left out, and refuses an unknown law
_JUMP_KEYS = {"bernoulli": {"q": float}, "exp": {}, "const": {"c": float}}


def generator_from_config(cfg: dict):
    """The verifier generator of a suite entry's "generator" object: "kind"
    and the keys of that kind, and no other key. Its numbers follow the
    --config rules (see check_type)."""
    from . import verifier

    kind = _object(cfg, "generator").get("kind")
    if kind not in _GENERATOR_KEYS:
        raise ValueError(f"unknown generator kind {kind!r}")
    jump = cfg.get("jump", "bernoulli") if kind == "compensated_bernoulli" else None
    values = read_object(cfg, f"{kind} generator",
                         {"kind": str, **_GENERATOR_KEYS[kind], **_JUMP_KEYS.get(jump, {})})
    if kind == "compensated_bernoulli":
        law = {key: values[key] for key in ("q", "c") if key in values}
        return verifier.CompensatedBernoulliGenerator(jump=verifier.JumpLaw(jump, **law),
                                                      steps=values["steps"])
    if kind == "hatx_of":
        # a rule holds a fixed index k, or a level on one side; a rule with
        # none of those keys lacks k
        index = "k" in values["rule"] or not values["rule"].keys() & {"side", "level"}
        keys = {"k": int} if index else {"side": str, "level": float}
        read = read_object(values["rule"], "hatx_of rule", keys)
        of_rule = {key: read[key] for key in keys}  # a KeyError names a key left out
        rule = verifier.FixedIndexRule(**of_rule) if index else verifier.HittingRule(**of_rule)
        return verifier.HatXGenerator(inner=generator_from_config(values["inner"]), rule=rule)
    params = ExtremalParams(p=values["p"], n=values["n"])
    if kind == "extremal":
        return verifier.ExtremalGenerator(params)
    return verifier.DiscreteExtremalGenerator(params, level_N=values["level_N"])


def _print(text: str) -> None:
    """print to stdout. A reader that closes the pipe early ends the output,
    not the run, which still exits with its verdict's code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # later prints and the flush at exit then write to devnull, and raise
        # no second error (Python docs, signal module, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(sub: str, cfg: SimpleNamespace, result: dict, summary: str) -> int:
    """Write the run's JSON and summary; return the exit code of result["pass"]."""
    payload = {
        # every setting but an unset --output: a --config file that reruns it
        "config": {key: value for key, value in vars(cfg).items() if value is not None},
        "result": result,
        # which streams drew the result (montecarlo.STREAM_LAYOUT)
        "stream_layout": STREAM_LAYOUT,
        "subcommand": sub,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text + "\n")
    else:
        _print(text)
    _print(summary)
    return EXIT_PASS if result["pass"] else EXIT_STAT_FAIL


# subcommand -> (experiment(p, n, samples, seed=..., threads=...), constant
# kind, exact numerator moment); both share the denominator
_SHARPNESS = {
    "sharpness": (lambda p, n, *run, **kw: ratio_experiment(ExtremalParams(p=p, n=n), *run, **kw),
                  ConstantKind.LENGLART, full_extremal_sup_moment),
    "monotone-sharpness": (monotone_ratio_experiment, ConstantKind.MONOTONE,
                           xtilde_sup_moment),
}


def _run_sharpness(sub: str, cfg: SimpleNamespace) -> int:
    experiment, kind, numerator_oracle = _SHARPNESS[sub]
    ratio = experiment(cfg.p, cfg.n, cfg.n_samples, seed=cfg.seed, threads=cfg.threads)
    c = constant(kind, cfg.p)
    lower = c * cfg.n / (cfg.n + 1)
    hw = 0.5 * (ratio.ci_high - ratio.ci_low)
    rel = hw / ratio.ratio if ratio.ratio > 0 else math.inf
    # within 5 relative half-widths of the constant, and reaching the lower bound
    ok = (Verdict(c - ratio.ratio, c * rel, k=5).passed
          and Verdict(ratio.ci_high - lower, hw).passed)
    num_oracle, den_oracle = numerator_oracle(cfg.p, cfg.n), gtilde_sup_moment(cfg.p, cfg.n)
    result = {
        "ratio": ratio.to_json(seed=cfg.seed),
        "constant": c,
        "finite_n_lower_bound": lower,
        "pass": ok,
        # the exact moments, and each estimate's z-score against its own
        "numerator_oracle": num_oracle,
        "numerator_z": z_score(ratio.numerator, num_oracle),
        "denominator_oracle": den_oracle,
        "denominator_z": z_score(ratio.denominator, den_oracle),
    }
    return _emit(sub, cfg, result,
                 f"{sub}: ratio={ratio.ratio:.5f} in CI [{ratio.ci_low:.5f}, "
                 f"{ratio.ci_high:.5f}], constant={c:.7f}, lower bound={lower:.5f}, "
                 f"{'PASS' if ok else 'FAIL'}")


def _run_identities(sub: str, cfg: SimpleNamespace) -> int:
    # point_value at --law point alone
    of_law = {key: value for key, value in vars(cfg).items() if _FLAGS[key].when}
    report = check_moment_identities(moment_identity_law(cfg.law, **of_law), cfg.p)
    # relative past 1: 1e8 carries discrepancies of a few ulp, about 1.5e-8
    ok = report.max_discrepancy < 1e-8 * max(1.0, abs(report.direct))
    result = {**report.to_json(), "pass": ok}
    return _emit(sub, cfg, result,
                 f"identities: law={cfg.law}, p={cfg.p}, values="
                 f"({report.direct:.10g}, {report.via_tail_integral:.10g}, "
                 f"{report.via_truncated_mean:.10g}), max discrepancy="
                 f"{report.max_discrepancy:.2e}, {'PASS' if ok else 'FAIL'}")


def _run_verify(sub: str, cfg: SimpleNamespace) -> int:
    from .verifier import inequality_setup

    if not cfg.config_path:
        return _usage_error("verify needs --suite pointing to a JSONL check file")
    try:
        with open(cfg.config_path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        return _usage_error(f"cannot read suite file: {exc}")
    if not lines:
        return _usage_error("suite has no checks")
    # every entry is read and its check set up before the first one draws
    checks = []
    for entry in lines:
        try:
            # p, n_samples and seed follow the rules of a --config file
            values = read_object(entry, "suite entry",
                                 {"generator": dict, "p": float, "constant": str,
                                  "n_samples": int, "seed": int})
            gen = generator_from_config(values["generator"])
            kind = ConstantKind(values.get("constant", "lenglart"))
            settings = {"p": values["p"], "n_samples": values.get("n_samples", 10**5),
                        "seed": values.get("seed", cfg.seed)}
            for key, value in settings.items():
                _FLAGS[key].check_range(value)
            inequality_setup(gen, settings["p"], kind)
        except KeyError as exc:  # a required key left out: its repr alone says too little
            return _usage_error(f"bad suite entry {entry!r}: missing key {exc.args[0]!r}")
        except (TypeError, ValueError) as exc:
            return _usage_error(f"bad suite entry {entry!r}: {exc}")
        checks.append((entry, gen, kind, settings))
    reports = []
    for entry, gen, kind, settings in checks:
        try:
            report = check_inequality(gen, kind=kind, threads=cfg.threads, **settings)
        except ValueError as exc:  # an estimate that is not finite
            return _usage_error(f"bad suite entry {entry!r}: {exc}")
        reports.append(report.to_json())
        ratio = "n/a" if report.ratio is None else f"{report.ratio:.5f}"
        _print(f"verify: {report.label}: ratio={ratio} vs "
               f"constant={report.rhs_constant:.5f}, "
               f"{'PASS' if report.passed else 'FAIL'}")
    return _emit(sub, cfg, {"checks": reports, "pass": all(r["pass"] for r in reports)},
                 f"verify: {sum(r['pass'] for r in reports)}/{len(reports)} checks passed")


def _run_bdg(sub: str, cfg: SimpleNamespace) -> int:
    from .bdg import BM_FIXED_TIME, BM_HITTING, MartingaleSpec, bdg_ratio

    kind = BM_FIXED_TIME if cfg.kind == "fixed" else BM_HITTING
    # T at fixed time, a and b at the hitting time
    of_kind = {key: value for key, value in vars(cfg).items() if _FLAGS[key].when}
    spec = MartingaleSpec(kind=kind, q=cfg.q, step=cfg.step, **of_kind)
    result = bdg_ratio(spec, cfg.n_samples, cfg.seed, cfg.threads)
    return _emit(sub, cfg, result.to_json(),
                 f"bdg: ratio={result.ratio.ratio:.5f}, monotone constant="
                 f"{constant(ConstantKind.MONOTONE, cfg.q / 2):.5f}, bias change="
                 f"{result.bias_relative_change:.3%}, "
                 f"{'PASS' if result.passed else 'FAIL'}")


def _run_dump_paths(sub: str, cfg: SimpleNamespace) -> int:
    import csv

    if not cfg.output:
        return _usage_error("dump-paths needs --output")
    # looked up at call time, so that a patched module attribute is the one called
    stopped = {"exp": exp_pair_stopped, "discrete": discrete_stopped}
    # n 2^N + 1 points, counted without forming 2^N, which a huge level-N
    # would make a huge integer (as extremal._check_level does)
    if cfg.n > (MAX_DUMP_POINTS - 1) >> cfg.level_N:
        return _usage_error(
            f"dump would exceed {MAX_DUMP_POINTS} points; lower n or level-N")
    points = cfg.n * 2**cfg.level_N
    t = np.arange(points + 1) * 2.0 ** (-cfg.level_N)
    rng = chunk_rng(cfg.seed, DUMP_STREAM)
    path = stopped[cfg.dump_kind](ExtremalParams(p=cfg.p, n=cfg.n), cfg.level_N,
                                  [FixedIndexRule(k) for k in range(points + 1)], rng, 1)
    x, g = (np.concatenate(side) for side in zip(*path))
    # tolist: csv writes numpy scalars by their repr
    rows = list(zip(t.tolist(), x.tolist(), g.tolist()))
    with open(cfg.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "g"])
        writer.writerows(rows)
    _print(f"dump-paths: wrote {len(rows)} points to {cfg.output}")
    return EXIT_PASS


_SHARPNESS_SETTINGS = ("p", "n", "n_samples", "seed", "threads", "output")

# subcommand -> (runner, the settings it reads, which are its flags and the
# keys its --config file may hold; bdg reads those of its --kind alone).
# identities draws nothing and reads no thread count; it keeps --threads so
# that one argument list with --threads runs every headline subcommand.
_SUBCOMMANDS = {
    "sharpness": (_run_sharpness, _SHARPNESS_SETTINGS),
    "monotone-sharpness": (_run_sharpness, _SHARPNESS_SETTINGS),
    "identities": (_run_identities, ("p", "threads", "output", "law", "point_value")),
    "verify": (_run_verify, ("seed", "threads", "output", "config_path")),
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
    for name, (_, settings) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        for key in settings:
            flag = _FLAGS[key]
            sp.add_argument(flag.option, dest=key, type=flag.type, choices=flag.choices,
                            default=None, help=flag.help)
        sp.add_argument("--config", dest="config_file", default=None,
                        help="JSON object of settings, named as in an output's "
                        "config block; that block, passed back, reruns its run")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` parses with, built on the first call in a process
    and reused: building one costs about as much as a small run."""
    return build_parser()


def resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """The run's settings, one attribute each. Precedence: explicit flag >
    config file > the setting's default in _FLAGS. The config file must
    hold a JSON object whose keys are settings of the subcommand, each with
    a value that its flag could produce; anything else, and a flag or key
    that the run does not read at the value of its `when` setting, raises
    ValueError."""
    _, declared = _SUBCOMMANDS[args.subcommand]
    given = {}
    if args.config_file:
        with open(args.config_file) as fh:
            given = read_object(json.load(fh), f"{args.subcommand} config",
                                {key: _FLAGS[key].type for key in declared})
        # each value one its flag could produce
        for key, value in given.items():
            if _FLAGS[key].choices and value not in _FLAGS[key].choices:
                raise ValueError(f"{key} must be one of {', '.join(_FLAGS[key].choices)}, "
                                 f"not {value!r}")
    given.update((key, getattr(args, key)) for key in declared
                 if getattr(args, key) is not None)
    value = {key: given.get(key, _FLAGS[key].default) for key in declared}
    settings = [key for key in declared
                if not _FLAGS[key].when or value[_FLAGS[key].when[0]] == _FLAGS[key].when[1]]
    unread = sorted(given.keys() - set(settings))
    if unread:
        switch = _FLAGS[unread[0]].when[0]
        raise ValueError(f"{args.subcommand} {_FLAGS[switch].option} {value[switch]} has no "
                         f"setting {unread[0]!r}; it takes {', '.join(settings)}")
    return SimpleNamespace(**{key: value[key] for key in settings})


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _usage_error(f"bad config: {exc}")
    runner, _ = _SUBCOMMANDS[args.subcommand]
    try:
        for key, value in vars(cfg).items():
            _FLAGS[key].check_range(value)
        return runner(args.subcommand, cfg)
    # OSError: an --output it cannot write; ArithmeticError: an oracle that did not converge
    except (OSError, ValueError, ArithmeticError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
