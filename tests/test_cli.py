"""CLI behavior: precedence, exit codes, output formats, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from lenglart import cli, montecarlo, verifier
from lenglart.cli import (
    EXIT_PASS,
    EXIT_STAT_FAIL,
    EXIT_USAGE,
    build_parser,
    main,
    resolve_config,
    resolved_method,
)
from lenglart.montecarlo import PLAIN, median_of_means
from lenglart.oracles import full_extremal_sup_moment, gtilde_sup_moment


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def load_json_output(path):
    with open(path) as fh:
        return json.load(fh)


def write_suite(path, seed=1):
    path.write_text(json.dumps({
        "generator": {"kind": "compensated_bernoulli", "jump": "bernoulli",
                      "q": 0.3, "steps": 12},
        "p": 0.5, "constant": "monotone", "n_samples": 1000, "seed": seed,
    }) + "\n")
    return path


SEED_ERROR = "seed must be a non-negative 64-bit integer"
BERNOULLI = {"kind": "compensated_bernoulli", "jump": "bernoulli", "q": 0.3, "steps": 12}


class TestUsageErrors:
    def test_p_out_of_range(self, capsys):
        code, _, err = run(["sharpness", "--p", "1.5", "--samples", "100"], capsys)
        assert code == EXIT_USAGE
        assert "p must lie in (0,1)" in err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == EXIT_USAGE

    def test_bad_q_for_bdg(self, capsys):
        code, _, err = run(["bdg", "--q", "2.5", "--samples", "10"], capsys)
        assert code == EXIT_USAGE
        assert "q must lie" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bdg_rejects_nonpositive_threads(self, capsys, threads):
        code, _, err = run(["bdg", "--samples", "100", "--threads", threads], capsys)
        assert code == EXIT_USAGE
        assert "threads must be positive" in err

    def test_verify_rejects_nonpositive_threads(self, capsys, tmp_path):
        suite = write_suite(tmp_path / "suite.jsonl")
        code, _, err = run(["verify", "--suite", str(suite), "--threads", "0"], capsys)
        assert code == EXIT_USAGE
        assert "threads must be positive" in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("sub", ["sharpness", "bdg", "verify", "dump-paths"])
    def test_seed_out_of_range(self, capsys, tmp_path, sub, seed):
        out_file = tmp_path / "out"
        argv = {
            "sharpness": ["sharpness", "--samples", "100"],
            "bdg": ["bdg", "--samples", "100"],
            "verify": ["verify", "--suite", str(write_suite(tmp_path / "s.jsonl"))],
            "dump-paths": ["dump-paths"],
        }[sub]
        code, _, err = run(argv + ["--seed", str(seed), "--output", str(out_file)], capsys)
        assert code == EXIT_USAGE
        assert SEED_ERROR in err
        assert not out_file.exists()

    def test_suite_entry_seed_out_of_range(self, capsys, tmp_path):
        suite = write_suite(tmp_path / "s.jsonl", seed=-1)
        code, _, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE
        assert "bad suite entry" in err and SEED_ERROR in err

    @pytest.mark.parametrize("argv,message", [
        (["bdg", "--T", "inf"], "horizon must be positive and finite"),
        (["bdg", "--T", "nan"], "horizon must be positive and finite"),
        (["bdg", "--step", "inf"], "step must be positive and finite"),
        (["identities", "--law", "point", "--point-value", "nan"],
         "point mass must be finite and non-negative"),
    ], ids=["T-inf", "T-nan", "step-inf", "point-value-nan"])
    def test_nonfinite_float(self, capsys, tmp_path, argv, message):
        out_file = tmp_path / "out"
        code, out, err = run(argv + ["--output", str(out_file)], capsys)
        assert code == EXIT_USAGE
        assert err == f"error: {message}\n"
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("argv,message", [
        (["bdg", "--step", "1e-300"], "T / step must round to between 1 and 1000000 steps"),
        (["bdg", "--T", "1e300"], "T / step must round to between 1 and 1000000 steps"),
        (["bdg", "--kind", "hitting", "--a=-inf", "--step", "0.01"],
         "barriers must be finite and satisfy a < 0 < b"),
        (["bdg", "--kind", "hitting", "--b", "inf", "--step", "0.01"],
         "barriers must be finite and satisfy a < 0 < b"),
    ], ids=["step-1e-300", "T-1e300", "a-inf", "b-inf"])
    def test_bdg_refused_before_drawing(self, capsys, tmp_path, monkeypatch, argv, message):
        def no_stream(seed, j):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(montecarlo, "chunk_rng", no_stream)
        out_file = tmp_path / "out"
        code, out, err = run(argv + ["--samples", "100", "--output", str(out_file)], capsys)
        assert code == EXIT_USAGE
        assert err == f"error: {message}\n"
        assert out == "" and not out_file.exists()

    def test_verify_needs_suite(self, capsys):
        code, _, err = run(["verify"], capsys)
        assert code == EXIT_USAGE
        assert "suite" in err

    @pytest.mark.parametrize("generator", [
        {"kind": "discrete_extremal", "p": 0.5, "n": 4, "level_N": -3},
        {"kind": "hatx_of", "inner": {"kind": "extremal", "p": 0.5, "n": 4},
         "rule": {"side": "X", "level": 2.0}},
        {"kind": "hatx_of", "inner": {"kind": "discrete_extremal", "p": 0.5, "n": 4,
                                      "level_N": -1},
         "rule": {"side": "x", "level": 2.0}},
        {"kind": "hatx_of", "inner": {"kind": "discrete_extremal", "p": 0.01, "n": 10,
                                      "level_N": 3},
         "rule": {"side": "x", "level": 2.0}},
        5,
        {"kind": "hatx_of", "inner": [1, 2], "rule": {"k": 1}},
        {"kind": "hatx_of", "inner": {"kind": "extremal", "p": 0.5, "n": 4}, "rule": 3},
        {"kind": "extremal", "p": "0.5", "n": 4},
    ], ids=["negative-level", "hitting-side", "hatx-negative-level", "hatx-overflow",
            "generator-not-object", "inner-not-object", "rule-not-object",
            "generator-p-string"])
    def test_malformed_suite_entry(self, capsys, tmp_path, generator):
        suite = tmp_path / "s.jsonl"
        suite.write_text(json.dumps({"generator": generator, "p": 0.5,
                                     "n_samples": 1000, "seed": 1}) + "\n")
        code, out, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE
        assert "bad suite entry" in err and "checks passed" not in out

    @pytest.mark.parametrize(("generator", "message"), [
        ({"kind": "compensated_bernoulli", "jump": "const", "c": math.nan, "steps": 12},
         "c must be finite"),
        ({"kind": "compensated_bernoulli", "jump": "const", "c": math.inf, "steps": 12},
         "c must be finite"),
        ({"kind": "hatx_of", "inner": {"kind": "compensated_bernoulli", "q": 0.3,
                                       "steps": 10**6},
          "rule": {"side": "x", "level": 5.0}}, "steps must lie in"),
    ], ids=["c-nan", "c-inf", "steps-over-cap"])
    def test_walk_refused_before_drawing(self, capsys, tmp_path, monkeypatch, generator,
                                         message):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the walk was refused")

        monkeypatch.setattr(verifier, "estimate_pair", no_draws)
        suite = tmp_path / "s.jsonl"
        suite.write_text(json.dumps({"generator": generator, "p": 0.5,
                                     "constant": "monotone", "n_samples": 1000}) + "\n")
        code, out, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE
        assert "bad suite entry" in err and message in err
        assert "checks passed" not in out

    @pytest.mark.parametrize(("entry", "message"), [
        ({"generator": {"kind": "compensated_bernoulli", "jump": "bernoulli", "Q": 0.3,
                        "steps": 12}, "p": 0.5, "constant": "monotone", "n_sample": 1000,
          "sed": 5}, "suite entry has no key 'n_sample'"),
        ({"generator": BERNOULLI, "p": 0.5, "seeds": 5}, "suite entry has no key 'seeds'"),
        ({"generator": {**BERNOULLI, "Q": 0.3}, "p": 0.5},
         "compensated_bernoulli generator has no key 'Q'"),
        ({"generator": {**BERNOULLI, "c": 2.0}, "p": 0.5},
         "compensated_bernoulli generator has no key 'c'"),
        ({"generator": {"kind": "compensated_bernoulli", "q": 0.3, "c": 2.0, "steps": 12},
          "p": 0.5}, "compensated_bernoulli generator has no key 'c'"),
        ({"generator": {"kind": "compensated_bernoulli", "jump": "const", "q": 0.3,
                        "steps": 12}, "p": 0.5},
         "compensated_bernoulli generator has no key 'q'"),
        ({"generator": {"kind": "compensated_bernoulli", "jump": "exp", "q": 0.3,
                        "steps": 12}, "p": 0.5},
         "compensated_bernoulli generator has no key 'q'"),
        ({"generator": {"kind": "compensated_bernoulli", "jump": "levy", "steps": 12},
          "p": 0.5}, "unknown jump law 'levy'"),
        ({"generator": {"kind": "extremal", "p": 0.5, "n": 4, "level_N": 3}, "p": 0.5},
         "extremal generator has no key 'level_N'"),
        ({"generator": {"kind": "hatx_of", "inner": BERNOULLI, "rule": {"k": 6}, "p": 0.5},
          "p": 0.5}, "hatx_of generator has no key 'p'"),
        ({"generator": {"kind": "hatx_of", "inner": {**BERNOULLI, "step": 12},
                        "rule": {"k": 6}}, "p": 0.5},
         "compensated_bernoulli generator has no key 'step'"),
        ({"generator": {"kind": "hatx_of", "inner": BERNOULLI,
                        "rule": {"k": 6, "side": "x", "level": 2.0}}, "p": 0.5},
         "hatx_of rule has no key 'level'"),
        ({"generator": {"kind": "hatx_of", "inner": BERNOULLI,
                        "rule": {"side": "x", "level": 2.0, "k2": 1}}, "p": 0.5},
         "hatx_of rule has no key 'k2'"),
        ({"generator": {"kind": "hatx_of", "inner": BERNOULLI, "rule": {"side": "x"}},
          "p": 0.5}, "level"),
    ], ids=["misspelt-samples-and-seed", "entry-extra-key", "walk-Q", "bernoulli-c",
            "default-jump-c", "const-q", "exp-q", "unknown-jump", "extremal-level_N",
            "hatx-extra-key", "inner-extra-key", "rule-k-and-level", "rule-extra-key",
            "rule-without-level"])
    def test_suite_entry_unread_key(self, capsys, tmp_path, monkeypatch, entry, message):
        # an entry and its generator hold only the keys they read; any other
        # key is refused before the check draws, not dropped
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the entry was refused")

        monkeypatch.setattr(verifier, "estimate_pair", no_draws)
        suite = tmp_path / "s.jsonl"
        suite.write_text(json.dumps(entry) + "\n")
        code, out, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE
        assert "bad suite entry" in err and message in err
        assert "checks passed" not in out

    @pytest.mark.parametrize(("entry", "key"), [
        ({"generator": BERNOULLI}, "p"),
        ({"generator": {"kind": "extremal", "p": 0.5}, "p": 0.5}, "n"),
        ({"generator": {"kind": "compensated_bernoulli", "q": 0.3}, "p": 0.5}, "steps"),
        ({"generator": {"kind": "discrete_extremal", "p": 0.5, "n": 4}, "p": 0.5}, "level_N"),
        ({"generator": {"kind": "hatx_of", "rule": {"k": 6}}, "p": 0.5}, "inner"),
        ({"generator": {"kind": "hatx_of", "inner": BERNOULLI}, "p": 0.5}, "rule"),
        ({"generator": {"kind": "hatx_of", "inner": BERNOULLI, "rule": {"level": 2.0}},
          "p": 0.5}, "side"),
        ({"generator": {"kind": "hatx_of", "inner": BERNOULLI, "rule": {"side": "g"}},
          "p": 0.5}, "level"),
        ({"generator": {"kind": "hatx_of", "inner": BERNOULLI, "rule": {}}, "p": 0.5}, "k"),
    ], ids=["entry-p", "extremal-n", "walk-steps", "discrete-level_N", "hatx-inner",
            "hatx-rule", "rule-side", "rule-level", "rule-k"])
    def test_suite_entry_missing_key(self, capsys, tmp_path, monkeypatch, entry, key):
        # a required key left out is named as missing, before the check draws
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the entry was refused")

        monkeypatch.setattr(verifier, "estimate_pair", no_draws)
        suite = tmp_path / "s.jsonl"
        suite.write_text(json.dumps(entry) + "\n")
        code, out, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE
        assert f"bad suite entry {entry!r}: missing key {key!r}" in err
        assert "checks passed" not in out

    @pytest.mark.parametrize(("key", "value"), [
        ("p", [1]), ("p", "0.5"), ("p", None),
        ("n_samples", None), ("n_samples", True), ("n_samples", 1000.0),
        ("seed", 2.9), ("seed", "1"), ("seed", False),
    ])
    def test_suite_value_of_wrong_type(self, capsys, tmp_path, key, value):
        # p, n_samples and seed follow the --config rules: no cast, no bool;
        # the plain mean takes any sample count, so only the type can fail
        suite = write_suite(tmp_path / "s.jsonl")
        entry = {**json.loads(suite.read_text()), key: value}
        suite.write_text(json.dumps(entry) + "\n")
        code, out, err = run(["verify", "--suite", str(suite), "--method", "plain"], capsys)
        assert code == EXIT_USAGE
        assert "bad suite entry" in err and f"{key} must be" in err
        assert "checks passed" not in out

    @pytest.mark.parametrize(("key", "generator"), [
        ("n", {"kind": "extremal", "p": 0.5, "n": 10.7}),
        ("n", {"kind": "extremal", "p": 0.5, "n": True}),
        ("p", {"kind": "extremal", "p": True, "n": 4}),
        ("level_N", {"kind": "discrete_extremal", "p": 0.5, "n": 4, "level_N": 3.0}),
        ("steps", {"kind": "compensated_bernoulli", "q": 0.3, "steps": 12.5}),
        ("q", {"kind": "compensated_bernoulli", "q": True, "steps": 12}),
        ("c", {"kind": "compensated_bernoulli", "jump": "const", "c": "1", "steps": 12}),
        ("k", {"kind": "hatx_of", "inner": {"kind": "compensated_bernoulli", "steps": 12},
               "rule": {"k": 6.5}}),
        ("level", {"kind": "hatx_of", "inner": {"kind": "compensated_bernoulli", "steps": 12},
                   "rule": {"side": "x", "level": "2"}}),
        ("level", {"kind": "hatx_of", "inner": {"kind": "compensated_bernoulli", "steps": 12},
                   "rule": {"side": "x", "level": False}}),
    ], ids=["n-fraction", "n-bool", "p-bool", "level_N-float", "steps-fraction", "q-bool",
            "c-string", "k-fraction", "level-string", "level-bool"])
    def test_generator_value_of_wrong_type(self, capsys, tmp_path, key, generator):
        # the generator's numbers follow the --config rules too: an int
        # setting takes an int, a float setting an int or float, never a bool
        suite = tmp_path / "s.jsonl"
        suite.write_text(json.dumps({"generator": generator, "p": 0.5,
                                     "n_samples": 1000, "seed": 1}) + "\n")
        code, out, err = run(["verify", "--suite", str(suite), "--method", "plain"], capsys)
        assert code == EXIT_USAGE
        assert "bad suite entry" in err and f"{key} must be" in err
        assert "checks passed" not in out

    @pytest.mark.parametrize(("text", "message"), [
        ("", "suite has no checks"),
        ("\n  \n\t\n", "suite has no checks"),
        ("[1, 2]\n", "bad suite entry"),
        ('"check"\n', "bad suite entry"),
    ], ids=["empty", "blank", "list-line", "string-line"])
    def test_suite_without_checks(self, capsys, tmp_path, text, message):
        # a suite with no checks has no verdict to give, so it cannot pass
        suite = tmp_path / "s.jsonl"
        suite.write_text(text)
        out_file = tmp_path / "r.json"
        code, out, err = run(["verify", "--suite", str(suite), "--output", str(out_file)],
                             capsys)
        assert code == EXIT_USAGE
        assert message in err and out == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("sub", ["sharpness", "verify", "bdg", "dump-paths"])
    def test_unwritable_output(self, capsys, tmp_path, sub):
        # the write fails after the draws: a usage error naming the path,
        # not the statistical-failure code and a traceback
        out_file = tmp_path / "missing" / "x.json"
        argv = {
            "sharpness": ["sharpness", "--samples", "1000"],
            "verify": ["verify", "--suite", str(write_suite(tmp_path / "s.jsonl"))],
            "bdg": ["bdg", "--samples", "100", "--step", "0.1"],
            "dump-paths": ["dump-paths"],
        }[sub]
        code, _, err = run(argv + ["--output", str(out_file)], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and str(out_file) in err
        assert "Traceback" not in err

    def test_dump_needs_output(self, capsys):
        code, _, err = run(["dump-paths"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["sharpness", "--blocks", "7"],
        ["sharpness", "--method", "plain", "--blocks", "7"],
        ["sharpness", "--config", "blocks.json"],
        ["verify", "--suite", "s.jsonl", "--blocks", "11"],
    ], ids=["default", "plain", "config", "verify"])
    def test_blocks_need_mom(self, capsys, tmp_path, monkeypatch, argv):
        # a block count that no estimator reads is refused before any draw
        def no_draw(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(cli, "ratio_experiment", no_draw)
        monkeypatch.setattr(cli, "check_inequality", no_draw)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocks.json").write_text(json.dumps({"blocks": 7}))
        write_suite(tmp_path / "s.jsonl")
        code, out, err = run(argv + ["--output", "r.json"], capsys)
        assert code == EXIT_USAGE
        assert "--blocks applies only with --method mom" in err and out == ""
        assert not (tmp_path / "r.json").exists()

    def test_blocks_with_mom_run(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        code, _, _ = run(["sharpness", "--samples", "2000", "--method", "mom",
                          "--blocks", "11", "--output", str(out_file)], capsys)
        assert code in (EXIT_PASS, EXIT_STAT_FAIL)
        ratio = load_json_output(out_file)["result"]["ratio"]
        assert ratio["numerator"]["method"] == {"name": "median_of_means", "blocks": 11}

    @pytest.mark.parametrize("argv", [
        ["sharpness", "--method", "auto"],
        ["sharpness", "--config", "auto.json"],
        ["verify", "--suite", "s.jsonl", "--method", "auto"],
        ["verify", "--suite", "s.jsonl", "--config", "auto.json"],
    ], ids=["sharpness-flag", "sharpness-config", "verify-flag", "verify-config"])
    def test_auto_method_is_gone(self, capsys, tmp_path, monkeypatch, argv):
        # the estimator is plain unless mom is named; an old "auto", from
        # the flag or from a --config file, is refused before any draw
        def no_draw(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(cli, "ratio_experiment", no_draw)
        monkeypatch.setattr(cli, "check_inequality", no_draw)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "auto.json").write_text(json.dumps({"method": "auto"}))
        write_suite(tmp_path / "s.jsonl")
        code, out, err = run(argv + ["--output", "r.json"], capsys)
        assert code == EXIT_USAGE
        assert "auto" in err and out == ""
        assert not (tmp_path / "r.json").exists()

    def test_format_flag_is_gone(self, capsys):
        # output is always JSON (dump-paths: CSV); there is no format switch
        assert run(["identities", "--format", "csv"], capsys)[0] == EXIT_USAGE
        assert "fmt" not in cli._FLAGS

    def test_unreadable_config_file(self, capsys, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        code, _, err = run(["identities", "--config", str(bad)], capsys)
        assert code == EXIT_USAGE


# flag -> (setting, a non-default argument, the value it sets);
# --kind sets a different field in each subcommand that has it
FLAG_VALUES = {
    "--p": ("p", "0.3", 0.3),
    "--n": ("n", "7", 7),
    "--level-N": ("level_N", "2", 2),
    "--samples": ("n_samples", "5000", 5000),
    "--seed": ("seed", "9", 9),
    "--method": ("method", "mom", "mom"),
    "--blocks": ("blocks", "11", 11),
    "--threads": ("threads", "2", 2),
    "--output": ("output", "r.json", "r.json"),
    "--law": ("law", "pareto", "pareto"),
    "--point-value": ("point_value", "2.5", 2.5),
    "--T": ("T", "2.0", 2.0),
    "--a": ("a", "-2.0", -2.0),
    "--b": ("b", "3.0", 3.0),
    "--q": ("q", "1.5", 1.5),
    "--step": ("step", "0.01", 0.01),
    "--suite": ("config_path", "s.jsonl", "s.jsonl"),
}
KIND_VALUES = {"bdg": ("kind", "hitting", "hitting"),
               "dump-paths": ("dump_kind", "discrete", "discrete")}

SHARPNESS_FLAGS = ("--p", "--n", "--samples", "--seed", "--method", "--blocks",
                   "--threads", "--output")
# subcommand -> the flags it declares besides --config
DECLARED = {
    "sharpness": SHARPNESS_FLAGS,
    "monotone-sharpness": SHARPNESS_FLAGS,
    "identities": ("--p", "--threads", "--output", "--law", "--point-value"),
    "verify": ("--seed", "--method", "--blocks", "--threads", "--output", "--suite"),
    "bdg": ("--samples", "--seed", "--threads", "--output", "--kind", "--T", "--a",
            "--b", "--q", "--step"),
    "dump-paths": ("--p", "--n", "--level-N", "--seed", "--output", "--kind"),
}
# the flags each subcommand took without reading them
REMOVED = {
    "sharpness": ("--level-N",),
    "monotone-sharpness": ("--level-N",),
    "identities": ("--n", "--level-N", "--samples", "--seed", "--method", "--blocks"),
    "verify": ("--p", "--n", "--level-N", "--samples"),
    "bdg": ("--p", "--n", "--level-N", "--method", "--blocks"),
    "dump-paths": ("--samples", "--method", "--blocks", "--threads"),
}


def flag_value(sub, flag):
    return KIND_VALUES[sub] if flag == "--kind" else FLAG_VALUES[flag]


class TestSettingsTable:
    """Every flag a subcommand declares is read, every flag it does not read
    is refused, and a --config file holds only the subcommand's settings."""

    def test_declared_flags(self):
        parser = build_parser()
        [subparsers] = [a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)]
        options = {name: {opt for action in sp._actions for opt in action.option_strings}
                   - {"-h", "--help"} for name, sp in subparsers.choices.items()}
        assert options == {sub: {*flags, "--config"} for sub, flags in DECLARED.items()}
        assert sum(map(len, options.values())) == 49

    @pytest.mark.parametrize(("sub", "flag"), [
        (sub, flag) for sub, flags in DECLARED.items() for flag in flags])
    def test_flag_sets_its_field(self, sub, flag):
        field, arg, value = flag_value(sub, flag)
        assert cli._FLAGS[field].default != value
        # bdg's --a and --b are settings of the hitting kind alone, and
        # identities' --point-value of the point law
        when = cli._FLAGS[field].when
        argv = [sub, flag, arg] + ([cli._FLAGS[when[0]].option, when[1]] if when else [])
        cfg = resolve_config(build_parser().parse_args(argv))
        assert getattr(cfg, field) == value

    @pytest.mark.parametrize(("sub", "flag"), [
        (sub, flag) for sub, flags in REMOVED.items() for flag in flags])
    def test_removed_flag_is_refused(self, capsys, sub, flag):
        code, out, err = run([sub, flag, flag_value(sub, flag)[1]], capsys)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in err and out == ""

    @pytest.mark.parametrize(("sub", "values"), [
        ("sharpness", {"level_N": 2}),
        ("bdg", {"p": 0.5}),
        ("identities", {"seed": 3}),
        ("verify", {"n_samples": 1000}),
        ("dump-paths", {"threads": 2}),
        ("sharpness", {"subcommand": "identities"}),
        ("sharpness", {"sample": 10}),
        ("sharpness", [{"p": 0.3}]),
        ("sharpness", 0.3),
        ("sharpness", {"n": "10"}),
        ("sharpness", {"n": True}),
        ("sharpness", {"n": 10.0}),
        ("sharpness", {"p": "0.3"}),
        ("sharpness", {"output": None}),
        ("bdg", {"kind": "Fixed"}),
        ("dump-paths", {"dump_kind": "hitting"}),
    ], ids=["other-sub-level_N", "other-sub-p", "other-sub-seed", "other-sub-samples",
            "other-sub-threads", "subcommand", "unknown-key", "list", "number",
            "str-int", "bool-int", "float-int", "str-float", "null-str", "bdg-kind",
            "dump-kind"])
    def test_bad_config_file(self, capsys, tmp_path, sub, values):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(values))
        out_file = tmp_path / "r.json"
        code, out, err = run([sub, "--config", str(cfg_file), "--output", str(out_file)],
                             capsys)
        assert code == EXIT_USAGE
        assert "error: bad config" in err and out == ""
        assert not out_file.exists()

    def test_config_file_takes_int_for_float(self, tmp_path):
        # a float flag's value may be written as an integer, as --b 2 is
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"b": 2, "kind": "hitting", "a": -2}))
        cfg = resolve_config(build_parser().parse_args(["bdg", "--config", str(cfg_file)]))
        assert (cfg.b, cfg.kind, cfg.a) == (2, "hitting", -2)

    @pytest.mark.parametrize(("argv", "values", "message"), [
        (["--kind", "fixed", "--a", "5"], None, "bdg --kind fixed has no setting 'a'"),
        (["--kind", "hitting", "--T", "-5"], None, "bdg --kind hitting has no setting 'T'"),
        (["--b", "2"], None, "bdg --kind fixed has no setting 'b'"),
        ([], {"kind": "hitting", "T": 2.0}, "bdg --kind hitting has no setting 'T'"),
        (["--kind", "hitting"], {"T": 2.0}, "bdg --kind hitting has no setting 'T'"),
        (["--kind", "fixed"], {"kind": "hitting", "a": -2.0},
         "bdg --kind fixed has no setting 'a'"),
    ], ids=["fixed-a", "hitting-T", "default-kind-b", "config-hitting-T",
            "flag-kind-config-T", "flag-kind-beats-config"])
    def test_bdg_setting_of_other_kind(self, capsys, tmp_path, monkeypatch, argv, values,
                                       message):
        # T is read at fixed time, a and b at the hitting time; a setting of
        # the other kind, from a flag or a --config key, is refused before
        # any draw
        def no_stream(seed, j):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(montecarlo, "chunk_rng", no_stream)
        if values is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(values))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        out_file = tmp_path / "r.json"
        code, out, err = run(["bdg", *argv, "--samples", "100", "--output", str(out_file)],
                             capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: bad config: ") and message in err
        assert out == "" and not out_file.exists()


    @pytest.mark.parametrize(("argv", "values"), [
        (["--law", "exp", "--point-value", "2.5"], None),
        (["--point-value", "2.5"], None),
        ([], {"law": "uniform", "point_value": 2.5}),
        (["--law", "pareto"], {"law": "point", "point_value": 2.5}),
    ], ids=["exp-flag", "default-law-flag", "config", "flag-law-beats-config"])
    def test_point_value_of_other_law(self, capsys, tmp_path, argv, values):
        # --point-value is read at --law point alone
        if values is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(values))
            argv = argv + ["--config", str(tmp_path / "cfg.json")]
        code, out, err = run(["identities", *argv], capsys)
        assert code == EXIT_USAGE and out == ""
        assert "identities --law" in err and "has no setting 'point_value'" in err


def write_small_suite(path):
    path.write_text("".join(json.dumps(entry) + "\n" for entry in (
        {"generator": {"kind": "compensated_bernoulli", "jump": "bernoulli", "q": 0.3,
                       "steps": 12}, "p": 0.5, "constant": "monotone", "n_samples": 2000},
        {"generator": {"kind": "hatx_of",
                       "inner": {"kind": "discrete_extremal", "p": 0.5, "n": 5, "level_N": 2},
                       "rule": {"side": "x", "level": 3.0}},
         "p": 0.5, "constant": "monotone", "n_samples": 2000, "seed": 9},
    )))
    return path


# one small run of each subcommand that writes JSON, of each bdg kind and of
# identities with and without the point law, with the settings its config
# block must hold
CONFIG_RUNS = {
    "sharpness": (["sharpness", "--p", "0.3", "--n", "7", "--samples", "3000", "--seed", "4",
                   "--method", "mom", "--blocks", "11", "--threads", "2"],
                  {"p", "n", "n_samples", "seed", "method", "blocks", "threads"}),
    "monotone-sharpness": (["monotone-sharpness", "--samples", "3000", "--method", "plain"],
                           {"p", "n", "n_samples", "seed", "method", "blocks", "threads"}),
    "identities": (["identities", "--law", "point", "--point-value", "2.5", "--p", "0.4"],
                   {"p", "threads", "law", "point_value"}),
    "identities-exp": (["identities", "--law", "exp", "--p", "0.4"], {"p", "threads", "law"}),
    "verify": (["verify", "--seed", "3", "--method", "plain"],
               {"seed", "method", "blocks", "threads", "config_path"}),
    "bdg-fixed": (["bdg", "--kind", "fixed", "--T", "2", "--q", "1.5", "--samples", "3000",
                   "--step", "0.1"],
                  {"n_samples", "seed", "threads", "kind", "T", "q", "step"}),
    "bdg-hitting": (["bdg", "--kind", "hitting", "--a", "-0.5", "--samples", "300",
                     "--step", "0.05"],
                    {"n_samples", "seed", "threads", "kind", "a", "b", "q", "step"}),
}


class TestConfigBlock:
    """The config block of a run's JSON holds that run's settings and no
    other key, so that, passed back as --config, it reruns the run."""

    @staticmethod
    def without_timestamp(text):
        return [line for line in text.splitlines() if '"timestamp"' not in line]

    @pytest.mark.parametrize("name", CONFIG_RUNS)
    def test_config_block_reruns_the_run(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        argv, settings = CONFIG_RUNS[name]
        if argv[0] == "verify":
            argv = argv + ["--suite", str(write_small_suite(tmp_path / "suite.jsonl"))]
        # the verdict does not matter here (a hitting run this small can
        # fail its step-halving check), only that the rerun repeats it
        code, out, err = run(argv, capsys)
        assert code in (EXIT_PASS, EXIT_STAT_FAIL) and err == ""
        payload, _ = json.JSONDecoder().raw_decode(out, out.index("{"))
        assert payload["subcommand"] == argv[0]
        assert set(payload["config"]) == settings
        (tmp_path / "cfg.json").write_text(json.dumps(payload["config"]))
        rerun = run([argv[0], "--config", "cfg.json"], capsys)
        assert rerun[0] == code and rerun[2] == ""
        assert self.without_timestamp(rerun[1]) == self.without_timestamp(out)

    def test_output_setting_is_kept(self, capsys, tmp_path):
        # a set --output is a setting of the run, and its rerun writes there
        out_file = tmp_path / "r.json"
        assert run(["identities", "--output", str(out_file)], capsys)[0] == EXIT_PASS
        config = load_json_output(out_file)["config"]
        assert config["output"] == str(out_file)
        out_file.unlink()
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run(["identities", "--config", str(tmp_path / "cfg.json")], capsys)[0] == 0
        assert load_json_output(out_file)["config"] == config


class TestPrecedence:
    def test_defaults_are_headline_settings(self):
        parser = build_parser()
        cfg = resolve_config(parser.parse_args(["sharpness"]))
        assert cfg.p == 0.5 and cfg.n == 40 and cfg.n_samples == 10**6

    def test_config_file_overrides_defaults(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"p": 0.3, "n": 7, "seed": 11}))
        parser = build_parser()
        cfg = resolve_config(parser.parse_args(["sharpness", "--config", str(f)]))
        assert (cfg.p, cfg.n, cfg.seed) == (0.3, 7, 11)

    def test_flag_overrides_config_file(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"p": 0.3}))
        parser = build_parser()
        cfg = resolve_config(
            parser.parse_args(["sharpness", "--config", str(f), "--p", "0.25"])
        )
        assert cfg.p == 0.25

    def test_environment_sets_no_seed(self, tmp_path, monkeypatch):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"seed": 11}))
        monkeypatch.setenv("LENGLART_SEED", "99")
        parser = build_parser()
        seeds = [resolve_config(parser.parse_args(["sharpness"] + argv)).seed
                 for argv in ([], ["--config", str(f)], ["--config", str(f), "--seed", "5"])]
        assert seeds == [cli._FLAGS["seed"].default, 11, 5]


class TestSubcommands:
    def test_identities_pass(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        code, out, _ = run(
            ["identities", "--law", "uniform", "--p", "0.5", "--output", str(out_file)],
            capsys,
        )
        assert code == EXIT_PASS
        assert "PASS" in out
        payload = load_json_output(out_file)
        assert payload["config"]["law"] == "uniform"
        assert payload["result"]["pass"] is True
        assert abs(payload["result"]["direct"] - 2.0 / 3.0) < 1e-8

    def test_identities_pareto_high_p(self, capsys):
        # the tail integral must see the survival's plateau of 1 on [0, 1],
        # a short piece of [0, cap^p]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["identities", "--law", "pareto", "--p", "0.9"], capsys)
        assert code == EXIT_PASS, out
        assert err == ""

    def test_sharpness_small_run(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        code, out, _ = run(
            ["sharpness", "--p", "0.5", "--n", "10", "--samples", "100000",
             "--seed", "0", "--output", str(out_file)],
            capsys,
        )
        assert code == EXIT_PASS
        payload = load_json_output(out_file)
        assert payload["config"]["n"] == 10
        assert "ci_low" in payload["result"]["ratio"]
        assert payload["result"]["constant"] == pytest.approx(2.0 * 2.0**0.5)

    @pytest.mark.parametrize("sub", ["sharpness", "monotone-sharpness"])
    def test_sharpness_oracle_diagnostics(self, capsys, tmp_path, sub):
        p, n = 0.5, 10
        out_file = tmp_path / "r.json"
        code, _, _ = run([sub, "--p", str(p), "--n", str(n), "--samples", "100000",
                          "--seed", "0", "--output", str(out_file)], capsys)
        assert code == EXIT_PASS
        result = load_json_output(out_file)["result"]
        assert {"ratio", "constant", "finite_n_lower_bound", "pass"} <= result.keys()
        numerator = n / (1.0 - p) if sub == "sharpness" else n
        assert result["numerator_oracle"] == pytest.approx(numerator, rel=1e-15)
        assert result["denominator_oracle"] == pytest.approx(gtilde_sup_moment(p, n), rel=1e-15)
        for side in ("numerator", "denominator"):
            est = result["ratio"][side]
            if side == "numerator":
                # both numerators are closed forms: exact, with no z
                assert est["value"] == result["numerator_oracle"]
                assert est["halfwidth"] == 0.0 and result["numerator_z"] is None
                continue
            z = (est["value"] - result[f"{side}_oracle"]) / est["halfwidth"]
            assert result[f"{side}_z"] == pytest.approx(z, rel=1e-12)
            assert abs(result[f"{side}_z"]) < 4.0, (side, result[f"{side}_z"])

    def test_verify_suite(self, capsys, tmp_path):
        suite = tmp_path / "suite.jsonl"
        suite.write_text(
            json.dumps({
                "generator": {"kind": "compensated_bernoulli", "jump": "bernoulli",
                              "q": 0.3, "steps": 12},
                "p": 0.5, "constant": "monotone", "n_samples": 30000, "seed": 1,
            }) + "\n"
        )
        code, out, _ = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_PASS
        assert "1/1 checks passed" in out

    def test_verify_honours_method(self, capsys, tmp_path):
        suite = tmp_path / "suite.jsonl"
        suite.write_text(
            json.dumps({
                "generator": {"kind": "compensated_bernoulli", "jump": "bernoulli",
                              "q": 0.3, "steps": 12},
                "p": 0.3, "constant": "monotone", "n_samples": 30000, "seed": 1,
            }) + "\n"
        )
        methods = []
        for flags in ([], ["--method", "mom", "--blocks", "11"]):
            out_file = tmp_path / "r.json"
            code, _, _ = run(["verify", "--suite", str(suite), "--output",
                              str(out_file)] + flags, capsys)
            assert code == EXIT_PASS
            check = load_json_output(out_file)["result"]["checks"][0]
            assert check["lhs"]["method"] == check["rhs"]["method"]
            methods.append(check["lhs"]["method"])
        # the default is the plain mean
        assert methods == [{"name": "plain", "blocks": 1},
                           {"name": "median_of_means", "blocks": 11}]

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_verify_extremal_pair_meets_oracle(self, capsys, tmp_path, p):
        # the extremal checks' lhs is the closed form E[(sup X)^p] = n/(1-p),
        # the oracle's float, with half-width 0
        n = 40
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({
            "generator": {"kind": "extremal", "p": p, "n": n}, "p": p,
            "constant": "lenglart", "n_samples": 10**5, "seed": 3,
        }) + "\n")
        out_file = tmp_path / "r.json"
        code, _, _ = run(["verify", "--suite", str(suite), "--output", str(out_file)],
                         capsys)
        assert code == EXIT_PASS
        lhs = load_json_output(out_file)["result"]["checks"][0]["lhs"]
        assert (lhs["value"], lhs["halfwidth"]) == (full_extremal_sup_moment(p, n), 0.0)

    def test_verify_extremal_pair_small_p(self, capsys, tmp_path):
        # exp(z/p) overflows at p = 0.01; the weighted closed forms do not
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({
            "generator": {"kind": "extremal", "p": 0.01, "n": 10}, "p": 0.01,
            "constant": "lenglart", "n_samples": 10**5, "seed": 3,
        }) + "\n")
        code, out, _ = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_PASS
        assert "1/1 checks passed" in out

    def test_verify_rhs_zero(self, capsys, tmp_path):
        # a walk frozen at index 0 has E[G_tau] = 0: 0 <= c * 0 holds, and
        # the ratio 0/0 has no value
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({
            "generator": {"kind": "hatx_of",
                          "inner": {"kind": "compensated_bernoulli", "jump": "bernoulli",
                                    "q": 0.3, "steps": 12},
                          "rule": {"k": 0}},
            "p": 0.5, "constant": "monotone", "n_samples": 1000,
        }) + "\n")
        out_file = tmp_path / "r.json"
        code, out, _ = run(["verify", "--suite", str(suite), "--output", str(out_file)],
                           capsys)
        assert code == EXIT_PASS
        assert "ratio=n/a" in out and "1/1 checks passed" in out
        [check] = load_json_output(out_file)["result"]["checks"]
        assert check["ratio"] is None and check["pass"] is True
        assert check["rhs"]["value"] == 0.0

    def test_verify_nested_hatx_of(self, capsys, tmp_path):
        # a walk frozen at index 6 and frozen again, at index 6 or where x
        # reaches 2 (at 6, or at the last index with x_6 unchanged), stops
        # every path at the walk's (x_6, g_6): the outer freeze stops its
        # inner freeze in closed form, and each check equals the single
        # freeze's bit for bit
        once = {"kind": "hatx_of", "inner": BERNOULLI, "rule": {"k": 6}}

        def checks(*generators):
            suite, out_file = tmp_path / "suite.jsonl", tmp_path / "r.json"
            suite.write_text("".join(json.dumps({
                "generator": gen, "p": 0.5, "constant": "monotone", "n_samples": 20_000,
                "seed": 3}) + "\n" for gen in generators))
            code, _, err = run(["verify", "--suite", str(suite), "--output", str(out_file)],
                               capsys)
            assert code == EXIT_PASS, err
            return load_json_output(out_file)["result"]["checks"]

        [reference] = checks(once)
        nested = checks(*({"kind": "hatx_of", "inner": once, "rule": rule}
                          for rule in ({"k": 6}, {"side": "x", "level": 2.0})))
        assert nested == [reference, reference]
        assert reference["rhs"]["value"] > 0

    def test_verify_bad_entry(self, capsys, tmp_path):
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({"generator": {"kind": "levy"}, "p": 0.5}) + "\n")
        code, _, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(("bad", "flags", "message"), [
        ({"generator": {"kind": "levy"}, "p": 0.5}, [], "unknown generator kind"),
        ({"generator": {"kind": "extremal", "p": 0.5, "n": 10}, "p": 0.5,
          "constant": "monotone"}, [], "the monotone constant does not apply"),
        ({"generator": BERNOULLI, "p": 0.5, "constant": "monotone", "n_samples": 10},
         ["--method", "mom"], "10 samples cannot fill 31 blocks"),
        ({"generator": {"kind": "hatx_of", "inner": {"kind": "compensated_bernoulli",
                                                     "q": 0.3, "steps": 12},
                        "rule": {"k": 99}}, "p": 0.5, "constant": "monotone"},
         [], "fixed stopping index outside the grid"),
        ({"generator": {"kind": "hatx_of", "inner": {"kind": "extremal", "p": 0.01, "n": 10},
                        "rule": {"k": 3}}, "p": 0.5, "constant": "monotone"},
         [], "path values exp(n/p) overflow"),
    ], ids=["unknown-kind", "monotone-on-extremal", "budget-below-blocks",
            "hatx-index-past-the-walk", "hatx-overflowing-inner"])
    def test_verify_reads_every_entry_before_drawing(self, capsys, tmp_path, monkeypatch,
                                                     bad, flags, message):
        # a bad second entry is refused before the first one draws or
        # prints a verdict
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the suite was read")

        monkeypatch.setattr(verifier, "estimate_pair", no_draws)
        suite = tmp_path / "suite.jsonl"
        good = json.loads(write_suite(tmp_path / "good.jsonl").read_text())
        suite.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        code, out, err = run(["verify", "--suite", str(suite), *flags], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "bad suite entry" in err and message in err

    @pytest.mark.filterwarnings("error")
    def test_verify_overflowing_moment(self, capsys, tmp_path, monkeypatch):
        # at r = 0.9 > p = 0.5 and n = 1000 the moments exceed DBL_MAX: the
        # entry is refused before drawing, with no numpy warning, and the
        # message names r, p and n
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the overflow was refused")

        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({"generator": {"kind": "extremal", "p": 0.5, "n": 1000},
                                     "p": 0.9, "n_samples": 1000}) + "\n")
        with monkeypatch.context() as patched:
            patched.setattr(verifier, "estimate_pair", no_draws)
            code, out, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "bad suite entry" in err
        assert "r = 0.9 of the extremal pair at p = 0.5, n = 1000 exceed DBL_MAX" in err
        # at n = 300 the moments, about e^240, are float64: the check runs
        suite.write_text(json.dumps({"generator": {"kind": "extremal", "p": 0.5, "n": 300},
                                     "p": 0.9, "n_samples": 1000}) + "\n")
        code, out, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_PASS and err == ""
        assert "1/1 checks passed" in out

    @pytest.mark.filterwarnings("error")
    def test_verify_refuses_an_overflowing_freeze_before_drawing(self, capsys, tmp_path):
        # a freeze of the extremal pair at r = 0.9 > p = 0.03 draws through
        # the pair's kernel at its horizon, n = 20, whose squared deviations
        # are no float64: refused with the extremal entry's message before
        # the walk ahead of it draws or prints its verdict
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({"generator": BERNOULLI, "p": 0.5, "constant": "monotone",
                                     "n_samples": 1000}) + "\n" + json.dumps({
            "generator": {"kind": "hatx_of", "inner": {"kind": "extremal", "p": 0.03, "n": 20},
                          "rule": {"side": "x", "level": 2.0}},
            "p": 0.9, "constant": "monotone"}) + "\n")
        code, out, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "bad suite entry" in err
        assert "r = 0.9 of the extremal pair at p = 0.03, n = 20 stopped at t = 20 exceed" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [479, 600, 880])
    def test_verify_overflowing_estimate(self, capsys, tmp_path, monkeypatch, n):
        # below n = 884 the moments at r = 0.9 > p = 0.5 are float64, but
        # from n = 479 on the squared deviations the estimate sums may not
        # be: values of about e^(0.8 n) round to 2^-52 of themselves.
        # Refused before drawing, with no numpy warning, by the message that
        # names r, p and n
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the overflow was refused")

        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({"generator": {"kind": "extremal", "p": 0.5, "n": n},
                                     "p": 0.9, "n_samples": 1000}) + "\n")
        monkeypatch.setattr(verifier, "estimate_pair", no_draws)
        code, out, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE
        assert out == "" and "bad suite entry" in err
        assert f"r = 0.9 of the extremal pair at p = 0.5, n = {n} exceed DBL_MAX" in err

    @pytest.mark.filterwarnings("error")
    def test_verify_runs_below_the_estimate_bound(self, capsys, tmp_path):
        # n = 478 at r = 0.9 > p = 0.5, the last horizon admitted: the check
        # draws and passes, with no numpy warning
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({"generator": {"kind": "extremal", "p": 0.5, "n": 478},
                                     "p": 0.9, "n_samples": 1000}) + "\n")
        code, out, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_PASS and err == ""
        assert "1/1 checks passed" in out

    def test_sharpness_subcommands_share_the_denominator(self, capsys, tmp_path):
        # the two pairs share their compensator, their draws and their
        # kernel, so one seed prints the same denominator object
        texts = []
        for sub in ("sharpness", "monotone-sharpness"):
            code, out, _ = run([sub, "--samples", "100000", "--seed", "4"], capsys)
            assert code == EXIT_PASS
            result = json.loads(out[: out.rindex("}") + 1])["result"]
            texts.append(json.dumps(result["ratio"]["denominator"]))
        assert texts[0] == texts[1]

    def test_bdg_small_run(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        code, out, _ = run(
            ["bdg", "--kind", "fixed", "--q", "1.0", "--samples", "5000",
             "--step", "0.02", "--seed", "1", "--output", str(out_file)],
            capsys,
        )
        assert code == EXIT_PASS
        payload = load_json_output(out_file)
        assert payload["result"]["pass"] is True

    def test_dump_paths_csv(self, capsys, tmp_path):
        out_file = tmp_path / "paths.csv"
        code, out, _ = run(
            ["dump-paths", "--kind", "discrete", "--p", "0.5", "--n", "4",
             "--level-N", "3", "--seed", "2", "--output", str(out_file)],
            capsys,
        )
        assert code == EXIT_PASS
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "t,x,g"
        assert 2 <= len(lines) - 1 <= 10**4
        g_vals = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(g_vals, g_vals[1:]))

    def test_dump_paths_exp_csv(self, capsys, tmp_path):
        # step 2^-level_N: 64 points per unit by default, 4 at --level-N 2
        out_file = tmp_path / "paths.csv"
        for flags, per_unit in (([], 64), (["--level-N", "2"], 4)):
            code, out, _ = run(
                ["dump-paths", "--kind", "exp", "--p", "0.5", "--n", "4", "--seed", "2",
                 "--output", str(out_file)] + flags,
                capsys,
            )
            assert code == EXIT_PASS
            lines = out_file.read_text().strip().splitlines()
            assert lines[0] == "t,x,g"
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            assert len(rows) == per_unit * 4 + 1 and f"wrote {len(rows)} points" in out
            t, x, g = zip(*rows)
            assert t[0] == 0.0 and t[-1] == 4.0 and t[1] == 1.0 / per_unit
            assert all(b >= a for a, b in zip(g, g[1:]))
            # one jump at most, from 0 to a level it keeps
            assert len(set(x)) <= 2 and all(b >= a for a, b in zip(x, x[1:]))

    @pytest.mark.parametrize("argv", [
        ["--kind", "exp", "--seed", "1"],
        ["--kind", "exp", "--seed", "0"],
        ["--kind", "discrete", "--level-N", "2", "--seed", "0"],
    ])
    def test_dump_paths_refuses_overflow(self, capsys, tmp_path, argv):
        # n/p = 4000: exp(n/p) is no float64, so no path is written
        out_file = tmp_path / "paths.csv"
        code, _, err = run(["dump-paths", "--p", "0.001", "--n", "4", "--output",
                            str(out_file)] + argv, capsys)
        assert code == EXIT_USAGE
        assert "DBL_MAX" in err
        assert not out_file.exists()

    def test_dump_paths_point_cap(self, capsys, tmp_path, monkeypatch):
        # both kinds refuse more than 10^4 points before any draw; the exp
        # kind at n = 200 and the default level 6 has 12801
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a path before checking the point cap")

        monkeypatch.setattr(cli, "discrete_path_batch", no_draws)
        monkeypatch.setattr(cli, "exp_pair_path_batch", no_draws)
        out_file = tmp_path / "paths.csv"
        for flags in (["--kind", "discrete", "--n", "40", "--level-N", "10"],
                      ["--kind", "exp", "--n", "200"]):
            code, _, err = run(
                ["dump-paths", "--p", "0.5", "--output", str(out_file)] + flags, capsys)
            assert code == EXIT_USAGE
            assert "10000 points; lower n or level-N" in err
            assert not out_file.exists()


class TestDeterminism:
    def test_thread_count_does_not_change_json(self, capsys, tmp_path):
        payloads = []
        for threads, name in ((1, "a.json"), (3, "b.json")):
            out_file = tmp_path / name
            code, _, _ = run(
                ["sharpness", "--p", "0.5", "--n", "5", "--samples", "80000",
                 "--seed", "3", "--threads", str(threads), "--output", str(out_file)],
                capsys,
            )
            payload = load_json_output(out_file)
            del payload["timestamp"]
            del payload["config"]["threads"]
            del payload["config"]["output"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_thread_count_does_not_change_verify_or_bdg(self, capsys, tmp_path):
        suite = tmp_path / "suite.jsonl"
        suite.write_text("\n".join(json.dumps(entry) for entry in (
            {"generator": {"kind": "extremal", "p": 0.5, "n": 10}, "p": 0.5,
             "constant": "lenglart", "n_samples": 3 * 2**15 + 17, "seed": 4},
            {"generator": {"kind": "compensated_bernoulli", "jump": "exp",
                           "steps": 6}, "p": 0.3, "constant": "monotone",
             "n_samples": 2**15 + 1, "seed": 2},
        )) + "\n")
        commands = [
            ["verify", "--suite", str(suite)],
            ["bdg", "--kind", "fixed", "--q", "1.5", "--samples", str(2**15 + 5),
             "--step", "0.05", "--seed", "3"],
            # the default step: 1000 steps, which the validation's blocks of
            # 9 steps do not divide
            ["bdg", "--kind", "fixed", "--step", "0.001", "--samples", "1000"],
        ]
        out_file = tmp_path / "r.json"
        for argv in commands:
            payloads = []
            for threads in (1, 2, 3):
                out_file.unlink(missing_ok=True)
                code, _, _ = run(argv + ["--threads", str(threads), "--output",
                                         str(out_file)], capsys)
                assert code in (EXIT_PASS, EXIT_STAT_FAIL)
                payload = load_json_output(out_file)
                del payload["timestamp"]
                del payload["config"]["threads"]
                payloads.append(payload)
            assert payloads[0] == payloads[1] == payloads[2], argv

    def test_rerun_identical(self, capsys, tmp_path):
        results = []
        for name in ("a.json", "b.json"):
            out_file = tmp_path / name
            run(["identities", "--law", "exp", "--p", "0.4",
                 "--output", str(out_file)], capsys)
            payload = load_json_output(out_file)
            results.append(payload["result"])
        assert results[0] == results[1]


class TestParserReuse:
    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        # main parses every call with one parser per process; a run of
        # subcommands with a usage error in between reads as on fresh parsers
        calls = [
            ["bdg", "--kind", "fixed", "--samples", "1000", "--step", "0.05"],
            ["identities", "--law", "exp", "--p", "0.4"],
            ["sharpness", "--samples", "1000", "--step", "0.05"],
            ["sharpness", "--p", "0.4", "--n", "5", "--samples", "1000"],
            ["bdg", "--kind", "hitting", "--samples", "200", "--step", "0.05"],
        ]

        def outputs():
            seen = []
            for argv in calls:
                code, out, err = run(argv, capsys)
                lines = [line for line in out.splitlines() if '"timestamp"' not in line]
                seen.append((code, lines, err))
            return seen

        cli._parser.cache_clear()
        reused = outputs()
        assert cli._parser.cache_info().misses == 1
        assert reused[2][0] == EXIT_USAGE
        monkeypatch.setattr(cli, "_parser", build_parser)
        assert outputs() == reused


# the headline subcommands at their defaults, then dump-paths and a small
# fixed-time bdg run; prints the exit codes and the scipy modules loaded
HEADLINE_RUNS = """
import contextlib, io, os, sys, tempfile
from lenglart.cli import build_parser, main
build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([sub]) for sub in ("sharpness", "monotone-sharpness")]
    with tempfile.TemporaryDirectory() as tmp:
        codes.append(main(["dump-paths", "--output", os.path.join(tmp, "paths.csv")]))
    codes.append(main(["bdg", "--kind", "fixed", "--samples", "1000", "--step", "0.02"]))
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


class TestClosedStdout:
    @pytest.mark.parametrize("read", [0, 1], ids=["closed-at-once", "after-one-byte"])
    def test_closed_pipe_exits_with_the_verdict(self, read):
        # a reader that closes the pipe early ends the output, not the run:
        # no traceback, and the passing run's exit code
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "lenglart.cli", "sharpness", "--samples", "1000"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if read:
            proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_PASS
        assert err == b""


class TestImportCost:
    def test_headline_runs_load_no_scipy(self):
        # in a fresh interpreter: pytest's filterwarnings setting names a
        # scipy warning class, so scipy is already loaded in this process
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", HEADLINE_RUNS], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[0, 0, 0, 0] []", done.stdout


# one CLI run in a fresh interpreter (build_parser alone when no argument is
# given); prints its exit code and which of the modules a run may defer it
# loaded
LOADED_BY_RUN = """
import contextlib, io, json, sys
from lenglart.cli import build_parser, main
argv = sys.argv[1:]
code = 0
with contextlib.redirect_stdout(io.StringIO()):
    if argv:
        code = main(argv)
    else:
        build_parser()
print(json.dumps([code, [m for m in %r if m in sys.modules]]))
"""
DEFERRED = ("lenglart.verifier", "lenglart.bdg", "concurrent.futures", "csv", "scipy")


class TestDeferredImports:
    """Each subcommand loads only the modules it reads. The other tests load
    every module into their own process, so only a fresh interpreter sees a
    deferred import that has become eager."""

    @pytest.mark.parametrize(("argv", "absent"), [
        ([], DEFERRED),
        (["sharpness", "--samples", "1000"], DEFERRED),
        (["monotone-sharpness", "--samples", "1000"], DEFERRED),
        # its quadrature imports scipy, which imports what it needs
        (["identities"], ("lenglart.verifier", "lenglart.bdg")),
        (["verify", "--suite", "s.jsonl"], ("lenglart.bdg", "concurrent.futures", "csv", "scipy")),
        (["bdg", "--kind", "fixed", "--samples", "1000", "--step", "0.02"],
         ("lenglart.verifier", "concurrent.futures", "csv", "scipy")),
        (["bdg", "--kind", "hitting", "--samples", "300", "--step", "0.05"],
         ("lenglart.verifier", "concurrent.futures", "csv", "scipy")),
        (["dump-paths", "--output", "paths.csv"],
         ("lenglart.verifier", "lenglart.bdg", "concurrent.futures", "scipy")),
        # the --config reader lives in cli itself
        (["sharpness", "--config", "config.json"], DEFERRED),
        (["sharpness", "--samples", "1000", "--threads", "2"],
         ("lenglart.verifier", "lenglart.bdg", "csv", "scipy")),
    ], ids=["parser", "sharpness", "monotone-sharpness", "identities", "verify", "bdg-fixed",
            "bdg-hitting", "dump-paths", "config", "two-threads"])
    def test_run_loads_only_what_it_reads(self, tmp_path, argv, absent):
        write_suite(tmp_path / "s.jsonl")
        (tmp_path / "config.json").write_text(json.dumps({"n_samples": 1000}))
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", LOADED_BY_RUN % (DEFERRED,), *argv],
                              env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120, check=True)
        code, loaded = json.loads(done.stdout)
        assert code == EXIT_PASS, done.stderr
        assert not set(loaded) & set(absent), loaded


class TestResolvedMethod:
    def test_resolved_method(self):
        # every setting names an estimator; the default is the plain mean
        assert cli._FLAGS["method"].choices == ("plain", "mom")
        assert cli._FLAGS["method"].default == "plain"
        assert resolved_method(SimpleNamespace(method="plain", blocks=31)) == PLAIN
        assert resolved_method(SimpleNamespace(method="mom", blocks=11)) == median_of_means(11)
