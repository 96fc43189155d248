"""CLI behavior: precedence, exit codes, output formats, determinism."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from lenglart import cli
from lenglart.cli import (
    EXIT_PASS,
    EXIT_STAT_FAIL,
    EXIT_USAGE,
    ExperimentConfig,
    build_parser,
    main,
    resolve_config,
)
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

    def test_env_seed_out_of_range(self, capsys, monkeypatch):
        monkeypatch.setenv("LENGLART_SEED", "-5")
        code, _, err = run(["sharpness", "--samples", "100"], capsys)
        assert code == EXIT_USAGE
        assert SEED_ERROR in err

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

    def test_dump_needs_output(self, capsys):
        code, _, err = run(["dump-paths"], capsys)
        assert code == EXIT_USAGE

    def test_format_flag_is_gone(self, capsys):
        # output is always JSON (dump-paths: CSV); there is no format switch
        assert run(["identities", "--format", "csv"], capsys)[0] == EXIT_USAGE
        assert not hasattr(ExperimentConfig("identities"), "fmt")

    def test_unreadable_config_file(self, capsys, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        code, _, err = run(["identities", "--config", str(bad)], capsys)
        assert code == EXIT_USAGE


# flag -> (ExperimentConfig field, a non-default argument, the value it sets);
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
        assert getattr(ExperimentConfig(sub), field) != value
        cfg = resolve_config(build_parser().parse_args([sub, flag, arg]))
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
        # a float flag's value may be written as an integer, as --T 2 is
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"T": 2, "kind": "hitting", "a": -2}))
        cfg = resolve_config(build_parser().parse_args(["bdg", "--config", str(cfg_file)]))
        assert (cfg.T, cfg.kind, cfg.a) == (2, "hitting", -2)


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

    def test_env_seed_between_file_and_flag(self, tmp_path, monkeypatch):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"seed": 11}))
        monkeypatch.setenv("LENGLART_SEED", "99")
        parser = build_parser()
        cfg = resolve_config(parser.parse_args(["sharpness", "--config", str(f)]))
        assert cfg.seed == 99
        cfg = resolve_config(
            parser.parse_args(["sharpness", "--config", str(f), "--seed", "5"])
        )
        assert cfg.seed == 5


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
        # auto: the default for p = 0.3 is the plain mean
        assert methods == [{"name": "plain", "blocks": 1},
                           {"name": "median_of_means", "blocks": 11}]

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_verify_extremal_pair_meets_oracle(self, capsys, tmp_path, p):
        # the extremal checks run on the importance-weighted samplers, so the
        # lhs estimates E[(sup X)^p] = n/(1-p) within its own interval
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
        exact = full_extremal_sup_moment(p, n)
        assert abs(lhs["value"] - exact) < 3.0 * lhs["halfwidth"], (lhs, exact)

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

    def test_verify_bad_entry(self, capsys, tmp_path):
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({"generator": {"kind": "levy"}, "p": 0.5}) + "\n")
        code, _, err = run(["verify", "--suite", str(suite)], capsys)
        assert code == EXIT_USAGE

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
        ]
        out_file = tmp_path / "r.json"
        for argv in commands:
            payloads = []
            for threads in (1, 2):
                out_file.unlink(missing_ok=True)
                code, _, _ = run(argv + ["--threads", str(threads), "--output",
                                         str(out_file)], capsys)
                assert code in (EXIT_PASS, EXIT_STAT_FAIL)
                payload = load_json_output(out_file)
                del payload["timestamp"]
                del payload["config"]["threads"]
                payloads.append(payload)
            assert payloads[0] == payloads[1], argv[0]

    def test_rerun_identical(self, capsys, tmp_path):
        results = []
        for name in ("a.json", "b.json"):
            out_file = tmp_path / name
            run(["identities", "--law", "exp", "--p", "0.4",
                 "--output", str(out_file)], capsys)
            payload = load_json_output(out_file)
            results.append(payload["result"])
        assert results[0] == results[1]


# the headline subcommands at their defaults, then dump-paths; prints the exit
# codes and the scipy modules loaded
HEADLINE_RUNS = """
import contextlib, io, os, sys, tempfile
from lenglart.cli import build_parser, main
build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([sub]) for sub in ("sharpness", "monotone-sharpness")]
    with tempfile.TemporaryDirectory() as tmp:
        codes.append(main(["dump-paths", "--output", os.path.join(tmp, "paths.csv")]))
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


class TestImportCost:
    def test_headline_runs_load_no_scipy(self):
        # in a fresh interpreter: pytest's filterwarnings setting names a
        # scipy warning class, so scipy is already loaded in this process
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", HEADLINE_RUNS], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[0, 0, 0] []", done.stdout


class TestExperimentConfig:
    def test_resolved_method(self):
        cfg = ExperimentConfig(subcommand="sharpness", p=0.5, method="auto")
        assert cfg.resolved_method().name == "median_of_means"
        cfg = ExperimentConfig(subcommand="sharpness", p=0.3, method="auto")
        assert cfg.resolved_method().name == "plain"
        cfg = ExperimentConfig(subcommand="sharpness", method="mom", blocks=11)
        assert cfg.resolved_method().blocks == 11
