"""CLI behavior: precedence, exit codes, output formats, determinism."""

import json
import warnings

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
        out_file = tmp_path / "paths.csv"
        code, out, _ = run(
            ["dump-paths", "--kind", "exp", "--p", "0.5", "--n", "4", "--seed", "2",
             "--output", str(out_file)],
            capsys,
        )
        assert code == EXIT_PASS
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "t,x,g"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 64 * 4 + 1 and f"wrote {len(rows)} points" in out
        t, x, g = zip(*rows)
        assert t[0] == 0.0 and t[-1] == pytest.approx(4.0)
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
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a path before checking the point cap")

        monkeypatch.setattr(cli, "discrete_path_batch", no_draws)
        out_file = tmp_path / "paths.csv"
        code, _, err = run(
            ["dump-paths", "--kind", "discrete", "--p", "0.5", "--n", "40",
             "--level-N", "10", "--output", str(out_file)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "10000" in err or "points" in err


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


class TestExperimentConfig:
    def test_resolved_method(self):
        cfg = ExperimentConfig(subcommand="sharpness", p=0.5, method="auto")
        assert cfg.resolved_method().name == "median_of_means"
        cfg = ExperimentConfig(subcommand="sharpness", p=0.3, method="auto")
        assert cfg.resolved_method().name == "plain"
        cfg = ExperimentConfig(subcommand="sharpness", method="mom", blocks=11)
        assert cfg.resolved_method().blocks == 11
