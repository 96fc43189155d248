"""Op kinds and workloads of the certifier benchmark.

An op is one certification call: a `lenglart.cli.main([...])` run in this
process, or one of the two verifier API calls the CLI does not expose
(`domination_audit`, `check_pratelli`). Every op certifies a theorem, so
PASS is the expected verdict of each one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from lenglart import cli, oracles, verifier
from lenglart.extremal import ExtremalParams


@dataclass
class Outcome:
    """What one op returned: exit code, captured streams and parsed JSON."""

    rc: int
    stdout: str
    stderr: str
    payload: dict | None

    @property
    def result(self) -> dict | None:
        return None if self.payload is None else self.payload.get("result", self.payload)

    @property
    def error(self) -> str:
        """The op's error message; numpy warnings on stderr are left out,
        because Python prints each one only once per process."""
        return "\n".join(ln for ln in self.stderr.splitlines() if ln.startswith("error:"))

    def stable_text(self) -> str:
        """Everything the op wrote, minus the timestamp line."""
        kept = [ln for ln in self.stdout.splitlines() if not ln.startswith('  "timestamp": ')]
        return f"rc={self.rc}\n" + "\n".join(kept) + "\n" + self.error

    def thread_free_text(self) -> str:
        """Like stable_text, with the JSON re-encoded without the timestamp
        and the thread count, the two fields allowed to differ between
        thread counts."""
        if self.payload is None:
            return self.stable_text()
        payload = json.loads(json.dumps(self.payload))
        payload.pop("timestamp", None)
        payload.get("config", {}).pop("threads", None)
        other = [ln for ln in self.stdout.splitlines() if not ln.startswith(("{", " ", "}"))]
        return "\n".join([f"rc={self.rc}", json.dumps(payload, sort_keys=True), *other, self.error])


def _json_block(text: str) -> dict | None:
    """The indented JSON document `lenglart` prints between a "{" line and
    a "}" line; other lines are human-readable summaries."""
    lines = text.splitlines()
    try:
        start = lines.index("{")
        end = lines.index("}", start)
    except ValueError:
        return None
    return json.loads("\n".join(lines[start : end + 1]))


def run_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    return Outcome(rc=rc, stdout=text, stderr=err.getvalue(), payload=_json_block(text))


@dataclass(frozen=True)
class OpKind:
    """One op kind of a workload.

    `call(seed, threads)` runs the op. `intervals(result)` returns the
    (value, half-width) pairs whose first-order relative half-width makes
    the op's width cost. `oracles` pairs a path into the result with a
    function computing the exact value there.
    """

    name: str
    call: Callable[[int, int], Outcome]
    intervals: Callable[[dict], list]
    oracles: tuple = ()
    threaded: bool = True  # False: the call takes no thread count

    def passed(self, outcome: Outcome) -> bool:
        result = outcome.result
        return outcome.rc == 0 and result is not None and result.get("pass") is True


def _est(d: dict) -> tuple[float, float]:
    return float(d["value"]), float(d["halfwidth"])


def _ratio_intervals(result: dict) -> list:
    ratio = result["ratio"]
    return [_est(ratio["numerator"]), _est(ratio["denominator"])]


def _check_intervals(result: dict) -> list:
    check = result["checks"][0] if "checks" in result else result
    return [_est(check["lhs"]), _est(check["rhs"])]


def dig(result: dict, path: str) -> tuple[float, float]:
    node = result
    for key in path.split("."):
        node = node[int(key)] if key.isdigit() else node[key]
    return _est(node)


# -- oracle values ----------------------------------------------------------------

def _full_extremal(p, n):
    return partial(oracles.full_extremal_sup_moment, p, n)


def _xtilde(p, n):
    return partial(oracles.xtilde_sup_moment, p, n)


def _gtilde(p, n):
    return partial(oracles.gtilde_sup_moment, p, n)


def _bernoulli_lhs(q, steps, p):
    return lambda: verifier.enumerate_jump_sup_moments(q, steps, p)[0]


# -- extremal-sharpness ---------------------------------------------------------

SHARPNESS_SAMPLES = 10**6


def _cli_kind(name, argv, intervals, oracles=()):
    def call(seed, threads):
        return run_cli([*argv, "--seed", str(seed), "--threads", str(threads)])

    return OpKind(name, call, intervals, tuple(oracles))


def _no_intervals(result: dict) -> list:
    return []


def extremal_sharpness_kinds() -> list[OpKind]:
    kinds = []
    for sub in ("sharpness", "monotone-sharpness"):
        for p in (0.25, 0.5, 0.75):
            for n in (10, 40):
                num = _full_extremal(p, n) if sub == "sharpness" else _xtilde(p, n)
                kinds.append(_cli_kind(
                    f"{sub}:p={p}:n={n}",
                    [sub, "--p", str(p), "--n", str(n), "--samples", str(SHARPNESS_SAMPLES)],
                    # at n=40 the plain sampler misses the Pareto tail
                    # (criterion 02): the half-width misses the oracle by
                    # tens of half-widths and varies a hundredfold between
                    # seeds, so it is no width to project a cost from
                    _ratio_intervals if n == 10 else _no_intervals,
                    [("ratio.numerator", num), ("ratio.denominator", _gtilde(p, n))],
                ))
    return kinds


# -- bdg-ladder -------------------------------------------------------------------

BDG_SAMPLES = 1 << 16  # two 2^15 chunks, so two threads have work
# 50 coarse and 100 fine steps keep an op near 0.5 s, short enough for the
# reference kernel timed next to it to see the same host speed
BDG_STEP = 0.02


def bdg_kinds() -> list[OpKind]:
    kinds = []
    for q in (0.5, 1.0, 1.5):
        # E[sup_{t<=1}|B_t|] = sqrt(pi/2)
        oracles = [("ratio.denominator", lambda: math.sqrt(math.pi / 2.0))] if q == 1.0 else []
        kinds.append(_cli_kind(
            f"bdg:fixed:q={q}",
            ["bdg", "--kind", "fixed", "--q", str(q), "--samples", str(BDG_SAMPLES),
             "--step", str(BDG_STEP)],
            _ratio_intervals, oracles,
        ))
    return kinds


# -- verify-suite -----------------------------------------------------------------

# (name, suite entry, oracles for lhs and rhs); budgets make every op take
# about 0.2-0.35 s at one thread on the reference machine
VERIFY_ENTRIES = [
    ("extremal:p=0.25:n=10",
     {"generator": {"kind": "extremal", "p": 0.25, "n": 10}, "p": 0.25,
      "constant": "lenglart", "n_samples": 4 * 10**6},
     [("checks.0.lhs", _full_extremal(0.25, 10)), ("checks.0.rhs", _gtilde(0.25, 10))]),
    ("extremal:p=0.5:n=10",
     {"generator": {"kind": "extremal", "p": 0.5, "n": 10}, "p": 0.5,
      "constant": "lenglart", "n_samples": 4 * 10**6},
     [("checks.0.lhs", _full_extremal(0.5, 10)), ("checks.0.rhs", _gtilde(0.5, 10))]),
    ("discrete_extremal:p=0.5:n=10:N=4",
     {"generator": {"kind": "discrete_extremal", "p": 0.5, "n": 10, "level_N": 4},
      "p": 0.5, "constant": "lenglart", "n_samples": 4 * 10**6},
     [("checks.0.lhs", _full_extremal(0.5, 10))]),
    ("bernoulli:q=0.3:steps=12",
     {"generator": {"kind": "compensated_bernoulli", "jump": "bernoulli", "q": 0.3,
                    "steps": 12}, "p": 0.5, "constant": "monotone", "n_samples": 4 * 10**6},
     [("checks.0.lhs", _bernoulli_lhs(0.3, 12, 0.5))]),
    ("exp-jumps:steps=20",
     {"generator": {"kind": "compensated_bernoulli", "jump": "exp", "steps": 20},
      "p": 0.5, "constant": "monotone", "n_samples": 4 * 10**6},
     []),
    # known defect: the verifier's linear-space sampler overflows at p=0.01
    # and the CLI exits 2; it stays in the mix so the fix shows in ok_share
    ("extremal:p=0.01:n=10",
     {"generator": {"kind": "extremal", "p": 0.01, "n": 10}, "p": 0.01,
      "constant": "lenglart", "n_samples": 4 * 10**6},
     [("checks.0.lhs", _full_extremal(0.01, 10))]),
    ("hatx_of:discrete_extremal:x>=3",
     {"generator": {"kind": "hatx_of",
                    "inner": {"kind": "discrete_extremal", "p": 0.5, "n": 5, "level_N": 4},
                    "rule": {"side": "x", "level": 3.0}},
      "p": 0.5, "constant": "monotone", "n_samples": 1 << 17},
     []),
    ("hatx_of:bernoulli:k=6",
     {"generator": {"kind": "hatx_of",
                    "inner": {"kind": "compensated_bernoulli", "jump": "bernoulli",
                              "q": 0.3, "steps": 12},
                    "rule": {"k": 6}},
      "p": 0.5, "constant": "monotone", "n_samples": 10**6},
     []),
]
API_SAMPLES = 1 << 17


def _api_kind(name, make_report, intervals):
    def call(seed, threads):
        payload = make_report(seed).to_json()
        text = json.dumps(payload, indent=2, sort_keys=True)
        return Outcome(rc=0, stdout=text + "\n", stderr="", payload=payload)

    return OpKind(name, call, intervals, threaded=False)


def verify_kinds(workdir: Path) -> list[OpKind]:
    kinds = []
    for name, entry, oracles in VERIFY_ENTRIES:
        suite = workdir / f"verify-{len(kinds)}.jsonl"
        suite.write_text(json.dumps(entry, sort_keys=True) + "\n")
        kinds.append(_cli_kind(f"verify:{name}", ["verify", "--suite", str(suite)],
                               _check_intervals, oracles))

    gen = verifier.ExtremalGenerator(ExtremalParams(p=0.5, n=10))

    # looked up on the module at call time, so that the traced run's
    # wrappers are the ones called
    def audit(seed):
        return verifier.domination_audit(gen, n_samples=API_SAMPLES, seed=seed)

    def pratelli(seed):
        return verifier.check_pratelli(gen, verifier.PowerF(0.5), 0.5,
                                       n_samples=API_SAMPLES, seed=seed)

    kinds.append(_api_kind("api:domination_audit:extremal:p=0.5:n=10", audit, _no_intervals))
    kinds.append(_api_kind("api:check_pratelli:PowerF(0.5):c=0.5", pratelli, _check_intervals))
    return kinds


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    round_s: float  # nominal seconds per round on the reference machine
    make_kinds: Callable[[Path], list[OpKind]] = field(repr=False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("extremal-sharpness", 1, 1.0, lambda wd: extremal_sharpness_kinds()),
        Workload("bdg-ladder", 2, 1.5, lambda wd: bdg_kinds()),
        Workload("verify-suite", 1, 2.0, verify_kinds),
    )
}
