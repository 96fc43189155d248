"""Golden outputs: the stable JSON of fixed CLI invocations and verifier API
reports must equal, field for field, the corpus recorded in golden/, at one
thread and at two where the call takes a thread count.

The stable JSON of a CLI run drops its timestamp and thread count, and for
verify the path of the temporary suite file; a dump-paths entry is the CSV
text it writes. Budgets of 3 * CHUNK + 5 samples (CHUNK + 5 for the stepped
BDG hitting runs) cross chunk boundaries, so a change to any sampler, to
the chunk streams or to the reductions shows here. A change that alters
outputs on purpose re-records the corpus and says which entries changed
and why:

    PYTHONPATH=src python tests/test_golden.py

Before it writes a corpus file, the recorder prints every entry whose value
changed, with each differing leaf and its old and new values, the keys added
and removed, and the count of entries left unchanged.
"""

import contextlib
import io
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

import pytest

from lenglart.cli import main
from lenglart.extremal import ExtremalParams
from lenglart.montecarlo import CHUNK
from lenglart.verifier import (
    CompensatedBernoulliGenerator,
    DiscreteExtremalGenerator,
    ExtremalGenerator,
    HatXGenerator,
    HittingRule,
    JumpLaw,
    PowerF,
    check_pratelli,
    domination_audit,
)

CORPUS = Path(__file__).with_name("golden") / "cli.json"
API_CORPUS = Path(__file__).with_name("golden") / "api.json"
SAMPLES = 3 * CHUNK + 5
INVOCATIONS = [f"{sub} --p {p} --n {n} --samples {SAMPLES} --seed 0"
               for sub in ("sharpness", "monotone-sharpness")
               for p in (0.25, 0.5, 0.75)
               for n in (10, 40)]
# the stepped hitting runs take one chunk and five paths, which still crosses
# a chunk boundary
INVOCATIONS += [f"bdg --kind fixed --q 1.0 --samples {SAMPLES} --step 0.02 --seed 0",
                f"bdg --kind hitting --q 1.0 --samples {CHUNK + 5} --step 0.02 --seed 0",
                f"bdg --kind hitting --q 1.0 --samples {CHUNK + 5} --step 0.02 --a -0.5 "
                "--seed 0"]
INVOCATIONS += [f"identities --law {law}" for law in ("uniform", "exp", "point", "pareto")]
# dump-paths takes no thread count; its corpus entry is the CSV text
DUMPS = [f"dump-paths --kind {kind} --p 0.5 --n 10 --level-N 4 --seed 0"
         for kind in ("exp", "discrete")]

# the verify suite entries of the benchmark's verify-suite workload, at
# SAMPLES samples each; the corpus key is "verify <name>"
SUITE = {
    "extremal:p=0.25:n=10":
        {"generator": {"kind": "extremal", "p": 0.25, "n": 10}, "p": 0.25,
         "constant": "lenglart"},
    "extremal:p=0.5:n=10":
        {"generator": {"kind": "extremal", "p": 0.5, "n": 10}, "p": 0.5,
         "constant": "lenglart"},
    "discrete_extremal:p=0.5:n=10:N=4":
        {"generator": {"kind": "discrete_extremal", "p": 0.5, "n": 10, "level_N": 4},
         "p": 0.5, "constant": "lenglart"},
    "bernoulli:q=0.3:steps=12":
        {"generator": {"kind": "compensated_bernoulli", "jump": "bernoulli", "q": 0.3,
                       "steps": 12}, "p": 0.5, "constant": "monotone"},
    "exp-jumps:steps=20":
        {"generator": {"kind": "compensated_bernoulli", "jump": "exp", "steps": 20},
         "p": 0.5, "constant": "monotone"},
    "extremal:p=0.01:n=10":
        {"generator": {"kind": "extremal", "p": 0.01, "n": 10}, "p": 0.01,
         "constant": "lenglart"},
    "hatx_of:discrete_extremal:x>=3":
        {"generator": {"kind": "hatx_of",
                       "inner": {"kind": "discrete_extremal", "p": 0.5, "n": 5, "level_N": 4},
                       "rule": {"side": "x", "level": 3.0}},
         "p": 0.5, "constant": "monotone"},
    "hatx_of:bernoulli:k=6":
        {"generator": {"kind": "hatx_of",
                       "inner": {"kind": "compensated_bernoulli", "jump": "bernoulli",
                                 "q": 0.3, "steps": 12},
                       "rule": {"k": 6}},
         "p": 0.5, "constant": "monotone"},
}

API_GENERATORS = {
    "extremal:p=0.5:n=10": ExtremalGenerator(ExtremalParams(p=0.5, n=10)),
    "bernoulli:q=0.3:steps=12":
        CompensatedBernoulliGenerator(jump=JumpLaw("bernoulli", q=0.3), steps=12),
}
API_CALLS = {
    f"{call} {name}": partial(make, gen, n_samples=SAMPLES, seed=0)
    for name, gen in API_GENERATORS.items()
    for call, make in (("domination_audit", domination_audit),
                       ("check_pratelli", partial(check_pratelli, F=PowerF(0.5), c=0.5)))
}
# c = 3 stops g / 3 in the Pratelli check; the discrete pair and a freeze
# that stops its walk where g reaches 2 are audited on their own paths
API_CALLS.update({
    f"check_pratelli:c=3 {name}": partial(check_pratelli, gen, PowerF(0.5), 3.0,
                                          n_samples=SAMPLES, seed=0)
    for name, gen in API_GENERATORS.items()
})
API_CALLS.update({
    f"domination_audit {name}": partial(domination_audit, gen, n_samples=SAMPLES, seed=0)
    for name, gen in (
        ("discrete_extremal:p=0.5:n=10:N=4",
         DiscreteExtremalGenerator(ExtremalParams(p=0.5, n=10), level_N=4)),
        ("hatx_of:bernoulli:g>=2",
         HatXGenerator(API_GENERATORS["bernoulli:q=0.3:steps=12"], HittingRule("g", 2.0))),
    )
})


def stable_json(argv: str, threads: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv.split() + ["--threads", str(threads)])
    # the JSON comes after verify's per-check lines and before a summary line
    text = out.getvalue()
    payload, _ = json.JSONDecoder().raw_decode(text, text.index("{"))
    del payload["timestamp"]
    del payload["config"]["threads"]
    return payload


def stable_verify_json(name: str, threads: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        suite = Path(tmp) / "suite.jsonl"
        suite.write_text(json.dumps({**SUITE[name], "n_samples": SAMPLES}) + "\n")
        payload = stable_json(f"verify --suite {suite}", threads)
    del payload["config"]["config_path"]
    return payload


def dump_csv(argv: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "paths.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv.split() + ["--output", str(path)])
        return path.read_text()


def api_json(key: str) -> dict:
    # through JSON text, as the corpus holds it
    return json.loads(json.dumps(API_CALLS[key]().to_json()))


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def api_corpus():
    return json.loads(API_CORPUS.read_text())


def test_corpus_holds_every_invocation(corpus, api_corpus):
    keys = INVOCATIONS + DUMPS + [f"verify {name}" for name in SUITE]
    assert sorted(corpus) == sorted(keys)
    assert sorted(api_corpus) == sorted(API_CALLS)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("argv", INVOCATIONS)
def test_output_matches_corpus(corpus, argv, threads):
    assert stable_json(argv, threads) == corpus[argv]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", SUITE)
def test_verify_matches_corpus(corpus, name, threads):
    assert stable_verify_json(name, threads) == corpus[f"verify {name}"]


@pytest.mark.parametrize("argv", DUMPS)
def test_dump_matches_corpus(corpus, argv):
    assert dump_csv(argv) == corpus[argv]


@pytest.mark.parametrize("key", API_CALLS)
def test_api_report_matches_corpus(api_corpus, key):
    assert api_json(key) == api_corpus[key]


_ABSENT = "<absent>"


def _leaf_changes(old, new, path: str = "") -> list:
    """(path, old, new) for every leaf where two JSON values differ, the
    path's parts joined by dots (entries.3.diff); a key on one side only
    reads as <absent> on the other, and lists of unequal length differ as
    one leaf."""
    def at(part) -> str:
        return f"{path}.{part}" if path else str(part)

    if isinstance(old, dict) and isinstance(new, dict):
        return [change for key in sorted(old.keys() | new.keys())
                for change in _leaf_changes(old.get(key, _ABSENT), new.get(key, _ABSENT), at(key))]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [change for i, (a, b) in enumerate(zip(old, new))
                for change in _leaf_changes(a, b, at(i))]
    return [] if old == new else [(path, old, new)]


def _report_changes(path: Path, records: dict) -> None:
    """Print how records differ from the corpus at path: each changed entry
    with its differing leaves, the added and removed keys, and the count of
    entries left unchanged."""
    old = json.loads(path.read_text()) if path.exists() else {}
    unchanged = 0
    for key in sorted(old.keys() & records.keys()):
        changes = _leaf_changes(old[key], records[key])
        unchanged += not changes
        if changes:
            print(f"{path.name}: changed {key!r}")
            for leaf, a, b in changes:
                print(f"  {leaf or '(whole entry)'}: {a!r} -> {b!r}")
    for key in sorted(records.keys() - old.keys()):
        print(f"{path.name}: added {key!r}")
    for key in sorted(old.keys() - records.keys()):
        print(f"{path.name}: removed {key!r}")
    print(f"{path.name}: {unchanged} entries unchanged")


def _record(path: Path, records: dict) -> None:
    _report_changes(path, records)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} entries to {path}")


if __name__ == "__main__":
    runs = {argv: partial(stable_json, argv) for argv in INVOCATIONS}
    runs.update({f"verify {name}": partial(stable_verify_json, name) for name in SUITE})
    records = {}
    for key, run in runs.items():
        records[key] = run(1)
        if run(2) != records[key]:
            sys.exit(f"{key}: the output at two threads differs from one thread")
    records.update({argv: dump_csv(argv) for argv in DUMPS})
    _record(CORPUS, records)
    _record(API_CORPUS, {key: api_json(key) for key in API_CALLS})
