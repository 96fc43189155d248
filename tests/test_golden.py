"""Golden outputs: the stable JSON (timestamp and thread count removed) of
fixed CLI invocations must equal, field for field, the corpus recorded in
golden/cli.json, at one thread and at two.

Budgets of 3 * CHUNK + 5 samples cross chunk boundaries, so a change to any
sampler, to the chunk streams or to the reductions shows here. A change
that alters outputs on purpose re-records the corpus and says which entries
changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from lenglart.cli import main
from lenglart.montecarlo import CHUNK

CORPUS = Path(__file__).with_name("golden") / "cli.json"
SAMPLES = 3 * CHUNK + 5
INVOCATIONS = [f"{sub} --p {p} --n {n} --samples {SAMPLES} --seed 0"
               for sub in ("sharpness", "monotone-sharpness")
               for p in (0.25, 0.5, 0.75)
               for n in (10, 40)]


def stable_json(argv: str, threads: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv.split() + ["--threads", str(threads)])
    # the JSON comes first, then a summary line
    payload, _ = json.JSONDecoder().raw_decode(out.getvalue())
    del payload["timestamp"]
    del payload["config"]["threads"]
    return payload


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_holds_every_invocation(corpus):
    assert sorted(corpus) == sorted(INVOCATIONS)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("argv", INVOCATIONS)
def test_output_matches_corpus(corpus, argv, threads):
    assert stable_json(argv, threads) == corpus[argv]


if __name__ == "__main__":
    records = {}
    for argv in INVOCATIONS:
        records[argv] = stable_json(argv, 1)
        if stable_json(argv, 2) != records[argv]:
            sys.exit(f"{argv}: the output at two threads differs from one thread")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} entries to {CORPUS}")
