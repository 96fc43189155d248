"""The experiment scripts run end to end on tiny budgets, so an API change
that breaks one of them fails here rather than on its next manual run."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(("script", "args", "row"), [
    ("sharpness_sweep.py", ["--p", "0.5", "--n", "2", "--samples", "40000"], " 0.50    2 "),
    ("bdg_ladder.py", ["--q", "1.0", "--samples", "2000", "--step", "0.05"], " 1.00 "),
    ("estimator_dispersion.py", ["--replicates", "2", "--samples", "2000"], "median of means:"),
    ("fit_validation_beta.py", ["--paths", "2000", "--check-paths", "2000", "--steps", "1", "5"],
     "    (2.00, "),
], ids=["sharpness_sweep", "bdg_ladder", "estimator_dispersion", "fit_validation_beta"])
def test_script_runs(script, args, row, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script] + args)
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    out = capsys.readouterr().out
    assert row in out, out
    assert "nan" not in out and "inf" not in out, out
