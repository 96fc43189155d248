"""perfbench/tracing.py patches names of the package: each must exist, and
its restore must put every original object back."""

import importlib.util
import sys
from pathlib import Path

from lenglart import bdg, cli, montecarlo, verifier

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, registered while the test runs, as
    its dataclasses need."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def attributes() -> dict:
    """(owner, name) -> object, for every attribute of the traced modules
    and of the verifier's generator classes."""
    owners = [bdg, cli, montecarlo, verifier, verifier.ExtremalGenerator,
              verifier.DiscreteExtremalGenerator, verifier.CompensatedBernoulliGenerator]
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


def test_install_and_restore_leave_every_attribute_as_it_was(monkeypatch):
    tracing = load_tracing(monkeypatch)
    before = attributes()
    restore = tracing.install(tracing.Tracer())
    try:
        patched = {key for key, value in attributes().items() if before.get(key) is not value}
    finally:
        restore()
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    # among the patched names, those the dense reference keeps for the tracer
    assert {("lenglart.verifier", "stopping_indices"),
            ("lenglart.verifier", "exp_pair_path_batch"),
            ("lenglart.verifier", "discrete_path_batch"),
            ("CompensatedBernoulliGenerator", "path_batch")} <= patched
