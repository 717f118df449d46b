import numpy as np
import pytest

from krylov.core import LinearOperator
from krylov.errors import KrylovError
from krylov.experiments import (
    ExperimentConfig,
    list_experiments,
    run_experiment,
)


@pytest.mark.parametrize("name", list_experiments())
def test_experiment_passes_with_defaults(name, tmp_path):
    report = run_experiment(
        ExperimentConfig(experiment=name, out_dir=str(tmp_path))
    )
    assert report.assertions, "experiment must assert something"
    failed = [a.name for a in report.assertions if not a.passed]
    assert report.passed, f"failed assertions: {failed}"
    assert report.csv_path is not None


# Operator applications per default run: every Lanczos prefix and dense
# oracle is formed once.  slq-wasserstein reads its degrees 8 and 16 off
# each probe's 32-step run (8 x 32), and fa-optimality forms the dense
# operator once for both its target and the optimal baseline (100 + 40).
# 1208 in all.
OPERATOR_CALLS = {
    "cg-bounds": 180,
    "fa-formulas": 124,
    "fa-optimality": 140,
    "fp-lanczos": 80,
    "indefinite": 160,
    "kpm-density": 98,
    "moment-stability": 80,
    "nearby-problem": 90,
    "slq-wasserstein": 256,
}


def test_default_operator_call_budget(monkeypatch):
    apply = LinearOperator.apply
    calls = [0]

    def counted(self, v):
        calls[0] += 1
        return apply(self, v)

    monkeypatch.setattr(LinearOperator, "apply", counted)
    got = {}
    for name in list_experiments():
        calls[0] = 0
        run_experiment(ExperimentConfig(experiment=name))
        got[name] = calls[0]
    assert got == OPERATOR_CALLS


def test_unknown_experiment_raises():
    with pytest.raises(KrylovError):
        run_experiment(ExperimentConfig(experiment="nope"))


def test_config_hash_stable_under_out_dir(tmp_path):
    a = ExperimentConfig(experiment="cg-bounds", out_dir=None)
    b = ExperimentConfig(experiment="cg-bounds", out_dir=str(tmp_path))
    assert a.config_hash() == b.config_hash()


def test_config_hash_changes_with_parameters():
    a = ExperimentConfig(experiment="cg-bounds", seed=0)
    b = ExperimentConfig(experiment="cg-bounds", seed=1)
    assert a.config_hash() != b.config_hash()


def test_csv_values_fixed_precision(tmp_path):
    report = run_experiment(
        ExperimentConfig(experiment="fp-lanczos", out_dir=str(tmp_path))
    )
    with open(report.csv_path) as fh:
        lines = [l for l in fh.read().split("\n") if l and not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert header == "experiment,figure_ref,series,k,value"
    for row in rows:
        parts = row.split(",")
        assert len(parts) == 5
        float(parts[4])  # value column parses
        int(parts[3])  # step column parses
