"""The benchmark's oracle, run against the program in the tier-1 suite.

`benchmark/oracle.py` rebuilds single trials through the public functions
and reads attributes of what they return: a scene's anchors, body and
true pose, the measured distances and angles, the landmark coordinates
and the fitted pose. `test_public_surface.py` pins the names it reads;
this test runs it, so that a change to those types that would break the
benchmark fails here too. Nothing under `benchmark/` is edited.
"""

import importlib
import pathlib

import pytest

import rigidloc as rl

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def benchmark_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    return importlib.import_module("oracle"), importlib.import_module("workloads")


def test_oracle_accepts_a_two_trial_default_sweep(benchmark_modules):
    oracle, workloads = benchmark_modules
    base = rl.load_scenario(ROOT / workloads.SCENARIO)
    config = workloads.experiment(base, "sweep_default", seed=7, tiny=True)
    assert config.trials == 2
    assert oracle.noiseless_recovery(rl, config)
    rows = rl.run_experiment(config, keep_trial_errors=True)
    n_trials = config.trials * len(config.sigma_grid)
    ok, compared, worst = oracle.oracle_check(rl, config, rows, seed=7, n_trials=n_trials)
    # every trial succeeds, and each compares a translation and a rotation error
    assert ok and compared == 2 * n_trials * len(config.methods)
    assert worst <= oracle.RTOL
