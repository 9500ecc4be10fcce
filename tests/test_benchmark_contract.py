"""The benchmark's oracle and spans, run against the program in the tier-1 suite.

`benchmark/oracle.py` rebuilds single trials through the public functions
and reads attributes of what they return: a scene's anchors, body and
true pose, the measured distances and angles, the landmark coordinates
and the fitted pose. `test_public_surface.py` pins the names it reads;
this test runs it, so that a change to those types that would break the
benchmark fails here too. `benchmark/spans.py` times the layer functions
under the names each module looks them up by; a per-layer metric of
`BENCHMARK.json` whose span no sweep records would fail the benchmark's
self-test, so a sweep runs under its recorder here too. Nothing under
`benchmark/` is edited.
"""

import importlib
import json
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


def test_every_timed_per_layer_metric_has_its_span(benchmark_modules, tmp_path):
    _, workloads = benchmark_modules
    spans = importlib.import_module("spans")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {metric["name"].rsplit(".", 1)[0] for metric in spec["per_layer"]
              if metric["name"].endswith((".us_p50", ".calls_per_trial"))}
    base = rl.load_scenario(ROOT / workloads.SCENARIO)
    config = workloads.experiment(base, "sweep_default", seed=7, tiny=True)
    assert config.trials == 2 and config.workers == 1
    recorder = spans.Recorder(rl, str(tmp_path))
    recorder.install()
    try:
        rl.run_experiment(config)
    finally:
        recorder.uninstall()
    recorded = {name for name, durations in recorder.durations.items() if durations}
    assert "procrustes.fit_alignment" in wanted and "solvers.smds_full" in wanted
    assert wanted <= recorded, f"no span for {sorted(wanted - recorded)}"
    # solvers.smds_full.iterations_mean reads the solver's iterations_used
    assert recorder.iterations
