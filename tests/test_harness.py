import csv
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import rigidloc
import rigidloc.errors as errors
import rigidloc.harness as harness
import rigidloc.measurements as measurements
import rigidloc.solvers as solvers
from rigidloc.crlb import compute_fim
from rigidloc.errors import ConfigurationError
from rigidloc.geometry import SceneConfig
from rigidloc.harness import (CSV_HEADER, DEFAULT_RHO, ExperimentConfig, ResultRow,
                              format_results, reference_scene, run_experiment,
                              write_results)
from rigidloc.measurements import NoiseConfig, zeta_to_rho
from rigidloc.solvers import METHODS


def small_config(**kw):
    base = dict(sigma_grid=(0.3, 0.8), trials=40, methods=("smds_full", "mds"),
                master_seed=777)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(sigma_grid=())
    with pytest.raises(ConfigurationError):
        ExperimentConfig(sigma_grid=(0.5, -0.1))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(methods=("smds_full", "bogus"))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(workers=0)
    # fractional counts and seeds, negative seeds and repeated methods
    # fail here, not deep inside the sweep
    for bad in (dict(trials=2.5), dict(workers=1.5), dict(master_seed=-1),
                dict(master_seed=1.5), dict(trials=True),
                dict(methods=("mds", "mds"))):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**bad)
    # a string or a number is no grid, and flags are booleans, not truthy values
    for grid in ("0.5", 0.5, ("0.5",), (True,)):
        with pytest.raises(ConfigurationError, match="sigma grid"):
            ExperimentConfig(sigma_grid=grid)
    # the same rule as NoiseConfig: each sigma has a finite square
    assert ExperimentConfig(sigma_grid=(1.34e154,)).sigma_grid == (1.34e154,)
    for grid in ((1e155,), (0.5, 1.35e154)):
        with pytest.raises(ConfigurationError, match="finite square"):
            ExperimentConfig(sigma_grid=grid)
    for bad in (dict(tt_noisy="false"), dict(fixed_pose="no"), dict(fixed_pose=1),
                dict(tt_noisy=None)):
        with pytest.raises(ConfigurationError, match="true or false"):
            ExperimentConfig(**bad)
    assert ExperimentConfig(sigma_grid=np.array([0.5, 1.0]), fixed_pose=np.True_).fixed_pose
    assert ExperimentConfig(trials=np.int64(3), master_seed=0).trials == 3
    # bearing noise is checked when the config is built, not per trial
    # strings and bools are not numbers, even where they would convert
    for rho in (None, np.inf, -1.0, np.nan, "1", True, False):
        with pytest.raises(ConfigurationError, match="rho"):
            ExperimentConfig(rho=rho)
    assert ExperimentConfig(rho=np.float32(2.0)).resolve_rho() == 2.0
    assert ExperimentConfig(rho=0.0).resolve_rho() == 0.0
    assert zeta_to_rho(0.9 * np.pi) == 0.0
    # rho is the one bearing field: a half-width is converted where it
    # enters, so a config can no longer hold a zeta that disagrees with rho
    with pytest.raises(TypeError):
        ExperimentConfig(zeta_theta=0.5)


def test_default_rho_is_the_eight_degree_half_width():
    assert DEFAULT_RHO == zeta_to_rho(np.deg2rad(8.0))
    assert ExperimentConfig().rho == DEFAULT_RHO


def test_row_layout_and_rmse():
    cfg = small_config()
    rows = run_experiment(cfg)
    assert len(rows) == len(cfg.sigma_grid) * len(cfg.methods)
    # grid-major grouping, methods in configured order within each point
    expected = [(s, m) for s in cfg.sigma_grid for m in cfg.methods]
    assert [(r.sigma, r.method) for r in rows] == expected
    for r in rows:
        assert r.rmse_t == pytest.approx(np.sqrt(r.mse_t), rel=1e-12)
        assert 0.0 <= r.conv_rate <= 1.0
        assert r.trials == cfg.trials


def test_near_exact_measurements_give_tiny_errors():
    cfg = ExperimentConfig(sigma_grid=(1e-6,), rho=1e12, trials=50,
                           methods=("smds_full",), master_seed=5)
    rows = run_experiment(cfg)
    assert rows[0].conv_rate == 1.0
    assert rows[0].rmse_t < 1e-4


def test_rerun_is_bit_identical():
    cfg = small_config()
    text1 = format_results(run_experiment(cfg))
    text2 = format_results(run_experiment(cfg))
    assert text1 == text2


def test_worker_count_does_not_change_results():
    # 3 x 7 trials in two chunks, cut at trial 10, inside grid point 1
    config = small_config(sigma_grid=(0.3, 0.6, 1.2), trials=7)
    text1 = format_results(run_experiment(replace(config, workers=1)))
    text2 = format_results(run_experiment(replace(config, workers=2)))
    assert text1 == text2


def test_one_process_pool_per_run(monkeypatch):
    import concurrent.futures
    opened = []
    mapped = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            mapped.append(len(args[1]))  # map(fn, configs, starts, stops)
            return super().map(*args, **kwargs)

    # run_experiment imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    run_experiment(small_config(sigma_grid=(0.2, 0.5, 1.0), trials=6, workers=2))
    # one map over the whole sweep: two chunks of 9 trials, one per worker
    assert opened == [2] and mapped == [2]
    run_experiment(small_config(trials=6, workers=1))
    assert opened == [2] and mapped == [2]


def test_one_embedding_per_trial(monkeypatch):
    calls = []
    real = solvers._embed

    def counting(dmats):
        calls.extend(dmat.shape for dmat in dmats)
        return real(dmats)

    monkeypatch.setattr(solvers, "_embed", counting)
    run_experiment(small_config(sigma_grid=(0.2, 0.7), trials=5, methods=METHODS))
    # one eigendecomposition of one (T, T) matrix per trial, shared by
    # mds and smds_distance_only
    assert calls == [(16, 16)] * (2 * 5)
    calls.clear()
    run_experiment(small_config(sigma_grid=(0.2, 0.7), trials=5, methods=("smds_full",)))
    assert calls == []


def test_bearing_scalars_computed_once(monkeypatch):
    solves = []
    real = measurements._bisect

    def counting(f, lo, hi):
        solves.append((lo, hi))
        return real(f, lo, hi)

    monkeypatch.setattr(measurements, "_bisect", counting)
    # a zeta no other test uses, so building the config has to solve for
    # it, once; the runs only read rho
    cfg = small_config(rho=zeta_to_rho(0.1234567), trials=5)
    assert len(solves) == 1
    misses = measurements.bessel_ratio.cache_info().misses
    first = format_results(run_experiment(cfg))
    assert len(solves) == 1
    assert measurements.bessel_ratio.cache_info().misses == misses + 1
    assert format_results(run_experiment(cfg)) == first
    assert len(solves) == 1
    assert measurements.bessel_ratio.cache_info().misses == misses + 1


def test_kept_trial_errors_reproduce_aggregates():
    rows = run_experiment(small_config(), keep_trial_errors=True)
    for r in rows:
        assert r.trial_err_t.shape == (r.trials,)
        ok = r.trial_ok
        assert r.conv_rate == pytest.approx(ok.mean())
        assert r.mse_t == pytest.approx(np.mean(r.trial_err_t[ok]), rel=1e-12)
        assert r.mse_q == pytest.approx(np.mean(r.trial_err_q[ok]), rel=1e-12)


def test_trial_arrays_absent_by_default():
    rows = run_experiment(small_config())
    assert rows[0].trial_err_t is None and rows[0].trial_ok is None


def test_error_grows_with_sigma():
    cfg = ExperimentConfig(sigma_grid=(0.2, 1.0), trials=300,
                           methods=("smds_full",), master_seed=2024)
    rows = run_experiment(cfg)
    assert rows[1].rmse_t > rows[0].rmse_t
    assert rows[1].mse_q > rows[0].mse_q


def test_fixed_pose_uses_reference_scene_bound():
    cfg = small_config(fixed_pose=True, trials=7, sigma_grid=(0.5,))
    rows = run_experiment(cfg)
    noise = NoiseConfig(sigma=0.5, rho=cfg.resolve_rho())
    expected = compute_fim(reference_scene(cfg), noise)
    for r in rows:
        assert r.crlb_t == pytest.approx(expected.crlb_t, rel=1e-12)
        assert r.crlb_q == pytest.approx(expected.crlb_q, rel=1e-12)


def test_reference_scene_deterministic():
    cfg = small_config()
    s1, s2 = reference_scene(cfg), reference_scene(cfg)
    assert np.array_equal(s1.landmarks, s2.landmarks)
    other = reference_scene(small_config(master_seed=778))
    assert not np.array_equal(s1.landmarks, other.landmarks)


@pytest.mark.parametrize("master_seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 3,
                                         2**130 + 5, np.int64(12345), 2**96, 2**128 - 1,
                                         2**128, 2**192 + 1])
def test_trial_streams_are_the_seed_sequence_streams(master_seed):
    # 2**128 - 1 fills the 4-word pool exactly; 2**128 and 2**130 + 5 have
    # five entropy words and 2**192 + 1 seven, more than the pool holds
    pairs = np.random.default_rng(28).integers(0, 2**32, (16, 2)).tolist()
    keys = [(0, 0), (2**32 - 1, 2**32 - 1), *map(tuple, pairs)]
    triples = [(0, 0, 0), (1, 2, 3), (2**32 - 1, 0, 7)]
    config = small_config(master_seed=master_seed)
    for key_set in (keys, triples, [(harness._SCENE_STREAM_KEY,)]):
        for key, got in zip(key_set, harness.trial_streams(config, key_set), strict=True):
            want = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))
            assert got.bit_generator.state == want.bit_generator.state, key
            assert np.array_equal(got.random(4), want.random(4))
            assert got.standard_gamma(2.5) == want.standard_gamma(2.5)


@pytest.mark.parametrize("key", [(-1, 0), (0, 2**32), (2**40, 3), (0, 2**63), (2**64, 0)])
def test_trial_streams_reject_words_beyond_32_bits(key):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        harness.trial_streams(small_config(), [(0, 0), key])


@pytest.mark.parametrize("start, stop", [(3, 3), (5, 2), (0, 81), (-1, 4), (0.0, 1.0),
                                         (True, 2)])
def test_trial_inputs_rejects_ranges_outside_the_sweep(start, stop):
    # the sweep holds 2 x 40 trials, numbered by integers only
    with pytest.raises(ValueError, match=rf"trials \[{start}, {stop}\) .* \[0, 80\)"):
        harness.trial_inputs(small_config(), start, stop)


@pytest.mark.parametrize("fixed_pose", [False, True])
@pytest.mark.parametrize("tt_noisy", [False, True])
def test_one_trial_is_rebuilt_from_its_index(tt_noisy, fixed_pose):
    # trials [4, 15) span all three grid points; each must draw what it
    # draws alone, as trial_inputs(config, i, i + 1)
    config = small_config(sigma_grid=(0.2, 0.7, 1.6), trials=6, tt_noisy=tt_noisy,
                          fixed_pose=fixed_pose)
    scene, noise, meas = harness.trial_inputs(config, 4, 15)
    assert meas.distances.shape[0] == 11
    if fixed_pose:  # one shared scene, the reference scene
        assert np.array_equal(scene.landmarks, reference_scene(config).landmarks)
    for row, i in enumerate(range(4, 15)):
        one, one_noise, one_meas = harness.trial_inputs(config, i, i + 1)
        assert one_noise.sigma == (noise.sigma[row],) == (config.sigma_grid[i // 6],)
        lead, at = (..., ...) if fixed_pose else (0, row)
        for got, want in ((one.landmarks[lead], scene.landmarks[at]),
                          (one.pose.rotation.matrix[lead], scene.pose.rotation.matrix[at]),
                          (one.pose.translation[lead], scene.pose.translation[at]),
                          (one_meas.distances[0], meas.distances[row]),
                          (one_meas.angles[0], meas.angles[row])):
            assert np.array_equal(got, want, equal_nan=True)


def test_write_results_roundtrip(tmp_path):
    rows = run_experiment(small_config(trials=10))
    path = tmp_path / "out.csv"
    write_results(rows, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    for rec, row in zip(parsed, rows):
        assert rec["method"] == row.method
        assert float(rec["sigma"]) == pytest.approx(row.sigma, rel=1e-8)
        assert float(rec["mse_t"]) == pytest.approx(row.mse_t, rel=1e-8)
        assert float(rec["crlb_Q"]) == pytest.approx(row.crlb_q, rel=1e-8)
        assert int(rec["trials"]) == row.trials


def test_write_results_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_results([], tmp_path / "empty.csv")


def warned_methods(caplog):
    """Methods named by the harness's mostly-failed warnings."""
    return {r.args[0] for r in caplog.records
            if r.name == harness.log.name and r.levelname == "WARNING"}


def test_failed_trials_are_excluded(monkeypatch, caplog):
    real = harness.solve_landmarks

    def flaky(meas, anchors, conformation, cfg):
        est = real(meas, anchors, conformation, cfg)
        if cfg.method == "mds":
            # a synthetic NumericalFailureError in every trial of the batch
            est = replace(est, status=np.full_like(est.status, errors.NOT_FINITE))
        return est

    monkeypatch.setattr(harness, "solve_landmarks", flaky)
    with caplog.at_level("WARNING", logger=harness.log.name):
        rows = run_experiment(small_config(sigma_grid=(0.4,), trials=12))
    by_method = {r.method: r for r in rows}
    assert by_method["mds"].conv_rate == 0.0
    assert np.isnan(by_method["mds"].mse_t)
    assert "mds" in warned_methods(caplog)
    assert by_method["smds_full"].conv_rate == 1.0
    assert "smds_full" not in warned_methods(caplog)


def test_mostly_failing_method_flagged(monkeypatch, caplog):
    real = harness.solve_landmarks
    calls = {"n": 0}

    def flaky(meas, anchors, conformation, cfg):
        est = real(meas, anchors, conformation, cfg)
        if cfg.method == "mds":
            status = est.status.copy()
            for k in range(len(status)):
                calls["n"] += 1
                if calls["n"] % 5 != 0:
                    status[k] = errors.NOT_FINITE  # synthetic failure
            est = replace(est, status=status)
        return est

    monkeypatch.setattr(harness, "solve_landmarks", flaky)
    with caplog.at_level("WARNING", logger=harness.log.name):
        rows = run_experiment(small_config(sigma_grid=(0.4,), trials=20))
    row = {r.method: r for r in rows}["mds"]
    assert row.conv_rate == pytest.approx(0.2)
    assert warned_methods(caplog) == {"mds"}
    assert np.isfinite(row.mse_t)


def test_format_results_matches_header():
    rows = run_experiment(small_config(trials=5))
    text = format_results(rows)
    first = text.splitlines()[0]
    assert first == "method,sigma,mse_t,rmse_t,mse_Q,conv_rate,crlb_t,crlb_Q,trials"
    assert text.endswith("\n")


def test_runs_without_scipy():
    # scipy is a test-only dependency: with every scipy import made to
    # fail, the package imports and a whole default sweep still runs
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        import rigidloc as rl
        rows = rl.run_experiment(rl.ExperimentConfig(trials=2))
        assert len(rows) == 24 and all(np.isfinite(r.crlb_t) for r in rows)
        scene = rl.random_scene(rl.SceneConfig(), seed=3)
        noise = rl.NoiseConfig(sigma=[0.2, 0.5], rho=rl.zeta_to_rho(np.deg2rad(8.0)))
        curve = rl.compute_fim(scene, noise)
        assert curve.crlb_t[0] < curve.crlb_t[1]
        assert 0.0 < rl.rho_to_zeta(100.0) < rl.rho_to_zeta(10.0)
        assert not [m for m in sys.modules if m.startswith("scipy.")]
        print("ok")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rigidloc.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_one_worker_run_loads_no_process_pool():
    # the process pool's modules load only when a run asks for workers
    script = textwrap.dedent("""
        import sys
        import rigidloc as rl
        rl.run_experiment(rl.ExperimentConfig(trials=2, workers=1))
        pool = [m for m in sys.modules
                if m.startswith(("concurrent.futures", "multiprocessing"))]
        assert not pool, pool
        print("ok")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rigidloc.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
