"""The batch harness against the per-trial functions, trial by trial.

`harness._trial_chunk` runs a span of a sweep's trials, numbered
i = g * trials + k across the grid, as one batch on stacked arrays;
`trial_reference.trial_block` runs a grid point's trials one at a time
through `random_scene`, `generate_measurements`, `compute_fim`,
`solve_landmarks` and `estimate_pose`. Both draw trial k of grid point g
from its own (master_seed, g, k) stream, and every batch step applies
the per-trial arithmetic row by row, so the two must agree bit for bit.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rigidloc.errors as errors
import rigidloc.geometry as geometry
import rigidloc.harness as harness
import rigidloc.measurements as measurements
import rigidloc.solvers as solvers
from rigidloc.crlb import compute_fim
from rigidloc.errors import ConfigurationError, DegenerateGeometryError
from rigidloc.geometry import SceneConfig, random_scene
from rigidloc.harness import ExperimentConfig
from rigidloc.measurements import Measurements, NoiseConfig, generate_measurements
from rigidloc.procrustes import estimate_pose, fit_alignment
from rigidloc.solvers import METHODS, SolverConfig, solve_landmarks

from trial_reference import trial_block

NAMES = ("err_t", "err_q", "ok", "crlb_t", "crlb_q")


def assert_bitwise(got, want):
    for name, a, b in zip(NAMES, got, want):
        assert a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name


def reference(config, start, stop):
    """Flat trials [start, stop) run one at a time, grid point by grid point."""
    blocks = []
    for g, sigma in enumerate(config.sigma_grid):
        a, b = max(start - g * config.trials, 0), min(stop - g * config.trials, config.trials)
        if a < b:
            blocks.append(trial_block(config, g, sigma, config.resolve_rho(), a, b))
    return tuple(np.concatenate([blk[i] for blk in blocks], axis=-1) for i in range(5))


def check(config, g=0, start=0, stop=None):
    """Trials [start, stop) of grid point g, against the per-trial loop."""
    stop = config.trials if stop is None else stop
    first = g * config.trials
    got = harness._trial_chunk(config, first + start, first + stop)
    assert_bitwise(got, reference(config, first + start, first + stop))
    return got


@pytest.mark.parametrize("g", range(3))
def test_batch_matches_per_trial_default_scene(g):
    got = check(ExperimentConfig(sigma_grid=(0.1, 0.6, 2.0), trials=40, master_seed=11), g)
    assert got[2].all()


def test_batch_matches_per_trial_large_scene():
    scene = SceneConfig(n_anchors=48, n_landmarks=48)
    check(ExperimentConfig(scene=scene, sigma_grid=(0.1, 2.0), trials=3, master_seed=12), 1)


def test_batch_matches_per_trial_three_point_body():
    check(ExperimentConfig(scene=SceneConfig(n_landmarks=3), sigma_grid=(0.5,),
                           trials=30, master_seed=13))
    body = np.array([[0.0, 1.5, -0.5], [0.0, 0.2, 1.0]])
    check(ExperimentConfig(scene=SceneConfig(n_anchors=5, body_points=body),
                           sigma_grid=(0.3,), trials=30, master_seed=14))


@pytest.mark.parametrize("fixed_pose", [False, True])
@pytest.mark.parametrize("tt_noisy", [False, True])
def test_batch_matches_per_trial_noise_and_pose_modes(tt_noisy, fixed_pose):
    check(ExperimentConfig(sigma_grid=(0.4,), trials=25, master_seed=15,
                           tt_noisy=tt_noisy, fixed_pose=fixed_pose))


SPANNING = {
    "default": ExperimentConfig(sigma_grid=(0.2, 0.7, 1.6), trials=10, master_seed=22),
    "tt_noisy": ExperimentConfig(sigma_grid=(0.2, 0.7, 1.6), trials=10, master_seed=23,
                                 tt_noisy=True),
    "fixed_pose": ExperimentConfig(sigma_grid=(0.2, 0.7, 1.6), trials=10, master_seed=24,
                                   fixed_pose=True),
    "48x48": ExperimentConfig(scene=SceneConfig(n_anchors=48, n_landmarks=48),
                              sigma_grid=(0.1, 0.5, 2.0), trials=4, master_seed=25),
}


@pytest.mark.parametrize("name", SPANNING)
def test_batch_spanning_grid_points_matches_per_trial(name):
    config = SPANNING[name]
    k = config.trials
    # trials [K - 3, K + 5): the end of grid point 0 and what follows it
    got = harness._trial_chunk(config, k - 3, k + 5)
    assert_bitwise(got, reference(config, k - 3, k + 5))
    # each trial keeps its own sigma's bound
    assert len(set(got[3].tolist())) >= 2


@pytest.mark.parametrize("rho", [0.0, 3.0, 1e6])
def test_batch_matches_per_trial_bearing_extremes(rho):
    check(ExperimentConfig(sigma_grid=(0.3,), rho=rho, trials=20, master_seed=16))


@pytest.mark.parametrize("methods", [("smds_distance_only",), ("smds_full", "mds"),
                                     ("mds", "smds_full"), METHODS[::-1],
                                     ("smds_distance_only", "smds_full")])
def test_batch_matches_per_trial_method_subsets(methods):
    base = ExperimentConfig(sigma_grid=(0.8,), trials=20, master_seed=17)
    got = check(replace(base, methods=methods))
    # a method's results do not depend on which other methods ran
    for j, method in enumerate(methods):
        alone = harness._trial_chunk(replace(base, methods=(method,)), 0, 20)
        for i in range(3):
            assert np.array_equal(got[i][j], alone[i][0], equal_nan=True)


def test_batch_matches_per_trial_on_any_span():
    config = ExperimentConfig(sigma_grid=(0.25,), trials=37, master_seed=18)
    whole = check(config)
    for cuts in ([0, 1, 37], [0, 5, 6, 20, 37], [0, 36, 37]):
        parts = [check(config, 0, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        assert_bitwise(tuple(np.concatenate([p[i] for p in parts], axis=-1)
                             for i in range(5)), whole)
    assert_bitwise(harness._trial_chunk(config, 7, 19),
                   tuple(a[..., 7:19] for a in whole))


def test_chunk_size_does_not_change_results(monkeypatch):
    large = SceneConfig(n_anchors=48, n_landmarks=48)
    cases = [
        # chunks of 1, 4 and 7 trials; the 7 chunks of 6 or 7 trials cut the
        # 2 x 23 trials at 19 and 26, so one spans both grid points
        (ExperimentConfig(sigma_grid=(0.5, 1.5), trials=23, master_seed=19, tt_noisy=True),
         (1, 8 * 16 * 16 * 4, 8 * 16 * 16 * 7)),
        # 96 nodes take the iterative embedding: chunks of 1, 2 and 3 trials
        # mix trials that stop after different numbers of steps or fall
        # back to eigh (sigma = 4), so each trial's result must not depend
        # on when the others in its chunk stop
        (ExperimentConfig(scene=large, sigma_grid=(0.5, 2.0, 4.0), trials=4, master_seed=26),
         (8 * 96 * 96, 8 * 96 * 96 * 2, 8 * 96 * 96 * 3)),
    ]
    default = harness._CHUNK_BYTES
    for config, budgets in cases:
        monkeypatch.setattr(harness, "_CHUNK_BYTES", default)

        def sweep():
            rows = harness.run_experiment(config, keep_trial_errors=True)
            return harness.format_results(rows), [
                (r.trial_err_t, r.trial_err_q, r.trial_ok) for r in rows]

        text, trials = sweep()  # the default chunk size
        for chunk_bytes in budgets:
            monkeypatch.setattr(harness, "_CHUNK_BYTES", chunk_bytes)
            got_text, got_trials = sweep()
            assert got_text == text
            for got, want in zip(got_trials, trials, strict=True):
                for a, b in zip(got, want):
                    assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def test_chunks_bound_the_work_arrays():
    assert harness._chunk_size(16) * 8 * 16 * 16 <= harness._CHUNK_BYTES
    assert harness._chunk_size(96) * 8 * 96 * 96 <= harness._CHUNK_BYTES
    assert harness._chunk_size(96) >= 4  # the 48x48 grid points stay one batch
    assert harness._chunk_size(10_000) == 1


@pytest.mark.parametrize("config", [
    ExperimentConfig(sigma_grid=(0.5, 2.0), master_seed=27),
    # the sigma = 6 trials go to eigh
    ExperimentConfig(scene=SceneConfig(n_anchors=48, n_landmarks=48),
                     sigma_grid=(0.5, 2.0, 6.0), master_seed=27),
], ids=["16-nodes", "96-nodes"])
def test_a_full_chunk_stays_within_four_budgets(monkeypatch, config):
    # the (chunk, T, T) Gram stack is what `_CHUNK_BYTES` counts; every other
    # array a chunk holds at once, from the draws to the FIM's gradient
    # stacks and the certificate's matrices, must stay within a small
    # multiple of it, so that the budget bounds a chunk's memory
    t = config.scene.anchors.n_anchors + config.scene.conformation.n_points
    size = harness._chunk_size(t)
    config = replace(config, trials=-(-size // len(config.sigma_grid)))
    fallback, real = [], solvers._eigh_pairs

    def spy(b):
        fallback.append(len(b))
        return real(b)

    monkeypatch.setattr(solvers, "_eigh_pairs", spy)
    harness._trial_chunk(config, 0, size)  # fills the caches of one-time values
    fallback.clear()
    tracemalloc.start()
    try:
        harness._trial_chunk(config, 0, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * harness._CHUNK_BYTES
    # some trials, not all, take the eigh path
    assert 0 < sum(fallback) < size


REAL_DRAW = geometry._draw_pose


def landing_on_anchor(monkeypatch, first_bad: int):
    """Make the first `first_bad` pose draws of every stream put landmark 0
    on anchor 0, after consuming the stream's uniforms as usual."""
    drawn = {}
    keep = []  # holds the generators, so their ids stay unique

    def draw(rng, box):
        pose = REAL_DRAW(rng, box)
        drawn[id(rng)] = count = drawn.get(id(rng), 0) + 1
        keep.append(rng)
        # the polygon's vertex 0 sits at (1, 0) from its centre, anchor 0 at the origin
        return (0.0, -1.0, 0.0) if count <= first_bad else pose

    monkeypatch.setattr(geometry, "_draw_pose", draw)


def streams(config, n):
    return [np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(0, k)))
            for k in range(n)]


def test_degenerate_placements_are_redrawn_from_the_trial_stream(monkeypatch):
    config = ExperimentConfig(sigma_grid=(0.5,), trials=6, master_seed=20)
    box = (4.0, 6.0, 4.0, 6.0)  # centroid range of the default room and body
    third = [[REAL_DRAW(rng, box) for _ in range(3)][2] for rng in streams(config, 6)]
    landing_on_anchor(monkeypatch, 2)
    bodies = geometry.random_scene(config.scene, streams(config, 6))
    # each trial keeps its stream's third draw, the first that fits
    assert np.array_equal(bodies.pose.rotation.matrix,
                          geometry.Rotation.from_angle([a for a, _, _ in third]).matrix)
    assert np.allclose(bodies.landmarks.mean(axis=1), [x + 1j * y for _, x, y in third])
    assert check(config)[2].all()


def test_placement_gives_up_after_100_draws(monkeypatch):
    config = ExperimentConfig(sigma_grid=(0.5,), trials=3, master_seed=21)
    landing_on_anchor(monkeypatch, 99)
    check(config)
    landing_on_anchor(monkeypatch, 100)
    with pytest.raises(ConfigurationError, match="after 100 attempts"):
        harness._trial_chunk(config, 0, 3)
    with pytest.raises(ConfigurationError, match="after 100 attempts"):
        trial_block(config, 0, 0.5, config.resolve_rho(), 0, 3)


def test_public_functions_run_a_batch_as_its_trials():
    config = SceneConfig()
    noise = NoiseConfig(sigma=0.6, rho=30.0, tt_noisy=True)
    scenes = random_scene(config, [np.random.default_rng(k) for k in range(5)])
    assert scenes.landmarks.shape == (5, 8) and scenes.pose.translation.shape == (5, 2)
    rngs = [np.random.default_rng(k) for k in range(5)]
    assert np.array_equal(scenes.landmarks, random_scene(config, rngs).landmarks)
    meas = generate_measurements(scenes, noise, rngs)
    fim = compute_fim(scenes, noise)
    solved = {m: solve_landmarks(meas, scenes.anchors, scenes.conformation, SolverConfig(m))
              for m in METHODS}
    poses = {m: estimate_pose(est.coordinates, scenes.conformation)
             for m, est in solved.items()}
    for k in range(5):
        rng = np.random.default_rng(k)
        scene = random_scene(config, rng)
        assert np.array_equal(scenes.landmarks[k], scene.landmarks)
        assert np.array_equal(scenes.pose.rotation.matrix[k], scene.pose.rotation.matrix)
        assert np.array_equal(scenes.pose.translation[k], scene.pose.translation)
        assert scenes.pose.rotation.angle[k] == scene.pose.rotation.angle
        one = generate_measurements(scene, noise, rng)
        assert np.array_equal(meas.distances[k], one.distances)
        assert np.array_equal(meas.angles[k], one.angles, equal_nan=True)
        one_fim = compute_fim(scene, noise)
        assert np.array_equal(fim.matrix[k], one_fim.matrix)
        assert (fim.crlb_t[k], fim.crlb_q[k]) == (one_fim.crlb_t, one_fim.crlb_q)
        for m in METHODS:
            est = solve_landmarks(one, scene.anchors, scene.conformation, SolverConfig(m))
            assert solved[m].status[k] == 0
            assert np.array_equal(solved[m].coordinates[k], est.coordinates)
            pose = estimate_pose(est.coordinates, scene.conformation)
            assert np.array_equal(poses[m].rotation.matrix[k], pose.rotation.matrix)
            assert np.array_equal(poses[m].translation[k], pose.translation)


def test_batches_report_failed_trials_instead_of_raising():
    scene = random_scene(SceneConfig(), seed=3)
    one = generate_measurements(scene, NoiseConfig(sigma=0.3, rho=50.0), 4)
    # trial 1 has all distances 1e-300, whose squares underflow to zero:
    # no planar embedding
    distances = np.stack([one.distances, np.full_like(one.distances, 1e-300)])
    batch = Measurements(one.index, distances, np.stack([one.angles, one.angles]))
    est = solve_landmarks(batch, scene.anchors, scene.conformation, SolverConfig("mds"))
    assert list(est.status) == [0, errors.NO_EMBEDDING]
    assert np.array_equal(est.coordinates[0],
                          solve_landmarks(one, scene.anchors, scene.conformation,
                                          SolverConfig("mds")).coordinates)
    # one set raises what the batch reports: distances whose squares
    # underflow to zero admit no planar embedding either
    with pytest.raises(DegenerateGeometryError):
        solve_landmarks(replace(one, distances=np.full_like(one.distances, 1e-300)),
                        scene.anchors, scene.conformation, SolverConfig("mds"))

    # a pose fit onto coincident landmarks has no orientation
    landmarks = np.stack([scene.landmarks, np.ones_like(scene.landmarks)])
    pose = estimate_pose(landmarks, scene.conformation)
    assert np.allclose(pose.rotation.matrix[0], scene.pose.rotation.matrix)
    assert np.isnan(pose.rotation.matrix[1]).all() and np.isnan(pose.translation[1]).all()
    with pytest.raises(DegenerateGeometryError):
        estimate_pose(landmarks[1], scene.conformation)
    q, shift, _ = fit_alignment(landmarks, scene.landmarks, allow_reflection=True)
    assert np.isfinite(q[0]) and np.isfinite(shift[0])
    for part in (q[1].real, q[1].imag, shift[1].real, shift[1].imag):
        assert np.isnan(part)
    with pytest.raises(DegenerateGeometryError):
        fit_alignment(landmarks[1], scene.landmarks, allow_reflection=True)


def test_sweep_calls_the_public_layer_functions(monkeypatch):
    # the per-layer spans of benchmark/spans.py wrap these names where
    # they are looked up, so the sweep must keep calling them there
    calls = {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name == "solve_landmarks":
                assert args[3].method in METHODS  # the solver config, positionally
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("random_scene", "generate_measurements", "compute_fim",
                 "solve_landmarks", "estimate_pose"):
        counting(harness, name)
    counting(solvers, "fit_alignment")
    counting(measurements, "build_pair_index")
    harness.run_experiment(ExperimentConfig(sigma_grid=(0.3, 0.9), trials=4))
    # both grid points run as one chunk, so each function runs once per
    # sweep, or once per method
    assert calls == {"random_scene": 1, "generate_measurements": 1, "compute_fim": 1,
                     "solve_landmarks": 3, "estimate_pose": 3, "fit_alignment": 2,
                     "build_pair_index": 1}


def test_generate_measurements_checks_the_generator_list():
    rngs = [np.random.default_rng(k) for k in range(3)]
    scenes = random_scene(SceneConfig(), rngs)
    noise = NoiseConfig(sigma=0.3, rho=50.0)
    # too few, too many, one bare Generator, none
    for bad in (rngs[:2], rngs + [np.random.default_rng(9)], rngs[0], []):
        with pytest.raises(ValueError, match="generators"):
            generate_measurements(scenes, noise, bad)
    # one scene, as a fixed pose, takes any number of trials
    fixed = random_scene(SceneConfig(), seed=1)
    for n in (1, 3):
        assert generate_measurements(fixed, noise, rngs[:n]).distances.shape == (n, 120)
        assert generate_measurements(fixed, noise, tuple(rngs[:n])).distances.shape == (n, 120)
    with pytest.raises(ValueError, match="generators"):
        generate_measurements(fixed, noise, [])


def test_random_scene_rejects_an_empty_generator_list():
    for empty in ([], ()):
        with pytest.raises(ValueError, match="at least one generator"):
            random_scene(SceneConfig(), empty)


def test_random_scene_rejects_a_list_mixing_generators_and_seeds():
    for mixed in ([np.random.default_rng(1), 2], (np.random.default_rng(1), 2)):
        with pytest.raises(ValueError, match="only numpy Generators"):
            random_scene(SceneConfig(), mixed)


def test_random_scene_takes_a_tuple_of_generators_as_a_list():
    # one rule for K generators, shared with generate_measurements
    def rngs():
        return [np.random.default_rng(k) for k in range(2)]
    from_tuple = random_scene(SceneConfig(), tuple(rngs()))
    from_list = random_scene(SceneConfig(), rngs())
    assert from_tuple.landmarks.shape == (2, 8)
    assert np.array_equal(from_tuple.landmarks, from_list.landmarks)
