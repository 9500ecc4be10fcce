"""Metamorphic relations every landmark method must satisfy.

Each relation changes a seeded problem in a way whose effect on the
answer is known exactly, solves both problems, and compares. The
relations hold for every method in `METHODS`, on one trial and on K
trials at once:

- world rigid motion: rotating the anchors by beta, shifting them, and
  adding beta to every bearing moves the landmark estimates (and the
  fitted pose) by exactly that motion;
- relabelling: permuting the anchors and the landmarks, together with
  their measurement pairs, permutes the estimates to match and leaves
  the fitted pose unchanged;
- scale: multiplying the room, the body, the wall clearance and sigma by
  s leaves every seeded draw the same up to roundoff, so a sweep's
  mse_t and crlb_t scale by s^2 and its mse_Q and crlb_Q do not move.

`smds_full` followed by `estimate_pose` also equals its one-step complex
form (`test_smds_full_pose_is_the_one_step_form`), and the paper's minor
holds bit for bit: the SMDS estimates read only the anchor-target block,
so replacing every AA and TT distance and angle leaves `smds_full`
unchanged, and replacing every AA and TT angle leaves every method
unchanged (`test_estimates_read_only_the_anchor_target_block`).

Only roundoff separates the two solves, so the tolerances, fixed before
any run, are tiny: 1e-10 of the room size for positions, 1e-10 for
rotation matrix entries, and 1e-9 relative for the scaled sweep metrics.
"""

from dataclasses import replace

import numpy as np
import pytest

from rigidloc.edges import build_pair_index
from rigidloc.geometry import SceneConfig, random_scene
from rigidloc.harness import ExperimentConfig, run_experiment
from rigidloc.measurements import (Measurements, NoiseConfig, generate_measurements,
                                   wrap_angle, zeta_to_rho)
from rigidloc.procrustes import estimate_pose
from rigidloc.solvers import METHODS, SolverConfig, solve_landmarks

CONFIGS = (SceneConfig(), SceneConfig(n_anchors=6, n_landmarks=5))
NOISE = NoiseConfig(sigma=0.5, rho=zeta_to_rho(np.deg2rad(8.0)), tt_noisy=True)
TRIALS = 6
# positions agree to this fraction of the room size, rotations to this
# absolute amount
POSITION_TOL = 1e-10
ROTATION_TOL = 1e-10
# relative gap allowed between the scaled sweep metrics
SCALE_RTOL = 1e-9


def problems(config, seed):
    """Seeded measurements of one scene, and of a batch of TRIALS scenes."""
    one = generate_measurements(random_scene(config, seed), NOISE, seed)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
            for k in range(TRIALS)]
    return one, generate_measurements(random_scene(config, rngs), NOISE, rngs)


def with_edges(meas, distances, angles):
    """Measurements shaped like `meas`, one trial or K, with new (K, P) pair data."""
    index = build_pair_index(meas.index.n_anchors, meas.index.n_targets)
    return Measurements(index, distances.reshape(meas.distances.shape),
                        angles.reshape(meas.angles.shape))


def solve(meas, anchors, points, method):
    """(K, N) complex estimates and the (K, 2, 2) and (K, 2) poses fitted to them.

    `points` is the (2, N) body shape."""
    est = solve_landmarks(meas, anchors, config=SolverConfig(method))
    assert not np.any(est.status)
    pose = estimate_pose(est.coordinates, points[0] + 1j * points[1])
    n = points.shape[1]
    return (est.coordinates.reshape(-1, n), pose.rotation.matrix.reshape(-1, 2, 2),
            pose.translation.reshape(-1, 2))


def rows(meas):
    return np.atleast_2d(meas.distances), np.atleast_2d(meas.angles)


@pytest.mark.parametrize("config", CONFIGS, ids=("8x8", "6x5"))
@pytest.mark.parametrize("method", METHODS)
def test_world_rigid_motion_moves_the_estimates(config, method):
    scale = max(config.room_width, config.room_height)
    anchors = config.anchors.positions
    points = config.conformation.points
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        beta = rng.uniform(-np.pi, np.pi)
        rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
        shift = rng.uniform(-20.0, 20.0, size=2)
        for meas in problems(config, seed):
            distances, angles = rows(meas)
            moved = with_edges(meas, distances, wrap_angle(angles + beta))
            x, q, t = solve(meas, anchors, points, method)
            x2, q2, t2 = solve(moved, rot @ anchors + shift[:, None], points, method)
            moved_x = np.exp(1j * beta) * x + (shift[0] + 1j * shift[1])
            assert np.max(np.abs(x2 - moved_x)) < POSITION_TOL * scale
            assert np.max(np.abs(q2 - rot @ q)) < ROTATION_TOL
            assert np.max(np.abs(t2 - (t @ rot.T + shift))) < POSITION_TOL * scale


@pytest.mark.parametrize("config", CONFIGS, ids=("8x8", "6x5"))
def test_estimates_read_only_the_anchor_target_block(config):
    anchors = config.anchors.positions

    def coordinates(meas, method):
        return solve_landmarks(meas, anchors, config=SolverConfig(method)).coordinates

    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        for meas in problems(config, seed):
            distances, angles = rows(meas)
            other = np.ones(meas.index.n_pairs, dtype=bool)
            other[meas.index.at] = False
            size = (len(angles), np.count_nonzero(other))
            new_distances, new_angles = distances.copy(), angles.copy()
            new_distances[:, other] = rng.uniform(0.5, 20.0, size)
            new_angles[:, other] = rng.uniform(-np.pi, np.pi, size)
            turned = with_edges(meas, distances, new_angles)
            for method in METHODS:
                assert np.array_equal(coordinates(turned, method), coordinates(meas, method))
            both = with_edges(meas, new_distances, new_angles)
            assert np.array_equal(coordinates(both, "smds_full"), coordinates(meas, "smds_full"))


def relabelled_pairs(index, node_of):
    """Old pair of each new pair, and whether its direction reverses.

    New node i stands for old node `node_of[i]`. A pair (i, j), i < j,
    whose old nodes come in the other order measures the reversed edge.
    """
    position = {pair: p for p, pair in enumerate(index.pairs())}
    old_i, old_j = node_of[index.first], node_of[index.second]
    pairs = [position[(min(a, b), max(a, b))] for a, b in zip(old_i, old_j)]
    return np.array(pairs), old_i > old_j


@pytest.mark.parametrize("config", CONFIGS, ids=("8x8", "6x5"))
@pytest.mark.parametrize("method", METHODS)
def test_relabelling_permutes_the_estimates(config, method):
    scale = max(config.room_width, config.room_height)
    anchors = config.anchors.positions
    points = config.conformation.points
    m, n = anchors.shape[1], points.shape[1]
    index = build_pair_index(m, n)
    for seed in range(3):
        rng = np.random.default_rng(200 + seed)
        perm_a, perm_t = rng.permutation(m), rng.permutation(n)
        pairs, reversed_ = relabelled_pairs(index, np.concatenate([perm_a, m + perm_t]))
        for meas in problems(config, seed):
            distances, angles = rows(meas)
            angles = angles[:, pairs] + np.where(reversed_, np.pi, 0.0)
            relabelled = with_edges(meas, distances[:, pairs], wrap_angle(angles))
            x, q, t = solve(meas, anchors, points, method)
            x2, q2, t2 = solve(relabelled, anchors[:, perm_a], points[:, perm_t], method)
            assert np.max(np.abs(x2 - x[:, perm_t])) < POSITION_TOL * scale
            assert np.max(np.abs(q2 - q)) < ROTATION_TOL
            assert np.max(np.abs(t2 - t)) < POSITION_TOL * scale


def scaled(config, s):
    """`config` with the room, the body, the wall clearance and sigma times s."""
    scene = config.scene
    return replace(config, sigma_grid=tuple(s * g for g in config.sigma_grid),
                   scene=replace(scene, room_width=s * scene.room_width,
                                 room_height=s * scene.room_height,
                                 body_radius=s * scene.body_radius,
                                 wall_clearance=s * scene.wall_clearance))


@pytest.mark.parametrize("s", [1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12])
def test_scale_leaves_the_sweep_unchanged(s):
    # the default scene, with its body radius given so that it can scale
    config = ExperimentConfig(scene=SceneConfig(body_radius=1.0), sigma_grid=(0.1, 0.5, 2.0),
                              trials=60, methods=METHODS, master_seed=3)
    base = run_experiment(config)
    rows = run_experiment(scaled(config, s))
    assert len(rows) == len(base) == 3 * len(METHODS)
    for r, b in zip(rows, base):
        assert (r.method, r.conv_rate) == (b.method, b.conv_rate) == (b.method, 1.0)
        assert r.sigma == pytest.approx(s * b.sigma, rel=1e-15)
        got = (r.mse_t / s ** 2, r.mse_q, r.crlb_t / s ** 2, r.crlb_q)
        want = (b.mse_t, b.mse_q, b.crlb_t, b.crlb_q)
        assert np.all(np.isfinite(want))
        assert got == pytest.approx(want, rel=SCALE_RTOL, abs=0.0)


def test_smds_full_pose_is_the_one_step_form():
    # a body whose centroid is not its frame's origin, so t is not the
    # landmark centroid
    body = np.array([[0.0, 1.5, -0.5, 2.0, 0.7], [0.0, 0.2, 1.0, 1.3, -0.8]]) + [[2.0], [-1.0]]
    config = SceneConfig(n_anchors=6, body_points=body, wall_clearance=0.5)
    scale = max(config.room_width, config.room_height)
    rngs = [np.random.default_rng(np.random.SeedSequence(41, spawn_key=(k,)))
            for k in range(50)]
    scene = random_scene(config, rngs)
    meas = generate_measurements(scene, NOISE, rngs)
    est = solve_landmarks(meas, scene.anchors, scene.conformation, SolverConfig("smds_full"))
    pose = estimate_pose(est.coordinates, scene.conformation)

    index = meas.index
    a = scene.anchors.positions[0] + 1j * scene.anchors.positions[1]
    c = body[0] + 1j * body[1]
    z = (meas.distances[:, index.at] * np.exp(1j * meas.angles[:, index.at])).reshape(
        -1, index.n_anchors, index.n_targets)
    x = a.mean() + z.mean(axis=1)
    x_bar = x.mean(axis=1, keepdims=True)
    q = np.sum(np.conj(c - c.mean()) * (x - x_bar), axis=1)
    q /= np.abs(q)
    t = x_bar[:, 0] - q * c.mean()

    assert np.max(np.abs(est.coordinates - x)) < POSITION_TOL * scale
    rotation = np.stack([np.stack([q.real, -q.imag], -1), np.stack([q.imag, q.real], -1)], 1)
    assert np.max(np.abs(pose.rotation.matrix - rotation)) < ROTATION_TOL
    assert np.max(np.abs(pose.translation[:, 0] + 1j * pose.translation[:, 1] - t)) \
        < POSITION_TOL * scale
