"""Metamorphic relations every landmark method must satisfy.

Each relation changes a seeded problem in a way whose effect on the
answer is known exactly, solves both problems, and compares. The
relations hold for every method in `METHODS`, on one measurement set and
on a batch of trials:

- world rigid motion: rotating the anchors by beta, shifting them, and
  adding beta to every bearing moves the landmark estimates (and the
  fitted pose) by exactly that motion;
- relabelling: permuting the anchors and the landmarks, together with
  their measurement pairs, permutes the estimates to match and leaves
  the fitted pose unchanged.

Only roundoff separates the two solves, so the tolerances, fixed before
any run, are tiny: 1e-10 of the room size for positions, 1e-10 for
rotation matrix entries.
"""

import numpy as np
import pytest

from rigidloc.edges import build_pair_index
from rigidloc.geometry import SceneConfig, random_scene
from rigidloc.measurements import (MeasurementBatch, MeasurementSet, NoiseConfig,
                                   generate_measurements, wrap_angle)
from rigidloc.procrustes import estimate_pose
from rigidloc.solvers import METHODS, SolverConfig, solve_landmarks

CONFIGS = (SceneConfig(), SceneConfig(n_anchors=6, n_landmarks=5))
NOISE = NoiseConfig(sigma=0.5, zeta_theta=np.deg2rad(8.0), tt_noisy=True)
TRIALS = 6
# positions agree to this fraction of the room size, rotations to this
# absolute amount
POSITION_TOL = 1e-10
ROTATION_TOL = 1e-10


def problems(config, seed):
    """Seeded measurements of one scene, and of a batch of TRIALS scenes."""
    one = generate_measurements(random_scene(config, seed), NOISE, seed)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
            for k in range(TRIALS)]
    return one, generate_measurements(random_scene(config, rngs), NOISE, rngs)


def with_edges(meas, distances, angles):
    """A measurement of the same kind as `meas` with new (K, P) pair data."""
    index = build_pair_index(meas.index.n_anchors, meas.index.n_targets)
    if isinstance(meas, MeasurementBatch):
        return MeasurementBatch(index, distances, angles)
    return MeasurementSet(index, distances[0], angles[0])


def solve(meas, anchors, points, method):
    """(K, 2, N) estimates and the (K, 2, 2) and (K, 2) poses fitted to them."""
    est = solve_landmarks(meas, anchors, config=SolverConfig(method))
    pose = estimate_pose(est.coordinates, points)
    if isinstance(meas, MeasurementBatch):
        assert not est.status.any()
        return est.coordinates, pose.rotations, pose.translations
    return est.coordinates[None], pose.rotation.matrix[None], pose.translation[None]


def rows(meas):
    return np.atleast_2d(meas.distances), np.atleast_2d(meas.angles)


@pytest.mark.parametrize("config", CONFIGS, ids=("8x8", "6x5"))
@pytest.mark.parametrize("method", METHODS)
def test_world_rigid_motion_moves_the_estimates(config, method):
    scale = max(config.room_width, config.room_height)
    anchors = config.build_anchors().positions
    points = config.build_conformation().points
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
            assert np.max(np.abs(x2 - (rot @ x + shift[:, None]))) < POSITION_TOL * scale
            assert np.max(np.abs(q2 - rot @ q)) < ROTATION_TOL
            assert np.max(np.abs(t2 - (t @ rot.T + shift))) < POSITION_TOL * scale


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
    anchors = config.build_anchors().positions
    points = config.build_conformation().points
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
            assert np.max(np.abs(x2 - x[:, :, perm_t])) < POSITION_TOL * scale
            assert np.max(np.abs(q2 - q)) < ROTATION_TOL
            assert np.max(np.abs(t2 - t)) < POSITION_TOL * scale
