"""A seeded sweep over the edges of the model.

Every trial must end in a finite estimate and pose, a nonzero batch
status, or a typed error. A NaN estimate or pose with status 0 fails,
and so does any other exception, such as numpy's `LinAlgError` or a
`ValueError` from deep inside a solver.
"""

import numpy as np
import pytest

import rigidloc.harness as harness
from rigidloc.crlb import compute_fim
from rigidloc.errors import (ConfigurationError, DegenerateGeometryError,
                             NumericalFailureError)
from rigidloc.geometry import SceneConfig, random_scene
from rigidloc.harness import DEFAULT_RHO, ExperimentConfig
from rigidloc.measurements import NoiseConfig, generate_measurements
from rigidloc.procrustes import estimate_pose
from rigidloc.solvers import METHODS, SolverConfig, solve_landmarks

TYPED = (ConfigurationError, DegenerateGeometryError, NumericalFailureError)
LARGE = SceneConfig(n_anchors=48, n_landmarks=48)
# four anchors along the floor, bowed by 5e-6 m: their centred second
# singular value is 1e-6 of their 5 m extent, above the 1e-9 collinearity
# tolerance of a point set
THIN = SceneConfig(anchor_positions=((0.0, 10.0 / 3.0, 20.0 / 3.0, 10.0), (0.0, 5e-6, 5e-6, 0.0)))

REGIMES = {
    "thin_anchors": dict(scene=THIN, sigma_grid=(0.5,)),
    "d_over_sigma_near_1": dict(sigma_grid=(5.0, 20.0)),
    "uniform_bearings": dict(sigma_grid=(0.5,), rho=0.0),
    "weak_bearings": dict(sigma_grid=(0.5,), rho=1e-3),
    "three_point_body": dict(scene=SceneConfig(n_landmarks=3), sigma_grid=(2.0,)),
    "three_anchors": dict(scene=SceneConfig(n_anchors=3), sigma_grid=(2.0,)),
    "tt_noisy": dict(sigma_grid=(5.0,), tt_noisy=True),
    # 96 nodes, where the iterative embedding hands trials to eigh
    "large_handoff": dict(scene=LARGE, sigma_grid=(4.0, 6.0), trials=8),
}


def assert_finite_or_flagged(scene, meas, what):
    for method in METHODS:
        try:
            est = solve_landmarks(meas, scene.anchors, scene.conformation, SolverConfig(method))
            with np.errstate(invalid="ignore"):  # failed trials carry NaN
                pose = estimate_pose(est.coordinates, scene.conformation)
        except TYPED:
            continue
        finite = (np.isfinite(est.coordinates).all(axis=-1)
                  & np.isfinite(pose.translation).all(axis=-1)
                  & np.isfinite(pose.rotation.matrix).all(axis=(-2, -1)))
        bad = np.flatnonzero(~finite & (np.asarray(est.status) == 0))
        assert bad.size == 0, f"{what}, {method}: trials {bad.tolist()} NaN with status 0"


@pytest.mark.parametrize("name", REGIMES)
def test_every_trial_ends_finite_or_flagged(name):
    config = ExperimentConfig(**{"trials": 50, "master_seed": 71, **REGIMES[name]})
    try:
        scene, noise, meas = harness.trial_inputs(config, 0, len(config.sigma_grid) * config.trials)
        bounds = compute_fim(scene, noise)
    except TYPED:
        return
    assert not np.isnan(bounds.crlb_t).any() and not np.isnan(bounds.crlb_q).any()
    assert_finite_or_flagged(scene, meas, name)


@pytest.mark.parametrize("sigma", [0.5, 6.0])
def test_one_trial_calls_at_96_nodes_end_finite_or_typed(sigma):
    config = ExperimentConfig(scene=LARGE, sigma_grid=(sigma,), trials=8, master_seed=72)
    for k, rng in enumerate(harness.trial_streams(config, [(0, k) for k in range(8)])):
        try:
            scene = random_scene(LARGE, rng)
            meas = generate_measurements(scene, NoiseConfig(sigma=sigma, rho=DEFAULT_RHO), rng)
        except TYPED:
            continue
        assert_finite_or_flagged(scene, meas, f"sigma {sigma}, trial {k}")
