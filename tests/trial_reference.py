"""Reference copy of the per-trial Monte Carlo loop the batch harness replaces.

`harness._trial_chunk` runs a span of a sweep's trials, which may cross
grid points, as one batch on stacked arrays. This module keeps the loop
it replaced, one trial of one grid point at a time through the public
per-trial functions, so that the tests can pin the batch to those
functions trial by trial. The noisy measurements are
drawn as the per-trial code drew them, slice by slice through the public
`sample_distance` and `sample_angle`, so the batch's draws are pinned to
those samplers rather than to the batch code itself. Only the seeding
is shared: each trial's generator comes from `harness.trial_streams`.
It is test support only; nothing under `src/` imports it.
"""

from __future__ import annotations

import numpy as np

from rigidloc.crlb import compute_fim
from rigidloc.edges import build_pair_index
from rigidloc.errors import DegenerateGeometryError, NumericalFailureError
from rigidloc.geometry import random_scene
from rigidloc.harness import reference_scene, trial_streams
from rigidloc.measurements import (Measurements, NoiseConfig, sample_angle,
                                   sample_distance, wrap_angle)
from rigidloc.procrustes import estimate_pose
from rigidloc.solvers import SolverConfig, solve_landmarks


def generate_measurements(scene, noise, rng):
    """One measurement of every node pair: AT noisy, TT distances noisy if
    asked; no TT bearing is simulated, so the TT angles are NaN."""
    rng = np.random.default_rng(rng)
    index = build_pair_index(scene.n_anchors, scene.n_landmarks)
    x = scene.complex_positions()
    v = x[index.second] - x[index.first]
    if np.any(np.abs(v) == 0.0):
        raise DegenerateGeometryError("scene contains coincident nodes")
    d = np.abs(v)
    theta = wrap_angle(np.angle(v))

    d_out = d.copy()
    th_out = theta.copy()
    th_out[index.tt] = np.nan
    at = index.at
    d_out[at] = sample_distance(d[at], noise.sigma, rng)
    th_out[at] = sample_angle(theta[at], noise.rho, rng)
    if noise.tt_noisy and index.n_tt:
        tt = index.tt
        d_out[tt] = sample_distance(d[tt], noise.sigma, rng)
    return Measurements(index, d_out, th_out)


def trial_block(config, g: int, sigma: float, rho: float, start: int, stop: int):
    """Run trials [start, stop) of grid point g; returns per-trial arrays."""
    noise = NoiseConfig(sigma=sigma, rho=rho, tt_noisy=config.tt_noisy)
    n = stop - start
    n_methods = len(config.methods)
    err_t = np.full((n_methods, n), np.nan)
    err_q = np.full((n_methods, n), np.nan)
    ok = np.zeros((n_methods, n), dtype=bool)
    crlb_t = np.empty(n)
    crlb_q = np.empty(n)
    solver_cfgs = [SolverConfig(method=m) for m in config.methods]
    fixed = reference_scene(config) if config.fixed_pose else None

    for k in range(start, stop):
        rng, = trial_streams(config, [(g, k)])
        scene = fixed if fixed is not None else random_scene(config.scene, rng)
        meas = generate_measurements(scene, noise, rng)
        fim = compute_fim(scene, noise)
        i = k - start
        crlb_t[i] = fim.crlb_t
        crlb_q[i] = fim.crlb_q
        for j, cfg in enumerate(solver_cfgs):
            try:
                est = solve_landmarks(meas, scene.anchors, scene.conformation, cfg)
                pose = estimate_pose(est.coordinates, scene.conformation)
            except (DegenerateGeometryError, NumericalFailureError):
                continue
            dt = pose.translation - scene.pose.translation
            err_t[j, i] = dt @ dt
            err_q[j, i] = np.sum((pose.rotation.matrix - scene.pose.rotation.matrix) ** 2)
            ok[j, i] = True
    return err_t, err_q, ok, crlb_t, crlb_q
