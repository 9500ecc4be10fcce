"""Side-by-side landmark solvers and pose recovery on one noisy scene.

Runs the distance-only MDS baseline, the full range-plus-bearing
estimator, and the distance-only bootstrap variant on identical
measurements, then fits the body pose to each coordinate estimate and
compares translation and rotation errors.
"""

import numpy as np

from rigidloc import (METHODS, NoiseConfig, SceneConfig, SolverConfig,
                      estimate_pose, generate_measurements, random_scene,
                      solve_landmarks, zeta_to_rho)
from rigidloc.procrustes import pose_errors


def landmark_rmse(est, scene):
    return float(np.linalg.norm(est - scene.landmarks) / np.sqrt(scene.n_landmarks))


def demo_single_scene():
    print("\n" + "=" * 70)
    print("Demo 1: Three estimators, one measurement set")
    print("=" * 70)

    scene = random_scene(SceneConfig(), seed=11)
    noise = NoiseConfig(sigma=0.5, rho=zeta_to_rho(np.deg2rad(8.0)))
    meas = generate_measurements(scene, noise, 2024)
    print(f"\nsigma = {noise.sigma} m, zeta = 8 deg, "
          f"{scene.n_anchors} anchors, {scene.n_landmarks} landmarks\n")
    print("method                 landmark rmse   |t error|   rot mse")
    for method in METHODS:
        est = solve_landmarks(meas, scene.anchors, scene.conformation,
                              SolverConfig(method=method))
        pose = estimate_pose(est.coordinates, scene.conformation)
        t_err = np.linalg.norm(pose.translation - scene.pose.translation)
        q_err = pose_errors(pose, scene.pose)[1][0]
        print(f"{method:<22} {landmark_rmse(est.coordinates, scene):11.4f}   "
              f"{t_err:9.4f}   {q_err:8.5f}")
    print("\nAll methods consume the same distances; only smds_full also")
    print("uses the measured bearings.")


def demo_noise_sweep():
    print("\n" + "=" * 70)
    print("Demo 2: Error growth with range noise (single scene, 200 draws)")
    print("=" * 70)

    scene = random_scene(SceneConfig(), seed=12)
    print("\nsigma    mds rmse   smds_full rmse")
    for sigma in (0.1, 0.3, 0.6, 1.2):
        noise = NoiseConfig(sigma=sigma, rho=zeta_to_rho(np.deg2rad(8.0)))
        errs = {m: [] for m in ("mds", "smds_full")}
        for k in range(200):
            meas = generate_measurements(scene, noise, 10000 + k)
            for m in errs:
                est = solve_landmarks(meas, scene.anchors, scene.conformation,
                                      SolverConfig(method=m))
                errs[m].append(landmark_rmse(est.coordinates, scene))
        print(f"{sigma:4.1f}    {np.mean(errs['mds']):8.4f}   "
              f"{np.mean(errs['smds_full']):10.4f}")


def demo_bearing_value():
    print("\n" + "=" * 70)
    print("Demo 3: What the bearings buy at fixed range noise")
    print("=" * 70)

    scene = random_scene(SceneConfig(), seed=13)
    print("\nsigma = 0.6 m fixed, 200 draws per bearing accuracy\n")
    print("zeta (deg)   smds_full landmark rmse")
    for deg in (30.0, 15.0, 8.0, 4.0):
        noise = NoiseConfig(sigma=0.6, rho=zeta_to_rho(np.deg2rad(deg)))
        errs = []
        for k in range(200):
            meas = generate_measurements(scene, noise, 20000 + k)
            est = solve_landmarks(meas, scene.anchors, scene.conformation,
                                  SolverConfig(method="smds_full"))
            errs.append(landmark_rmse(est.coordinates, scene))
        print(f"{deg:8.1f}     {np.mean(errs):10.4f}")


if __name__ == "__main__":
    demo_single_scene()
    demo_noise_sweep()
    demo_bearing_value()
