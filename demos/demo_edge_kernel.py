"""Why the SMDS kernel minor reduces to the measured anchor-target edges.

The complex edge kernel K = conj(v) v^T of one measurement snapshot is
rank 1. Its minor (the blocks pairing the AT edges with the AA, AT and
TT edges) maps each block back onto v_AT scaled by that block's squared
norm, so the ratio-combined update over the minor returns v_AT itself.
`solve_landmarks` therefore computes `smds_full` in closed form, as the
anchored mean x_n = mean_m(a_m + d_mn exp(j theta_mn)). The kernel is
built here with numpy only to show the reduction.
"""

import numpy as np

from rigidloc import (NoiseConfig, SceneConfig, SolverConfig,
                      generate_measurements, random_scene, solve_landmarks,
                      zeta_to_rho)
from rigidloc.edges import build_pair_index
from rigidloc.measurements import wrap_angle


def demo_rank_one():
    print("\n" + "=" * 70)
    print("Demo 1: The edge kernel of one snapshot is rank 1")
    print("=" * 70)

    scene = random_scene(SceneConfig(), seed=3)
    index = build_pair_index(scene.n_anchors, scene.n_landmarks)
    x = scene.complex_positions()
    v = x[index.second] - x[index.first]
    kernel = np.outer(np.conj(v), v)
    sing = np.linalg.svd(kernel, compute_uv=False)
    print(f"\nkernel size {kernel.shape[0]}x{kernel.shape[1]} "
          f"({index.n_pairs} edges)")
    print(f"largest singular value  {sing[0]:.4f}")
    print(f"second singular value   {sing[1]:.3e}")
    print(f"sum of squared edges    {np.sum(np.abs(v) ** 2):.4f} "
          "(equals the largest singular value)")


def demo_minor_returns_at_edges():
    print("\n" + "=" * 70)
    print("Demo 2: Each minor block gives back the measured AT edges")
    print("=" * 70)

    scene = random_scene(SceneConfig(), seed=5)
    noise = NoiseConfig(sigma=0.5, rho=zeta_to_rho(np.deg2rad(8.0)))
    meas = generate_measurements(scene, noise, 42)
    index = meas.index
    v = meas.distances * np.exp(1j * meas.angles)
    v_aa, v_at = v[index.aa], v[index.at]
    # TT pairs carry no bearing: their phases are the scene's exact angles
    x = scene.complex_positions()
    tt_angles = wrap_angle(np.angle(x[index.second[index.tt]] - x[index.first[index.tt]]))
    v_tt = meas.distances[index.tt] * np.exp(1j * tt_angles)
    k1 = np.outer(np.conj(v_aa), v_at)   # AA x AT
    k3 = np.outer(np.conj(v_at), v_at)   # AT x AT
    k4 = np.outer(np.conj(v_at), v_tt)   # AT x TT

    print("\nnoise: sigma = 0.5 m, zeta = 8 deg; blocks built from the measured edges")
    for name, image, block in (("K1^T v_AA", k1.T @ v_aa, v_aa),
                               ("K3^T v_AT", k3.T @ v_at, v_at),
                               ("conj(K4) v_TT", np.conj(k4) @ v_tt, v_tt)):
        scale = np.vdot(block, block).real
        gap = np.max(np.abs(image - scale * v_at)) / np.max(np.abs(scale * v_at))
        print(f"  {name:14s} = ||block||^2 v_AT   (relative gap {gap:.1e})")

    num = k1.T @ v_aa + k3.T @ v_at + np.conj(k4) @ v_tt
    den = np.vdot(v_aa, v_aa).real + np.vdot(v_at, v_at).real + np.vdot(v_tt, v_tt).real
    update = num / den
    print(f"ratio-combined update from v_AT moves it by "
          f"{np.max(np.abs(update - v_at)):.1e}: the measured block is the fixed point")

    closed = solve_landmarks(meas, scene.anchors, scene.conformation,
                             SolverConfig(method="smds_full")).coordinates
    a = scene.anchors.positions[0] + 1j * scene.anchors.positions[1]
    # x_n = mean_m(a_m + v_mn) over the update's AT edges
    reference = (a[:, None] + update.reshape(index.n_anchors, index.n_targets)).mean(axis=0)
    print(f"closed-form smds_full vs the kernel update's landmarks: "
          f"{np.max(np.abs(closed - reference)):.1e} m")

    print("\nThe noise suppression comes from averaging the per-anchor")
    print("position votes a_m + v_mn of each landmark:")
    votes = a[:, None] + v_at.reshape(index.n_anchors, index.n_targets)
    vote_rms = np.sqrt(np.mean(np.abs(votes - scene.landmarks) ** 2))
    pos_rms = np.linalg.norm(closed - scene.landmarks) / np.sqrt(scene.n_landmarks)
    print(f"  single-edge position vote rms error:  {vote_rms:.4f}")
    print(f"  averaged landmark rms error:          {pos_rms:.4f}")


if __name__ == "__main__":
    demo_rank_one()
    demo_minor_returns_at_edges()
