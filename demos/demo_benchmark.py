"""Monte Carlo benchmark with Cramer-Rao bound comparison.

Runs a reduced sweep of the standard experiment (random scene per trial,
all three methods) and prints the aggregate table next to the matching
pose bounds, with the method nearest the bound at each sigma read from
the table's own rows, then shows the bound curves alone on the
deterministic reference scene.
"""

import numpy as np

from rigidloc import (ExperimentConfig, NoiseConfig, compute_fim, format_results,
                      reference_scene, rho_to_zeta, run_experiment)


def demo_sweep(trials=300):
    """Run the reduced sweep, print its table and verdicts, and return its rows."""
    print("\n" + "=" * 70)
    print(f"Demo 1: Reduced benchmark sweep ({trials} trials per grid point)")
    print("=" * 70)

    config = ExperimentConfig(sigma_grid=(0.1, 0.25, 0.5, 1.0), trials=trials,
                              master_seed=12345)
    rows = run_experiment(config)
    print("\n" + format_results(rows))
    print("mse_t / crlb_t ratios (smds_full):")
    for r in rows:
        if r.method == "smds_full":
            print(f"  sigma = {r.sigma:5.2f}: {r.mse_t / r.crlb_t:6.3f}")
    # which method is nearest depends on sigma and on the run, so it is
    # read from the rows, never stated in advance
    print("\nnearest the bound (smallest mse_t / crlb_t):")
    for sigma in config.sigma_grid:
        ratio, method = min((r.mse_t / r.crlb_t, r.method) for r in rows if r.sigma == sigma)
        print(f"  sigma = {sigma:5.2f}: {method} at {ratio:.3f}")
    return rows


def demo_bound_curve():
    print("\n" + "=" * 70)
    print("Demo 2: Bound curves on the fixed reference scene")
    print("=" * 70)

    config = ExperimentConfig(sigma_grid=np.geomspace(0.05, 2.0, 9))
    scene = reference_scene(config)
    curve = compute_fim(scene, NoiseConfig(sigma=config.sigma_grid, rho=config.rho))
    print(f"\nreference pose: angle {scene.pose.rotation.angle:+.3f} rad, "
          f"translation ({scene.pose.translation[0]:.2f}, "
          f"{scene.pose.translation[1]:.2f})")
    print("\nsigma     crlb_t       crlb_Q")
    for sigma, crlb_t, crlb_q in zip(config.sigma_grid, curve.crlb_t, curve.crlb_q):
        print(f"{sigma:5.2f}   {crlb_t:9.3e}   {crlb_q:9.3e}")


def demo_information_split():
    print("\n" + "=" * 70)
    print("Demo 3: Range versus bearing information")
    print("=" * 70)

    config = ExperimentConfig()
    scene = reference_scene(config)
    noise = NoiseConfig(sigma=0.5, rho=config.rho)
    both = compute_fim(scene, noise)
    ranges = compute_fim(scene, noise, use_bearings=False)
    bearings = compute_fim(scene, noise, use_distances=False)
    print(f"\nsigma = 0.5 m, zeta = {np.rad2deg(rho_to_zeta(config.rho)):.0f} deg")
    print("\nchannel importance for the translation bound:")
    print(f"  ranges only     crlb_t = {ranges.crlb_t:.3e}")
    print(f"  bearings only   crlb_t = {bearings.crlb_t:.3e}")
    print(f"  both            crlb_t = {both.crlb_t:.3e}")
    print("\nThe joint bound beats either channel alone; information from")
    print("the two channels adds at the Fisher matrix level.")


if __name__ == "__main__":
    demo_sweep()
    demo_bound_curve()
    demo_information_split()
