"""Measurement noise models: gamma ranges and von Mises bearings.

Shows that the range sampler hits its advertised mean and standard
deviation, that bearing noise concentrates as rho grows, and how the
rho parameterization maps to the 90th-percentile half-width zeta used
in benchmark configuration.
"""

import numpy as np

from rigidloc import rho_to_zeta, zeta_to_rho
from rigidloc.measurements import sample_angle, sample_distance


def demo_range_noise():
    print("\n" + "=" * 70)
    print("Demo 1: Gamma range noise")
    print("=" * 70)

    rng = np.random.default_rng(0)
    true_d = 6.0
    print(f"\ntrue distance {true_d} m, 200000 samples per noise level\n")
    print("sigma    sample mean   sample std   min sample")
    for sigma in (0.1, 0.5, 1.0):
        x = sample_distance(np.full(200000, true_d), sigma, rng)
        print(f"{sigma:4.1f}     {x.mean():9.4f}     {x.std():8.4f}     "
              f"{x.min():8.4f}")
    print("\nThe gamma model keeps every sample positive, unlike a plain")
    print("Gaussian perturbation, while matching the requested moments.")


def demo_bearing_noise():
    print("\n" + "=" * 70)
    print("Demo 2: von Mises bearing noise")
    print("=" * 70)

    rng = np.random.default_rng(1)
    print("\ntrue bearing 0 rad, 200000 samples per concentration\n")
    print("rho      circular std   mass within +-5 deg")
    for rho in (10.0, 100.0, 1000.0):
        x = sample_angle(np.zeros(200000), rho, rng)
        circ_std = np.sqrt(-2.0 * np.log(np.abs(np.exp(1j * x).mean())))
        frac = np.mean(np.abs(x) <= np.deg2rad(5.0))
        print(f"{rho:6.0f}   {circ_std:9.4f}      {frac:8.3f}")


def demo_zeta_parameterization():
    print("\n" + "=" * 70)
    print("Demo 3: Half-width parameterization of bearing accuracy")
    print("=" * 70)

    print("\nzeta is the half-width of the interval around the true angle")
    print("holding 90 percent of the probability mass.\n")
    print("zeta (deg)   rho          round trip (deg)")
    for deg in (2.0, 5.0, 8.0, 20.0):
        zeta = np.deg2rad(deg)
        rho = zeta_to_rho(zeta)
        back = np.rad2deg(rho_to_zeta(rho))
        print(f"{deg:7.1f}   {rho:9.2f}     {back:10.6f}")

    rng = np.random.default_rng(2)
    zeta = np.deg2rad(8.0)
    rho = zeta_to_rho(zeta)
    x = sample_angle(np.zeros(10 ** 6), rho, rng)
    print(f"\nempirical check at zeta = 8 deg: mass within +-zeta = "
          f"{np.mean(np.abs(x) <= zeta):.4f} (target 0.9)")


if __name__ == "__main__":
    demo_range_noise()
    demo_bearing_noise()
    demo_zeta_parameterization()
