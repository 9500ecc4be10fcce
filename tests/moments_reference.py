"""Exact mean squared translation error of `smds_full`, scene by scene.

`smds_full` places landmark n at the anchored mean of its votes
z_mn = a_m + d_mn exp(j theta_mn) over the M anchors, and the pose fit of
a body whose centroid is its frame origin puts the translation at the
mean of those landmarks. So the translation estimate is the mean of all
M*N votes, linear in the measured AT edges. Range and bearing draws are
independent, the gamma range has mean d and variance sigma^2, and a von
Mises bearing of concentration rho has E exp(j theta) = A exp(j theta_0)
with A = I1(rho)/I0(rho). Each edge therefore has mean A v_mn and
variance d^2 + sigma^2 - A^2 d^2, and for true landmark centroid x and
anchor centroid a:

    E|t_hat - t|^2 = (1 - A)^2 |a - x|^2 + sum_mn (d^2 + sigma^2 - A^2 d^2) / (MN)^2

with no expansion. It is test support only; nothing under `src/`
imports it.
"""

from __future__ import annotations

import numpy as np

from rigidloc.measurements import bessel_ratio


def smds_full_mse_t(scene, sigma: float, rho: float) -> np.ndarray:
    """E|t_hat - t|^2 of `smds_full` for each pose of `scene`: (K,), or () for one."""
    pos = scene.anchors.positions
    a = pos[0] + 1j * pos[1]
    x = scene.landmarks
    d2 = np.abs(x[..., None, :] - a[:, None]) ** 2
    amp = bessel_ratio(float(rho))
    bias = (1.0 - amp) ** 2 * np.abs(a.mean() - x.mean(axis=-1)) ** 2
    n_votes = a.size * x.shape[-1]
    spread = np.sum(d2 + sigma ** 2 - amp ** 2 * d2, axis=(-2, -1)) / n_votes ** 2
    return bias + spread
