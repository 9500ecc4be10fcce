"""Exact mean squared translation error of `smds_full`, scene by scene,
and the delta-method mean squared rotation error.

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

with no expansion. The rotation error has no closed form; its delta
method linearises the pose fit about E x_hat_n = a + A (x_n - a), the
true body shrunk by A about the anchor centroid a. For the centred body
c_n and the true rotation q, the angle error is

    d_alpha ~ Im(conj(q) sum_n conj(c_n) dx_n) / (A sum_n |c_n|^2)

with dx_n = x_hat_n - E x_hat_n. A vote X = d_hat exp(j theta_hat) has
E|X|^2 = d^2 + sigma^2 and E[X^2] = (d^2 + sigma^2)(1 - 2A/rho) exp(2j theta0),
and E||Q_hat - Q||_F^2 = 8 E sin^2(d_alpha / 2) ~ 2 E[d_alpha^2]. It is
test support only; nothing under `src/` imports it.
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


def smds_full_mse_q(scene, sigma: float, rho: float) -> np.ndarray:
    """Delta-method E||Q_hat - Q||_F^2 of `smds_full` for each pose of `scene`."""
    pos = scene.anchors.positions
    a = pos[0] + 1j * pos[1]
    body = scene.conformation.points
    c = body[0] + 1j * body[1]
    c = c - c.mean()
    rot = scene.pose.rotation.matrix
    q = rot[..., 0, 0] + 1j * rot[..., 1, 0]
    v = scene.landmarks[..., None, :] - a[:, None]  # true votes, (..., M, N)
    d2 = np.abs(v) ** 2
    amp = bessel_ratio(float(rho))
    # d_alpha = Im(sum_mn w_n dX_mn) over the independent zero-mean vote errors
    w = np.conj(q)[..., None, None] * np.conj(c) / (amp * np.sum(np.abs(c) ** 2) * a.size)
    var = d2 + sigma ** 2 - amp ** 2 * d2  # E|dX|^2
    pseudo = ((d2 + sigma ** 2) * (1.0 - 2.0 * amp / rho) / d2 - amp ** 2) * v ** 2  # E[dX^2]
    # E[Im(Z)^2] = (E|Z|^2 - Re E[Z^2]) / 2, and mse_Q ~ 2 E[d_alpha^2]
    return np.sum(np.abs(w) ** 2 * var - (w ** 2 * pseudo).real, axis=(-2, -1))
