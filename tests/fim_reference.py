"""Finite-difference Fisher information of the pose, for checking `compute_fim`.

The observables are the AT ranges and bearings as functions of the pose
vector (tx, ty, alpha); their central differences give the Jacobians,
weighted by 1/sigma^2 for a range and by the von Mises bearing
information for a bearing. It is test support only; nothing under
`src/` imports it.
"""

from __future__ import annotations

import numpy as np

from rigidloc.crlb import bearing_intensity
from rigidloc.measurements import wrap_angle


def at_observables(anchors, conformation, eta):
    """All AT ranges and bearings as a function of the pose vector."""
    c, s = np.cos(eta[2]), np.sin(eta[2])
    q = np.array([[c, -s], [s, c]])
    pts = q @ conformation.points + eta[:2, None]
    e = pts[:, None, :] - anchors.positions[:, :, None]
    d = np.linalg.norm(e, axis=0)
    return d.ravel(), np.arctan2(e[1], e[0]).ravel()


def fd_fim(scene, noise, h=1e-6):
    """Finite-difference Fisher information oracle."""
    eta0 = np.array([scene.pose.translation[0], scene.pose.translation[1],
                     scene.pose.rotation.angle])
    cols_d, cols_psi = [], []
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        d_p, psi_p = at_observables(scene.anchors, scene.conformation, eta0 + step)
        d_m, psi_m = at_observables(scene.anchors, scene.conformation, eta0 - step)
        cols_d.append((d_p - d_m) / (2.0 * h))
        cols_psi.append(wrap_angle(psi_p - psi_m) / (2.0 * h))
    gd, gpsi = np.column_stack(cols_d), np.column_stack(cols_psi)
    return gd.T @ gd / noise.sigma ** 2 + bearing_intensity(noise.rho) * gpsi.T @ gpsi
