"""Reference copy of the SVD Procrustes fit the complex closed form replaces.

The library fits a planar pose from the phase of the complex cross term
z = sum conj(c) s (and z' = sum c s for reflections). This module
keeps the textbook route: the SVD of the 2x2 cross-covariance
with a determinant correction, so that the tests can pin the closed form
to it. It is test support only; nothing under `src/` imports it.
"""

from __future__ import annotations

import numpy as np

from rigidloc.errors import DegenerateGeometryError
from rigidloc.procrustes import _AMBIGUITY_RATIO


def _as_points(points, name: str) -> np.ndarray:
    pts = getattr(points, "points", points)
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != 2:
        raise ValueError(f"{name} must be a 2xN matrix")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} must be finite")
    return pts


def svd_fit(source, target, allow_reflection=False):
    """Return (R, t, ambiguous) minimizing sum ||target - (R source + t)||^2."""
    c = _as_points(source, "source")
    s = _as_points(target, "target")
    if s.shape != c.shape:
        raise ValueError("point sets must have matching shapes")
    if s.shape[1] < 2:
        raise ValueError("need at least 2 points to fit an alignment")
    s_bar = s.mean(axis=1)
    c_bar = c.mean(axis=1)
    s_c = s - s_bar[:, None]
    c_c = c - c_bar[:, None]
    h = c_c @ s_c.T
    u, sing, vt = np.linalg.svd(h)
    scale = np.linalg.norm(c_c) * np.linalg.norm(s_c)
    if sing[0] <= 1e-14 * max(scale, np.finfo(float).tiny):
        raise DegenerateGeometryError("point sets carry no orientation information")
    v = vt.T
    if allow_reflection:
        r = v @ u.T
        ambiguous = False
    else:
        d = np.sign(np.linalg.det(v @ u.T))
        r = v @ np.diag([1.0, d]) @ u.T
        # |z| <= ||c_c|| ||s_c|| by Cauchy-Schwarz
        z = complex(h[0, 0] + h[1, 1], h[0, 1] - h[1, 0])
        bound = np.sqrt(np.sum(c_c * c_c) * np.sum(s_c * s_c))
        ambiguous = bool(abs(z) <= _AMBIGUITY_RATIO * bound)
    t = s_bar - r @ c_bar
    return r, t, ambiguous
