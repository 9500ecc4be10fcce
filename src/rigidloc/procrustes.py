"""Pose recovery: weighted orthogonal Procrustes fit in the plane.

Given estimated landmark positions and the known body-frame shape, the
rotation and translation minimizing the weighted squared mismatch

    G(Q, t) = sum_i w_i || s_i - (Q c_i + t) ||^2

have a closed form. Centre both point sets at their weighted means and
read them as complex numbers. A rotation by q = exp(j alpha) changes the
objective only through Re(conj(q) z) with z = sum_i w_i conj(c_i) s_i,
so the best rotation is the phase of z. A reflection c -> q conj(c)
likewise depends only on z' = sum_i w_i c_i s_i; when reflections are
allowed, the larger of |z| and |z'| wins. No SVD or determinant
correction is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import Conformation, RotationMatrix

_AMBIGUITY_RATIO = 1e-8


def _as_points(points, name: str) -> np.ndarray:
    pts = points.points if isinstance(points, Conformation) else np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != 2:
        raise ValueError(f"{name} must be a 2xN matrix")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} must be finite")
    return pts


def _as_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError("need one weight per point")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    if w.sum() <= 0.0:
        raise ValueError("weights must not all be zero")
    return w


@dataclass(frozen=True)
class PoseEstimate:
    """Fitted pose with the attained objective value.

    `ambiguous` is set when every rotation fits equally well: in the
    plane the objective depends on the angle only through the complex
    cross term z = sum_n w_n conj(c_n) s_n of the centred points, so the
    best proper rotation is unique unless z vanishes. The returned
    rotation is then whatever phase rounding leaves in z, or the
    identity when z is exactly zero.
    """

    rotation: RotationMatrix
    translation: np.ndarray
    objective: float
    ambiguous: bool = False

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).copy()
        if t.shape != (2,) or not np.all(np.isfinite(t)):
            raise ValueError("translation must be a finite 2-vector")
        t.flags.writeable = False
        object.__setattr__(self, "translation", t)


def weighted_means(points_s: np.ndarray, points_c: np.ndarray,
                   weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted centroids of two paired point sets.

    Parameters
    ----------
    points_s, points_c : ndarray, shape (2, N)
    weights : array-like of length N, optional
        Nonnegative, not all zero. Default: uniform.

    Returns
    -------
    (s_bar, c_bar) : two ndarray of shape (2,)
    """
    s = _as_points(points_s, "points_s")
    c = _as_points(points_c, "points_c")
    if s.shape != c.shape:
        raise ValueError("point sets must have matching shapes")
    w = _as_weights(weights, s.shape[1])
    wsum = w.sum()
    return (s @ w) / wsum, (c @ w) / wsum


def fit_alignment(source: np.ndarray, target: np.ndarray, weights=None,
                  allow_reflection: bool = False):
    """Orthogonal map R and shift t minimizing sum w ||target - (R source + t)||^2.

    With `allow_reflection` the solution ranges over all of O(2); this
    is the mode used to align an MDS embedding, whose chirality is
    arbitrary. Otherwise R is constrained to a proper rotation.

    Returns
    -------
    (R, t) : (ndarray (2, 2), ndarray (2,))
    """
    c, s, w = _validated(source, target, weights, "source", "target")
    r, t, _ = _fit(c, s, w, allow_reflection)
    return r, t


def _validated(source, target, weights, source_name: str, target_name: str):
    c = _as_points(source, source_name)
    s = _as_points(target, target_name)
    if s.shape != c.shape:
        raise ValueError("point sets must have matching shapes")
    n = s.shape[1]
    if n < 2:
        raise ValueError("need at least 2 points to fit an alignment")
    return c, s, _as_weights(weights, n)


def _fit(c, s, w, allow_reflection):
    """Closed-form fit on validated points; returns (R, t, ambiguous)."""
    wsum = float(w.sum())
    cz = c[0] + 1j * c[1]
    sz = s[0] + 1j * s[1]
    c_bar = complex(cz @ w) / wsum
    s_bar = complex(sz @ w) / wsum
    cz = cz - c_bar
    sz = sz - s_bar
    wc = w * cz
    z = complex(np.vdot(wc, sz))      # sum w conj(c) s: rotations
    z_ref = complex(wc @ sz)          # sum w c s: reflections c -> q conj(c)
    # (|z| + |z'|) / 2 is the largest singular value of the 2x2
    # cross-covariance, so this is its rank-0 test
    scale = math.sqrt(np.vdot(cz, cz).real * np.vdot(sz, sz).real)
    if 0.5 * (abs(z) + abs(z_ref)) <= 1e-14 * max(scale, np.finfo(float).tiny):
        raise DegenerateGeometryError("point sets carry no orientation information")
    ambiguous = False
    if allow_reflection and abs(z_ref) > abs(z):
        q = z_ref / abs(z_ref)
        r = np.array([[q.real, q.imag], [q.imag, -q.real]])
        shift = s_bar - q * c_bar.conjugate()
    else:
        # z = 0 leaves every rotation optimal; keep the identity then
        q = z / abs(z) if z else 1.0 + 0.0j
        r = np.array([[q.real, -q.imag], [q.imag, q.real]])
        shift = s_bar - q * c_bar
        if not allow_reflection:
            # |z| <= ||sqrt(w) c|| ||sqrt(w) s|| by Cauchy-Schwarz
            bound = math.sqrt(np.vdot(wc, cz).real * np.vdot(w * sz, sz).real)
            ambiguous = abs(z) <= _AMBIGUITY_RATIO * bound
    return r, np.array([shift.real, shift.imag]), ambiguous


def estimate_pose(landmarks: np.ndarray, conformation,
                  weights=None) -> PoseEstimate:
    """Fit the rigid pose mapping the body shape onto estimated landmarks.

    Parameters
    ----------
    landmarks : ndarray, shape (2, N)
        Estimated world positions (the fit target).
    conformation : Conformation or ndarray (2, N)
        Known body-frame shape. Two-point shapes are accepted: a segment
        fixes the rotation, since only a proper rotation is allowed.
    weights : array-like, optional
        Per-landmark nonnegative weights, default uniform.

    Returns
    -------
    PoseEstimate
        Proper rotation, translation, attained objective, ambiguity flag.

    Raises
    ------
    DegenerateGeometryError
        If the weighted point sets are degenerate (rank-0 cross
        covariance, e.g. all points coincident).
    """
    c, s, w = _validated(conformation, landmarks, weights, "conformation", "landmarks")
    r, t, ambiguous = _fit(c, s, w, allow_reflection=False)
    resid = s - (r @ c + t[:, None])
    objective = float(np.sum(w * np.sum(resid * resid, axis=0)))
    return PoseEstimate(RotationMatrix.from_matrix(r), t, objective, ambiguous)


def rotation_mse(q_hat, q_true) -> float:
    """Squared Frobenius norm of the rotation matrix error.

    For rotations differing by an angle delta this equals
    2(2 - 2 cos delta), so a quarter turn gives 4 and a half turn 8.
    """
    a = np.asarray(q_hat, dtype=float)
    b = np.asarray(q_true, dtype=float)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("rotations must be 2x2 matrices")
    d = a - b
    return float(np.sum(d * d))
