"""Pose recovery: weighted orthogonal Procrustes fit in the plane.

Given estimated landmark positions and the known body-frame shape, the
rotation and translation minimizing the weighted squared mismatch

    G(Q, t) = sum_i w_i || s_i - (Q c_i + t) ||^2

have a closed form: center both point sets at their weighted means,
take the SVD of the weighted cross-covariance, and correct the sign so
the solution is a proper rotation (det +1).
"""

from __future__ import annotations

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
    best proper rotation is unique unless z vanishes. The returned pose
    is then still the SVD solution.
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
    r, t, _ = _fit(source, target, weights, allow_reflection)
    return r, t


def _fit(source, target, weights, allow_reflection):
    c = _as_points(source, "source")
    s = _as_points(target, "target")
    if s.shape != c.shape:
        raise ValueError("point sets must have matching shapes")
    n = s.shape[1]
    if n < 2:
        raise ValueError("need at least 2 points to fit an alignment")
    w = _as_weights(weights, n)
    wsum = w.sum()
    s_bar = (s @ w) / wsum
    c_bar = (c @ w) / wsum
    s_c = s - s_bar[:, None]
    c_c = c - c_bar[:, None]
    h = (c_c * w) @ s_c.T
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
        # |z| <= ||sqrt(w) c_c|| ||sqrt(w) s_c|| by Cauchy-Schwarz
        z = complex(h[0, 0] + h[1, 1], h[0, 1] - h[1, 0])
        bound = np.sqrt(np.sum(w * c_c * c_c) * np.sum(w * s_c * s_c))
        ambiguous = bool(abs(z) <= _AMBIGUITY_RATIO * bound)
    t = s_bar - r @ c_bar
    return r, t, ambiguous


def estimate_pose(landmarks: np.ndarray, conformation,
                  weights=None) -> PoseEstimate:
    """Fit the rigid pose mapping the body shape onto estimated landmarks.

    Parameters
    ----------
    landmarks : ndarray, shape (2, N)
        Estimated world positions (the fit target).
    conformation : Conformation or ndarray (2, N)
        Known body-frame shape. Two-point shapes are accepted: a segment
        fixes the rotation once the sign is resolved by the determinant
        correction.
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
    c = _as_points(conformation, "conformation")
    s = _as_points(landmarks, "landmarks")
    r, t, ambiguous = _fit(c, s, weights, allow_reflection=False)
    w = _as_weights(weights, s.shape[1])
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
