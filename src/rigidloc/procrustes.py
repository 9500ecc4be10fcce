"""Pose recovery: orthogonal Procrustes fit in the plane.

Given estimated landmark positions and the known body-frame shape, the
rotation and translation minimizing the squared mismatch

    G(Q, t) = sum_i || s_i - (Q c_i + t) ||^2

have a closed form. Centre both point sets at their means and read them
as complex numbers. A rotation by q = exp(j alpha) changes the
objective only through Re(conj(q) z) with z = sum_i conj(c_i) s_i,
so the best rotation is the phase of z. A reflection c -> q conj(c)
likewise depends only on z' = sum_i c_i s_i; when reflections are
allowed, the larger of |z| and |z'| wins. No SVD or determinant
correction is needed.

`fit_alignment` and `estimate_pose` fit K pairs of point sets at once,
given as stacks with a leading trial axis (`_fit`); one pair is the
K = 1 case. The fit is numpy's elementwise complex arithmetic, except
for the sums over points, which run row by row (`_dot`), so a trial's
fit does not depend on the stack it sits in. A stack reports a trial
with no orientation to fit as NaN; one pair raises instead.
`estimate_pose` returns a `geometry.Pose`, the type a scene holds its
true pose in.
"""

from __future__ import annotations

import numpy as np

from .errors import NO_ORIENTATION, raise_failure
from .geometry import Conformation, Pose, RotationMatrix

_AMBIGUITY_RATIO = 1e-8


def fit_alignment(source: np.ndarray, target: np.ndarray,
                  allow_reflection: bool = False):
    """Orthogonal map R and shift t minimizing sum ||target - (R source + t)||^2.

    With `allow_reflection` the solution ranges over all of O(2); this
    is the mode used to align an MDS embedding, whose chirality is
    arbitrary. Otherwise R is constrained to a proper rotation.

    Either point set may be a (K, 2, N) stack, the other then shared by
    all K fits; a stacked fit returns (K, 2, 2) maps and (K, 2) shifts,
    NaN for each trial whose points are not finite or carry no
    orientation, instead of raising.

    Returns
    -------
    (R, t) : (ndarray (2, 2), ndarray (2,)), or their stacks
    """
    r, t, one = _fit_stacks(source, target, allow_reflection)
    return (r[0], t[0]) if one else (r, t)


def _fit_stacks(source, target, allow_reflection: bool):
    """Fits of (2, N) point sets or (K, 2, N) stacks of them, at once.

    Returns the (K, 2, 2) maps, the (K, 2) shifts, and whether both
    inputs were one set. A stacked trial with non-finite points, or with
    no orientation to fit, gets a NaN map and shift; one pair of sets
    raises instead.
    """
    c = source.points if isinstance(source, Conformation) else np.asarray(source, dtype=float)
    s = np.asarray(target, dtype=float)
    if (not {c.ndim, s.ndim} <= {2, 3} or c.shape[-2:] != s.shape[-2:]
            or c.shape[-2] != 2 or c.shape[-1] < 2):
        raise ValueError("point sets must be matching 2xN matrices, N >= 2, or stacks of them")
    one = c.ndim == s.ndim == 2
    if one and not (np.all(np.isfinite(c)) and np.all(np.isfinite(s))):
        raise ValueError("point sets must be finite")
    r, t, _, degenerate = _fit(*(p if p.ndim == 3 else p[None] for p in (c, s)),
                               allow_reflection)
    if one:
        raise_failure(NO_ORIENTATION if degenerate[0] else 0)
    r[degenerate] = np.nan
    t[degenerate] = np.nan
    return r, t, one


def _dot(a, b):
    """sum_i a_i b_i over the last axis, row by row.

    Each row goes through numpy's 1-D dot kernel on contiguous memory, so
    a row's sum does not depend on the stack it sits in or on its layout.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _fit(c: np.ndarray, s: np.ndarray, allow_reflection: bool):
    """Closed-form fits of K validated point-set pairs at once.

    `c` and `s` are (K, 2, N) stacks, either of which may have K = 1 to
    share one point set. Returns the maps
    (K, 2, 2), the shifts (K, 2), and (K,) masks `ambiguous` and
    `degenerate`; a degenerate fit (rank-0 cross-covariance) has no
    meaningful map. Sums over points are `_dot` products, with a vector
    of ones for plain sums; every other step is elementwise.
    """
    n = c.shape[2]
    ones = np.ones(n)
    cz = c[:, 0] + 1j * c[:, 1]
    sz = s[:, 0] + 1j * s[:, 1]
    c_bar, s_bar = _dot(cz, ones) / n, _dot(sz, ones) / n
    cz = cz - c_bar[:, None]
    sz = sz - s_bar[:, None]
    z = _dot(cz.conj(), sz)        # sum conj(c) s: rotations
    z_ref = _dot(cz, sz)           # sum c s: reflections c -> q conj(c)
    az, az_ref = np.abs(z), np.abs(z_ref)
    # (|z| + |z'|) / 2 is the largest singular value of the 2x2
    # cross-covariance, so this is its rank-0 test
    scale = np.sqrt(_dot(cz.conj(), cz).real * _dot(sz.conj(), sz).real)
    degenerate = 0.5 * (az + az_ref) <= 1e-14 * np.maximum(scale, np.finfo(float).tiny)
    reflect = (az_ref > az) if allow_reflection else np.zeros(az.shape, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.where(reflect, z_ref, z) / np.where(reflect, az_ref, az)
    # z = 0 leaves every rotation optimal; keep the identity then
    q = np.where(~reflect & (z == 0.0), 1.0, q)
    sign = np.where(reflect, -1.0, 1.0)
    r = np.stack([q.real, -sign * q.imag, q.imag, sign * q.real], axis=-1).reshape(-1, 2, 2)
    # shift = s_bar - q c_bar, or s_bar - q conj(c_bar) for a reflection
    shift = s_bar - q * np.where(reflect, c_bar.conj(), c_bar)
    if allow_reflection:
        ambiguous = np.zeros(az.shape, dtype=bool)
    else:
        # |z| <= ||c|| ||s|| = scale by Cauchy-Schwarz
        ambiguous = az <= _AMBIGUITY_RATIO * scale
    return r, np.stack([shift.real, shift.imag], axis=-1), ambiguous, degenerate


def estimate_pose(landmarks: np.ndarray, conformation) -> Pose:
    """Fit the rigid pose mapping the body shape onto estimated landmarks.

    Parameters
    ----------
    landmarks : ndarray, shape (2, N), or (K, 2, N) for K trials
        Estimated world positions (the fit target).
    conformation : Conformation or ndarray (2, N)
        Known body-frame shape. Two-point shapes are accepted: a segment
        fixes the rotation, since only a proper rotation is allowed.

    Returns
    -------
    Pose
        The best proper rotation and translation: one pose, or K poses
        for a stack, NaN where a trial's fit fails.

    Raises
    ------
    DegenerateGeometryError
        If one pair of point sets is degenerate (rank-0 cross
        covariance, e.g. all points coincident).
    """
    r, t, one = _fit_stacks(conformation, landmarks, False)
    return Pose(RotationMatrix(r[0]), t[0]) if one else Pose(RotationMatrix(r), t)


def pose_errors(pose: Pose, truth: Pose):
    """Squared translation and rotation errors of K fitted poses.

    `truth` holds the K true poses, or one pose shared by all of them.
    Returns two (K,) arrays: ||t_hat - t||^2, and the squared Frobenius
    norm of the rotation matrix error ||Q_hat - Q||_F^2. For rotations
    differing by an angle delta the latter is 2(2 - 2 cos delta), so a
    quarter turn gives 4 and a half turn 8.
    """
    dt = pose.translation - truth.translation
    dq = pose.rotation.matrix - truth.rotation.matrix
    return _dot(dt, dt), np.sum((dq * dq).reshape(-1, 4), axis=1)
