"""Pose recovery: orthogonal Procrustes fit in the plane.

Given estimated landmark positions and the known body-frame shape, the
rotation and translation minimizing the squared mismatch

    G(Q, t) = sum_i || s_i - (Q c_i + t) ||^2

have a closed form. Points are complex numbers x + jy: one set is an
(N,) array, K sets a (K, N) stack. Centre both sets at their means. A
rotation by q = exp(j alpha) changes the objective only through
Re(conj(q) z) with z = sum_i conj(c_i) s_i, so the best rotation is the
phase of z. A reflection c -> q conj(c) likewise depends only on
z' = sum_i c_i s_i; when reflections are allowed, the larger of |z| and
|z'| wins. No SVD or determinant correction is needed.

`fit_alignment` fits K pairs of point sets at once (`_fit`); one pair
is the K = 1 case. It returns q, the shift t and which fits reflect.
`estimate_pose` turns its proper rotations into a `geometry.Pose`, the
type a scene holds its true pose in. The fit is numpy's elementwise
complex arithmetic, except for the sums over points, which run row by
row (`_dot`), so a trial's fit does not depend on the stack it sits in.
A stack reports a trial with no orientation to fit as NaN; one pair
raises instead.
"""

from __future__ import annotations

import numpy as np

from .errors import NO_ORIENTATION, raise_failure
from .geometry import Conformation, Pose, Rotation, _complex

_AMBIGUITY_RATIO = 1e-8


def fit_alignment(source: np.ndarray, target: np.ndarray,
                  allow_reflection: bool = False):
    """Unit q, shift t and reflection flag minimizing sum |target - (q source + t)|^2.

    Point sets are complex: (N,) arrays, N >= 2, or (K, N) stacks, the
    other set then shared by all K fits. A reflected fit maps
    q conj(source) + t instead. With `allow_reflection` the solution
    ranges over all of O(2); this is the mode used to align an MDS
    embedding, whose chirality is arbitrary. Otherwise q is a proper
    rotation and no fit reflects.

    Returns (q, t, reflect): complex, complex and bool for one pair;
    (K,) arrays for a stack, with q and t NaN for each trial whose points
    are not finite or carry no orientation, where one pair raises. A
    real-valued set is a ValueError: a (2, N) coordinate matrix would
    otherwise read as two sets.
    """
    c, s = np.asarray(source), np.asarray(target)
    if not (np.iscomplexobj(c) and np.iscomplexobj(s)):
        raise ValueError("point sets must be complex arrays x + jy")
    if not {c.ndim, s.ndim} <= {1, 2} or c.shape[-1] != s.shape[-1] or c.shape[-1] < 2:
        raise ValueError("point sets must be matching (N,) arrays, N >= 2, or stacks of them")
    one = c.ndim == s.ndim == 1
    if one and not (np.all(np.isfinite(c)) and np.all(np.isfinite(s))):
        raise ValueError("point sets must be finite")
    q, t, reflect, _, degenerate = _fit(np.atleast_2d(c), np.atleast_2d(s), allow_reflection)
    if one:
        raise_failure(NO_ORIENTATION if degenerate[0] else 0)
        return q[0], t[0], reflect[0]
    q[degenerate] = t[degenerate] = complex(np.nan, np.nan)
    return q, t, reflect


def _dot(a, b):
    """sum_i a_i b_i over the last axis, row by row.

    Each row goes through numpy's 1-D dot kernel on contiguous memory, so
    a row's sum does not depend on the stack it sits in or on its layout.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _fit(c: np.ndarray, s: np.ndarray, allow_reflection: bool):
    """Closed-form fits of K validated point-set pairs at once.

    `c` and `s` are (K, N) complex stacks, either of which may have
    K = 1 to share one point set. Returns the (K,) unit rotations q and
    shifts t, and (K,) masks `reflect`, `ambiguous` and `degenerate`; a
    degenerate fit (rank-0 cross-covariance) has no meaningful q. Sums
    over points are `_dot` products, with a vector of ones for plain
    sums; every other step is elementwise.
    """
    n = c.shape[1]
    ones = np.ones(n)
    c_bar, s_bar = _dot(c, ones) / n, _dot(s, ones) / n
    cz = c - c_bar[:, None]
    sz = s - s_bar[:, None]
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
    # shift = s_bar - q c_bar, or s_bar - q conj(c_bar) for a reflection
    shift = s_bar - q * np.where(reflect, c_bar.conj(), c_bar)
    if allow_reflection:
        ambiguous = np.zeros(az.shape, dtype=bool)
    else:
        # |z| <= ||c|| ||s|| = scale by Cauchy-Schwarz
        ambiguous = az <= _AMBIGUITY_RATIO * scale
    return q, shift, reflect, ambiguous, degenerate


def estimate_pose(landmarks: np.ndarray, conformation) -> Pose:
    """Fit the rigid pose mapping the body shape onto estimated landmarks.

    Parameters
    ----------
    landmarks : complex ndarray, shape (N,), or (K, N) for K trials
        Estimated world positions x + jy (the fit target).
    conformation : Conformation or complex ndarray (N,)
        Known body-frame shape. Two-point shapes are accepted: a segment
        fixes the rotation, since only a proper rotation is allowed.

    Returns
    -------
    Pose
        The best proper rotation and translation: one pose, or K poses
        for a stack, NaN where a trial's fit fails.

    Raises
    ------
    ValueError
        If a point set is real-valued, or the sizes do not match.
    DegenerateGeometryError
        If one pair of point sets is degenerate (rank-0 cross
        covariance, e.g. all points coincident).
    """
    if isinstance(conformation, Conformation):
        conformation = _complex(conformation.points)
    q, t, _ = fit_alignment(conformation, landmarks)
    return Pose(Rotation(q), np.stack([t.real, t.imag], axis=-1))


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
