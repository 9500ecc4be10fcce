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
K = 1 case. A stack reports a trial with no orientation to fit as NaN;
one pair raises instead. `estimate_pose` returns a `geometry.Pose`, the
type a scene holds its true pose in.
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


def _complex(re, im):
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _fit(c: np.ndarray, s: np.ndarray, allow_reflection: bool):
    """Closed-form fits of K validated point-set pairs at once.

    `c` and `s` are (K, 2, N) stacks, either of which may have K = 1 to
    share one point set. Returns the maps
    (K, 2, 2), the shifts (K, 2), and (K,) masks `ambiguous` and
    `degenerate`; a degenerate fit (rank-0 cross-covariance) has no
    meaningful map. Scalar steps divide, multiply and take moduli
    componentwise, exactly as Python complex arithmetic does. Sums over
    points are `_dot` products, with a vector of ones for plain sums.
    """
    n = c.shape[2]
    ones = np.ones(n)
    cz = c[:, 0] + 1j * c[:, 1]
    sz = s[:, 0] + 1j * s[:, 1]
    c_dot, s_dot = _dot(cz, ones), _dot(sz, ones)
    cbr, cbi = c_dot.real / n, c_dot.imag / n
    sbr, sbi = s_dot.real / n, s_dot.imag / n
    cz = cz - _complex(cbr, cbi)[:, None]
    sz = sz - _complex(sbr, sbi)[:, None]
    z = _dot(cz.conj(), sz)        # sum conj(c) s: rotations
    z_ref = _dot(cz, sz)           # sum c s: reflections c -> q conj(c)
    az, az_ref = np.hypot(z.real, z.imag), np.hypot(z_ref.real, z_ref.imag)
    # (|z| + |z'|) / 2 is the largest singular value of the 2x2
    # cross-covariance, so this is its rank-0 test
    scale = np.sqrt(_dot(cz.conj(), cz).real * _dot(sz.conj(), sz).real)
    degenerate = 0.5 * (az + az_ref) <= 1e-14 * np.maximum(scale, np.finfo(float).tiny)
    reflect = (az_ref > az) if allow_reflection else np.zeros(az.shape, dtype=bool)
    zr = np.where(reflect, z_ref.real, z.real)
    zi = np.where(reflect, z_ref.imag, z.imag)
    modulus = np.where(reflect, az_ref, az)
    with np.errstate(invalid="ignore", divide="ignore"):
        qr, qi = zr / modulus, zi / modulus
    # z = 0 leaves every rotation optimal; keep the identity then
    still = ~reflect & (z.real == 0.0) & (z.imag == 0.0)
    qr, qi = np.where(still, 1.0, qr), np.where(still, 0.0, qi)
    r = np.empty(qr.shape + (2, 2))
    r[:, 0, 0] = qr
    r[:, 0, 1] = np.where(reflect, qi, -qi)
    r[:, 1, 0] = qi
    r[:, 1, 1] = np.where(reflect, -qr, qr)
    # shift = s_bar - q c_bar, or s_bar - q conj(c_bar) for a reflection
    cbi = np.where(reflect, -cbi, cbi)
    shift = np.stack([sbr - (qr * cbr - qi * cbi), sbi - (qr * cbi + qi * cbr)], axis=-1)
    if allow_reflection:
        ambiguous = np.zeros(az.shape, dtype=bool)
    else:
        # |z| <= ||c|| ||s|| = scale by Cauchy-Schwarz
        ambiguous = az <= _AMBIGUITY_RATIO * scale
    return r, shift, ambiguous, degenerate


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


def rotation_mse(q_hat, q_true) -> float:
    """Squared Frobenius norm of the rotation matrix error.

    For rotations differing by an angle delta this equals
    2(2 - 2 cos delta), so a quarter turn gives 4 and a half turn 8.
    """
    a = np.asarray(q_hat, dtype=float)
    b = np.asarray(q_true, dtype=float)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("rotations must be 2x2 matrices")
    return float(_rotation_errors(a[None], b[None])[0])


def _rotation_errors(q_hat: np.ndarray, q_true: np.ndarray) -> np.ndarray:
    d = q_hat - q_true
    return np.sum((d * d).reshape(-1, 4), axis=1)


def pose_errors(pose: Pose, truth: Pose):
    """Squared translation and rotation errors of K fitted poses.

    `truth` holds the K true poses, or one pose shared by all of them.
    Returns two (K,) arrays; entry k is what `dt @ dt` and
    `rotation_mse` give for trial k alone.
    """
    dt = pose.translation - truth.translation
    return _dot(dt, dt), _rotation_errors(pose.rotation.matrix, truth.rotation.matrix)
