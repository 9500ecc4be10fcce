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

`fit_alignment` and `estimate_pose` also take stacks of point sets with
a leading trial axis and fit every trial at once; one pair of point
sets is the K = 1 case of the same fit (`_fit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NO_ORIENTATION, raise_failure
from .geometry import Conformation, RotationMatrix

_AMBIGUITY_RATIO = 1e-8


def _as_points(points, name: str) -> np.ndarray:
    pts = points.points if isinstance(points, Conformation) else np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != 2:
        raise ValueError(f"{name} must be a 2xN matrix")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} must be finite")
    return pts


@dataclass(frozen=True)
class PoseEstimate:
    """Fitted pose with the attained objective value.

    `ambiguous` is set when every rotation fits equally well: in the
    plane the objective depends on the angle only through the complex
    cross term z = sum_n conj(c_n) s_n of the centred points, so the
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


class PoseBatch(NamedTuple):
    """Poses fitted to K landmark sets; a trial whose fit failed is NaN."""

    rotations: np.ndarray     # (K, 2, 2)
    translations: np.ndarray  # (K, 2)


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
    (R, t) : (ndarray (2, 2), ndarray (2,))
    """
    if np.ndim(source) == 3 or np.ndim(target) == 3:
        return _fit_stacks(source, target, allow_reflection)
    c, s = _validated(source, target, "source", "target")
    r, t, _, degenerate = _fit(c[None], s[None], allow_reflection)
    if degenerate[0]:
        raise_failure(NO_ORIENTATION)
    return r[0], t[0]


def _fit_stacks(source, target, allow_reflection: bool):
    """Fits of a (K, 2, N) stack against another or a shared (2, N) set.

    Only shapes are checked: a trial with non-finite points, or with no
    orientation to fit, gets a NaN map and shift.
    """
    c = source.points if isinstance(source, Conformation) else np.asarray(source, dtype=float)
    s = np.asarray(target, dtype=float)
    c, s = (p if p.ndim == 3 else p[None] for p in (c, s))
    if c.shape[1:] != s.shape[1:] or c.shape[1] != 2 or c.shape[2] < 2:
        raise ValueError("point sets must be stacks of matching 2xN matrices")
    r, t, _, degenerate = _fit(c, s, allow_reflection)
    r[degenerate] = np.nan
    t[degenerate] = np.nan
    return r, t


def _validated(source, target, source_name: str, target_name: str):
    c = _as_points(source, source_name)
    s = _as_points(target, target_name)
    if s.shape != c.shape:
        raise ValueError("point sets must have matching shapes")
    if s.shape[1] < 2:
        raise ValueError("need at least 2 points to fit an alignment")
    return c, s


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


def estimate_pose(landmarks: np.ndarray, conformation) -> PoseEstimate:
    """Fit the rigid pose mapping the body shape onto estimated landmarks.

    Parameters
    ----------
    landmarks : ndarray, shape (2, N), or (K, 2, N) for K trials
        Estimated world positions (the fit target). A stack returns a
        `PoseBatch`, NaN where a trial's fit fails, instead of raising.
    conformation : Conformation or ndarray (2, N)
        Known body-frame shape. Two-point shapes are accepted: a segment
        fixes the rotation, since only a proper rotation is allowed.

    Returns
    -------
    PoseEstimate
        Proper rotation, translation, attained objective, ambiguity flag.
        For a (K, 2, N) stack, a PoseBatch.

    Raises
    ------
    DegenerateGeometryError
        If the point sets are degenerate (rank-0 cross
        covariance, e.g. all points coincident).
    """
    if np.ndim(landmarks) == 3:
        return PoseBatch(*_fit_stacks(conformation, landmarks, False))
    c, s = _validated(conformation, landmarks, "conformation", "landmarks")
    r, t, ambiguous, degenerate = _fit(c[None], s[None], allow_reflection=False)
    if degenerate[0]:
        raise_failure(NO_ORIENTATION)
    r, t, ambiguous = r[0], t[0], bool(ambiguous[0])
    resid = s - (r @ c + t[:, None])
    objective = float(np.sum(np.sum(resid * resid, axis=0)))
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
    return float(_rotation_errors(a[None], b[None])[0])


def _rotation_errors(q_hat: np.ndarray, q_true: np.ndarray) -> np.ndarray:
    d = q_hat - q_true
    return np.sum((d * d).reshape(-1, 4), axis=1)


def pose_errors(pose: PoseBatch, rotations: np.ndarray, translations: np.ndarray):
    """Squared translation and rotation errors of K fitted poses.

    `rotations` (K, 2, 2) and `translations` (K, 2) are the true poses,
    or one shared pose with K = 1. Returns two (K,) arrays; entry k is
    what `dt @ dt` and `rotation_mse` give for trial k alone.
    """
    dt = pose.translations - translations
    return _dot(dt, dt), _rotation_errors(pose.rotations, rotations)
