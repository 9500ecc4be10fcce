"""Fisher information and Cramer-Rao bounds for the body pose.

The unknown parameter is the pose (t_x, t_y, alpha); landmark positions
are a deterministic function of it through the known conformation. Only
anchor-target measurements inform the pose: anchor-anchor pairs involve
no unknowns, and exact target-target values are already encoded by the
known shape. The (K, M, N) AT block is differentiated in complex form,
on the scene's (K, N) complex landmarks and the unit complex numbers
q = e^{j alpha} its pose holds (see `_pose_gradients`). F_ij and F_ji
are the same products summed in the same order, so the FIM is exactly
symmetric with no symmetrising step.

Measurement intensities follow the simulated models: 1/sigma^2 for
ranges (Gaussian approximation of the gamma model, valid for
d/sigma >> 1) and rho * I1(rho)/I0(rho) for von Mises bearings (the
exact Fisher information for the mean direction). The Bessel ratio comes
from `measurements.bessel_ratio`, the same von Mises quadrature that
converts zeta to rho, and is computed once per rho.

`compute_fim` bounds the K poses of a `Scene` at once, on arrays with a
leading trial axis, and returns one `FisherInformation` holding all K;
a one-pose scene is the K = 1 case of the same code. A noise config
with one sigma per trial scales each trial's range term by its own
1/sigma^2, so one pose under K sigma values also gives K bounds: the
bound curve over a sigma grid is one `compute_fim` call, and entry k
equals the one-sigma call at sigma_k bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import Scene, _complex
from .measurements import NoiseConfig, bessel_ratio

_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class FisherInformation:
    """Joint 3x3 FIM over (t_x, t_y, alpha) with extracted bounds.

    Attributes
    ----------
    matrix : ndarray, shape (3, 3)
        Symmetric positive semi-definite information matrix. For a
        scene of K poses, or K sigma values, it is (K, 3, 3) and each
        bound a (K,) array.
    crlb_t : float
        Lower bound on E||t_hat - t||^2, the trace of the translation
        block of the inverse FIM. Infinite when the FIM is singular.
    crlb_alpha : float
        Lower bound on the rotation angle variance.
    crlb_q : float
        Frobenius-MSE bound for the rotation matrix, 2 * crlb_alpha via
        the local expansion ||Q(a + da) - Q(a)||_F^2 ~ 2 da^2.
    """

    matrix: np.ndarray
    crlb_t: float
    crlb_alpha: float
    crlb_q: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        if m.shape[-2:] != (3, 3) or m.ndim > 3:
            raise ValueError("FIM must be 3x3")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def bearing_intensity(rho: float) -> float:
    """Fisher information of a von Mises bearing about its mean direction."""
    rho = float(rho)
    if not rho >= 0.0:
        raise ValueError("rho must be nonnegative")
    if np.isinf(rho):
        raise ValueError("exact bearings carry unbounded information")
    return rho * bessel_ratio(rho)


def _pose_gradients(anchors, points, landmarks, q):
    """The parts of d/d(t_x, t_y, alpha) of every AT range and bearing, for K poses.

    Every argument is complex: the (M,) anchors, the (N,) body points
    c_n, the (K, N) landmarks s_n and the (K,) rotations q = exp(j alpha).
    With e = s_n - a_m, u = e/|e| and w_n = j q c_n the derivative of
    s_n = q c_n + t in alpha, a range moves in (t_x, t_y, alpha) by
    (Re u, Im u, Re(conj(u) w_n)) and a bearing by
    (-Im u, Re u, Im(conj(u) w_n)) / |e|. Returns the (K, M, N) arrays u,
    conj(u) w_n and |e|, from which `compute_fim` stacks one channel's
    (K, 3, M, N) gradients at a time.
    """
    # elementwise, so K poses give each pose's one-pose values bit for bit
    w = 1j * q[:, None] * points
    u = landmarks[:, None, :] - anchors[:, None]
    d = np.abs(u)
    u /= d
    uw = np.conj(u)
    uw *= w[:, None, :]
    return u, uw, d


def _pose_bounds(fims: np.ndarray):
    """(crlb_t, crlb_alpha, crlb_q) of each (3, 3) FIM in a (K, 3, 3) stack.

    A singular FIM yields infinite bounds. The test runs on D^-1/2 F D^-1/2,
    D the diagonal of F, so it does not depend on the units of length:
    the translation entries scale as 1/s^2 and the angle entry does not.
    """
    d = np.sqrt(np.diagonal(fims, axis1=1, axis2=2))
    zero = np.any(d == 0.0, axis=1)
    d[zero] = 1.0
    w = np.linalg.eigvalsh(fims / (d[:, :, None] * d[:, None, :]))
    singular = zero | (w[:, 0] <= _SINGULAR_RTOL * w[:, -1])
    inv = np.full(fims.shape, np.inf)
    if not singular.all():
        inv[~singular] = np.linalg.inv(fims[~singular])
    crlb_alpha = inv[:, 2, 2]
    return inv[:, 0, 0] + inv[:, 1, 1], crlb_alpha, 2.0 * crlb_alpha


def compute_fim(scene: Scene, noise: NoiseConfig, use_distances: bool = True,
                use_bearings: bool = True) -> FisherInformation:
    """Fisher information of the pose from all anchor-target measurements.

    Parameters
    ----------
    scene : Scene
        One pose, or K poses for one FIM per pose.
    noise : NoiseConfig
        sigma must be positive when distances are used, rho finite when
        bearings are used (exact channels make the bound trivial). A 1-D
        sigma holds one value per pose, or K values for one pose, which
        then gets one FIM per value.
    use_distances, use_bearings : bool
        Restrict the measurement set; both enabled by default. The FIM
        is additive over the two sets.

    Returns
    -------
    FisherInformation
        A singular FIM yields infinite bounds rather than an exception.
        Its bounds are floats for one pose and a scalar sigma, (K,)
        arrays otherwise.

    Raises
    ------
    ConfigurationError
        If a sigma is so small that 1/sigma^2 times the range terms
        overflows (below about 1e-154 m on a room-sized scene).
    ValueError
        If a 1-D sigma of a scene of K poses does not hold K values.
    """
    lm = scene.landmarks
    sigmas = np.ndim(noise.sigma) and len(noise.sigma)
    if sigmas and lm.ndim == 2 and sigmas != len(lm):
        raise ValueError(f"{sigmas} sigma values for a scene of {len(lm)} poses")
    u, uw, d = _pose_gradients(_complex(scene.anchors.positions),
                               _complex(scene.conformation.points), np.atleast_2d(lm),
                               np.atleast_1d(scene.pose.rotation.q))
    sigma = np.atleast_1d(noise.sigma)
    variance = np.square(sigma)
    # one pose under K sigma values broadcasts its gradients over them
    fim = np.zeros((max(len(u), len(variance)), 3, 3))
    # one (K, 3, M, N) buffer takes each channel's gradients in turn
    g = np.empty((len(u), 3, *u.shape[1:]))
    if use_distances:
        if np.any(sigma <= 0):
            raise ValueError("distance terms require sigma > 0")
        np.copyto(g[:, 0], u.real)
        np.copyto(g[:, 1], u.imag)
        np.copyto(g[:, 2], uw.real)
        # a sigma so small that its range information 1/sigma^2 overflows, or
        # its square underflows to 0, raises here, at no cost otherwise
        with np.errstate(over="raise", divide="raise"):
            try:
                fim += np.einsum("Kimn,Kjmn->Kij", g, g) / variance[:, None, None]
            except FloatingPointError:
                raise ConfigurationError(
                    f"sigma {sigma.min():g} is too small: the range information "
                    "1/sigma^2 of the bound overflows") from None
    if use_bearings:
        lam = bearing_intensity(noise.rho)
        if lam > 0:
            np.negative(u.imag, out=g[:, 0])
            np.copyto(g[:, 1], u.real)
            np.copyto(g[:, 2], uw.imag)
            g /= d[:, None]
            fim += lam * np.einsum("Kimn,Kjmn->Kij", g, g)
    bounds = _pose_bounds(fim)
    if lm.ndim == 2 or sigmas:
        return FisherInformation(fim, *bounds)
    return FisherInformation(fim[0], *(float(b[0]) for b in bounds))
