"""Fisher information and Cramer-Rao bounds for the body pose.

The unknown parameter is the pose (t_x, t_y, alpha); landmark positions
are a deterministic function of it through the known conformation. Only
anchor-target measurements inform the pose: anchor-anchor pairs involve
no unknowns, and exact target-target values are already encoded by the
known shape.

Measurement intensities follow the simulated models: 1/sigma^2 for
ranges (Gaussian approximation of the gamma model, valid for
d/sigma >> 1) and rho * I1(rho)/I0(rho) for von Mises bearings (the
exact Fisher information for the mean direction). The Bessel ratio comes
from `measurements.bessel_ratio`, the same von Mises quadrature that
converts zeta to rho, and is computed once per rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Scene
from .measurements import NoiseConfig, bessel_ratio, zeta_to_rho

_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class FisherInformation:
    """Joint 3x3 FIM over (t_x, t_y, alpha) with extracted bounds.

    Attributes
    ----------
    matrix : ndarray, shape (3, 3)
        Symmetric positive semi-definite information matrix.
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
        if m.shape != (3, 3):
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


def _pose_gradients(scene: Scene):
    """Stack d/d(t_x, t_y, alpha) of every AT range and bearing."""
    a = scene.anchors.positions
    s = scene.landmarks
    alpha = scene.pose.rotation.angle
    ca, sa = np.cos(alpha), np.sin(alpha)
    qprime = np.array([[-sa, -ca], [ca, -sa]])
    # ds_n/dalpha, one column per landmark
    dsda = qprime @ scene.conformation.points

    e = s[:, None, :] - a[:, :, None]
    d = np.linalg.norm(e, axis=0)
    u = e / d
    uperp = np.stack([-u[1], u[0]])
    proj_d = np.einsum("kmn,kn->mn", u, dsda)
    proj_psi = np.einsum("kmn,kn->mn", uperp, dsda)
    g_d = np.stack([u[0], u[1], proj_d])
    g_psi = np.stack([uperp[0] / d, uperp[1] / d, proj_psi / d])
    return g_d, g_psi


def _bounds(matrix: np.ndarray):
    w = np.linalg.eigvalsh(matrix)
    if w[0] <= _SINGULAR_RTOL * max(w[-1], np.finfo(float).tiny):
        return np.inf, np.inf, np.inf
    inv = np.linalg.inv(matrix)
    crlb_t = float(inv[0, 0] + inv[1, 1])
    crlb_alpha = float(inv[2, 2])
    return crlb_t, crlb_alpha, 2.0 * crlb_alpha


def compute_fim(scene: Scene, noise: NoiseConfig, use_distances: bool = True,
                use_bearings: bool = True) -> FisherInformation:
    """Fisher information of the pose from all anchor-target measurements.

    Parameters
    ----------
    scene : Scene
    noise : NoiseConfig
        sigma must be positive when distances are used, rho finite when
        bearings are used (exact channels make the bound trivial).
    use_distances, use_bearings : bool
        Restrict the measurement set; both enabled by default. The FIM
        is additive over the two sets.

    Returns
    -------
    FisherInformation
        A singular FIM yields infinite bounds rather than an exception.
    """
    g_d, g_psi = _pose_gradients(scene)
    fim = np.zeros((3, 3))
    if use_distances:
        if noise.sigma <= 0:
            raise ValueError("distance terms require sigma > 0")
        fim += np.einsum("imn,jmn->ij", g_d, g_d) / noise.sigma ** 2
    if use_bearings:
        lam = bearing_intensity(noise.rho)
        if lam > 0:
            fim += lam * np.einsum("imn,jmn->ij", g_psi, g_psi)
    fim = 0.5 * (fim + fim.T)
    crlb_t, crlb_alpha, crlb_q = _bounds(fim)
    return FisherInformation(fim, crlb_t, crlb_alpha, crlb_q)


def crlb_curve(scene: Scene, sigma_grid, zeta: float) -> list[FisherInformation]:
    """Evaluate the bounds over a sigma sweep at fixed bearing accuracy.

    Parameters
    ----------
    scene : Scene
    sigma_grid : iterable of float
        Positive range noise levels; must be non-empty.
    zeta : float
        Bearing 90th-percentile half-width in radians.
    """
    grid = [float(s) for s in sigma_grid]
    if not grid:
        raise ValueError("sigma grid must not be empty")
    rho = zeta_to_rho(zeta)
    out = []
    for sigma in grid:
        noise = NoiseConfig(sigma=sigma, rho=rho)
        out.append(compute_fim(scene, noise))
    return out
