"""Noisy range and bearing measurement simulation.

Distances are gamma distributed with the true distance as mean and a
configurable standard deviation sigma. Bearings (angle of arrival) are
von Mises distributed around the true edge direction with concentration
rho; all sensors share one global reference direction (the world x-axis),
so a measured angle is directly the argument of the complex edge.

Bearing accuracy is often stated instead as the half-width zeta of the
interval around the true angle that captures 90 percent of the
probability mass; `zeta_to_rho` and `rho_to_zeta` convert between the
two, and a `NoiseConfig` takes rho only. Both conversions, and the
Bessel ratio I1(rho)/I0(rho) that the bearing Fisher information needs
(`bessel_ratio`), come from one exact quadrature of the von Mises
density in numpy; `zeta_to_rho` and `bessel_ratio` compute each
distinct argument once per process.

Anchor-anchor (AA) pairs are known geometry and exact. Anchor-target
(AT) pairs are the measurements: a noisy distance and a noisy bearing
each. Target-target (TT) pairs carry a distance only, exact by default
and noisy in an optional mode; no TT bearing is simulated, so their
angles are NaN. `generate_measurements` measures one scene once, or each
of K trials from its own generator at once, and returns one
`Measurements` type either way. A `NoiseConfig` holds one sigma, or one
per trial. Each trial's draws are bit for bit those of `sample_distance`
and `sample_angle` at its sigma and rho.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .edges import PairIndex, build_pair_index
from .errors import ConfigurationError, DegenerateGeometryError
from .geometry import Scene, _generators, _is_real

ZETA_MAX = 0.9 * np.pi

# Von Mises integrals use a 20-point Gauss-Legendre rule on each of 12
# equal panels of the density's effective support. Against adaptive
# quadrature and reference Bessel functions the mass and I1/I0 agree to
# about 2e-15 for rho in [1e-3, 1e7] and zeta in (0, pi]; 16 nodes on 8
# panels reach only about 1e-12.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_PANELS = 12
# the support ends where the scaled density falls below exp(-2 * _TAIL)
_TAIL = 350.0


def wrap_angle(theta):
    """Wrap angles to the interval [-pi, pi).

    Bit for bit `(theta + pi) % (2 pi) - pi`, for every float. The
    remainder runs only on entries whose shifted value theta + pi lies
    outside [0, 2 pi), NaN included; inside that range it is the value
    itself, exactly, so the others skip it.
    """
    shifted = np.asarray(theta) + np.pi
    s = np.atleast_1d(shifted)  # a 0-d input becomes a writable copy
    outside = ~((s >= 0.0) & (s < 2.0 * np.pi))
    if outside.any():
        s[outside] = np.remainder(s[outside], 2.0 * np.pi)
    s -= np.pi
    return s if np.ndim(shifted) else s[0]


def _support(rho: float) -> float:
    """Half-width beyond which the scaled density is below exp(-700)."""
    return math.pi if rho <= _TAIL else 2.0 * math.asin(math.sqrt(_TAIL / rho))


def _panel_rule(b: float):
    """Composite Gauss-Legendre nodes and weights on [0, b]."""
    h = b / _PANELS
    theta = h * (np.arange(_PANELS)[:, None] + 0.5 * (_GL_NODES + 1.0))
    return theta.ravel(), np.tile(0.5 * h * _GL_WEIGHTS, _PANELS)


def _scaled_density(theta, rho: float):
    """exp(rho * (cos(theta) - 1)), the von Mises density up to a constant.

    Written with 2 sin^2(theta/2) = 1 - cos(theta), which keeps its
    relative precision at small theta and large rho.
    """
    return np.exp(-rho * (2.0 * np.sin(0.5 * theta) ** 2))


def _half_mass(b: float, rho: float) -> float:
    """Integral of the scaled density over [0, b]."""
    theta, weights = _panel_rule(b)
    return float(weights @ _scaled_density(theta, rho))


def _percentile_mass(zeta: float, rho: float) -> float:
    """Probability mass of a centered von Mises within [-zeta, zeta]."""
    if rho == 0.0:
        return zeta / np.pi
    top = _support(rho)
    return _half_mass(min(zeta, top), rho) / _half_mass(top, rho)


def _bisect(f, lo: float, hi: float) -> float:
    """Root of an increasing f with f(lo) < 0 <= f(hi), to the last bit."""
    while True:
        # halved before the sum, which cannot then overflow; halving is
        # exact, so this is 0.5 * (lo + hi) bit for bit
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def zeta_to_rho(zeta: float) -> float:
    """Concentration rho whose 90th centered percentile half-width is zeta.

    Parameters
    ----------
    zeta : float
        Half-width in radians, in (0, 0.9*pi]. The upper end maps to
        rho = 0 (the uniform limit holds exactly 90 percent of its mass
        within +-0.9*pi).

    Returns
    -------
    float
        rho >= 0 such that the von Mises mass on [-zeta, zeta] is 0.9.
        Each zeta is solved once per process and then looked up.
    """
    zeta = float(zeta)
    if not (0.0 < zeta <= ZETA_MAX + 1e-12):
        raise ValueError("zeta must lie in (0, 0.9*pi]")
    return _solve_rho(zeta)


@functools.lru_cache(maxsize=64)
def _solve_rho(zeta: float) -> float:
    if _percentile_mass(zeta, 0.0) >= 0.9:
        return 0.0
    # twice the normal-limit root (z_0.95 / zeta)^2 brackets it: there the
    # mass is 0.98 as zeta -> 0, and at least 0.96 anywhere in (0, 0.9*pi).
    # Squared by multiplication, which overflows to inf for tiny zeta where
    # a float power raises OverflowError; the bracket is then the largest
    # float, and the root is inf only if the mass there is still short
    w = 1.6449 / zeta
    hi = max(4.0, 2.0 * w * w)
    if math.isinf(hi):
        hi = sys.float_info.max
        if _percentile_mass(zeta, hi) < 0.9:
            return math.inf
    return _bisect(lambda r: _percentile_mass(zeta, r) - 0.9, 0.0, hi)


def rho_to_zeta(rho: float) -> float:
    """Half-width of the 90th centered percentile for concentration rho."""
    rho = float(rho)
    if not rho >= 0.0:
        raise ValueError("rho must be nonnegative")
    if rho == 0.0:
        return ZETA_MAX
    if np.isinf(rho):
        return 0.0
    top = _support(rho)
    target = 0.9 * _half_mass(top, rho)
    return _bisect(lambda z: _half_mass(z, rho) - target, 0.0, top)


@functools.lru_cache(maxsize=64)
def bessel_ratio(rho: float) -> float:
    """I1(rho)/I0(rho), the mean resultant length of a von Mises(rho) angle.

    Folding [0, pi] onto [0, pi/2] turns the numerator, the integral of
    cos(theta) times the density, into one with a nonnegative integrand,
    so the ratio keeps full relative precision as rho -> 0. Takes a
    finite float rho >= 0; each rho is computed once per process.
    """
    top = _support(rho)
    theta, weights = _panel_rule(min(0.5 * math.pi, top))
    c = np.cos(theta)
    # density(theta) - density(pi - theta) = density(theta) * (1 - exp(-2 rho c))
    folded = c * _scaled_density(theta, rho) * -np.expm1(-2.0 * rho * c)
    return float(weights @ folded) / _half_mass(top, rho)


def _has_finite_square(sigma) -> bool:
    """Whether every sigma has a finite square, the variance of its range.

    True up to about 1.34e154; NaN and inf fail.
    """
    with np.errstate(over="ignore"):
        return bool(np.all(np.isfinite(np.square(np.asarray(sigma, dtype=float)))))


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement noise levels.

    Bearing noise is stated as the concentration `rho` alone; a caller
    holding a 90th-percentile half-width converts it with `zeta_to_rho`.

    Attributes
    ----------
    sigma : float or tuple of K floats
        Distance noise standard deviation in meters; 0 disables it, and
        its square must be finite (sigma up to about 1.34e154). A
        1-D array or sequence holds one value per trial, for K trials
        measured or bounded at once, and is stored as a tuple.
    rho : float
        Bearing concentration; 0 is uniform, inf disables bearing noise.
        Required.
    tt_noisy : bool
        Apply distance noise to target-target pairs too (default: exact).
    """

    sigma: float | tuple
    rho: float | None = None
    tt_noisy: bool = False

    def __post_init__(self):
        sigma = self.sigma
        if not _is_real(sigma):
            sigma = np.asarray(sigma)
            if sigma.dtype.kind not in "iuf" or sigma.ndim > 1 or sigma.ndim and not sigma.size:
                raise ConfigurationError(
                    "sigma must be a number or a nonempty 1-D array of numbers")
        values = np.atleast_1d(np.asarray(sigma, dtype=float))
        if not _has_finite_square(values) or np.any(values < 0):
            raise ConfigurationError(
                "sigma must be nonnegative with a finite square (at most about 1.34e154)")
        object.__setattr__(self, "sigma",
                           tuple(values.tolist()) if np.ndim(sigma) else float(sigma))
        if not isinstance(self.tt_noisy, (bool, np.bool_)):
            raise ConfigurationError("tt_noisy must be true or false")
        if self.rho is None:
            raise ConfigurationError("specify bearing noise via rho")
        if not _is_real(self.rho):
            raise ConfigurationError("rho must be a number")
        rho = float(self.rho)
        if np.isnan(rho) or rho < 0:
            raise ConfigurationError("rho must be nonnegative")
        object.__setattr__(self, "rho", rho)


@dataclass(eq=False)
class Measurements:
    """Measured distance and angle of every node pair, in canonical order.

    `distances` and `angles` are (P,) arrays for one trial, or (K, P)
    with a row per trial, on one pair index; the pair class (AA, AT, TT)
    of each entry follows from `index`. A TT pair has no bearing: its
    angle is NaN in simulated measurements, and no estimator reads it.
    Simulated arrays sit in plain row order, but any layout is taken as
    given, not copied, and made read-only; no result depends on it. The
    solvers keep the MDS embedding of the distances in `embedding` once
    they have computed it, so every method solved on one set shares one
    embedding per trial.
    """

    index: PairIndex
    distances: np.ndarray
    angles: np.ndarray
    embedding: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        th = np.asarray(self.angles, dtype=float)
        if d.ndim not in (1, 2) or d.shape[-1] != self.index.n_pairs or th.shape != d.shape:
            raise ValueError("measurement arrays must have one entry per pair")
        # a gamma draw may underflow to 0.0; no estimator divides by it
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite and nonnegative")
        # read-only, so the cached embedding always matches the distances
        d.flags.writeable = th.flags.writeable = False
        self.distances, self.angles = d, th


def sample_distance(true_d, sigma: float, rng: np.random.Generator):
    """Draw gamma distance samples with mean true_d and std sigma.

    Shape and scale follow from the stated moments: k = (d/sigma)^2,
    scale = sigma^2/d. Works elementwise on arrays; sigma = 0 returns
    the true values unchanged.
    """
    d = np.asarray(true_d, dtype=float)
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ValueError("true distance must be finite and positive")
    if sigma < 0 or not np.isfinite(sigma):
        raise ValueError("sigma must be finite and nonnegative")
    if sigma == 0.0:
        return d.copy() if d.ndim else float(d)
    out = rng.gamma((d / sigma) ** 2, sigma * sigma / d)
    return out if d.ndim else float(out)


def sample_angle(true_theta, rho: float, rng: np.random.Generator):
    """Draw von Mises bearing samples centered at true_theta, in [-pi, pi).

    rho = 0 gives uniform bearings; rho = inf returns the true angles.
    """
    th = np.asarray(true_theta, dtype=float)
    if rho < 0 or np.isnan(rho):
        raise ValueError("rho must be nonnegative")
    out = wrap_angle(th if np.isinf(rho) else rng.vonmises(th, rho))
    return out if th.ndim else float(out)


def generate_measurements(scene: Scene, noise: NoiseConfig, rng) -> Measurements:
    """Simulate one measurement of every node pair in a scene.

    AA pairs keep their exact distances and angles, AT pairs get a noisy
    distance and bearing, and TT pairs their exact distance, noisy under
    `noise.tt_noisy`. No TT bearing is simulated: the TT angles are NaN.
    Each trial draws from its own generator alone, in a fixed order: AT
    distances, then AT bearings, then TT distances if `noise.tt_noisy`.
    A trial with sigma 0 draws no distances, and rho = inf no bearings.

    Parameters
    ----------
    scene : Scene
        One pose, or K poses.
    noise : NoiseConfig
        A 1-D sigma holds one value per generator.
    rng : int, seed sequence, numpy.random.Generator, or list of Generator
        One seed or generator measures a one-pose scene once. A list (or
        tuple) of generators gives one row of measurements per generator:
        K of them for a scene of K poses, or any number for a one-pose
        scene, which they then share.

    Returns
    -------
    Measurements
        (P,) arrays for one seed, (K, P) for a list of K generators;
        angles wrapped to [-pi, pi).

    Raises
    ------
    ConfigurationError
        If a sigma is so small against the scene's distances that the
        gamma shape (d/sigma)^2 overflows (near d * 1e-154).
    DegenerateGeometryError
        If two nodes coincide (a zero edge).
    ValueError
        If a scene of K poses does not get a list of exactly K
        Generators, a list holds anything else, or a 1-D sigma does not
        hold one value per generator (one for a single seed).
    """
    index = build_pair_index(scene.n_anchors, scene.n_landmarks)
    x = scene.complex_positions()
    rngs, batched = _generators(rng)
    n = len(rngs)
    if x.ndim > 1 and not batched:
        raise ValueError("a scene of K poses needs a list of K numpy generators")
    if x.ndim > 1 and n != len(x):
        raise ValueError(f"a scene of {len(x)} poses needs {len(x)} generators, got {n}")
    if np.ndim(noise.sigma) and len(noise.sigma) != n:
        raise ValueError(f"{len(noise.sigma)} sigma values for {n} trials")
    x = np.atleast_2d(x)
    aa, at, tt = index.aa, index.at, index.tt
    first, second = index.first, index.second
    d_out, th_out = np.empty((n, index.n_pairs)), np.empty((n, index.n_pairs))
    # the anchors are the same in every trial, so the AA block is computed
    # once; the AT block gets a distance and an angle per trial, the TT
    # block a distance only. AT pair (i, j) is x_{M+j} - x_i, row-major in
    # (i, j), so the block is one broadcast difference; it has len(x) rows,
    # one for a shared scene whatever the number of generators
    m = index.n_anchors
    v_aa = x[:1, second[aa]] - x[:1, first[aa]]
    v_at = (x[:, None, m:] - x[:, :m, None]).reshape(len(x), -1)
    for block, v in ((aa, v_aa), (at, v_at)):
        d_out[:, block], th_out[:, block] = np.abs(v), wrap_angle(np.angle(v))
    d_out[:, tt] = np.abs(x[:, second[tt]] - x[:, first[tt]])
    th_out[:, tt] = np.nan
    if np.any(d_out == 0.0):
        raise DegenerateGeometryError("scene contains coincident nodes")
    # distance noise covers the AT block, and the TT block behind it if noisy
    noisy_d = slice(at.start, index.n_pairs if noise.tt_noisy else at.stop)
    sigma = np.broadcast_to(noise.sigma, (n,))[:, None]
    noisy = sigma[:, 0] > 0  # trials that draw distances
    noisy_bearings = not math.isinf(noise.rho)
    # gamma shape (d/sigma)^2 and scale sigma^2/d give mean d and std sigma;
    # numpy's gamma(shape, scale) is scale * standard_gamma(shape), draw
    # for draw, so only the standard draws run per trial
    d = d_out[:, noisy_d]  # the true distances, read before the noisy ones are written
    # shapes of noiseless trials go unused; a sigma so far below the scene's
    # distances that a shape overflows raises here, at no cost otherwise
    with np.errstate(divide="ignore", over="raise"):
        try:
            shape = d / sigma
            np.square(shape, out=shape)
        except FloatingPointError:
            raise ConfigurationError(
                f"sigma {sigma[noisy, 0].min():g} is too small for the scene: the gamma "
                "shape (d/sigma)^2 of its ranges overflows") from None
    gamma = np.zeros(shape.shape)
    n_at = index.n_at
    for k, rng in enumerate(rngs):
        if noisy[k]:
            rng.standard_gamma(shape[k, :n_at], out=gamma[k, :n_at])
        if noisy_bearings:
            th_out[k, at] = rng.vonmises(th_out[k, at], noise.rho)
        if noisy[k] and noise.tt_noisy:
            rng.standard_gamma(shape[k, n_at:], out=gamma[k, n_at:])
    gamma *= np.square(sigma) / d
    np.copyto(d, gamma, where=noisy[:, None])
    if noisy_bearings:
        th_out[:, at] = wrap_angle(th_out[:, at])
    if not batched:
        d_out, th_out = d_out[0], th_out[0]
    return Measurements(index, d_out, th_out)
