"""Landmark coordinate estimators.

Three methods are provided behind one dispatch function:

``mds``
    Classic multidimensional scaling on the measured distances, aligned
    to the known anchors. Ignores bearing measurements entirely.
``smds_full``
    Edge-kernel estimator using both distances and bearings. With a
    shared bearing reference and exact AA and TT edges, the AA and TT
    blocks of the kernel minor enter the AT update only as
    ``||v_AA||^2 v_AT`` and ``||v_TT||^2 v_AT``, and the normalisation
    cancels them, so the minor's fixed point is the measured AT edge
    block itself. Landmark positions are then the anchored least squares
    of those edges: x_n = mean_m(a_m + d_mn exp(j theta_mn)).
``smds_distance_only``
    Bootstrap for bearing-free operation: run MDS first, reconstruct
    edge angles from the embedded coordinates, and feed those synthetic
    bearings through the ``smds_full`` path.

All routines are pure functions of their inputs. ``solve_landmarks``
keeps the MDS embedding of the last measurement set it saw, so ``mds``
and ``smds_distance_only`` on one set share one eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edges import PairIndex
from .errors import (ConfigurationError, DegenerateGeometryError,
                     NumericalFailureError)
from .geometry import AnchorSet, Conformation
from .procrustes import fit_alignment

METHODS = ("mds", "smds_full", "smds_distance_only")


@dataclass(frozen=True)
class SolverConfig:
    """Method selection for `solve_landmarks`."""

    method: str = "smds_full"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}, expected one of {METHODS}")


@dataclass(frozen=True)
class LandmarkEstimate:
    """Estimated landmark coordinates with solver diagnostics."""

    coordinates: np.ndarray
    iterations_used: int
    converged: bool
    residual: float
    method: str

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=float)
        if not np.all(np.isfinite(coords)):
            raise NumericalFailureError("landmark estimate is not finite")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coordinates", coords)


def coordinates_from_edges(v_at: np.ndarray, anchors, index: PairIndex) -> np.ndarray:
    """Solve for landmark positions from anchor-target edges.

    Each AT edge gives one linear equation x_n = a_m + v_(m,n); with the
    anchors known, the least-squares solution decouples per target into
    the average over anchors.

    Parameters
    ----------
    v_at : ndarray of complex, length M*N
        AT edges in canonical (anchor-major) order.
    anchors : AnchorSet or ndarray (2, M)
    index : PairIndex

    Returns
    -------
    ndarray, shape (2, N)
    """
    pos = anchors.positions if isinstance(anchors, AnchorSet) else np.asarray(anchors, dtype=float)
    m, n = index.n_anchors, index.n_targets
    if m == 0:
        raise ValueError("no anchors: target positions are underdetermined")
    if pos.shape != (2, m):
        raise ValueError("anchor matrix shape does not match the pair index")
    v_at = np.asarray(v_at, dtype=complex)
    if v_at.shape != (m * n,):
        raise ValueError("expected one AT edge per anchor-target pair")
    a = pos[0] + 1j * pos[1]
    x_hat = (a[:, None] + v_at.reshape(m, n)).mean(axis=0)
    return np.vstack([x_hat.real, x_hat.imag])


def embed_distances(dist_matrix: np.ndarray) -> np.ndarray:
    """Classic MDS embedding of a full symmetric distance matrix.

    Double-centers the squared distances and keeps the two dominant
    nonnegative eigenpairs. A rank-1 Gram matrix (collinear nodes)
    yields a zero second coordinate.

    Returns
    -------
    ndarray, shape (2, T)
        Embedded coordinates, centered but in an arbitrary orientation.

    Raises
    ------
    DegenerateGeometryError
        If fewer than two dominant eigenvalues are nonnegative (up to
        a small tolerance for roundoff).
    """
    d = np.asarray(dist_matrix, dtype=float)
    t = d.shape[0]
    if d.shape != (t, t):
        raise ValueError("distance matrix must be square")
    h = np.eye(t) - np.full((t, t), 1.0 / t)
    b = -0.5 * h @ (d * d) @ h
    b = 0.5 * (b + b.T)
    w, u = np.linalg.eigh(b)
    lam1, lam2 = w[-1], w[-2]
    if lam1 <= 0.0:
        raise DegenerateGeometryError("distance data admit no planar embedding")
    if lam2 < -1e-9 * lam1:
        raise DegenerateGeometryError(
            "second Gram eigenvalue is negative: no planar embedding")
    lam2 = max(lam2, 0.0)
    y = u[:, [-1, -2]] * np.sqrt([lam1, lam2])
    return y.T


def classic_mds(distances: np.ndarray, anchors: AnchorSet,
                index: PairIndex) -> np.ndarray:
    """Estimate target positions from pair distances alone.

    Runs classic MDS on the full distance set, then aligns the embedded
    anchor subset onto the known anchor positions with a similarity
    transform (reflection allowed, since MDS chirality is arbitrary).

    Returns
    -------
    ndarray, shape (2, N)
        Aligned target coordinates.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.shape != (index.n_pairs,):
        raise ValueError("expected one distance per pair")
    return _aligned_targets(embed_distances(_distance_matrix(distances, index)),
                            anchors, index.n_anchors)


def _distance_matrix(distances: np.ndarray, index: PairIndex) -> np.ndarray:
    t = index.n_nodes
    dmat = np.zeros((t, t))
    dmat[index.first, index.second] = distances
    return dmat + dmat.T


def _aligned_targets(coords: np.ndarray, anchors: AnchorSet, m: int) -> np.ndarray:
    """Map an embedding onto the anchors; returns its target columns."""
    rot, shift = fit_alignment(coords[:, :m], anchors.positions,
                               allow_reflection=True)
    aligned = rot @ coords + shift[:, None]
    return aligned[:, m:]


# The last MeasurementSet embedded and its (2, T) embedding. `mds` and
# `smds_distance_only` of one trial embed the same set, so the second
# reuses the first's eigendecomposition. Matching by identity is sound:
# a MeasurementSet is frozen and its arrays are read-only, and the strong
# reference keeps its id from being reused.
_last_embedding = (None, None)


def _embedding(meas) -> np.ndarray:
    global _last_embedding
    cached_meas, cached = _last_embedding
    if cached_meas is meas:
        return cached
    coords = embed_distances(_distance_matrix(meas.distances, meas.index))
    coords.flags.writeable = False
    _last_embedding = (meas, coords)
    return coords


def reconstruct_angles(coords: np.ndarray, index: PairIndex) -> np.ndarray:
    """Edge angles implied by node coordinates, in canonical pair order.

    With exact anchors in the leading columns, the AA block of the
    result is automatically exact.

    Parameters
    ----------
    coords : ndarray
        Either complex positions (length T) or a real (2, T) matrix.
    index : PairIndex
    """
    coords = np.asarray(coords)
    if coords.ndim == 2:
        coords = coords[0] + 1j * coords[1]
    if coords.shape != (index.n_nodes,):
        raise ValueError("coordinate count does not match the pair index")
    v = coords[index.second] - coords[index.first]
    if np.any(np.abs(v) == 0.0):
        raise DegenerateGeometryError("coincident nodes have no edge direction")
    return np.angle(v)


def _smds_from_polar(distances: np.ndarray, angles: np.ndarray,
                     anchors: AnchorSet, index: PairIndex) -> np.ndarray:
    """Closed-form SMDS estimate from per-pair polar edge data."""
    at = index.at
    v_at = np.asarray(distances)[at] * np.exp(1j * np.asarray(angles)[at])
    return coordinates_from_edges(v_at, anchors, index)


def solve_landmarks(meas, anchors: AnchorSet | np.ndarray,
                    conformation: Conformation | None = None,
                    config: SolverConfig | None = None) -> LandmarkEstimate:
    """Estimate landmark world coordinates from one measurement set.

    Parameters
    ----------
    meas : MeasurementSet
    anchors : AnchorSet or ndarray (2, M)
        Known anchor positions; a raw array is validated and wrapped.
    conformation : Conformation, optional
        Known body shape; used only to cross-check the target count.
    config : SolverConfig, optional
        Defaults to the full estimator.

    Returns
    -------
    LandmarkEstimate
    """
    cfg = config or SolverConfig()
    index = meas.index
    if not isinstance(anchors, AnchorSet):
        anchors = AnchorSet(anchors)
    if anchors.n_anchors != index.n_anchors:
        raise ValueError("anchor count does not match the measurement index")
    if conformation is not None and conformation.n_points != index.n_targets:
        raise ValueError("conformation size does not match the measurement index")

    if cfg.method == "smds_full":
        coords = _smds_from_polar(meas.distances, meas.angles, anchors, index)
    else:
        coords = _aligned_targets(_embedding(meas), anchors, index.n_anchors)
        if cfg.method == "smds_distance_only":
            # bootstrap bearings from the MDS estimate
            angles = reconstruct_angles(np.hstack([anchors.positions, coords]), index)
            coords = _smds_from_polar(meas.distances, angles, anchors, index)
    return LandmarkEstimate(coords, 0, True, 0.0, cfg.method)
