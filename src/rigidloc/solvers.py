"""Landmark coordinate estimators.

Three methods are provided behind one dispatch function,
`solve_landmarks`. It estimates the K trials of a `Measurements` at once
on arrays with a leading trial axis; one trial is the K = 1 case of that
code:

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
    Bootstrap for bearing-free operation: run MDS first, take the M*N
    AT bearings angle(x_n - a_m) from its target estimates, and feed
    them with the measured AT distances through the ``smds_full`` mean.

The MDS embedding needs only the two leading eigenpairs of the T x T
Gram matrix (T = M + N nodes). Below `_ITERATE_FROM` nodes (80, chosen
by measurement) they come from a full `np.linalg.eigh`. From there on
`_leading_pairs` finds them by block subspace iteration and keeps a
trial only with a certificate that no other eigenvalue comes near
lambda_2: lambda_2 > 0 and a Cholesky factor of
(1 - _GAP) lambda_2 I - (B - Y Lambda Y^T). A trial without one goes to
`eigh`, so failure codes are those of `eigh`, and estimates agree with
it to rounding. A `Measurements` keeps its MDS embedding once computed,
so ``mds`` and ``smds_distance_only`` on one set share one embedding per
trial. A failed trial of K is reported by a failure code from `errors`;
one trial raises that code's typed error instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edges import PairIndex
from .errors import (COINCIDENT_EDGES, NEGATIVE_GRAM, NO_EMBEDDING,
                     NO_ORIENTATION, NOT_FINITE, ConfigurationError,
                     raise_failure)
from .geometry import AnchorSet, Conformation
from .measurements import Measurements
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
class Landmarks:
    """Landmark estimates: (2, N) coordinates for one trial, (K, 2, N) for K.

    `status` holds the failure code from `errors` of each trial, 0 for
    success; a failed trial's coordinates carry no meaning. One trial
    that fails raises instead. `iterations_used` is 0, as for every
    closed-form method; `benchmark/spans.py` reads it.
    """

    coordinates: np.ndarray
    status: np.ndarray
    iterations_used: int = 0


def _anchored_mean(d_at: np.ndarray, th_at: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """x_n = mean_m(a_m + d_mn exp(j theta_mn)) for (K, M, N) AT edges; returns (K, 2, N)."""
    a = anchors[0] + 1j * anchors[1]
    x_hat = (a[:, None] + d_at * np.exp(1j * th_at)).mean(axis=1)
    out = np.empty((len(x_hat), 2, x_hat.shape[1]))
    out[:, 0], out[:, 1] = x_hat.real, x_hat.imag
    return out


def _at_bearings(targets: np.ndarray, anchors: np.ndarray):
    """AT bearings angle(x_n - a_m), (K, M, N), of (K, 2, N) targets.

    Also returns which trials put a target on an anchor (no bearing)."""
    x = targets[:, 0] + 1j * targets[:, 1]
    e = x[:, None, :] - (anchors[0] + 1j * anchors[1])[:, None]
    return np.angle(e), np.any(e == 0.0, axis=(1, 2))


# Node count T from which `_embed` takes the two leading eigenpairs by block
# subspace iteration instead of a full `eigh`: the smallest T at which,
# measured on a 2-core machine in the harness's chunks, `_embed` is no
# slower at any sigma up to 4 on the default room. Its time against the
# `eigh` path was 0.23-0.40 for sigma <= 2 and 0.87 at sigma = 4 at
# T = 80 (0.27-0.37 and 0.85 at T = 96); at T = 64, 1.15 at sigma = 4,
# and at T = 16, 1.75 at sigma = 2.
_ITERATE_FROM = 80
# block columns, products with B between Rayleigh-Ritz steps, and steps
_BLOCK, _POWERS, _MAX_STEPS = 4, 4, 20
# a trial is converged once both Ritz residuals are below this times ||B||_F
_RESIDUAL = 1e-14
# the certificate asks every other eigenvalue to lie below (1 - _GAP) lambda_2
_GAP = 1e-2
# a B with ||B||_F^2 above this could overflow in `_POWERS` products, so
# its trial goes straight to `eigh`, as does one that is not finite
_NORM2_MAX = 1e128


def _leading_pairs(b: np.ndarray):
    """Certified two leading eigenpairs of a (K, T, T) stack of symmetric B.

    Block subspace iteration from a fixed start block, drawn from a
    generator of its own, never a trial's: each step applies B
    `_POWERS` times, orthonormalises the block and takes its Rayleigh-Ritz
    pairs. A trial stops at the first step where both leading Ritz
    residuals are below `_RESIDUAL` ||B||_F, or where, at its last
    contraction of the residual, it would not get there within
    `_MAX_STEPS`. Every step works on each trial's own matrices, so a
    trial's result does not depend on the stack it sits in.

    A trial whose ||B||_F^2 is not finite or exceeds `_NORM2_MAX` is not
    iterated. A converged trial is certified when lambda_2 > 0 and
    (1 - _GAP) lambda_2 I - (B - Y Lambda Y^T) has a Cholesky factor: by
    Weyl's inequality no eigenvalue of B other than the two found then
    exceeds (1 - _GAP) lambda_2. Returns the (K, 2) eigenvalues in
    descending order, the (K, T, 2) eigenvectors and the (K,) mask of
    certified trials; the pairs of the others carry no meaning.
    """
    k, t = b.shape[:2]
    flat = b.reshape(k, 1, t * t)
    norm2 = (flat @ flat.transpose(0, 2, 1))[:, 0, 0]
    lam, vec = np.zeros((k, 2)), np.zeros((k, t, 2))
    found = np.zeros(k, dtype=bool)
    live = np.flatnonzero(norm2 <= _NORM2_MAX)
    bl, tol_l, last = b[live], _RESIDUAL ** 2 * norm2[live], np.full(len(live), np.inf)
    z = bl @ np.random.default_rng(0).standard_normal((t, _BLOCK))
    for step in range(1, _MAX_STEPS + 1):
        for _ in range(_POWERS - 1):
            z = bl @ z
        q = np.linalg.qr(z)[0]
        z = bl @ q
        h = q.transpose(0, 2, 1) @ z
        theta, s = np.linalg.eigh(0.5 * (h + h.transpose(0, 2, 1)))
        theta, s = theta[:, :-3:-1], s[:, :, :-3:-1]
        y = q @ s
        r = z @ s - y * theta[:, None, :]
        # squared column norms by one matrix product per trial, whose sums
        # do not depend on the stack
        res = np.diagonal(r.transpose(0, 2, 1) @ r, axis1=1, axis2=2).max(axis=1)
        done = res <= tol_l
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the residual after the steps left, shrinking as in the last step
            stop = done | ~(res * (res / last) ** (_MAX_STEPS - step) <= tol_l)
        if stop.any():
            lam[live[done]], vec[live[done]] = theta[done], y[done]
            found[live[done]] = True
            go = ~stop
            live, bl, tol_l, z, res = live[go], bl[go], tol_l[go], z[go], res[go]
            if not len(live):
                break
        last = res
    found &= lam[:, 1] > 0.0
    cand = np.flatnonzero(found)
    if len(cand):
        m = (vec[cand] * lam[cand, None, :]) @ vec[cand].transpose(0, 2, 1) - b[cand]
        m[:, np.arange(t), np.arange(t)] += (1.0 - _GAP) * lam[cand, 1:]
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:  # one failure fails the stack: find it
            for i, mi in zip(cand, m):
                try:
                    np.linalg.cholesky(mi)
                except np.linalg.LinAlgError:
                    found[i] = False
    return lam, vec, found


def _eigh_pairs(b: np.ndarray):
    """The two leading eigenpairs of each matrix of a stack, from `eigh`."""
    w, u = np.linalg.eigh(b)
    return w[:, [-1, -2]], u[:, :, [-1, -2]]


def _embed(dmats: np.ndarray):
    """Classic MDS embeddings of a (K, T, T) stack of distance matrices.

    The embedding takes the two leading eigenpairs of the double-centred
    Gram matrix B. Below `_ITERATE_FROM` nodes they come from a full
    `np.linalg.eigh`. From there on `_leading_pairs` finds them by block
    subspace iteration and certifies that no other eigenvalue comes
    within `_GAP` of lambda_2; a trial it cannot certify in `_MAX_STEPS`
    steps (lambda_2 <= 0, lambda_3 close to lambda_2, or a slow
    contraction) goes to `eigh`, so its failure code is `eigh`'s. Returns
    the (K, 2, T) embeddings and (K,) failure codes.
    """
    t = dmats.shape[-1]
    h = np.eye(t) - np.full((t, t), 1.0 / t)
    b = -0.5 * h @ (dmats * dmats) @ h
    b = 0.5 * (b + b.transpose(0, 2, 1))
    if t < _ITERATE_FROM:
        lam, vec = _eigh_pairs(b)
    else:
        lam, vec, found = _leading_pairs(b)
        if not found.all():
            lam[~found], vec[~found] = _eigh_pairs(b[~found])
    lam1, lam2 = lam[:, 0], lam[:, 1]
    status = np.where(lam1 <= 0.0, NO_EMBEDDING,
                      np.where(lam2 < -1e-9 * lam1, NEGATIVE_GRAM, 0))
    lam = np.stack([lam1, np.maximum(lam2, 0.0)], axis=-1)
    with np.errstate(invalid="ignore"):
        y = vec * np.sqrt(lam)[:, None, :]
    return y.transpose(0, 2, 1), status


def _distance_matrices(distances: np.ndarray, index: PairIndex) -> np.ndarray:
    t = index.n_nodes
    dmat = np.zeros((len(distances), t, t))
    dmat[:, index.first, index.second] = distances
    return dmat + dmat.transpose(0, 2, 1)


def _embedding(meas: Measurements):
    """The MDS embeddings and failure codes of K trials, computed on first use."""
    if meas.embedding is None:
        meas.embedding = _embed(_distance_matrices(np.atleast_2d(meas.distances), meas.index))
    return meas.embedding


def _mds(embedding, anchors: np.ndarray, m: int):
    """MDS target estimates (K, 2, N) from `_embed` output, with failure codes.

    The first `m` embedded nodes are the anchors. Each embedding is
    mapped onto the known anchors by an orthogonal map plus a shift, with
    no scaling; the map may reflect, since MDS chirality is arbitrary.
    """
    coords, status = embedding
    rot, shift = fit_alignment(coords[:, :, :m], anchors, allow_reflection=True)
    aligned = rot @ coords + shift[:, :, None]
    # a NaN map marks an embedding with no orientation to align
    status = np.where((status == 0) & np.isnan(rot[:, 0, 0]), NO_ORIENTATION, status)
    return aligned[:, :, m:], status


def _solve(meas: Measurements, anchors: np.ndarray, method: str):
    """One method's (K, 2, N) estimates and (K,) failure codes; one trial is K = 1."""
    index = meas.index
    m, n = index.n_anchors, index.n_targets
    d_at = np.atleast_2d(meas.distances)[:, index.at].reshape(-1, m, n)
    if method == "smds_full":
        th_at = np.atleast_2d(meas.angles)[:, index.at].reshape(-1, m, n)
        coords = _anchored_mean(d_at, th_at, anchors)
        status = np.zeros(len(coords), dtype=int)
    else:
        coords, status = _mds(_embedding(meas), anchors, m)
        if method == "smds_distance_only":
            th_at, coincident = _at_bearings(coords, anchors)
            coords = _anchored_mean(d_at, th_at, anchors)
            status = np.where((status == 0) & coincident, COINCIDENT_EDGES, status)
    finite = np.all(np.isfinite(coords), axis=(1, 2))
    return coords, np.where((status == 0) & ~finite, NOT_FINITE, status)


def solve_landmarks(meas: Measurements, anchors: AnchorSet | np.ndarray,
                    conformation: Conformation | None = None,
                    config: SolverConfig | None = None) -> Landmarks:
    """Estimate landmark world coordinates from measurements.

    Parameters
    ----------
    meas : Measurements
        One trial, or K trials at once.
    anchors : AnchorSet or ndarray (2, M)
        Known anchor positions; a raw array is validated and wrapped.
    conformation : Conformation, optional
        Known body shape; used only to cross-check the target count.
    config : SolverConfig, optional
        Defaults to the full estimator.

    Returns
    -------
    Landmarks
        (2, N) coordinates for one trial; (K, 2, N) for K trials, which
        report failed trials in `status` instead of raising.
    """
    cfg = config or SolverConfig()
    index = meas.index
    if not isinstance(anchors, AnchorSet):
        anchors = AnchorSet(anchors)
    if anchors.n_anchors != index.n_anchors:
        raise ValueError("anchor count does not match the measurement index")
    if conformation is not None and conformation.n_points != index.n_targets:
        raise ValueError("conformation size does not match the measurement index")
    coords, status = _solve(meas, anchors.positions, cfg.method)
    if meas.distances.ndim == 2:
        return Landmarks(coords, status)
    raise_failure(status[0])
    return Landmarks(coords[0], status[0])
