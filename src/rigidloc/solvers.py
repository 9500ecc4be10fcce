"""Landmark coordinate estimators.

Three methods are provided behind one dispatch function,
`solve_landmarks`. It estimates the K trials of a `Measurements` at once
on arrays with a leading trial axis; one trial is the K = 1 case of that
code. Points are complex numbers x + jy throughout: the anchors an (M,)
array, the estimates a (K, N) stack:

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
    AT directions (x_n - a_m)/|x_n - a_m| from its target estimates, and
    feed them with the measured AT distances through the ``smds_full``
    mean.

The MDS embedding needs only the two leading eigenpairs of the T x T
Gram matrix B (T = M + N nodes), which `_gram` builds from the pair
distances in O(T^2). Below `_ITERATE_FROM` nodes (80, chosen by
measurement) the pairs come from a full `np.linalg.eigh`. From there on
`_leading_pairs` finds them by block subspace iteration and keeps a
trial only with a certificate that no other eigenvalue comes near
lambda_2: lambda_2 > 0 and every eigenvalue of E = B - Y Lambda Y^T
below (1 - _GAP) lambda_2. The certificate has two stages. The first
bounds them by ||E||_F, known from ||B||_F and the Ritz values, with a
rounding allowance of T^2 eps ||B||_F^2 on its square; a trial it does
not certify takes the second, a Cholesky factor of
(1 - _GAP) lambda_2 I - E. A trial without a certificate goes to
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
from .geometry import AnchorSet, Conformation, _complex
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
    """Landmark estimates x + jy: (N,) complex coordinates for one trial, (K, N) for K.

    `status` holds the failure code from `errors` of each trial, 0 for
    success; a failed trial's coordinates carry no meaning. One trial
    that fails raises instead. `iterations_used` is 0, as for every
    closed-form method; `benchmark/spans.py` reads it.
    """

    coordinates: np.ndarray
    status: np.ndarray
    iterations_used: int = 0


def _anchored_mean(v_at: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """x_n = mean_m(a_m + v_mn) for (K, M, N) AT edges v_mn and (M,) anchors; (K, N)."""
    return (anchors[:, None] + v_at).mean(axis=1)


def _at_directions(targets: np.ndarray, anchors: np.ndarray):
    """Unit AT directions (x_n - a_m)/|x_n - a_m|, (K, M, N), of (K, N) targets.

    Also returns which trials put a target on an anchor, whose direction
    is undefined (NaN)."""
    e = targets[:, None, :] - anchors[:, None]
    with np.errstate(invalid="ignore"):  # 0/0 for a target on an anchor
        return e / np.abs(e), np.any(e == 0.0, axis=(1, 2))


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
# rounding allowance of the Frobenius test, per T^2 and relative to
# ||B||_F^2: a sum of T^2 squares is off by at most about T^2 u ||B||_F^2
# (u the unit roundoff), and eps = 2u doubles that, which also covers the
# O(T u) errors of the Ritz values and of the Ritz vectors' orthonormality
_FROBENIUS_SLACK = np.finfo(float).eps


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
    iterated. A converged trial with lambda_2 > 0 is certified when every
    eigenvalue of E = B - Y Lambda Y^T lies below (1 - _GAP) lambda_2:
    by Weyl's inequality no eigenvalue of B other than the two found
    then exceeds (1 - _GAP) lambda_2. The certificate has two stages.
    The first, `_frobenius_certified`, bounds them all by ||E||_F, whose
    square is ||B||_F^2 - theta_1^2 - theta_2^2 for orthonormal Ritz
    vectors, from the ||B||_F^2 the iteration already needs, with a
    rounding allowance of `_FROBENIUS_SLACK` T^2 ||B||_F^2 added. Only
    the trials it leaves take the second, a Cholesky factor of
    (1 - _GAP) lambda_2 I - E, tried one trial at a time; in practice
    these are noisy trials, whose other eigenvalues, each far below
    lambda_2, add up in ||E||_F to more than it. Returns the (K, 2)
    eigenvalues in descending order, the (K, T, 2) eigenvectors and the
    (K,) mask of certified trials; the pairs of the others carry no
    meaning.
    """
    k, t = b.shape[:2]
    flat = b.reshape(k, 1, t * t)
    norm2 = (flat @ flat.transpose(0, 2, 1))[:, 0, 0]
    lam, vec = np.zeros((k, 2)), np.zeros((k, t, 2))
    found = np.zeros(k, dtype=bool)
    live = np.flatnonzero(norm2 <= _NORM2_MAX)
    bl = b if len(live) == k else b[live]
    tol_l, last = _RESIDUAL ** 2 * norm2[live], np.full(len(live), np.inf)
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
    diagonal = np.arange(t)
    for i in np.flatnonzero(found & ~_frobenius_certified(norm2, lam, t)):
        mi = (vec[i] * lam[i]) @ vec[i].T - b[i]
        mi[diagonal, diagonal] += (1.0 - _GAP) * lam[i, 1]
        try:
            np.linalg.cholesky(mi)
        except np.linalg.LinAlgError:
            found[i] = False
    return lam, vec, found


def _frobenius_certified(norm2: np.ndarray, lam: np.ndarray, t: int) -> np.ndarray:
    """Trials whose ||B - Y Lambda Y^T||_F is certainly below (1 - _GAP) lambda_2.

    Takes the (K,) ||B||_F^2 and the (K, 2) Ritz values of T x T
    matrices; the first stage of the certificate of `_leading_pairs`.
    """
    bound = (1.0 - _GAP) * lam[:, 1]
    rest = norm2 - (lam * lam).sum(axis=1) + _FROBENIUS_SLACK * t * t * norm2
    return rest < bound * bound


def _eigh_pairs(b: np.ndarray):
    """The two leading eigenpairs of each matrix of a stack, from `eigh`."""
    w, u = np.linalg.eigh(b)
    return w[:, [-1, -2]], u[:, :, [-1, -2]]


def _gram(distances: np.ndarray, index: PairIndex) -> np.ndarray:
    """Double-centred Gram matrices B = -H D^2 H / 2 of (K, P) pair distances.

    Built in O(T^2) per trial: D^2 is filled by scattering the squared
    distances through flat pair indices into both triangles, every pair
    class at once; then, with r_i the mean of row i of D^2,
    B_ij = -(D^2_ij - (r_i + r_j) + mean(r)) / 2, which is exactly
    symmetric. The r_i + r_j are formed one trial at a time, in a T x T
    work array rather than a (K, T, T) one. Returns the (K, T, T) stack.
    """
    t = index.n_nodes
    b = np.zeros((len(distances), t, t))
    flat = b.reshape(len(b), t * t)
    flat[:, index.first * t + index.second] = flat[:, index.second * t + index.first] = (
        distances * distances)
    r = b.mean(axis=2)
    for bi, ri in zip(b, r):
        bi -= ri[:, None] + ri
    b += r.mean(axis=1)[:, None, None]
    b *= -0.5
    return b


def _embed(b: np.ndarray):
    """Classic MDS embeddings of a (K, T, T) stack of `_gram` matrices.

    The embedding takes the two leading eigenpairs of the double-centred
    Gram matrix B. Below `_ITERATE_FROM` nodes they come from a full
    `np.linalg.eigh`. From there on `_leading_pairs` finds them by block
    subspace iteration and certifies that no other eigenvalue comes
    within `_GAP` of lambda_2; a trial it cannot certify in `_MAX_STEPS`
    steps (lambda_2 <= 0, lambda_3 close to lambda_2, or a slow
    contraction) goes to `eigh`, so its failure code is `eigh`'s. Returns
    the (K, T) complex embeddings sqrt(lambda_1) u_1 + j sqrt(lambda_2) u_2
    and (K,) failure codes.
    """
    if b.shape[-1] < _ITERATE_FROM:
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
    return y[..., 0] + 1j * y[..., 1], status


def _embedding(meas: Measurements):
    """The MDS embeddings and failure codes of K trials, computed on first use."""
    if meas.embedding is None:
        meas.embedding = _embed(_gram(np.atleast_2d(meas.distances), meas.index))
    return meas.embedding


def _mds(embedding, anchors: np.ndarray, m: int):
    """MDS target estimates (K, N) from `_embed` output, with failure codes.

    The first `m` embedded nodes are the anchors. Each embedding y is
    mapped onto the (M,) known anchors as q y + t, with |q| = 1 and no
    scaling; the map may reflect, q conj(y) + t, since MDS chirality is
    arbitrary.
    """
    y, status = embedding
    q, shift, reflect = fit_alignment(y[:, :m], anchors, allow_reflection=True)
    targets = y[:, m:]
    targets = q[:, None] * np.where(reflect[:, None], targets.conj(), targets) + shift[:, None]
    # a NaN map marks an embedding with no orientation to align
    status = np.where((status == 0) & np.isnan(q), NO_ORIENTATION, status)
    return targets, status


def _solve(meas: Measurements, anchors: np.ndarray, method: str):
    """One method's (K, N) estimates and (K,) failure codes from (M,) anchors; K = 1 for one."""
    index = meas.index
    m, n = index.n_anchors, index.n_targets
    d_at = np.atleast_2d(meas.distances)[:, index.at].reshape(-1, m, n)
    if method == "smds_full":
        th_at = np.atleast_2d(meas.angles)[:, index.at].reshape(-1, m, n)
        # one expression, so that numpy reuses the exp temporary for the product
        coords = _anchored_mean(d_at * np.exp(1j * th_at), anchors)
        status = np.zeros(len(coords), dtype=int)
    else:
        coords, status = _mds(_embedding(meas), anchors, m)
        if method == "smds_distance_only":
            u, coincident = _at_directions(coords, anchors)
            coords = _anchored_mean(d_at * u, anchors)
            status = np.where((status == 0) & coincident, COINCIDENT_EDGES, status)
    finite = np.all(np.isfinite(coords), axis=1)
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
        (N,) complex coordinates x + jy for one trial; (K, N) for K
        trials, which report failed trials in `status` instead of raising.
    """
    cfg = config or SolverConfig()
    index = meas.index
    if not isinstance(anchors, AnchorSet):
        anchors = AnchorSet(anchors)
    if anchors.n_anchors != index.n_anchors:
        raise ValueError("anchor count does not match the measurement index")
    if conformation is not None and conformation.n_points != index.n_targets:
        raise ValueError("conformation size does not match the measurement index")
    coords, status = _solve(meas, _complex(anchors.positions), cfg.method)
    if meas.distances.ndim == 2:
        return Landmarks(coords, status)
    raise_failure(status[0])
    return Landmarks(coords[0], status[0])
