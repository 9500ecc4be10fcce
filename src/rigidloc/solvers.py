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
distances in O(T^2). `_leading_pairs` finds them by subspace iteration
on two columns, whose 2 x 2 Rayleigh-Ritz step is solved in closed
form, and keeps a trial only with a certificate that no other eigenvalue comes near lambda_2:
lambda_2 > 0 and every eigenvalue of E = B - Y Lambda Y^T below
(1 - _GAP) lambda_2. The certificate has two stages. The first bounds
them by ||E||_F, known from ||B||_F and the Ritz values, with a
rounding allowance of T^2 eps ||B||_F^2 on its square; a trial it does
not certify takes the second, a Cholesky factor of
(1 - _GAP) lambda_2 I - E. A trial without a certificate goes to
`eigh`, so failure codes are those of `eigh`, and estimates agree with
it to rounding. A trial whose B is not finite gets NaN pairs and no
`eigh` call, which would fail the whole stack, so its failure code is
the same at every T. A `Measurements` keeps its MDS embedding once
computed, so ``mds`` and ``smds_distance_only`` on one set share one
embedding per trial. A failed trial of K is reported by a failure code
from `errors`; one trial raises that code's typed error instead.
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


# Products with B between Rayleigh-Ritz steps, and steps. Chosen by
# measurement on a 2-core machine, in the harness's chunks on the default
# room, so that `_embed` is faster than a full `eigh` at every sigma <= 2
# and at most 1.5 times it at every sigma <= 6, where most trials go to
# `eigh` after their steps, from the smallest scene (T = 6) up: every T
# takes the iteration, and `eigh` is only its fallback.
_POWERS, _MAX_STEPS = 12, 8
# a trial is converged once its block residual ||B Q - Q H||_F, which bounds
# both Ritz residuals, is below this times ||B||_F
_RESIDUAL = 1e-14
# the certificate asks every other eigenvalue to lie below (1 - _GAP) lambda_2
_GAP = 1e-2
# The iteration scales each product by 2^-e, ||B||_F <= 2^e, so the columns
# neither overflow nor underflow over `_POWERS` products whatever the scale
# of B. e comes from the exponent of ||B||_F^2, which must be a normal
# number, and at most max / 64, so that the Frobenius test's sum of it and
# the squared Ritz values, each at most 4 ||B||_F^2, stays finite. A trial
# outside this range goes to `eigh`, as does one that is not finite
_NORM2_MIN, _NORM2_MAX = np.finfo(float).tiny, np.finfo(float).max / 64
# rounding allowance of the Frobenius test, per T^2 and relative to
# ||B||_F^2: a sum of T^2 squares is off by at most about T^2 u ||B||_F^2
# (u the unit roundoff), and eps = 2u doubles that, which also covers the
# O(T u) errors of the Ritz values and of the Ritz vectors' orthonormality
_FROBENIUS_SLACK = np.finfo(float).eps


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (K, T) arrays, each summed in its own row."""
    return np.einsum("ki,ki->k", x, y)


def _leading_pairs(b: np.ndarray):
    """Certified two leading eigenpairs of a (K, T, T) stack of symmetric B.

    Subspace iteration on two columns, held as the rows of a (K, 2, T)
    array, from a fixed start block drawn from a generator of its own,
    never a trial's: each step applies B `_POWERS` times,
    orthonormalises the two columns by Gram-Schmidt into Q and forms
    W = B Q and the 2 x 2 matrix H = Q^T W. Each product with B is
    scaled by a power of two, 2^-e with ||B||_F <= 2^e, which is exact
    and keeps the columns within range whatever the scale of B. A trial
    stops at the first step where the block residual ||W - Q H||_F,
    which bounds both Ritz residuals, is below `_RESIDUAL` ||B||_F, or
    where, at its last contraction of the residual, it would not get
    there within `_MAX_STEPS`, or where the smaller eigenvalue of H is
    not above 0: measured, such a trial almost never ends with a pair
    that passes the lambda_2 > 0 check below. A trial that converges
    takes the Rayleigh-Ritz pairs of H, in closed form: the rotation of
    Q that diagonalises H. Every step works on each trial's own matrices
    and rows, so a trial's result does not depend on the stack it sits
    in.

    A trial whose ||B||_F^2 is not a normal number below `_NORM2_MAX` is
    not iterated. A converged trial with lambda_2 > 0 is certified when
    every eigenvalue of E = B - Y Lambda Y^T lies below (1 - _GAP)
    lambda_2: by Weyl's inequality no eigenvalue of B other than the two
    found then exceeds (1 - _GAP) lambda_2. The certificate has two
    stages. The first, `_frobenius_certified`, bounds them all by
    ||E||_F, whose square is ||B||_F^2 - theta_1^2 - theta_2^2 for
    orthonormal Ritz vectors, from the ||B||_F^2 the iteration already
    needs, with a rounding allowance of `_FROBENIUS_SLACK` T^2 ||B||_F^2
    added. Only the trials it leaves take the second, a Cholesky factor
    of (1 - _GAP) lambda_2 I - E, tried one trial at a time; in practice
    these are noisy trials, whose other eigenvalues, each far below
    lambda_2, add up in ||E||_F to more than it. Returns the (K, 2)
    eigenvalues in descending order, the (K, T, 2) eigenvectors and the
    (K,) mask of certified trials; the pairs of the others carry no
    meaning.
    """
    k, t = b.shape[:2]
    flat = b.reshape(k, 1, t * t)
    norm2 = (flat @ flat.transpose(0, 2, 1))[:, 0, 0]
    # H and Q of each converged trial, rotated to its Ritz pairs at the end;
    # the eigenvectors are filled as rows and returned as columns
    lam, h_found, rows = np.zeros((k, 2)), np.zeros((k, 2, 2)), np.zeros((k, 2, t))
    found = np.zeros(k, dtype=bool)
    live = np.flatnonzero((norm2 >= _NORM2_MIN) & (norm2 <= _NORM2_MAX))
    bl = b if len(live) == k else b[live]
    # 2^-e with ||B||_F <= 2^e, from the exponent of ||B||_F^2, repeated to
    # the shape of the columns so that scaling them is one plain product
    e = np.zeros(k, dtype=int)
    e[live] = (np.frexp(norm2[live])[1] + 1) // 2
    scale = np.repeat(np.ldexp(1.0, -e[live]), 2 * t).reshape(-1, 2, t)
    tol_l = _RESIDUAL ** 2 * np.ldexp(norm2[live], -2 * e[live])
    last = np.full(len(live), np.inf)
    # rows of `bl` whose trial still iterates; the others ride along until
    # at most half are left, when the stack is compacted
    going = np.ones(len(live), dtype=bool)
    w = np.random.default_rng(0).standard_normal((2, t)) @ bl
    w *= scale
    for step in range(1, _MAX_STEPS + 1):
        # the products alternate between two buffers
        q, spare = w, np.empty_like(w)
        for _ in range(_POWERS - 1):
            q, spare = np.matmul(q, bl, out=spare), q
            q *= scale
        q1, q2 = q[:, 0], q[:, 1]
        # a column that collapses to zero makes its trial NaN, and NaN stops it
        with np.errstate(divide="ignore", invalid="ignore"):
            q1 /= np.sqrt(_dot(q1, q1))[:, None]
            q2 -= _dot(q1, q2)[:, None] * q1
            q2 /= np.sqrt(_dot(q2, q2))[:, None]
        w = np.matmul(q, bl, out=spare)
        w *= scale
        # H = Q^T W, symmetrised: its diagonal, then q_1 w_2 and q_2 w_1
        h = np.empty((len(live), 2, 2))
        h[:, [0, 1], [0, 1]] = np.einsum("kci,kci->kc", q, w)
        h[:, 0, 1] = h[:, 1, 0] = 0.5 * np.einsum("kci,kci->kc", q, w[:, ::-1]).sum(axis=1)
        r = h @ q
        r -= w
        res = np.einsum("kci,kci->k", r, r)
        del r
        done = going & (res <= tol_l)
        # H positive definite: both Ritz values above 0
        h11, h12, h22 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
        positive = (h11 + h22 > 0.0) & (h11 * h22 > h12 * h12)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the residual after the steps left, shrinking as in the last step
            on_track = res * (res / last) ** (_MAX_STEPS - step) <= tol_l
        stop = done | going & ~(positive & on_track)
        if done.any():
            i = live[done]
            h_found[i], rows[i], found[i] = h[done], q[done], True
        going &= ~stop
        if not going.any():
            break
        if 2 * np.count_nonzero(going) <= len(going):
            live, tol_l, w, res, scale = (live[going], tol_l[going], w[going], res[going],
                                          scale[going])
            going = going[going]
            # from b, with the last copy and Q gone first, so that at most
            # one copy of the stack is alive
            del bl, q
            bl = b[live]
        last = res
    i = np.flatnonzero(found)
    theta, rows[i] = _ritz_pairs(h_found[i], rows[i])
    lam[i] = np.ldexp(theta, e[i, None])
    vec = rows.transpose(0, 2, 1)
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


def _ritz_pairs(h: np.ndarray, q: np.ndarray):
    """Eigenpairs of (K, 2, 2) symmetric H, and the rotation of Q they give.

    Returns the (K, 2) eigenvalues in descending order and, for the
    (K, 2, T) orthonormal rows Q, the (K, 2, T) rows S^T Q, S the
    eigenvectors. With half = (h11 - h22) / 2 and r = hypot(half, h12),
    the eigenvalues are (h11 + h22) / 2 +- r, and the leading
    eigenvector is (p, h12) for half >= 0 and (h12, p) below,
    p = r + |half|, so that its larger component never comes from a
    cancellation.
    """
    h11, h12, h22 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
    half = 0.5 * (h11 - h22)
    r = np.hypot(half, h12)
    p = r + np.abs(half)
    s = np.empty_like(h)
    s[:, 0, 0] = s[:, 1, 1] = np.where(half >= 0.0, p, h12)
    s[:, 0, 1] = np.where(half >= 0.0, h12, p)
    s[:, 1, 0] = -s[:, 0, 1]
    s /= np.hypot(s[:, 0, 0], s[:, 0, 1])[:, None, None]
    mid = 0.5 * (h11 + h22)
    return np.stack([mid + r, mid - r], axis=1), s @ q


def _frobenius_certified(norm2: np.ndarray, lam: np.ndarray, t: int) -> np.ndarray:
    """Trials whose ||B - Y Lambda Y^T||_F is certainly below (1 - _GAP) lambda_2.

    Takes the (K,) ||B||_F^2 and the (K, 2) Ritz values of T x T
    matrices; the first stage of the certificate of `_leading_pairs`.
    """
    bound = (1.0 - _GAP) * lam[:, 1]
    rest = norm2 - (lam * lam).sum(axis=1) + _FROBENIUS_SLACK * t * t * norm2
    return rest < bound * bound


def _eigh_pairs(b: np.ndarray):
    """The two leading eigenpairs of each matrix of a stack, from `eigh`.

    A matrix that is not finite, which would make `eigh` raise for the
    whole stack, is kept out of it and gets NaN pairs.
    """
    finite = np.isfinite(b).all(axis=(1, 2))
    if not finite.all():
        lam, vec = np.full((len(b), 2), np.nan), np.full((*b.shape[:2], 2), np.nan)
        if finite.any():
            lam[finite], vec[finite] = _eigh_pairs(b[finite])
        return lam, vec
    w, u = np.linalg.eigh(b)
    return w[:, [-1, -2]], u[:, :, [-1, -2]]


# doubles in `_gram`'s work array for r_i + r_j: one T x T matrix at
# T = 96, 36 trials at T = 16
_CENTRE_BLOCK = 96 * 96


def _gram(distances: np.ndarray, index: PairIndex) -> np.ndarray:
    """Double-centred Gram matrices B = -H D^2 H / 2 of (K, P) pair distances.

    Built in O(T^2) per trial: D^2 is filled by scattering the squared
    distances through flat pair indices into both triangles, every pair
    class at once; then, with r_i the mean of row i of D^2,
    B_ij = -(D^2_ij - (r_i + r_j) + mean(r)) / 2, which is exactly
    symmetric. The r_i + r_j are formed for a block of trials at a time,
    in a work array of at most `_CENTRE_BLOCK` doubles rather than a
    (K, T, T) one. Returns the (K, T, T) stack.
    """
    t = index.n_nodes
    b = np.zeros((len(distances), t, t))
    flat = b.reshape(len(b), t * t)
    flat[:, index.first * t + index.second] = flat[:, index.second * t + index.first] = (
        distances * distances)
    r = b.mean(axis=2)
    size = max(1, _CENTRE_BLOCK // (t * t))
    for i in range(0, len(b), size):
        ri = r[i:i + size]
        b[i:i + size] -= ri[:, :, None] + ri[:, None, :]
    b += r.mean(axis=1)[:, None, None]
    b *= -0.5
    return b


def _embed(b: np.ndarray):
    """Classic MDS embeddings of a (K, T, T) stack of `_gram` matrices.

    The embedding takes the two leading eigenpairs of the double-centred
    Gram matrix B. `_leading_pairs` finds them by two-column subspace
    iteration and certifies that no other eigenvalue comes within `_GAP`
    of lambda_2; a trial it cannot certify in `_MAX_STEPS` steps
    (lambda_2 <= 0, lambda_3 close to lambda_2, or a slow contraction)
    goes to a full `np.linalg.eigh`, so its failure code is `eigh`'s. A
    trial whose B is not finite takes no `eigh` call, which would raise
    for the whole stack, and gets NaN pairs instead. Returns the (K, T)
    complex embeddings sqrt(lambda_1) u_1 + j sqrt(lambda_2) u_2 and (K,)
    failure codes.
    """
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
