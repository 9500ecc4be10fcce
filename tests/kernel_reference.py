"""Reference copy of the edge-kernel pipeline the SMDS solvers replace.

The library computes `smds_full` and `smds_distance_only` in closed form:
with a shared bearing reference and exact AA and TT edges, the fixed
point of the kernel-minor update is the measured AT edge block itself.
This module keeps the long way round (edge kernel, its minor, the
ratio-combined initialiser and fixed-point update, and the rank-1
inverse of the kernel), with the edge container and the anchored mean
it works on, so that the tests can pin the closed form to it.
It is test support only; nothing under `src/` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from rigidloc.edges import PairIndex
from rigidloc.errors import DegenerateGeometryError, NumericalFailureError

DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class EdgeSet:
    """Complex edge values for every pair, in canonical order."""

    index: PairIndex
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.index.n_pairs,):
            raise ValueError("edge vector length does not match the pair index")
        object.__setattr__(self, "values", v)

    @property
    def aa(self) -> np.ndarray:
        return self.values[self.index.aa]

    @property
    def at(self) -> np.ndarray:
        return self.values[self.index.at]

    @property
    def tt(self) -> np.ndarray:
        return self.values[self.index.tt]

    @property
    def distances(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def angles(self) -> np.ndarray:
        return np.angle(self.values)


def edges_from_coordinates(x, index: PairIndex) -> EdgeSet:
    """True edges v_p = x_j - x_i of complex node coordinates, anchors first.

    Raises DegenerateGeometryError if two nodes coincide (a zero edge).
    """
    x = np.asarray(x, dtype=complex).ravel()
    if x.size != index.n_nodes:
        raise ValueError("coordinate vector length does not match the pair index")
    v = x[index.second] - x[index.first]
    if np.any(np.abs(v) == 0.0):
        raise DegenerateGeometryError("coincident nodes produce a zero edge")
    return EdgeSet(index, v)


def coordinates_from_edges(v_at, anchors, index: PairIndex) -> np.ndarray:
    """Landmarks x + jy, (N,), as the anchored mean x_n = mean_m(a_m + v_mn) of AT edges."""
    pos = getattr(anchors, "positions", anchors)
    a = pos[0] + 1j * pos[1]
    return (a[:, None] + np.reshape(v_at, (index.n_anchors, index.n_targets))).mean(axis=0)


def edges_from_measurements(meas, scene=None) -> EdgeSet:
    """Edges d * exp(j theta) from measured distances and angles.

    A TT pair is measured as a distance only. Given the one-pose `scene`,
    the TT edges take their phases from its exact geometry; without it,
    `meas` must hold TT angles.

    Raises ValueError if any distance is not finite and positive.
    """
    d = np.asarray(meas.distances, dtype=float)
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise ValueError("measured distances must be finite and positive")
    theta = np.array(meas.angles, dtype=float)
    if scene is not None:
        tt = meas.index.tt
        theta[tt] = edges_from_coordinates(scene.complex_positions(), meas.index).angles[tt]
    return EdgeSet(meas.index, d * np.exp(1j * theta))


@dataclass(frozen=True)
class KernelBlocks:
    """Blocks of the edge kernel K = conj(v) v^T, formed lazily.

    K_A and K_T are the AA and TT diagonal blocks, K1, K2, K3, K4 the
    mixed blocks (AAxAT, AAxTT, ATxAT, ATxTT).
    """

    v_aa: np.ndarray
    v_at: np.ndarray
    v_tt: np.ndarray

    @cached_property
    def k_a(self) -> np.ndarray:
        return np.outer(np.conj(self.v_aa), self.v_aa)

    @cached_property
    def k1(self) -> np.ndarray:
        return np.outer(np.conj(self.v_aa), self.v_at)

    @cached_property
    def k2(self) -> np.ndarray:
        return np.outer(np.conj(self.v_aa), self.v_tt)

    @cached_property
    def k3(self) -> np.ndarray:
        return np.outer(np.conj(self.v_at), self.v_at)

    @cached_property
    def k4(self) -> np.ndarray:
        return np.outer(np.conj(self.v_at), self.v_tt)

    @cached_property
    def k_t(self) -> np.ndarray:
        return np.outer(np.conj(self.v_tt), self.v_tt)

    def assemble(self) -> np.ndarray:
        """The full P x P kernel."""
        v = np.concatenate([self.v_aa, self.v_at, self.v_tt])
        return np.outer(np.conj(v), v)


def build_kernel(edge_set: EdgeSet) -> KernelBlocks:
    return KernelBlocks(edge_set.aa, edge_set.at, edge_set.tt)


@dataclass(frozen=True)
class MinorBlocks:
    """The AT column blocks (K1, K3, K4) of the kernel.

    Stacked, [k1; k3; conj(k4)^T] equals conj(v) v_AT^T.
    """

    k1: np.ndarray
    k3: np.ndarray
    k4: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.vstack([self.k1, self.k3, np.conj(self.k4).T])


def extract_minor(kernel: KernelBlocks) -> MinorBlocks:
    return MinorBlocks(kernel.k1, kernel.k3, kernel.k4)


def rank1_truncate(kernel: np.ndarray, v_aa: np.ndarray | None = None):
    """Edge vector and eigenvalue ||v||^2 of a rank-1 kernel conj(v) v^T.

    The unit phase left free by K is fixed by aligning the leading
    entries to the exact AA edges `v_aa` when they are given.
    """
    k = np.asarray(kernel, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("kernel must be a square matrix")
    scale = np.linalg.norm(k)
    if scale == 0.0:
        raise DegenerateGeometryError("kernel is identically zero")
    if np.allclose(k, k.conj().T, rtol=1e-8, atol=1e-12 * scale):
        lam_all, vec_all = np.linalg.eigh(k)
        lam, u = lam_all[-1], vec_all[:, -1]
    else:
        lam_all, vec_all = np.linalg.eig(k)
        pick = int(np.argmax(np.abs(lam_all)))
        lam, u = np.real(lam_all[pick]), vec_all[:, pick]
    if lam <= 0:
        raise DegenerateGeometryError("kernel has no positive dominant eigenvalue")
    v_hat = np.conj(np.sqrt(lam) * u)
    if v_aa is not None:
        v_aa = np.asarray(v_aa, dtype=complex)
        z = np.vdot(v_hat[: v_aa.size], v_aa)
        if np.abs(z) == 0.0:
            raise DegenerateGeometryError("AA block too weak to fix the phase")
        v_hat = v_hat * np.exp(1j * np.angle(z))
    return v_hat, float(lam)


@dataclass(frozen=True)
class TurboResult:
    v_at: np.ndarray
    iterations: int
    converged: bool
    residual: float


def turbo_init(k1: np.ndarray, k4: np.ndarray, v_aa: np.ndarray,
               v_tt: np.ndarray) -> np.ndarray:
    """Initial AT edges, ratio-combining the AA and TT kernel blocks."""
    v_aa = np.asarray(v_aa, dtype=complex)
    v_tt = np.asarray(v_tt, dtype=complex)
    den = np.vdot(v_aa, v_aa).real + np.vdot(v_tt, v_tt).real
    if den <= 0.0:
        raise DegenerateGeometryError("no anchor or target edges to combine")
    num = k1.T @ v_aa
    if v_tt.size:
        num = num + np.conj(k4) @ v_tt
    return num / den


def turbo_iterate(minor: MinorBlocks, v_aa: np.ndarray, v_tt: np.ndarray,
                  v_at_init: np.ndarray, max_iterations: int = 100,
                  rel_tolerance: float = 1e-9) -> TurboResult:
    """Fixed-point refinement of the AT edges over the kernel minor.

    Raises NumericalFailureError if the iterate grows beyond
    DIVERGENCE_FACTOR times its initial norm or becomes non-finite.
    """
    v_aa = np.asarray(v_aa, dtype=complex)
    v_tt = np.asarray(v_tt, dtype=complex)
    v = np.asarray(v_at_init, dtype=complex).copy()
    naa = np.vdot(v_aa, v_aa).real
    ntt = np.vdot(v_tt, v_tt).real
    base = minor.k1.T @ v_aa
    if v_tt.size:
        base = base + np.conj(minor.k4) @ v_tt
    limit = DIVERGENCE_FACTOR * max(np.linalg.norm(v), np.finfo(float).tiny)
    residual = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        vnorm2 = np.vdot(v, v).real
        den = naa + vnorm2 + ntt
        if den <= 0.0:
            raise DegenerateGeometryError("zero combining denominator")
        v_new = (base + minor.k3.T @ v) / den
        if not np.all(np.isfinite(v_new.view(float))):
            raise NumericalFailureError("turbo iteration produced non-finite values")
        residual = np.linalg.norm(v_new - v) / max(np.sqrt(vnorm2), np.finfo(float).tiny)
        v = v_new
        if np.linalg.norm(v) > limit:
            raise NumericalFailureError("turbo iteration diverged")
        if residual < rel_tolerance:
            converged = True
            break
    return TurboResult(v, iterations, converged, float(residual))


def reference_pipeline(distances, angles, anchors, index) -> np.ndarray:
    """Landmarks from the kernel-minor iteration, as the solvers once did."""
    es = EdgeSet(index, np.asarray(distances) * np.exp(1j * np.asarray(angles)))
    minor = extract_minor(build_kernel(es))
    init = turbo_init(minor.k1, minor.k4, es.aa, es.tt)
    result = turbo_iterate(minor, es.aa, es.tt, init)
    return coordinates_from_edges(result.v_at, anchors, index)
