"""Canonical pair index.

Nodes are numbered 0..T-1 with the M anchors first and the N body
landmarks after them. Every unordered node pair (i, j) with i < j owns
one edge; edges are stored in a fixed canonical order: all anchor-anchor
(AA) pairs first, then anchor-target (AT), then target-target (TT), each
class sorted lexicographically. An edge stands for the complex number

    v_p = x_j - x_i = d_p * exp(j theta_p)

whose modulus is the pair distance and whose argument is the direction
of the i -> j ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class PairIndex:
    """Canonical enumeration of node pairs with class boundaries.

    Attributes
    ----------
    n_anchors, n_targets : int
        Node counts M and N; nodes 0..M-1 are anchors.
    first, second : ndarray of int
        Node indices per pair, with first < second, in canonical order.
    """

    n_anchors: int
    n_targets: int
    first: np.ndarray
    second: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_anchors + self.n_targets

    @property
    def n_pairs(self) -> int:
        return self.first.size

    @property
    def n_aa(self) -> int:
        return self.n_anchors * (self.n_anchors - 1) // 2

    @property
    def n_at(self) -> int:
        return self.n_anchors * self.n_targets

    @property
    def n_tt(self) -> int:
        return self.n_targets * (self.n_targets - 1) // 2

    @property
    def aa(self) -> slice:
        return slice(0, self.n_aa)

    @property
    def at(self) -> slice:
        return slice(self.n_aa, self.n_aa + self.n_at)

    @property
    def tt(self) -> slice:
        return slice(self.n_aa + self.n_at, self.n_pairs)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.first.tolist(), self.second.tolist()))


def build_pair_index(n_anchors: int, n_targets: int) -> PairIndex:
    """Enumerate all node pairs in canonical [AA | AT | TT] order.

    Parameters
    ----------
    n_anchors, n_targets : int
        Counts M and N. Either class may be empty, but M + N >= 2.

    Returns
    -------
    PairIndex
        T(T-1)/2 pairs, lexicographic within each class. The index is
        immutable, so one instance is shared per (M, N).
    """
    m, n = int(n_anchors), int(n_targets)
    if m < 0 or n < 0 or m + n < 2:
        raise ValueError("need at least two nodes to form pairs")
    return _pair_index(m, n)


@lru_cache(maxsize=32)
def _pair_index(m: int, n: int) -> PairIndex:
    aa_i, aa_j = np.triu_indices(m, k=1)
    at_i = np.repeat(np.arange(m), n)
    at_j = np.tile(np.arange(m, m + n), m)
    tt_i, tt_j = np.triu_indices(n, k=1)
    first = np.concatenate([aa_i, at_i, tt_i + m]).astype(np.intp)
    second = np.concatenate([aa_j, at_j, tt_j + m]).astype(np.intp)
    first.flags.writeable = False
    second.flags.writeable = False
    return PairIndex(m, n, first, second)
