import numpy as np
import pytest

from rigidloc.edges import build_pair_index
from rigidloc.errors import DegenerateGeometryError
from rigidloc.geometry import SceneConfig, random_scene
from rigidloc.measurements import Measurements

from kernel_reference import (EdgeSet, build_kernel, edges_from_coordinates,
                              edges_from_measurements, extract_minor,
                              rank1_truncate)


def random_coords(t, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-5, 5, t) + 1j * rng.uniform(-5, 5, t)


def test_pair_index_tiny():
    idx = build_pair_index(2, 1)
    assert idx.pairs() == [(0, 1), (0, 2), (1, 2)]
    assert (idx.n_aa, idx.n_at, idx.n_tt) == (1, 2, 0)


def test_pair_index_default_counts():
    idx = build_pair_index(8, 8)
    assert idx.n_pairs == 120
    assert (idx.n_aa, idx.n_at, idx.n_tt) == (28, 64, 28)
    # ordering: AA block lexicographic, AT block anchor-major
    assert idx.pairs()[:3] == [(0, 1), (0, 2), (0, 3)]
    assert idx.pairs()[28:31] == [(0, 8), (0, 9), (0, 10)]


def test_pair_index_no_targets():
    idx = build_pair_index(3, 0)
    assert idx.n_pairs == 3
    assert idx.n_at == 0 and idx.n_tt == 0


def test_pair_index_ascending():
    idx = build_pair_index(5, 4)
    assert np.all(idx.first < idx.second)
    assert idx.n_pairs == 9 * 8 // 2


def test_pair_index_shared_per_size():
    idx = build_pair_index(6, 4)
    assert build_pair_index(np.int64(6), 4.0) is idx
    assert build_pair_index(4, 6) is not idx
    assert not idx.first.flags.writeable and not idx.second.flags.writeable
    with pytest.raises(ValueError):
        build_pair_index(1, 0)


def test_edges_from_coordinates_simple():
    idx = build_pair_index(2, 0)
    assert edges_from_coordinates(np.array([0.0, 1.0]), idx).values[0] == 1.0
    es = edges_from_coordinates(np.array([0.0, 1.0j]), idx)
    assert es.values[0] == 1.0j
    assert es.distances[0] == 1.0
    assert es.angles[0] == pytest.approx(np.pi / 2)


def test_edges_from_coordinates_coincident():
    idx = build_pair_index(2, 0)
    with pytest.raises(DegenerateGeometryError):
        edges_from_coordinates(np.array([1.0 + 1.0j, 1.0 + 1.0j]), idx)


def test_edges_from_measurements_polar():
    idx = build_pair_index(2, 0)
    meas = Measurements(idx, np.array([2.0]), np.array([0.0]))
    assert edges_from_measurements(meas).values[0] == pytest.approx(2.0 + 0.0j)
    meas = Measurements(idx, np.array([np.sqrt(2.0)]), np.array([3 * np.pi / 4]))
    v = edges_from_measurements(meas).values[0]
    assert v == pytest.approx(-1.0 + 1.0j, abs=1e-12)


def test_edges_from_measurements_noiseless_consistency():
    scene = random_scene(SceneConfig(), seed=2)
    idx = build_pair_index(8, 8)
    true_edges = edges_from_coordinates(scene.complex_positions(), idx)
    meas = Measurements(idx, true_edges.distances, true_edges.angles)
    v = edges_from_measurements(meas).values
    assert np.max(np.abs(v - true_edges.values)) < 1e-12


def test_edges_from_measurements_rejects_bad_distance():
    idx = build_pair_index(2, 0)

    class Fake:
        index = idx
        distances = np.array([-1.0])
        angles = np.array([0.0])

    with pytest.raises(ValueError):
        edges_from_measurements(Fake())


def test_kernel_small_case():
    idx = build_pair_index(2, 0)

    # v = (1, j) cannot come from real geometry with one pair; build the
    # kernel from the raw edge vector instead
    es = EdgeSet(build_pair_index(3, 0), np.array([1.0, 1.0j, 1.0]))
    k = build_kernel(es).assemble()
    assert np.allclose(k[:2, :2], np.array([[1.0, 1.0j], [-1.0j, 1.0]]))
    assert idx.n_pairs == 1


def test_kernel_rank_one():
    scene = random_scene(SceneConfig(), seed=4)
    idx = build_pair_index(8, 8)
    es = edges_from_coordinates(scene.complex_positions(), idx)
    k = build_kernel(es).assemble()
    s = np.linalg.svd(k, compute_uv=False)
    assert s[1] < 1e-10 * s[0]
    # diagonal carries squared distances
    assert np.allclose(np.diag(k).real, es.distances ** 2)
    assert np.max(np.abs(np.diag(k).imag)) < 1e-12


def test_kernel_hermitian():
    idx = build_pair_index(4, 2)
    es = edges_from_coordinates(random_coords(6, seed=1), idx)
    k = build_kernel(es).assemble()
    assert np.allclose(k, k.conj().T)


def test_kernel_blocks_match_assembled():
    idx = build_pair_index(3, 2)
    es = edges_from_coordinates(random_coords(5, seed=5), idx)
    kb = build_kernel(es)
    k = kb.assemble()
    naa, nat = idx.n_aa, idx.n_at
    assert np.allclose(kb.k_a, k[:naa, :naa])
    assert np.allclose(kb.k1, k[:naa, naa:naa + nat])
    assert np.allclose(kb.k2, k[:naa, naa + nat:])
    assert np.allclose(kb.k3, k[naa:naa + nat, naa:naa + nat])
    assert np.allclose(kb.k4, k[naa:naa + nat, naa + nat:])
    assert np.allclose(kb.k_t, k[naa + nat:, naa + nat:])


def test_minor_definition():
    idx = build_pair_index(3, 2)
    es = edges_from_coordinates(random_coords(5, seed=6), idx)
    minor = extract_minor(build_kernel(es))
    assert np.max(np.abs(minor.k1 - np.outer(np.conj(es.aa), es.at))) < 1e-12
    stacked = minor.stacked()
    assert stacked.shape == (idx.n_pairs, idx.n_at)
    assert np.allclose(stacked, np.outer(np.conj(es.values), es.at))
    s = np.linalg.svd(stacked, compute_uv=False)
    assert s[1] < 1e-10 * s[0]


def test_minor_tiny_shape():
    idx = build_pair_index(2, 1)
    es = edges_from_coordinates(random_coords(3, seed=7), idx)
    minor = extract_minor(build_kernel(es))
    assert minor.stacked().shape == (3, 2)
    assert minor.k1.shape == (1, 2)
    assert minor.k3.shape == (2, 2)
    assert minor.k4.shape == (2, 0)


def test_kernel_roundtrip_recovers_edges():
    for seed in range(10):
        idx = build_pair_index(4, 3)
        es = edges_from_coordinates(random_coords(7, seed=seed), idx)
        k = build_kernel(es).assemble()
        v_hat, lam = rank1_truncate(k, v_aa=es.aa)
        assert np.max(np.abs(v_hat - es.values)) < 1e-9
        assert lam == pytest.approx(np.sum(es.distances ** 2))
