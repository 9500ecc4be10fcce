import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import orthogonal_procrustes

import rigidloc.solvers as solvers
from rigidloc.crlb import compute_fim
from rigidloc.edges import build_pair_index
from rigidloc.errors import (COINCIDENT_EDGES, NO_EMBEDDING, NO_ORIENTATION, NOT_FINITE,
                             ConfigurationError, DegenerateGeometryError,
                             NumericalFailureError, raise_failure)
from rigidloc.geometry import SceneConfig, random_scene
from rigidloc.measurements import (Measurements, NoiseConfig, generate_measurements,
                                   zeta_to_rho)
from rigidloc.solvers import (SolverConfig, _anchored_mean, _at_directions, _embed, _gram,
                              _mds, solve_landmarks)

from kernel_reference import (EdgeSet, MinorBlocks, build_kernel,
                              edges_from_coordinates, edges_from_measurements,
                              extract_minor, rank1_truncate, turbo_init,
                              turbo_iterate)


def scene_edges(seed):
    scene = random_scene(SceneConfig(), seed=seed)
    idx = build_pair_index(scene.n_anchors, scene.n_landmarks)
    return scene, idx, edges_from_coordinates(scene.complex_positions(), idx)


def xy(points):
    """The complex points x + jy of a (2, N) coordinate matrix."""
    return points[0] + 1j * points[1]


def measured(idx, v):
    """The measurement set whose complex edges are `v`."""
    return Measurements(idx, np.abs(v), np.angle(v))


def test_rank1_eigenvalue_small_case():
    k = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    v_hat, lam = rank1_truncate(k)
    assert lam == pytest.approx(2.0)
    assert np.allclose(np.outer(np.conj(v_hat), v_hat), k, atol=1e-12)


def test_rank1_recovers_noiseless_edges():
    scene, idx, es = scene_edges(0)
    k = build_kernel(es).assemble()
    v_hat, _ = rank1_truncate(k, v_aa=es.aa)
    assert np.max(np.abs(v_hat - es.values)) < 1e-9


def test_rank1_scaling():
    _, _, es = scene_edges(1)
    k = build_kernel(es).assemble()
    v1, lam1 = rank1_truncate(k, v_aa=es.aa)
    v2, lam2 = rank1_truncate(4.0 * k, v_aa=es.aa)
    assert np.max(np.abs(v2 - 2.0 * v1)) < 1e-8
    assert lam2 == pytest.approx(4.0 * lam1)


def test_rank1_zero_kernel():
    with pytest.raises(DegenerateGeometryError):
        rank1_truncate(np.zeros((4, 4), dtype=complex))


def test_rank1_phase_invariance():
    _, idx, es = scene_edges(2)
    phased = es.values * np.exp(1j * 0.8)
    k_phased = np.outer(np.conj(phased), phased)
    assert np.allclose(k_phased, build_kernel(es).assemble())
    v_hat, _ = rank1_truncate(k_phased, v_aa=es.aa)
    assert np.max(np.abs(v_hat - es.values)) < 1e-9


def test_coordinates_from_edges_exact():
    # smds_full takes the anchored mean of the measured AT edges
    scene, idx, es = scene_edges(3)
    coords = solve_landmarks(measured(idx, es.values), scene.anchors).coordinates
    assert np.max(np.abs(coords - scene.landmarks)) < 1e-12


def test_coordinates_from_edges_single_anchor():
    # AnchorSet needs three anchors, so one anchor goes to the mean itself
    coords = _anchored_mean(np.array([[[np.sqrt(2.0) * np.exp(1j * np.pi / 4)]]]),
                            np.zeros(1, dtype=complex))
    assert coords.shape == (1, 1)
    assert np.allclose(coords[0], [1.0 + 1.0j])


def test_coordinates_from_edges_against_dense_lsq():
    scene, idx, es = scene_edges(4)
    rng = np.random.default_rng(10)
    v_noisy = es.at + 0.05 * (rng.standard_normal(idx.n_at)
                              + 1j * rng.standard_normal(idx.n_at))
    v = es.values.copy()
    v[idx.at] = v_noisy
    coords = solve_landmarks(measured(idx, v), scene.anchors).coordinates

    # dense oracle: one equation per AT pair, unknowns are the N targets
    m, n = idx.n_anchors, idx.n_targets
    a = scene.anchors.positions[0] + 1j * scene.anchors.positions[1]
    design = np.zeros((m * n, n), dtype=complex)
    rhs = np.empty(m * n, dtype=complex)
    for p in range(m * n):
        i, j = idx.first[idx.at][p], idx.second[idx.at][p]
        design[p, j - m] = 1.0
        rhs[p] = a[i] + v_noisy[p]
    x, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    assert np.max(np.abs(coords - x)) < 1e-10


def test_coordinates_from_edges_rejects_no_anchor():
    meas = Measurements(build_pair_index(0, 3), np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        solve_landmarks(meas, np.zeros((2, 0)))


def test_turbo_init_noiseless():
    _, idx, es = scene_edges(5)
    minor = extract_minor(build_kernel(es))
    init = turbo_init(minor.k1, minor.k4, es.aa, es.tt)
    assert np.max(np.abs(init - es.at)) < 1e-10


def test_turbo_init_tiny_hand_case():
    idx = build_pair_index(2, 1)
    x = np.array([0.0, 1.0, 1.0 + 1.0j])
    es = edges_from_coordinates(x, idx)
    minor = extract_minor(build_kernel(es))
    init = turbo_init(minor.k1, minor.k4, es.aa, es.tt)
    # v_AA = (1), so K1^T v_AA = conj(1) * v_AT * 1 and the ratio is v_AT
    assert np.allclose(init, [1.0 + 1.0j, 1.0j], atol=1e-14)


def test_turbo_init_homogeneity():
    _, idx, es = scene_edges(6)
    c = 3.0
    minor = extract_minor(build_kernel(es))
    init = turbo_init(minor.k1, minor.k4, es.aa, es.tt)
    es2 = EdgeSet(idx, c * es.values)
    minor2 = extract_minor(build_kernel(es2))
    init2 = turbo_init(minor2.k1, minor2.k4, es2.aa, es2.tt)
    assert np.max(np.abs(init2 - c * init)) < 1e-9


def test_turbo_fixed_point():
    _, idx, es = scene_edges(7)
    minor = extract_minor(build_kernel(es))
    result = turbo_iterate(minor, es.aa, es.tt, es.at,
                           max_iterations=1)
    assert result.residual < 1e-12


def test_turbo_converges_from_init():
    _, idx, es = scene_edges(8)
    minor = extract_minor(build_kernel(es))
    init = turbo_init(minor.k1, minor.k4, es.aa, es.tt)
    result = turbo_iterate(minor, es.aa, es.tt, init)
    assert result.converged
    assert result.iterations <= 2
    assert np.max(np.abs(result.v_at - es.at)) < 1e-9


def test_turbo_converges_under_noise():
    noise = NoiseConfig(sigma=0.5, rho=zeta_to_rho(np.deg2rad(5.0)))
    for seed in range(20):
        scene = random_scene(SceneConfig(), seed=seed)
        es = edges_from_measurements(generate_measurements(scene, noise, seed), scene)
        minor = extract_minor(build_kernel(es))
        result = turbo_iterate(minor, es.aa, es.tt,
                               turbo_init(minor.k1, minor.k4, es.aa, es.tt))
        assert result.converged
        assert result.iterations < 100


def test_turbo_divergence_guard():
    minor = MinorBlocks(k1=np.zeros((1, 2), dtype=complex),
                        k3=1e8 * np.eye(2, dtype=complex),
                        k4=np.zeros((2, 0), dtype=complex))
    with pytest.raises(NumericalFailureError):
        turbo_iterate(minor, np.array([1.0 + 0j]), np.zeros(0, dtype=complex),
                      np.array([1.0 + 0j, 1.0 + 0j]))


def gram(dmats, m):
    """`_gram` of a (K, T, T) stack of distance matrices whose first m nodes are anchors."""
    index = build_pair_index(m, dmats.shape[-1] - m)
    return _gram(dmats[:, index.first, index.second], index)


@pytest.mark.parametrize("m,n", [(0, 5), (3, 1), (8, 8), (20, 30)])
def test_gram_is_the_double_centred_square(m, n):
    rng = np.random.default_rng(34)
    pts = rng.uniform(0.0, 10.0, (4, 2, m + n))
    dmats = np.hypot(*(pts[:, :, :, None] - pts[:, :, None, :]).transpose(1, 0, 2, 3))
    dmats[1] += rng.uniform(0.0, 1.0, dmats[1].shape)  # a noisy, non-Euclidean set
    dmats[1] = np.triu(dmats[1], 1) + np.triu(dmats[1], 1).T
    b = gram(dmats, m)
    t = m + n
    h = np.eye(t) - np.full((t, t), 1.0 / t)
    want = -0.5 * h @ (dmats * dmats) @ h
    assert np.array_equal(b, b.transpose(0, 2, 1))  # exactly symmetric
    assert np.max(np.abs(b - want)) <= 1e-13 * np.max(np.abs(want))


def test_embed_distances_collinear():
    pts = np.array([0.0, 1.0, 3.0])
    d = np.abs(pts[:, None] - pts[None, :])
    coords, status = _embed(gram(d[None], 1))
    assert status[0] == 0 and coords.shape == (1, 3)
    coords = coords[0]
    # lam2 is zero only up to eigensolver roundoff, so sqrt(lam2) ~ 1e-8
    assert np.max(np.abs(coords.imag)) < 1e-7
    got = np.abs(coords.real[:, None] - coords.real[None, :])
    assert np.max(np.abs(got - d)) < 1e-9


def eigh_only(monkeypatch):
    """Make `_embed` take every trial's pairs from `_eigh_pairs`, the reference."""
    monkeypatch.setattr(solvers, "_leading_pairs",
                        lambda b: (*solvers._eigh_pairs(b), np.ones(len(b), dtype=bool)))


def full_eigh_trials(monkeypatch):
    """A list that gets the trial count of every full T x T `eigh` call.

    The iteration solves its 2 x 2 Rayleigh-Ritz steps in closed form, so
    every `eigh` call is a full one.
    """
    calls, real = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


@pytest.mark.parametrize("size,sigma", [
    pytest.param(size, sigma, id=f"{sigma}" if size == 48 else f"16-nodes-{sigma}")
    for size in (48, 8) for sigma in (0.0, 0.1, 0.5, 2.0, 4.0)])
def test_iterative_embedding_matches_eigh(monkeypatch, size, sigma):
    # 16 and 96 nodes, the two benchmark scenes, take the certified
    # two-column iteration; the reference takes every trial's pairs from
    # `_eigh_pairs` in its place
    k = 6
    scene = random_scene(SceneConfig(n_anchors=size, n_landmarks=size),
                         [np.random.default_rng([31, i]) for i in range(k)])
    noise = NoiseConfig(sigma=sigma, rho=np.inf if sigma == 0.0 else 139.25)
    meas = generate_measurements(scene, noise, [np.random.default_rng([32, i]) for i in range(k)])

    def solve(method):  # on a fresh set, so that no embedding is shared
        return solve_landmarks(replace(meas), scene.anchors, config=SolverConfig(method))

    calls = full_eigh_trials(monkeypatch)
    got = {method: solve(method) for method in ("mds", "smds_distance_only")}
    fell_back = sum(calls)
    if sigma <= 2.0:
        assert fell_back == 0  # every trial certified
    else:
        assert 0 < fell_back < 2 * k  # lambda_3 near lambda_2: some fall back
    eigh_only(monkeypatch)
    for method, est in got.items():
        want = solve(method)
        assert np.array_equal(est.status, want.status)
        scale = np.max(np.abs(want.coordinates))
        assert np.max(np.abs(est.coordinates - want.coordinates)) <= 1e-10 * scale
    assert sum(calls) == fell_back + 2 * k


@pytest.mark.parametrize("t", [80, 96, 128])
def test_frobenius_certificate_implies_the_cholesky_one(monkeypatch, t):
    # the first stage keeps a trial on ||B - Y Lambda Y^T||_F alone; every
    # trial it keeps must also have the Cholesky factor of the second
    kept, real = [], solvers._frobenius_certified

    def spy(*args):
        kept.append(real(*args))
        return kept[-1]

    monkeypatch.setattr(solvers, "_frobenius_certified", spy)
    k, sigmas = 6, (0.0, 0.5, 1.0, 2.0, 4.0, 6.0)
    stacks = []
    for sigma in sigmas:
        scene = random_scene(SceneConfig(n_anchors=t // 2, n_landmarks=t // 2),
                             [np.random.default_rng([35, t, i]) for i in range(k)])
        noise = NoiseConfig(sigma=sigma, rho=139.25)
        meas = generate_measurements(scene, noise, [np.random.default_rng([36, t, i])
                                                    for i in range(k)])
        stacks.append(_gram(meas.distances, meas.index))
    # lambda_2 = lambda_3, far below lambda_1: rings of a regular octagon
    # strung along an axis. It converges but has no certificate, which a
    # bound on lambda_1 in place of lambda_2 would give it
    node = np.arange(t)
    corner = 2 * np.pi * (node % 8) / 8
    pts = np.stack([10.0 * (node // 8 - (t // 8 - 1) / 2), np.cos(corner), np.sin(corner)])
    dist = np.sqrt(np.sum((pts[:, :, None] - pts[:, None, :]) ** 2, axis=0))
    index = build_pair_index(t // 2, t // 2)
    stacks.append(_gram(dist[None, index.first, index.second], index))
    for sigma, b in zip((*sigmas, None), stacks):
        lam, vec, found = solvers._leading_pairs(b)
        frobenius = kept.pop() & found
        for i in np.flatnonzero(frobenius):
            m = (vec[i] * lam[i]) @ vec[i].T - b[i]
            m[np.diag_indices(t)] += (1.0 - solvers._GAP) * lam[i, 1]
            np.linalg.cholesky(m)  # raises if the Frobenius test was wrong
        if sigma is None:
            assert not found[0]
        elif sigma <= 1.0:
            assert frobenius.all()  # small noise: no Cholesky factor needed
        elif sigma <= 4.0:
            assert (found & ~frobenius).any()  # the Cholesky stage certifies


def frobenius_spy(monkeypatch):
    """A list that gets the mask of every `_frobenius_certified` call."""
    kept, real = [], solvers._frobenius_certified

    def spy(*args):
        kept.append(real(*args))
        return kept[-1]

    monkeypatch.setattr(solvers, "_frobenius_certified", spy)
    return kept


def test_cholesky_certificate_is_decided_per_trial(monkeypatch):
    # a 12-trial stack, as the harness runs at T = 96, whose Cholesky stage
    # both certifies and refuses: trials certified by the Frobenius test,
    # trials certified by the Cholesky one, sigma = 6 trials that go to
    # eigh, and the octagon rings of the test above, which converge with no
    # certificate. Each trial's Gram matrix, eigenpairs, certificate and
    # embedding must be those it gets alone
    sigmas = (0.5, 2.0, 2.0, 6.0, 6.0, 0.1, 1.0, 4.0, 0.5, 2.0, 6.0)
    assert_decided_per_trial(monkeypatch, 96, sigmas, "TTTFFTTTTTFF", "TFFFFTTFTFFF")


def test_cholesky_certificate_is_decided_per_trial_at_16_nodes(monkeypatch):
    # the same kinds of trial at T = 16, the default room's node count
    sigmas = (0.5, 3.0, 3.0, 6.0, 2.0, 0.1, 1.0, 4.0, 2.5, 6.0, 2.0)
    assert_decided_per_trial(monkeypatch, 16, sigmas, "TTTFTTTFTFTF", "TFFFFTTFFFTF")


def assert_decided_per_trial(monkeypatch, t, sigmas, want_found, want_frobenius):
    """Check a stack of one trial per sigma and the octagon rings at T nodes.

    The certified trials and the Frobenius stage's mask must read as the
    wanted T/F strings, and each trial must get alone what it gets in the
    stack.
    """
    index = build_pair_index(t // 2, t // 2)
    rows = []
    for seed, sigma in enumerate(sigmas):
        scene = random_scene(SceneConfig(n_anchors=t // 2, n_landmarks=t // 2),
                             np.random.default_rng([38, seed]))
        meas = generate_measurements(scene, NoiseConfig(sigma=sigma, rho=139.25),
                                     np.random.default_rng([39, seed]))
        rows.append(meas.distances)
    node = np.arange(t)
    corner = 2 * np.pi * (node % 8) / 8
    pts = np.stack([10.0 * (node // 8 - (t // 8 - 1) / 2), np.cos(corner), np.sin(corner)])
    dist = np.sqrt(np.sum((pts[:, :, None] - pts[:, None, :]) ** 2, axis=0))
    rows.append(dist[index.first, index.second])
    distances = np.stack(rows)
    kept = frobenius_spy(monkeypatch)
    b = _gram(distances, index)
    lam, vec, found = solvers._leading_pairs(b)
    assert "".join("TF"[not f] for f in found) == want_found
    assert "".join("TF"[not f] for f in kept.pop()) == want_frobenius
    coords, status = _embed(b)
    for i, d in enumerate(distances):
        b_i = _gram(d[None], index)
        assert np.array_equal(b_i[0], b[i])
        alone = solvers._leading_pairs(b_i)
        assert np.array_equal(alone[0][0], lam[i])
        assert np.array_equal(alone[1][0], vec[i])
        assert alone[2][0] == found[i]
        coords_i, status_i = _embed(b_i)
        assert np.array_equal(coords_i[0], coords[i]) and status_i[0] == status[i]


def test_uncertified_trials_fall_back_to_eigh(monkeypatch):
    t = 16
    pts = np.random.default_rng(33).uniform(0.0, 10.0, (2, t))
    planar = np.hypot(*(pts[:, :, None] - pts[:, None, :]))
    simplex = 1.0 - np.eye(t)  # lambda_2 = lambda_3: no certificate
    zero = np.zeros((t, t))    # lambda_1 = 0: no embedding
    far = 1e76 * planar        # ||B||_F^2 overflows: not iterated
    huge = 1e40 * planar       # B^12 would overflow unscaled: iterated
    broken = planar.copy()     # B is not finite: NaN pairs, kept out of eigh
    broken[0, 1] = broken[1, 0] = 1e200
    dmats = np.stack([planar, simplex, zero, far, huge, broken])
    calls = full_eigh_trials(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        b = gram(dmats, t // 2)
        coords, status = _embed(b)
    assert calls == [3]  # the uncertified finite trials, in one stack
    assert list(status) == [0, 0, NO_EMBEDDING, 0, 0, 0]
    assert np.isnan(coords[5]).all()
    for i, scale in ((0, 1.0), (4, 1e40)):
        got = np.abs(coords[i][:, None] - coords[i][None, :])
        assert np.max(np.abs(got - scale * planar)) < 1e-9 * scale
    # a trial that falls back gets exactly the eigh path's embedding
    eigh_only(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        want, want_status = _embed(b)
    assert np.array_equal(status, want_status)
    assert np.array_equal(coords[1:4], want[1:4])
    assert np.array_equal(coords[5], want[5], equal_nan=True)


@pytest.mark.parametrize("size", [8, 48])
@pytest.mark.parametrize("method", ["mds", "smds_distance_only"])
def test_a_non_finite_gram_matrix_fails_only_its_trial(size, method):
    # a distance of 1e200 m squares to infinity; eigh on such a stack would
    # raise for the whole batch, so the trial gets NaN pairs instead and is
    # reported by the same code at every size
    index = build_pair_index(size, size)
    scene = random_scene(SceneConfig(n_anchors=size, n_landmarks=size),
                         [np.random.default_rng([37, i]) for i in range(2)])
    meas = generate_measurements(scene, NoiseConfig(sigma=0.5, rho=139.25),
                                 [np.random.default_rng([38, i]) for i in range(2)])
    distances = meas.distances.copy()
    distances[1, 0] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        est = solve_landmarks(Measurements(index, distances, meas.angles), scene.anchors,
                              config=SolverConfig(method))
    assert list(est.status) == [0, NO_ORIENTATION]
    assert np.isfinite(est.coordinates[0]).all()


def test_classic_mds_noiseless():
    scene, idx, es = scene_edges(9)
    coords = solve_landmarks(measured(idx, es.values), scene.anchors,
                             config=SolverConfig("mds")).coordinates
    assert np.max(np.abs(coords - scene.landmarks)) < 1e-9


def test_classic_mds_against_dense_oracle():
    scene, idx, es = scene_edges(10)
    rng = np.random.default_rng(11)
    d_noisy = es.distances + 0.05 * rng.standard_normal(idx.n_pairs)
    coords = solve_landmarks(Measurements(idx, d_noisy, es.angles), scene.anchors,
                             config=SolverConfig("mds")).coordinates

    # independent reimplementation: double centering + scipy procrustes
    t = idx.n_nodes
    dm = np.zeros((t, t))
    dm[idx.first, idx.second] = d_noisy
    dm = dm + dm.T
    h = np.eye(t) - np.full((t, t), 1.0 / t)
    b = -0.5 * h @ (dm * dm) @ h
    w, u = np.linalg.eigh(0.5 * (b + b.T))
    y = (u[:, [-1, -2]] * np.sqrt(np.maximum(w[[-1, -2]], 0.0))).T
    m = idx.n_anchors
    src = y[:, :m] - y[:, :m].mean(axis=1, keepdims=True)
    tgt = scene.anchors.positions - scene.anchors.positions.mean(axis=1, keepdims=True)
    r, _ = orthogonal_procrustes(src.T, tgt.T)
    rot = r.T
    shift = scene.anchors.positions.mean(axis=1) - rot @ y[:, :m].mean(axis=1)
    oracle = xy(rot @ y + shift[:, None])[m:]
    assert np.max(np.abs(coords - oracle)) < 1e-10


# smds_distance_only reconstructs its AT bearings, as unit directions,
# from the MDS target estimates with `_at_directions`


def test_reconstruct_angles_exact():
    scene, idx, es = scene_edges(12)
    u, coincident = _at_directions(scene.landmarks[None], xy(scene.anchors.positions))
    assert not coincident[0]
    assert u.shape == (1, idx.n_anchors, idx.n_targets)
    assert np.max(np.abs(u[0].ravel() - np.exp(1j * es.angles[idx.at]))) < 1e-12


def test_reconstruct_angles_diagonal():
    u, _ = _at_directions(np.array([[1.0 + 1.0j]]), np.zeros(1, dtype=complex))
    assert np.angle(u[0, 0, 0]) == pytest.approx(np.pi / 4)
    assert abs(u[0, 0, 0]) == pytest.approx(1.0)


def test_reconstruct_angles_coincident():
    anchors = np.array([0.0, 4.0, 4.0j])
    # only a target on an anchor leaves a bearing without direction; two
    # targets on one point do not, since no TT bearing is read
    on_anchor = np.array([4.0, 1.0 + 1.0j])
    shared = np.array([1.0 + 1.0j, 1.0 + 1.0j])
    u, coincident = _at_directions(np.stack([on_anchor, shared]), anchors)
    assert list(coincident) == [True, False]
    assert np.isnan(u[0, 1, 0]) and np.all(np.isfinite(u[1]))
    # the code a coincident trial gets, which one measurement set raises
    with pytest.raises(DegenerateGeometryError):
        raise_failure(COINCIDENT_EDGES)


def test_solve_landmarks_noiseless_all_methods():
    noise = NoiseConfig(sigma=0.0, rho=np.inf)
    for seed in range(3):
        scene = random_scene(SceneConfig(), seed=seed)
        meas = generate_measurements(scene, noise, seed)
        for method in ("mds", "smds_full", "smds_distance_only"):
            est = solve_landmarks(meas, scene.anchors, scene.conformation,
                                  SolverConfig(method=method))
            assert np.max(np.abs(est.coordinates - scene.landmarks)) < 1e-9


def test_solve_landmarks_validation():
    scene = random_scene(SceneConfig(), seed=1)
    meas = generate_measurements(scene, NoiseConfig(sigma=0.1, rho=100.0), 0)
    other = random_scene(SceneConfig(n_anchors=6), seed=1)
    with pytest.raises(ValueError):
        solve_landmarks(meas, other.anchors, scene.conformation)
    with pytest.raises(ValueError, match="conformation size"):
        solve_landmarks(meas, scene.anchors, SceneConfig(n_landmarks=6).conformation)
    with pytest.raises(ConfigurationError):
        SolverConfig(method="nonsense")


def test_solve_landmarks_accepts_raw_anchor_array():
    scene = random_scene(SceneConfig(), seed=4)
    meas = generate_measurements(scene, NoiseConfig(sigma=0.2, rho=200.0), 0)
    wrapped = solve_landmarks(meas, scene.anchors)
    raw = solve_landmarks(meas, scene.anchors.positions)
    assert np.array_equal(raw.coordinates, wrapped.coordinates)
    with pytest.raises(ValueError):
        solve_landmarks(meas, scene.anchors.positions.T)


def test_landmark_estimate_rejects_nonfinite():
    # AT edges of 1e308 m overflow the anchored mean to inf: one trial
    # raises, and K trials report the code
    scene, idx, es = scene_edges(3)
    huge = Measurements(idx, np.full(idx.n_pairs, 1e308), es.angles)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError):
            solve_landmarks(huge, scene.anchors)
        batch = Measurements(idx, np.stack([es.distances, huge.distances]),
                             np.stack([es.angles, es.angles]))
        est = solve_landmarks(batch, scene.anchors)
    assert list(est.status) == [0, NOT_FINITE]


def test_median_rmse_improves_with_bearing_accuracy():
    sigma = 0.3
    medians = []
    for rho in (20.0, 80.0, 320.0):
        noise = NoiseConfig(sigma=sigma, rho=rho)
        errs = []
        for k in range(500):
            rng = np.random.default_rng(1000 + k)
            scene = random_scene(SceneConfig(), rng)
            meas = generate_measurements(scene, noise, rng)
            est = solve_landmarks(meas, scene.anchors, scene.conformation,
                                  SolverConfig(method="smds_full"))
            errs.append(np.linalg.norm(est.coordinates - scene.landmarks)
                        / np.sqrt(scene.n_landmarks))
        medians.append(np.median(errs))
    assert medians[0] >= medians[1] >= medians[2]


def test_mds_methods_share_one_embedding_bitwise():
    scene = random_scene(SceneConfig(n_anchors=10, n_landmarks=9), seed=21)
    meas = generate_measurements(scene, NoiseConfig(sigma=0.4, rho=60.0), 5)

    def solve(m, method):
        return solve_landmarks(m, scene.anchors, scene.conformation,
                               SolverConfig(method=method)).coordinates

    mds_cold = solve(meas, "mds")
    dist_only_warm = solve(meas, "smds_distance_only")
    fresh = replace(meas)  # an equal but distinct set, solved in the other order
    assert fresh is not meas
    dist_only_cold = solve(fresh, "smds_distance_only")
    mds_warm = solve(fresh, "mds")
    assert np.array_equal(mds_warm, mds_cold)
    assert np.array_equal(dist_only_warm, dist_only_cold)
    uncached, _ = _mds(_embed(_gram(meas.distances[None], meas.index)),
                       xy(scene.anchors.positions), meas.index.n_anchors)
    assert np.array_equal(mds_cold, uncached[0])


def test_mds_aligns_a_mirrored_embedding_by_its_conjugate():
    # an embedding's chirality is arbitrary: the mirror image of the
    # scene, and that mirror image turned and shifted, must come back
    # onto the true landmarks through q conj(y) + t
    scene = random_scene(SceneConfig(), seed=22)
    x = scene.complex_positions()
    m = scene.n_anchors
    mirrored = np.stack([x.conj(), np.exp(0.7j) * x.conj() + (3.0 - 1.0j), x])
    targets, status = _mds((mirrored, np.zeros(3, dtype=int)),
                           xy(scene.anchors.positions), m)
    assert list(status) == [0, 0, 0]
    assert np.max(np.abs(targets - scene.landmarks)) < 1e-12


def layouts(a):
    """The values of a (K, P) array in C order, in F order, and as a strided view."""
    wide = np.zeros((len(a), 2 * a.shape[1]))
    wide[:, ::2] = a
    return np.ascontiguousarray(a), np.asfortranarray(a), wide[:, ::2]


@pytest.mark.parametrize("size,sigmas", [(8, (0.1, 0.5, 1.0, 2.0, 4.0)),
                                         (48, (0.5, 2.0, 6.0, 6.0))])
def test_results_do_not_depend_on_the_measurement_layout(monkeypatch, size, sigmas):
    k = len(sigmas)
    scene = random_scene(SceneConfig(n_anchors=size, n_landmarks=size),
                         [np.random.default_rng([40, size, i]) for i in range(k)])
    meas = generate_measurements(scene, NoiseConfig(sigma=sigmas, rho=139.25),
                                 [np.random.default_rng([41, size, i]) for i in range(k)])
    if size == 48:
        # the Frobenius stage, the Cholesky stage and the eigh fallback all run
        kept = frobenius_spy(monkeypatch)
        found = solvers._leading_pairs(_gram(meas.distances, meas.index))[2]
        frobenius = kept.pop()
        assert frobenius.any() and (found & ~frobenius).any() and not found.all()
    distances, angles = layouts(meas.distances), layouts(meas.angles)
    assert [d.flags.c_contiguous for d in distances] == [True, False, False]
    assert [d.flags.f_contiguous for d in distances] == [False, True, False]
    results = []
    for d, th in zip(distances, angles):
        assert np.array_equal(d, meas.distances) and np.array_equal(th, meas.angles, equal_nan=True)
        laid = Measurements(meas.index, d, th)
        results.append([solve_landmarks(laid, scene.anchors, config=SolverConfig(method))
                        for method in solvers.METHODS])
    c_order, f_order, strided = results
    for other in (f_order, strided):
        for got, want in zip(other, c_order):
            assert np.array_equal(got.coordinates, want.coordinates, equal_nan=True)
            assert np.array_equal(got.status, want.status)


@pytest.mark.parametrize("t", [6, 16, 96])
def test_the_start_block_is_drawn_once_per_size(t):
    block = solvers._start_block(t)
    assert block is solvers._start_block(t)
    assert np.array_equal(block, np.random.default_rng(0).standard_normal((2, t)))
    assert not block.flags.writeable


def test_in_place_stages_leave_their_inputs_unchanged():
    k = 3
    scene = random_scene(SceneConfig(n_anchors=48, n_landmarks=48),
                         [np.random.default_rng([50, i]) for i in range(k)])
    noise = NoiseConfig(sigma=(0.5, 2.0, 6.0), rho=139.25, tt_noisy=True)
    inputs = (scene.landmarks, scene.anchors.positions, scene.conformation.points)
    kept = [a.copy() for a in inputs]
    meas = generate_measurements(scene, noise, [np.random.default_rng([51, i]) for i in range(k)])
    d, th = meas.distances.copy(), meas.angles.copy()
    compute_fim(scene, noise)
    solved = {}
    # smds_distance_only computes the embedding, which mds then reuses
    for method in ("smds_full", "smds_distance_only", "mds"):
        if method == "mds":
            y, status = (a.copy() for a in meas.embedding)
        solved[method] = solve_landmarks(meas, scene.anchors, config=SolverConfig(method))
    for a, b in zip(inputs, kept):
        assert a.tobytes() == b.tobytes()
    assert meas.distances.tobytes() == d.tobytes() and meas.angles.tobytes() == th.tobytes()
    assert meas.embedding[0].tobytes() == y.tobytes()
    assert meas.embedding[1].tobytes() == status.tobytes()
    fresh = solve_landmarks(Measurements(meas.index, d, th), scene.anchors,
                            config=SolverConfig("mds"))
    assert fresh.coordinates.tobytes() == solved["mds"].coordinates.tobytes()
    assert fresh.status.tobytes() == solved["mds"].status.tobytes()


def test_at_stages_peak_within_a_few_complex_at_blocks():
    # one complex (K, M, N) array is the unit: the FIM holds u, conj(u) w,
    # |e| and its (K, 3, M, N) gradient buffer; each SMDS method works in
    # one complex array of AT edges (4.13, 1.26 and 1.83 units measured
    # with numpy 2.4, against 4.51, 2.26 and 3.28 before these stages
    # worked in place)
    k, size = 12, 48
    scene = random_scene(SceneConfig(n_anchors=size, n_landmarks=size),
                         [np.random.default_rng([60, i]) for i in range(k)])
    noise = NoiseConfig(sigma=np.repeat((0.1, 0.5, 2.0), 4), rho=139.25)
    meas = generate_measurements(scene, noise, [np.random.default_rng([61, i]) for i in range(k)])
    unit = k * size * size * np.dtype(complex).itemsize

    def peak(run):
        run()  # fills the caches of one-time values, and the embedding
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    def solve(method):
        return lambda: solve_landmarks(meas, scene.anchors, config=SolverConfig(method))

    assert peak(lambda: compute_fim(scene, noise)) <= 4.3
    assert peak(solve("smds_full")) <= 1.5
    assert meas.embedding is None
    assert peak(solve("smds_distance_only")) <= 2.25
