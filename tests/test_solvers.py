from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import orthogonal_procrustes

import rigidloc.solvers as solvers
from rigidloc.edges import build_pair_index
from rigidloc.errors import (COINCIDENT_EDGES, NO_EMBEDDING, NOT_FINITE, ConfigurationError,
                             DegenerateGeometryError, NumericalFailureError,
                             raise_failure)
from rigidloc.geometry import SceneConfig, random_scene
from rigidloc.measurements import (Measurements, NoiseConfig, generate_measurements,
                                   zeta_to_rho)
from rigidloc.solvers import (SolverConfig, _anchored_mean, _at_bearings,
                              _distance_matrices, _embed, _mds, solve_landmarks)

from kernel_reference import (EdgeSet, MinorBlocks, build_kernel,
                              edges_from_coordinates, edges_from_measurements,
                              extract_minor, rank1_truncate, turbo_init,
                              turbo_iterate)


def scene_edges(seed):
    scene = random_scene(SceneConfig(), seed=seed)
    idx = build_pair_index(scene.n_anchors, scene.n_landmarks)
    return scene, idx, edges_from_coordinates(scene.complex_positions(), idx)


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
    coords = _anchored_mean(np.array([[[np.sqrt(2.0)]]]), np.array([[[np.pi / 4]]]),
                            np.zeros((2, 1)))[0]
    assert np.allclose(coords, [[1.0], [1.0]])


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
    assert np.max(np.abs((coords[0] + 1j * coords[1]) - x)) < 1e-10


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


def test_embed_distances_collinear():
    pts = np.array([0.0, 1.0, 3.0])
    d = np.abs(pts[:, None] - pts[None, :])
    coords, status = _embed(d[None])
    assert status[0] == 0
    coords = coords[0]
    # lam2 is zero only up to eigensolver roundoff, so sqrt(lam2) ~ 1e-8
    assert np.max(np.abs(coords[1])) < 1e-7
    got = np.abs(coords[0][:, None] - coords[0][None, :])
    assert np.max(np.abs(got - d)) < 1e-9


def full_eigh_trials(monkeypatch):
    """A list that gets the trial count of every full T x T `eigh` call."""
    calls, real = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        if a.shape[-1] > solvers._BLOCK:
            calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5, 2.0, 4.0])
def test_iterative_embedding_matches_eigh(monkeypatch, sigma):
    # 96 nodes take the certified block iteration; the reference raises the
    # threshold above them, so that every trial goes to the full eigh
    k = 6
    scene = random_scene(SceneConfig(n_anchors=48, n_landmarks=48),
                         [np.random.default_rng([31, i]) for i in range(k)])
    noise = NoiseConfig(sigma=sigma, rho=np.inf if sigma == 0.0 else 139.25)
    meas = generate_measurements(scene, noise, [np.random.default_rng([32, i]) for i in range(k)])
    t = meas.index.n_nodes
    assert t >= solvers._ITERATE_FROM

    def solve(method):  # on a fresh set, so that no embedding is shared
        return solve_landmarks(replace(meas), scene.anchors, config=SolverConfig(method))

    calls = full_eigh_trials(monkeypatch)
    got = {method: solve(method) for method in ("mds", "smds_distance_only")}
    fell_back = sum(calls)
    if sigma <= 2.0:
        assert fell_back == 0  # every trial certified
    else:
        assert 0 < fell_back < 2 * k  # lambda_3 near lambda_2: some fall back
    monkeypatch.setattr(solvers, "_ITERATE_FROM", t + 1)
    for method, est in got.items():
        want = solve(method)
        assert np.array_equal(est.status, want.status)
        scale = np.max(np.abs(want.coordinates))
        assert np.max(np.abs(est.coordinates - want.coordinates)) <= 1e-10 * scale
    assert sum(calls) == fell_back + 2 * k


def test_uncertified_trials_fall_back_to_eigh(monkeypatch):
    t = solvers._ITERATE_FROM
    pts = np.random.default_rng(33).uniform(0.0, 10.0, (2, t))
    planar = np.hypot(*(pts[:, :, None] - pts[:, None, :]))
    simplex = 1.0 - np.eye(t)  # lambda_2 = lambda_3: no certificate
    zero = np.zeros((t, t))    # lambda_1 = 0: no embedding
    far = 1e40 * planar        # B^4 would overflow: not iterated
    broken = planar.copy()     # B is not finite: not iterated
    broken[0, 1] = broken[1, 0] = 1e200
    dmats = np.stack([planar, simplex, zero, far, broken])
    calls = full_eigh_trials(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        coords, status = _embed(dmats)
    assert calls == [4]  # every trial but the first, in one stack
    assert list(status) == [0, 0, NO_EMBEDDING, 0, 0]
    got = np.hypot(*(coords[0][:, :, None] - coords[0][:, None, :]))
    assert np.max(np.abs(got - planar)) < 1e-9
    # a trial that falls back gets exactly the eigh path's embedding
    monkeypatch.setattr(solvers, "_ITERATE_FROM", t + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        want, want_status = _embed(dmats)
    assert np.array_equal(status, want_status)
    assert np.array_equal(coords[1:], want[1:], equal_nan=True)


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
    oracle = (rot @ y + shift[:, None])[:, m:]
    assert np.max(np.abs(coords - oracle)) < 1e-10


# smds_distance_only reconstructs its AT bearings from the MDS target
# estimates with `_at_bearings`


def test_reconstruct_angles_exact():
    scene, idx, es = scene_edges(12)
    ang, coincident = _at_bearings(scene.landmarks[None], scene.anchors.positions)
    assert not coincident[0]
    assert ang.shape == (1, idx.n_anchors, idx.n_targets)
    assert np.max(np.abs(ang[0].ravel() - es.angles[idx.at])) < 1e-12


def test_reconstruct_angles_diagonal():
    ang, _ = _at_bearings(np.array([[[1.0], [1.0]]]), np.zeros((2, 1)))
    assert ang[0, 0, 0] == pytest.approx(np.pi / 4)


def test_reconstruct_angles_coincident():
    anchors = np.array([[0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
    # only a target on an anchor leaves a bearing without direction; two
    # targets on one point do not, since no TT bearing is read
    on_anchor = np.array([[[4.0, 1.0], [0.0, 1.0]]])
    shared = np.array([[[1.0, 1.0], [1.0, 1.0]]])
    _, coincident = _at_bearings(np.concatenate([on_anchor, shared]), anchors)
    assert list(coincident) == [True, False]
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
    uncached, _ = _mds(_embed(_distance_matrices(meas.distances[None], meas.index)),
                       scene.anchors.positions, meas.index.n_anchors)
    assert np.array_equal(mds_cold, uncached[0])
