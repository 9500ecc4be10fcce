import numpy as np
import pytest
from scipy.special import i0e, i1e, iv

from rigidloc.crlb import _pose_bounds, bearing_intensity, compute_fim
from rigidloc.errors import ConfigurationError
from rigidloc.geometry import (AnchorSet, Conformation, Pose, Scene,
                               SceneConfig, random_scene)
from rigidloc.harness import DEFAULT_SIGMA_GRID
from rigidloc.measurements import NoiseConfig, generate_measurements, zeta_to_rho
from rigidloc.procrustes import estimate_pose
from rigidloc.solvers import SolverConfig, solve_landmarks

from fim_reference import fd_fim


def ring_scene(n_anchors, pose_angle=0.37):
    center = np.array([5.0, 5.0])
    ang = 0.3 + 2.0 * np.pi * np.arange(n_anchors) / n_anchors
    ring = center[:, None] + 4.0 * np.vstack([np.cos(ang), np.sin(ang)])
    body = Conformation.regular_polygon(8, 1.0)
    return Scene(AnchorSet(ring), body, Pose.from_angle(pose_angle, center))


def test_bearing_intensity_values():
    assert bearing_intensity(0.0) == 0.0
    for rho in np.logspace(-3, 6, 40):
        if np.isfinite(iv(0, rho)):
            expected = rho * iv(1, rho) / iv(0, rho)
        else:  # iv overflows; the scaled functions share the factor exp(rho)
            expected = rho * i1e(rho) / i0e(rho)
        assert bearing_intensity(rho) == pytest.approx(expected, rel=1e-12)
    # large-rho asymptote rho - 1/2
    assert bearing_intensity(1e6) == pytest.approx(1e6 - 0.5, abs=1.0)
    with pytest.raises(ValueError):
        bearing_intensity(np.inf)
    with pytest.raises(ValueError):
        bearing_intensity(-1.0)


def test_fim_matches_finite_differences():
    rng = np.random.default_rng(42)
    for seed in range(20):
        scene = random_scene(SceneConfig(), seed=seed)
        noise = NoiseConfig(sigma=rng.uniform(0.1, 1.0),
                            rho=zeta_to_rho(rng.uniform(np.deg2rad(2), np.deg2rad(30))))
        fim = compute_fim(scene, noise).matrix
        oracle = fd_fim(scene, noise)
        rel = np.linalg.norm(fim - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-6


def test_fim_positive_semidefinite():
    for seed in range(100):
        scene = random_scene(SceneConfig(), seed=seed)
        noise = NoiseConfig(sigma=0.5, rho=zeta_to_rho(np.deg2rad(8)))
        w = np.linalg.eigvalsh(compute_fim(scene, noise).matrix)
        assert w[0] >= -1e-10 * max(w[-1], 1.0)


def test_fim_additive_over_channels():
    scene = random_scene(SceneConfig(), seed=7)
    noise = NoiseConfig(sigma=0.4, rho=60.0)
    both = compute_fim(scene, noise).matrix
    dist = compute_fim(scene, noise, use_bearings=False).matrix
    bear = compute_fim(scene, noise, use_distances=False).matrix
    assert np.max(np.abs(both - (dist + bear))) < 1e-12 * np.max(np.abs(both))


def test_fim_is_exactly_symmetric():
    # F_ij and F_ji are the same products summed in the same order, so the
    # FIM needs no symmetrising step
    rho = zeta_to_rho(np.deg2rad(8))
    for n in (8, 48):
        config = SceneConfig(n_anchors=n, n_landmarks=n)
        scenes = random_scene(config, [np.random.default_rng(k) for k in range(25)])
        for sigma in DEFAULT_SIGMA_GRID:
            for channels in ((True, True), (True, False), (False, True)):
                fim = compute_fim(scenes, NoiseConfig(sigma=sigma, rho=rho), *channels).matrix
                assert np.array_equal(fim, fim.transpose(0, 2, 1)), (n, sigma, channels)
        curve = compute_fim(random_scene(config, seed=n),
                            NoiseConfig(sigma=DEFAULT_SIGMA_GRID, rho=rho)).matrix
        assert np.array_equal(curve, curve.transpose(0, 2, 1)), n


def test_crlb_anchor_doubling_halves_bounds():
    noise = NoiseConfig(sigma=0.5, rho=80.0)
    f4 = compute_fim(ring_scene(4), noise)
    f8 = compute_fim(ring_scene(8), noise)
    # the 8-ring is two interleaved 4-rings with identical information
    assert np.max(np.abs(f8.matrix - 2.0 * f4.matrix)) < 1e-9 * np.max(np.abs(f8.matrix))
    assert f4.crlb_t == pytest.approx(2.0 * f8.crlb_t, rel=1e-9)
    assert f4.crlb_alpha == pytest.approx(2.0 * f8.crlb_alpha, rel=1e-9)


def test_crlb_quarter_under_half_sigma():
    scene = random_scene(SceneConfig(), seed=11)
    f1 = compute_fim(scene, NoiseConfig(sigma=0.8, rho=50.0), use_bearings=False)
    f2 = compute_fim(scene, NoiseConfig(sigma=0.4, rho=50.0), use_bearings=False)
    assert f2.crlb_t == pytest.approx(f1.crlb_t / 4.0, rel=1e-12)
    assert f2.crlb_q == pytest.approx(f1.crlb_q / 4.0, rel=1e-12)


def test_crlb_q_is_twice_alpha():
    scene = random_scene(SceneConfig(), seed=3)
    f = compute_fim(scene, NoiseConfig(sigma=0.5, rho=80.0))
    assert f.crlb_q == pytest.approx(2.0 * f.crlb_alpha, rel=1e-15)


def test_exact_channels_rejected():
    scene = random_scene(SceneConfig(), seed=5)
    with pytest.raises(ValueError):
        compute_fim(scene, NoiseConfig(sigma=0.0, rho=50.0))
    with pytest.raises(ValueError):
        compute_fim(scene, NoiseConfig(sigma=0.5, rho=np.inf))


def test_fim_takes_one_sigma_per_trial():
    sigmas = np.array([0.1, 0.45, 2.0])
    scene = random_scene(SceneConfig(), seed=11)
    scenes = random_scene(SceneConfig(), [np.random.default_rng(k) for k in range(3)])
    for use_distances in (True, False):
        fixed = compute_fim(scene, NoiseConfig(sigma=sigmas, rho=40.0), use_distances)
        each = compute_fim(scenes, NoiseConfig(sigma=sigmas, rho=40.0), use_distances)
        assert fixed.matrix.shape == each.matrix.shape == (3, 3, 3)
        for k, sigma in enumerate(sigmas):
            noise = NoiseConfig(sigma=sigma, rho=40.0)
            one = compute_fim(scene, noise, use_distances)
            assert np.array_equal(fixed.matrix[k], one.matrix)
            assert (fixed.crlb_t[k], fixed.crlb_q[k]) == (one.crlb_t, one.crlb_q)
            one = compute_fim(random_scene(SceneConfig(), k), noise, use_distances)
            assert np.array_equal(each.matrix[k], one.matrix)
            assert (each.crlb_t[k], each.crlb_q[k]) == (one.crlb_t, one.crlb_q)
    # one pose with one sigma in an array still gives arrays
    assert compute_fim(scene, NoiseConfig(sigma=[0.5], rho=40.0)).crlb_t.shape == (1,)
    for bad in (sigmas[:2], np.append(sigmas, 1.0)):
        with pytest.raises(ValueError, match="sigma values"):
            compute_fim(scenes, NoiseConfig(sigma=bad, rho=40.0))
    with pytest.raises(ValueError, match="sigma > 0"):
        compute_fim(scene, NoiseConfig(sigma=[0.5, 0.0], rho=40.0))


def test_singular_fim_gives_infinite_bounds():
    scene = random_scene(SceneConfig(), seed=9)
    f = compute_fim(scene, NoiseConfig(sigma=1.0, rho=0.0), use_distances=False)
    assert np.all(f.matrix == 0.0)
    assert np.isinf(f.crlb_t) and np.isinf(f.crlb_alpha) and np.isinf(f.crlb_q)


def test_singularity_test_does_not_depend_on_units():
    # the same scene and noise in units s times smaller or larger: the
    # translation bound scales as s^2, the rotation bound not at all
    def bounds(s):
        config = SceneConfig(room_width=10.0 * s, room_height=10.0 * s,
                             body_radius=s, wall_clearance=3.0 * s)
        f = compute_fim(random_scene(config, seed=3),
                        NoiseConfig(sigma=0.5 * s, rho=zeta_to_rho(np.deg2rad(8.0))))
        return f.crlb_t / s ** 2, f.crlb_q

    base = bounds(1.0)
    assert base == pytest.approx((0.0074359, 0.0074348), rel=1e-4)
    for s in (1e-8, 1e-6, 1e6, 1e12):
        assert bounds(s) == pytest.approx(base, rel=1e-9)
    # a zero diagonal entry, or a singular matrix at any scale, is singular
    for fim in (np.diag([1e12, 1e12, 0.0]),
                1e-20 * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])):
        assert np.all(np.isinf(_pose_bounds(fim[None])))


def test_sigma_grid_bound_monotone_and_consistent():
    # one call with a 1-D sigma bounds one pose over a whole sigma grid
    scene = random_scene(SceneConfig(), seed=13)
    grid = [0.1, 0.3, 0.6, 1.2]
    rho = zeta_to_rho(np.deg2rad(8))
    curve = compute_fim(scene, NoiseConfig(sigma=grid, rho=rho))
    assert curve.matrix.shape == (len(grid), 3, 3) and curve.crlb_t.shape == (len(grid),)
    assert np.all(np.diff(curve.crlb_t) > 0)
    direct = compute_fim(scene, NoiseConfig(sigma=grid[2], rho=rho))
    assert np.array_equal(curve.matrix[2], direct.matrix)
    assert (curve.crlb_t[2], curve.crlb_alpha[2], curve.crlb_q[2]) == (
        direct.crlb_t, direct.crlb_alpha, direct.crlb_q)
    with pytest.raises(ConfigurationError):
        compute_fim(scene, NoiseConfig(sigma=[], rho=rho))


def test_estimator_respects_bound():
    scene = random_scene(SceneConfig(), seed=21)
    noise = NoiseConfig(sigma=0.5, rho=zeta_to_rho(np.deg2rad(8)))
    bound = compute_fim(scene, noise).crlb_t
    sq_err = []
    for k in range(300):
        meas = generate_measurements(scene, noise, 5000 + k)
        est = solve_landmarks(meas, scene.anchors, scene.conformation,
                              SolverConfig(method="smds_full"))
        pose = estimate_pose(est.coordinates, scene.conformation)
        sq_err.append(np.sum((pose.translation - scene.pose.translation) ** 2))
    mse = float(np.mean(sq_err))
    assert mse >= 0.9 * bound
