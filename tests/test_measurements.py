import pathlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e, iv

from rigidloc.crlb import _pose_gradients
from rigidloc.edges import build_pair_index
from rigidloc.errors import ConfigurationError, DegenerateGeometryError
from rigidloc.geometry import Scene, SceneConfig, _complex, random_scene
from rigidloc.harness import run_experiment
from rigidloc.measurements import (ZETA_MAX, Measurements, NoiseConfig,
                                   generate_measurements, rho_to_zeta,
                                   sample_angle, sample_distance, wrap_angle,
                                   zeta_to_rho)
from rigidloc.scenario import load_scenario

SCENARIO_DEFAULT = (pathlib.Path(__file__).resolve().parent.parent
                    / "demos" / "scenario_default.yaml")


def vonmises_mass_oracle(zeta, rho):
    # direct quadrature of the density, scaled to avoid overflow at large
    # rho; 2 sin^2(t/2) = 1 - cos(t) keeps the exponent exact at small t
    def dens(t):
        return np.exp(-2.0 * rho * np.sin(0.5 * t) ** 2) / (2.0 * np.pi * i0e(rho))
    val, _ = quad(dens, -zeta, zeta, epsabs=1e-12, epsrel=1e-12)
    return val


def test_sample_distance_zero_noise():
    rng = np.random.default_rng(0)
    assert sample_distance(5.0, 0.0, rng) == 5.0


def test_sample_distance_moments():
    rng = np.random.default_rng(1)
    x = sample_distance(np.full(10 ** 6, 5.0), 0.5, rng)
    assert abs(x.mean() - 5.0) < 0.002
    assert abs(x.std() - 0.5) < 0.002


def test_gamma_parameterization_identities():
    # mean = shape*scale, var = shape*scale^2 for the chosen mapping
    for d, sigma in [(5.0, 0.5), (2.0, 0.1), (12.0, 1.5)]:
        shape = (d / sigma) ** 2
        scale = sigma ** 2 / d
        assert shape * scale == pytest.approx(d)
        assert shape * scale ** 2 == pytest.approx(sigma ** 2)


def test_sample_distance_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_distance(0.0, 0.5, rng)
    with pytest.raises(ValueError):
        sample_distance(5.0, -1.0, rng)


def test_sample_angle_concentration_limit():
    rng = np.random.default_rng(2)
    out = sample_angle(np.full(1000, 0.7), 1e8, rng)
    assert np.max(np.abs(out - 0.7)) < 1e-3
    exact = sample_angle(0.7, np.inf, rng)
    assert exact == pytest.approx(0.7, abs=1e-12)


def test_sample_angle_uniform_limit():
    rng = np.random.default_rng(3)
    x = sample_angle(np.zeros(10 ** 6), 0.0, rng)
    resultant = np.abs(np.exp(1j * x).mean())
    assert resultant < 0.005


def test_sample_angle_circular_variance():
    rng = np.random.default_rng(4)
    x = sample_angle(np.full(10 ** 6, 1.2), 4.0, rng)
    r_bar = np.abs(np.exp(1j * (x - 1.2)).mean())
    target = iv(1, 4.0) / iv(0, 4.0)
    assert abs((1.0 - r_bar) - (1.0 - target)) < 2e-3


def test_sample_angle_range_and_symmetry():
    rng = np.random.default_rng(5)
    x = sample_angle(np.full(10 ** 6, 3.0), 2.0, rng)
    assert np.all(x >= -np.pi) and np.all(x < np.pi)
    # symmetric about the true angle: mean sine of the deviation vanishes
    assert abs(np.mean(np.sin(x - 3.0))) < 3e-3


def test_wrap_angle_halfopen():
    assert wrap_angle(np.pi) == -np.pi
    assert wrap_angle(-np.pi) == -np.pi
    assert wrap_angle(0.5) == 0.5
    assert wrap_angle(2 * np.pi + 0.25) == pytest.approx(0.25)


def test_wrap_angle_is_the_remainder_formula_bit_for_bit():
    pi = np.pi
    edges = np.array([pi, -pi, 0.0, -0.0, np.nextafter(pi, 0.0), np.nextafter(-pi, 0.0),
                      2 * pi, -2 * pi, np.nextafter(2 * pi, 0.0), 1e300, -1e300,
                      np.inf, -np.inf, np.nan, 5e-324, -5e-324])
    rng = np.random.default_rng(12)
    draws = [rng.uniform(-pi, pi, 4000), rng.uniform(-20.0, 20.0, 4000),
             rng.standard_normal(4000) * 1e6, rng.vonmises(3.0, 2.0, 4000)]
    for theta in (edges, *draws):
        with np.errstate(invalid="ignore"):  # the remainder of +-inf is NaN
            want = (theta + pi) % (2 * pi) - pi
            got = wrap_angle(theta)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for x in edges:  # one value at a time, as a scalar
        with np.errstate(invalid="ignore"):
            want, got = (x + pi) % (2 * pi) - pi, wrap_angle(x)
        assert np.ndim(got) == 0
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_zeta_to_rho_uniform_limit():
    assert zeta_to_rho(ZETA_MAX) == 0.0


def test_zeta_rho_round_trips():
    for zeta in [0.1, np.deg2rad(5.0), 0.5, 1.0]:
        assert abs(rho_to_zeta(zeta_to_rho(zeta)) - zeta) < 1e-8


def test_zeta_to_rho_quadrature_oracle():
    for zeta in (1e-3, 0.05, np.deg2rad(5.0), np.deg2rad(8.0), 0.5, 1.0, 2.0, 2.5):
        rho = zeta_to_rho(zeta)
        assert abs(vonmises_mass_oracle(zeta, rho) - 0.9) < 1e-12


def test_zeta_to_rho_tiny_zeta_is_normal_limit():
    # for rho -> inf the von Mises tends to a normal with variance 1/rho
    z95 = 1.6448536269514722
    zeta = 1e-8
    rho = zeta_to_rho(zeta)
    assert np.isfinite(rho)
    assert rho == pytest.approx((z95 / zeta) ** 2, rel=1e-6)


def test_zeta_to_rho_just_above_the_float_range_is_finite():
    # (z95 / zeta)^2 is finite here, but twice it, the bisection bracket,
    # overflows; the root is about 1.2e308
    z95 = 1.6448536269514722
    zeta = 1.5e-154
    rho = zeta_to_rho(zeta)
    assert np.isfinite(rho)
    assert rho == pytest.approx((z95 / zeta) ** 2, rel=1e-6)


def test_zeta_to_rho_below_the_float_range_is_infinite():
    # (z95 / zeta)^2 overflows a float below about 1.2e-154 rad; the
    # bracket and the root are then inf, not an OverflowError
    for zeta in (1e-200, 1e-310):
        assert zeta_to_rho(zeta) == np.inf


def test_rho_to_zeta_edges():
    z95 = 1.6448536269514722
    for rho in (1e12, 1e300):
        assert rho_to_zeta(rho) == pytest.approx(z95 / np.sqrt(rho), rel=1e-6)
    assert rho_to_zeta(np.inf) == 0.0
    assert rho_to_zeta(0.0) == ZETA_MAX
    for bad in (np.nan, -1.0):
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            rho_to_zeta(bad)


def test_zeta_to_rho_strictly_decreasing():
    zetas = np.linspace(0.05, ZETA_MAX, 12)
    rhos = [zeta_to_rho(z) for z in zetas]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_zeta_to_rho_rejects_out_of_range():
    # repeated, because solved values are cached and errors must not be
    for _ in range(2):
        with pytest.raises(ValueError):
            zeta_to_rho(0.0)
        with pytest.raises(ValueError):
            zeta_to_rho(0.95 * np.pi)


def test_noise_config_validation():
    with pytest.raises(ConfigurationError):
        NoiseConfig(sigma=-0.1, rho=10.0)
    with pytest.raises(ConfigurationError):
        NoiseConfig(sigma=0.5)
    with pytest.raises(ConfigurationError, match="rho must be nonnegative"):
        NoiseConfig(sigma=1.0, rho=-1.0)
    # strings and bools are not numbers, even where they would convert
    for bad in (dict(sigma="0.5", rho=1.0), dict(sigma=True, rho=1.0),
                dict(sigma=0.5, rho="1"), dict(sigma=0.5, rho=True),
                dict(sigma=[0.5, "1"], rho=1.0), dict(sigma=[True, False], rho=1.0)):
        with pytest.raises(ConfigurationError, match="must be a number"):
            NoiseConfig(**bad)
    # flags are booleans, not truthy values
    for flag in ("false", 1, None):
        with pytest.raises(ConfigurationError, match="tt_noisy"):
            NoiseConfig(sigma=0.5, rho=1.0, tt_noisy=flag)
    assert NoiseConfig(sigma=0.5, rho=1.0, tt_noisy=np.True_).tt_noisy
    # one sigma per trial: a finite, nonnegative, nonempty 1-D array
    for sigma in (np.ones((2, 2)), [], [0.5, np.nan], [0.5, np.inf], [0.5, -0.1]):
        with pytest.raises(ConfigurationError, match="sigma"):
            NoiseConfig(sigma=sigma, rho=1.0)
    # sigma^2 is the range variance, so it must be a finite float too
    assert NoiseConfig(sigma=1.34e154, rho=1.0).sigma == 1.34e154
    for sigma in (1.35e154, 1e155, [0.5, 1e155]):
        with pytest.raises(ConfigurationError, match="finite square"):
            NoiseConfig(sigma=sigma, rho=1.0)
    cfg = NoiseConfig(sigma=np.array([0.5, 0, 2]), rho=np.float32(1.0))
    assert cfg.sigma == (0.5, 0.0, 2.0) and type(cfg.rho) is float
    assert cfg == NoiseConfig(sigma=[0.5, 0.0, 2.0], rho=1.0)
    assert type(NoiseConfig(sigma=np.float32(0.5), rho=1).sigma) is float


def test_generate_measurements_noiseless():
    # sigma 0 and rho = inf give every pair its true distance, and the AA
    # and AT pairs their true angles, bit for bit: for one seed, for a
    # batch of K poses and for one pose shared by K generators
    noise = NoiseConfig(sigma=0.0, rho=np.inf)
    for count in (8, 48):
        config = SceneConfig(n_anchors=count, n_landmarks=count)
        shared = random_scene(config, seed=6)
        batch = random_scene(config, [np.random.default_rng(k) for k in range(3)])
        for scene, rng in ((shared, 0), (batch, [np.random.default_rng(k) for k in range(3)]),
                           (shared, [np.random.default_rng(k) for k in range(3)])):
            meas = generate_measurements(scene, noise, rng)
            idx = meas.index
            assert idx.n_pairs == 2 * count * (2 * count - 1) // 2
            assert meas.distances.shape == ((3,) if isinstance(rng, list) else ()) + (idx.n_pairs,)
            x = np.atleast_2d(scene.complex_positions())
            v = x[:, idx.second] - x[:, idx.first]
            rows = np.atleast_2d(meas.distances)
            assert np.array_equal(rows, np.broadcast_to(np.abs(v), rows.shape))
            # AA and AT angles are exact; no TT bearing is simulated
            known = slice(idx.aa.start, idx.at.stop)
            angles = np.atleast_2d(meas.angles)
            assert np.array_equal(angles[:, known],
                                  np.broadcast_to(wrap_angle(np.angle(v[:, known])),
                                                  angles[:, known].shape))
            assert np.all(np.isnan(angles[:, idx.tt]))
            # the AT block is the landmark - anchor difference that the bound
            # forms, with its modulus |e| from `crlb._pose_gradients`
            anchors, landmarks = _complex(scene.anchors.positions), np.atleast_2d(scene.landmarks)
            e = landmarks[:, None, :] - anchors[:, None]
            _, _, d = _pose_gradients(anchors, _complex(scene.conformation.points), landmarks,
                                      np.atleast_1d(scene.pose.rotation.q))
            at = rows[:, idx.at].reshape(len(rows), count, count)
            for truth in (np.abs(e), d):
                assert np.array_equal(at, np.broadcast_to(truth, at.shape))
            assert np.array_equal(angles[:, idx.at].reshape(at.shape),
                                  np.broadcast_to(wrap_angle(np.angle(e)), at.shape))


def test_generate_measurements_aa_exact():
    scene = random_scene(SceneConfig(), seed=7)
    noise = NoiseConfig(sigma=1.0, rho=zeta_to_rho(np.deg2rad(5.0)))
    meas = generate_measurements(scene, noise, 1)
    idx = meas.index
    x = scene.complex_positions()
    v = x[idx.second] - x[idx.first]
    aa = idx.aa
    assert np.array_equal(meas.distances[aa], np.abs(v)[aa])
    tt = idx.tt
    assert np.array_equal(meas.distances[tt], np.abs(v)[tt])
    at = idx.at
    assert not np.allclose(meas.distances[at], np.abs(v)[at])


def test_generate_measurements_rejects_coincident_nodes():
    # explicit landmarks skip the scene's own check; the measurements
    # still refuse a zero distance, on an anchor or between two landmarks
    scene = random_scene(SceneConfig(), seed=6)
    x = scene.landmarks
    a = scene.anchors.positions
    for landmarks in (np.concatenate([[a[0, 0] + 1j * a[1, 0]], x[1:]]),
                      np.concatenate([x[:1], x[:-1]])):
        bad = Scene(scene.anchors, scene.conformation, scene.pose, landmarks)
        with pytest.raises(DegenerateGeometryError, match="coincident"):
            generate_measurements(bad, NoiseConfig(sigma=0.5, rho=100.0), 0)


def test_generate_measurements_tt_noisy_mode():
    scene = random_scene(SceneConfig(), seed=8)
    noise = NoiseConfig(sigma=0.5, rho=100.0, tt_noisy=True)
    meas = generate_measurements(scene, noise, 2)
    idx = meas.index
    x = scene.complex_positions()
    v = x[idx.second] - x[idx.first]
    assert not np.allclose(meas.distances[idx.tt], np.abs(v)[idx.tt])


def test_generate_measurements_deterministic():
    scene = random_scene(SceneConfig(), seed=9)
    noise = NoiseConfig(sigma=0.5, rho=200.0)
    a = generate_measurements(scene, noise, 42)
    b = generate_measurements(scene, noise, 42)
    assert np.array_equal(a.distances, b.distances)
    assert np.array_equal(a.angles, b.angles, equal_nan=True)


@pytest.mark.parametrize("tt_noisy", [False, True])
def test_each_trial_draws_at_distances_then_at_bearings_then_tt_distances(tt_noisy):
    # a generator used by generate_measurements is left where a twin is
    # after exactly these draws: no TT bearing is simulated
    sigma, rho = 0.4, 50.0
    noise = NoiseConfig(sigma=sigma, rho=rho, tt_noisy=tt_noisy)
    idx = build_pair_index(8, 8)
    scenes = random_scene(SceneConfig(), [np.random.default_rng(k) for k in range(3)])
    for k in range(3):
        scene = random_scene(SceneConfig(), k)
        x = scene.complex_positions()
        v = x[idx.second] - x[idx.first]
        rng, twin = np.random.default_rng(10 + k), np.random.default_rng(10 + k)
        generate_measurements(scene, noise, rng)
        twin.standard_gamma((np.abs(v[idx.at]) / sigma) ** 2)
        twin.vonmises(wrap_angle(np.angle(v[idx.at])), rho)
        if tt_noisy:
            twin.standard_gamma((np.abs(v[idx.tt]) / sigma) ** 2)
        after = twin.random()
        assert rng.random() == after
        # the same per trial of a batch
        rngs = [np.random.default_rng(10 + j) for j in range(3)]
        generate_measurements(scenes, noise, rngs)
        assert rngs[k].random() == after


def test_measurement_set_validation():
    idx = build_pair_index(3, 0)
    with pytest.raises(ValueError):
        Measurements(idx, np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        Measurements(idx, np.array([1.0, -2.0, 1.0]), np.zeros(3))
    # a gamma draw may underflow to 0.0, which is measured, not invalid
    assert Measurements(idx, np.array([1.0, 0.0, 1.0]), np.zeros(3)).distances[1] == 0.0
    # K trials are K rows on the same index, and each row is checked
    assert Measurements(idx, np.ones((2, 3)), np.zeros((2, 3))).distances.shape == (2, 3)
    for d, th in ((np.ones((2, 3)), np.zeros(3)), (np.ones((1, 2, 3)), np.zeros((1, 2, 3))),
                  ([[1.0, 1.0, 1.0], [1.0, np.inf, 1.0]], np.zeros((2, 3)))):
        with pytest.raises(ValueError):
            Measurements(idx, d, th)
    # the arrays are read-only, so a cached embedding cannot go stale
    meas = Measurements(idx, np.ones(3), np.zeros(3))
    for values in (meas.distances, meas.angles):
        with pytest.raises(ValueError):
            values[0] = 5.0


def test_generate_measurements_takes_one_sigma_per_trial():
    config = SceneConfig()
    sigmas = np.array([0.2, 0.0, 1.5])
    scenes = random_scene(config, [np.random.default_rng(k) for k in range(3)])
    fixed = random_scene(config, seed=4)
    for scene in (scenes, fixed):
        for tt_noisy in (False, True):
            batch = generate_measurements(
                scene, NoiseConfig(sigma=sigmas, rho=30.0, tt_noisy=tt_noisy),
                [np.random.default_rng(k) for k in range(3)])
            for k, sigma in enumerate(sigmas):
                one = generate_measurements(
                    scene if scene is fixed else random_scene(config, k),
                    NoiseConfig(sigma=sigma, rho=30.0, tt_noisy=tt_noisy),
                    [np.random.default_rng(k)])
                assert np.array_equal(batch.distances[k], one.distances[0])
                assert np.array_equal(batch.angles[k], one.angles[0], equal_nan=True)
    # trial 1 has sigma 0: exact distances, noisy bearings
    x = fixed.complex_positions()
    assert np.array_equal(batch.distances[1], np.abs(x[batch.index.second]
                                                     - x[batch.index.first]))
    # one sigma per generator, or one seed for one sigma
    rngs = [np.random.default_rng(k) for k in range(4)]
    for scene, sigma, rng in ((scenes, [0.2, 0.3], rngs[:3]),
                              (scenes, [0.2, 0.3, 0.4, 0.5], rngs[:3]),
                              (fixed, [0.2, 0.3, 0.4], rngs),
                              (fixed, [0.2, 0.3], 7)):
        with pytest.raises(ValueError, match="sigma values"):
            generate_measurements(scene, NoiseConfig(sigma=sigma, rho=30.0), rng)
    one = generate_measurements(fixed, NoiseConfig(sigma=[0.3], rho=30.0), 7)
    assert np.array_equal(one.distances,
                          generate_measurements(fixed, NoiseConfig(sigma=0.3, rho=30.0),
                                                7).distances)


def test_a_zero_distance_draw_does_not_end_the_sweep():
    # at sigma = 50 the AT gamma shapes (d/sigma)^2 are about 0.01, and
    # some draws underflow to 0.0: trial 23 of the first grid point here
    config = replace(load_scenario(SCENARIO_DEFAULT), sigma_grid=(50.0,),
                     trials=30, master_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run_experiment(config)
    assert [row.conv_rate for row in rows] == [1.0] * len(config.methods)
