"""End-to-end acceptance checks.

Each criterion test prints one PASS/FAIL line with the measured quantity
so a full run reads as a ten-line scorecard. The two Monte Carlo
fixtures are module scoped; everything downstream reuses their per-trial
errors.

The SMDS methods are computed in closed form. Criterion 2 and the noisy
equivalence test pin them to the edge-kernel pipeline they replace,
kept as a reference copy in `kernel_reference.py`. Criterion 6 checks
the FIM against the finite-difference oracle of `fim_reference.py`.
Criterion 10 holds the `smds_full` Monte Carlo to its exact per-scene
moments, from `moments_reference.py`, and reports its delta-method
mse_Q beside the Monte Carlo one.
"""

import time

import numpy as np
import pytest

from rigidloc.crlb import compute_fim
from rigidloc.geometry import Conformation, Pose, SceneConfig, apply_pose, random_scene
from rigidloc.harness import (DEFAULT_SIGMA_GRID, ExperimentConfig, format_results,
                              run_experiment, trial_streams, write_results)
from rigidloc.measurements import (NoiseConfig, generate_measurements,
                                   rho_to_zeta, sample_angle, sample_distance,
                                   zeta_to_rho)
from rigidloc.procrustes import estimate_pose
from rigidloc.solvers import METHODS, SolverConfig, solve_landmarks

from fim_reference import fd_fim
from kernel_reference import (build_kernel, coordinates_from_edges,
                              edges_from_coordinates, edges_from_measurements,
                              extract_minor, reference_pipeline, turbo_iterate)
from moments_reference import smds_full_mse_q, smds_full_mse_t


def check(num, name, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def ordering_run():
    cfg = ExperimentConfig(sigma_grid=(0.5, 1.0), rho=zeta_to_rho(np.deg2rad(5.0)),
                           trials=1000, methods=METHODS, master_seed=12345)
    t0 = time.perf_counter()
    rows = run_experiment(cfg, keep_trial_errors=True)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bound_run():
    cfg = ExperimentConfig(sigma_grid=(0.25, 0.5, 1.0), trials=1000,
                           methods=("smds_full",), master_seed=12345)
    return run_experiment(cfg, keep_trial_errors=True)


def test_criterion_1_noiseless_exactness():
    noise = NoiseConfig(sigma=0.0, rho=np.inf)
    worst = 0.0
    t0 = time.perf_counter()
    for seed in range(100):
        scene = random_scene(SceneConfig(), seed=seed)
        meas = generate_measurements(scene, noise, seed)
        for method in METHODS:
            est = solve_landmarks(meas, scene.anchors, scene.conformation,
                                  SolverConfig(method=method))
            pose = estimate_pose(est.coordinates, scene.conformation)
            worst = max(worst,
                        np.max(np.abs(est.coordinates - scene.landmarks)),
                        np.max(np.abs(pose.translation - scene.pose.translation)),
                        np.max(np.abs(pose.rotation.matrix - scene.pose.rotation.matrix)))
    elapsed = time.perf_counter() - t0
    check(1, "noiseless exactness", worst < 1e-9 and elapsed < 10.0,
          f"max landmark/t/Q error {worst:.3g} over 100 scenes in {elapsed:.2f}s")


def test_criterion_2_turbo_fixed_point():
    noise = NoiseConfig(sigma=0.0, rho=np.inf)
    worst = 0.0
    for seed in range(100):
        scene = random_scene(SceneConfig(), seed=seed)
        meas = generate_measurements(scene, noise, seed)
        idx = meas.index
        es = edges_from_measurements(meas, scene)
        closed = es.at  # the AT edges the closed form averages
        step = turbo_iterate(extract_minor(build_kernel(es)), es.aa, es.tt,
                             closed, max_iterations=1)
        worst = max(worst, step.residual)
        est = solve_landmarks(meas, scene.anchors, scene.conformation,
                              SolverConfig(method="smds_full"))
        worst = max(worst, np.max(np.abs(
            est.coordinates - coordinates_from_edges(step.v_at, scene.anchors, idx))))
    check(2, "turbo fixed point", worst < 1e-12,
          f"max one-step residual {worst:.3g} of the kernel-minor update from "
          "the closed-form AT edges, 100 scenes")


def test_smds_closed_form_matches_reference_pipeline_under_noise():
    worst = 0.0
    for sigma, tt_noisy in ((0.1, False), (0.5, True), (2.0, False)):
        noise = NoiseConfig(sigma=sigma, rho=zeta_to_rho(np.deg2rad(8.0)), tt_noisy=tt_noisy)
        for k in range(20):
            rng = np.random.default_rng(np.random.SeedSequence(606, spawn_key=(k,)))
            scene = random_scene(SceneConfig(), rng)
            meas = generate_measurements(scene, noise, rng)
            idx = meas.index
            # no TT bearing is measured: the kernel takes the exact TT phases
            measured = edges_from_measurements(meas, scene).angles
            targets = solve_landmarks(meas, scene.anchors, scene.conformation,
                                      SolverConfig(method="mds")).coordinates
            anchors = scene.anchors.positions
            nodes = np.concatenate([anchors[0] + 1j * anchors[1], targets])
            mds_angles = edges_from_coordinates(nodes, idx).angles
            mds_angles[idx.aa] = meas.angles[idx.aa]
            if not tt_noisy:
                mds_angles[idx.tt] = measured[idx.tt]
            for method, angles in (("smds_full", measured),
                                   ("smds_distance_only", mds_angles)):
                est = solve_landmarks(meas, scene.anchors, scene.conformation,
                                      SolverConfig(method=method))
                ref = reference_pipeline(meas.distances, angles, scene.anchors, idx)
                worst = max(worst, np.max(np.abs(est.coordinates - ref)))
    assert worst < 1e-12, f"closed form differs from the kernel pipeline by {worst:.3g}"


def _paired_margins(row_a, row_b):
    """(gap / 2SE) for rmse_t and mse_Q, method a expected better than b."""
    ok = row_a.trial_ok & row_b.trial_ok
    n = int(ok.sum())
    ta, tb = row_a.trial_err_t[ok], row_b.trial_err_t[ok]
    qa, qb = row_a.trial_err_q[ok], row_b.trial_err_q[ok]

    rmse_a, rmse_b = np.sqrt(ta.mean()), np.sqrt(tb.mean())
    infl = tb / (2.0 * rmse_b) - ta / (2.0 * rmse_a)
    se_rmse = infl.std(ddof=1) / np.sqrt(n)
    margin_rmse = (rmse_b - rmse_a) / (2.0 * se_rmse)

    dq = qb - qa
    se_q = dq.std(ddof=1) / np.sqrt(n)
    margin_q = dq.mean() / (2.0 * se_q)
    return margin_rmse, margin_q


def test_criterion_3_method_ordering(ordering_run):
    rows, elapsed = ordering_run
    by_key = {(r.method, r.sigma): r for r in rows}
    margins = []
    ordered = True
    for sigma in (0.5, 1.0):
        full = by_key[("smds_full", sigma)]
        donly = by_key[("smds_distance_only", sigma)]
        mds = by_key[("mds", sigma)]
        ordered &= full.rmse_t <= donly.rmse_t <= mds.rmse_t
        ordered &= full.mse_q <= donly.mse_q <= mds.mse_q
        margins.extend(_paired_margins(full, donly))
        margins.extend(_paired_margins(donly, mds))
    min_margin = min(margins)
    check(3, "method ordering", ordered and min_margin > 1.0 and elapsed < 300.0,
          f"smds_full <= smds_distance_only <= mds in rmse_t and mse_Q at "
          f"sigma 0.5 and 1.0; smallest gap {min_margin:.2f}x the 2-SE "
          f"requirement; K=1000 sweep took {elapsed:.1f}s")


def test_criterion_4_small_sigma_smoke():
    cfg = ExperimentConfig(sigma_grid=(0.05,), rho=zeta_to_rho(np.deg2rad(5.0)),
                           trials=200, methods=METHODS, master_seed=12345)
    rows = run_experiment(cfg)
    finite = all(np.isfinite(r.rmse_t) and np.isfinite(r.mse_q) for r in rows)
    converged = all(r.conv_rate >= 0.99 for r in rows)
    detail = ", ".join(f"{r.method} rmse_t={r.rmse_t:.4f}" for r in rows)
    check(4, "small-sigma smoke", finite and converged and len(rows) == 3,
          f"all methods report finite errors at sigma=0.05 ({detail}); "
          "no ordering asserted")


def test_criterion_5_crlb_proximity(bound_run):
    ratios = {r.sigma: r.mse_t / r.crlb_t for r in bound_run}
    worst = max(ratios.values())
    detail = ", ".join(f"sigma={s:g}: {v:.3f}" for s, v in sorted(ratios.items()))
    check(5, "CRLB proximity", worst <= 2.0,
          f"smds_full mse_t/crlb_t = {detail} (required <= 2)")


def test_criterion_6_fim_correctness(ordering_run, bound_run):
    rng = np.random.default_rng(99)
    worst_rel = 0.0
    worst_eig = 0.0
    for seed in range(100):
        scene = random_scene(SceneConfig(), seed=seed)
        noise = NoiseConfig(sigma=rng.uniform(0.1, 1.0),
                            rho=zeta_to_rho(rng.uniform(np.deg2rad(2), np.deg2rad(30))))
        fim = compute_fim(scene, noise).matrix
        oracle = fd_fim(scene, noise)
        worst_rel = max(worst_rel,
                        np.linalg.norm(fim - oracle) / np.linalg.norm(oracle))
        w = np.linalg.eigvalsh(fim)
        worst_eig = min(worst_eig, w[0] / max(w[-1], 1.0))
    rows = list(ordering_run[0]) + list(bound_run)
    bound_ok = all(r.crlb_t <= 1.1 * r.mse_t and r.crlb_q <= 1.1 * r.mse_q
                   for r in rows)
    ok = worst_rel < 1e-6 and worst_eig >= -1e-10 and bound_ok
    check(6, "FIM correctness", ok,
          f"max relative gap to the finite-difference oracle {worst_rel:.2e} "
          f"over 100 scenes; min scaled eigenvalue {worst_eig:.1e}; "
          f"CRLB <= 1.1*MSE at all {len(rows)} tested grid points: {bound_ok}")


def test_criterion_7_noise_statistics():
    rng = np.random.default_rng(2027)
    d_true, sigma = 4.0, 0.7
    x = sample_distance(np.full(10 ** 6, d_true), sigma, rng)
    mean_err = abs(x.mean() - d_true) / d_true
    std_err = abs(x.std(ddof=1) - sigma) / sigma

    zeta = np.deg2rad(5.0)
    rho = zeta_to_rho(zeta)
    draws = sample_angle(np.zeros(10 ** 6), rho, rng)
    mass = float(np.mean(np.abs(draws) <= zeta))

    round_trip = max(abs(rho_to_zeta(zeta_to_rho(z)) - z)
                     for z in (0.05, zeta, 0.5, 1.0, 2.0))
    rho_trip = max(abs(zeta_to_rho(rho_to_zeta(r)) - r) / r for r in (5.0, 50.0, 500.0))

    ok = (mean_err < 0.01 and std_err < 0.01
          and 0.895 <= mass <= 0.905
          and round_trip < 1e-8 and rho_trip < 1e-8)
    check(7, "noise statistics", ok,
          f"gamma mean/std rel err {mean_err:.2e}/{std_err:.2e} at 1e6 draws; "
          f"von Mises mass in [-zeta, zeta] {mass:.4f}; "
          f"round trips {round_trip:.1e} (zeta), {rho_trip:.1e} (rho)")


def test_criterion_8_procrustes_beats_grid():
    alphas = np.deg2rad(np.arange(0.0, 360.0, 0.1))
    rng = np.random.default_rng(31)
    worst_gap = -np.inf
    for _ in range(100):
        conf = Conformation(rng.uniform(-1.5, 1.5, size=(2, 6)))
        pose = Pose.from_angle(rng.uniform(-np.pi, np.pi), rng.uniform(-4, 4, size=2))
        s = apply_pose(conf, pose)
        s = np.stack([s.real, s.imag]) + rng.uniform(0.02, 0.3) * rng.standard_normal((2, 6))
        est = estimate_pose(s[0] + 1j * s[1], conf)
        s_c = s - s.mean(axis=1, keepdims=True)
        c_c = conf.points - conf.points.mean(axis=1, keepdims=True)
        h = c_c @ s_c.T
        ss = np.sum(s_c * s_c) + np.sum(c_c * c_c)
        grid = ss - 2.0 * ((h[0, 0] + h[1, 1]) * np.cos(alphas)
                           + (h[0, 1] - h[1, 0]) * np.sin(alphas))
        resid = s - (est.rotation.matrix @ conf.points + est.translation[:, None])
        worst_gap = max(worst_gap, np.sum(resid * resid) - grid.min())
    check(8, "closed-form pose optimality", worst_gap <= 1e-8,
          f"max objective excess over a 0.1-degree rotation grid with optimal "
          f"per-angle translation: {worst_gap:.2e} on 100 noisy instances")


def test_criterion_9_deterministic_csv(tmp_path):
    def run(workers):
        cfg = ExperimentConfig(sigma_grid=(0.3, 0.9), trials=60,
                               methods=METHODS, master_seed=2718,
                               workers=workers)
        return run_experiment(cfg)

    texts = {w: format_results(run(w)) for w in (1, 2, 3)}
    repeat = format_results(run(1))
    p1, p3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    write_results(run(1), p1)
    write_results(run(3), p3)
    same = (texts[1] == texts[2] == texts[3] == repeat
            and p1.read_bytes() == p3.read_bytes())
    check(9, "deterministic output", same,
          "CSV bytes identical across a rerun and worker counts 1, 2, 3")


# seed and trial count of criterion 10, fixed before it was first run
MOMENTS_SEED = 2210
MOMENTS_TRIALS = 2000


def test_criterion_10_smds_full_exact_moments():
    # each trial's squared translation error against its scene's exact
    # expectation, over the whole default sigma grid at four bearing
    # accuracies: the paired mean difference must lie within 4.2 standard
    # errors in every (zeta, sigma) cell, about 8.5e-4 false alarms in 32.
    # The delta-method mse_Q is reported beside the Monte Carlo one, ungated
    worst, cell = 0.0, None
    all_ok = same_tt = True
    mse_q = {}  # (zeta, sigma): (Monte Carlo, delta method)
    for zeta in (2.0, 8.0, 30.0, 60.0):
        rho = zeta_to_rho(np.deg2rad(zeta))
        configs = [ExperimentConfig(sigma_grid=DEFAULT_SIGMA_GRID, rho=rho, tt_noisy=tt_noisy,
                                    trials=MOMENTS_TRIALS, methods=("smds_full",),
                                    master_seed=MOMENTS_SEED)
                   for tt_noisy in ((False, True) if zeta == 8.0 else (False,))]
        runs = [run_experiment(config, keep_trial_errors=True) for config in configs]
        for g, row in enumerate(runs[0]):
            # smds_full reads only the AT draws, which come before the TT ones
            same_tt &= all(np.array_equal(row.trial_err_t, twin[g].trial_err_t, equal_nan=True)
                           for twin in runs[1:])
            all_ok &= bool(row.trial_ok.all())
            scene = random_scene(configs[0].scene, trial_streams(
                configs[0], [(g, k) for k in range(MOMENTS_TRIALS)]))
            diff = row.trial_err_t - smds_full_mse_t(scene, row.sigma, rho)
            z = diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size))
            if abs(z) >= worst:
                worst, cell = abs(z), (zeta, row.sigma)
            mse_q[zeta, row.sigma] = (row.mse_q, np.mean(smds_full_mse_q(scene, row.sigma, rho)))
    ratio = {c: mc / delta for c, (mc, delta) in mse_q.items()}

    def at(c):
        return (f"{ratio[c]:.3f} at zeta = {c[0]:g} deg, sigma = {c[1]:.3g} "
                f"({mse_q[c][0]:.3g} / {mse_q[c][1]:.3g})")

    check(10, "exact moments of smds_full", worst < 4.2 and all_ok and same_tt,
          f"worst |z| {worst:.2f} at zeta = {cell[0]:g} deg, sigma = {cell[1]:.3g} "
          f"over 32 cells of {MOMENTS_TRIALS} trials; all trials ok: {all_ok}; "
          f"errors unchanged by tt_noisy: {same_tt}; mse_Q Monte Carlo / delta method "
          f"from {at(min(ratio, key=ratio.get))} to {at(max(ratio, key=ratio.get))}, ungated")
