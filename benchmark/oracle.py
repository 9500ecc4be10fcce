"""Output checks for a benchmark run that do not use the program's estimators.

The oracle rebuilds a trial's scene and measurements through rigidloc's
public functions, from the random stream the harness documents for trial
k of grid point g, seeded by (master_seed, g, k). It then recomputes each
method's pose with its own numpy code:

* smds_full: the anchored mean x_n = mean_m(a_m + d_mn exp(j theta_mn));
* smds_distance_only: the same mean with bearings taken from the MDS fit;
* mds: classic MDS (double centring, two leading eigenpairs) aligned to
  the anchors by an orthogonal fit that may reflect, without scaling;
* pose: the phase of sum_n conj(c_n) s_n over the centred points.

Points are complex numbers x + jy throughout. The property checks look at
the result rows and CSV text of whole sweeps.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np

# The oracle and the program do the same arithmetic in a different order;
# their squared errors agree to about 1e-11 relative on the workloads. A pose
# off by 1e-6 m or 1e-6 rad moves them by more than 1e-5 relative.
RTOL = 1e-8
ATOL = 1e-18
NOISELESS_TOL = 1e-9


def trial_inputs(rl, config, g: int, k: int, noise=None):
    """Scene and measurements of trial k at grid point g, as the harness draws them."""
    rng = np.random.default_rng(
        np.random.SeedSequence(config.master_seed, spawn_key=(g, k)))
    scene = rl.random_scene(config.scene, rng)
    if noise is None:
        noise = rl.NoiseConfig(sigma=config.sigma_grid[g], rho=config.resolve_rho(),
                               tt_noisy=config.tt_noisy)
    return scene, rl.generate_measurements(scene, noise, rng)


def _pair_nodes(m: int, n: int):
    """Node indices of every pair in canonical order: AA, then AT, then TT."""
    aa_i, aa_j = np.triu_indices(m, 1)
    tt_i, tt_j = np.triu_indices(n, 1)
    first = np.concatenate([aa_i, np.repeat(np.arange(m), n), tt_i + m])
    second = np.concatenate([aa_j, m + np.tile(np.arange(n), m), tt_j + m])
    return first, second


def _at_block(values, m: int, n: int) -> np.ndarray:
    start = m * (m - 1) // 2
    return np.asarray(values)[start:start + m * n].reshape(m, n)


def _anchored_mean(anchors, dist_at, theta_at):
    return (anchors[:, None] + dist_at * np.exp(1j * theta_at)).mean(axis=0)


def _mds_targets(distances, anchors, n: int):
    m = anchors.size
    t = m + n
    first, second = _pair_nodes(m, n)
    d2 = np.zeros((t, t))
    d2[first, second] = np.asarray(distances) ** 2
    d2 = d2 + d2.T
    centre = np.eye(t) - 1.0 / t
    gram = -0.5 * centre @ d2 @ centre
    w, u = np.linalg.eigh(0.5 * (gram + gram.T))
    y = u[:, -1] * np.sqrt(w[-1]) + 1j * u[:, -2] * np.sqrt(max(w[-2], 0.0))
    anchors_c = anchors - anchors.mean()
    best = None
    for z in (y, np.conj(y)):  # the conjugate is the reflected embedding
        z_c = z - z[:m].mean()
        h = np.vdot(z_c[:m], anchors_c)
        if best is None or abs(h) > abs(best[0]):
            best = (h, z_c)
    h, z_c = best
    return anchors.mean() + (h / abs(h)) * z_c[m:]


def pose_errors(landmarks, scene):
    """Squared translation and rotation-matrix errors of the best-fit pose."""
    c = scene.conformation.points[0] + 1j * scene.conformation.points[1]
    c_c = c - c.mean()
    s_c = landmarks - landmarks.mean()
    phi = np.angle(np.vdot(c_c, s_c))
    t = landmarks.mean() - np.exp(1j * phi) * c.mean()
    t_true = scene.pose.translation[0] + 1j * scene.pose.translation[1]
    err_t = abs(t - t_true) ** 2
    err_q = 8.0 * np.sin(0.5 * (phi - scene.pose.rotation.angle)) ** 2
    return float(err_t), float(err_q)


def oracle_landmarks(scene, meas, method: str):
    """Landmark estimate of `method`, computed without the program's solvers."""
    pos = scene.anchors.positions
    anchors = pos[0] + 1j * pos[1]
    m, n = anchors.size, scene.conformation.n_points
    dist_at = _at_block(meas.distances, m, n)
    if method == "smds_full":
        return _anchored_mean(anchors, dist_at, _at_block(meas.angles, m, n))
    targets = _mds_targets(meas.distances, anchors, n)
    if method == "mds":
        return targets
    if method == "smds_distance_only":
        return _anchored_mean(anchors, dist_at, np.angle(targets[None, :] - anchors[:, None]))
    raise ValueError(f"the oracle has no model of method {method!r}")


def agrees(ours: float, theirs: float) -> bool:
    return abs(ours - theirs) <= RTOL * max(abs(ours), abs(theirs)) + ATOL


def oracle_check(rl, config, rows, seed: int, n_trials: int):
    """Compare the per-trial errors in `rows` with the oracle on a seeded subset.

    `rows` come from run_experiment(config, keep_trial_errors=True). Trials
    the program dropped as failed are counted as failed elsewhere and are
    not compared. Returns (ok, number of comparisons, largest relative gap).
    """
    k_total = config.trials
    grid = len(config.sigma_grid)
    by_key = {}
    for i, row in enumerate(rows):
        by_key[(row.method, i // len(config.methods))] = row
    picks = random.Random(seed).sample(range(grid * k_total), min(n_trials, grid * k_total))
    ok, compared, worst = True, 0, 0.0
    for idx in sorted(picks):
        g, k = divmod(idx, k_total)
        scene, meas = trial_inputs(rl, config, g, k)
        for method in config.methods:
            row = by_key[(method, g)]
            if row.sigma != config.sigma_grid[g]:
                return False, compared, float("inf")
            if not row.trial_ok[k]:
                continue
            ours = pose_errors(oracle_landmarks(scene, meas, method), scene)
            theirs = (float(row.trial_err_t[k]), float(row.trial_err_q[k]))
            for a, b in zip(ours, theirs):
                compared += 1
                ok &= agrees(a, b)
                worst = max(worst, abs(a - b) / max(abs(a), abs(b), ATOL))
    return ok, compared, worst


def rows_finite(rows) -> bool:
    return all(np.isfinite([r.mse_t, r.rmse_t, r.mse_q, r.conv_rate, r.crlb_t, r.crlb_q]).all()
               for r in rows)


def crlb_nondecreasing(rows) -> bool:
    """crlb_t and crlb_Q are positive and never fall as sigma grows."""
    ordered = sorted(rows, key=lambda r: r.sigma)
    pairs = zip(ordered, ordered[1:])
    return (all(r.crlb_t > 0 and r.crlb_q > 0 for r in rows)
            and all(b.crlb_t >= a.crlb_t and b.crlb_q >= a.crlb_q for a, b in pairs))


def noiseless_recovery(rl, config) -> bool:
    """Every method recovers the true pose of trial (0, 0)'s scene without noise."""
    noise = rl.NoiseConfig(sigma=0.0, rho=float("inf"))
    scene, meas = trial_inputs(rl, config, 0, 0, noise=noise)
    for method in config.methods:
        est = rl.solve_landmarks(meas, scene.anchors, scene.conformation,
                                 rl.SolverConfig(method=method))
        pose = rl.estimate_pose(est.coordinates, scene.conformation)
        dt = np.max(np.abs(pose.translation - scene.pose.translation))
        dq = np.max(np.abs(pose.rotation.matrix - scene.pose.rotation.matrix))
        if not (dt <= NOISELESS_TOL and dq <= NOISELESS_TOL):
            return False
    return True


def run_checks(rl, config, rows, csv_texts, seed: int, n_oracle: int,
               other_workers_texts=None):
    """All output checks of one run; returns (checks, details) dictionaries.

    `csv_texts` holds the CSV of every timed sweep of `config`;
    `other_workers_texts` those of the same inputs with another worker
    count. Without them, a config with several workers is rerun with one.
    """
    csv_texts = set(csv_texts)
    checks = {
        "rows_finite": rows_finite(rows),
        "crlb_positive_nondecreasing": crlb_nondecreasing(rows),
    }
    kept = rl.run_experiment(config, keep_trial_errors=True)
    checks["repeat_csv_identical"] = csv_texts == {rl.format_results(kept)}
    if other_workers_texts is None and config.workers > 1:
        other_workers_texts = {rl.format_results(rl.run_experiment(replace(config, workers=1)))}
    if other_workers_texts is not None:
        checks["workers_csv_identical"] = set(other_workers_texts) == csv_texts
    ok, compared, worst = oracle_check(rl, config, kept, seed, n_oracle)
    checks["oracle"] = ok
    checks["noiseless_recovery"] = noiseless_recovery(rl, config)
    return checks, {"oracle_comparisons": compared, "oracle_max_rel_gap": worst}
