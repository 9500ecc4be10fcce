import numpy as np
import pytest

from rigidloc.errors import DegenerateGeometryError
from rigidloc.geometry import Conformation, Pose, Rotation, apply_pose
from rigidloc.procrustes import _fit, estimate_pose, fit_alignment, pose_errors

from procrustes_reference import svd_fit


def xy(points):
    """The complex points x + jy of a (2, N) coordinate matrix."""
    return points[0] + 1j * points[1]


def coords(z):
    """The (2, N) coordinate matrix of complex points."""
    return np.stack([z.real, z.imag])


def noisy_instance(seed, noise=0.05, n=6):
    rng = np.random.default_rng(seed)
    conf = Conformation(rng.uniform(-1.5, 1.5, size=(2, n)))
    pose = Pose.from_angle(rng.uniform(-np.pi, np.pi), rng.uniform(-4, 4, size=2))
    s = apply_pose(conf, pose) + xy(noise * rng.standard_normal((2, n)))
    return conf, pose, s


def map_matrix(q, reflect):
    """The 2x2 orthogonal map of a fit: q, or q conj() when it reflects."""
    sign = -1.0 if reflect else 1.0
    return np.array([[q.real, -sign * q.imag], [q.imag, sign * q.real]])


def _objective(r, t, c, s):
    """sum ||s_i - (R c_i + t)||^2 of a real map R and shift t on complex points."""
    resid = coords(s) - (r @ coords(c) + t[:, None])
    return float(np.sum(resid * resid))


def objective(pose, c, s):
    """The attained value sum ||s_i - (Q c_i + t)||^2 of a fitted pose."""
    return _objective(pose.rotation.matrix, pose.translation, c, s)


def ambiguous(c, s):
    """`_fit`'s flag for a proper-rotation fit that every angle attains equally."""
    return bool(_fit(np.atleast_2d(c), np.atleast_2d(s), False)[3][0])


def grid_objective(s, c, alphas):
    """Best-translation objective at each candidate angle, closed form."""
    s, c = coords(s), coords(c)
    s_c = s - s.mean(axis=1, keepdims=True)
    c_c = c - c.mean(axis=1, keepdims=True)
    h = c_c @ s_c.T
    ss = np.sum(s_c * s_c) + np.sum(c_c * c_c)
    a = h[0, 0] + h[1, 1]
    b = h[0, 1] - h[1, 0]
    return ss - 2.0 * (a * np.cos(alphas) + b * np.sin(alphas))


def test_estimate_pose_exact():
    for seed in range(10):
        conf, pose, _ = noisy_instance(seed, noise=0.0)
        s = apply_pose(conf, pose)
        est = estimate_pose(s, conf)
        assert np.max(np.abs(est.rotation.matrix - pose.rotation.matrix)) < 1e-10
        assert np.max(np.abs(est.translation - pose.translation)) < 1e-10
        assert objective(est, xy(conf.points), s) < 1e-18
        assert not ambiguous(xy(conf.points), s)


def test_estimate_pose_holds_the_fitted_q():
    # one pair gives one 0-d q, a stack of K pairs K of them; the matrix is
    # derived from q, (2, 2) or (K, 2, 2)
    conf, _, s = noisy_instance(3)
    q, t, _ = fit_alignment(xy(conf.points), s)
    est = estimate_pose(s, conf)
    assert np.ndim(est.rotation.q) == 0 and est.rotation.q == q
    assert est.rotation.matrix.shape == (2, 2)
    assert np.array_equal(est.rotation.matrix, map_matrix(q, False))
    assert np.array_equal(est.translation, [t.real, t.imag])
    stack = estimate_pose(np.stack([s, s[::-1]]), conf)
    assert stack.rotation.q.shape == (2,) and stack.rotation.matrix.shape == (2, 2, 2)
    assert stack.rotation.q[0] == q


def test_estimate_pose_identity():
    conf = Conformation.regular_polygon(5, 1.0)
    est = estimate_pose(xy(conf.points), conf)
    assert np.max(np.abs(est.rotation.matrix - np.eye(2))) < 1e-12
    assert np.max(np.abs(est.translation)) < 1e-12


def test_estimate_pose_beats_grid():
    alphas = np.linspace(-np.pi, np.pi, 7200, endpoint=False)
    for seed in range(10):
        conf, _, s = noisy_instance(seed)
        est = estimate_pose(s, conf)
        c = xy(conf.points)
        grid_best = grid_objective(s, c, alphas).min()
        assert objective(est, c, s) <= grid_best + 1e-8
        # closed form of the attained value matches the pose's objective
        attained = grid_objective(s, c, np.array([est.rotation.angle]))[0]
        assert objective(est, c, s) == pytest.approx(attained, abs=1e-9)


def test_estimate_pose_rotation_equivariance():
    conf, _, s = noisy_instance(3)
    extra = Rotation.from_angle(0.9)
    turned = xy(extra.matrix @ coords(s))
    est1 = estimate_pose(s, conf)
    est2 = estimate_pose(turned, conf)
    expected = extra.matrix @ est1.rotation.matrix
    assert np.max(np.abs(est2.rotation.matrix - expected)) < 1e-10
    assert objective(est2, xy(conf.points), turned) == pytest.approx(
        objective(est1, xy(conf.points), s), rel=1e-9)


def test_estimate_pose_translation_invariance():
    conf, _, s = noisy_instance(4)
    shift = np.array([5.0, -2.0])
    est1 = estimate_pose(s, conf)
    est2 = estimate_pose(s + xy(shift), conf)
    assert np.max(np.abs(est2.rotation.matrix - est1.rotation.matrix)) < 1e-12
    assert np.allclose(est2.translation, est1.translation + shift)


def test_estimate_pose_coincident_points():
    c = np.zeros(4, dtype=complex)
    s = np.full(4, 1.0 + 1.0j)
    with pytest.raises(DegenerateGeometryError):
        estimate_pose(s, c)


def test_estimate_pose_rejects_real_point_sets():
    # a (2, N) coordinate matrix would read as two sets of N complex points
    conf = Conformation.regular_polygon(5, 1.0)
    c = xy(conf.points)
    for s in (conf.points, np.stack([conf.points] * 3), c.real):
        with pytest.raises(ValueError, match="complex"):
            estimate_pose(s, conf)
        with pytest.raises(ValueError, match="complex"):
            fit_alignment(c, s, allow_reflection=True)
    with pytest.raises(ValueError, match="complex"):
        estimate_pose(c, conf.points)
    with pytest.raises(ValueError, match="complex"):
        fit_alignment(conf.points, c)
    # sizes must match, and one pair must be finite
    with pytest.raises(ValueError, match="matching"):
        estimate_pose(c[:4], conf)
    with pytest.raises(ValueError, match="finite"):
        estimate_pose(np.where(np.arange(5) == 2, np.nan, c), conf)


def test_estimate_pose_two_point_segment():
    c = np.array([-1.0, 1.0], dtype=complex)
    rot = Rotation.from_angle(0.6)
    s = xy(rot.matrix @ coords(c) + np.array([[2.0], [1.0]]))
    est = estimate_pose(s, c)
    assert np.max(np.abs(est.rotation.matrix - rot.matrix)) < 1e-10
    assert np.allclose(est.translation, [2.0, 1.0], atol=1e-10)
    # a segment fixes the rotation: the optimum is unique
    assert not ambiguous(c, s)


def test_estimate_pose_collinear_not_flagged():
    # a rank-1 cross-covariance still has a unique best rotation
    c = np.array([-1.0, 0.0, 1.0], dtype=complex)
    rot = Rotation.from_angle(-1.2)
    s = xy(rot.matrix @ coords(c))
    est = estimate_pose(s, c)
    assert not ambiguous(c, s)
    assert np.max(np.abs(est.rotation.matrix - rot.matrix)) < 1e-9


def test_estimate_pose_collinear_estimates_unique_optimum():
    c = np.array([-1.0, 0.0, 1.0], dtype=complex)
    s = np.array([-2.0, 0.0, 2.0]) + (3.0 + 1.0j)
    est = estimate_pose(s, c)
    assert not ambiguous(c, s)
    assert abs(est.rotation.angle) < 1e-12
    values = grid_objective(s, c, np.array([0.0, np.pi]))
    assert np.allclose(values, [2.0, 18.0])
    assert objective(est, c, s) == pytest.approx(2.0)


def test_estimate_pose_mirror_image_flagged():
    # the mirrored 8-gon fits every rotation equally: z = 0
    conf = Conformation.regular_polygon(8, 1.0)
    c = xy(conf.points)
    s = c.conj()
    est = estimate_pose(s, conf)
    assert ambiguous(c, s)
    values = grid_objective(s, c, np.linspace(-np.pi, np.pi, 37))
    assert np.allclose(values, 16.0)
    assert objective(est, c, s) == pytest.approx(16.0)


def test_estimate_pose_noncollinear_not_flagged():
    conf, _, s = noisy_instance(6)
    assert not ambiguous(xy(conf.points), s)


def test_fit_alignment_reflection_mode():
    rng = np.random.default_rng(7)
    src = xy(rng.uniform(-2, 2, size=(2, 6)))
    q, t, reflect = fit_alignment(src, src.conj(), allow_reflection=True)
    assert reflect
    assert abs(q - 1.0) < 1e-10 and abs(t) < 1e-10
    # a reflected fit maps q conj(source) + t: the mirror image about x
    assert np.max(np.abs(map_matrix(q, reflect) - np.diag([1.0, -1.0]))) < 1e-10
    # a proper fit of the same sets does not reflect
    assert not fit_alignment(src, src.conj())[2]


def test_rotation_mse_values():
    # the rotation error of `pose_errors` is the squared Frobenius norm
    def rotation_mse(a, b):
        return pose_errors(Pose.from_angle(a, np.zeros(2)), Pose.from_angle(b, np.zeros(2)))[1][0]

    assert rotation_mse(0.4, 0.4) == 0.0
    for delta in (np.pi / 2, np.pi, 0.3):
        expected = 2.0 * (2.0 - 2.0 * np.cos(delta))
        assert rotation_mse(0.4 + delta, 0.4) == pytest.approx(expected, abs=1e-12)
    assert rotation_mse(np.pi, 0.0) == pytest.approx(8.0)


def test_complex_fit_matches_svd_reference():
    # 200 seeded sets: the closed form agrees with the SVD fit it replaced
    checked = ties = degenerate = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = (2, 3, 8, 48)[seed % 4]
        c = rng.uniform(-3.0, 3.0, size=(2, n))
        flip = np.diag([1.0, -1.0]) if seed % 3 == 0 else np.eye(2)
        q = Rotation.from_angle(rng.uniform(-np.pi, np.pi)).matrix
        noise = (0.01, 0.3, 3.0)[seed % 5 % 3]
        s = q @ flip @ c + rng.uniform(-5.0, 5.0, size=(2, 1)) \
            + noise * rng.standard_normal((2, n))
        if seed % 7 == 0:
            # every target on one integer point, whose mean is exact: a
            # rank-0 cross-covariance with no orientation to fit
            s = np.round(s[:, :1]).repeat(n, axis=1)
        c_c = c - c.mean(axis=1, keepdims=True)
        s_c = s - s.mean(axis=1, keepdims=True)
        h = c_c @ s_c.T
        z = abs(complex(h[0, 0] + h[1, 1], h[0, 1] - h[1, 0]))
        z_ref = abs(complex(h[0, 0] - h[1, 1], h[0, 1] + h[1, 0]))
        for allow_reflection in (False, True):
            try:
                r_ref, t_ref, amb_ref = svd_fit(c, s, allow_reflection)
            except DegenerateGeometryError:
                with pytest.raises(DegenerateGeometryError):
                    fit_alignment(xy(c), xy(s), allow_reflection=allow_reflection)
                degenerate += 1
                continue
            q, t, reflect = fit_alignment(xy(c), xy(s), allow_reflection=allow_reflection)
            fits = [(map_matrix(q, reflect), coords(t), None)]
            if not allow_reflection:
                est = estimate_pose(xy(s), xy(c))
                assert ambiguous(xy(c), xy(s)) == amb_ref
                fits.append((est.rotation.matrix, est.translation, amb_ref))
            tie = z <= 1e-12 * (z + z_ref) or (
                allow_reflection and abs(z - z_ref) <= 1e-9 * (z + z_ref))
            for r_got, t_got, _ in fits:
                if tie:
                    assert _objective(r_got, t_got, xy(c), xy(s)) == pytest.approx(
                        _objective(r_ref, t_ref, xy(c), xy(s)), rel=1e-9, abs=1e-12)
                else:
                    assert np.max(np.abs(r_got - r_ref)) < 1e-12
                    assert np.max(np.abs(t_got - t_ref)) < 1e-12
            ties += tie
            checked += 1
    # every regime is exercised: unique optima, ties and rank-0 sets
    assert checked > 300 and ties > 20 and degenerate > 0
