import warnings
from dataclasses import replace

import numpy as np
import pytest

from rigidloc import geometry
from rigidloc.errors import ConfigurationError, DegenerateGeometryError
from rigidloc.geometry import (AnchorSet, Conformation, Pose, RotationMatrix,
                               Scene, SceneConfig, apply_pose, random_scene)


def test_rotation_identity():
    rot = RotationMatrix.from_angle(0.0)
    assert np.allclose(rot.matrix, np.eye(2))
    assert rot.angle == 0.0


def test_rotation_quarter_turn():
    rot = RotationMatrix.from_angle(np.pi / 2)
    assert np.allclose(rot.matrix, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_rotation_orthonormal():
    m = RotationMatrix.from_angle(0.3).matrix
    assert np.max(np.abs(m.T @ m - np.eye(2))) < 1e-12
    assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_rotation_rejects_nonfinite():
    with pytest.raises(ValueError):
        RotationMatrix.from_angle(np.nan)
    with pytest.raises(ValueError):
        RotationMatrix.from_angle(np.inf)
    with pytest.raises(ValueError):
        RotationMatrix.from_angle([0.5, np.nan])
    with pytest.raises(ValueError):
        Pose.from_angle(np.nan, [0.0, 0.0])


def test_pose_rejects_bad_translation():
    for bad in ([np.inf, 0.0], [np.nan, 1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            Pose.from_angle(0.3, bad)
    # K angles take K translations
    poses = Pose.from_angle([0.1, 0.2], [[1.0, 2.0], [3.0, 4.0]])
    assert poses.rotation.matrix.shape == (2, 2, 2)
    assert np.allclose(poses.rotation.angle, [0.1, 0.2])
    with pytest.raises(ValueError):
        Pose.from_angle([0.1, 0.2], [1.0, 2.0])


def xy(points):
    """The complex points x + jy of a (2, N) coordinate matrix."""
    return points[0] + 1j * points[1]


def test_apply_pose_identity():
    conf = Conformation.regular_polygon(5, 2.0)
    assert np.allclose(apply_pose(conf, Pose.from_angle(0.0, [0.0, 0.0])), xy(conf.points))


def test_apply_pose_pure_translation():
    conf = Conformation.regular_polygon(4, 1.0)
    pose = Pose.from_angle(0.0, (1.0, 2.0))
    shifted = apply_pose(conf, pose)
    assert shifted.shape == (4,)
    assert np.allclose(shifted, xy(conf.points) + (1.0 + 2.0j))


def test_apply_pose_point_reflection():
    conf = Conformation(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]))
    pose = Pose.from_angle(np.pi, (0.0, 0.0))
    out = apply_pose(conf, pose)
    assert abs(out[0] - (-1.0 + 0.0j)) < 1e-12


def test_apply_pose_is_the_real_placement():
    # placed as the real product Q C + t, then read as x + jy: the
    # measurement draws see the coordinates of the matrix placement
    conf = Conformation.regular_polygon(7, 1.3)
    pose = Pose.from_angle([0.4, -2.1], [[3.0, 4.0], [5.5, 6.25]])
    placed = pose.rotation.matrix @ conf.points + pose.translation[:, :, None]
    out = apply_pose(conf, pose)
    assert out.shape == (2, 7)
    assert np.array_equal(out.real, placed[:, 0]) and np.array_equal(out.imag, placed[:, 1])


def test_random_scene_default_counts():
    scene = random_scene(SceneConfig(), seed=1)
    assert scene.n_anchors == 8
    assert scene.n_landmarks == 8
    assert scene.complex_positions().shape == (16,)


def test_random_scene_deterministic():
    a = random_scene(SceneConfig(), seed=3)
    b = random_scene(SceneConfig(), seed=3)
    assert np.array_equal(a.landmarks, b.landmarks)
    assert a.pose.rotation.angle == b.pose.rotation.angle


def test_random_scene_seeds_differ():
    a = random_scene(SceneConfig(), seed=1)
    b = random_scene(SceneConfig(), seed=2)
    assert not np.allclose(a.pose.translation, b.pose.translation)


def test_pose_draw_is_three_uniform_draws():
    # one call of three doubles must give, bit for bit, what three uniform
    # calls give and leave the stream where they leave it; a numpy build
    # that fuses low + range * u into one rounding fails here
    boxes = np.random.default_rng(7).uniform(-50.0, 50.0, (10_000, 2, 2))
    boxes.sort(axis=2)
    boxes[::3] *= 1e-6
    boxes[1::3] = np.round(boxes[1::3])
    for seed, ((lo_x, hi_x), (lo_y, hi_y)) in enumerate(boxes.tolist()):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = geometry._draw_pose(rng, (lo_x, hi_x, lo_y, hi_y))
        want = (ref.uniform(-np.pi, np.pi), ref.uniform(lo_x, hi_x), ref.uniform(lo_y, hi_y))
        assert got == want, seed
        assert rng.bit_generator.state == ref.bit_generator.state, seed


def test_rigid_motion_preserves_distances():
    for seed in range(20):
        scene = random_scene(SceneConfig(), seed=seed)
        c = xy(scene.conformation.points)
        s = scene.landmarks
        dc = np.abs(c[:, None] - c[None, :])
        ds = np.abs(s[:, None] - s[None, :])
        assert np.max(np.abs(dc - ds)) < 1e-10


def test_inverse_pose_recovers_conformation():
    scene = random_scene(SceneConfig(), seed=11)
    q = scene.pose.rotation.matrix
    t = scene.pose.translation
    s = scene.landmarks
    back = q.T @ (np.stack([s.real, s.imag]) - t[:, None])
    assert np.max(np.abs(back - scene.conformation.points)) < 1e-10


def test_center_maps_with_pose():
    scene = random_scene(SceneConfig(), seed=13)
    q = scene.pose.rotation.matrix
    t = scene.pose.translation
    lhs = scene.landmarks.mean()
    rhs = q @ scene.conformation.points.mean(axis=1) + t
    assert abs(lhs - (rhs[0] + 1j * rhs[1])) < 1e-10


def test_conformation_rejects_degenerate():
    with pytest.raises(ValueError):
        Conformation(np.array([[0.0, 1.0], [0.0, 0.0]]))  # too few points
    with pytest.raises(DegenerateGeometryError):
        Conformation(np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]]))  # collinear


def test_conformation_rejects_coincident_points():
    points = np.array([[1.0, 0.0, -1.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        Conformation(points)
    # the body is rejected when its config is built, not after 100
    # placement draws
    with pytest.raises(DegenerateGeometryError):
        SceneConfig(body_points=points)


def test_anchorset_rejects_degenerate():
    with pytest.raises(DegenerateGeometryError):
        AnchorSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))  # duplicate
    with pytest.raises(DegenerateGeometryError):
        AnchorSet(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]))  # collinear
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            AnchorSet(np.array([[0.0, 1.0, bad], [0.0, 0.0, 1.0]]))


def test_scene_rejects_coincident_nodes():
    anchors = AnchorSet(np.array([[0.0, 4.0, 0.0], [0.0, 0.0, 4.0]]))
    conf = Conformation(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    # translation puts the first landmark exactly onto the first anchor
    with pytest.raises(DegenerateGeometryError):
        Scene(anchors, conf, Pose.from_angle(0.0, [0.0, 0.0]))
    # so does the second of K poses
    with pytest.raises(DegenerateGeometryError):
        Scene(anchors, conf, Pose.from_angle([0.0, 0.0], [[1.5, 1.5], [0.0, 0.0]]))
    scene = Scene(anchors, conf, Pose.from_angle([0.0, 0.3], [[1.5, 1.5], [1.0, 1.2]]))
    assert scene.landmarks.shape == (2, 3)
    assert np.allclose(scene.landmarks[0], xy(conf.points) + (1.5 + 1.5j))


def test_perimeter_anchors_on_boundary():
    anchors = AnchorSet.perimeter(8, 10.0, 10.0)
    pos = anchors.positions
    assert np.allclose(pos[:, 0], [0.0, 0.0])
    on_edge = (np.isclose(pos, 0.0) | np.isclose(pos[0], 10.0) |
               np.isclose(pos[1], 10.0))
    assert np.all(on_edge.any(axis=0))
    assert pos.shape == (2, 8)


def test_infeasible_clearance_raises():
    # found when the config is built, not when a pose is drawn
    with pytest.raises(ConfigurationError, match="does not fit"):
        SceneConfig(room_width=4.0, room_height=4.0, body_radius=1.0, wall_clearance=3.0)


def test_scene_positions_order():
    scene = random_scene(SceneConfig(), seed=5)
    z = scene.complex_positions()
    assert np.array_equal(z[:8].real, scene.anchors.positions[0])
    assert np.array_equal(z[:8].imag, scene.anchors.positions[1])
    assert np.array_equal(z[8:], scene.landmarks)
    # K poses give one row per pose, each the positions of that pose alone
    scenes = random_scene(SceneConfig(), [np.random.default_rng(k) for k in range(3)])
    rows = scenes.complex_positions()
    assert rows.shape == (3, 16)
    for k in range(3):
        assert np.array_equal(rows[k], random_scene(SceneConfig(), k).complex_positions())


def test_scene_config_builds_once():
    cfg = SceneConfig()
    scene = random_scene(cfg, seed=1)
    assert scene.anchors is cfg.anchors
    assert scene.conformation is cfg.conformation
    # replace() gives a new config, which builds its own objects
    other = replace(cfg, n_anchors=6)
    assert other.anchors is not cfg.anchors
    assert other.anchors.n_anchors == 6
    assert cfg.anchors.n_anchors == 8


def test_scene_config_failed_build_raises_every_call():
    # a coincident or collinear explicit set fails when the config is
    # built, so no later call meets it
    coincident = np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    collinear = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    for bad in (coincident, collinear):
        with pytest.raises(DegenerateGeometryError):
            SceneConfig(anchor_positions=bad * 10.0)
        with pytest.raises(DegenerateGeometryError):
            SceneConfig(body_points=bad)


def test_scene_config_checks_value_types():
    # counts are integers and lengths finite real numbers, not values
    # that would convert (8.7 -> 8, True -> 1.0) or fail later on
    for bad in (dict(n_anchors=8.7), dict(n_landmarks=True), dict(n_anchors="8"),
                dict(room_width=np.nan), dict(room_height=np.inf), dict(room_width=True),
                dict(body_radius="1.5"), dict(wall_clearance=np.nan)):
        with pytest.raises(ConfigurationError, match="must be an integer|finite number"):
            SceneConfig(**bad)
    # and in range: a room with area, 3 nodes of each kind at least, a body
    # with extent and a clearance that is not negative
    for bad, message in ((dict(room_width=0.0), "room"), (dict(room_height=-1.0), "room"),
                         (dict(n_anchors=2), "at least 3"), (dict(n_landmarks=2), "at least 3"),
                         (dict(body_radius=0.0), "radius"), (dict(wall_clearance=-0.5), "clearance")):
        with pytest.raises(ConfigurationError, match=message):
            SceneConfig(**bad)
    config = SceneConfig(n_anchors=np.int64(6), room_width=np.float64(12.0), room_height=9)
    assert random_scene(config, seed=0).n_anchors == 6
    # coordinates are real numbers too: "0" is not 0.0 and True is not 1.0
    for bad in (dict(anchor_positions=(("0", "10", "0", "10"), ("0", "0", "10", "10"))),
                dict(anchor_positions=((True, 10, 0, 10), (0, 0, 10, 10))),
                dict(anchor_positions=np.array([[1, 10, 0, 10], [0, 0, 10, 10]], dtype=bool)),
                dict(body_points=((0.0, 1.0, "0"), (0.0, 0.0, 1.0)))):
        with pytest.raises(ConfigurationError, match="must be real numbers"):
            SceneConfig(**bad)
    config = SceneConfig(anchor_positions=((0, 10, 0, 10), (np.int64(0), 0, 10.0, 10)))
    assert config.anchor_positions == ((0.0, 10.0, 0.0, 10.0), (0.0, 0.0, 10.0, 10.0))


P5 = np.array([[0.0, 10.0, 10.0, 0.0, 5.0], [0.0, 0.0, 10.0, 10.0, 5.0]])
BODY = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_scene_config_takes_one_spelling():
    # explicit points do not silently override a count or a radius
    for bad in (dict(anchor_positions=P5, n_anchors=12), dict(body_points=BODY, n_landmarks=3),
                dict(body_points=BODY, body_radius=7.0)):
        with pytest.raises(ConfigurationError, match="not both"):
            SceneConfig(**bad)
    with pytest.raises(ConfigurationError, match="not both"):
        replace(SceneConfig(anchor_positions=P5), n_anchors=20)
    # settings not given are None; the counts are read from the built sets
    cfg = SceneConfig(anchor_positions=P5, body_points=BODY)
    assert cfg.n_anchors is None and cfg.n_landmarks is None and cfg.body_radius is None
    assert cfg.anchors.n_anchors == 5 and cfg.conformation.n_points == 3
    assert np.array_equal(np.asarray(cfg.anchor_positions), P5)
    default = SceneConfig()
    assert (default.anchors.n_anchors, default.conformation.n_points) == (8, 8)
    assert default.conformation.radius == pytest.approx(1.0)


def test_scene_configs_with_equal_points_compare_and_hash_equal():
    a = SceneConfig(anchor_positions=P5, body_points=BODY)
    b = SceneConfig(anchor_positions=P5.tolist(), body_points=BODY.copy())
    assert a == b and hash(a) == hash(b)
    assert a != SceneConfig(anchor_positions=P5 + 1.0, body_points=BODY)
    assert SceneConfig() == SceneConfig() and hash(SceneConfig()) == hash(SceneConfig())


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
def test_point_set_tolerances_scale_with_the_set(s):
    # a set is usable or degenerate the same way in any unit
    triangle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(Conformation(s * triangle).points, s * triangle)
    assert AnchorSet(s * triangle).n_anchors == 3
    near = np.array([[0.0, 1.0, 0.0, 1e-11], [0.0, 0.0, 1.0, 0.0]])
    thin = np.array([[0.0, 1.0, 2.0], [0.0, 1e-11, 0.0]])
    for bad, message in ((near, "coincident"), (thin, "collinear")):
        with pytest.raises(DegenerateGeometryError, match=message):
            Conformation(s * bad)
        with pytest.raises(DegenerateGeometryError, match=message):
            AnchorSet(s * bad)
    assert not AnchorSet(s * triangle).positions.flags.writeable


@pytest.mark.parametrize("s", [1e-170, 1e160])
def test_point_sets_are_measured_at_any_float_scale(s):
    # squaring coordinates of 1e161 overflows and of 1e-170 underflows;
    # the sets are measured in units near their largest coordinate
    config = SceneConfig(room_width=10.0 * s, room_height=10.0 * s, body_radius=s,
                         wall_clearance=3.0 * s)
    assert config.anchors.n_anchors == 8
    assert config.conformation.radius == pytest.approx(s, rel=1e-15)
    coincident = np.array([[0.0, 10.0, 10.0, 0.0, 10.0], [0.0, 0.0, 10.0, 10.0, 10.0]])
    with pytest.raises(DegenerateGeometryError, match="coincident"):
        SceneConfig(anchor_positions=s * coincident)
    with pytest.raises(DegenerateGeometryError, match="coincident"):
        SceneConfig(body_points=s * coincident / 10.0)
    # poses are placed and checked against the anchors in the same units
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = random_scene(config, 0)
        batch = random_scene(config, [np.random.default_rng(k) for k in range(5)])
    assert np.array_equal(batch.landmarks[0], one.landmarks)
    assert np.all(np.abs(batch.pose.translation / s - 5.0) <= 1.0)
    # vertex 0 of the polygon sits at (s, 0) from its centre, anchor 0 at the origin
    for offset, clash in ((0.0, True), (1e-12, True), (1e-6, False)):
        pose = Pose.from_angle(0.0, (-s, offset * s))
        if clash:
            with pytest.raises(DegenerateGeometryError, match="coincident"):
                Scene(config.anchors, config.conformation, pose)
        else:
            Scene(config.anchors, config.conformation, pose)
