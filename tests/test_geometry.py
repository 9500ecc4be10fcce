from dataclasses import replace

import numpy as np
import pytest

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


def test_apply_pose_identity():
    conf = Conformation.regular_polygon(5, 2.0)
    assert np.allclose(apply_pose(conf, Pose.from_angle(0.0, [0.0, 0.0])), conf.points)


def test_apply_pose_pure_translation():
    conf = Conformation.regular_polygon(4, 1.0)
    pose = Pose.from_angle(0.0, (1.0, 2.0))
    shifted = apply_pose(conf, pose)
    assert np.allclose(shifted, conf.points + np.array([[1.0], [2.0]]))


def test_apply_pose_point_reflection():
    conf = Conformation(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]))
    pose = Pose.from_angle(np.pi, (0.0, 0.0))
    out = apply_pose(conf, pose)
    assert np.allclose(out[:, 0], [-1.0, 0.0], atol=1e-12)


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


def test_rigid_motion_preserves_distances():
    for seed in range(20):
        scene = random_scene(SceneConfig(), seed=seed)
        c = scene.conformation.points
        s = scene.landmarks
        dc = np.linalg.norm(c[:, :, None] - c[:, None, :], axis=0)
        ds = np.linalg.norm(s[:, :, None] - s[:, None, :], axis=0)
        assert np.max(np.abs(dc - ds)) < 1e-10


def test_inverse_pose_recovers_conformation():
    scene = random_scene(SceneConfig(), seed=11)
    q = scene.pose.rotation.matrix
    t = scene.pose.translation
    back = q.T @ (scene.landmarks - t[:, None])
    assert np.max(np.abs(back - scene.conformation.points)) < 1e-10


def test_center_maps_with_pose():
    scene = random_scene(SceneConfig(), seed=13)
    q = scene.pose.rotation.matrix
    t = scene.pose.translation
    lhs = scene.landmarks.mean(axis=1)
    rhs = q @ scene.conformation.points.mean(axis=1) + t
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_conformation_rejects_degenerate():
    with pytest.raises(ValueError):
        Conformation(np.array([[0.0, 1.0], [0.0, 0.0]]))  # too few points
    with pytest.raises(DegenerateGeometryError):
        Conformation(np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]]))  # collinear


def test_conformation_rejects_coincident_points():
    points = np.array([[1.0, 0.0, -1.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        Conformation(points)
    # the body is rejected when it is built, not after 100 placement draws
    cfg = SceneConfig(body_points=points)
    with pytest.raises(DegenerateGeometryError):
        cfg.build_conformation()
    with pytest.raises(DegenerateGeometryError):
        random_scene(cfg, seed=0)


def test_anchorset_rejects_degenerate():
    with pytest.raises(DegenerateGeometryError):
        AnchorSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))  # duplicate
    with pytest.raises(DegenerateGeometryError):
        AnchorSet(np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]))  # collinear


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
    assert scene.landmarks.shape == (2, 2, 3)
    assert np.allclose(scene.landmarks[0], conf.points + 1.5)


def test_perimeter_anchors_on_boundary():
    anchors = AnchorSet.perimeter(8, 10.0, 10.0)
    pos = anchors.positions
    assert np.allclose(pos[:, 0], [0.0, 0.0])
    on_edge = (np.isclose(pos, 0.0) | np.isclose(pos[0], 10.0) |
               np.isclose(pos[1], 10.0))
    assert np.all(on_edge.any(axis=0))
    assert pos.shape == (2, 8)


def test_infeasible_clearance_raises():
    cfg = SceneConfig(room_width=4.0, room_height=4.0, body_radius=1.0,
                      wall_clearance=3.0)
    with pytest.raises(ConfigurationError):
        random_scene(cfg, seed=0)


def test_scene_positions_order():
    scene = random_scene(SceneConfig(), seed=5)
    z = scene.complex_positions()
    assert np.array_equal(z[:8].real, scene.anchors.positions[0])
    assert np.array_equal(z[:8].imag, scene.anchors.positions[1])
    assert np.array_equal(z[8:].real, scene.landmarks[0])
    assert np.array_equal(z[8:].imag, scene.landmarks[1])
    # K poses give one row per pose, each the positions of that pose alone
    scenes = random_scene(SceneConfig(), [np.random.default_rng(k) for k in range(3)])
    rows = scenes.complex_positions()
    assert rows.shape == (3, 16)
    for k in range(3):
        assert np.array_equal(rows[k], random_scene(SceneConfig(), k).complex_positions())


def test_scene_config_builds_once():
    cfg = SceneConfig()
    assert cfg.build_anchors() is cfg.build_anchors()
    assert cfg.build_conformation() is cfg.build_conformation()
    scene = random_scene(cfg, seed=1)
    assert scene.anchors is cfg.build_anchors()
    assert scene.conformation is cfg.build_conformation()
    # replace() gives a new config, which builds its own objects
    other = replace(cfg, n_anchors=6)
    assert other.build_anchors() is not cfg.build_anchors()
    assert other.build_anchors().n_anchors == 6
    assert cfg.build_anchors().n_anchors == 8


def test_scene_config_failed_build_raises_every_call():
    cfg = SceneConfig(anchor_positions=np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]))
    for _ in range(2):
        with pytest.raises(DegenerateGeometryError):
            cfg.build_anchors()
        with pytest.raises(DegenerateGeometryError):
            random_scene(cfg, seed=0)


def test_scene_config_checks_value_types():
    # counts are integers and lengths finite real numbers, not values
    # that would convert (8.7 -> 8, True -> 1.0) or fail later on
    for bad in (dict(n_anchors=8.7), dict(n_landmarks=True), dict(n_anchors="8"),
                dict(room_width=np.nan), dict(room_height=np.inf), dict(room_width=True),
                dict(body_radius="1.5"), dict(wall_clearance=np.nan)):
        with pytest.raises(ConfigurationError, match="must be an integer|finite number"):
            SceneConfig(**bad)
    config = SceneConfig(n_anchors=np.int64(6), room_width=np.float64(12.0), room_height=9)
    assert random_scene(config, seed=0).n_anchors == 6
