"""Scene geometry: anchors, rigid body conformation, planar poses.

A scene consists of M fixed anchor nodes with known positions and a rigid
body carrying N landmark nodes. The body shape is described in a local
frame by a conformation matrix C (2xN); the world-frame landmark positions
follow from a pose (rotation Q in SO(2) plus translation t):

    S = Q C + t 1^T

All positions are 2D, in meters. A `Pose` and a `Scene` hold one pose,
or K poses of one body with a leading trial axis on their arrays.
`random_scene` given a list of K generators draws K poses, one per
generator; given one seed it draws one, through the same placement code
(`place_bodies`). The types are frozen; the anchor and body arrays are
also read-only."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateGeometryError

# nodes closer than this count as coincident
_MIN_SEPARATION = 1e-9


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _frozen_array(values) -> np.ndarray:
    """Copy `values` into a read-only float array."""
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("array entries must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RotationMatrix:
    """Planar rotation matrices: one (2, 2) matrix, or a (K, 2, 2) stack."""

    matrix: np.ndarray

    @property
    def angle(self):
        """Counterclockwise angle in (-pi, pi], one per matrix."""
        return np.arctan2(self.matrix[..., 1, 0], self.matrix[..., 0, 0])

    @classmethod
    def from_angle(cls, angle) -> "RotationMatrix":
        angle = np.asarray(angle, dtype=float)
        if not np.all(np.isfinite(angle)):
            raise ValueError("rotation angle must be finite")
        return cls(_rotation_matrices(angle))


def _rotation_matrices(angles: np.ndarray) -> np.ndarray:
    """[[cos a, -sin a], [sin a, cos a]] for each angle, shape (..., 2, 2)."""
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty(np.shape(angles) + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid planar motion, rotation then translation: one, or K of them.

    `translation` is (2,) for one pose and (K, 2) for a stack, matching
    `rotation.matrix`.
    """

    rotation: RotationMatrix
    translation: np.ndarray

    @classmethod
    def from_angle(cls, angle, translation) -> "Pose":
        t = np.array(translation, dtype=float)
        if t.shape != np.shape(angle) + (2,) or not np.all(np.isfinite(t)):
            raise ValueError("translation must be a finite 2-vector per angle")
        return cls(RotationMatrix.from_angle(angle), t)


@dataclass(frozen=True)
class Conformation:
    """Rigid body shape: N landmark positions in the body frame (2xN)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != 2:
            raise ValueError("conformation points must form a 2xN matrix")
        if pts.shape[1] < 3:
            raise ValueError("conformation needs at least 3 points")
        _check_pairwise_distinct(pts, "conformation points")
        centered = pts - pts.mean(axis=1, keepdims=True)
        if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
            raise DegenerateGeometryError("conformation points are collinear")
        object.__setattr__(self, "points", _frozen_array(pts))

    @property
    def n_points(self) -> int:
        return self.points.shape[1]

    @property
    def radius(self) -> float:
        """Largest distance from the shape centroid to any point."""
        centered = self.points - self.points.mean(axis=1, keepdims=True)
        return float(np.max(np.linalg.norm(centered, axis=0)))

    @classmethod
    def regular_polygon(cls, n_points: int, radius: float) -> "Conformation":
        """Vertices of a regular polygon of given circumradius, centered at 0."""
        if n_points < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if radius <= 0:
            raise ValueError("polygon radius must be positive")
        ang = 2.0 * np.pi * np.arange(n_points) / n_points
        return cls(radius * np.vstack([np.cos(ang), np.sin(ang)]))


@dataclass(frozen=True)
class AnchorSet:
    """Fixed reference nodes with known world positions (2xM)."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] != 2:
            raise ValueError("anchor positions must form a 2xM matrix")
        if pos.shape[1] < 3:
            raise ValueError("at least 3 anchors are required")
        _check_pairwise_distinct(pos, "anchors")
        centered = pos - pos.mean(axis=1, keepdims=True)
        if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
            raise DegenerateGeometryError("anchors are collinear")
        object.__setattr__(self, "positions", _frozen_array(pos))

    @property
    def n_anchors(self) -> int:
        return self.positions.shape[1]

    @classmethod
    def perimeter(cls, n_anchors: int, width: float, height: float) -> "AnchorSet":
        """Place anchors evenly along the room boundary, starting at (0, 0)."""
        if n_anchors < 3:
            raise ValueError("at least 3 anchors are required")
        if width <= 0 or height <= 0:
            raise ValueError("room dimensions must be positive")
        per = 2.0 * (width + height)
        pos = np.empty((2, n_anchors))
        for k in range(n_anchors):
            s = per * k / n_anchors
            if s < width:
                pos[:, k] = (s, 0.0)
            elif s < width + height:
                pos[:, k] = (width, s - width)
            elif s < 2.0 * width + height:
                pos[:, k] = (2.0 * width + height - s, height)
            else:
                pos[:, k] = (0.0, per - s)
        return cls(pos)


def _check_pairwise_distinct(points: np.ndarray, label: str):
    diff = points[:, :, None] - points[:, None, :]
    dist = np.linalg.norm(diff, axis=0)
    n = points.shape[1]
    dist[np.diag_indices(n)] = np.inf
    if np.min(dist) <= _MIN_SEPARATION:
        raise DegenerateGeometryError(f"{label} contain coincident points")


def apply_pose(conformation: Conformation, pose: Pose) -> np.ndarray:
    """World positions S = Q C + t 1^T of the body's points under `pose`.

    Returns (2, N) for one pose and (K, 2, N) for a stack of K; column n
    is Q c_n + t.
    """
    return pose.rotation.matrix @ conformation.points + pose.translation[..., None]


def _on_anchor(anchors: np.ndarray, landmarks: np.ndarray) -> np.ndarray:
    """Whether a landmark lies on an anchor, per pose of a (..., 2, N) stack.

    Only anchor-landmark pairs need checking: `AnchorSet` and
    `Conformation` reject coincident anchors and coincident body points
    when they are built.
    """
    gaps = np.linalg.norm(landmarks[..., None, :] - anchors[:, :, None], axis=-3)
    return np.any(gaps <= _MIN_SEPARATION, axis=(-2, -1))


@dataclass(frozen=True)
class Scene:
    """Anchors plus a rigid body in one pose, or in K poses.

    For K poses the pose arrays lead with a trial axis and `landmarks`
    is (K, 2, N); one scene holds a (2, 2) rotation, a (2,) translation
    and (2, N) landmarks. `landmarks` is computed from the pose, and
    checked against the anchors, when it is not given; `place_bodies`
    gives the landmarks it has already checked.
    """

    anchors: AnchorSet
    conformation: Conformation
    pose: Pose
    landmarks: np.ndarray | None = None

    def __post_init__(self):
        if self.landmarks is None:
            landmarks = apply_pose(self.conformation, self.pose)
            if np.any(_on_anchor(self.anchors.positions, landmarks)):
                raise DegenerateGeometryError("scene nodes contain coincident points")
            object.__setattr__(self, "landmarks", landmarks)

    @property
    def n_anchors(self) -> int:
        return self.anchors.n_anchors

    @property
    def n_landmarks(self) -> int:
        return self.conformation.n_points

    def complex_positions(self) -> np.ndarray:
        """Node positions x + jy, anchors first: (T,), or (K, T) for K poses."""
        a, lm = self.anchors.positions, self.landmarks
        anchors = np.broadcast_to(a[0] + 1j * a[1], lm.shape[:-2] + a.shape[1:])
        return np.concatenate([anchors, lm[..., 0, :] + 1j * lm[..., 1, :]], axis=-1)


@dataclass(frozen=True)
class SceneConfig:
    """Parameters for the default scene generator.

    Anchors are placed evenly on the room perimeter unless explicit
    positions are given. The body is a regular polygon of `body_radius`
    unless explicit body-frame points are given. Poses are sampled with
    the body centroid at least `body radius + wall_clearance` away from
    every wall, which keeps the whole body inside the room with margin.
    """

    room_width: float = 10.0
    room_height: float = 10.0
    n_anchors: int = 8
    n_landmarks: int = 8
    body_radius: float = 1.0
    wall_clearance: float = 3.0
    anchor_positions: np.ndarray | None = None
    body_points: np.ndarray | None = None

    def __post_init__(self):
        for name in ("n_anchors", "n_landmarks"):
            if not _is_int(getattr(self, name)):
                raise ConfigurationError(f"{name} must be an integer")
        for name in ("room_width", "room_height", "body_radius", "wall_clearance"):
            value = getattr(self, name)
            if not _is_real(value) or not np.isfinite(value):
                raise ConfigurationError(f"{name} must be a finite number")
        if self.room_width <= 0 or self.room_height <= 0:
            raise ConfigurationError("room dimensions must be positive")
        if self.anchor_positions is not None:
            object.__setattr__(self, "anchor_positions", _frozen_array(self.anchor_positions))
            object.__setattr__(self, "n_anchors", self.anchor_positions.shape[1])
        if self.body_points is not None:
            object.__setattr__(self, "body_points", _frozen_array(self.body_points))
            object.__setattr__(self, "n_landmarks", self.body_points.shape[1])
        if self.n_anchors < 3 or self.n_landmarks < 3:
            raise ConfigurationError("need at least 3 anchors and 3 landmarks")
        if self.body_radius <= 0:
            raise ConfigurationError("body radius must be positive")
        if self.wall_clearance < 0:
            raise ConfigurationError("wall clearance cannot be negative")

    def build_anchors(self) -> AnchorSet:
        """The config's anchor set, built on first use and then shared."""
        return self._anchors

    def build_conformation(self) -> Conformation:
        """The config's body shape, built on first use and then shared."""
        return self._conformation

    # Cached in the instance: the config is frozen, what it builds is
    # immutable, and `dataclasses.replace` makes a new instance. A build
    # that raises is not cached.
    @cached_property
    def _anchors(self) -> AnchorSet:
        if self.anchor_positions is not None:
            return AnchorSet(self.anchor_positions)
        return AnchorSet.perimeter(self.n_anchors, self.room_width, self.room_height)

    @cached_property
    def _conformation(self) -> Conformation:
        if self.body_points is not None:
            return Conformation(self.body_points)
        return Conformation.regular_polygon(self.n_landmarks, self.body_radius)


def _draw_pose(rng: np.random.Generator, box) -> tuple:
    """Uniform angle on [-pi, pi), then the centroid's x and y in the box."""
    lo_x, hi_x, lo_y, hi_y = box
    return (rng.uniform(-np.pi, np.pi), rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))


def place_bodies(config: SceneConfig, rngs: Sequence[np.random.Generator]) -> Scene:
    """Draw one feasible pose of the config's body per generator.

    Trial k draws from `rngs[k]` alone: an angle and a centroid, redrawn
    (at most 100 draws in all) while a landmark lands on an anchor. The
    body centroid stays at least `body radius + wall_clearance` from
    every wall. Returns the K poses as one `Scene`.

    Raises
    ------
    ConfigurationError
        If the body does not fit in the room, or some trial finds no
        non-degenerate placement within 100 draws.
    """
    anchors = config.build_anchors()
    conformation = config.build_conformation()
    margin = conformation.radius + config.wall_clearance
    box = (margin, config.room_width - margin, margin, config.room_height - margin)
    if box[0] > box[1] or box[2] > box[3]:
        raise ConfigurationError(
            "body does not fit in the room with the requested wall clearance")
    center = conformation.points.mean(axis=1)

    def place(draws):
        rotations = _rotation_matrices(draws[:, 0])
        # the translation puts the shape centroid at the drawn point
        translations = draws[:, 1:] - rotations @ center
        landmarks = apply_pose(conformation, Pose(RotationMatrix(rotations), translations))
        return (rotations, translations, landmarks), _on_anchor(anchors.positions, landmarks)

    placed, clash = place(np.array([_draw_pose(rng, box) for rng in rngs]).reshape(-1, 3))
    for k in np.flatnonzero(clash):
        for _ in range(99):
            redraw, clash_k = place(np.array([_draw_pose(rngs[k], box)]))
            if not clash_k[0]:
                for part, new in zip(placed, redraw):
                    part[k] = new[0]
                break
        else:
            raise ConfigurationError("could not place the body after 100 attempts")
    rotations, translations, landmarks = placed
    pose = Pose(RotationMatrix(rotations), translations)
    return Scene(anchors, conformation, pose, landmarks)


def random_scene(config: SceneConfig, seed) -> Scene:
    """Generate a scene with a randomly posed body.

    Parameters
    ----------
    config : SceneConfig
        Layout parameters; defaults describe a 10m x 10m room with 8
        perimeter anchors and an 8-point polygon body.
    seed : int, numpy.random.Generator, or list of Generator
        Source of randomness. The same seed yields an identical scene.
        A list of K generators poses the body once per generator, each
        drawing from its own generator only.

    Returns
    -------
    Scene
        One pose, or K poses for a list of K generators.

    Raises
    ------
    ConfigurationError
        If no non-degenerate placement is found within bounded retries.
    ValueError
        If `seed` is an empty list or holds anything but Generators.
    """
    if isinstance(seed, list):
        if not seed:
            raise ValueError("random_scene needs at least one generator")
        if not all(isinstance(r, np.random.Generator) for r in seed):
            raise ValueError("a list of seeds must hold only numpy Generators")
        return place_bodies(config, seed)
    scene = place_bodies(config, [np.random.default_rng(seed)])
    pose = Pose(RotationMatrix(scene.pose.rotation.matrix[0]), scene.pose.translation[0])
    return Scene(scene.anchors, scene.conformation, pose, scene.landmarks[0])
