"""Scene geometry: anchors, rigid body conformation, planar poses.

A scene consists of M fixed anchor nodes with known positions and a rigid
body carrying N landmark nodes. The body shape is described in a local
frame by a conformation matrix C (2xN); the world-frame landmark positions
follow from a pose (rotation Q in SO(2) plus translation t):

    S = Q C + t 1^T

All positions are 2D, in meters. Every type in this module is immutable
after construction and safe to share across threads.

`random_scene` given a list of generators poses the body once per
generator and returns a `SceneBatch`, whose pose arrays lead with a
trial axis; given one seed it returns the one `Scene`, through the same
placement code (`place_bodies`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateGeometryError

_ORTHO_TOL = 1e-12
# nodes closer than this count as coincident
_MIN_SEPARATION = 1e-9


def _frozen_array(values, shape=None, dtype=float) -> np.ndarray:
    """Copy `values` into a read-only float array, optionally checking shape."""
    arr = np.array(values, dtype=dtype)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("array entries must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RotationMatrix:
    """A 2x2 rotation matrix together with its angle in radians.

    Attributes
    ----------
    matrix : ndarray, shape (2, 2)
        Orthonormal matrix with determinant +1.
    angle : float
        Counterclockwise rotation angle in radians. Consistent with
        `matrix` to within 1e-12.
    """

    matrix: np.ndarray
    angle: float

    def __post_init__(self):
        m = _frozen_array(self.matrix, shape=(2, 2))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "angle", float(self.angle))
        if not np.isfinite(self.angle):
            raise ValueError("rotation angle must be finite")
        if np.max(np.abs(m.T @ m - np.eye(2))) > _ORTHO_TOL:
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(m) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation matrix must have determinant +1")
        c, s = np.cos(self.angle), np.sin(self.angle)
        if max(abs(m[0, 0] - c), abs(m[1, 0] - s)) > 1e-9:
            raise ValueError("matrix entries inconsistent with stored angle")

    @classmethod
    def from_angle(cls, angle: float) -> "RotationMatrix":
        if not np.isfinite(angle):
            raise ValueError("rotation angle must be finite")
        return cls(_rotation_matrices(np.float64(angle)), float(angle))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "RotationMatrix":
        m = np.asarray(matrix, dtype=float)
        return cls(m, float(np.arctan2(m[1, 0], m[0, 0])))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype)


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
    """Rigid planar motion: rotation followed by translation."""

    rotation: RotationMatrix
    translation: np.ndarray

    def __post_init__(self):
        if not isinstance(self.rotation, RotationMatrix):
            object.__setattr__(self, "rotation", RotationMatrix.from_matrix(self.rotation))
        object.__setattr__(self, "translation", _frozen_array(self.translation, shape=(2,)))

    @classmethod
    def from_angle(cls, angle: float, translation) -> "Pose":
        return cls(RotationMatrix.from_angle(angle), np.asarray(translation, dtype=float))


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


def _place(anchors: np.ndarray, points: np.ndarray, rotations: np.ndarray,
           translations: np.ndarray):
    """World landmarks of K poses of one body, and which poses are degenerate.

    Returns the (K, 2, N) landmarks Q_k C + t_k and a (K,) mask of the
    poses that put a landmark on an anchor. Only anchor-landmark pairs
    need checking: `AnchorSet` and `Conformation` reject coincident
    anchors and coincident body points when they are built.
    """
    landmarks = rotations @ points + translations[:, :, None]
    gaps = np.linalg.norm(landmarks[:, :, None, :] - anchors[None, :, :, None], axis=1)
    return landmarks, np.any(gaps <= _MIN_SEPARATION, axis=(1, 2))


def apply_pose(conformation: Conformation, pose: Pose) -> np.ndarray:
    """Transform body-frame points to world-frame landmark positions.

    Parameters
    ----------
    conformation : Conformation
        Body shape C (2xN).
    pose : Pose
        Rotation Q and translation t.

    Returns
    -------
    ndarray, shape (2, N)
        S = Q C + t 1^T, so column n equals Q c_n + t.
    """
    q = pose.rotation.matrix
    return q @ conformation.points + pose.translation[:, None]


@dataclass(frozen=True)
class Scene:
    """A full localization scene: anchors plus a posed rigid body."""

    anchors: AnchorSet
    conformation: Conformation
    pose: Pose
    landmarks: np.ndarray = field(init=False)

    def __post_init__(self):
        lm, clash = _place(self.anchors.positions, self.conformation.points,
                           self.pose.rotation.matrix[None], self.pose.translation[None])
        if clash[0]:
            raise DegenerateGeometryError("scene nodes contain coincident points")
        object.__setattr__(self, "landmarks", _frozen_array(lm[0]))

    @property
    def n_anchors(self) -> int:
        return self.anchors.n_anchors

    @property
    def n_landmarks(self) -> int:
        return self.conformation.n_points

    @property
    def n_nodes(self) -> int:
        return self.n_anchors + self.n_landmarks

    def all_positions(self) -> np.ndarray:
        """Anchor columns followed by landmark columns (2xT)."""
        return np.hstack([self.anchors.positions, self.landmarks])

    def complex_positions(self) -> np.ndarray:
        """All node positions as complex numbers x + jy, anchors first."""
        xy = self.all_positions()
        return xy[0] + 1j * xy[1]


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


class SceneBatch(NamedTuple):
    """K scenes of one anchor set and one body, each posed independently.

    The pose arrays lead with the trial axis; a `Scene` is the K = 1 case.
    """

    anchors: AnchorSet
    conformation: Conformation
    angles: np.ndarray        # (K,) rotation angles
    rotations: np.ndarray     # (K, 2, 2)
    translations: np.ndarray  # (K, 2)
    landmarks: np.ndarray     # (K, 2, N) world positions

    @classmethod
    def of_scene(cls, scene: Scene) -> "SceneBatch":
        pose = scene.pose
        return cls(scene.anchors, scene.conformation, np.array([pose.rotation.angle]),
                   pose.rotation.matrix[None], pose.translation[None], scene.landmarks[None])

    @property
    def n_anchors(self) -> int:
        return self.anchors.n_anchors

    @property
    def n_landmarks(self) -> int:
        return self.conformation.n_points

    def complex_positions(self) -> np.ndarray:
        """(K, T) node positions x + jy of each scene, anchors first."""
        a = self.anchors.positions
        lm = self.landmarks
        x = np.empty((len(lm), a.shape[1] + lm.shape[2]), dtype=complex)
        x[:, :a.shape[1]] = a[0] + 1j * a[1]
        x[:, a.shape[1]:] = lm[:, 0] + 1j * lm[:, 1]
        return x


def _draw_pose(rng: np.random.Generator, box) -> tuple:
    """Uniform angle on [-pi, pi), then the centroid's x and y in the box."""
    lo_x, hi_x, lo_y, hi_y = box
    return (rng.uniform(-np.pi, np.pi), rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))


def place_bodies(config: SceneConfig, rngs: Sequence[np.random.Generator]) -> SceneBatch:
    """Draw one feasible pose of the config's body per generator.

    Trial k draws from `rngs[k]` alone: an angle and a centroid, redrawn
    (at most 100 draws in all) while a landmark lands on an anchor. The
    body centroid stays at least `body radius + wall_clearance` from
    every wall.

    Raises
    ------
    ConfigurationError
        If the body does not fit in the room, or some trial finds no
        non-degenerate placement within 100 draws.
    """
    anchors = config.build_anchors()
    conformation = config.build_conformation()
    points = conformation.points
    margin = conformation.radius + config.wall_clearance
    box = (margin, config.room_width - margin, margin, config.room_height - margin)
    if box[0] > box[1] or box[2] > box[3]:
        raise ConfigurationError(
            "body does not fit in the room with the requested wall clearance")
    center = points.mean(axis=1)

    def place(draws):
        rotations = _rotation_matrices(draws[:, 0])
        # the translation puts the shape centroid at the drawn point
        translations = draws[:, 1:] - rotations @ center
        landmarks, clash = _place(anchors.positions, points, rotations, translations)
        return (draws[:, 0], rotations, translations, landmarks), clash

    poses, clash = place(np.array([_draw_pose(rng, box) for rng in rngs]).reshape(-1, 3))
    for k in np.flatnonzero(clash):
        for _ in range(99):
            redraw, clash_k = place(np.array([_draw_pose(rngs[k], box)]))
            if not clash_k[0]:
                for part, new in zip(poses, redraw):
                    part[k] = new[0]
                break
        else:
            raise ConfigurationError("could not place the body after 100 attempts")
    return SceneBatch(anchors, conformation, *poses)


def random_scene(config: SceneConfig, seed) -> Scene | SceneBatch:
    """Generate a scene with a randomly posed body.

    Parameters
    ----------
    config : SceneConfig
        Layout parameters; defaults describe a 10m x 10m room with 8
        perimeter anchors and an 8-point polygon body.
    seed : int, numpy.random.Generator, or list of Generator
        Source of randomness. The same seed yields an identical scene.
        A list of generators poses the body once per generator, each
        drawing from its own generator only.

    Returns
    -------
    Scene, or SceneBatch for a list of generators

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
    batch = place_bodies(config, [np.random.default_rng(seed)])
    pose = Pose(RotationMatrix(batch.rotations[0], batch.angles[0]), batch.translations[0])
    return Scene(batch.anchors, batch.conformation, pose)
