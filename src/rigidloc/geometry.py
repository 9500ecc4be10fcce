"""Scene geometry: anchors, rigid body conformation, planar poses.

A scene consists of M fixed anchor nodes with known positions and a rigid
body carrying N landmark nodes. The body shape is described in a local
frame by a conformation matrix C (2xN); the world-frame landmark positions
follow from a pose (rotation Q in SO(2) plus translation t):

    S = Q C + t 1^T

All positions are 2D, in meters. A `Pose` and a `Scene` hold one pose,
or K poses of one body with a leading trial axis on their arrays.
`random_scene` given a list of K generators draws K poses, one per
generator; given one seed it draws one, through the same placement code.
A `SceneConfig` builds and checks its anchors and body once, when it is
made. Every point set passes one check whose tolerances scale with the
set, so a scene behaves the same in any unit. The types are frozen; the
anchor and body arrays are also read-only."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateGeometryError

# points closer than this fraction of their set's extent count as
# coincident, and a set this thin relative to its extent as collinear
_REL_TOL = 1e-9


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _extent(points: np.ndarray) -> float:
    """Largest distance from the centroid of a 2xN point set to any point."""
    centered = points - points.mean(axis=1, keepdims=True)
    return float(np.max(np.linalg.norm(centered, axis=0)))


def _point_set(values, label: str) -> np.ndarray:
    """`values` as a read-only 2xN float matrix of N >= 3 usable points.

    The points must be finite, pairwise distinct and not collinear, each
    to within 1e-9 of the set's extent: two points count as coincident
    when their distance is at most that, and the set as collinear when
    its centred second singular value is.
    """
    pts = np.array(values, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != 2 or pts.shape[1] < 3:
        raise ValueError(f"{label} must form a 2xN matrix of at least 3 points")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{label} must be finite")
    centered = pts - pts.mean(axis=1, keepdims=True)
    tol = _REL_TOL * np.max(np.linalg.norm(centered, axis=0))
    gaps = np.linalg.norm(pts[:, :, None] - pts[:, None, :], axis=0)
    gaps[np.diag_indices(pts.shape[1])] = np.inf
    if np.min(gaps) <= tol:
        raise DegenerateGeometryError(f"{label} contain coincident points")
    if np.linalg.svd(centered, compute_uv=False)[1] <= tol:
        raise DegenerateGeometryError(f"{label} are collinear")
    pts.flags.writeable = False
    return pts


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
        object.__setattr__(self, "points", _point_set(self.points, "conformation points"))

    @property
    def n_points(self) -> int:
        return self.points.shape[1]

    @property
    def radius(self) -> float:
        """Largest distance from the shape centroid to any point."""
        return _extent(self.points)

    @classmethod
    def regular_polygon(cls, n_points: int, radius: float) -> "Conformation":
        """Vertices of a regular polygon of given circumradius, centered at 0."""
        if radius <= 0:
            raise ValueError("polygon radius must be positive")
        ang = 2.0 * np.pi * np.arange(n_points) / n_points
        return cls(radius * np.vstack([np.cos(ang), np.sin(ang)]))


@dataclass(frozen=True)
class AnchorSet:
    """Fixed reference nodes with known world positions (2xM)."""

    positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions", _point_set(self.positions, "anchors"))

    @property
    def n_anchors(self) -> int:
        return self.positions.shape[1]

    @classmethod
    def perimeter(cls, n_anchors: int, width: float, height: float) -> "AnchorSet":
        """Place anchors evenly along the room boundary, starting at (0, 0)."""
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


def apply_pose(conformation: Conformation, pose: Pose) -> np.ndarray:
    """World positions S = Q C + t 1^T of the body's points under `pose`.

    Returns (2, N) for one pose and (K, 2, N) for a stack of K; column n
    is Q c_n + t.
    """
    return pose.rotation.matrix @ conformation.points + pose.translation[..., None]


def _on_anchor(anchors: np.ndarray, landmarks: np.ndarray) -> np.ndarray:
    """Whether a landmark lies on an anchor, per pose of a (..., 2, N) stack.

    A landmark within 1e-9 of the anchors' extent counts as on one. Only
    anchor-landmark pairs need checking: `AnchorSet` and `Conformation`
    reject coincident anchors and coincident body points when they are
    built.
    """
    gaps = np.linalg.norm(landmarks[..., None, :] - anchors[:, :, None], axis=-3)
    return np.any(gaps <= _REL_TOL * _extent(anchors), axis=(-2, -1))


@dataclass(frozen=True)
class Scene:
    """Anchors plus a rigid body in one pose, or in K poses.

    For K poses the pose arrays lead with a trial axis and `landmarks`
    is (K, 2, N); one scene holds a (2, 2) rotation, a (2,) translation
    and (2, N) landmarks. `landmarks` is computed from the pose, and
    checked against the anchors, when it is not given; `random_scene`
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
    """Parameters for the default scene generator, each given one way.

    The anchors are `n_anchors` evenly on the room perimeter or explicit
    `anchor_positions` (2xM); the body is a regular polygon of
    `n_landmarks` points and circumradius `body_radius`, or explicit
    body-frame `body_points` (2xN). A count or radius beside explicit
    points is an error. None means not given; with neither spelling, 8
    anchors and an 8-point body of radius 1. Explicit points are stored
    as two-row tuples, so configs compare and hash.

    `anchors` and `conformation` are built when the config is made. The
    body centroid is sampled at least `body radius + wall_clearance`
    from every wall, so a body that cannot fit fails here too.
    """

    room_width: float = 10.0
    room_height: float = 10.0
    n_anchors: int | None = None
    n_landmarks: int | None = None
    body_radius: float | None = None
    wall_clearance: float = 3.0
    anchor_positions: tuple | None = None
    body_points: tuple | None = None
    anchors: AnchorSet = field(init=False, repr=False, compare=False)
    conformation: Conformation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n_anchors", "n_landmarks"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise ConfigurationError(f"{name} must be an integer")
        for name in ("room_width", "room_height", "body_radius", "wall_clearance"):
            value = getattr(self, name)
            if (value is not None or name != "body_radius") and not (
                    _is_real(value) and np.isfinite(value)):
                raise ConfigurationError(f"{name} must be a finite number")
        if self.room_width <= 0 or self.room_height <= 0:
            raise ConfigurationError("room dimensions must be positive")
        if any(n is not None and n < 3 for n in (self.n_anchors, self.n_landmarks)):
            raise ConfigurationError("need at least 3 anchors and 3 landmarks")
        if self.body_radius is not None and self.body_radius <= 0:
            raise ConfigurationError("body radius must be positive")
        if self.wall_clearance < 0:
            raise ConfigurationError("wall clearance cannot be negative")
        if self.anchor_positions is not None and self.n_anchors is not None:
            raise ConfigurationError("give anchor_positions or n_anchors, not both")
        if self.body_points is not None and (self.n_landmarks, self.body_radius) != (None, None):
            raise ConfigurationError("give body_points or n_landmarks and body_radius, not both")

        # a count or radius given is positive by now, so `or` only fills in None
        if self.anchor_positions is None:
            anchors = AnchorSet.perimeter(self.n_anchors or 8, self.room_width, self.room_height)
        else:
            anchors = AnchorSet(self.anchor_positions)
            object.__setattr__(self, "anchor_positions", _rows(anchors.positions))
        if self.body_points is None:
            conformation = Conformation.regular_polygon(self.n_landmarks or 8,
                                                        self.body_radius or 1.0)
        else:
            conformation = Conformation(self.body_points)
            object.__setattr__(self, "body_points", _rows(conformation.points))
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "conformation", conformation)
        lo_x, hi_x, lo_y, hi_y = _centroid_box(self)
        if lo_x > hi_x or lo_y > hi_y:
            raise ConfigurationError(
                "body does not fit in the room with the requested wall clearance")


def _rows(points: np.ndarray) -> tuple:
    """A 2xN matrix as a hashable tuple of its two rows."""
    return tuple(map(tuple, points.tolist()))


def _centroid_box(config: SceneConfig) -> tuple:
    """Where the body centroid may go: (lo_x, hi_x, lo_y, hi_y)."""
    margin = config.conformation.radius + config.wall_clearance
    return (margin, config.room_width - margin, margin, config.room_height - margin)


def _draw_pose(rng: np.random.Generator, box) -> tuple:
    """Uniform angle on [-pi, pi), then the centroid's x and y in the box."""
    lo_x, hi_x, lo_y, hi_y = box
    return (rng.uniform(-np.pi, np.pi), rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))


def random_scene(config: SceneConfig, seed) -> Scene:
    """Generate a scene with a randomly posed body.

    Trial k draws from its own generator alone: an angle and a centroid,
    redrawn (at most 100 draws in all) while a landmark lands on an
    anchor. The body centroid stays at least `body radius +
    wall_clearance` from every wall.

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
        If some trial finds no non-degenerate placement within 100 draws.
    ValueError
        If `seed` is an empty list or holds anything but Generators.
    """
    if isinstance(seed, list):
        if not seed:
            raise ValueError("random_scene needs at least one generator")
        if not all(isinstance(r, np.random.Generator) for r in seed):
            raise ValueError("a list of seeds must hold only numpy Generators")
        rngs = seed
    else:
        rngs = [np.random.default_rng(seed)]
    anchors, conformation = config.anchors, config.conformation
    box = _centroid_box(config)
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
    if not isinstance(seed, list):
        placed = [part[0] for part in placed]
    rotations, translations, landmarks = placed
    return Scene(anchors, conformation, Pose(RotationMatrix(rotations), translations), landmarks)
