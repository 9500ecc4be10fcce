"""Scene geometry: anchors, rigid body conformation, planar poses.

A scene consists of M fixed anchor nodes with known positions and a rigid
body carrying N landmark nodes. The body shape is described in a local
frame by a conformation matrix C (2xN); the world-frame landmark positions
follow from a pose (rotation Q in SO(2) plus translation t):

    S = Q C + t 1^T

A `Pose` holds its rotation as the unit complex number q = e^{j alpha};
the matrix Q = [[Re q, -Im q], [Im q, Re q]] and the angle alpha are
views derived from q. All positions are 2D, in meters. A `Pose` and a
`Scene` hold one pose, or K poses of one body with a leading trial axis
on their arrays. Body points are placed as complex numbers x + jy: (N,),
or (K, N) for K poses.
`random_scene` given a list or tuple of K generators draws K poses, one
per generator; given one seed it draws one, through the same placement code.
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


def _centred_unit(points: np.ndarray):
    """The 2xN set centred and scaled by 2**-e into [-1, 1], exactly; and e.

    The scaling keeps the squares of the coordinates in range at any scale.
    """
    e = np.frexp(np.max(np.abs(points)))[1]
    unit = np.ldexp(points, -e)
    return unit - unit.mean(axis=1, keepdims=True), e


def _extent(points: np.ndarray) -> float:
    """Largest distance from the centroid of a 2xN point set to any point."""
    centered, e = _centred_unit(points)
    return float(np.ldexp(np.max(np.linalg.norm(centered, axis=0)), e))


def _complex(points: np.ndarray) -> np.ndarray:
    """x + jy of a (2, N) point set, or of a (K, 2, N) stack: (N,) or (K, N)."""
    return points[..., 0, :] + 1j * points[..., 1, :]


def _point_set(values, label: str) -> np.ndarray:
    """`values` as a read-only 2xN float matrix of N >= 3 usable points.

    Coordinates must be real numbers, not strings or flags. The points
    must be finite, pairwise distinct and not collinear, each to within
    1e-9 of the set's extent: two points count as coincident when their
    distance is at most that, and the set as collinear when its centred
    second singular value is.
    """
    raw = np.array(values, dtype=object)
    if raw.ndim != 2 or raw.shape[0] != 2 or raw.shape[1] < 3:
        raise ValueError(f"{label} must form a 2xN matrix of at least 3 points")
    if not all(map(_is_real, raw.flat)):
        raise ConfigurationError(f"{label} must be real numbers")
    pts = raw.astype(float)
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{label} must be finite")
    centered, _ = _centred_unit(pts)
    tol = _REL_TOL * np.max(np.linalg.norm(centered, axis=0))
    gaps = np.linalg.norm(centered[:, :, None] - centered[:, None, :], axis=0)
    gaps[np.diag_indices(pts.shape[1])] = np.inf
    if np.min(gaps) <= tol:
        raise DegenerateGeometryError(f"{label} contain coincident points")
    if np.linalg.svd(centered, compute_uv=False)[1] <= tol:
        raise DegenerateGeometryError(f"{label} are collinear")
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class Rotation:
    """Planar rotations as unit complex numbers q = e^{j alpha}: one, or a (K,) array."""

    q: complex | np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """[[Re q, -Im q], [Im q, Re q]]: (2, 2) for one rotation, (K, 2, 2) for K."""
        q = self.q
        return np.stack([q.real, -q.imag, q.imag, q.real], axis=-1).reshape(np.shape(q) + (2, 2))

    @property
    def angle(self):
        """Counterclockwise angle in (-pi, pi], one per rotation."""
        return np.angle(self.q)

    @classmethod
    def from_angle(cls, angle) -> "Rotation":
        angle = np.asarray(angle, dtype=float)
        if not np.all(np.isfinite(angle)):
            raise ValueError("rotation angle must be finite")
        return cls(np.cos(angle) + 1j * np.sin(angle))


@dataclass(frozen=True)
class Pose:
    """Rigid planar motion, rotation then translation: one, or K of them.

    `translation` is (2,) for one pose and (K, 2) for a stack, matching
    `rotation.q`.
    """

    rotation: Rotation
    translation: np.ndarray

    @classmethod
    def from_angle(cls, angle, translation) -> "Pose":
        t = np.array(translation, dtype=float)
        if t.shape != np.shape(angle) + (2,) or not np.all(np.isfinite(t)):
            raise ValueError("translation must be a finite 2-vector per angle")
        return cls(Rotation.from_angle(angle), t)


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
    """World positions s_n = Q c_n + t of the body's points under `pose`.

    Returns x + jy, (N,) for one pose and (K, N) for K, from the real
    product Q C + t 1^T: a complex product q c_n would move x by an ulp.
    """
    return _complex(pose.rotation.matrix @ conformation.points + pose.translation[..., None])


def _on_anchor(anchors: np.ndarray, landmarks: np.ndarray) -> np.ndarray:
    """Whether a landmark lies on an anchor, per pose of an (..., N) complex stack.

    A landmark within 1e-9 of the anchors' extent counts as on one. The
    gaps are complex moduli, which do not square the coordinates, so
    they stay in range at any scale. Only anchor-landmark pairs need
    checking: `AnchorSet` and `Conformation` reject coincident anchors
    and coincident body points when they are built.
    """
    gaps = np.abs(landmarks[..., None, :] - _complex(anchors)[:, None])
    return np.any(gaps <= _REL_TOL * _extent(anchors), axis=(-2, -1))


@dataclass(frozen=True)
class Scene:
    """Anchors plus a rigid body in one pose, or in K poses.

    For K poses the pose arrays lead with a trial axis and the complex
    `landmarks` x + jy are (K, N); one scene holds a 0-d rotation q, a
    (2,) translation and (N,) landmarks. `landmarks` is computed from the
    pose, and checked against the anchors, when it is not given;
    `random_scene` gives the landmarks it has already checked.
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
        lm = self.landmarks
        anchors = np.broadcast_to(_complex(self.anchors.positions),
                                  lm.shape[:-1] + (self.n_anchors,))
        return np.concatenate([anchors, lm], axis=-1)


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
    """Uniform angle on [-pi, pi), then the centroid's x and y in the box.

    One call of three doubles: numpy's `uniform(low, high)` is
    `low + (high - low) * random()`, so this draws, bit for bit and from
    the same stream position, what three `uniform` calls would.
    """
    lo_x, hi_x, lo_y, hi_y = box
    a, x, y = rng.random(3).tolist()
    return (-np.pi + (np.pi - -np.pi) * a, lo_x + (hi_x - lo_x) * x, lo_y + (hi_y - lo_y) * y)


def _generators(seed):
    """(generators, batched): the K Generators of a list or tuple, or one from a seed."""
    if not isinstance(seed, (list, tuple)):
        return [np.random.default_rng(seed)], False
    if not seed:
        raise ValueError("a list of generators must hold at least one generator")
    if not all(isinstance(r, np.random.Generator) for r in seed):
        raise ValueError("a list of generators must hold only numpy Generators")
    return seed, True


def random_scene(config: SceneConfig, seed) -> Scene:
    """Generate a scene with a randomly posed body.

    Trial k draws from its own generator alone: an angle, then a
    centroid. The whole batch is placed at once; the trials where a
    landmark lands on an anchor then draw again, each from its own
    generator, round by round, at most 100 draws per trial. The body
    centroid stays at least `body radius + wall_clearance` from every
    wall.

    Parameters
    ----------
    config : SceneConfig
        Layout parameters; defaults describe a 10m x 10m room with 8
        perimeter anchors and an 8-point polygon body.
    seed : int, numpy.random.Generator, or list or tuple of Generator
        Source of randomness. The same seed yields an identical scene.
        A list (or tuple) of K generators poses the body once per
        generator, each drawing from its own generator only.

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
    rngs, batched = _generators(seed)
    anchors, conformation = config.anchors, config.conformation
    box = _centroid_box(config)
    center = conformation.points.mean(axis=1)
    draws = np.empty((len(rngs), 3))
    clash = np.ones(len(rngs), dtype=bool)
    for _ in range(100):
        for k in np.flatnonzero(clash):
            draws[k] = _draw_pose(rngs[k], box)
        rotation = Rotation.from_angle(draws[:, 0])
        # the translation puts the shape centroid at the drawn point
        pose = Pose(rotation, draws[:, 1:] - rotation.matrix @ center)
        landmarks = apply_pose(conformation, pose)
        clash = _on_anchor(anchors.positions, landmarks)
        if not np.any(clash):
            break
    else:
        raise ConfigurationError("could not place the body after 100 attempts")
    if not batched:
        pose, landmarks = Pose(Rotation(rotation.q[0]), pose.translation[0]), landmarks[0]
    return Scene(anchors, conformation, pose, landmarks)
