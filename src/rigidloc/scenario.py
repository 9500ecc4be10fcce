"""Scenario file parsing.

A scenario is a YAML mapping with up to five sections, all optional;
missing values fall back to the defaults of the corresponding config
dataclasses (a 10m x 10m room, 8 perimeter anchors, an 8-point polygon
body, the standard sigma grid, 1000 trials).

    room:
      width: 10.0
      height: 10.0
    anchors:
      count: 8
      layout: perimeter          # or explicit positions: [[x, y], ...]
    body:
      count: 8
      radius: 1.0
      wall_clearance: 3.0        # or explicit points: [[x, y], ...]
    noise:
      sigma: [0.1, 0.5, 1.0]     # scalar or list; becomes the sweep grid
      zeta_theta_degrees: 8.0    # or rho: <concentration>
      tt_noisy: false
    experiment:
      trials: 1000
      methods: [smds_full, smds_distance_only, mds]
      master_seed: 12345
      fixed_pose: false
      workers: 1
      output: results.csv

Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import numpy as np
import yaml

from .errors import ConfigurationError
from .geometry import SceneConfig
from .harness import DEFAULT_SIGMA_GRID, DEFAULT_ZETA_THETA, ExperimentConfig

_SECTIONS = {"room", "anchors", "body", "noise", "experiment", "seed"}


def _check_keys(section: str, mapping: dict, allowed: set):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in scenario section {section!r}")


def _points_matrix(rows, what: str) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigurationError(f"{what} must be a list of [x, y] pairs")
    return arr.T


def _parse_scene(doc: dict) -> SceneConfig:
    room = doc.get("room") or {}
    anchors = doc.get("anchors") or {}
    body = doc.get("body") or {}
    _check_keys("room", room, {"width", "height"})
    _check_keys("anchors", anchors, {"count", "layout", "positions"})
    _check_keys("body", body, {"count", "radius", "wall_clearance", "points"})
    if anchors.get("layout", "perimeter") != "perimeter" and "positions" not in anchors:
        raise ConfigurationError("anchor layout must be 'perimeter' or explicit positions")
    defaults = SceneConfig()
    kwargs = dict(
        room_width=float(room.get("width", defaults.room_width)),
        room_height=float(room.get("height", defaults.room_height)),
        n_anchors=int(anchors.get("count", defaults.n_anchors)),
        n_landmarks=int(body.get("count", defaults.n_landmarks)),
        body_radius=float(body.get("radius", defaults.body_radius)),
        wall_clearance=float(body.get("wall_clearance", defaults.wall_clearance)),
    )
    if "positions" in anchors:
        kwargs["anchor_positions"] = _points_matrix(anchors["positions"], "anchor positions")
        kwargs["n_anchors"] = kwargs["anchor_positions"].shape[1]
    if "points" in body:
        kwargs["body_points"] = _points_matrix(body["points"], "body points")
        kwargs["n_landmarks"] = kwargs["body_points"].shape[1]
    return SceneConfig(**kwargs)


def load_scenario(path) -> ExperimentConfig:
    """Load a scenario file into an ExperimentConfig.

    Raises
    ------
    ConfigurationError
        On malformed YAML, unknown keys, or invalid values.
    OSError
        If the file cannot be read.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"scenario file is not valid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario file must contain a mapping")
    _check_keys("top level", doc, _SECTIONS)

    scene = _parse_scene(doc)

    noise = doc.get("noise") or {}
    _check_keys("noise", noise, {"sigma", "zeta_theta_degrees", "rho", "tt_noisy"})
    if "zeta_theta_degrees" in noise and "rho" in noise:
        raise ConfigurationError("give zeta_theta_degrees or rho, not both")
    sigma = noise.get("sigma", list(DEFAULT_SIGMA_GRID))
    sigma_grid = tuple(float(s) for s in np.atleast_1d(sigma))
    zeta = DEFAULT_ZETA_THETA
    rho = None
    if "rho" in noise:
        rho = float(noise["rho"])
        zeta = None
    elif "zeta_theta_degrees" in noise:
        zeta = float(np.deg2rad(float(noise["zeta_theta_degrees"])))

    exp = doc.get("experiment") or {}
    _check_keys("experiment", exp,
                {"trials", "methods", "master_seed", "fixed_pose", "workers", "output"})
    defaults = ExperimentConfig(scene=scene)
    seed = exp.get("master_seed", doc.get("seed", defaults.master_seed))
    methods = exp.get("methods", list(defaults.methods))
    if isinstance(methods, str):
        methods = [methods]
    try:
        return ExperimentConfig(
            scene=scene,
            sigma_grid=sigma_grid,
            zeta_theta=zeta,
            rho=rho,
            tt_noisy=noise.get("tt_noisy", False),
            trials=exp.get("trials", defaults.trials),
            methods=tuple(methods),
            master_seed=seed,
            fixed_pose=exp.get("fixed_pose", False),
            workers=exp.get("workers", 1),
            output_path=exp.get("output"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"invalid scenario value: {exc}") from exc
