"""Scenario file parsing.

A scenario is a YAML mapping with up to five sections, all optional;
missing values fall back to the defaults of the corresponding config
dataclasses (a 10m x 10m room, 8 perimeter anchors, an 8-point polygon
body, the standard sigma grid, 1000 trials). Values reach the configs
as written, and the configs check them: a count must be an integer, a
length a finite number, a coordinate a number and a flag a boolean.
The loader only wraps a scalar sigma or a single method name in a list,
and turns a numeric zeta_theta_degrees into the concentration rho.

    room:
      width: 10.0
      height: 10.0
    anchors:
      count: 8                   # on the perimeter, the one layout; or
      layout: perimeter          # instead, positions: [[x, y], ...]
    body:
      count: 8                   # a regular polygon; or instead,
      radius: 1.0                # body-frame points: [[x, y], ...]
      wall_clearance: 3.0
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
      output: results.csv        # the sweep's CSV; crlb writes only to --out

Each scene setting is given one way: explicit anchor `positions` stand
alone, without `count` or `layout`, and explicit body `points` without
`count` or `radius`. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import numpy as np
import yaml

from .errors import ConfigurationError
from .geometry import SceneConfig, _is_real
from .harness import ExperimentConfig
from .measurements import zeta_to_rho

_SECTIONS = {"room", "anchors", "body", "noise", "experiment"}


def _check_keys(section: str, mapping: dict, allowed: set):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in scenario section {section!r}")


def _points_matrix(rows, what: str) -> np.ndarray:
    # checked before converting: "0" and true are not coordinates
    if not isinstance(rows, list) or not rows or not all(
            isinstance(row, list) and len(row) == 2 and all(map(_is_real, row)) for row in rows):
        raise ConfigurationError(f"{what} must be a list of [x, y] number pairs")
    return np.asarray(rows, dtype=float).T


def _fields(mapping: dict, names: dict) -> dict:
    """The entries of `mapping` present in `names`, keyed by field name."""
    return {names[key]: value for key, value in mapping.items() if key in names}


def _parse_scene(doc: dict) -> SceneConfig:
    room = doc.get("room") or {}
    anchors = doc.get("anchors") or {}
    body = doc.get("body") or {}
    _check_keys("room", room, {"width", "height"})
    _check_keys("anchors", anchors, {"count", "layout", "positions"})
    _check_keys("body", body, {"count", "radius", "wall_clearance", "points"})
    if "layout" in anchors and "positions" in anchors:
        raise ConfigurationError("give anchors.layout or anchors.positions, not both")
    if anchors.get("layout", "perimeter") != "perimeter":
        raise ConfigurationError("anchor layout must be 'perimeter' or explicit positions")
    kwargs = {**_fields(room, {"width": "room_width", "height": "room_height"}),
              **_fields(anchors, {"count": "n_anchors"}),
              **_fields(body, {"count": "n_landmarks", "radius": "body_radius",
                               "wall_clearance": "wall_clearance"})}
    if "positions" in anchors:
        kwargs["anchor_positions"] = _points_matrix(anchors["positions"], "anchor positions")
    if "points" in body:
        kwargs["body_points"] = _points_matrix(body["points"], "body points")
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
    noise = doc.get("noise") or {}
    _check_keys("noise", noise, {"sigma", "zeta_theta_degrees", "rho", "tt_noisy"})
    if "zeta_theta_degrees" in noise and "rho" in noise:
        raise ConfigurationError("give zeta_theta_degrees or rho, not both")
    exp = doc.get("experiment") or {}
    _check_keys("experiment", exp,
                {"trials", "methods", "master_seed", "fixed_pose", "workers", "output"})

    try:
        kwargs = {**_fields(noise, {"rho": "rho", "tt_noisy": "tt_noisy"}),
                  **_fields(exp, {"trials": "trials", "master_seed": "master_seed",
                                  "fixed_pose": "fixed_pose", "workers": "workers",
                                  "output": "output_path"}),
                  "scene": _parse_scene(doc)}
        if "sigma" in noise:
            sigma = noise["sigma"]
            kwargs["sigma_grid"] = sigma if isinstance(sigma, list) else [sigma]
        if "zeta_theta_degrees" in noise:
            zeta = noise["zeta_theta_degrees"]
            if not _is_real(zeta):
                raise ConfigurationError("zeta_theta_degrees must be a number")
            kwargs["rho"] = zeta_to_rho(np.deg2rad(zeta))
        if "methods" in exp:
            methods = exp["methods"]
            kwargs["methods"] = [methods] if isinstance(methods, str) else methods
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"invalid scenario value: {exc}") from exc
