"""Rigid body localization from range and bearing measurements.

Estimates the landmark positions, rotation, and translation of a rigid
body observed by fixed anchors, fusing pairwise distances and angles of
arrival into complex edges, with classic MDS and a
distance-only bootstrap as baselines, plus Cramer-Rao bounds and a
Monte Carlo benchmark harness.
"""

from .crlb import FisherInformation, compute_fim, crlb_curve
from .edges import EdgeSet, PairIndex, build_pair_index, edges_from_coordinates
from .errors import (ConfigurationError, DegenerateGeometryError,
                     NumericalFailureError)
from .geometry import (AnchorSet, Conformation, Pose, RotationMatrix, Scene,
                       SceneConfig, apply_pose, random_scene,
                       rotation_from_angle)
from .harness import (DEFAULT_SIGMA_GRID, DEFAULT_ZETA_THETA, CSV_HEADER,
                      ExperimentConfig, ResultRow, format_results,
                      reference_scene, run_experiment, write_results)
from .measurements import (MeasurementSet, NoiseConfig, generate_measurements,
                           rho_to_zeta, sample_angle, sample_distance,
                           wrap_angle, zeta_to_rho)
from .procrustes import (PoseEstimate, estimate_pose, fit_alignment,
                         rotation_mse, weighted_means)
from .scenario import load_scenario
from .solvers import (METHODS, LandmarkEstimate, SolverConfig, classic_mds,
                      coordinates_from_edges, embed_distances,
                      reconstruct_angles, solve_landmarks)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet", "Conformation", "ConfigurationError", "CSV_HEADER",
    "DEFAULT_SIGMA_GRID", "DEFAULT_ZETA_THETA", "DegenerateGeometryError",
    "EdgeSet", "ExperimentConfig", "FisherInformation", "LandmarkEstimate",
    "METHODS", "MeasurementSet", "NoiseConfig", "NumericalFailureError",
    "PairIndex", "Pose", "PoseEstimate", "ResultRow", "RotationMatrix",
    "Scene", "SceneConfig", "SolverConfig", "apply_pose", "build_pair_index",
    "classic_mds", "compute_fim", "coordinates_from_edges", "crlb_curve",
    "edges_from_coordinates", "embed_distances", "estimate_pose",
    "fit_alignment", "format_results", "generate_measurements",
    "load_scenario", "random_scene", "reconstruct_angles", "reference_scene",
    "rho_to_zeta", "rotation_from_angle", "rotation_mse", "run_experiment",
    "sample_angle", "sample_distance", "solve_landmarks", "weighted_means",
    "wrap_angle", "write_results", "zeta_to_rho", "__version__",
]
