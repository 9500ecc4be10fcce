"""Rigid body localization from range and bearing measurements.

Estimates the landmark positions, rotation, and translation of a rigid
body observed by fixed anchors, fusing pairwise distances and angles of
arrival into complex edges, with classic MDS and a
distance-only bootstrap as baselines, plus Cramer-Rao bounds and a
Monte Carlo benchmark harness.

The package root exports the pipeline a caller needs end to end; the
building blocks (pose and scene types, the pair index, the samplers)
are imported from their submodules.
"""

from .crlb import compute_fim
from .errors import (ConfigurationError, DegenerateGeometryError,
                     NumericalFailureError)
from .geometry import SceneConfig, random_scene
from .harness import (ExperimentConfig, format_results, reference_scene,
                      run_experiment, write_results)
from .measurements import NoiseConfig, generate_measurements, rho_to_zeta, zeta_to_rho
from .procrustes import estimate_pose
from .scenario import load_scenario
from .solvers import METHODS, SolverConfig, solve_landmarks

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DegenerateGeometryError", "ExperimentConfig",
    "METHODS", "NoiseConfig", "NumericalFailureError", "SceneConfig",
    "SolverConfig", "compute_fim", "estimate_pose", "format_results",
    "generate_measurements", "load_scenario", "random_scene",
    "reference_scene", "rho_to_zeta", "run_experiment",
    "solve_landmarks", "write_results", "zeta_to_rho", "__version__",
]
