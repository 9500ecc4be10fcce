"""The names the package root exports.

The root exports the pipeline a caller needs end to end; everything
else is imported from its submodule. The benchmark scripts reach the
package only through `rl.<name>` on the root, so those names must stay.
"""

import pathlib
import re

import rigidloc

PUBLIC = {
    "ConfigurationError", "DegenerateGeometryError", "NumericalFailureError",
    "SceneConfig", "random_scene",
    "NoiseConfig", "generate_measurements", "rho_to_zeta", "zeta_to_rho",
    "METHODS", "SolverConfig", "solve_landmarks",
    "estimate_pose",
    "compute_fim",
    "ExperimentConfig", "run_experiment", "format_results", "write_results",
    "reference_scene", "load_scenario", "__version__",
}

BENCHMARK_NAMES = {
    "random_scene", "NoiseConfig", "generate_measurements", "solve_landmarks",
    "SolverConfig", "estimate_pose", "run_experiment", "format_results",
    "load_scenario", "DegenerateGeometryError", "NumericalFailureError",
    "__version__",
}

BENCHMARK_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmark"


def test_all_is_the_chosen_small_set():
    assert len(rigidloc.__all__) == len(set(rigidloc.__all__))
    assert set(rigidloc.__all__) == PUBLIC
    assert len(PUBLIC) <= 25


def test_every_public_name_resolves():
    for name in rigidloc.__all__:
        assert hasattr(rigidloc, name), name
    namespace = {}
    exec("from rigidloc import *", namespace)
    assert PUBLIC <= namespace.keys()


def test_benchmark_names_are_public():
    assert BENCHMARK_NAMES <= PUBLIC
    # every rl.<name> the benchmark scripts read, found in their source
    read = set()
    for path in BENCHMARK_DIR.glob("*.py"):
        read |= set(re.findall(r"(?<!\w)_?rl\.(\w+)", path.read_text(encoding="utf-8")))
    assert "DegenerateGeometryError" in read  # read as self._rl.<name>
    assert read - {"__file__"} <= BENCHMARK_NAMES
