"""The benchmark's workloads: which Monte Carlo sweep each one runs.

Every workload starts from the shipped default scenario, so set-up time
always includes parsing it, and changes only what the workload is about.
The workload seed becomes the experiment's master seed; the program sees
nothing else of it.
"""

from __future__ import annotations

from dataclasses import replace

SCENARIO = "demos/scenario_default.yaml"

# Trials per grid point. The default and parallel sweeps must share it, so
# their CSVs can be compared byte for byte. 25 trials x 8 sigma values is
# about 0.13 s with one worker and about 1 s with two on a 2-core machine;
# 4 trials x 3 sigma values at M = N = 48 is about 0.6 s. Either way a run
# times many whole sweeps and reports their median.
DEFAULT_TRIALS = 25
LARGE_TRIALS = 4
LARGE_SIZE = 48
LARGE_SIGMA_GRID = (0.1, 0.5, 2.0)
PARALLEL_WORKERS = 2

# sweep_parallel runs on demand only and is not listed in BENCHMARK.json: its
# trials_per_s spreads by about 12 % between runs (README), too much for a
# bound that also guards the other workloads. Every traced run still times
# the same inputs with one and with two workers.
WORKLOADS = {
    "sweep_default": "the shipped 8x8 scenario with one worker: per-trial "
                     "overhead of every module dominates",
    "sweep_large": "M = N = 48 with one worker: the SMDS edge kernel takes "
                   "over 95 % of each trial and sets the peak memory",
    "sweep_parallel": "the default sweep with two workers: the process pool "
                      "path, with two processes competing for BLAS and cores",
}


def experiment(base, workload: str, seed: int, tiny: bool = False):
    """The ExperimentConfig a workload runs, built from the loaded scenario.

    `tiny` shrinks the trial count for the benchmark's self-test only.
    """
    if workload == "sweep_large":
        scene = replace(base.scene, n_anchors=LARGE_SIZE, n_landmarks=LARGE_SIZE)
        return replace(base, scene=scene, sigma_grid=LARGE_SIGMA_GRID,
                       trials=1 if tiny else LARGE_TRIALS, master_seed=seed,
                       workers=1, output_path=None)
    workers = PARALLEL_WORKERS if workload == "sweep_parallel" else 1
    return replace(base, trials=2 if tiny else DEFAULT_TRIALS, master_seed=seed,
                   workers=workers, output_path=None)
