"""One benchmark process: a fresh interpreter that sets up and runs a workload.

    python3 benchmark/child.py ROLE WORKLOAD SEED SECONDS SPAWNED_AT [--tiny]

run.py starts it with PYTHONPATH pointing at the checkout's `src`. ROLE is

* `setup`: set up, report the set-up time and exit;
* `measure`: set up, time whole sweeps for SECONDS with tracing off, then
  check the output;
* `trace`: set up, run the tracemalloc pass, time whole sweeps for half of
  SECONDS with spans around every layer, run untraced sweeps with one and
  with two workers for a quarter each, then check the output.

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it started
this interpreter, so set-up time covers interpreter start-up as well. The
last line of standard output is one JSON object for run.py.
"""

import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLE_TRIALS = 24

# spans whose median time is a per-layer metric
LAYER_SPANS = ("geometry.random_scene", "measurements.generate_measurements",
               "edges.build_pair_index", "crlb.compute_fim", "solvers.mds",
               "solvers.smds_full", "solvers.smds_distance_only",
               "procrustes.estimate_pose", "procrustes.fit_alignment")


def set_up(workload: str, seed: int, tiny: bool, spawned_at: float):
    """What a user pays before the first trial: import, scenario, rho, one trial."""
    t0 = time.monotonic()
    import rigidloc as rl
    import_s = time.monotonic() - t0
    expected = os.path.join(ROOT, "src", "rigidloc")
    if os.path.dirname(os.path.abspath(rl.__file__)) != expected:
        raise SystemExit(f"rigidloc was imported from {rl.__file__}, not from {expected}")
    t0 = time.monotonic()
    base = rl.load_scenario(os.path.join(ROOT, workloads.SCENARIO))
    load_ms = 1e3 * (time.monotonic() - t0)
    config = workloads.experiment(base, workload, seed, tiny)
    t0 = time.monotonic()
    config.resolve_rho()
    rho_ms = 1e3 * (time.monotonic() - t0)
    rl.run_experiment(replace(config, trials=1, sigma_grid=config.sigma_grid[:1], workers=1))
    info = {"setup_s": time.monotonic() - spawned_at, "import_s": import_s,
            "load_scenario_ms": load_ms, "zeta_to_rho_ms": rho_ms}
    return rl, config, info


class Sweeps:
    """Whole sweeps of one config, timed, with their CSV texts and counts."""

    def __init__(self, rl, config):
        self.rl = rl
        self.config = config
        self.spans = []  # (start, end) of each sweep, monotonic ns
        self.csv_texts = set()
        self.rows = None
        self.attempted = Counter()
        self.failed = Counter()

    @property
    def seconds(self) -> list:
        return [(t1 - t0) / 1e9 for t0, t1 in self.spans]

    @property
    def trials_per_sweep(self) -> int:
        return self.config.trials * len(self.config.sigma_grid)

    def run_for(self, seconds: float):
        deadline = time.monotonic() + seconds
        while not self.spans or time.monotonic() < deadline:
            t0 = time.monotonic_ns()
            rows = self.rl.run_experiment(self.config)
            self.spans.append((t0, time.monotonic_ns()))
            self.csv_texts.add(self.rl.format_results(rows))
            for r in rows:
                key = f"{r.method}@{r.sigma:g}"
                self.attempted[key] += r.trials
                self.failed[key] += round(r.trials * (1.0 - r.conv_rate))
            self.rows = rows
        return self

    def trials_per_s(self) -> float:
        return self.trials_per_sweep / statistics.median(self.seconds)


def environment(rl):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "rigidloc": rl.__version__}


def checks(rl, config, sweeps, seed: int, tiny: bool, other_workers_texts=None):
    import oracle
    return oracle.run_checks(rl, config, sweeps.rows, sweeps.csv_texts, seed,
                             2 if tiny else ORACLE_TRIALS, other_workers_texts)


def sweep_report(sweeps):
    return {"sweep_s": sweeps.seconds, "trials_per_sweep": sweeps.trials_per_sweep,
            "attempted": dict(sweeps.attempted), "failed": dict(sweeps.failed)}


def measure(rl, config, seconds: float, seed: int, tiny: bool):
    sweeps = Sweeps(rl, config).run_for(seconds)
    ok, details = checks(rl, config, sweeps, seed, tiny)
    usage = resource.getrusage
    return {**sweep_report(sweeps), "checks": ok, "check_details": details,
            "rss_self_mb": usage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "rss_children_mb": usage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def peak_alloc_mb(rl, config, method: str) -> float:
    """Peak bytes allocated during one solve of trial (0, 0), by tracemalloc."""
    import tracemalloc

    import oracle
    scene, meas = oracle.trial_inputs(rl, config, 0, 0)
    solver = rl.SolverConfig(method=method)
    tracemalloc.start()
    try:
        rl.solve_landmarks(meas, scene.anchors, scene.conformation, solver)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def trace(rl, config, setup_info, seconds: float, seed: int, tiny: bool):
    from spans import Recorder

    metrics = {"setup.import_s": setup_info["import_s"],
               "scenario.load_scenario.ms": setup_info["load_scenario_ms"],
               "measurements.zeta_to_rho.ms": setup_info["zeta_to_rho_ms"]}
    for method in config.methods:
        metrics[f"solvers.{method}.peak_alloc_mb"] = peak_alloc_mb(rl, config, method)

    spool = os.path.join(ROOT, ".bench_tmp", f"spans-{os.getpid()}")
    os.makedirs(spool)
    recorder = Recorder(rl, spool)
    recorder.install()
    try:
        traced = Sweeps(rl, config).run_for(seconds / 2)
    finally:
        recorder.uninstall()
        worker_files = recorder.collect_workers()
        shutil.rmtree(spool)
        try:
            os.rmdir(os.path.dirname(spool))
        except OSError:  # another run is still using it
            pass
    serial = Sweeps(rl, replace(config, workers=1)).run_for(seconds / 4)
    parallel = Sweeps(rl, replace(config, workers=workloads.PARALLEL_WORKERS)).run_for(seconds / 4)

    trials = traced.trials_per_sweep * len(traced.spans)
    durations = recorder.durations
    for name in LAYER_SPANS:
        if durations.get(name):
            metrics[f"{name}.us_p50"] = statistics.median(durations[name]) / 1e3
    metrics["edges.build_pair_index.calls_per_trial"] = \
        len(durations.get("edges.build_pair_index", ())) / trials
    if recorder.iterations:
        metrics["solvers.smds_full.iterations_mean"] = statistics.fmean(recorder.iterations)
    metrics["harness.self_us_per_trial"] = recorder.harness_self_ns(traced.spans) / 1e3 / trials
    metrics["harness.workers1.trials_per_s"] = serial.trials_per_s()
    metrics["harness.workers2.trials_per_s"] = parallel.trials_per_s()
    metrics["harness.parallel_speedup"] = parallel.trials_per_s() / serial.trials_per_s()

    spans = {}
    for name, values in sorted(durations.items()):
        entry = {"calls": len(values), "us_p50": statistics.median(values) / 1e3}
        if len(values) >= 1000:
            entry["us_p99"] = statistics.quantiles(values, n=100)[98] / 1e3
        spans[name] = entry
    untraced, other = (parallel, serial) if config.workers > 1 else (serial, parallel)
    traced_us = 1e6 / traced.trials_per_s()
    untraced_us = 1e6 / untraced.trials_per_s()
    detail = {"spans": spans, "absent": recorder.absent, "worker_span_files": worker_files,
              "failures_by_kind": dict(recorder.failures),
              "tracing_overhead_us_per_trial": traced_us - untraced_us,
              "traced_us_per_trial": traced_us, "untraced_us_per_trial": untraced_us}
    ok, details = checks(rl, config, traced, seed, tiny, other.csv_texts)
    ok["repeat_csv_identical"] &= untraced.csv_texts == traced.csv_texts
    return {**sweep_report(traced), "checks": ok, "check_details": details,
            "per_layer": metrics, "trace": detail}


def main(argv):
    role, workload, seed, seconds, spawned_at = argv[:5]
    tiny = "--tiny" in argv[5:]
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    rl, config, setup_info = set_up(workload, seed, tiny, spawned_at)
    result = {"setup": setup_info}
    if role == "measure":
        result.update(measure(rl, config, seconds, seed, tiny))
    elif role == "trace":
        result.update(trace(rl, config, setup_info, seconds, seed, tiny))
    elif role != "setup":
        raise SystemExit(f"unknown role {role!r}")
    result["env"] = environment(rl)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
