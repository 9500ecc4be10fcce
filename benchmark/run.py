"""Run one workload of the rigidloc Monte Carlo benchmark and print its metrics.

    python3 benchmark/run.py --workload sweep_default --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its `src`. With `--trace 0` the run starts
SETUP_SAMPLES fresh interpreters that only set up, then one that sets up,
times whole sweeps for `--seconds` and checks the output; it reports the
end-to-end metrics. With `--trace 1` one fresh interpreter runs the traced
pass and reports the per-layer metrics. Metric names and units come from
BENCHMARK.json beside `benchmark/`. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

Every interpreter starts without OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS, so BLAS runs at the library default users get.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(role: str, args, deadline: float) -> dict:
    """Start child.py in a fresh interpreter and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail(f"no time left for the {role} process")
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), role, args.workload,
           str(args.seed), str(args.seconds), repr(spawned_at)]
    if args.tiny:
        cmd.append("--tiny")
    # a new process group, so a timeout also ends the pool workers it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"the {role} process did not finish in time")
    if proc.returncode != 0:
        fail(f"the {role} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; a parent repository is not ours
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def tail_percentile(values):
    """Highest of p99, p90, p75 with at least ten samples beyond it, else None."""
    ordered = sorted(values)
    for q in (0.99, 0.90, 0.75):
        if len(ordered) * (1.0 - q) >= 10:
            return q, ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return None


def describe_sweeps(report) -> str:
    times = report["sweep_s"]
    text = (f"median sweep {statistics.median(times):.4f} s over {len(times)} sweeps "
            f"of {report['trials_per_sweep']} trials")
    tail = tail_percentile(times)
    if tail:
        text += f", p{round(tail[0] * 100)} {tail[1]:.4f} s"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few trials per sweep, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    for needed in ("src/rigidloc/__init__.py", "demos/scenario_default.yaml", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing from {ROOT}; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {WORKLOADS[args.workload]}")
    values = {}
    if args.trace:
        report = run_child("trace", args, deadline)
        wanted = spec["per_layer"]
        values.update(report["per_layer"])
        print("traced " + describe_sweeps(report))
        print("trace " + json.dumps(report["trace"]))
    else:
        setups = [run_child("setup", args, deadline)["setup"]
                  for _ in range(0 if args.tiny else SETUP_SAMPLES)]
        report = run_child("measure", args, deadline)
        setups.append(report["setup"])
        wanted = spec["end_to_end"]
        setup_times = [s["setup_s"] for s in setups]
        values["setup_s"] = statistics.median(setup_times)
        values["trials_per_s"] = report["trials_per_sweep"] / statistics.median(report["sweep_s"])
        # children that have been waited for, their pool workers included
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(f"setup_s from {len(setups)} fresh interpreters: "
              + ", ".join(f"{t:.4f}" for t in setup_times)
              + f" (import {report['setup']['import_s']:.4f} s)")
        print(describe_sweeps(report))
        print(f"peak RSS of the measuring process {report['rss_self_mb']:.1f} MB, "
              f"of its workers {report['rss_children_mb']:.1f} MB")

    attempted = sum(report["attempted"].values())
    failed = sum(report["failed"].values())
    print("operations (method@sigma attempted/failed): " + ", ".join(
        f"{k} {report['attempted'][k]}/{report['failed'][k]}" for k in report["attempted"]))
    print("checks " + json.dumps({**report["checks"], **report["check_details"]}))
    print("env " + json.dumps({**report["env"], "git_revision": git_revision(),
                               "thread_vars_removed": [v for v in THREAD_VARS if v in os.environ]}))
    metrics = {}
    absent = []
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            absent.append(m["name"])
    if absent:
        print("absent " + json.dumps(absent))
    print(json.dumps({"correct": all(report["checks"].values()), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
