"""Self-test of the benchmark: every workload at a tiny size, and the oracle.

    python3 benchmark/selftest.py

Runs run.py on each workload with two trials per grid point (one at
M = N = 48), once with tracing off and once with it on. Each report must
carry every metric BENCHMARK.json names for that mode, with its unit, and
pass its output checks. Then the oracle must accept the program's errors
for a trial and reject them once the pose is moved by 1e-6 m or turned by
1e-6 rad. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402


def check(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_workloads(spec):
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=300)
            check(out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}: "
                  f"{out.stderr[-500:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"], f"{workload} trace={trace}: output checks failed")
            check(result["attempted"] >= 1, f"{workload}: nothing attempted")
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                check(got is not None, f"{workload} trace={trace}: no {metric['name']}")
                check(got["unit"] == metric["unit"], f"{metric['name']}: unit {got['unit']}")
                check(np.isfinite(got["value"]), f"{metric['name']}: {got['value']}")
            print(f"ok  {workload} trace={trace}: {len(result['metrics'])} metrics")


def oracle_rejects_perturbed_pose():
    import rigidloc as rl

    base = rl.load_scenario(os.path.join(ROOT, workloads.SCENARIO))
    config = workloads.experiment(base, "sweep_default", seed=7, tiny=True)
    rows = rl.run_experiment(config, keep_trial_errors=True)
    scene, meas = oracle.trial_inputs(rl, config, 0, 0)
    for j, method in enumerate(config.methods):
        theirs = (rows[j].trial_err_t[0], rows[j].trial_err_q[0])
        landmarks = oracle.oracle_landmarks(scene, meas, method)
        centre = landmarks.mean()
        cases = {"unperturbed": landmarks,
                 "moved 1e-6 m": landmarks + 1e-6,
                 "turned 1e-6 rad": centre + (landmarks - centre) * np.exp(1e-6j)}
        for label, points in cases.items():
            ours = oracle.pose_errors(points, scene)
            accepted = all(oracle.agrees(a, b) for a, b in zip(ours, theirs))
            check(accepted == (label == "unperturbed"),
                  f"oracle {'rejected' if not accepted else 'accepted'} {method} {label}")
        print(f"ok  oracle accepts {method} and rejects it moved or turned")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    oracle_rejects_perturbed_pose()
    run_workloads(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
