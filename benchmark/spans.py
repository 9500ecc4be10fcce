"""Spans around rigidloc's layer functions, recorded from outside the program.

`Recorder.install` replaces the names each layer looks up (for example
`rigidloc.harness.solve_landmarks` and `rigidloc.solvers.classic_mds`) with
wrappers that time every call. Spans are kept in memory: one duration list
per span name, plus the intervals of the calls the harness makes itself,
from which the harness's self time follows.

Pool workers are forked from the traced process, so they inherit the
wrappers. Each worker starts with empty buffers and writes them to a spool
directory when it exits; `collect_workers` merges them back. All times are
CLOCK_MONOTONIC nanoseconds, which every process on the machine shares.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict
from multiprocessing import util as mp_util

# (module whose namespace is patched, name looked up there, called by the
# harness itself). Names missing from the program are reported as absent.
TRACED = (
    ("rigidloc.harness", "random_scene", True),
    ("rigidloc.harness", "generate_measurements", True),
    ("rigidloc.harness", "compute_fim", True),
    ("rigidloc.harness", "solve_landmarks", True),
    ("rigidloc.harness", "estimate_pose", True),
    ("rigidloc.measurements", "build_pair_index", False),
    ("rigidloc.solvers", "classic_mds", False),
    ("rigidloc.solvers", "embed_distances", False),
    ("rigidloc.solvers", "fit_alignment", False),
    ("rigidloc.solvers", "reconstruct_angles", False),
    ("rigidloc.solvers", "coordinates_from_edges", False),
    # the edge-kernel pipeline, which a closed-form solver would delete
    ("rigidloc.solvers", "build_kernel", False),
    ("rigidloc.solvers", "extract_minor", False),
    ("rigidloc.solvers", "turbo_init", False),
    ("rigidloc.solvers", "turbo_iterate", False),
)


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _solver_method(args, kwargs) -> str:
    config = args[3] if len(args) > 3 else kwargs.get("config")
    return getattr(config, "method", "default")


class Recorder:
    """Span buffers of one process, and the wrappers that fill them."""

    def __init__(self, rl, spool_dir: str):
        self._rl = rl
        self._spool_dir = spool_dir
        self._saved = []
        self.durations = defaultdict(list)   # span name -> [ns]
        self.harness_calls = []              # (start, end) of calls made by the harness
        self.failures = Counter()
        self.iterations = []                 # smds_full iterations_used, when it exists
        self.absent = []
        self._active = False

    def install(self):
        for module_name, attr, by_harness in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, by_harness))
        self._active = True
        mp_util.register_after_fork(self, Recorder._start_worker)

    def uninstall(self):
        self._active = False
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, by_harness: bool):
        name = _span_name(fn)
        is_solver = fn.__name__ == "solve_landmarks"
        is_pose = fn.__name__ == "estimate_pose"
        failure_kinds = (self._rl.DegenerateGeometryError, self._rl.NumericalFailureError)

        def traced(*args, **kwargs):
            span = f"solvers.{_solver_method(args, kwargs)}" if is_solver else name
            t0 = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            except failure_kinds as exc:
                self.failures[type(exc).__name__] += 1
                raise
            finally:
                t1 = time.monotonic_ns()
                self.durations[span].append(t1 - t0)
                if by_harness:
                    self.harness_calls.append((t0, t1))
            if is_solver:
                if not getattr(result, "converged", True):
                    self.failures["not_converged"] += 1
                if span == "solvers.smds_full" and hasattr(result, "iterations_used"):
                    self.iterations.append(result.iterations_used)
            elif is_pose and getattr(result, "ambiguous", False):
                self.failures["ambiguous_rotation"] += 1
            return result

        return traced

    def _start_worker(self):
        # runs in a forked pool worker: drop the parent's spans, dump ours at exit
        if not self._active:
            return
        for values in self.durations.values():
            values.clear()
        self.harness_calls.clear()
        self.failures.clear()
        self.iterations.clear()
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self):
        path = os.path.join(self._spool_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"durations": self.durations, "harness_calls": self.harness_calls,
                       "failures": self.failures, "iterations": self.iterations}, fh)

    def collect_workers(self) -> int:
        """Merge and delete the spans pool workers wrote; returns their number."""
        files = sorted(f for f in os.listdir(self._spool_dir) if f.startswith("worker-"))
        for fname in files:
            path = os.path.join(self._spool_dir, fname)
            with open(path, encoding="ascii") as fh:
                data = json.load(fh)
            os.remove(path)
            for name, values in data["durations"].items():
                self.durations[name].extend(values)
            self.harness_calls.extend(tuple(c) for c in data["harness_calls"])
            self.failures.update(data["failures"])
            self.iterations.extend(data["iterations"])
        return len(files)

    def harness_self_ns(self, run_spans) -> int:
        """Total time of `run_spans` not covered by any call the harness made."""
        covered = 0
        end = None
        for t0, t1 in sorted(self.harness_calls):
            if end is None or t0 > end:
                covered += t1 - t0
                end = t1
            elif t1 > end:
                covered += t1 - end
                end = t1
        return sum(t1 - t0 for t0, t1 in run_spans) - covered
