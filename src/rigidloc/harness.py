"""Monte Carlo benchmark harness.

Sweeps the range noise level over a grid, runs K independent trials per
grid point, and reports per-method translation and rotation MSE next to
the matching Cramer-Rao bounds.

Every trial k of grid point g draws its randomness from an independent
stream seeded by (master_seed, g, k), so results are bit-identical for
a given seed no matter how trials are distributed over workers. Within
a trial, all methods see the same scene and the same measurements.
Each stream is the generator `SeedSequence(master_seed, spawn_key=(g, k))`
gives. In `trial_streams` numpy mixes the master seed, once per chunk,
and the harness mixes the key words of the whole chunk in one pass;
`trial_inputs` draws the scene and measurements of any run of trials,
one trial included.

A sweep numbers its trials i = g * K + k across the grid and runs them
as one list of balanced chunks, in order in this process or through one
process pool. A chunk may span grid points; each of its trials keeps
its own sigma. Each chunk runs as one batch on stacked arrays, through
the same public functions a single trial uses: `random_scene`,
`generate_measurements`, `compute_fim`, `solve_landmarks` and
`estimate_pose` each take one pass over the batch. Only the draws loop
over trials, each from its own stream and in the order of a single
trial, so the batch reproduces the one-trial results bit for bit and no
trial depends on which others share its chunk.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .crlb import compute_fim
from .errors import ConfigurationError
from .geometry import Scene, SceneConfig, _is_int, _is_real, random_scene
from .measurements import NoiseConfig, _has_finite_square, generate_measurements
from .procrustes import estimate_pose, pose_errors
from .solvers import METHODS, SolverConfig, solve_landmarks

log = logging.getLogger(__name__)

DEFAULT_SIGMA_GRID = tuple(float(s) for s in np.geomspace(0.1, 2.0, 8))
# zeta_to_rho(np.deg2rad(8.0)) bit for bit: an 8 degree 90th-percentile half-width
DEFAULT_RHO = 139.2547123458694

CSV_HEADER = "method,sigma,mse_t,rmse_t,mse_Q,conv_rate,crlb_t,crlb_Q,trials"

# spawn key reserved for the fixed-pose reference scene; grid indices
# used as spawn keys stay far below it
_SCENE_STREAM_KEY = 0xFFFFFFFF


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run; bearing noise is the concentration rho."""

    scene: SceneConfig = SceneConfig()
    sigma_grid: tuple = DEFAULT_SIGMA_GRID
    rho: float = DEFAULT_RHO
    tt_noisy: bool = False
    trials: int = 1000
    methods: tuple = METHODS
    master_seed: int = 12345
    fixed_pose: bool = False
    workers: int = 1
    output_path: str | None = None

    def __post_init__(self):
        grid = self.sigma_grid
        if isinstance(grid, str) or not isinstance(grid, Iterable):
            raise ConfigurationError(f"sigma grid must be a sequence of numbers, not {grid!r}")
        grid = tuple(grid)
        if not grid or any(not _is_real(s) or s <= 0 or not _has_finite_square(s) for s in grid):
            raise ConfigurationError(
                "sigma grid entries must be positive numbers with a finite square "
                "(at most about 1.34e154)")
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in grid))
        methods = tuple(self.methods)
        if not methods or any(m not in METHODS for m in methods):
            raise ConfigurationError(f"methods must be a subset of {METHODS}")
        if len(set(methods)) < len(methods):
            raise ConfigurationError("methods must not repeat")
        object.__setattr__(self, "methods", methods)
        for name in ("trials", "workers", "master_seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigurationError(f"{name} must be an integer")
        for name in ("tt_noisy", "fixed_pose"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ConfigurationError(f"{name} must be true or false")
        if self.trials < 1:
            raise ConfigurationError("need at least one trial")
        if self.workers < 1:
            raise ConfigurationError("need at least one worker")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be nonnegative")
        # checked here, not per trial: the FIM needs a finite rho
        if not _is_real(self.rho) or not np.isfinite(self.rho) or self.rho < 0:
            raise ConfigurationError("rho must be a finite nonnegative number")
        if self.output_path is not None and (
                not isinstance(self.output_path, (str, os.PathLike)) or self.output_path == ""):
            raise ConfigurationError(f"output must be a file path, not {self.output_path!r}")

    def resolve_rho(self) -> float:
        """`rho` as a float; kept only for the benchmark, which calls it."""
        return float(self.rho)


@dataclass(frozen=True)
class ResultRow:
    """Aggregated metrics for one (method, sigma) grid point.

    Failed trials are excluded from the error averages but show up in
    `conv_rate`; a grid point where more than half of them failed is
    logged as a warning. The optional trial arrays are populated only
    when the experiment is run with `keep_trial_errors`.
    """

    method: str
    sigma: float
    mse_t: float
    rmse_t: float
    mse_q: float
    conv_rate: float
    crlb_t: float
    crlb_q: float
    trials: int
    trial_err_t: np.ndarray | None = field(default=None, repr=False, compare=False)
    trial_err_q: np.ndarray | None = field(default=None, repr=False, compare=False)
    trial_ok: np.ndarray | None = field(default=None, repr=False, compare=False)


# numpy's SeedSequence constants, named as in numpy/random/bit_generator.pyx;
# NEP 19 keeps SeedSequence and the PCG64 streams it seeds stable
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The n hash constants init * mult**i modulo 2**32, as uint32."""
    return np.array([init * pow(mult, i, 1 << 32) & MASK32 for i in range(n)], dtype=np.uint32)


# PCG64 seeds itself from 4 uint64 words: 8 uint32 words hashed off the pool
_STATE_CONSTS = _hash_consts(INIT_B, MULT_B, 2 * _POOL_SIZE)


def _hashmix(value, const, mult=MULT_A):
    """SeedSequence's hash of uint32 words with their hash constants."""
    value = (value ^ const) * (const * mult)
    return value ^ value >> XSHIFT


def _mix(x, y):
    """SeedSequence's mix of hashed uint32 words into pool words."""
    r = MIX_MULT_L * x - MIX_MULT_R * y
    return r ^ r >> XSHIFT


def _seed_words(master_seed: int, keys: np.ndarray) -> np.ndarray:
    """Row i: SeedSequence(master_seed, spawn_key=keys[i]).generate_state(4, np.uint64).

    `keys` is an (n, w) uint32 array; the result is (n, 4) uint64. A
    spawn key pads the seed to the pool size, so the master seed is mixed
    through the whole pool before any key word enters: that pool is
    `SeedSequence(master_seed).pool`, the same for every key, and numpy
    mixes it. Each key word is then mixed into every pool word in turn;
    the constants of those steps depend on no value, so each word is one
    pass over all n keys.
    """
    pool = np.random.SeedSequence(master_seed).pool
    # the seed took a hash per pool word and one per ordered pair of pool
    # words, _POOL_SIZE**2 in all, and _POOL_SIZE per seed word beyond the pool
    used = _POOL_SIZE * max(_POOL_SIZE, -(-master_seed.bit_length() // 32))
    n_words = keys.shape[1]
    consts = _hash_consts(INIT_A, MULT_A, used + n_words * _POOL_SIZE)[used:]
    for j, const in enumerate(consts.reshape(n_words, _POOL_SIZE)):
        pool = _mix(pool, _hashmix(keys[:, j, None], const))
    # generate_state cycles through the pool
    state = _hashmix(np.tile(pool, 2), _STATE_CONSTS, MULT_B)
    # little-endian word pairs, as generate_state forms its uint64 words
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _KeySeed(ISeedSequence):
    """One key's seed words, handed to PCG64 as its SeedSequence would hand them.

    PCG64 asks for `generate_state(4, np.uint64)` only, once, when seeded.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def trial_streams(config: ExperimentConfig, keys) -> list[np.random.Generator]:
    """A generator per key, seeded by (master_seed, *key); (g, k) is trial k of grid point g.

    Each generator is the one `SeedSequence(master_seed, spawn_key=key)`
    gives, bit for bit: numpy mixes the master seed once, and the key
    words of all keys are mixed in one pass. `keys` is a sequence of
    equal-length integer tuples, or an (n, w) integer array; each key
    word must lie in [0, 2**32).
    """
    words = np.asarray(keys)
    if words.ndim != 2 or not words.shape[1]:
        raise ValueError("keys must be a sequence of nonempty integer tuples of one length")
    # numpy holds integers beyond int64 as floats or objects, all out of range
    if words.dtype.kind not in "iu" or words.size and (words.min() < 0 or words.max() > MASK32):
        raise ValueError("key words must be integers in [0, 2**32)")
    seeds = _seed_words(int(config.master_seed), words.astype(np.uint32))
    return [np.random.Generator(np.random.PCG64(_KeySeed(row))) for row in seeds]


def reference_scene(config: ExperimentConfig) -> Scene:
    """The deterministic scene used by fixed-pose runs and bound curves."""
    return random_scene(config.scene, trial_streams(config, [(_SCENE_STREAM_KEY,)])[0])


# A sweep runs as one list of chunks of trials, each chunk one batch on
# stacked arrays whose largest work arrays, the (chunk, T, T) MDS
# matrices, stay within this many bytes. Every chunk pays a fixed cost,
# 0.5-1 ms at T = 96, and a larger chunk more peak memory: 864 KiB holds
# 12 trials at T = 96 (three 48 x 48 grid points of 4 trials) and 432 at
# T = 16, for 1.1-1.9 MB more peak RSS than 384 KiB. The Gram stack
# stands for all that a trial holds: a chunk's traced peak is 3.3 times
# it at T = 16 and 3.1 times at T = 96, and a test holds it below 4 times
_CHUNK_BYTES = 864 << 10


def _chunk_size(n_nodes: int) -> int:
    return max(1, _CHUNK_BYTES // (8 * n_nodes * n_nodes))


def trial_inputs(config: ExperimentConfig, start: int, stop: int):
    """Scene, noise and measurements of sweep trials [start, stop).

    Trials are numbered i = g * config.trials + k over the whole sweep, so
    a run may span grid points; trial i runs at sigma_grid[g]. It draws
    only from its own stream, seeded by (master_seed, g, k), in the order
    of a single trial (pose, then measurements), so no trial depends on
    which others share its run; trial i alone is [i, i + 1). The scene
    holds one pose per trial, or one shared pose under `fixed_pose`.
    """
    total = len(config.sigma_grid) * config.trials
    if not (_is_int(start) and _is_int(stop) and 0 <= start < stop <= total):
        raise ValueError(f"trials [{start}, {stop}) are not a nonempty integer range within "
                         f"the sweep's [0, {total})")
    g, k = np.divmod(np.arange(start, stop), config.trials)
    noise = NoiseConfig(sigma=np.asarray(config.sigma_grid)[g], rho=config.rho,
                        tt_noisy=config.tt_noisy)
    rngs = trial_streams(config, np.stack((g, k), axis=1))
    # a fixed pose is one scene, shared by all trials
    scene = reference_scene(config) if config.fixed_pose else random_scene(config.scene, rngs)
    return scene, noise, generate_measurements(scene, noise, rngs)


def _trial_chunk(config: ExperimentConfig, start: int, stop: int):
    """Trials [start, stop) of the sweep as one batch; returns per-trial arrays."""
    scene, noise, meas = trial_inputs(config, start, stop)
    fim = compute_fim(scene, noise)
    n = stop - start
    err_t = np.full((len(config.methods), n), np.nan)
    err_q = np.full((len(config.methods), n), np.nan)
    ok = np.zeros((len(config.methods), n), dtype=bool)
    for j, method in enumerate(config.methods):
        est = solve_landmarks(meas, scene.anchors, scene.conformation, SolverConfig(method))
        with np.errstate(invalid="ignore"):  # failed trials may carry NaN
            pose = estimate_pose(est.coordinates, scene.conformation)
            e_t, e_q = pose_errors(pose, scene.pose)
        # a trial counts when its solver succeeded and its pose fit is not NaN
        ok[j] = (est.status == 0) & ~np.isnan(pose.translation[:, 0])
        err_t[j, ok[j]] = e_t[ok[j]]
        err_q[j, ok[j]] = e_q[ok[j]]
    return err_t, err_q, ok, fim.crlb_t, fim.crlb_q


def run_experiment(config: ExperimentConfig,
                   keep_trial_errors: bool = False) -> list[ResultRow]:
    """Run the full sweep and aggregate one ResultRow per (method, sigma).

    Parameters
    ----------
    config : ExperimentConfig
    keep_trial_errors : bool
        Attach the raw per-trial squared errors to each row (memory
        permitting); used for standard-error analysis.

    Returns
    -------
    list of ResultRow
        Grouped by grid point, methods in configured order.
    """
    trials = config.trials
    total = len(config.sigma_grid) * trials
    # balanced chunks within the size bound, and at least one per worker
    size = _chunk_size(config.scene.anchors.n_anchors + config.scene.conformation.n_points)
    n = min(total, max(-(-total // size), config.workers))
    cuts = [total * j // n for j in range(n + 1)]
    workers = min(config.workers, n)
    if workers > 1:
        # imported here: the pool's modules cost a one-worker run start-up
        # time and memory for nothing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_trial_chunk, [config] * n, cuts[:-1], cuts[1:]))
    else:
        parts = [_trial_chunk(config, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    # in chunk order, trial k of grid point g sits at index g * trials + k
    err_t, err_q, ok, crlb_t, crlb_q = (np.concatenate([p[i] for p in parts], axis=-1)
                                        for i in range(5))
    rows: list[ResultRow] = []
    for g, sigma in enumerate(config.sigma_grid):
        point = slice(g * trials, (g + 1) * trials)
        mean_crlb_t = float(np.mean(crlb_t[point]))
        mean_crlb_q = float(np.mean(crlb_q[point]))
        for j, method in enumerate(config.methods):
            sel = ok[j, point]
            n_ok = int(sel.sum())
            if n_ok:
                mse_t = float(np.mean(err_t[j, point][sel]))
                mse_q = float(np.mean(err_q[j, point][sel]))
            else:
                mse_t = mse_q = float("nan")
            conv = n_ok / trials
            if conv < 0.5:
                log.warning("method %s at sigma=%g: only %d/%d trials succeeded",
                            method, sigma, n_ok, trials)
            rows.append(ResultRow(
                method=method, sigma=float(sigma),
                mse_t=mse_t, rmse_t=float(np.sqrt(mse_t)), mse_q=mse_q,
                conv_rate=conv, crlb_t=mean_crlb_t, crlb_q=mean_crlb_q,
                trials=trials,
                trial_err_t=err_t[j, point].copy() if keep_trial_errors else None,
                trial_err_q=err_q[j, point].copy() if keep_trial_errors else None,
                trial_ok=sel.copy() if keep_trial_errors else None,
            ))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def format_results(rows: list[ResultRow]) -> str:
    """Render rows as CSV text with the fixed header and 9-digit floats."""
    if not rows:
        raise ValueError("no result rows to write")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.method, _fmt(r.sigma), _fmt(r.mse_t), _fmt(r.rmse_t),
            _fmt(r.mse_q), _fmt(r.conv_rate), _fmt(r.crlb_t), _fmt(r.crlb_q),
            str(r.trials),
        ]))
    return "\n".join(lines) + "\n"


def write_results(rows: list[ResultRow], path) -> None:
    """Write rows to `path` as CSV. Refuses an empty row list."""
    text = format_results(rows)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
