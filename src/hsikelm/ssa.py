"""Sparrow-style swarm optimizer with producer, joiner, and scout roles.

One iteration proposes candidate positions role by role, evaluates them,
and then applies greedy replacement: an individual's retained position is
swapped for its candidate only when the candidate's fitness is strictly
better. The retained set therefore only improves, so the best-so-far
trace is non-increasing.

Evaluation order per iteration: the producers' candidates are scored
first, since the joiners gather at the best of them; the joiners and the
scouts then both move, and their rows are scored together in one pass. A
joiner row that a scout takes over is scored once, with the scout's
candidate; the joiner candidate it replaced is never evaluated. Inside a
pass the rows are scored side by side, one thread per CPU
(``batch_fitness``); the fitness values, and which failing row ends the
search, are read in row order, so neither depends on the thread count.

Randomness contract: a master seed plus a (iteration, role) counter
scheme select an independent substream per role per iteration; inside a
role, draws happen in fitness-rank order before any objective evaluation
is dispatched. Draw order per role:

* producers: one warning level R2, then per producer either one U(0,1)
  step factor (R2 < ST) or one N(0,1) offset (R2 >= ST);
* joiners: per worse-half joiner one N(0,1) scale; per better-half
  joiner one d-vector of +-1 signs;
* scouts: one permutation picking the scouts, then per scout either a
  d-vector of N(0,1) steps (worse than the global best) or one U(-1,1)
  step (at the global best).
"""

from __future__ import annotations

import functools
import mmap
import os
import queue
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kelm
from .errors import ConfigError, DataError, NumericalError

DELTA = 1e-50
_INIT, _PRODUCERS, _JOINERS, _SCOUTS = 0, 1, 2, 3

DEFAULT_LOG10_C_BOUNDS = (-2.0, 4.0)
DEFAULT_LOG10_GAMMA_BOUNDS = (-3.0, 3.0)


def check_swarm_config(cfg) -> None:
    """Validate the fields every swarm config shares; store the bounds as flat float vectors.

    ``cfg`` is a frozen dataclass with ``lower``, ``upper``, ``pop_size``,
    ``max_iter`` and ``seed``.
    """
    lower = np.asarray(cfg.lower, dtype=np.float64).ravel()
    upper = np.asarray(cfg.upper, dtype=np.float64).ravel()
    if lower.size == 0 or lower.shape != upper.shape:
        raise ConfigError(f"bounds must be equal-length vectors, got {lower.shape} vs {upper.shape}")
    if np.any(lower > upper):
        raise ConfigError("lower bound exceeds upper bound")
    object.__setattr__(cfg, "lower", lower)
    object.__setattr__(cfg, "upper", upper)
    if cfg.pop_size < 2:
        raise ConfigError(f"pop_size must be >= 2, got {cfg.pop_size}")
    if cfg.max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {cfg.max_iter}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")


@dataclass(frozen=True)
class SsaConfig:
    lower: np.ndarray
    upper: np.ndarray
    pop_size: int = 30
    max_iter: int = 20
    producer_ratio: float = 0.2
    scout_ratio: float = 0.1
    safety_threshold: float = 0.8
    seed: int = 0

    def __post_init__(self):
        check_swarm_config(self)
        if not 0.0 < self.producer_ratio < 1.0:
            raise ConfigError(f"producer_ratio must lie in (0,1), got {self.producer_ratio}")
        if not 0.0 < self.scout_ratio < 1.0:
            raise ConfigError(f"scout_ratio must lie in (0,1), got {self.scout_ratio}")
        if not 0.0 < self.safety_threshold < 1.0:
            raise ConfigError(f"safety_threshold must lie in (0,1), got {self.safety_threshold}")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def producer_count(self) -> int:
        return min(self.pop_size - 1, max(1, round(self.producer_ratio * self.pop_size)))

    @property
    def scout_count(self) -> int:
        return min(self.pop_size, max(1, round(self.scout_ratio * self.pop_size)))


@dataclass
class SsaState:
    """Retained positions/fitness plus the current iteration's candidates."""

    positions: np.ndarray  # (n, d) retained (greedily accepted) positions
    fitness: np.ndarray  # (n,)
    candidates: np.ndarray  # (n, d) proposals for the running iteration
    cand_fitness: np.ndarray  # (n,)
    best_pos: np.ndarray
    best_fit: float
    worst_pos: np.ndarray
    worst_fit: float


def _phase_rng(seed: int, iteration: int, phase: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(iteration, phase)))


def _ranks(state: SsaState) -> np.ndarray:
    return np.argsort(state.fitness, kind="stable")


def _clip(x, cfg: SsaConfig) -> np.ndarray:
    return np.clip(x, cfg.lower, cfg.upper)


def init_state(obj, cfg: SsaConfig) -> SsaState:
    rng = _phase_rng(cfg.seed, 0, _INIT)
    pos = cfg.lower + (cfg.upper - cfg.lower) * rng.uniform(size=(cfg.pop_size, cfg.dim))
    fit = batch_fitness(obj, pos)
    best = int(np.argmin(fit))
    worst = int(np.argmax(fit))
    return SsaState(
        positions=pos,
        fitness=fit,
        candidates=pos.copy(),
        cand_fitness=fit.copy(),
        best_pos=pos[best].copy(),
        best_fit=float(fit[best]),
        worst_pos=pos[worst].copy(),
        worst_fit=float(fit[worst]),
    )


def update_producers(state: SsaState, cfg: SsaConfig, rng) -> np.ndarray:
    """Move the best-ranked fraction: contract multiplicatively while safe,
    otherwise take a shared normal step in every dimension. Returns the
    moved rows."""
    producers = _ranks(state)[: cfg.producer_count]
    r2 = rng.uniform()
    for rank0, i in enumerate(producers):
        c = rank0 + 1
        if r2 < cfg.safety_threshold:
            a = rng.uniform()
            factor = 0.0 if a == 0.0 else np.exp(-c / (a * cfg.max_iter))
            cand = state.positions[i] * factor
        else:
            cand = state.positions[i] + rng.standard_normal()
        state.candidates[i] = _clip(cand, cfg)
    return producers


def update_joiners(state: SsaState, cfg: SsaConfig, rng) -> np.ndarray:
    """Move the remaining ranks: the worse half scatters relative to the
    worst position, the better half gathers at the best producer candidate,
    whose fitness must already be in ``cand_fitness``. Returns the moved rows."""
    order = _ranks(state)
    n, d = state.positions.shape
    producers, joiners = order[: cfg.producer_count], order[cfg.producer_count :]
    best_producer = producers[int(np.argmin(state.cand_fitness[producers]))]
    d_f = state.candidates[best_producer]
    for rank0, i in enumerate(joiners, start=cfg.producer_count):
        c = rank0 + 1
        if c > n / 2:
            q = rng.standard_normal()
            cand = q * np.exp((state.worst_pos - state.positions[i]) / (c * c))
        else:
            signs = rng.integers(0, 2, size=d) * 2 - 1
            step = float(np.abs(state.positions[i] - d_f) @ signs) / d
            cand = d_f + step
        state.candidates[i] = _clip(cand, cfg)
    return joiners


def update_scouts(state: SsaState, cfg: SsaConfig, rng) -> np.ndarray:
    """Move a random subset: anyone worse than the global best jumps toward
    it; the global best itself takes a fitness-scaled step. Returns the
    moved rows."""
    n, d = state.positions.shape
    rows = rng.permutation(n)[: cfg.scout_count]
    for i in rows:
        if state.fitness[i] > state.best_fit:
            v = rng.standard_normal(d)
            cand = state.best_pos + v * np.abs(state.positions[i] - state.best_pos)
        else:
            o = rng.uniform(-1.0, 1.0)
            gap = np.abs(state.positions[i] - state.worst_pos)
            cand = state.positions[i] + o * (gap / ((state.fitness[i] - state.worst_fit) + DELTA))
        state.candidates[i] = _clip(cand, cfg)
    return rows


def greedy_replace(state: SsaState) -> None:
    """Keep each candidate only if it strictly improves, then refresh the
    best-so-far and current-worst trackers."""
    improved = state.cand_fitness < state.fitness
    state.positions[improved] = state.candidates[improved]
    state.fitness[improved] = state.cand_fitness[improved]
    b = int(np.argmin(state.fitness))
    if state.fitness[b] < state.best_fit:
        state.best_fit = float(state.fitness[b])
        state.best_pos = state.positions[b].copy()
    w = int(np.argmax(state.fitness))
    state.worst_fit = float(state.fitness[w])
    state.worst_pos = state.positions[w].copy()


@functools.cache
def _helper_pool() -> ThreadPoolExecutor:
    """Threads that help ``batch_fitness`` callers score rows; idle between batches.

    They live as long as the process: starting threads for each batch costs
    a thread handshake per helper, more than a row of a cheap objective.
    """
    return ThreadPoolExecutor(max_workers=os.cpu_count(), thread_name_prefix="batch_fitness")


def batch_fitness(obj, positions: np.ndarray) -> np.ndarray:
    """Fitness of each row of the (m, d) ``positions``, as a float64 vector.

    ``obj`` takes one position and is called at most once per row. The rows
    run side by side, one worker thread per CPU (at most one per row): the
    calling thread and helpers from a shared pool. So ``obj`` must be safe
    to call from several threads. Each worker takes the next unstarted row,
    in row order, until none is left or a row has failed, i.e. raised or
    returned NaN. All rows before a failed one have then started, and they
    are waited for; the failure of the first failed row in row order is
    raised (NaN as ``NumericalError``), and no later row's result is used.
    Only positions that are passed here are checked: in ``optimize`` a
    joiner candidate that a scout replaces is never evaluated, so a NaN (or
    a ``NumericalError`` raised by ``obj``) that only that candidate would
    give does not end the run.
    """
    rows = len(positions)
    fit = np.empty(rows)
    failures = {}  # row -> exception
    started = running = 0
    changed = threading.Condition()

    def score_rows():
        nonlocal started, running
        while True:
            with changed:
                if failures or started == rows:
                    return
                k = started
                started += 1
                running += 1
            error = None
            try:
                fit[k] = float(obj(positions[k]))
                if np.isnan(fit[k]):
                    raise NumericalError(f"objective returned NaN at position {positions[k].tolist()}")
            except BaseException as e:  # re-raised by the caller
                error = e
            with changed:
                if error is not None:
                    failures[k] = error
                running -= 1
                changed.notify_all()

    # A helper that starts after the caller has taken every row finds none
    # left; the caller waits only for rows that have started, never for a
    # helper to start, so a busy pool cannot hold a batch up. score_rows
    # keeps every row's exception, so the helpers' futures hold none to read.
    for _ in range(min(len(os.sched_getaffinity(0)), rows) - 1):
        _helper_pool().submit(score_rows)
    score_rows()
    with changed:
        changed.wait_for(lambda: running == 0)
    if failures:
        raise failures[min(failures)]
    return fit


@dataclass(frozen=True)
class SsaResult:
    best_pos: np.ndarray
    best_fit: float
    trace_best: list[float]
    trace_mean: list[float]


def optimize(obj, cfg: SsaConfig, on_iteration=None) -> SsaResult:
    """Run the full loop: init, role updates, greedy replacement.

    ``on_iteration(state)`` is invoked after every iteration (useful for
    instrumentation). Deterministic for a fixed config seed.
    """
    state = init_state(obj, cfg)
    trace_best, trace_mean = [], []
    for t in range(1, cfg.max_iter + 1):
        producers = update_producers(state, cfg, _phase_rng(cfg.seed, t, _PRODUCERS))
        state.cand_fitness[producers] = batch_fitness(obj, state.candidates[producers])
        joiners = update_joiners(state, cfg, _phase_rng(cfg.seed, t, _JOINERS))
        # a scout may take over a joiner's row, so score both only once both moved
        scouts = update_scouts(state, cfg, _phase_rng(cfg.seed, t, _SCOUTS))
        moved = np.union1d(joiners, scouts)
        state.cand_fitness[moved] = batch_fitness(obj, state.candidates[moved])
        greedy_replace(state)
        trace_best.append(state.best_fit)
        trace_mean.append(float(state.fitness.mean()))
        if on_iteration is not None:
            on_iteration(state)
    return SsaResult(
        best_pos=state.best_pos.copy(),
        best_fit=state.best_fit,
        trace_best=trace_best,
        trace_mean=trace_mean,
    )


def write_trace_csv(path, trace_best, trace_mean) -> None:
    """CSV convergence trace: iteration, best fitness, population mean."""
    lines = ["iteration,best_fit,mean_fit"]
    for i, (b, m) in enumerate(zip(trace_best, trace_mean), start=1):
        lines.append(f"{i},{b!r},{m!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def default_tuning_config(seed: int = 0, **overrides) -> SsaConfig:
    """2-D search space over (log10 C, log10 gamma)."""
    return SsaConfig(
        lower=np.array([DEFAULT_LOG10_C_BOUNDS[0], DEFAULT_LOG10_GAMMA_BOUNDS[0]]),
        upper=np.array([DEFAULT_LOG10_C_BOUNDS[1], DEFAULT_LOG10_GAMMA_BOUNDS[1]]),
        seed=seed,
        **overrides,
    )


def stratified_fold_ids(labels, folds: int, seed: int) -> tuple[int, np.ndarray]:
    """Assign each sample to a fold, round-robin per shuffled class.

    Folds are reduced (with a warning) when some class is too small to
    appear in at least two folds; the degenerate result is a single fold.
    """
    y = np.asarray(labels).ravel()
    if folds < 1:
        raise ConfigError(f"folds must be >= 1, got {folds}")
    _, counts = np.unique(y, return_counts=True)
    effective = min(folds, int(counts.min()))
    if effective < 2:
        effective = 1
    if effective < folds:
        warnings.warn(
            f"reducing folds from {folds} to {effective}: smallest class has {int(counts.min())} sample(s)",
            stacklevel=2,
        )
    fold_of = np.zeros(y.size, dtype=np.int64)
    if effective > 1:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(4,)))
        for c in np.unique(y):
            idx = rng.permutation(np.flatnonzero(y == c))
            fold_of[idx] = np.arange(idx.size) % effective
    return effective, fold_of


def _workspace(n: int, splits) -> tuple[np.ndarray, list[tuple]]:
    """Scratch arrays for one evaluation of ``cv_objective``'s objective.

    Returns the n x n kernel and, per (train, held) split with t training and
    m held-out samples, the n x t kernel columns, the t x t system, its
    F-order t x t Cholesky factor and the m x t held-out rows. All lie in one
    anonymous memory map, which goes back to the system once the arrays are
    freed; heap arrays allocated in pool threads would stay in glibc's
    per-thread arenas and raise the peak memory of the later stages.
    """
    t_max = max(train.size for train, _ in splits)
    m_max = max(held.size for _, held in splits)
    sizes = np.array([n * n, n * t_max, t_max * t_max, t_max * t_max, m_max * t_max])
    flat = np.frombuffer(mmap.mmap(-1, 8 * int(sizes.sum())), dtype=np.float64)
    kernel, rows, system, factor, held_rows = np.split(flat, np.cumsum(sizes)[:-1])
    folds = []
    for train, held in splits:
        t, m = train.size, held.size
        folds.append((rows[: n * t].reshape(n, t), system[: t * t].reshape(t, t),
                      factor[: t * t].reshape(t, t).T, held_rows[: m * t].reshape(m, t)))
    return kernel.reshape(n, n), folds


def cv_objective(train_x, train_labels, folds: int, seed: int):
    """Cross-validated squared error of a KELM at (log10 C, log10 gamma).

    Returns ``(objective, folds_used)``. With ``folds_used`` >= 2 the
    objective is the mean held-out error over seeded stratified folds; with
    ``folds_used`` = 1 it is the training-set error of a model fit on
    everything. Only C and gamma change between evaluations, so the
    squared-distance matrix, the fold index arrays and the one-hot targets
    are computed here once; an evaluation is one ``kelm.rbf_kernel`` over
    that matrix and one regularized solve per fold, with the same arithmetic
    as ``kelm.train`` followed by ``kelm.predict``.

    The objective may be called from several threads at once, as
    ``batch_fitness`` does. Each call borrows one of the scratch workspaces
    (see ``_workspace``) allocated here, one per CPU, and writes all of its
    large arrays there; the most recently returned workspace is lent first,
    so a workspace that no call needs is never touched.
    """
    x = np.asarray(train_x, dtype=np.float64)
    y = np.asarray(train_labels).ravel()
    if x.shape[0] != y.size:
        raise DataError(f"{x.shape[0]} samples but {y.size} labels")
    effective, fold_of = stratified_fold_ids(y, folds, seed)
    targets = kelm.one_hot(y, np.unique(y))
    sq_dist = kelm.cdist(x, x, "sqeuclidean")
    if effective == 1:
        everything = np.arange(y.size)
        splits = [(everything, everything)]
    else:
        splits = [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f))
                  for f in range(effective)]
    plan = [(train, held, targets[train], targets[held]) for train, held in splits]
    workspaces = queue.LifoQueue()
    for _ in range(len(os.sched_getaffinity(0))):
        workspaces.put(_workspace(y.size, splits))

    def objective(z):
        hyper = kelm.KelmHyperparams(c=10.0 ** z[0], gamma=10.0 ** z[1])
        kernel, scratch = workspace = workspaces.get()
        try:
            kelm.rbf_kernel(sq_dist, hyper.gamma, out=kernel)
            errors = []
            for (train, held, train_targets, held_targets), (rows, system, factor, held_rows) \
                    in zip(plan, scratch):
                # mode="raise" would buffer each take through a new array
                np.take(kernel, train, axis=1, out=rows, mode="clip")
                np.take(rows, train, axis=0, out=system, mode="clip")
                alpha = kelm.solve_kernel_system(system, train_targets, hyper.c, factor)
                np.take(rows, held, axis=0, out=held_rows, mode="clip")
                errors.append(kelm.mse_fitness(held_rows @ alpha, held_targets))
        finally:
            workspaces.put(workspace)
        return float(np.mean(errors))

    return objective, effective


@dataclass(frozen=True)
class TuneResult:
    hyper: kelm.KelmHyperparams
    best_fitness: float
    trace_best: list[float]
    trace_mean: list[float]
    folds_used: int


def tune_kelm(train_x, train_labels, cfg: SsaConfig | None = None, folds: int = 5) -> TuneResult:
    """Search (log10 C, log10 gamma) minimizing ``cv_objective``.

    The search runs with OpenBLAS pinned to one thread, so its results do not
    depend on the BLAS thread setting of the environment.
    """
    cfg = cfg if cfg is not None else default_tuning_config()
    if cfg.dim != 2:
        raise ConfigError(f"tuning expects 2-D bounds (log10 C, log10 gamma), got {cfg.dim}-D")
    objective, effective = cv_objective(train_x, train_labels, folds, cfg.seed)
    with kelm.single_threaded_blas():
        result = optimize(objective, cfg)
    hyper = kelm.KelmHyperparams(c=10.0 ** result.best_pos[0], gamma=10.0 ** result.best_pos[1])
    return TuneResult(
        hyper=hyper,
        best_fitness=result.best_fit,
        trace_best=result.trace_best,
        trace_mean=result.trace_mean,
        folds_used=effective,
    )
