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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kelm, parallel
from .errors import ConfigError, DataError, NumericalError

DELTA = 1e-50
# the standard sparrow search's role sizes and warning threshold (Xue & Shen 2020)
PRODUCER_RATIO = 0.2
SCOUT_RATIO = 0.1
SAFETY_THRESHOLD = 0.8
_INIT, _PRODUCERS, _JOINERS, _SCOUTS = 0, 1, 2, 3


@dataclass(frozen=True)
class SwarmConfig:
    """The config that SSA and PSO both take; the bounds are stored as flat float vectors."""

    lower: np.ndarray
    upper: np.ndarray
    pop_size: int = 30
    max_iter: int = 20
    seed: int = 0

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64).ravel()
        upper = np.asarray(self.upper, dtype=np.float64).ravel()
        if lower.size == 0 or lower.shape != upper.shape:
            raise ConfigError(f"bounds must be equal-length vectors, got {lower.shape} vs {upper.shape}")
        if not np.all(np.isfinite(lower) & np.isfinite(upper)):
            raise ConfigError(f"bounds must be finite, got {lower.tolist()} and {upper.tolist()}")
        if np.any(lower > upper):
            raise ConfigError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.pop_size < 2:
            raise ConfigError(f"pop_size must be >= 2, got {self.pop_size}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def dim(self) -> int:
        return self.lower.size


def producer_count(pop_size: int) -> int:
    return min(pop_size - 1, max(1, round(PRODUCER_RATIO * pop_size)))


def scout_count(pop_size: int) -> int:
    return min(pop_size, max(1, round(SCOUT_RATIO * pop_size)))


@dataclass(frozen=True)
class TuningConfig:
    """A run's SSA search over (log10 C, log10 gamma): the swarm's size and
    iterations and one (lower, upper) pair per axis. It holds no seed: the
    run's seed goes to ``swarm(seed)``, the optimizer's config."""

    pop_size: int = 30
    max_iter: int = 20
    log10_c_bounds: tuple[float, float] = (-2.0, 4.0)
    log10_gamma_bounds: tuple[float, float] = (-3.0, 3.0)

    def __post_init__(self):
        for name in ("log10_c_bounds", "log10_gamma_bounds"):
            bounds = getattr(self, name)
            with np.errstate(over="ignore"):
                scale = 10.0 ** np.asarray(bounds, dtype=np.float64)
            if not np.all(np.isfinite(scale) & (scale > 0)):
                raise ConfigError(f"{name} must keep 10**bound a finite float > 0, got {bounds}")
            if bounds[0] > bounds[1]:
                raise ConfigError(f"{name} must be [lower, upper] with lower <= upper, got {bounds}")
        self.swarm(0)  # the swarm's own checks, so that a bad config fails at load time

    def swarm(self, seed: int) -> SwarmConfig:
        lower, upper = np.array([self.log10_c_bounds, self.log10_gamma_bounds], dtype=np.float64).T
        return SwarmConfig(lower=lower, upper=upper, pop_size=self.pop_size,
                           max_iter=self.max_iter, seed=seed)


@dataclass
class SsaState:
    """Retained positions/fitness plus the current iteration's candidates."""

    positions: np.ndarray  # (n, d) retained (greedily accepted) positions
    fitness: np.ndarray  # (n,)
    candidates: np.ndarray  # (n, d) proposals for the running iteration
    cand_fitness: np.ndarray  # (n,)
    best_pos: np.ndarray  # the earliest retained row that reached best_fit
    best_fit: float


@dataclass(frozen=True)
class SearchResult:
    """What an SSA or PSO search (and so a tune) returns: the best position
    and its fitness, and per iteration the best fitness so far and the mean
    fitness of the retained population (PSO's personal bests)."""

    best_pos: np.ndarray
    best_fitness: float
    trace_best: list[float]
    trace_mean: list[float]


def hyperparams(z) -> kelm.KelmHyperparams:
    """The KELM's (C, gamma) at the position z = (log10 C, log10 gamma)."""
    return kelm.KelmHyperparams(c=10.0 ** z[0], gamma=10.0 ** z[1])


def _phase_rng(seed: int, iteration: int, phase: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(iteration, phase)))


def _ranks(state: SsaState) -> np.ndarray:
    return np.argsort(state.fitness, kind="stable")


def _clip(x, cfg: SwarmConfig) -> np.ndarray:
    return np.clip(x, cfg.lower, cfg.upper)


def init_state(obj, cfg: SwarmConfig) -> SsaState:
    rng = _phase_rng(cfg.seed, 0, _INIT)
    pos = cfg.lower + (cfg.upper - cfg.lower) * rng.uniform(size=(cfg.pop_size, cfg.dim))
    fit = batch_fitness(obj, pos)
    best = int(np.argmin(fit))
    return SsaState(
        positions=pos,
        fitness=fit,
        candidates=pos.copy(),
        cand_fitness=fit.copy(),
        best_pos=pos[best].copy(),
        best_fit=float(fit[best]),
    )


def update_producers(state: SsaState, cfg: SwarmConfig, rng) -> np.ndarray:
    """Move the best-ranked fraction: contract multiplicatively while safe,
    otherwise take a shared normal step in every dimension. Returns the
    moved rows."""
    producers = _ranks(state)[: producer_count(cfg.pop_size)]
    r2 = rng.uniform()
    for rank0, i in enumerate(producers):
        c = rank0 + 1
        if r2 < SAFETY_THRESHOLD:
            a = rng.uniform()
            factor = 0.0 if a == 0.0 else np.exp(-c / (a * cfg.max_iter))
            cand = state.positions[i] * factor
        else:
            cand = state.positions[i] + rng.standard_normal()
        state.candidates[i] = _clip(cand, cfg)
    return producers


def update_joiners(state: SsaState, cfg: SwarmConfig, rng) -> np.ndarray:
    """Move the remaining ranks: the worse half scatters relative to the
    worst position, the better half gathers at the best producer candidate,
    whose fitness must already be in ``cand_fitness``. Returns the moved rows."""
    order = _ranks(state)
    n, d = state.positions.shape
    n_producers = producer_count(cfg.pop_size)
    producers, joiners = order[:n_producers], order[n_producers:]
    best_producer = producers[int(np.argmin(state.cand_fitness[producers]))]
    d_f = state.candidates[best_producer]
    worst = int(np.argmax(state.fitness))
    for rank0, i in enumerate(joiners, start=n_producers):
        c = rank0 + 1
        if c > n / 2:
            q = rng.standard_normal()
            cand = q * np.exp((state.positions[worst] - state.positions[i]) / (c * c))
        else:
            signs = rng.integers(0, 2, size=d) * 2 - 1
            step = float(np.abs(state.positions[i] - d_f) @ signs) / d
            cand = d_f + step
        state.candidates[i] = _clip(cand, cfg)
    return joiners


def update_scouts(state: SsaState, cfg: SwarmConfig, rng) -> np.ndarray:
    """Move a random subset: anyone worse than the global best jumps toward
    it; the global best itself takes a fitness-scaled step. Returns the
    moved rows."""
    n, d = state.positions.shape
    rows = rng.permutation(n)[: scout_count(cfg.pop_size)]
    worst = int(np.argmax(state.fitness))
    for i in rows:
        if state.fitness[i] > state.best_fit:
            v = rng.standard_normal(d)
            cand = state.best_pos + v * np.abs(state.positions[i] - state.best_pos)
        else:
            o = rng.uniform(-1.0, 1.0)
            gap = np.abs(state.positions[i] - state.positions[worst])
            cand = state.positions[i] + o * (gap / ((state.fitness[i] - state.fitness[worst]) + DELTA))
        state.candidates[i] = _clip(cand, cfg)
    return rows


def greedy_replace(state: SsaState) -> None:
    """Keep each candidate only if it strictly improves, then refresh the
    best-so-far."""
    improved = state.cand_fitness < state.fitness
    state.positions[improved] = state.candidates[improved]
    state.fitness[improved] = state.cand_fitness[improved]
    b = int(np.argmin(state.fitness))
    if state.fitness[b] < state.best_fit:
        state.best_fit = float(state.fitness[b])
        state.best_pos = state.positions[b].copy()


def batch_fitness(obj, positions: np.ndarray) -> np.ndarray:
    """Fitness of each row of the (m, d) ``positions``, as a float64 vector.

    ``obj`` takes one position and is called at most once per row. The rows
    run side by side on ``parallel.run_jobs``, so ``obj`` must be safe to call
    from several threads. A row fails when ``obj`` raises or returns NaN;
    no row starts after a failure, and the failure of the first failed row
    in row order is raised (NaN as ``NumericalError``), so no later row's
    result is used. Only positions that are passed here are checked: in
    ``optimize`` a joiner candidate that a scout replaces is never
    evaluated, so a NaN (or a ``NumericalError`` raised by ``obj``) that
    only that candidate would give does not end the run.
    """
    fit = np.empty(len(positions))

    def score(k):
        fit[k] = float(obj(positions[k]))
        if np.isnan(fit[k]):
            raise NumericalError(f"objective returned NaN at position {positions[k].tolist()}")

    parallel.run_jobs(score, len(positions))
    return fit


def optimize(obj, cfg: SwarmConfig) -> SearchResult:
    """Run the full loop: init, role updates, greedy replacement.

    Deterministic for a fixed config seed.
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
    return SearchResult(state.best_pos.copy(), state.best_fit, trace_best, trace_mean)


def write_trace_csv(path, result: SearchResult) -> None:
    """CSV convergence trace: iteration, best fitness, population mean."""
    lines = ["iteration,best_fit,mean_fit"]
    for i, (b, m) in enumerate(zip(result.trace_best, result.trace_mean), start=1):
        lines.append(f"{i},{b!r},{m!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def stratified_fold_ids(labels, folds: int, seed: int) -> np.ndarray:
    """Assign each sample to one of ``folds`` folds, round-robin per shuffled class.

    A class with fewer than ``folds`` samples is held out in fewer folds. Fold
    f holds a sample only when some class has more than f samples, so a label
    set whose largest class has fewer than ``folds`` samples is a ConfigError.
    """
    y = np.asarray(labels).ravel()
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    classes, counts = np.unique(y, return_counts=True)
    if counts.max() < folds:
        raise ConfigError(
            f"folds={folds} leaves a fold empty: the largest class has {counts.max()} training "
            "sample(s); lower folds, raise train_fraction or set fixed_hyperparams"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(4,)))
    fold_of = np.zeros(y.size, dtype=np.int64)
    for c in classes:
        idx = rng.permutation(np.flatnonzero(y == c))
        fold_of[idx] = np.arange(idx.size) % folds
    return fold_of


def cv_objective(train_x, train_labels, fold_of):
    """Cross-validated squared error of a KELM at (log10 C, log10 gamma).

    The objective is the mean held-out error over the folds that
    ``fold_of`` assigns the samples to, as ``stratified_fold_ids`` makes
    them; each distinct id is one fold, and fewer than two is a ConfigError.
    Only C and gamma change between evaluations, so the squared distances
    and the one-hot targets are computed here once, with the samples in
    fold-major order (ascending fold id, then ascending index): fold f owns
    the rows and columns ``[a_f, b_f)`` of the squared-distance matrix. Of
    its F x F fold blocks, only the F(F+1)/2 on and above the diagonal are
    kept, fold f's side by side as its strip, the rows ``[a_f, b_f)`` and
    columns ``[a_f, n)`` from one ``kelm.cdist`` call. A block below the
    diagonal is its mirror's transpose, with the same bits, since ``cdist``
    is symmetric bit for bit. Nothing else is cut out or copied for a fold.

    An evaluation writes ``-gamma`` times the strips of a fold's training
    side, without the fold's own columns, straight into its scratch, on and
    above the diagonal of the fold's system, and mirrors that part below
    the diagonal. It then takes ``kelm.floored_exp`` over the whole system
    and makes one regularized solve per fold, with the same arithmetic as
    ``kelm.train`` followed by ``kelm.predict`` on the samples in that
    order. The floor's pass over the smallest exponent is skipped when
    ``-gamma`` times the largest distance shows that it cannot fire. The
    solve factors the fold's system in place in the scratch
    (``kelm.solve_kernel_system``); once it has returned, the fold's
    held-out x training rows overwrite the system there, and the next
    fold's kernel overwrites them.

    The objective may be called from several threads at once, as
    ``batch_fitness`` does. Each call borrows a scratch buffer from the
    objective's pool (``parallel.lend``), which holds one per call that ran
    at once. In float64 values, the strips that all calls share hold
    (n² + sum of the squared fold sizes) / 2, 0.6·n² at 5 equal folds; a
    scratch buffer holds t² for the largest fold's t training samples,
    0.64·n² at 5 folds.
    """
    x = np.asarray(train_x, dtype=np.float64)
    y = np.asarray(train_labels).ravel()
    fold_of = np.asarray(fold_of).ravel()
    if not x.shape[0] == y.size == fold_of.size:
        raise DataError(f"{x.shape[0]} samples but {y.size} labels and {fold_of.size} fold ids")
    fold_sizes = np.unique(fold_of, return_counts=True)[1]
    if fold_sizes.size < 2:  # one fold would leave its training side empty
        raise ConfigError(f"fold ids must name >= 2 distinct folds, got {fold_sizes.size}")
    n = y.size
    order = np.argsort(fold_of, kind="stable")
    x = x[order]
    targets = kelm.one_hot(y[order], np.unique(y))
    ends = np.cumsum(fold_sizes).tolist()
    starts = [0] + ends[:-1]
    # fold f's blocks on and above the diagonal, side by side: columns [a_f, n)
    strips = [kelm.cdist(x[a:b], x[a:], "sqeuclidean") for a, b in zip(starts, ends)]
    d_max = max(float(strip.max(initial=0.0)) for strip in strips)
    plan = []  # per fold: its samples and strip, the training folds, each side's targets
    for f, (a, b) in enumerate(zip(starts, ends)):
        # per training fold: its first sample, its strip and its rows in the system
        m = b - a
        training = [(start, strips[g], slice(start, stop) if g < f else slice(start - m, stop - m))
                    for g, (start, stop) in enumerate(zip(starts, ends)) if g != f]
        plan.append((a, b, strips[f], training, np.delete(targets, slice(a, b), axis=0),
                     targets[a:b]))
    # a fold's m x t held-out rows fit in the buffer of the largest system,
    # t_max x t_max: m + m_min <= n for the smallest fold's m_min gives
    # m <= n - m_min = t_max, and t <= t_max
    t_max = n - int(fold_sizes.min())
    workspaces = []

    def objective(z):
        hyper = hyperparams(z)
        scale = -hyper.gamma
        lowest = d_max * scale  # no exponent lies below this
        errors = []
        with parallel.lend(workspaces, lambda: parallel.mapped_array(t_max * t_max)) as scratch:
            for a, b, own_strip, training, train_targets, held_targets in plan:
                t, m = train_targets.shape[0], held_targets.shape[0]
                system = scratch[: t * t].reshape(t, t)
                for start, strip, rows in training:
                    # on and above the diagonal: the fold's strip without fold f's columns
                    if start < a:
                        np.multiply(strip[:, : a - start], scale, out=system[rows, rows.start : a])
                        np.multiply(strip[:, b - start :], scale, out=system[rows, a:])
                    else:
                        np.multiply(strip, scale, out=system[rows, rows.start :])
                    # below it: the transpose of the column above, the same bits
                    system[rows, : rows.start] = system[: rows.start, rows].T
                kelm.floored_exp(system, lowest)
                alpha = kelm.solve_kernel_system(system, train_targets, hyper.c)
                held_rows = scratch[: m * t].reshape(m, t)
                for start, strip, cols in training:
                    if start < a:  # fold f's columns of an earlier strip
                        np.multiply(strip[:, a - start : b - start].T, scale, out=held_rows[:, cols])
                np.multiply(own_strip[:, m:], scale, out=held_rows[:, a:])
                scores = kelm.floored_exp(held_rows, lowest) @ alpha
                errors.append(kelm.mse_fitness(scores, held_targets))
        return float(np.mean(errors))

    return objective


def tune_kelm(train_x, train_labels, tuning: TuningConfig, seed: int, fold_of) -> SearchResult:
    """Search (log10 C, log10 gamma) in the box ``tuning`` gives, minimizing
    ``cv_objective`` on the folds ``fold_of``; ``hyperparams(result.best_pos)``
    is the chosen (C, gamma)."""
    return optimize(cv_objective(train_x, train_labels, fold_of), tuning.swarm(seed))
