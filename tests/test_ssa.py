import json
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from hsikelm import kelm, parallel, ssa
from hsikelm.errors import ConfigError, DataError, NumericalError
from hsikelm.ssa import (
    SwarmConfig,
    SsaState,
    TuningConfig,
    batch_fitness,
    cv_objective,
    init_state,
    optimize,
    stratified_fold_ids,
    tune_kelm,
    update_joiners,
    update_producers,
    update_scouts,
    write_trace_csv,
)

from conftest import blas_env, clustered_samples, fast_config_dict


def make_state(positions, fitness):
    pos = np.asarray(positions, dtype=float)
    fit = np.asarray(fitness, dtype=float)
    b, w = int(np.argmin(fit)), int(np.argmax(fit))
    return SsaState(
        positions=pos,
        fitness=fit,
        candidates=pos.copy(),
        cand_fitness=fit.copy(),
        best_pos=pos[b].copy(),
        best_fit=float(fit[b]),
        worst_pos=pos[w].copy(),
        worst_fit=float(fit[w]),
    )


def wide_cfg(d=1, **kw):
    defaults = dict(pop_size=2, max_iter=20, seed=0)
    defaults.update(kw)
    return SwarmConfig(lower=np.full(d, -1e6), upper=np.full(d, 1e6), **defaults)


# -- producer update ----------------------------------------------------------

def test_producer_multiplicative_contraction(scripted_rng):
    state = make_state([[2.0], [5.0]], [1.0, 2.0])
    rng = scripted_rng(uniforms=[0.5, 0.5])  # R2 < ST, then alpha
    update_producers(state, wide_cfg(), rng)
    assert state.candidates[0, 0] == pytest.approx(2.0 * np.exp(-0.1), abs=1e-9)
    assert state.candidates[1, 0] == 5.0  # joiners untouched


def test_producer_zero_fixed_point(scripted_rng):
    state = make_state([[0.0], [5.0]], [1.0, 2.0])
    rng = scripted_rng(uniforms=[0.5, 0.7])
    update_producers(state, wide_cfg(), rng)
    assert state.candidates[0, 0] == 0.0


def test_producer_additive_branch_zero_step(scripted_rng):
    state = make_state([[2.0], [5.0]], [1.0, 2.0])
    rng = scripted_rng(uniforms=[0.9], normals=[0.0])  # R2 >= ST, Q = 0
    update_producers(state, wide_cfg(), rng)
    assert state.candidates[0, 0] == 2.0


# -- joiner update ------------------------------------------------------------

def test_joiner_worse_half_at_worst(scripted_rng):
    state = make_state([[1.0], [4.0]], [1.0, 2.0])  # joiner rank 2 > n/2, at the worst
    rng = scripted_rng(normals=[0.5])
    update_joiners(state, wide_cfg(), rng)
    assert state.candidates[1, 0] == pytest.approx(0.5 * np.exp(0.0))


def test_joiner_better_half_at_best_producer(scripted_rng):
    # ranks: row0 producer, row1 rank-2 joiner (better half), rows 2-3 worse half
    state = make_state([[3.0], [3.0], [7.0], [9.0]], [1.0, 2.0, 3.0, 4.0])
    rng = scripted_rng(int_rows=[[1]], normals=[0.0, 0.0])
    update_joiners(state, wide_cfg(pop_size=4), rng)
    assert state.candidates[1, 0] == 3.0  # |D_c - D_F| = 0 keeps it at D_F


def test_joiner_pseudo_inverse_displacement(scripted_rng):
    state = make_state(
        [[0.0, 0.0], [0.2, 0.4], [5.0, 5.0], [6.0, 6.0]], [1.0, 2.0, 3.0, 4.0]
    )
    rng = scripted_rng(int_rows=[[1, 0]], normals=[0.0, 0.0])  # A = (+1, -1)
    update_joiners(state, wide_cfg(d=2, pop_size=4), rng)
    # displacement = (0.2*1 + 0.4*(-1)) / 2 = -0.1 added to each coordinate of D_F
    assert np.allclose(state.candidates[1], [-0.1, -0.1])


# -- scout update -------------------------------------------------------------

def test_scout_jumps_to_best(scripted_rng):
    state = make_state([[1.0], [7.0]], [1.0, 2.0])
    rng = scripted_rng(perm=[1, 0], normals=[np.array([0.0])])
    rows = update_scouts(state, wide_cfg(), rng)
    assert state.candidates[1, 0] == 1.0  # V = 0 lands exactly on the best
    assert rows.tolist() == [1]


def test_scout_best_zero_step_unchanged(scripted_rng):
    state = make_state([[1.0], [7.0]], [1.0, 2.0])
    rng = scripted_rng(perm=[0, 1], uniforms=[0.0])  # the best sparrow, O = 0
    update_scouts(state, wide_cfg(), rng)
    assert state.candidates[0, 0] == 1.0


def test_scout_best_fitness_scaled_step(scripted_rng):
    # D_c = 4, D_worst = 1, f_c - f_w = -2, O = 1 -> 4 + 3/(-2) = 2.5
    state = make_state([[4.0], [1.0]], [1.0, 3.0])
    rng = scripted_rng(perm=[0, 1], uniforms=[1.0])
    update_scouts(state, wide_cfg(), rng)
    assert state.candidates[0, 0] == pytest.approx(2.5, abs=1e-12)


# -- config and loop ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        SwarmConfig(lower=np.array([0.0]), upper=np.array([-1.0]))
    with pytest.raises(ConfigError):
        SwarmConfig(lower=np.array([0.0]), upper=np.array([1.0]), pop_size=1)
    with pytest.raises(ConfigError):
        SwarmConfig(lower=np.array([0.0]), upper=np.array([1.0, 2.0]))
    with pytest.raises(ConfigError, match="max_iter must be >= 1, got 0"):
        SwarmConfig(lower=np.array([0.0]), upper=np.array([1.0]), max_iter=0)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        SwarmConfig(lower=np.array([0.0]), upper=np.array([1.0]), seed=-1)
    for lower, upper in [([np.nan], [1.0]), ([0.0], [np.nan]), ([-np.inf], [np.inf]),
                         ([0.0, -np.inf], [1.0, 0.0]), ([0.0], [np.inf])]:
        with pytest.raises(ConfigError, match="bounds must be finite"):
            SwarmConfig(lower=np.array(lower), upper=np.array(upper))


def test_constant_objective():
    cfg = SwarmConfig(lower=np.array([-1.0]), upper=np.array([1.0]), pop_size=5, max_iter=6, seed=0)
    result = optimize(lambda x: 7.0, cfg)
    assert result.best_fit == 7.0
    assert result.trace_best == [7.0] * 6


def test_quadratic_1d_statistics():
    finals = []
    for seed in range(10):
        cfg = SwarmConfig(lower=np.array([0.0]), upper=np.array([10.0]),
                          pop_size=30, max_iter=50, seed=seed)
        finals.append(optimize(lambda x: float((x[0] - 3.0) ** 2), cfg).best_fit)
    assert np.median(finals) < 1e-4


def test_trace_monotone_and_bounds_respected(monkeypatch):
    lo, hi = np.full(3, -2.0), np.full(3, 2.0)
    cfg = SwarmConfig(lower=lo, upper=hi, pop_size=10, max_iter=25, seed=5)
    replace = ssa.greedy_replace

    def check(state):  # every iteration ends in greedy_replace
        replace(state)
        assert np.all(state.positions >= lo - 1e-12) and np.all(state.positions <= hi + 1e-12)
        assert np.all(state.candidates >= lo - 1e-12) and np.all(state.candidates <= hi + 1e-12)

    monkeypatch.setattr(ssa, "greedy_replace", check)
    result = optimize(lambda x: float(np.sum(x**2)), cfg)
    assert all(a >= b for a, b in zip(result.trace_best, result.trace_best[1:]))


def test_deterministic_given_seed():
    cfg = SwarmConfig(lower=np.array([-4.0, -4.0]), upper=np.array([4.0, 4.0]),
                      pop_size=8, max_iter=12, seed=9)
    obj = lambda x: float(np.sum(x**2))
    a = optimize(obj, cfg)
    b = optimize(obj, cfg)
    assert a.trace_best == b.trace_best
    assert np.array_equal(a.best_pos, b.best_pos)
    other = optimize(obj, SwarmConfig(lower=cfg.lower, upper=cfg.upper,
                                      pop_size=8, max_iter=12, seed=10))
    assert a.trace_best != other.trace_best


def test_nan_objective_aborts():
    cfg = SwarmConfig(lower=np.array([0.0]), upper=np.array([1.0]), pop_size=4, max_iter=2, seed=0)
    with pytest.raises(NumericalError, match="NaN"):
        optimize(lambda x: float("nan"), cfg)


def test_batch_fitness_scores_rows_in_order_and_stops_at_nan():
    seen = []

    def obj(x):
        seen.append(x.tolist())
        return np.float32(x[0] * 2.0)

    fit = batch_fitness(obj, np.array([[1.0, 0.0], [3.0, 0.0]]))
    assert fit.dtype == np.float64 and fit.tolist() == [2.0, 6.0]
    assert sorted(seen) == [[1.0, 0.0], [3.0, 0.0]]
    assert batch_fitness(obj, np.empty((0, 2))).shape == (0,)

    # rows run side by side, so a later row may fail first; the first
    # failure in row order is the one raised
    def failing(nan_row, error_row, error):
        def f(x):
            row = int(x[0])
            if row == min(nan_row, error_row):
                time.sleep(0.2)  # let the later failure finish first
            if row == nan_row:
                return np.nan
            if row == error_row:
                raise error
            return 0.0
        return f

    rows = np.arange(5.0)[:, None]
    with pytest.raises(NumericalError, match=r"NaN at position \[1.0\]"):
        batch_fitness(failing(1, 3, NumericalError("row 3 failed")), rows)
    with pytest.raises(ValueError, match="row 1 failed"):
        batch_fitness(failing(3, 1, ValueError("row 1 failed")), rows)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs at least 2 CPUs")
def test_batch_fitness_runs_rows_concurrently():
    barrier = threading.Barrier(2, timeout=10)

    def obj(x):
        barrier.wait()  # raises BrokenBarrierError unless two rows run at once
        return float(x[0])

    assert batch_fitness(obj, np.array([[1.0], [2.0]])).tolist() == [1.0, 2.0]


def test_batch_fitness_stress_more_workers_than_cores(monkeypatch):
    # eight workers on however many cores, switching threads as often as the
    # interpreter allows: every row must run exactly once and land in its slot
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    calls = np.zeros(2000, dtype=np.int64)

    def obj(x):
        k = int(x[0])
        calls[k] += 1
        time.sleep(0)  # give up the interpreter lock mid-row
        return float(k * calls[k])  # differs between batches, so a stale slot shows

    rows = np.arange(calls.size, dtype=np.float64)[:, None]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for batch in range(1, 9):
            assert np.array_equal(batch_fitness(obj, rows), batch * rows[:, 0])
    finally:
        sys.setswitchinterval(interval)
    assert np.all(calls == 8)


def _three_loop_optimize(obj, cfg):
    """Reference loop that scores each role's rows right after the role moves:
    every joiner candidate, also those a scout then replaces. Returns the
    result and the number of joiner rows that became scouts."""
    state = init_state(obj, cfg)
    trace_best, trace_mean, replaced = [], [], 0
    for t in range(1, cfg.max_iter + 1):
        state.candidates[:] = state.positions
        state.cand_fitness[:] = state.fitness
        order = np.argsort(state.fitness, kind="stable")
        n_producers = ssa.producer_count(cfg.pop_size)
        producers, joiners = order[:n_producers], order[n_producers:]
        update_producers(state, cfg, ssa._phase_rng(cfg.seed, t, ssa._PRODUCERS))
        for i in producers:
            state.cand_fitness[i] = float(obj(state.candidates[i]))
        update_joiners(state, cfg, ssa._phase_rng(cfg.seed, t, ssa._JOINERS))
        for i in joiners:
            state.cand_fitness[i] = float(obj(state.candidates[i]))
        scouts = update_scouts(state, cfg, ssa._phase_rng(cfg.seed, t, ssa._SCOUTS))
        for i in scouts:
            state.cand_fitness[i] = float(obj(state.candidates[i]))
        replaced += np.intersect1d(joiners, scouts).size
        ssa.greedy_replace(state)
        trace_best.append(state.best_fit)
        trace_mean.append(float(state.fitness.mean()))
    return ssa.SsaResult(state.best_pos.copy(), state.best_fit, trace_best, trace_mean), replaced


def _clipped_rastrigin(x):
    return min(float(10.0 * x.size + np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x))), 20.0)


@pytest.mark.parametrize("obj", [lambda x: float(np.sum(x**2)), _clipped_rastrigin, lambda x: 7.0],
                         ids=["sphere", "clipped_rastrigin", "constant"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_optimize_matches_three_loop_oracle(obj, seed):
    cfg = SwarmConfig(lower=np.full(3, -3.0), upper=np.full(3, 3.0), pop_size=12,
                      max_iter=10, seed=seed)
    calls = {"new": 0, "oracle": 0}

    def counted(key):
        def f(x):
            calls[key] += 1
            return obj(x)
        return f

    got = optimize(counted("new"), cfg)
    want, replaced = _three_loop_optimize(counted("oracle"), cfg)
    assert got.trace_best == want.trace_best
    assert got.trace_mean == want.trace_mean
    assert np.array_equal(got.best_pos, want.best_pos) and got.best_fit == want.best_fit
    assert replaced > 0
    assert calls["new"] == calls["oracle"] - replaced


def test_degenerate_bounds_return_the_point():
    cfg = SwarmConfig(lower=np.array([2.0, -1.0]), upper=np.array([2.0, -1.0]),
                      pop_size=4, max_iter=3, seed=0)
    result = optimize(lambda x: float(np.sum(x**2)), cfg)
    assert np.array_equal(result.best_pos, [2.0, -1.0])


def test_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, [3.0, 1.0], [5.0, 2.5])
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,best_fit,mean_fit"
    assert lines[1].startswith("1,3.0")
    assert len(lines) == 3


# -- tuning -------------------------------------------------------------------

def _blobs(n_per_class=20, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per_class, 2)) * 0.3 + np.array([2.0, 2.0])
    b = rng.normal(size=(n_per_class, 2)) * 0.3 + np.array([-2.0, -2.0])
    x = np.vstack([a, b])
    y = np.array([1] * n_per_class + [2] * n_per_class)
    return x, y


def _fold_major(fold_of):
    """The samples in ``cv_objective``'s order: by fold id, then by index."""
    return np.argsort(fold_of, kind="stable")


def _cv_objective(x, y, fold_of):
    # the same samples in cv_objective's order, so that each fold solves the same system
    order = _fold_major(fold_of)
    x, y, fold_of = x[order], y[order], fold_of[order]
    class_ids = np.unique(y)

    def objective(z):
        hyper = kelm.KelmHyperparams(c=10.0 ** z[0], gamma=10.0 ** z[1])
        errors = []
        for f in np.unique(fold_of):
            held = fold_of == f
            model = kelm.train(x[~held], y[~held], hyper)
            fold_scores, _ = kelm.predict(model, x[held])
            # a class absent from the training side has an all-zero target column, so it scores 0
            scores = np.zeros((fold_scores.shape[0], class_ids.size))
            scores[:, np.searchsorted(class_ids, model.class_ids)] = fold_scores
            errors.append(kelm.mse_fitness(scores, kelm.one_hot(y[held], class_ids)))
        return float(np.mean(errors))

    return objective


def test_tune_kelm_separable_blobs():
    x, y = _blobs()
    cfg = TuningConfig(pop_size=10, max_iter=8).swarm(0)
    result = tune_kelm(x, y, cfg, stratified_fold_ids(y, 3, seed=0))
    assert result.best_fitness < 0.05
    # independent grid oracle: a sub-0.05 region exists inside the same bounds
    objective = _cv_objective(x, y, stratified_fold_ids(y, 3, seed=0))
    grid = [objective(np.array([lc, lg]))
            for lc in np.linspace(-2, 4, 7) for lg in np.linspace(-3, 3, 7)]
    assert min(grid) < 0.05
    assert result.best_fitness <= min(grid) + 0.05


@pytest.mark.parametrize("counts, folds", [
    pytest.param([12, 12, 12], 2, id="2"),
    pytest.param([12, 12, 12], 3, id="3"),
    pytest.param([12, 12, 12], 5, id="5"),
    pytest.param([12, 12, 2], 5, id="class-held-out-in-2-of-5"),
    pytest.param([12, 12, 1], 5, id="class-absent-from-a-training-side"),
])
def test_cv_objective_equals_train_predict_oracle(counts, folds, monkeypatch):
    rng = np.random.default_rng(11)
    y = np.repeat([1, 2, 3], counts)
    x = rng.normal(size=(y.size, 7)) + 0.5 * y[:, None]
    fold_of = stratified_fold_ids(y, folds, seed=4)
    mapped, mapped_array = [], parallel.mapped_array
    monkeypatch.setattr(parallel, "mapped_array", lambda size: mapped.append(size) or mapped_array(size))
    objective = cv_objective(x, y, fold_of)
    grid = [np.array([lc, lg]) for lc in np.linspace(-2, 4, 5) for lg in np.linspace(-3, 3, 5)]
    values = [objective(z) for z in grid]
    # serial calls share one buffer, the system at the largest t, factored in
    # place and then overwritten by the fold's held-out rows
    train = y.size - np.bincount(fold_of, minlength=folds)
    assert mapped == [train.max() ** 2]
    oracle = _cv_objective(x, y, fold_of)
    assert values == [oracle(z) for z in grid]


def test_cv_objective_where_the_held_out_side_outnumbers_the_training_side(monkeypatch):
    # fold 0 holds 9 samples out against 4 training ones: its 9 x 4 held-out
    # rows still fit in the buffer of fold 1's 9 x 9 system
    rng = np.random.default_rng(5)
    y = np.array([1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1])
    x = rng.normal(size=(y.size, 3)) + 0.5 * y[:, None]
    fold_of = np.array([0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0])
    mapped, mapped_array = [], parallel.mapped_array
    monkeypatch.setattr(parallel, "mapped_array", lambda size: mapped.append(size) or mapped_array(size))
    objective = cv_objective(x, y, fold_of)
    grid = [np.array([lc, lg]) for lc in np.linspace(-2, 4, 4) for lg in np.linspace(-3, 3, 4)]
    values = [objective(z) for z in grid]
    assert mapped == [9 * 9]
    oracle = _cv_objective(x, y, fold_of)
    assert values == [oracle(z) for z in grid]


@pytest.mark.parametrize("sizes", [[5, 1, 7, 3], [1, 2], [4, 4, 4, 4, 4], [3, 9, 1, 1, 6]])
def test_cv_objective_keeps_the_distance_blocks_on_and_above_the_fold_diagonal(sizes, monkeypatch):
    """One ``kelm.cdist`` call per fold, for its blocks on and above the
    diagonal side by side, each block with the bits of that block of the
    full matrix; below the diagonal each block is its mirror's transpose
    with the same bits."""
    rng = np.random.default_rng(sum(sizes))
    fold_of = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    y = np.arange(fold_of.size) % 2 + 1
    x = rng.normal(size=(fold_of.size, 7)) * rng.uniform(0.1, 10.0, size=7)
    strips, real = [], kelm.cdist
    monkeypatch.setattr(kelm, "cdist", lambda a, b, metric: strips.append(real(a, b, metric)) or strips[-1])
    cv_objective(x, y, fold_of)
    xf = x[_fold_major(fold_of)]
    full = cdist(xf, xf, "sqeuclidean")
    starts = np.cumsum([0] + sizes)
    assert len(strips) == len(sizes)
    assert sum(strip.size for strip in strips) == (full.size + sum(m * m for m in sizes)) // 2
    for f, strip in enumerate(strips):
        a = starts[f]
        assert np.array_equal(strip, full[a : starts[f + 1], a:])
        for g in range(f, len(sizes)):  # each block, and its transpose below the diagonal
            block = strip[:, starts[g] - a : starts[g + 1] - a]
            assert np.array_equal(block.T, full[starts[g] : starts[g + 1], a : starts[f + 1]])


def test_cv_objective_where_the_kernel_floor_fires_equals_the_unfloored_oracle():
    """At log10 gamma near 2 ``kelm.rbf_kernel`` zeroes the kernel entries
    below sqrt(tiny); the objective keeps its bits. The oracle uses plain
    ``np.exp`` and scipy's Cholesky, on the samples in the objective's
    fold-major order."""
    x, y = clustered_samples()
    fold_of = stratified_fold_ids(y, 5, seed=0)
    order = _fold_major(fold_of)
    targets = kelm.one_hot(y[order], [1, 2, 3])
    sq_dist = cdist(x[order], x[order], "sqeuclidean")

    def oracle(z):
        c, gamma = 10.0 ** z[0], 10.0 ** z[1]
        errors = []
        for f in range(5):
            train, held = fold_of[order] != f, fold_of[order] == f
            omega = np.exp(-gamma * sq_dist[np.ix_(train, train)])
            assert np.any((omega > 0) & (omega < np.sqrt(np.finfo(np.float64).tiny)))
            alpha = cho_solve(cho_factor(omega + np.eye(omega.shape[0]) / c, lower=True),
                              targets[train])
            scores = np.exp(-gamma * sq_dist[np.ix_(held, train)]) @ alpha
            errors.append(np.mean((scores - targets[held]) ** 2))
        return float(np.mean(errors))

    objective = cv_objective(x, y, fold_of)
    grid = [np.array([lc, lg]) for lc in (-1.0, 1.0, 3.0) for lg in (1.8, 1.95, 2.1)]
    with parallel.single_threaded_blas():  # as a tune runs the objective
        want = [oracle(z).hex() for z in grid]
        assert [objective(z).hex() for z in grid] == want
    assert len(set(want)) == len(grid)  # nine distinct values, none at a trivial kernel


def test_cv_objective_pooled_equals_serial():
    rng = np.random.default_rng(2)
    y = np.repeat([1, 2, 3], [11, 12, 14])
    x = rng.normal(size=(y.size, 6)) + 0.5 * y[:, None]
    fold_of = stratified_fold_ids(y, 3, seed=1)
    assert len(set(np.bincount(fold_of).tolist())) > 1  # folds of unequal size
    objective = cv_objective(x, y, fold_of)
    grid = [np.array([lc, lg]) for lc in np.linspace(-2, 4, 5) for lg in np.linspace(-3, 3, 5)]
    serial = [objective(z) for z in grid]
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = list(pool.map(objective, grid[::-1]))[::-1]
    assert [v.hex() for v in pooled] == [v.hex() for v in serial]


def test_cv_objective_depends_on_the_samples_not_their_order():
    x, y = clustered_samples()
    fold_of = stratified_fold_ids(y, 5, seed=0)
    # positions where the kernel floor fires (log10 gamma 1.8 and 2.1) and where it cannot
    grid = [np.array([lc, lg]) for lc in (-1.0, 1.0, 3.0) for lg in (-2.0, 0.0, 1.8, 2.1)]
    values = [cv_objective(x, y, fold_of)(z) for z in grid]
    # in fold-major order already: the same systems, so the same bits
    p = _fold_major(fold_of)
    objective = cv_objective(x[p], y[p], fold_of[p])
    assert [objective(z).hex() for z in grid] == [v.hex() for v in values]
    # shuffled inside the folds too: each system is a symmetric permutation of today's
    q = np.random.default_rng(8).permutation(y.size)
    objective = cv_objective(x[q], y[q], fold_of[q])
    np.testing.assert_allclose([objective(z) for z in grid], values, rtol=1e-10, atol=0)


def test_cv_objective_holds_the_fold_blocks_on_and_above_the_diagonal():
    # at 5 equal folds the 15 blocks on and above the fold diagonal hold 0.6·n²
    # doubles; the full distance matrix would hold n². Nothing else of n² size is
    # held or allocated at the peak: the scratch is a memory map, which
    # tracemalloc does not see; a product of a strided view allocates one numpy
    # buffer of at most getbufsize() elements
    rng = np.random.default_rng(4)
    n, d = 600, 10
    x = rng.normal(size=(n, d))
    y = np.arange(n) % 4 + 1
    fold_of = stratified_fold_ids(y, 5, seed=0)
    z = np.array([1.0, -1.3])
    cv_objective(x[:40], y[:40], fold_of[:40])(z)  # first-call setup outside the measurement
    tracemalloc.start()
    try:
        objective = cv_objective(x, y, fold_of)
        held, _ = tracemalloc.get_traced_memory()
        objective(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(held, peak) <= 8 * (0.6 * n * n + 4 * n * d + 2 * np.getbufsize())


def test_cv_objective_rejects_mismatched_counts():
    x, y = _blobs(n_per_class=4)
    fold_of = stratified_fold_ids(y, 2, seed=0)
    with pytest.raises(DataError, match="8 samples but 7 labels and 8 fold ids"):
        cv_objective(x, y[:-1], fold_of)
    with pytest.raises(DataError, match="8 samples but 8 labels and 7 fold ids"):
        cv_objective(x, y, fold_of[:-1])


@pytest.mark.parametrize("fold_of", [np.zeros(8, dtype=int), np.zeros(0, dtype=int)])
def test_cv_objective_rejects_fewer_than_two_folds(fold_of, monkeypatch):
    x, y = _blobs(n_per_class=4)
    x, y = x[:fold_of.size], y[:fold_of.size]
    # the check comes before the distance matrix
    monkeypatch.setattr(kelm, "cdist", None)
    with pytest.raises(ConfigError, match=f">= 2 distinct folds, got {np.unique(fold_of).size}"):
        cv_objective(x, y, fold_of)


def test_tune_kelm_rejects_bounds_other_than_2d(monkeypatch):
    x, y = _blobs(n_per_class=4)
    cfg = SwarmConfig(lower=np.zeros(3), upper=np.ones(3), pop_size=4, max_iter=2, seed=0)
    monkeypatch.setattr(ssa, "optimize", lambda *a: pytest.fail("the search ran"))
    with pytest.raises(ConfigError, match="tuning expects 2-D bounds .*, got 3-D"):
        tune_kelm(x, y, cfg, stratified_fold_ids(y, 2, seed=0))


def test_tune_kelm_residual_gate_fires_and_blas_threads_restored(monkeypatch, openblas_at_two_threads):
    x, y = _blobs(n_per_class=8, seed=3)
    cfg = SwarmConfig(lower=np.array([1.0, 0.0]), upper=np.array([1.0, 0.0]),
                      pop_size=4, max_iter=2, seed=0)
    monkeypatch.setattr(kelm, "RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericalError, match="residual"):
        tune_kelm(x, y, cfg, stratified_fold_ids(y, 2, seed=0))
    assert [get() for _, get in openblas_at_two_threads] == [2] * len(openblas_at_two_threads)


_TUNE_HEX = """
import numpy as np
from hsikelm.ssa import TuningConfig, stratified_fold_ids, tune_kelm
rng = np.random.default_rng(5)
y = np.repeat([1, 2, 3], 100)
x = rng.normal(size=(y.size, 8)) + 0.4 * y[:, None]
r = tune_kelm(x, y, TuningConfig(pop_size=4, max_iter=2).swarm(0), stratified_fold_ids(y, 2, 0))
print(" ".join(v.hex() for v in r.trace_best + r.trace_mean))
"""


@pytest.mark.skipif(not parallel.openblas_thread_controls(), reason="no loaded OpenBLAS to pin")
def test_tune_kelm_bits_independent_of_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        run = subprocess.run([sys.executable, "-c", _TUNE_HEX], env=blas_env(threads),
                             capture_output=True, text=True, check=True, timeout=120)
        outputs.append(run.stdout)
    assert outputs[0].strip() and outputs[0] == outputs[1]


@pytest.mark.skipif(not parallel.openblas_thread_controls() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a loaded OpenBLAS and at least 2 CPUs")
def test_run_artifacts_independent_of_blas_threads_and_cpus(small_scene, tmp_path):
    raw = fast_config_dict(small_scene, tmp_path / "unused",
                           mstv={"k": 5, "n_components": 5, "landmark_count": 1000})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    one_cpu = {min(os.sched_getaffinity(0))}
    artifacts = []
    for threads, cpus in (("1", one_cpu), ("2", None)):
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "hsikelm.cli", "run", "--config", str(config),
             "--out", str(out)],
            env=blas_env(threads), capture_output=True, check=True, timeout=120,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        names = ("ssa_trace.csv", "run_report.json", "confusion.csv", "classification_map.ppm")
        artifacts.append([(out / name).read_bytes() for name in names])
    assert artifacts[0] == artifacts[1]


@pytest.mark.skipif(not parallel.openblas_thread_controls(), reason="no loaded OpenBLAS to pin")
def test_train_model_bytes_independent_of_blas_threads(small_scene, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fast_config_dict(small_scene, tmp_path / "unused")))
    models = []  # at n ~ 300 training pixels two BLAS threads change the Cholesky's bits
    for threads in ("1", "2"):
        model = tmp_path / f"threads{threads}.bin"
        subprocess.run(
            [sys.executable, "-m", "hsikelm.cli", "train", "--config", str(config),
             "--train-fraction", "0.3", "--c", "100", "--gamma", "0.5", "--out", str(model)],
            env=blas_env(threads), capture_output=True, check=True, timeout=120,
        )
        models.append(model.read_bytes())
    assert models[0] == models[1]


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's OpenBLAS picks its kernel when loaded, so that
    ``OPENBLAS_CORETYPE`` can choose another one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64") or not _dynamic_arch_openblas(),
                    reason="needs x86-64 and an OpenBLAS built with DYNAMIC_ARCH")
def test_run_agrees_across_openblas_kernels(small_scene, tmp_path):
    # Prescott (SSE3) runs on any x86-64 CPU, and its kernels round
    # differently from the AVX ones a modern CPU gets by default
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fast_config_dict(small_scene, tmp_path / "unused")))
    env = {k: v for k, v in blas_env("1").items() if k != "OPENBLAS_CORETYPE"}
    outs = []
    for core in (None, "Prescott"):
        outs.append(tmp_path / (core or "default"))
        subprocess.run(
            [sys.executable, "-m", "hsikelm.cli", "run", "--config", str(config),
             "--out", str(outs[-1])],
            env=dict(env, OPENBLAS_CORETYPE=core) if core else env,
            capture_output=True, check=True, timeout=120,
        )
    reports = [json.loads((out / "run_report.json").read_text()) for out in outs]
    for key in ("chosen_hyperparams", "oa", "aa", "kappa"):
        assert reports[0][key] == reports[1][key]
    for name in ("confusion.csv", "classification_map.ppm"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    traces = [np.loadtxt(out / "ssa_trace.csv", delimiter=",", skiprows=1) for out in outs]
    assert traces[0].shape == traces[1].shape
    np.testing.assert_allclose(traces[1], traces[0], rtol=1e-9, atol=0)


def test_tune_kelm_degenerate_bounds():
    x, y = _blobs(n_per_class=6, seed=2)
    cfg = SwarmConfig(lower=np.array([1.0, 0.0]), upper=np.array([1.0, 0.0]),
                      pop_size=4, max_iter=2, seed=0)
    result = tune_kelm(x, y, cfg, stratified_fold_ids(y, 2, seed=0))
    assert result.hyper.c == 10.0
    assert result.hyper.gamma == 1.0


def test_fold_ids_keep_the_configured_folds():
    # pinned: where no class is short the ids, and so every tune on them, must not move
    y = np.array([3, 1, 2, 3, 2, 1, 3, 2, 1, 3, 2, 3])
    assert stratified_fold_ids(y, folds=3, seed=7).tolist() == [0, 2, 2, 1, 0, 1, 0, 0, 0, 1, 1, 2]
    for counts, folds in (([6, 1], 5), ([3, 5, 3], 5), ([9, 2, 1, 4], 5), ([5, 5], 2)):
        y = np.repeat(np.arange(1, len(counts) + 1), counts)
        fold_of = stratified_fold_ids(y, folds, seed=0)
        assert set(fold_of.tolist()) == set(range(folds))  # every fold holds a sample
        for c, count in zip(np.unique(y), counts):
            # round robin: a class with c < F samples sits in exactly c folds
            assert sorted(fold_of[y == c].tolist()) == sorted(np.arange(count) % folds)


def test_fold_ids_reject_more_folds_than_the_largest_class():
    with pytest.raises(ConfigError, match="folds=2 leaves a fold empty"):
        stratified_fold_ids(np.array([1, 2, 3]), 2, 0)
    with pytest.raises(ConfigError, match="folds must be >= 2, got 1"):
        stratified_fold_ids(np.array([1, 1, 2, 2]), 1, 0)
