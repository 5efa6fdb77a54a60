import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import hsikelm
from hsikelm import kelm, ssa
from hsikelm.errors import ConfigError, NumericalError
from hsikelm.ssa import (
    SsaConfig,
    SsaState,
    batch_fitness,
    cv_objective,
    default_tuning_config,
    init_state,
    optimize,
    stratified_fold_ids,
    tune_kelm,
    update_joiners,
    update_producers,
    update_scouts,
    write_trace_csv,
)

from conftest import fast_config_dict


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
    return SsaConfig(lower=np.full(d, -1e6), upper=np.full(d, 1e6), **defaults)


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
        SsaConfig(lower=np.array([0.0]), upper=np.array([-1.0]))
    with pytest.raises(ConfigError):
        SsaConfig(lower=np.array([0.0]), upper=np.array([1.0]), pop_size=1)
    with pytest.raises(ConfigError):
        SsaConfig(lower=np.array([0.0]), upper=np.array([1.0]), producer_ratio=0.0)
    with pytest.raises(ConfigError):
        SsaConfig(lower=np.array([0.0]), upper=np.array([1.0]), safety_threshold=1.0)
    with pytest.raises(ConfigError):
        SsaConfig(lower=np.array([0.0]), upper=np.array([1.0, 2.0]))


def test_constant_objective():
    cfg = SsaConfig(lower=np.array([-1.0]), upper=np.array([1.0]), pop_size=5, max_iter=6, seed=0)
    result = optimize(lambda x: 7.0, cfg)
    assert result.best_fit == 7.0
    assert result.trace_best == [7.0] * 6


def test_quadratic_1d_statistics():
    finals = []
    for seed in range(10):
        cfg = SsaConfig(lower=np.array([0.0]), upper=np.array([10.0]),
                        pop_size=30, max_iter=50, seed=seed)
        finals.append(optimize(lambda x: float((x[0] - 3.0) ** 2), cfg).best_fit)
    assert np.median(finals) < 1e-4


def test_trace_monotone_and_bounds_respected():
    lo, hi = np.full(3, -2.0), np.full(3, 2.0)
    cfg = SsaConfig(lower=lo, upper=hi, pop_size=10, max_iter=25, seed=5)

    def check(state):
        assert np.all(state.positions >= lo - 1e-12) and np.all(state.positions <= hi + 1e-12)
        assert np.all(state.candidates >= lo - 1e-12) and np.all(state.candidates <= hi + 1e-12)

    result = optimize(lambda x: float(np.sum(x**2)), cfg, on_iteration=check)
    assert all(a >= b for a, b in zip(result.trace_best, result.trace_best[1:]))


def test_deterministic_given_seed():
    cfg = SsaConfig(lower=np.array([-4.0, -4.0]), upper=np.array([4.0, 4.0]),
                    pop_size=8, max_iter=12, seed=9)
    obj = lambda x: float(np.sum(x**2))
    a = optimize(obj, cfg)
    b = optimize(obj, cfg)
    assert a.trace_best == b.trace_best
    assert np.array_equal(a.best_pos, b.best_pos)
    other = optimize(obj, SsaConfig(lower=cfg.lower, upper=cfg.upper,
                                    pop_size=8, max_iter=12, seed=10))
    assert a.trace_best != other.trace_best


def test_nan_objective_aborts():
    cfg = SsaConfig(lower=np.array([0.0]), upper=np.array([1.0]), pop_size=4, max_iter=2, seed=0)
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
    monkeypatch.setattr(ssa.os, "sched_getaffinity", lambda pid: set(range(8)))
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
        producers, joiners = order[: cfg.producer_count], order[cfg.producer_count :]
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
    cfg = SsaConfig(lower=np.full(3, -3.0), upper=np.full(3, 3.0), pop_size=12,
                    max_iter=10, scout_ratio=0.3, seed=seed)
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
    cfg = SsaConfig(lower=np.array([2.0, -1.0]), upper=np.array([2.0, -1.0]),
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


def _cv_objective(x, y, folds, seed):
    effective, fold_of = stratified_fold_ids(y, folds, seed)
    class_ids = np.unique(y)

    def objective(z):
        hyper = kelm.KelmHyperparams(c=10.0 ** z[0], gamma=10.0 ** z[1])
        errors = []
        for f in range(effective):
            held = fold_of == f
            train = ~held if effective > 1 else held  # one fold: fit and score on everything
            model = kelm.train(x[train], y[train], hyper)
            scores, _ = kelm.predict(model, x[held])
            errors.append(kelm.mse_fitness(scores, kelm.one_hot(y[held], class_ids)))
        return float(np.mean(errors))

    return objective


def test_tune_kelm_separable_blobs():
    x, y = _blobs()
    cfg = default_tuning_config(seed=0, pop_size=10, max_iter=8)
    result = tune_kelm(x, y, cfg, folds=3)
    assert result.best_fitness < 0.05
    # independent grid oracle: a sub-0.05 region exists inside the same bounds
    objective = _cv_objective(x, y, folds=3, seed=0)
    grid = [objective(np.array([lc, lg]))
            for lc in np.linspace(-2, 4, 7) for lg in np.linspace(-3, 3, 7)]
    assert min(grid) < 0.05
    assert result.best_fitness <= min(grid) + 0.05


@pytest.mark.parametrize("folds", [1, 3])
def test_cv_objective_equals_train_predict_oracle(folds):
    rng = np.random.default_rng(11)
    y = np.repeat([1, 2, 3], 12)
    x = rng.normal(size=(y.size, 7)) + 0.5 * y[:, None]
    objective, folds_used = cv_objective(x, y, folds, seed=4)
    oracle = _cv_objective(x, y, folds, seed=4)
    assert folds_used == folds
    for lc in np.linspace(-2, 4, 5):
        for lg in np.linspace(-3, 3, 5):
            z = np.array([lc, lg])
            assert objective(z) == oracle(z)


def test_cv_objective_pooled_equals_serial():
    rng = np.random.default_rng(2)
    y = np.repeat([1, 2, 3], [11, 12, 14])
    x = rng.normal(size=(y.size, 6)) + 0.5 * y[:, None]
    _, fold_of = stratified_fold_ids(y, 3, seed=1)
    assert len(set(np.bincount(fold_of).tolist())) > 1  # folds of unequal size
    objective, _ = cv_objective(x, y, 3, seed=1)
    grid = [np.array([lc, lg]) for lc in np.linspace(-2, 4, 5) for lg in np.linspace(-3, 3, 5)]
    serial = [objective(z) for z in grid]
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = list(pool.map(objective, grid[::-1]))[::-1]
    assert [v.hex() for v in pooled] == [v.hex() for v in serial]


def test_tune_kelm_residual_gate_fires_and_blas_threads_restored(monkeypatch, openblas_at_two_threads):
    x, y = _blobs(n_per_class=8, seed=3)
    cfg = SsaConfig(lower=np.array([1.0, 0.0]), upper=np.array([1.0, 0.0]),
                    pop_size=4, max_iter=2, seed=0)
    monkeypatch.setattr(kelm, "RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericalError, match="residual"):
        tune_kelm(x, y, cfg, folds=2)
    assert [get() for _, get in openblas_at_two_threads] == [2] * len(openblas_at_two_threads)


_TUNE_HEX = """
import numpy as np
from hsikelm.ssa import default_tuning_config, tune_kelm
rng = np.random.default_rng(5)
y = np.repeat([1, 2, 3], 100)
x = rng.normal(size=(y.size, 8)) + 0.4 * y[:, None]
r = tune_kelm(x, y, default_tuning_config(seed=0, pop_size=4, max_iter=2), folds=2)
print(" ".join(v.hex() for v in r.trace_best + r.trace_mean))
"""


@pytest.mark.skipif(not kelm.openblas_thread_controls(), reason="no loaded OpenBLAS to pin")
def test_tune_kelm_bits_independent_of_blas_threads():
    src = str(Path(hsikelm.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        run = subprocess.run([sys.executable, "-c", _TUNE_HEX], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        outputs.append(run.stdout)
    assert outputs[0].strip() and outputs[0] == outputs[1]


@pytest.mark.skipif(not kelm.openblas_thread_controls() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a loaded OpenBLAS and at least 2 CPUs")
def test_run_artifacts_independent_of_blas_threads_and_cpus(small_scene, tmp_path):
    raw = fast_config_dict(small_scene, tmp_path / "unused",
                           mstv={"k": 5, "n_components": 5, "landmark_count": 1000})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    src = str(Path(hsikelm.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    one_cpu = {min(os.sched_getaffinity(0))}
    artifacts = []
    for threads, cpus in (("1", one_cpu), ("2", None)):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        subprocess.run(
            [sys.executable, "-m", "hsikelm.cli", "run", "--config", str(config),
             "--out", str(out), "--canonical"],
            env=env, capture_output=True, check=True, timeout=120,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        artifacts.append([(out / name).read_bytes() for name in ("ssa_trace.csv", "run_report.json")])
    assert artifacts[0] == artifacts[1]


def test_tune_kelm_single_fold_is_training_mse():
    x, y = _blobs(n_per_class=10, seed=1)
    cfg = default_tuning_config(seed=1, pop_size=6, max_iter=4)
    result = tune_kelm(x, y, cfg, folds=1)
    hyper = result.hyper
    model = kelm.train(x, y, hyper)
    scores, _ = kelm.predict(model, x)
    training_mse = kelm.mse_fitness(scores, kelm.one_hot(y, model.class_ids))
    assert result.best_fitness == pytest.approx(training_mse, rel=1e-12)
    assert result.folds_used == 1


def test_tune_kelm_degenerate_bounds():
    x, y = _blobs(n_per_class=6, seed=2)
    cfg = SsaConfig(lower=np.array([1.0, 0.0]), upper=np.array([1.0, 0.0]),
                    pop_size=4, max_iter=2, seed=0)
    result = tune_kelm(x, y, cfg, folds=2)
    assert result.hyper.c == 10.0
    assert result.hyper.gamma == 1.0


def test_fold_reduction_warns():
    y = np.array([1, 1, 1, 1, 2])  # class 2 is a singleton
    with pytest.warns(UserWarning, match="reducing folds"):
        effective, _ = stratified_fold_ids(y, folds=5, seed=0)
    assert effective == 1
    with pytest.warns(UserWarning, match="reducing folds"):
        effective, fold_of = stratified_fold_ids(np.array([1, 1, 1, 2, 2, 2]), folds=5, seed=0)
    assert effective == 3
    # every training side keeps both classes
    for f in range(3):
        assert set(np.array([1, 1, 1, 2, 2, 2])[fold_of != f]) == {1, 2}
