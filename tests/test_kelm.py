import re
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist

from hsikelm import kelm, mstv, parallel
from hsikelm.errors import ConfigError, DataError, NumericalError
from hsikelm.kelm import (
    KelmHyperparams,
    KelmModel,
    load_model,
    mse_fitness,
    one_hot,
    predict,
    rbf_kernel,
    save_model,
    train,
)

from conftest import BLOCK_SIZES, clustered_samples, row_blocks


def oracle_scores(train_x, labels, c, gamma, query_x):
    """Dense explicit-inverse reference: loops for the kernel, inv() for the solve."""
    n = len(train_x)
    class_ids = sorted(set(int(v) for v in labels))
    omega = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            omega[i, j] = np.exp(-gamma * np.sum((train_x[i] - train_x[j]) ** 2))
    y = np.zeros((n, len(class_ids)))
    for i, label in enumerate(labels):
        y[i, class_ids.index(int(label))] = 1.0
    alpha = np.linalg.inv(omega + np.eye(n) / c) @ y
    k = np.empty((len(query_x), n))
    for i in range(len(query_x)):
        for j in range(n):
            k[i, j] = np.exp(-gamma * np.sum((query_x[i] - train_x[j]) ** 2))
    return k @ alpha


def test_rbf_kernel_values():
    assert rbf_kernel(np.zeros((2, 3)), gamma=3.0).tolist() == [[1.0] * 3] * 2
    assert rbf_kernel(np.array([1.0]), gamma=1.0)[0] == pytest.approx(0.3678794, abs=1e-7)
    sq_dist = np.ones(4)
    values = rbf_kernel(sq_dist, np.array([1.0, 10.0, 100.0, 1000.0]))
    assert sq_dist.tolist() == [1.0] * 4  # the distances are not overwritten
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-100


SQRT_TINY = np.sqrt(np.finfo(np.float64).tiny)


def test_rbf_kernel_floor():
    floor = kelm._LOG_FLOOR
    sq_dist = np.concatenate([np.linspace(0.0, 800.0, 4001),
                              [-floor, np.nextafter(-floor, 0.0), np.nextafter(-floor, np.inf)]])
    plain = np.exp(-1.0 * sq_dist)
    assert np.any((plain > 0) & (plain < SQRT_TINY))  # the floor has values to remove
    kept = -1.0 * sq_dist >= floor
    want = np.where(kept, plain, 0.0)
    before = sq_dist.copy()
    values = rbf_kernel(sq_dist, 1.0)
    assert np.array_equal(sq_dist, before)  # the distances are not overwritten
    assert np.array_equal(values[kept], plain[kept])  # bit-equal at or above the floor
    assert np.all(values[~kept] == 0.0) and np.all(values[kept] >= SQRT_TINY)
    assert not np.any((values > 0) & (values < SQRT_TINY))
    # into a separate array, and in place as the KPCA calls it
    out = np.full_like(sq_dist, np.nan)
    assert rbf_kernel(sq_dist, 1.0, out=out) is out and np.array_equal(out, want)
    assert np.array_equal(sq_dist, before)
    assert rbf_kernel(sq_dist, 1.0, out=sq_dist) is sq_dist and np.array_equal(sq_dist, want)
    # the floor on exponents already written: a bound below it leaves the check to the
    # min pass; a bound at or above it is trusted, so the plain exp runs
    assert np.array_equal(kelm.floored_exp(-1.0 * before, lowest=floor - 1.0), want)
    assert np.array_equal(kelm.floored_exp(-1.0 * before, lowest=floor), plain)
    # rbf_kernel's d_max is that bound as a distance, trusted the same way
    assert np.array_equal(rbf_kernel(before, 1.0, d_max=800.0), want)
    assert np.array_equal(rbf_kernel(before, 1.0, d_max=-floor), plain)
    # an empty block, and a gamma broadcast against the distances
    assert rbf_kernel(np.empty((0, 3)), 500.0).shape == (0, 3)
    assert rbf_kernel(np.empty(0), 500.0, out=np.empty(0)).size == 0
    values = rbf_kernel(np.ones(4), np.array([1.0, 300.0, -floor, 400.0]))
    assert values[:3].tolist() == np.exp([-1.0, -300.0, floor]).tolist() and values[3] == 0.0
    assert np.isnan(rbf_kernel(np.array([np.nan, 1000.0, 1.0]), 1.0)).tolist() == [True, False, False]


def test_train_and_predict_where_the_floor_fires_equal_the_unfloored_formula():
    x, y = clustered_samples()
    rng = np.random.default_rng(1)
    query = x[rng.choice(len(x), 40, replace=False)] + 0.02 * rng.normal(size=(40, 4))
    targets = one_hot(y, [1, 2, 3])
    for log10_c, log10_gamma in [(-1.0, 1.8), (1.0, 1.95), (3.0, 2.1)]:
        c, gamma = 10.0 ** log10_c, 10.0 ** log10_gamma
        omega = np.exp(-gamma * cdist(x, x, "sqeuclidean"))
        query_kernel = np.exp(-gamma * cdist(query, x, "sqeuclidean"))
        for kernel in (omega, query_kernel):
            assert np.any((kernel > 0) & (kernel < SQRT_TINY))
        with parallel.single_threaded_blas():  # as train solves
            alpha = cho_solve(cho_factor(omega + np.eye(len(x)) / c, lower=True), targets)
        want = query_kernel @ alpha
        scores, labels = predict(train(x, y, KelmHyperparams(c=c, gamma=gamma)), query)
        # the terms the floor drops are below the last bit of any score above
        # about 1e-138; only scores far below that can move, and by less than the floor
        large = np.abs(want) >= 1e-130
        assert np.all(large.any(axis=1))
        assert np.array_equal(scores[large], want[large])
        assert np.all(np.abs(scores - want) < SQRT_TINY)
        assert np.array_equal(labels, np.argmax(want, axis=1) + 1)


def test_far_query_scores_zero_and_takes_the_lowest_class():
    """A query whose every kernel value lies below the floor scores all-zero,
    so predict's tie rule gives it the lowest class id; the unfloored values
    (about 1e-174 to 1e-210) would have picked the nearest class, 3."""
    x = np.array([[0.0], [0.1], [0.2]])
    hyper = KelmHyperparams(c=1.0, gamma=100.0)
    model = train(x, [1, 2, 3], hyper)
    query = np.array([[2.2]])
    unfloored = np.exp(-hyper.gamma * cdist(query, x, "sqeuclidean")) @ model.alpha
    assert np.all(np.abs(unfloored) > 0) and np.argmax(unfloored) == 2
    scores, labels = predict(model, query)
    assert scores.tolist() == [[0.0, 0.0, 0.0]] and labels.tolist() == [1]


@pytest.mark.parametrize("gamma, skipped", [(0.5, True), (60.0, False)])
def test_predict_skips_the_floor_pass_only_where_it_cannot_fire(floor_passes, monkeypatch, gamma,
                                                                 skipped):
    # 40 unit-range features, as the fused ones; at gamma 0.5 the distance
    # bound shows the floor cannot fire, at 60 it fires on some entries
    rng = np.random.default_rng(14)
    x = rng.uniform(size=(2 * parallel.BLOCK_ROWS + 300, 40))
    model = KelmModel(train_x=x[:300], alpha=rng.normal(size=(300, 3)),
                      hyper=KelmHyperparams(c=1.0, gamma=gamma), class_ids=np.array([1, 2, 3]))
    scores, labels = predict(model, x[300:])
    assert len(floor_passes) == 2 and all(s == skipped for s, _ in floor_passes)
    assert all(fired != skipped for _, fired in floor_passes)
    assert np.any(scores != 0.0)
    monkeypatch.setattr(kelm, "sq_dist_bound", lambda a, b: np.inf)  # the pass on every block
    forced_scores, forced_labels = predict(model, x[300:])
    assert np.array_equal(scores, forced_scores) and np.array_equal(labels, forced_labels)
    assert len(floor_passes) == 4 and not any(s for s, _ in floor_passes[2:])


def test_predict_floors_the_farthest_pair_at_the_edge_of_the_bound(floor_passes):
    # the query is the training row's mirror: the pair's squared distance is
    # exactly (||a|| + ||b||)², and gamma puts its exponent just below the floor
    a = np.random.default_rng(15).uniform(size=(1, 40))
    gamma = -kelm._LOG_FLOOR / cdist(-a, a, "sqeuclidean")[0, 0] * (1.0 + 1e-12)
    model = KelmModel(train_x=a, alpha=np.ones((1, 1)), hyper=KelmHyperparams(c=1.0, gamma=gamma),
                      class_ids=np.array([1]))
    scores, _ = predict(model, -a)
    assert floor_passes == [(False, True)]
    assert scores.tolist() == [[0.0]]  # unfloored, about 1.5e-154


def test_squared_distance_bound():
    rng = np.random.default_rng(16)
    for d in (1, 3, 40, 1000):
        a = rng.normal(size=(50, d))
        longest = a[np.argmax(np.sum(a * a, axis=1))]
        # b's longest row points away from a's: that pair's distance is the bound
        b = np.vstack([0.1 * rng.normal(size=(20, d)), -1.3 * longest])
        d_max = kelm.sq_dist_bound(a, b)
        farthest = cdist(a, b, "sqeuclidean").max()
        assert farthest <= d_max <= (1.0 + 2 * kelm._BOUND_MARGIN) * farthest
    # float32 rows are summed in float64, as the KPCA's stack is
    a32 = rng.uniform(size=(30, 60)).astype(np.float32)
    assert kelm.sq_dist_bound(a32, a32) == kelm.sq_dist_bound(a32.astype(np.float64), a32)
    # an empty side adds no length
    assert kelm.sq_dist_bound(np.empty((0, 3)), np.ones((2, 3))) == kelm.sq_dist_bound(
        np.zeros((1, 3)), np.ones((2, 3)))


def test_hyperparams_validated():
    for c, gamma, message in [
        (0.0, 1.0, "regularization coefficient must be finite and > 0, got 0.0"),
        (float("inf"), 1.0, "regularization coefficient must be finite and > 0, got inf"),
        (1.0, -2.0, "kernel gamma must be finite and > 0, got -2.0"),
        (1.0, float("nan"), "kernel gamma must be finite and > 0, got nan"),
    ]:
        with pytest.raises(ConfigError, match=message):
            KelmHyperparams(c=c, gamma=gamma)


def test_two_point_hand_case():
    model = train(np.array([[0.0], [1.0]]), [1, 2], KelmHyperparams(c=1.0, gamma=1.0))
    expected_alpha = np.array([[0.517509, -0.095195], [-0.095195, 0.517509]])
    assert np.allclose(model.alpha, expected_alpha, atol=1e-5)
    scores, labels = predict(model, np.array([[0.0]]))
    assert np.allclose(scores[0], [0.48249, 0.09519], atol=1e-5)
    assert labels[0] == 1


def test_residual_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 4))
    y = rng.integers(1, 4, size=30)
    y[:3] = [1, 2, 3]
    hyper = KelmHyperparams(c=10.0, gamma=0.5)
    model = train(x, y, hyper)
    omega = np.exp(-hyper.gamma * ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    system = omega + np.eye(30) / hyper.c
    residual = np.max(np.abs(system @ model.alpha - one_hot(y, model.class_ids)))
    assert residual <= 1e-8 * 2


def test_train_holds_one_n_by_n_array():
    # the kernel is written over its distances and factored in place: n² doubles
    # plus O(n·d), where a copy of the kernel or of its factor would add n² more
    rng = np.random.default_rng(4)
    n, d = 600, 10
    x = rng.normal(size=(n, d))
    y = np.arange(n) % 4 + 1
    hyper = KelmHyperparams(c=10.0, gamma=0.05)
    train(x[:20], y[:20], hyper)  # first-call setup outside the measurement
    tracemalloc.start()
    try:
        train(x, y, hyper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n * n + 4 * n * d)


def _kernel_system(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    system = rbf_kernel(cdist(x, x, "sqeuclidean"), 0.3)
    system[np.diag_indices(n)] += 0.01
    return system, rng


@pytest.mark.parametrize("n", [1, 7, 330])
@pytest.mark.parametrize("k", [1, 16])
def test_spd_solve_bit_equal_to_scipy_cholesky(n, k):
    system, rng = _kernel_system(n, seed=n)
    rhs = rng.normal(size=(n, k))
    want = cho_solve(cho_factor(system, lower=True), rhs)
    factor = cho_factor(system, lower=True)[0]
    matrix = system.copy()
    got = kelm._spd_solve(matrix, rhs)  # factors matrix in place
    assert got.flags.f_contiguous and np.array_equal(got, want)
    upper = np.triu_indices(n, 1)
    assert np.array_equal(matrix[upper], factor.T[upper])  # the factor, transposed
    lower = np.tril_indices(n)
    assert np.array_equal(matrix[lower], system[lower])  # the system, diagonal included
    # the product the residual gate takes reads only the diagonal and the lower triangle
    assert np.allclose(kelm._lower_symmetric_product(matrix, got), rhs, rtol=0, atol=1e-9)


def test_spd_solve_one_attempt_fails_on_singular_and_indefinite():
    # one factorization, no retry: a singular PSD system is a NumericalError,
    # and the diagonal and the lower triangle still hold the system afterwards
    rhs = np.array([[1.0], [2.0], [3.0]])
    for v in ([1.0, 1.0, 1.0], [2.0, 1.0, 3.0]):
        singular = np.outer(v, v)  # PSD, rank 1: the second pivot is exactly 0
        with pytest.raises(LinAlgError):
            cho_factor(singular, lower=True)
        matrix = singular.copy()
        with pytest.raises(NumericalError, match="2-th leading minor"):
            kelm._spd_solve(matrix, rhs)
        assert np.array_equal(np.tril(matrix), np.tril(singular))  # the diagonal included
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericalError, match="not positive definite"):
        kelm._spd_solve(indefinite, rhs[:2])
    assert indefinite[1, 0] == 2.0 and np.diag(indefinite).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("same_label", [True, False], ids=["same-label", "other-label"])
@pytest.mark.parametrize("log10_gamma", [-3.0, 3.0])
@pytest.mark.parametrize("log10_c", [-2.0, 4.0])
def test_train_with_a_duplicated_sample_at_the_corners_of_the_tuning_box(log10_c, log10_gamma,
                                                                         same_label):
    # inside log10 C <= 4 the system's smallest eigenvalue is at least 1/C >= 1e-4,
    # far above Cholesky's backward error: one attempt factors it even when two
    # training samples coincide, and the residual gate passes
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(400, 20))
    x[1] = x[0]
    labels = rng.integers(1, 4, size=400)
    labels[1] = labels[0] if same_label else labels[0] % 3 + 1
    model = train(x, labels, KelmHyperparams(c=10.0 ** log10_c, gamma=10.0 ** log10_gamma))
    assert np.all(np.isfinite(model.alpha))


def test_solve_kernel_system_residual_gate_fires_on_a_corrupted_solution(monkeypatch):
    omega, rng = _kernel_system(40, seed=3)
    targets = rng.normal(size=(40, 3))
    alpha = kelm.solve_kernel_system(omega.copy(), targets, 10.0)
    system = omega + np.eye(40) / 10.0
    assert np.array_equal(alpha, cho_solve(cho_factor(system, lower=True), targets))
    spd_solve = kelm._spd_solve

    def corrupted(matrix, rhs):
        x = spd_solve(matrix, rhs)
        x[7, 1] += 1e-6
        return x

    monkeypatch.setattr(kelm, "_spd_solve", corrupted)
    with pytest.raises(NumericalError, match="residual too large"):
        kelm.solve_kernel_system(omega.copy(), targets, 10.0)


def test_solve_kernel_system_rejects_a_nan_residual():
    omega, rng = _kernel_system(10, seed=1)
    targets = rng.normal(size=(10, 2))
    targets[4, 1] = np.nan
    with pytest.raises(NumericalError, match="residual too large: nan"):
        kelm.solve_kernel_system(omega, targets, 10.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_and_predict_reject_non_finite_features(bad, monkeypatch):
    model = train(np.array([[0.0], [1.0]]), [1, 2], KelmHyperparams(c=1.0, gamma=1.0))
    monkeypatch.setattr(kelm, "cdist", lambda *a, **k: pytest.fail("a kernel was built"))
    with pytest.raises(DataError, match="non-finite value in features"):
        train(np.array([[0.0], [bad], [1.0]]), [1, 2, 2], KelmHyperparams(c=1.0, gamma=1.0))
    with pytest.raises(DataError, match="non-finite value in features"):
        predict(model, np.array([[0.5], [bad]]))


def test_spd_solve_rejects_shapes_lapack_cannot_take():
    system, rng = _kernel_system(4, seed=0)
    spaced = np.zeros((8, 8))
    spaced[::2, ::2] = system
    for matrix, rhs in [
        (system, np.ones((3, 2))),  # rhs rows
        (np.asfortranarray(system[:, :3]), np.ones((4, 2))),  # not square
        (np.asfortranarray(system + np.eye(4)), np.ones((4, 2))),  # F-order
        (spaced[::2, ::2], np.ones((4, 2))),  # strided
        (system.astype(np.float32), np.ones((4, 2))),
        (np.empty((0, 0)), np.ones((0, 2))),  # LAPACK rejects a leading dimension of 0
        (np.ones((4, 4, 1)), np.ones((4, 2))),
    ]:
        with pytest.raises(ValueError, match="bad solve shapes"):
            kelm._spd_solve(matrix, rhs)
    readonly = system.copy()
    readonly.flags.writeable = False
    with pytest.raises(ValueError, match="bad solve shapes"):
        kelm._spd_solve(readonly, np.ones(4))


def test_train_and_predict_reject_misshapen_input(monkeypatch):
    model = train(np.array([[0.0], [1.0]]), [1, 2], KelmHyperparams(c=1.0, gamma=1.0))
    monkeypatch.setattr(kelm, "cdist", lambda *a, **k: pytest.fail("a kernel was built"))
    with pytest.raises(DataError, match="3 samples but 2 labels"):
        train(np.zeros((3, 1)), [1, 2], KelmHyperparams(c=1.0, gamma=1.0))
    with pytest.raises(DataError, match=r"features must be 2-D, got shape \(3,\)"):
        train(np.zeros(3), [1, 2, 2], KelmHyperparams(c=1.0, gamma=1.0))
    with pytest.raises(DataError, match=r"features must be 2-D, got shape \(2,\)"):
        predict(model, np.zeros(2))


def test_train_without_samples_is_a_data_error_before_lapack(capfd):
    with pytest.raises(DataError, match="no training samples"):
        train(np.empty((0, 2)), [], KelmHyperparams(c=1.0, gamma=1.0))
    assert capfd.readouterr() == ("", "")


def test_identity_kernel_limit():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 3))
    y = np.array([1 + i % 3 for i in range(12)])
    model = train(x, y, KelmHyperparams(c=1e12, gamma=1e6))
    assert np.allclose(model.alpha, one_hot(y, model.class_ids), atol=1e-5)
    _, pred = predict(model, x)
    assert np.array_equal(pred, y)


def test_class_ids_are_the_training_labels():
    model = train(np.array([[0.0], [1.0], [2.0]]), np.array([5, 2, 5], dtype=np.uint16),
                  KelmHyperparams(c=1.0, gamma=1.0))
    assert model.class_ids.tolist() == [2, 5] and model.class_ids.dtype == np.int64
    assert model.alpha.shape == (3, 2)


def test_train_rejects_a_label_below_1():
    with pytest.raises(DataError, match=r"class_ids must be strictly ascending and >= 1, got \[0, 1\]"):
        train(np.array([[0.0], [1.0], [2.0]]), [0, 1, 1], KelmHyperparams(c=1.0, gamma=1.0))


def _model_fields():
    return {"train_x": np.zeros((3, 2)), "alpha": np.zeros((3, 2)),
            "hyper": KelmHyperparams(c=1.0, gamma=1.0), "class_ids": np.array([1, 2])}


@pytest.mark.parametrize("change", [
    {"class_ids": np.array([2, 1])},
    {"class_ids": np.array([1, 1])},
    {"class_ids": np.array([0, 1])},
    {"class_ids": np.array([-3, 1])},
    {"class_ids": np.array([1.0, 2.0])},
    {"class_ids": np.array([1, 2], dtype=np.int32)},
    {"class_ids": np.array([1, 2], dtype=np.uint64)},
    {"class_ids": [1, 2]},
    {"class_ids": np.array([[1, 2]])},
    {"class_ids": np.array([1, 2, 3])},
    {"alpha": np.zeros((4, 2))},
    {"alpha": np.zeros((3, 2), dtype=np.float32)},
    {"alpha": np.zeros(3)},
    {"train_x": np.zeros(3)},
    {"train_x": np.zeros((3, 2), dtype=np.int64)},
    {"train_x": np.zeros((0, 2)), "alpha": np.zeros((0, 2))},
    {"alpha": np.zeros((3, 0)), "class_ids": np.zeros(0, dtype=np.int64)},
    {"train_x": np.array([[0.0, 0.0], [0.0, np.nan], [0.0, 0.0]])},
    {"alpha": np.array([[0.0, 0.0], [0.0, 0.0], [np.inf, 0.0]])},
], ids=["descending", "repeated", "zero", "negative", "float", "int32", "uint64", "list", "2-d",
        "more-ids-than-columns", "alpha-rows", "float32-alpha", "1-d-alpha", "1-d-train-x",
        "int-train-x", "no-rows", "no-classes", "nan-train-x", "inf-alpha"])
def test_model_validator_rejects(change):
    with pytest.raises(DataError):
        KelmModel(**{**_model_fields(), **change})


def test_empty_prediction():
    model = train(np.array([[0.0], [1.0]]), [1, 2], KelmHyperparams(c=1.0, gamma=1.0))
    scores, labels = predict(model, np.empty((0, 1)))
    assert scores.shape == (0, 2)
    assert labels.shape == (0,)


def test_predict_dim_mismatch():
    model = train(np.array([[0.0], [1.0]]), [1, 2], KelmHyperparams(c=1.0, gamma=1.0))
    with pytest.raises(DataError):
        predict(model, np.zeros((3, 2)))


def test_mse_fitness():
    assert mse_fitness(np.eye(3), np.eye(3)) == 0.0
    y = one_hot([1, 2, 3], [1, 2, 3])
    assert mse_fitness(np.zeros((3, 3)), y) == pytest.approx(1.0 / 3.0)
    assert mse_fitness(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]])) == 0.25
    with pytest.raises(DataError):
        mse_fitness(np.zeros((2, 2)), np.zeros((2, 3)))


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(5, 61))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))
        y = rng.integers(1, k + 1, size=n)
        y[:k] = np.arange(1, k + 1)
        c = float(10 ** rng.uniform(-1, 2))
        gamma = float(10 ** rng.uniform(-2, 1))
        q = rng.normal(size=(7, d))
        model = train(x, y, KelmHyperparams(c=c, gamma=gamma))
        scores, _ = predict(model, q)
        assert np.allclose(scores, oracle_scores(x, y, c, gamma, q), rtol=1e-8, atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 4))
    y = rng.integers(1, 4, size=25)
    y[:3] = [1, 2, 3]
    q = rng.normal(size=(6, 4))
    hyper = KelmHyperparams(c=5.0, gamma=0.7)
    base, _ = predict(train(x, y, hyper), q)
    perm = rng.permutation(25)
    permuted, _ = predict(train(x[perm], y[perm], hyper), q)
    assert np.allclose(base, permuted, atol=1e-10)


def _five_class_clusters(seed, n=400, m=300, d=6):
    """n training samples of 5 classes, two clusters each, and m queries near the clusters."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 2.0, size=(10, d))
    cluster = np.arange(n) % 10
    x = centres[cluster] + 0.3 * rng.normal(size=(n, d))
    q = centres[np.arange(m) % 10] + 0.4 * rng.normal(size=(m, d))
    return x, cluster % 5 + 1, q


# Over 40 permutations on each of fixture seeds 0-3 the scores moved by at
# most 2.6e-14 at (log10 C, log10 gamma) = (1, 0) and 4.4e-12 at the box's
# largest C, (4, 0), where Omega + I/C is worst conditioned: the order of the
# samples changes the rounding of the Cholesky factor, not the system. The
# tolerances are about 10 times those.
@pytest.mark.parametrize("log10_c, log10_gamma, tol", [(1.0, 0.0, 3e-13), (4.0, 0.0, 5e-11)])
@pytest.mark.parametrize("seed", [0, 1])
def test_scores_invariant_to_the_order_of_the_training_samples(seed, log10_c, log10_gamma, tol):
    x, y, q = _five_class_clusters(seed)
    hyper = KelmHyperparams(c=10.0 ** log10_c, gamma=10.0 ** log10_gamma)
    scores, labels = predict(train(x, y, hyper), q)
    rng = np.random.default_rng(100 + seed)
    for _ in range(5):
        p = rng.permutation(y.size)
        permuted, permuted_labels = predict(train(x[p], y[p], hyper), q)
        np.testing.assert_allclose(permuted, scores, rtol=0, atol=tol)
        assert np.array_equal(permuted_labels, labels)


@pytest.mark.parametrize("log10_c, log10_gamma", [(1.0, 0.0), (4.0, 0.0), (-2.0, -1.0)])
@pytest.mark.parametrize("seed", [0, 1])
def test_relabeling_the_classes_permutes_the_score_columns_exactly(seed, log10_c, log10_gamma):
    """Class k renamed sigma(k): the one-hot column of sigma(k) is the old column
    of k, so its scores are that column's, bit for bit, and each predicted label
    is renamed the same way."""
    x, y, q = _five_class_clusters(seed)
    hyper = KelmHyperparams(c=10.0 ** log10_c, gamma=10.0 ** log10_gamma)
    scores, labels = predict(train(x, y, hyper), q)
    rng = np.random.default_rng(200 + seed)
    for _ in range(3):
        sigma = rng.permutation(5) + 1  # class k becomes sigma[k - 1]
        renamed, renamed_labels = predict(train(x, sigma[y - 1], hyper), q)
        assert np.array_equal(renamed[:, sigma - 1], scores)
        assert np.array_equal(renamed_labels, sigma[labels - 1])


def test_omega_symmetry_and_regularized_spectrum():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 3))
    gamma, c = 0.8, 2.0
    omega = np.exp(-gamma * ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    assert np.allclose(omega, omega.T)
    assert np.allclose(np.diag(omega), 1.0)
    eigs = np.linalg.eigvalsh(omega + np.eye(20) / c)
    assert eigs.min() >= 1.0 / c - 1e-10


def test_monotone_regularization():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 3))
    y = rng.integers(1, 4, size=30)
    y[:3] = [1, 2, 3]
    targets = one_hot(y, np.array([1, 2, 3]))
    errors = []
    for c in (0.1, 1.0, 10.0, 100.0, 1e3, 1e4):
        model = train(x, y, KelmHyperparams(c=c, gamma=1.0))
        scores, _ = predict(model, x)
        errors.append(mse_fitness(scores, targets))
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


def test_tie_break_toward_lowest_class():
    model = train(np.array([[0.0], [2.0]]), [1, 2], KelmHyperparams(c=1.0, gamma=1.0))
    model.alpha = np.array([[0.5, 0.5], [0.5, 0.5]])
    _, labels = predict(model, np.array([[1.0]]))
    assert labels[0] == 1


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(15, 3))
    y = rng.integers(1, 3, size=15)
    y[:2] = [1, 2]
    model = train(x, y, KelmHyperparams(c=3.0, gamma=0.4))
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    q = rng.normal(size=(4, 3))
    assert np.array_equal(predict(model, q)[0], predict(back, q)[0])
    assert back.hyper == model.hyper
    assert np.array_equal(back.class_ids, model.class_ids)


def _trained_model():
    rng = np.random.default_rng(6)
    y = np.array([1, 2, 3, 1, 2, 3, 2])
    return train(rng.normal(size=(7, 3)), y, KelmHyperparams(c=3.0, gamma=0.4))


def _write_archive(path, **members):
    with open(path, "wb") as fh:  # np.savez would append .npz to a path
        np.savez(fh, **members)


def _members(model):
    return {"train_x": model.train_x, "alpha": model.alpha, "class_ids": model.class_ids,
            "hyper": np.array([model.hyper.c, model.hyper.gamma])}


def test_saved_model_is_a_numpy_archive_of_four_members(tmp_path):
    model = _trained_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert not (tmp_path / "model.bin.npz").exists()
    with np.load(path, allow_pickle=False) as archive:
        assert sorted(archive.files) == ["alpha", "class_ids", "hyper", "train_x"]
        for key, value in _members(model).items():
            assert archive[key].dtype == value.dtype and np.array_equal(archive[key], value)


def test_big_endian_archive_loads_and_predicts_the_same(tmp_path):
    model = _trained_model()
    path = tmp_path / "big.bin"
    _write_archive(path, **{key: value.astype(value.dtype.newbyteorder(">"))
                            for key, value in _members(model).items()})
    back = load_model(path)
    q = np.random.default_rng(1).normal(size=(5, 3))
    assert np.array_equal(predict(back, q)[0], predict(model, q)[0])
    assert np.array_equal(predict(back, q)[1], predict(model, q)[1])


def _garbage(kind, path):
    model = _trained_model()
    if kind == "not-a-model":  # bytes that are not a zip archive
        path.write_bytes(b"not a model")
    elif kind == "truncated":
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:200])
    elif kind == "plain-npy":
        with open(path, "wb") as fh:
            np.save(fh, model.train_x)
    elif kind == "missing-member":
        _write_archive(path, **{k: v for k, v in _members(model).items() if k != "alpha"})
    elif kind == "object-member":
        _write_archive(path, **{**_members(model), "class_ids": np.array([1, "2", None], dtype=object)})
    elif kind == "negative-c":
        _write_archive(path, **{**_members(model), "hyper": np.array([-1.0, 0.4])})
    elif kind == "one-hyperparameter":
        _write_archive(path, **{**_members(model), "hyper": np.array([3.0])})
    elif kind == "alpha-rows":
        _write_archive(path, **{**_members(model), "alpha": model.alpha[:-1]})


@pytest.mark.parametrize("kind", ["not-a-model", "truncated", "plain-npy", "missing-member",
                                  "object-member", "negative-c", "one-hyperparameter", "alpha-rows"])
def test_load_model_rejects_garbage(tmp_path, kind):
    path = tmp_path / "bad.bin"
    _garbage(kind, path)
    with pytest.raises(DataError, match=re.escape(f"unreadable model file {path}: ")):
        load_model(path)


@pytest.mark.parametrize("class_ids", [
    np.array([1.0, 2.0, 3.0]), np.array([3, 2, 1]), np.array([0, 1, 2]), np.array([1, 1, 2]),
    np.array([1, 2, 2**64 - 1], dtype=np.uint64), np.array([True, True, True]),
    np.array([1, 2, 3], dtype=np.int32), np.array([[1, 2, 3]]),
], ids=["floats", "descending", "below-1", "repeated", "beyond-int64", "bool", "int32", "2-d"])
def test_load_model_rejects_bad_class_ids(tmp_path, class_ids):
    path = tmp_path / "bad.bin"
    _write_archive(path, **{**_members(_trained_model()), "class_ids": class_ids})
    with pytest.raises(DataError, match="class_ids"):
        load_model(path)


# -- row blocks ---------------------------------------------------------------

def _blocks_model(seed=0, n=40, d=5, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    labels = np.arange(n) % classes + 1
    return train(x, labels, KelmHyperparams(c=10.0, gamma=0.3))


def _serial_block_scores(model, x):
    """The parent formula on the same row blocks, one after the other."""
    scores = np.empty((x.shape[0], model.class_ids.size))
    with parallel.single_threaded_blas():
        for start, stop in row_blocks(x.shape[0]):
            k = rbf_kernel(cdist(x[start:stop], model.train_x, "sqeuclidean"), model.hyper.gamma)
            scores[start:stop] = k @ model.alpha
    return scores


@pytest.mark.parametrize("m", BLOCK_SIZES)
def test_predict_blocks_bit_equal_to_serial_blocks(cpus, m):
    model = _blocks_model()
    x = np.random.default_rng(m).normal(size=(m, 5))
    scores, labels = predict(model, x)
    want = _serial_block_scores(model, x)
    assert scores.shape == (m, 3) and np.array_equal(scores, want)
    assert np.array_equal(labels, model.class_ids[np.argmax(want, axis=1)] if m else np.empty(0))


def test_predict_block_failure_order_and_blas_threads(monkeypatch, cpus, openblas_at_two_threads):
    model = _blocks_model()
    x = np.random.default_rng(1).normal(size=(5 * parallel.BLOCK_ROWS, 5))
    controls = openblas_at_two_threads
    seen = []  # BLAS thread counts inside the blocks
    cdist_before = kelm.cdist

    def failing(a, b, metric, out):
        seen.append([get() for _, get in controls])
        start = int(np.flatnonzero((x == a[0]).all(axis=1))[0])
        if start == parallel.BLOCK_ROWS:
            time.sleep(0.2)  # let the later failure finish first
            raise DataError("block 1 failed")
        if start == 3 * parallel.BLOCK_ROWS:
            raise NumericalError("block 3 failed")
        return cdist_before(a, b, metric, out=out)

    monkeypatch.setattr(kelm, "cdist", failing)
    with pytest.raises(DataError, match="block 1 failed"):
        predict(model, x)
    assert seen and all(counts == [1] * len(controls) for counts in seen)
    assert [get() for _, get in controls] == [2] * len(controls)


def test_blas_pinned_in_run_jobs_train_and_kpca_fit(monkeypatch, openblas_at_two_threads):
    controls = openblas_at_two_threads
    seen = {}  # stage -> BLAS thread counts inside it

    def record(name):
        seen[name] = [get() for _, get in controls]

    def recorded(name, func):
        def wrapper(*args, **kwargs):
            record(name)
            return func(*args, **kwargs)
        return wrapper

    def failing_job(k):
        record("failing job")
        raise DataError("job failed")

    parallel.run_jobs(lambda k: record("job"), 1)
    with pytest.raises(DataError, match="job failed"):
        parallel.run_jobs(failing_job, 1)
    assert [get() for _, get in controls] == [2] * len(controls)
    monkeypatch.setattr(kelm, "solve_kernel_system", recorded("train", kelm.solve_kernel_system))
    monkeypatch.setattr(mstv, "eigh", recorded("eigh", mstv.eigh))
    _blocks_model()
    mstv.kpca_fit(np.random.default_rng(0).normal(size=(30, 4)), 2, 0.5, 20, seed=0)
    assert seen == dict.fromkeys(["job", "failing job", "train", "eigh"], [1] * len(controls))
    assert [get() for _, get in controls] == [2] * len(controls)
