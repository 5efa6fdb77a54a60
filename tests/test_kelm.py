import json
import struct

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist

from hsikelm import kelm
from hsikelm.errors import ConfigError, DataError, NumericalError
from hsikelm.kelm import (
    KelmHyperparams,
    load_model,
    mse_fitness,
    one_hot,
    predict,
    rbf_kernel,
    save_model,
    train,
)


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


def test_hyperparams_validated():
    with pytest.raises(ConfigError):
        KelmHyperparams(c=0.0, gamma=1.0)
    with pytest.raises(ConfigError):
        KelmHyperparams(c=1.0, gamma=-2.0)


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
    factor = np.empty((n, n), order="F")
    for got in (kelm._spd_solve(system, rhs), kelm._spd_solve(system, rhs, factor)):
        assert got.flags.f_contiguous and np.array_equal(got, want)
    assert np.array_equal(np.tril(factor), np.tril(cho_factor(system, lower=True)[0]))


def test_spd_solve_jitter_retry_and_indefinite():
    singular = np.ones((3, 3))  # PSD, rank 1
    rhs = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(LinAlgError):
        cho_factor(singular, lower=True)
    jittered = singular + kelm._JITTER * np.eye(3)
    want = cho_solve(cho_factor(jittered, lower=True), rhs)
    assert np.array_equal(kelm._spd_solve(singular, rhs), want)
    with pytest.raises(NumericalError, match="not positive definite"):
        kelm._spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), rhs[:2])


def test_spd_solve_rejects_shapes_lapack_cannot_take():
    system, rng = _kernel_system(4, seed=0)
    with pytest.raises(ValueError, match="bad solve shapes"):
        kelm._spd_solve(system, np.ones((3, 2)))
    with pytest.raises(ValueError, match="bad solve shapes"):
        kelm._spd_solve(system, np.ones((4, 2)), factor=np.empty((4, 4)))  # C-order


def test_identity_kernel_limit():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 3))
    y = np.array([1 + i % 3 for i in range(12)])
    model = train(x, y, KelmHyperparams(c=1e12, gamma=1e6))
    assert np.allclose(model.alpha, one_hot(y, model.class_ids), atol=1e-5)
    _, pred = predict(model, x)
    assert np.array_equal(pred, y)


def test_class_absent():
    with pytest.raises(DataError, match="class absent"):
        train(np.array([[0.0]]), [1], KelmHyperparams(c=1.0, gamma=1.0), num_classes=2)


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


def _model_bytes(header_blob: bytes) -> bytes:
    return b"HSIKELM1" + struct.pack("<Q", len(header_blob)) + header_blob


_GOOD_HEADER = {"dtype": "f64", "byteorder": "little", "hyperparams": {"c": 1.0, "gamma": 1.0},
                "train_shape": [1, 1], "alpha_shape": [1, 1], "class_ids": [1]}


@pytest.mark.parametrize("content", [
    b"not a model",
    b"HSIKELM1" + b"\x01\x02",  # truncated inside the header length
    _model_bytes(b"{not json"),
    _model_bytes(json.dumps({k: v for k, v in _GOOD_HEADER.items() if k != "train_shape"}).encode()),
    _model_bytes(json.dumps({**_GOOD_HEADER, "train_shape": [1, 1.0]}).encode()) + bytes(16),
    _model_bytes(json.dumps({**_GOOD_HEADER, "hyperparams": {"c": -1.0, "gamma": 1.0}}).encode())
    + bytes(16),
], ids=["not-a-model", "truncated", "bad-json", "no-train-shape", "float-shape", "negative-c"])
def test_load_model_rejects_garbage(tmp_path, content):
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(DataError):
        load_model(path)
