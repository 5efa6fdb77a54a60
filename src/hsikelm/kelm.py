"""Kernel extreme learning machine: closed-form RBF kernel classifier.

Training solves the symmetric positive-definite system
``(Omega + I/C) alpha = Y`` where ``Omega_ij = exp(-gamma ||x_i - x_j||^2)``
and Y is the one-hot target matrix. Prediction is ``k(x, X_train) @ alpha``
with the arg-max class, ties broken toward the lowest class id.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import ConfigError, DataError, NumericalError

RESIDUAL_TOL = 1e-8
_JITTER = 1e-10
_PREDICT_CHUNK = 4096
_MODEL_MAGIC = b"HSIKELM1"


@dataclass(frozen=True)
class KelmHyperparams:
    c: float
    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0):
            raise ConfigError(f"regularization coefficient must be > 0, got {self.c}")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"kernel gamma must be > 0, got {self.gamma}")


@dataclass
class KelmModel:
    train_x: np.ndarray  # (n, d) float64
    alpha: np.ndarray  # (n, c) float64
    hyper: KelmHyperparams
    class_ids: np.ndarray  # (c,) int64, ascending


def rbf_kernel(sq_dist: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * d) elementwise, for an array d of precomputed squared distances.

    The exp runs in place, so a call holds two arrays of d's size at most:
    d itself and the kernel.
    """
    kernel = -gamma * sq_dist
    return np.exp(kernel, out=kernel)


def one_hot(labels, class_ids) -> np.ndarray:
    """n x c matrix with a single 1 per row at the class's column."""
    labels = np.asarray(labels).ravel()
    class_ids = np.asarray(class_ids).ravel()
    col = np.searchsorted(class_ids, labels)
    bad = (col >= class_ids.size) | (class_ids[np.minimum(col, class_ids.size - 1)] != labels)
    if np.any(bad):
        raise DataError(f"label {labels[bad][0]} not in class list {class_ids.tolist()}")
    out = np.zeros((labels.size, class_ids.size), dtype=np.float64)
    out[np.arange(labels.size), col] = 1.0
    return out


def train(x, labels, hyper: KelmHyperparams, num_classes: int | None = None) -> KelmModel:
    """Fit the classifier by one regularized kernel solve.

    When ``num_classes`` is given, every class 1..num_classes must appear in
    ``labels``; otherwise the class list is the sorted set of observed ids.
    """
    X = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels).ravel()
    if X.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {X.shape}")
    if X.shape[0] != y.size:
        raise DataError(f"{X.shape[0]} samples but {y.size} labels")
    observed = np.unique(y)
    if num_classes is not None:
        class_ids = np.arange(1, num_classes + 1, dtype=np.int64)
        missing = sorted(set(class_ids.tolist()) - set(observed.tolist()))
        if missing:
            raise DataError("class absent: " + ", ".join(str(c) for c in missing))
    else:
        class_ids = observed.astype(np.int64)
    n = X.shape[0]
    if n < class_ids.size:
        raise DataError(f"{n} samples cannot cover {class_ids.size} classes")

    omega = rbf_kernel(cdist(X, X, "sqeuclidean"), hyper.gamma)
    alpha = solve_kernel_system(omega, one_hot(y, class_ids), hyper.c)
    return KelmModel(train_x=X, alpha=alpha, hyper=hyper, class_ids=class_ids)


def solve_kernel_system(omega: np.ndarray, targets: np.ndarray, c: float) -> np.ndarray:
    """alpha with ``(omega + I/c) alpha = targets``, for a precomputed kernel matrix.

    ``omega`` is overwritten by the system matrix (1/c added to its
    diagonal). Cholesky with one jitter retry; the solution is rejected when
    its residual exceeds ``RESIDUAL_TOL``.
    """
    omega[np.diag_indices_from(omega)] += 1.0 / c
    alpha = _spd_solve(omega, targets)
    residual = np.max(np.abs(omega @ alpha - targets))
    if residual > RESIDUAL_TOL * (1.0 + np.max(np.abs(targets))):
        raise NumericalError(f"kernel solve residual too large: {residual:.3e}")
    return alpha


def _spd_solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return cho_solve(cho_factor(system, lower=True), rhs)
    except LinAlgError:
        pass
    jittered = system + _JITTER * np.eye(system.shape[0])
    try:
        return cho_solve(cho_factor(jittered, lower=True), rhs)
    except LinAlgError as e:
        raise NumericalError(f"kernel system not positive definite: {e}") from e


# (set, get) thread-count symbols: numpy's ILP64 copy, scipy's copy, a plain build
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def openblas_thread_controls() -> list[tuple]:
    """(set, get) thread-count functions of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6})
    controls = []
    for path in paths:
        name = path.rsplit("/", 1)[-1]
        if "openblas" not in name or ".so" not in name:
            continue
        lib = ctypes.CDLL(path)
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextlib.contextmanager
def single_threaded_blas():
    """Run the body with every loaded OpenBLAS on one thread, then restore each count.

    The tuning search is many small dense solves, which run several times
    faster on one thread; the feature stage gets its parallelism from
    smoothing bands side by side instead. A fixed thread count also makes
    results the same whatever the environment sets. Without OpenBLAS this
    does nothing.
    """
    controls = openblas_thread_controls()
    previous = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, previous):
            set_threads(count)


def predict(model: KelmModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Scores (m x c) and arg-max labels for a feature matrix."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {X.shape}")
    d = model.train_x.shape[1]
    if X.shape[1] != d:
        raise DataError(f"feature dimension {X.shape[1]} does not match model's {d}")
    m = X.shape[0]
    scores = np.empty((m, model.class_ids.size), dtype=np.float64)
    for start in range(0, m, _PREDICT_CHUNK):
        stop = min(start + _PREDICT_CHUNK, m)
        k = rbf_kernel(cdist(X[start:stop], model.train_x, "sqeuclidean"), model.hyper.gamma)
        scores[start:stop] = k @ model.alpha
    if m == 0:
        return scores, np.empty(0, dtype=np.int64)
    labels = model.class_ids[np.argmax(scores, axis=1)]
    return scores, labels


def mse_fitness(scores: np.ndarray, y_one_hot: np.ndarray) -> float:
    """Mean squared error between score and target matrices."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y_one_hot, dtype=np.float64)
    if scores.shape != y.shape:
        raise DataError(f"shape mismatch: scores {scores.shape} vs targets {y.shape}")
    return float(np.mean((scores - y) ** 2))


def save_model(model: KelmModel, path) -> None:
    """Single file: length-prefixed JSON header, then f64-LE trainX and alpha."""
    header = {
        "dtype": "f64",
        "byteorder": "little",
        "hyperparams": {"c": model.hyper.c, "gamma": model.hyper.gamma},
        "train_shape": list(model.train_x.shape),
        "alpha_shape": list(model.alpha.shape),
        "class_ids": model.class_ids.tolist(),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(model.train_x, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.alpha, dtype="<f8").tobytes())


def load_model(path) -> KelmModel:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    raw = path.read_bytes()
    if raw[: len(_MODEL_MAGIC)] != _MODEL_MAGIC:
        raise DataError(f"{path} is not a model file")
    offset = len(_MODEL_MAGIC) + 8
    try:
        (hlen,) = struct.unpack_from("<Q", raw, len(_MODEL_MAGIC))
        header = json.loads(raw[offset : offset + hlen])
        n, d = header["train_shape"]
        n2, c = header["alpha_shape"]
        hyper = KelmHyperparams(**header["hyperparams"])
        class_ids = np.asarray(header["class_ids"], dtype=np.int64)
    except (struct.error, ValueError, KeyError, TypeError, ConfigError) as e:
        raise DataError(f"malformed header in model file {path}: {e!r}") from e
    if not all(type(v) is int and v >= 0 for v in (n, d, n2, c)) or class_ids.shape != (c,):
        raise DataError(f"malformed shapes in model file {path}")
    offset += hlen
    expected = offset + (n * d + n2 * c) * 8
    if n != n2 or len(raw) != expected:
        raise DataError(f"payload length mismatch in model file {path}")
    train_x = np.frombuffer(raw, dtype="<f8", count=n * d, offset=offset).reshape(n, d)
    offset += n * d * 8
    alpha = np.frombuffer(raw, dtype="<f8", count=n * c, offset=offset).reshape(n, c)
    return KelmModel(train_x=train_x.copy(), alpha=alpha.copy(), hyper=hyper, class_ids=class_ids)
