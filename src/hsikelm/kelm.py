"""Kernel extreme learning machine: closed-form RBF kernel classifier.

Training solves the symmetric positive-definite system
``(Omega + I/C) alpha = Y`` where ``Omega_ij = exp(-gamma ||x_i - x_j||^2)``
and Y is the one-hot target matrix. Prediction is ``k(x, X_train) @ alpha``
with the arg-max class, ties broken toward the lowest class id. A trained
model's classes are the labels it was trained on. It is kept in one numpy
archive (``save_model``/``load_model``).
"""

from __future__ import annotations

import ctypes
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cython_lapack
from scipy.spatial.distance import cdist

from . import parallel
from .errors import ConfigError, DataError, HsiKelmError, NumericalError

RESIDUAL_TOL = 1e-8
_JITTER = 1e-10
# exponents below this give kernel values under sqrt(tiny), which rbf_kernel sets to 0
_LOG_FLOOR = 0.5 * np.log(np.finfo(np.float64).tiny)


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
    class_ids: np.ndarray  # (c,) int64, strictly ascending, all >= 1

    def __post_init__(self):
        x, alpha, ids = self.train_x, self.alpha, self.class_ids
        for name, value, dtype, ndim in (("train_x", x, "float64", 2), ("alpha", alpha, "float64", 2),
                                         ("class_ids", ids, "int64", 1)):
            want = np.dtype(dtype)  # kind and size, so that big-endian arrays pass too
            if not (isinstance(value, np.ndarray) and value.ndim == ndim
                    and (value.dtype.kind, value.dtype.itemsize) == (want.kind, want.itemsize)):
                raise DataError(f"{name} must be a {ndim}-D {dtype} array, got "
                                f"{getattr(value, 'dtype', type(value).__name__)} {np.shape(value)}")
        if x.shape[0] != alpha.shape[0] or ids.size != alpha.shape[1]:
            raise DataError(f"shapes do not match: train_x {x.shape}, alpha {alpha.shape}, "
                            f"class_ids {ids.shape}")
        # predict's tie goes to the first column, the lowest id only if the ids ascend
        if not (np.all(ids >= 1) and np.all(ids[1:] > ids[:-1])):
            raise DataError(f"class_ids must be strictly ascending and >= 1, got {ids.tolist()}")


def rbf_kernel(sq_dist: np.ndarray, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-gamma * d) elementwise, for an array d of precomputed squared distances.

    Where ``-gamma * d`` lies below ``_LOG_FLOOR``, that is where the value
    would fall below ``sqrt(finfo(float64).tiny)`` (about 1.5e-154), the
    kernel is exactly 0. The product of any two kernel values is then a
    normal double; the Cholesky, residual and held-out products run 20-40x
    slower on subnormal ones. A value under the floor is below the last bit
    of any sum above about 1e-138 that it joins, so only such tiny scores
    change; a query row whose every kernel value is under the floor scores
    all-zero (see ``predict``).

    The kernel is written into ``out`` when given, else into a new array; the
    exp runs in place, so a call allocates at most one array of d's size,
    plus a boolean mask of d's shape when the floor applies.
    """
    kernel = np.multiply(sq_dist, -gamma, out=out)
    if not (kernel.size and kernel.min() < _LOG_FLOOR):
        return np.exp(kernel, out=kernel)
    # no per-element branch, and exp never takes its slow path for subnormal outputs
    keep = kernel >= _LOG_FLOOR
    np.maximum(kernel, _LOG_FLOOR - 1.0, out=kernel)
    np.exp(kernel, out=kernel)
    return np.multiply(kernel, keep, out=kernel)


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


def train(x, labels, hyper: KelmHyperparams) -> KelmModel:
    """Fit the classifier by one regularized kernel solve.

    The class ids are the distinct labels, ascending; a label below 1 is a
    DataError. The solve runs with BLAS on one thread, whatever the
    environment sets.
    """
    X = np.asarray(x, dtype=np.float64)
    y = np.asarray(labels).ravel()
    if X.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {X.shape}")
    if X.shape[0] != y.size:
        raise DataError(f"{X.shape[0]} samples but {y.size} labels")
    class_ids = np.unique(y).astype(np.int64)
    omega = rbf_kernel(cdist(X, X, "sqeuclidean"), hyper.gamma)
    with parallel.single_threaded_blas():
        alpha = solve_kernel_system(omega, one_hot(y, class_ids), hyper.c)
    return KelmModel(train_x=X, alpha=alpha, hyper=hyper, class_ids=class_ids)


def solve_kernel_system(omega: np.ndarray, targets: np.ndarray, c: float,
                        factor: np.ndarray | None = None) -> np.ndarray:
    """alpha with ``(omega + I/c) alpha = targets``, for a precomputed kernel matrix.

    ``omega`` is overwritten by the system matrix (1/c added to its
    diagonal). Cholesky with one jitter retry; the solution is rejected when
    its residual exceeds ``RESIDUAL_TOL``. ``factor`` is an optional F-order
    array of omega's shape that receives the Cholesky factor.
    """
    omega[np.diag_indices_from(omega)] += 1.0 / c
    alpha = _spd_solve(omega, targets, factor)
    residual = np.max(np.abs(omega @ alpha - targets))
    if residual > RESIDUAL_TOL * (1.0 + np.max(np.abs(targets))):
        raise NumericalError(f"kernel solve residual too large: {residual:.3e}")
    return alpha


def _lapack_routine(name: str, *argtypes):
    """scipy's LAPACK routine ``name`` as a ctypes function, which releases the GIL
    while it runs (scipy's own wrappers hold it)."""
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT = ctypes.POINTER(ctypes.c_int)
# (uplo, n, a, lda, info) and (uplo, n, nrhs, a, lda, b, ldb, info); arrays by address
_DPOTRF = _lapack_routine("dpotrf", ctypes.c_char_p, _INT, ctypes.c_void_p, _INT, _INT)
_DPOTRS = _lapack_routine("dpotrs", ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT,
                          ctypes.c_void_p, _INT, _INT)


def _spd_solve(system: np.ndarray, rhs: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    """x with ``system @ x = rhs`` for a symmetric positive-definite ``system``.

    Runs LAPACK's lower Cholesky ``dpotrf``/``dpotrs``, the routines behind
    ``scipy.linalg.cho_factor``/``cho_solve`` with the same bits, but with
    the GIL released, so solves in several threads run side by side. The
    F-order ``factor`` (allocated when not given) receives ``system.T``,
    which is ``system`` because it is symmetric, so the copy is a plain one.
    A failed factorization is retried once with jitter on the diagonal.
    x is F-order, as ``cho_solve`` returns it.
    """
    x = np.array(rhs, dtype=np.float64, order="F")
    if factor is None:
        factor = np.empty(system.shape, order="F")
    # LAPACK gets bare pointers: the shapes and the layout must be right here
    if not (system.ndim == 2 and system.shape[0] == system.shape[1] == x.shape[0]
            and x.ndim <= 2 and factor.shape == system.shape and factor.dtype == np.float64
            and factor.flags.f_contiguous):
        raise ValueError(f"bad solve shapes: system {system.shape}, rhs {x.shape}, "
                         f"factor {factor.shape} {factor.dtype}")
    n = ctypes.c_int(system.shape[0])
    info = ctypes.c_int()
    for jitter in (0.0, _JITTER):
        np.copyto(factor, system.T)
        if jitter:
            factor[np.diag_indices_from(factor)] += jitter
        _DPOTRF(b"L", n, factor.ctypes.data, n, info)
        if info.value == 0:
            break
    else:
        raise NumericalError(f"kernel system not positive definite: {info.value}-th leading minor "
                             "of the array is not positive definite")
    nrhs = ctypes.c_int(1 if x.ndim == 1 else x.shape[1])
    _DPOTRS(b"L", n, nrhs, factor.ctypes.data, n, x.ctypes.data, n, info)
    return x


def predict(model: KelmModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Scores (m x c) and arg-max labels for a feature matrix.

    A row whose every kernel value lies below ``rbf_kernel``'s floor (a query
    far from all training samples at a large gamma) scores all-zero, so the
    tie rule gives it the lowest class id.

    The rows are scored in blocks of ``parallel.BLOCK_ROWS`` side by side
    (``parallel.run_row_blocks``), so the bits depend on neither the CPU
    count nor the BLAS thread setting.
    """
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {X.shape}")
    d = model.train_x.shape[1]
    if X.shape[1] != d:
        raise DataError(f"feature dimension {X.shape[1]} does not match model's {d}")
    m = X.shape[0]
    scores = np.empty((m, model.class_ids.size), dtype=np.float64)

    def score_block(start, stop, kernel):
        cdist(X[start:stop], model.train_x, "sqeuclidean", out=kernel)
        rbf_kernel(kernel, model.hyper.gamma, out=kernel)
        np.matmul(kernel, model.alpha, out=scores[start:stop])

    parallel.run_row_blocks(score_block, m, model.train_x.shape[0])
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
    """numpy archive of train_x, alpha, class_ids and hyper = (c, gamma)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:  # np.savez would append .npz to a path
        np.savez(fh, train_x=model.train_x, alpha=model.alpha, class_ids=model.class_ids,
                 hyper=np.array([model.hyper.c, model.hyper.gamma]))


def load_model(path) -> KelmModel:
    """The model in the archive ``save_model`` wrote; any other file is a DataError."""
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):  # else np.load may read one array, or try to unpickle
                raise DataError("not a numpy archive")
            fh.seek(0)
            archive = np.load(fh, allow_pickle=False)
            c, gamma = archive["hyper"].tolist()
            return KelmModel(train_x=archive["train_x"], alpha=archive["alpha"],
                             hyper=KelmHyperparams(c=c, gamma=gamma),
                             class_ids=archive["class_ids"])
    except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile,
            HsiKelmError) as e:
        raise DataError(f"unreadable model file {path}: {e}") from e
