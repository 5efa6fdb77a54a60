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
from scipy.linalg import cython_blas, cython_lapack
from scipy.spatial.distance import cdist

from . import parallel
from .errors import ConfigError, DataError, HsiKelmError, NumericalError

RESIDUAL_TOL = 1e-8
# exponents below this give kernel values under sqrt(tiny), which rbf_kernel sets to 0
_LOG_FLOOR = 0.5 * np.log(np.finfo(np.float64).tiny)
# sq_dist_bound's relative rounding margin. A rounded sum of d non-negative
# terms, each a rounded square, lies within (d + 2)·2^-53 relative of the
# exact sum, and so do the norms' sums and square roots: the computed bound
# and distances together are off by about (2d + 6)·1.1e-16, which stays under
# 1e-6 for any feature count below 4e9
_BOUND_MARGIN = 1e-6


@dataclass(frozen=True)
class KelmHyperparams:
    c: float
    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0):
            raise ConfigError(f"regularization coefficient must be finite and > 0, got {self.c}")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"kernel gamma must be finite and > 0, got {self.gamma}")


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
        if x.shape[0] != alpha.shape[0] or ids.size != alpha.shape[1] or 0 in alpha.shape:
            raise DataError(f"shapes do not match or are empty: train_x {x.shape}, "
                            f"alpha {alpha.shape}, class_ids {ids.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(alpha))):
            raise DataError("non-finite value in train_x or alpha")
        # predict's tie goes to the first column, the lowest id only if the ids ascend
        if not (np.all(ids >= 1) and np.all(ids[1:] > ids[:-1])):
            raise DataError(f"class_ids must be strictly ascending and >= 1, got {ids.tolist()}")


def rbf_kernel(sq_dist: np.ndarray, gamma: float, out: np.ndarray | None = None,
               d_max: float = np.inf) -> np.ndarray:
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
    plus a boolean mask of d's shape when the floor applies. ``d_max``, an
    upper bound of d that the caller knows (``sq_dist_bound``), skips the
    floor's pass over the smallest exponent where it shows that the floor
    cannot fire (``floored_exp``).
    """
    lowest = -np.inf if d_max == np.inf else d_max * -gamma
    return floored_exp(np.multiply(sq_dist, -gamma, out=out), lowest)


def sq_dist_bound(a: np.ndarray, b: np.ndarray) -> float:
    """An upper bound of every squared distance between a row of ``a`` and a
    row of ``b``, as ``cdist``'s "sqeuclidean" rounds it: (max ||a_i|| +
    max ||b_j||)², the triangle inequality, raised by ``_BOUND_MARGIN``.

    The norms are summed in float64 without a float64 copy of either array.
    """
    reach = sum(np.sqrt(np.max(np.einsum("ij,ij->i", v, v, dtype=np.float64), initial=0.0))
                for v in (a, b))
    return reach * reach * (1.0 + _BOUND_MARGIN)


def floored_exp(exponents: np.ndarray, lowest: float = -np.inf) -> np.ndarray:
    """exp of ``exponents`` in place, 0 where an exponent lies below ``_LOG_FLOOR``:
    ``rbf_kernel``'s floor, for exponents already written.

    ``lowest`` is a lower bound of the exponents that the caller knows; at or
    above ``_LOG_FLOOR`` the floor cannot fire, and the pass that finds the
    smallest exponent is skipped. Rounding is monotone, so ``d_max * -gamma``
    bounds ``d * -gamma`` for every ``d <= d_max``.
    """
    if lowest >= _LOG_FLOOR or not (exponents.size and exponents.min() < _LOG_FLOOR):
        return np.exp(exponents, out=exponents)
    # no per-element branch, and exp never takes its slow path for subnormal outputs
    keep = exponents >= _LOG_FLOOR
    np.maximum(exponents, _LOG_FLOOR - 1.0, out=exponents)
    np.exp(exponents, out=exponents)
    return np.multiply(exponents, keep, out=exponents)


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
    X = _features(x)
    y = np.asarray(labels).ravel()
    if X.shape[0] != y.size:
        raise DataError(f"{X.shape[0]} samples but {y.size} labels")
    if X.shape[0] == 0:  # LAPACK would reject the empty system's leading dimension
        raise DataError("no training samples")
    class_ids = np.unique(y).astype(np.int64)
    omega = cdist(X, X, "sqeuclidean")
    rbf_kernel(omega, hyper.gamma, out=omega)  # the one n x n array of the fit
    with parallel.single_threaded_blas():
        alpha = solve_kernel_system(omega, one_hot(y, class_ids), hyper.c)
    return KelmModel(train_x=X, alpha=alpha, hyper=hyper, class_ids=class_ids)


def _features(x) -> np.ndarray:
    """``x`` as a 2-D float64 array; a NaN or an infinity is a DataError."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite value in features")
    return X


def solve_kernel_system(omega: np.ndarray, targets: np.ndarray, c: float) -> np.ndarray:
    """alpha with ``(omega + I/c) alpha = targets``, for a precomputed kernel matrix.

    ``omega``, a C-contiguous float64 array, is overwritten: its diagonal
    and lower triangle by the system matrix (1/c added to the diagonal),
    its strict upper triangle by the transposed Cholesky factor
    (``_spd_solve``). One Cholesky attempt: a system it cannot factor is a
    NumericalError. The solution is rejected when its residual, computed
    from the lower triangle, exceeds ``RESIDUAL_TOL`` or is not finite.
    """
    omega.reshape(-1)[:: omega.shape[0] + 1] += 1.0 / c  # the diagonal, as a strided view
    alpha = _spd_solve(omega, targets)
    residual = np.max(np.abs(_lower_symmetric_product(omega, alpha) - targets))
    if not residual <= RESIDUAL_TOL * (1.0 + np.max(np.abs(targets))):  # NaN fails too
        raise NumericalError(f"kernel solve residual too large: {residual:.3e}")
    return alpha


def _scipy_routine(module, name: str, *argtypes):
    """scipy's BLAS or LAPACK routine ``name`` (``module`` is ``cython_blas`` or
    ``cython_lapack``) as a ctypes function, which releases the GIL while it
    runs (scipy's own wrappers hold it)."""
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
# (uplo, n, a, lda, info) and (uplo, n, nrhs, a, lda, b, ldb, info); arrays by address
_DPOTRF = _scipy_routine(cython_lapack, "dpotrf", ctypes.c_char_p, _INT, ctypes.c_void_p, _INT, _INT)
_DPOTRS = _scipy_routine(cython_lapack, "dpotrs", ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT,
                         ctypes.c_void_p, _INT, _INT)
# (side, uplo, m, n, alpha, a, lda, b, ldb, beta, c, ldc)
_DSYMM = _scipy_routine(cython_blas, "dsymm", ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _DOUBLE,
                        ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _DOUBLE, ctypes.c_void_p, _INT)


def _spd_solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with ``system @ x = rhs`` for a symmetric positive-definite ``system``,
    factored in place.

    ``system`` must be a C-contiguous float64 array. Its F-order view, the
    same matrix since it is symmetric, goes to LAPACK's lower Cholesky
    ``dpotrf``/``dpotrs``, the routines behind ``scipy.linalg.cho_factor``/
    ``cho_solve`` with the same bits, but with the GIL released, so solves
    in several threads run side by side. The factor L lands in the view's
    lower triangle, which is ``system``'s upper one: on return the strict
    upper triangle holds L.T, and the diagonal (written back) and the lower
    triangle still hold the system. The factorization is tried once: a
    failed one is a NumericalError naming the leading minor, and the
    diagonal and the lower triangle still hold the system then too. x is
    F-order, as ``cho_solve`` returns it.
    """
    x = np.array(rhs, dtype=np.float64, order="F")
    # LAPACK gets bare pointers: the shapes and the layout must be right here
    if not (system.ndim == 2 and system.shape[0] == system.shape[1] == x.shape[0] >= 1
            and x.ndim <= 2 and system.dtype == np.float64 and system.flags.c_contiguous
            and system.flags.writeable):
        raise ValueError(f"bad solve shapes: system {system.shape} {system.dtype}, rhs {x.shape}")
    n = ctypes.c_int(system.shape[0])
    info = ctypes.c_int()
    diagonal = system.diagonal().copy()
    try:
        _DPOTRF(b"L", n, system.ctypes.data, n, info)
        if info.value != 0:
            raise NumericalError(f"kernel system not positive definite: {info.value}-th leading "
                                 "minor of the array is not positive definite")
        nrhs = ctypes.c_int(1 if x.ndim == 1 else x.shape[1])
        _DPOTRS(b"L", n, nrhs, system.ctypes.data, n, x.ctypes.data, n, info)
    finally:
        system.reshape(-1)[:: system.shape[0] + 1] = diagonal
    return x


def _lower_symmetric_product(system: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``system @ x`` from ``system``'s diagonal and lower triangle alone (BLAS
    ``dsymm``, GIL released), for ``_spd_solve``'s arguments after it ran."""
    product = np.zeros(x.shape, order="F")
    m = ctypes.c_int(system.shape[0])
    nrhs = ctypes.c_int(1 if x.ndim == 1 else x.shape[1])
    one, zero = ctypes.c_double(1.0), ctypes.c_double(0.0)
    # the F-order view's upper triangle is system's lower one
    _DSYMM(b"L", b"U", m, nrhs, one, system.ctypes.data, m, x.ctypes.data, m, zero,
           product.ctypes.data, m)
    return product


def predict(model: KelmModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Scores (m x c) and arg-max labels for a feature matrix.

    A row whose every kernel value lies below ``rbf_kernel``'s floor (a query
    far from all training samples at a large gamma) scores all-zero, so the
    tie rule gives it the lowest class id.

    The rows are scored in blocks of ``parallel.BLOCK_ROWS`` side by side
    (``parallel.run_row_blocks``), so the bits depend on neither the CPU
    count nor the BLAS thread setting. One bound of the squared distances
    (``sq_dist_bound``) serves every block.
    """
    X = _features(x)
    d = model.train_x.shape[1]
    if X.shape[1] != d:
        raise DataError(f"feature dimension {X.shape[1]} does not match model's {d}")
    m = X.shape[0]
    scores = np.empty((m, model.class_ids.size), dtype=np.float64)
    d_max = sq_dist_bound(X, model.train_x)

    def score_block(start, stop, kernel):
        cdist(X[start:stop], model.train_x, "sqeuclidean", out=kernel)
        rbf_kernel(kernel, model.hyper.gamma, out=kernel, d_max=d_max)
        np.matmul(kernel, model.alpha, out=scores[start:stop])

    parallel.run_row_blocks(score_block, m, model.train_x.shape[0])
    return scores, model.class_ids[np.argmax(scores, axis=1)]


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
