"""Spectral feature extraction: band grouping, multi-scale relative-total-
variation smoothing, and landmark kernel PCA fusion. The stages take and
return plain (H, W, B) float32 arrays; ``kpca_reduce`` returns float64 rows.

The smoother minimizes a data-fidelity term plus a structure-aware penalty
sum_p [Dx_p / (Lx_p + eps) + Dy_p / (Ly_p + eps)], where Dx/Dy aggregate
absolute forward differences inside a Gaussian(sigma) window and Lx/Ly are
magnitudes of the windowed (signed) differences. It is solved by four
rounds of an iteratively reweighted sparse linear system: each round fixes
per-edge weights from the current estimate, then solves
(I + lambda * L_w) s = g where L_w is the weighted 4-neighbor graph
Laplacian. The window scale is halved each round (floored at 0.5), matching
the standard solver for this objective. The system's pattern depends only on
the image shape, so its fill-reducing elimination order and the pattern
permuted into it are computed once per shape (``_rtv_plan``); a round
computes the weights, gathers their values into that pattern and factors it
as it stands.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spilu, splu
from scipy.spatial.distance import cdist

from . import kelm, parallel
from .errors import ConfigError, DataError, NumericalError

# the standard RTV solver's rounds and stabilizers (Xu et al. 2012)
RTV_ROUNDS = 4
# SuperLU's panel width: its default of 20 columns gains nothing on the small
# supernodes of a 2-D grid, and one column is faster and holds less scratch.
# Do not raise it past 20: with 32, the SuperLU of scipy 1.17.1 corrupted the
# heap on a 64 x 64 image
SUPERLU_PANEL_SIZE = 1
EPSILON_S = 1e-2
EPSILON_L = 1e-3
_SOLVE_TOL = 1e-6
_EIG_RTOL = 1e-10


@dataclass(frozen=True)
class RtvParams:
    """One smoothing scale: strength lambda and window sigma (pixels)."""

    lam: float = 0.005
    sigma: float = 3.0

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:  # NaN fails too
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0 < self.sigma < np.inf:
            raise ConfigError(f"sigma must be finite and > 0, got {self.sigma}")


def default_scales() -> tuple[RtvParams, ...]:
    return tuple(RtvParams(lam=0.005, sigma=s) for s in (1.0, 2.0, 3.0))


@dataclass(frozen=True)
class MstvConfig:
    """Step-1 configuration: grouping size, smoothing scales, and KPCA fusion."""

    k: int = 20
    scales: tuple[RtvParams, ...] = field(default_factory=default_scales)
    n_components: int = 20
    landmark_count: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(self.scales))
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not self.scales:
            raise ConfigError("at least one smoothing scale is required")
        if not 1 <= self.n_components <= self.k * len(self.scales):
            raise ConfigError(
                f"n_components must lie in 1..{self.k * len(self.scales)}, got {self.n_components}"
            )
        if self.landmark_count < self.n_components:
            raise ConfigError(
                f"landmark_count {self.landmark_count} < n_components {self.n_components}"
            )


def band_grouping(num_bands: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Partition bands 0..M-1 into k contiguous groups; remainder joins the last."""
    if k < 1:
        raise ConfigError(f"group count must be >= 1, got {k}")
    if k > num_bands:
        raise ConfigError(f"group count {k} exceeds band count {num_bands}")
    size = num_bands // k
    groups = []
    for g in range(k - 1):
        groups.append(tuple(range(g * size, (g + 1) * size)))
    groups.append(tuple(range((k - 1) * size, num_bands)))
    return tuple(groups)


def group_and_average(cube: np.ndarray, k: int) -> np.ndarray:
    """Reduce to k bands, each the mean of its contiguous source group."""
    out = np.empty((*cube.shape[:2], k), dtype=np.float32)
    for g, members in enumerate(band_grouping(cube.shape[2], k)):
        # a float64 mean of the float32 slice, without a float64 copy of the cube
        out[:, :, g] = cube[:, :, members[0] : members[-1] + 1].mean(axis=2, dtype=np.float64)
    return out


def min_max_scale(values: np.ndarray, axis) -> np.ndarray:
    """Min-max scale to [0, 1] over ``axis`` in float64; constant slices map to 0."""
    vals = np.asarray(values, dtype=np.float64)
    lo = vals.min(axis=axis, keepdims=True)
    span = vals.max(axis=axis, keepdims=True) - lo
    span[span == 0] = 1.0
    return (vals - lo) / span


def scale_bands_unit(cube: np.ndarray) -> np.ndarray:
    """Min-max scale each band to [0, 1] in float32; constant bands map to 0."""
    return min_max_scale(cube, axis=(0, 1)).astype(np.float32)


def _correlate_columns(s, weights):
    """Each column of s correlated with the symmetric ``weights`` of radius r,
    the edge pixel repeated past the border, as ``scipy.ndimage.correlate1d``
    forms each output: x * w0, then += (x[-j] + x[+j]) * wj for j = r .. 1."""
    radius = weights.size // 2
    n = s.shape[0]
    padded = np.pad(s, ((radius, radius), (0, 0)), mode="edge")
    out = s * weights[radius]
    pair = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(padded[radius - j : radius - j + n], padded[radius + j : radius + j + n], out=pair)
        pair *= weights[radius - j]
        out += pair
    return out


def _gaussian_window(s, sigma):
    """``scipy.ndimage.gaussian_filter(s, sigma, mode="nearest", truncate=2.5)``
    of the 2-D float64 array s, with the same bits: the same normalized
    kernel of radius int(2.5 sigma + 0.5), axis 0 and then axis 1, each as
    ``_correlate_columns``. At radius 0 the kernel is [1.0], and s itself is
    returned."""
    radius = int(2.5 * sigma + 0.5)
    if radius == 0:
        return s
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = phi / phi.sum()
    return _correlate_columns(_correlate_columns(s, weights).T, weights).T


def _texture_weights(s, sigma):
    fx = np.diff(s, axis=1, append=s[:, -1:])
    fy = np.diff(s, axis=0, append=s[-1:, :])
    point = 1.0 / np.maximum(np.sqrt(fx**2 + fy**2), EPSILON_S)
    blurred = _gaussian_window(s, sigma)
    gfx = np.diff(blurred, axis=1, append=blurred[:, -1:])
    gfy = np.diff(blurred, axis=0, append=blurred[-1:, :])
    wx = point / np.maximum(np.abs(gfx), EPSILON_L)
    wy = point / np.maximum(np.abs(gfy), EPSILON_L)
    wx[:, -1] = 0.0
    wy[-1, :] = 0.0
    return wx, wy


def _rtv_values(wx, wy, lam):
    """The entries of ``I + lam * L_w`` as one vector ``[diagonal, -right,
    -down]`` of 3 h·w values, for the 4-neighbour Laplacian L_w whose edges
    (p, p+1) and (p, p+w) weigh ``wx[p]`` and ``wy[p]``: -right[p] is the
    entry of edge (p, p+1) and -down[p] that of edge (p, p+w), both ways. A
    diagonal entry adds the pixel's weights right, left, down, up, then 1."""
    w = wx.shape[1]
    n = wx.size
    values = np.empty(3 * n)
    diagonal, right, down = values[:n], values[n : 2 * n], values[2 * n :]
    np.multiply(lam, wx.ravel(), out=right)
    np.multiply(lam, wy.ravel(), out=down)
    diagonal[:] = right
    diagonal[1:] += right[:-1]  # left: right is 0 in the last column
    diagonal += down
    diagonal[w:] += down[:-w]  # up
    diagonal += 1.0
    np.negative(right, out=right)
    np.negative(down, out=down)
    return values


def _csc_pattern(h, w, order):
    """The h x w RTV system permuted by ``order`` (its row and column i are
    pixel ``order[i]``'s) as a sorted CSC pattern ``(indptr, indices)``, and
    ``gather``, the index of each stored entry in ``_rtv_values``' vector.
    An entry is stored for the diagonal and for each edge of the grid, also
    where its weight is 0."""
    n = h * w
    pixel = np.arange(n)
    right = pixel.reshape(h, w)[:, :-1].ravel()  # edges (p, p+1) inside a row
    down = pixel[: n - w]  # edges (p, p+w)
    rows = np.concatenate([pixel, right, right + 1, down, down + w])
    cols = np.concatenate([pixel, right + 1, right, down + w, down])
    gather = np.concatenate([pixel, n + right, n + right, 2 * n + down, 2 * n + down])
    rank = np.empty(n, dtype=np.intp)
    rank[order] = pixel
    i, j = rank[rows], rank[cols]
    by_column = np.argsort(j * n + i)  # column-major, each column's rows ascending
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(j, minlength=n), out=indptr[1:])
    return indptr, i[by_column].astype(np.int32), gather[by_column]


def _rtv_order(h: int, w: int) -> np.ndarray:
    """The fill-reducing elimination order of the h x w RTV system: entry j is
    the pixel eliminated j-th. It is SuperLU's own minimum-degree order on
    A^T + A with its elimination-tree postorder, which roughly halves the fill
    against the default COLAMD. It depends only on the pattern, so one
    unit-weight system with ``_texture_weights``' zero last column and row
    stands for every system of that shape. SuperLU computes the order before
    it factors, so an incomplete LU that drops every entry it can gives the
    same order as ``splu`` at a fraction of the time and memory."""
    wx, wy = np.ones((h, w)), np.ones((h, w))
    wx[:, -1] = 0.0
    wy[-1, :] = 0.0
    indptr, indices, gather = _csc_pattern(h, w, np.arange(h * w))
    unit = csc_matrix((_rtv_values(wx, wy, 1.0)[gather], indices, indptr), shape=(h * w, h * w))
    ilu = spilu(unit, permc_spec="MMD_AT_PLUS_A", drop_tol=1.0, fill_factor=1.0)
    return np.argsort(ilu.perm_c)


@dataclass(frozen=True)
class RtvPlan:
    """What every RTV solve of one image shape shares: the elimination order
    (``_rtv_order``) and the system permuted into it as a sorted CSC pattern,
    with the index of each stored entry in ``_rtv_values``' vector
    (``_csc_pattern``). Every array is read-only."""

    order: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray

    def system(self):
        """A CSC matrix of the permuted pattern, for ``spsolve`` to fill."""
        n = self.order.size
        return csc_matrix((np.empty(self.gather.size), self.indices, self.indptr), shape=(n, n))


@functools.cache
def _rtv_plan(h: int, w: int) -> RtvPlan:
    """The plan of the h x w RTV system, computed once per shape."""
    order = _rtv_order(h, w)
    plan = RtvPlan(order, *_csc_pattern(h, w, order))
    for array in (plan.order, plan.indptr, plan.indices, plan.gather):
        array.setflags(write=False)
    return plan


def spsolve(system, values: np.ndarray, g: np.ndarray, plan: RtvPlan) -> np.ndarray:
    """Solve the RTV system whose entries are ``values`` (``_rtv_values``) for
    the right-hand side g, in the plan's order, and check the residual.
    ``system`` is the plan's CSC matrix, whose data this overwrites: the
    system permuted into the elimination order, factored in that order as it
    stands. The order decides only the fill.

    Raises NumericalError when the residual exceeds ``_SOLVE_TOL``."""
    np.take(values, plan.gather, out=system.data)
    lu = splu(system, permc_spec="NATURAL", panel_size=SUPERLU_PANEL_SIZE)
    rhs = g[plan.order]
    # the pattern and the values are symmetric, so the CSC arrays are those of
    # the permuted CSR system that SuperLU has always factored: solve transposed
    x = lu.solve(rhs, trans="T")
    residual = np.max(np.abs(system @ x - rhs))
    if not np.isfinite(residual) or residual > _SOLVE_TOL * (1.0 + np.max(np.abs(g))):
        raise NumericalError(f"smoothing solve failed, residual {residual:.3e}")
    out = np.empty_like(g)
    out[plan.order] = x
    return out


def rtv_smooth(image: np.ndarray, params: RtvParams) -> np.ndarray:
    """Smooth one band: texture is flattened while large structures survive."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DataError(f"expected a 2-D raster, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DataError("non-finite value in smoothing input")
    if params.lam == 0.0:
        return img.copy()
    g = img.ravel()
    out = img.copy()
    sigma = params.sigma
    plan = _rtv_plan(*img.shape)
    system = plan.system()
    for _ in range(RTV_ROUNDS):
        # the weights die here, before the factor holds its fill
        values = _rtv_values(*_texture_weights(out, sigma), params.lam)
        out = spsolve(system, values, g, plan).reshape(img.shape)
        sigma = max(sigma / 2.0, 0.5)
    return out


def multiscale_stack(cube: np.ndarray, scales) -> np.ndarray:
    """Smooth every band at every scale; output band l*K + k is (scale l, band k).

    The (scale, band) pairs are independent and run side by side on
    ``parallel.run_jobs`` (the sparse solver releases the GIL), with BLAS on one
    thread. Each pair writes only its own output band, so the result does
    not depend on the thread count. After a failure no further pair starts,
    and the first failure in pair order is raised. The plan of the shape
    (``_rtv_plan``) is computed here, once, so that no two workers compute it.
    """
    scales = tuple(scales)
    if not scales:
        raise ConfigError("at least one smoothing scale is required")
    h, w, k = cube.shape
    out = np.empty((h, w, k * len(scales)), dtype=np.float32)
    _rtv_plan(h, w)

    def smooth(j: int) -> None:
        out[:, :, j] = rtv_smooth(cube[:, :, j % k], scales[j // k])

    parallel.run_jobs(smooth, out.shape[2])
    return out


@dataclass
class KpcaModel:
    """Fitted landmark projection: kernel landmarks and scaled eigenvectors."""

    landmarks: np.ndarray  # (m, d)
    gamma: float  # 0.0 means linear kernel
    eigenvalues: np.ndarray  # (N,) descending, strictly positive
    coeffs: np.ndarray  # (m, N) signed eigenvectors scaled by 1/sqrt(eigenvalue)
    col_mean: np.ndarray  # (m,) landmark-kernel column means
    total_mean: float


def _kernel(a: np.ndarray, b: np.ndarray, gamma: float, out: np.ndarray | None = None,
            d_max: float = np.inf) -> np.ndarray:
    """Kernel matrix between the rows of a and b, written into ``out`` when
    given; ``d_max`` bounds their squared distances (``kelm.rbf_kernel``)."""
    if gamma == 0.0:
        return np.matmul(a, b.T, out=out)
    sq_dist = cdist(a, b, "sqeuclidean", out=out)
    return kelm.rbf_kernel(sq_dist, gamma, out=sq_dist, d_max=d_max)


def kpca_fit(x: np.ndarray, n_components: int, gamma: float, landmark_count: int, seed: int) -> KpcaModel:
    """Center the landmark kernel and compute its top ``n_components``
    eigenpairs only (LAPACK ``dsyevr``'s index range), never the m x m
    eigenvector matrix.

    Each component has a fixed sign: its entry of largest magnitude is
    positive, the first such row on a tie. The features then do not depend
    on the sign that the eigensolver's path or build chose.

    Raises NumericalError when fewer than ``n_components`` strictly positive
    eigenvalues exist (the message reports the achievable count), or when
    equal eigenvalues straddle the cut, so that the kept components are not
    determined and LAPACK finds fewer than asked. Only the landmark rows of x
    are cast to float64, and a non-finite value in them is a DataError.
    """
    x = np.asarray(x)
    n = x.shape[0]
    m = min(landmark_count, n)
    if m < n_components:
        raise ConfigError(f"landmark count {m} < n_components {n_components}")
    rng = np.random.default_rng(seed)
    landmarks = x[rng.choice(n, size=m, replace=False)].astype(np.float64, copy=False)
    if not np.all(np.isfinite(landmarks)):
        raise DataError("non-finite value in KPCA input")
    # on one BLAS thread, so that the model's bits do not depend on the thread setting
    with parallel.single_threaded_blas():
        k_mm = _kernel(landmarks, landmarks, gamma)
        col_mean = k_mm.mean(axis=0)
        total_mean = float(k_mm.mean())
        if not np.isfinite(total_mean):  # finite rows whose kernel overflowed
            raise NumericalError("the landmark kernel overflows float64")
        # rows first, so that the F-order view k_mm.T, which eigh factors in place,
        # holds the bits of k - col_mean[None, :] - col_mean[:, None] + total_mean
        k_mm -= col_mean[:, None]
        k_mm -= col_mean[None, :]
        k_mm += total_mean
        # finite, as its mean is: no scan of it for eigh
        eigenvalues, eigenvectors = eigh(k_mm.T, overwrite_a=True, check_finite=False,
                                         subset_by_index=[m - n_components, m - 1])
    lam = eigenvalues[::-1]
    eigenvectors = eigenvectors[:, ::-1]
    tol = max(lam[0], 0.0) * _EIG_RTOL if lam.size else np.inf
    # LAPACK's bisection can find fewer eigenvalues than asked where a cluster
    # of equal ones straddles the cut (a landmark kernel close to the identity);
    # the ones it loses are tied with the smallest it found, so they count only
    # if that one does
    if lam.size == 0 or (lam.size < n_components and lam[-1] > tol):
        raise NumericalError(
            f"only {lam.size} of the top {n_components} eigenvalues found: the landmark "
            f"kernel's eigenvalues are tied across component {n_components}"
        )
    # the count is the full spectrum's: the largest eigenvalue, which sets tol,
    # is in the subset, and when fewer than n_components eigenvalues exceed tol,
    # every one that does is among the top n_components
    achievable = int(np.sum(lam > tol))
    if achievable < n_components:
        raise NumericalError(
            f"fewer than {n_components} positive eigenvalues; achievable n_components={achievable}"
        )
    # argmax takes the first row of largest magnitude; a unit vector's is nonzero
    peak = eigenvectors[np.argmax(np.abs(eigenvectors), axis=0), np.arange(n_components)]
    # dividing by -sqrt(lam) negates the quotient exactly
    coeffs = eigenvectors / (np.sqrt(lam) * np.sign(peak))[None, :]
    return KpcaModel(
        landmarks=landmarks,
        gamma=gamma,
        eigenvalues=lam,
        coeffs=coeffs,
        col_mean=col_mean,
        total_mean=total_mean,
    )


def kpca_transform(model: KpcaModel, x: np.ndarray) -> np.ndarray:
    """Project the rows of x onto the model's components.

    The rows are projected in blocks side by side (``parallel.run_row_blocks``),
    each block's kernel centered in place in its borrowed scratch, so the
    bits depend on neither the CPU count nor the BLAS thread setting. Each
    block casts its own rows of x to float64 and raises DataError on a
    non-finite value among them. One bound of the squared
    distances (``kelm.sq_dist_bound``) serves every block.
    """
    x = np.asarray(x)
    out = np.empty((x.shape[0], model.coeffs.shape[1]), dtype=np.float64)
    d_max = kelm.sq_dist_bound(x, model.landmarks) if model.gamma else np.inf

    def project_block(start, stop, kernel):
        rows = x[start:stop].astype(np.float64, copy=False)
        if not np.all(np.isfinite(rows)):
            raise DataError("non-finite value in KPCA input")
        _kernel(rows, model.landmarks, model.gamma, out=kernel, d_max=d_max)
        kernel -= kernel.mean(axis=1, keepdims=True)
        kernel -= model.col_mean
        kernel += model.total_mean
        np.matmul(kernel, model.coeffs, out=out[start:stop])

    parallel.run_row_blocks(project_block, x.shape[0], model.landmarks.shape[0])
    return out


def kpca_reduce(stacked: np.ndarray, cfg: MstvConfig, seed: int) -> np.ndarray:
    """Project every pixel of the (H, W, F) stacked cube onto the top
    components of an RBF KPCA with gamma = 1 / F, one row per pixel; ``seed``
    draws the landmark pixels (``kpca_fit``). The pixels are passed on as a
    view of the stack: only the landmarks and each projected block are cast
    to float64, which is exact from float32."""
    x = stacked.reshape(-1, stacked.shape[2])
    model = kpca_fit(x, cfg.n_components, 1.0 / x.shape[1], cfg.landmark_count, seed)
    return kpca_transform(model, x)

