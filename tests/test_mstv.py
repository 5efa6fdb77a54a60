import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import eigh
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import splu, spsolve
from scipy.spatial.distance import cdist

from hsikelm import kelm, mstv, parallel
from hsikelm.errors import ConfigError, NumericalError
from hsikelm.mstv import (
    MstvConfig,
    RtvParams,
    band_grouping,
    group_and_average,
    kpca_fit,
    kpca_reduce,
    kpca_transform,
    multiscale_stack,
    rtv_smooth,
    scale_bands_unit,
)
from hsikelm.pipeline import make_synthetic_cube

from conftest import BLOCK_SIZES, row_blocks


def tv_oracle(img):
    """Brute-force total-variation sum over both axes."""
    h, w = img.shape
    total = 0.0
    for r in range(h):
        for c in range(w):
            if r + 1 < h:
                total += abs(img[r + 1, c] - img[r, c])
            if c + 1 < w:
                total += abs(img[r, c + 1] - img[r, c])
    return total


def pca_scores(x, n_components):
    centered = x - x.mean(axis=0)
    _, vectors = np.linalg.eigh(centered.T @ centered)
    return centered @ vectors[:, ::-1][:, :n_components]


def signed_by_largest_entry(vectors):
    """Each column negated where its first entry of largest magnitude is negative."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        magnitude = np.abs(out[:, j])
        if out[np.flatnonzero(magnitude == magnitude.max())[0], j] < 0:
            out[:, j] = -out[:, j]
    return out


def centred_landmark_kernel(model):
    """The model's centred landmark kernel, computed in a new array."""
    if model.gamma == 0.0:
        k_mm = model.landmarks @ model.landmarks.T
    else:
        k_mm = kelm.rbf_kernel(cdist(model.landmarks, model.landmarks, "sqeuclidean"), model.gamma)
    col_mean = k_mm.mean(axis=0)
    return k_mm - col_mean[None, :] - col_mean[:, None] + float(k_mm.mean())


def align_signs(a, reference):
    out = a.copy()
    for j in range(a.shape[1]):
        anchor = np.argmax(np.abs(reference[:, j]))
        if out[anchor, j] * reference[anchor, j] < 0:
            out[:, j] = -out[:, j]
    return out


# -- grouping -----------------------------------------------------------------

def test_grouping_200_into_20():
    grouping = band_grouping(200, 20)
    assert len(grouping) == 20
    assert all(len(g) == 10 for g in grouping)
    assert grouping[0] == tuple(range(10))
    assert grouping[-1] == tuple(range(190, 200))


def test_grouping_remainder_to_last():
    grouping = band_grouping(7, 3)
    assert grouping == ((0, 1), (2, 3), (4, 5, 6))


def test_grouping_errors():
    with pytest.raises(ConfigError):
        band_grouping(5, 6)
    with pytest.raises(ConfigError):
        band_grouping(5, 0)


def test_group_average_identity_when_k_equals_m():
    rng = np.random.default_rng(0)
    cube = rng.normal(size=(4, 4, 6)).astype(np.float32)
    out = group_and_average(cube, 6)
    assert np.array_equal(out, cube)


def test_group_average_two_band_mean():
    cube = np.array([[[1.0, 3.0]]], dtype=np.float32)
    out = group_and_average(cube, 1)
    assert out[0, 0, 0] == 2.0


def test_group_average_counts():
    cube = np.zeros((2, 2, 200), dtype=np.float32)
    assert group_and_average(cube, 20).shape[2] == 20


@settings(max_examples=25, deadline=None)
@given(
    cube=hnp.arrays(np.float32, (3, 3, 8), elements=st.floats(-50, 50, width=32)),
    k=st.integers(1, 8),
)
def test_group_average_within_group_bounds(cube, k):
    out = group_and_average(cube, k)
    for g, members in enumerate(band_grouping(8, k)):
        src = cube[:, :, list(members)]
        assert np.all(out[:, :, g] >= src.min(axis=2) - 1e-6)
        assert np.all(out[:, :, g] <= src.max(axis=2) + 1e-6)


@pytest.mark.parametrize("shape, k", [((7, 9, 103), 20), ((5, 6, 200), 2), ((4, 3, 7), 3)])
def test_group_average_bit_equal_to_float64_copy(shape, k):
    cube = np.random.default_rng(shape[2]).normal(size=shape).astype(np.float32)
    vals = cube.astype(np.float64)
    want = np.stack([vals[:, :, list(members)].mean(axis=2)
                     for members in band_grouping(shape[2], k)], axis=2)
    assert np.array_equal(group_and_average(cube, k), want.astype(np.float32))


def test_group_average_makes_no_float64_copy_of_the_cube():
    cube = np.random.default_rng(0).normal(size=(64, 64, 200)).astype(np.float32)
    tracemalloc.start()
    try:
        group_and_average(cube, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cube.nbytes // 4  # a float64 copy would be twice the cube


def test_scale_bands_unit():
    cube = np.array([[[2.0, 5.0]], [[4.0, 5.0]], [[6.0, 5.0]]], dtype=np.float32)
    out = scale_bands_unit(cube)
    assert np.allclose(out[:, 0, 0], [0.0, 0.5, 1.0])
    assert np.all(out[:, 0, 1] == 0.0)  # constant band pinned to 0


# -- smoothing ----------------------------------------------------------------

def test_constant_image_fixed_point():
    img = np.full((20, 20), 4.25)
    out = rtv_smooth(img, RtvParams(lam=0.01, sigma=2.0))
    assert np.max(np.abs(out - img)) < 1e-10


def test_lambda_zero_identity():
    rng = np.random.default_rng(1)
    img = rng.normal(size=(16, 16))
    out = rtv_smooth(img, RtvParams(lam=0.0, sigma=2.0))
    assert np.array_equal(out, img)


def test_texture_suppression_preserves_structure_mean():
    rows = np.linspace(0, 1, 64)[:, None]
    step = (rows > 0.5).astype(float) * np.ones((64, 64))
    checker = (((np.arange(64)[:, None] + np.arange(64)[None, :]) % 2) * 2 - 1) * 0.25
    img = step + checker
    out = rtv_smooth(img, RtvParams(lam=0.005, sigma=3.0))
    assert tv_oracle(out) < tv_oracle(img)
    assert abs(out.mean() - img.mean()) <= 0.01 * abs(img.mean())
    assert np.all(np.isfinite(out))


def test_smoothing_deterministic():
    rng = np.random.default_rng(2)
    img = rng.normal(size=(24, 24))
    params = RtvParams(lam=0.01, sigma=2.0)
    assert np.array_equal(rtv_smooth(img, params), rtv_smooth(img, params))


# rtv_smooth(img.T).T - rtv_smooth(img) on the band below measured 1.9e-14 at (lam 0.005,
# sigma 1) and 2.8e-14 at (0.01, 3), rounding only; the bound leaves a margin of 35x. With
# wx or wy taken along the wrong axis in _texture_weights it was 0.15 and 0.076.
TRANSPOSE_TOL = 1e-12


@pytest.mark.parametrize("lam, sigma", [(0.005, 1.0), (0.01, 3.0)])
def test_smoothing_commutes_with_transposition(lam, sigma):
    # a transpose swaps wx and wy and reorders the pixels, so the system is the
    # same up to that order. A flip is not a symmetry: the forward differences
    # (weight of edge (p, p+1) at p, last column and row zero) orient the smoother
    cube, _ = make_synthetic_cube(40, 36, 24, 4, 0.5, seed=1)
    img = scale_bands_unit(cube)[:, :, 0].astype(np.float64)  # 40x36, so rows and columns differ
    params = RtvParams(lam=lam, sigma=sigma)
    expected = rtv_smooth(img, params)
    assert np.max(np.abs(rtv_smooth(img.T, params).T - expected)) <= TRANSPOSE_TOL


def edge_list_system(wx, wy, lam):
    """I + lam * L_w assembled from the edge list: four COO entries per edge,
    duplicates summed by the CSR conversion, then the identity added."""
    h, w = wx.shape
    n = h * w
    idx = np.arange(n).reshape(h, w)
    # horizontal edges (p, p+1) and vertical edges (p, p+w)
    hp = idx[:, :-1].ravel()
    hw = lam * wx[:, :-1].ravel()
    vp = idx[:-1, :].ravel()
    vw = lam * wy[:-1, :].ravel()
    rows = np.concatenate([hp, hp + 1, hp, hp + 1, vp, vp + w, vp, vp + w])
    cols = np.concatenate([hp, hp + 1, hp + 1, hp, vp, vp + w, vp + w, vp])
    data = np.concatenate([hw, hw, -hw, -hw, vw, vw, -vw, -vw])
    return identity(n, format="csr") + coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (40, 56), (61, 34)])
def test_rtv_system_bit_equal_to_edge_list_oracle(shape):
    img = np.random.default_rng(shape[0] * shape[1]).uniform(size=shape)
    wx, wy = mstv._texture_weights(img, 2.0)
    got = mstv._rtv_system(wx, wy, 0.005)
    want = edge_list_system(wx, wy, 0.005)
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def test_one_round_matches_default_ordering_oracle(monkeypatch):
    monkeypatch.setattr(mstv, "RTV_ROUNDS", 1)
    rng = np.random.default_rng(6)
    img = np.where(np.arange(56)[None, :] < 23, 1.0, 0.2) + 0.1 * rng.normal(size=(40, 56))
    params = RtvParams(lam=0.01, sigma=2.0)
    wx, wy = mstv._texture_weights(img, params.sigma)
    system = edge_list_system(wx, wy, params.lam)
    expected = spsolve(system, img.ravel()).reshape(img.shape)  # scipy's default ordering
    out = rtv_smooth(img, params)
    assert np.max(np.abs(out - expected)) <= 1e-12 * (1.0 + np.max(np.abs(img)))


def rtv_oracle(img, params):
    """All RTV_ROUNDS rounds, each solved by spsolve's default ordering."""
    out, sigma = img.copy(), params.sigma
    for _ in range(mstv.RTV_ROUNDS):
        wx, wy = mstv._texture_weights(out, sigma)
        out = spsolve(edge_list_system(wx, wy, params.lam), img.ravel()).reshape(img.shape)
        sigma = max(sigma / 2.0, 0.5)
    return out


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (40, 56), (61, 34)])
def test_all_rounds_match_default_ordering_oracle(shape, monkeypatch):
    h, w = shape
    rng = np.random.default_rng(h * w)
    img = np.where(np.arange(w)[None, :] < (w * 23) // 56, 1.0, 0.2) + 0.1 * rng.normal(size=shape)
    params = RtvParams(lam=0.01, sigma=2.0)
    original, solves = mstv.spsolve, []

    def counted(*args):
        solves.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(mstv, "spsolve", counted)
    out = rtv_smooth(img, params)
    assert solves == [(h * w, h * w)] * mstv.RTV_ROUNDS
    assert np.max(np.abs(out - rtv_oracle(img, params))) <= 1e-12 * (1.0 + np.max(np.abs(img)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (40, 56), (61, 34), (145, 145)])
def test_elimination_order_is_superlu_full_factorization_order(shape):
    # the order comes from an incomplete LU of a unit-weight system; a full
    # LU of a system with other weights must order the columns the same way
    h, w = shape
    rng = np.random.default_rng(h * w)
    wx, wy = rng.uniform(0.5, 2.0, size=shape), rng.uniform(0.5, 2.0, size=shape)
    lu = splu(edge_list_system(wx, wy, 0.005).tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(mstv._rtv_order(h, w), np.argsort(lu.perm_c))


@pytest.mark.parametrize("workers", [1, 2])
def test_elimination_order_computed_once_per_shape(workers, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    original_spilu = mstv.spilu

    def slow_spilu(*args, **kwargs):
        time.sleep(0.05)  # two workers that both miss the cache would both get here
        return original_spilu(*args, **kwargs)

    monkeypatch.setattr(mstv, "spilu", slow_spilu)
    mstv._rtv_order.cache_clear()
    scales = [RtvParams(lam=0.01, sigma=1.0), RtvParams(lam=0.005, sigma=2.0)]
    rng = np.random.default_rng(9)
    multiscale_stack(rng.uniform(size=(12, 9, 3)).astype(np.float32), scales)
    assert mstv._rtv_order.cache_info().misses == 1
    multiscale_stack(rng.uniform(size=(9, 12, 3)).astype(np.float32), scales)
    assert mstv._rtv_order.cache_info().misses == 2
    for h, w in [(12, 9), (9, 12)]:
        order = mstv._rtv_order(h, w)
        assert np.array_equal(np.sort(order), np.arange(h * w))
        assert not order.flags.writeable
    assert mstv._rtv_order.cache_info().misses == 2


def test_rtv_rejects_non_finite():
    img = np.zeros((4, 4))
    img[1, 1] = np.nan
    with pytest.raises(Exception, match="non-finite"):
        rtv_smooth(img, RtvParams())


def test_rtv_params_validated():
    # NaN and infinity come through the API too; the config parser rejects them earlier
    for params, message in [
        ({"lam": -0.1}, "lambda must be finite and >= 0, got -0.1"),
        ({"lam": float("nan")}, "lambda must be finite and >= 0, got nan"),
        ({"lam": float("inf")}, "lambda must be finite and >= 0, got inf"),
        ({"sigma": 0.0}, "sigma must be finite and > 0, got 0.0"),
        ({"sigma": float("nan")}, "sigma must be finite and > 0, got nan"),
        ({"sigma": float("inf")}, "sigma must be finite and > 0, got inf"),
    ]:
        with pytest.raises(ConfigError, match=message):
            RtvParams(**params)


# -- multi-scale stack --------------------------------------------------------

def test_stack_identity_single_scale_lambda_zero():
    rng = np.random.default_rng(3)
    cube = rng.normal(size=(6, 6, 3)).astype(np.float32)
    out = multiscale_stack(cube, [RtvParams(lam=0.0, sigma=1.0)])
    assert np.allclose(out, cube, atol=1e-6)


def test_stack_band_count_and_order():
    rng = np.random.default_rng(4)
    cube = rng.normal(size=(5, 5, 2)).astype(np.float32)
    scales = [RtvParams(lam=0.0, sigma=1.0), RtvParams(lam=0.0, sigma=2.0)]
    out = multiscale_stack(cube, scales)
    assert out.shape[2] == 4
    # scale-major: [s0b0, s0b1, s1b0, s1b1]
    assert np.allclose(out[:, :, 0], cube[:, :, 0], atol=1e-6)
    assert np.allclose(out[:, :, 1], cube[:, :, 1], atol=1e-6)
    assert np.allclose(out[:, :, 2], cube[:, :, 0], atol=1e-6)
    assert np.allclose(out[:, :, 3], cube[:, :, 1], atol=1e-6)


def test_stack_k20_l3_gives_60_bands():
    cube = np.random.default_rng(5).normal(size=(4, 4, 20)).astype(np.float32)
    scales = [RtvParams(lam=0.0, sigma=s) for s in (1.0, 2.0, 3.0)]
    assert multiscale_stack(cube, scales).shape[2] == 60


def test_stack_pool_matches_serial_loop():
    rng = np.random.default_rng(7)
    cube = rng.uniform(size=(40, 56, 3)).astype(np.float32)
    scales = [RtvParams(lam=0.01, sigma=1.0), RtvParams(lam=0.005, sigma=2.0)]
    out = multiscale_stack(cube, scales)
    with parallel.single_threaded_blas():
        serial = [rtv_smooth(cube[:, :, b], p) for p in scales for b in range(3)]
    assert np.array_equal(out, np.stack(serial, axis=2).astype(np.float32))


def test_stack_residual_gate_fails_fast_and_blas_threads_restored(monkeypatch, openblas_at_two_threads):
    cube = np.random.default_rng(8).uniform(size=(24, 24, 10)).astype(np.float32)
    scales = [RtvParams(sigma=1.0), RtvParams(sigma=2.0)]
    controls = openblas_at_two_threads
    calls = []  # BLAS thread counts seen by each call

    def counted(image, params):
        calls.append([get() for _, get in controls])
        return rtv_smooth(image, params)

    monkeypatch.setattr(mstv, "_SOLVE_TOL", 0.0)
    monkeypatch.setattr(mstv, "rtv_smooth", counted)
    with pytest.raises(NumericalError, match="residual"):
        multiscale_stack(cube, scales)
    assert len(calls) < cube.shape[2] * len(scales)
    assert calls[0] == [1] * len(controls)
    assert [get() for _, get in controls] == [2] * len(controls)


# -- kernel PCA ---------------------------------------------------------------

def test_linear_full_landmark_matches_pca():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 3))
    model = kpca_fit(x, n_components=3, gamma=0.0, landmark_count=10, seed=0)
    got = kpca_transform(model, x)
    want = pca_scores(x, 3)
    assert np.allclose(align_signs(got, want), want, atol=1e-6)


def test_fewer_rows_than_components_rejected():
    with pytest.raises(ConfigError, match="landmark count 3 < n_components 4"):
        kpca_fit(np.ones((3, 5)), n_components=4, gamma=1.0, landmark_count=10, seed=0)


def test_identical_pixels_rejected():
    x = np.ones((12, 4))
    with pytest.raises(NumericalError, match="positive eigenvalues"):
        kpca_fit(x, n_components=2, gamma=1.0, landmark_count=12, seed=0)


def test_rank_message_reports_achievable():
    x = np.zeros((10, 3))
    x[:, 0] = np.arange(10)  # rank-1 data
    with pytest.raises(NumericalError, match="achievable n_components=1"):
        kpca_fit(x, n_components=2, gamma=0.0, landmark_count=10, seed=0)


@pytest.mark.parametrize("rank, n_components, m", [(3, 5, 10), (4, 6, 40), (3, 10, 10)])
def test_kpca_fit_rank_message_counts_inside_the_top_k(rank, n_components, m):
    # only the top n_components eigenpairs are computed, and the count among
    # them is the full spectrum's, also when they are all m of them
    x = np.zeros((m, 3 + rank))
    x[:, :rank] = np.random.default_rng(rank).normal(size=(m, rank))  # rank-`rank` data
    with pytest.raises(NumericalError, match=f"achievable n_components={rank}$"):
        kpca_fit(x, n_components=n_components, gamma=0.0, landmark_count=m, seed=0)


def test_kpca_fit_rank_message_when_every_component_is_asked_for():
    # the centred kernel always has the null vector of ones: m - 1 at most
    x = np.random.default_rng(3).normal(size=(30, 5))
    with parallel.single_threaded_blas():
        eigenvalues = eigh(centred_landmark_kernel(kpca_fit(x, 2, 0.5, 30, seed=0)),
                           eigvals_only=True)
    achievable = int(np.sum(eigenvalues > eigenvalues[-1] * mstv._EIG_RTOL))
    assert achievable == 29
    with pytest.raises(NumericalError, match="achievable n_components=29$"):
        kpca_fit(x, n_components=30, gamma=0.5, landmark_count=30, seed=0)


def test_two_cluster_separation():
    x = np.vstack([np.tile([0.0, 0.0], (5, 1)), np.tile([3.0, 1.0], (5, 1))])
    model = kpca_fit(x, n_components=1, gamma=1.0, landmark_count=10, seed=0)
    scores = kpca_transform(model, x)[:, 0]
    assert np.all(scores[:5] * scores[5:] < 0)
    assert np.allclose(scores[:5], scores[0])


def test_eigenvalues_positive_descending():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 6))
    model = kpca_fit(x, n_components=5, gamma=0.3, landmark_count=30, seed=1)
    assert np.all(model.eigenvalues > 0)
    assert np.all(np.diff(model.eigenvalues) <= 0)


def near_equal_spectrum(m, gap, count=8):
    """m rows whose centred linear kernel has the eigenvalues 1 + j·gap, j =
    count - 1 .. 0, and m - count zeros: the kept components and the first
    dropped one are all within (count - 1)·gap of each other."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(m, count)))
    q, _ = np.linalg.qr(q - q.mean(axis=0))  # orthonormal columns orthogonal to the ones
    return q * np.sqrt(1.0 + gap * np.arange(count)[::-1])


# (x, n_components, gamma, landmark count, eigenvalue and eigenvector tolerance).
# The worst differences measured, on the default OpenBLAS kernels and on
# OPENBLAS_CORETYPE=Prescott, were 1.2e-15 relative for the eigenvalues, 7.4e-14
# for the vectors and 8.2e-13 for the vectors at the 1e-6 gap (they grow as
# 1 / gap: 3.1e-10 at a 1e-8 gap). Each tolerance is 80 to 135 times those.
TOP_K_CASES = {
    "rbf": (np.random.default_rng(9).normal(size=(2000, 6)), 20, 0.5, 400, 1e-13, 1e-11),
    "unit-range": (np.random.default_rng(10).uniform(size=(1200, 60)), 20, 1 / 60, 1000,
                   1e-13, 1e-11),
    "all-but-the-null-vector": (np.random.default_rng(4).normal(size=(30, 5)), 29, 0.5, 30,
                                1e-13, 1e-11),
    "near-equal": (near_equal_spectrum(60, 1e-6), 5, 0.0, 60, 1e-13, 1e-10),
}


@pytest.mark.parametrize("case", TOP_K_CASES)
def test_kpca_fit_top_k_matches_the_full_spectrum(case):
    x, n_components, gamma, m, eig_tol, vec_tol = TOP_K_CASES[case]
    model = kpca_fit(x, n_components, gamma, m, seed=0)
    with parallel.single_threaded_blas():
        eigenvalues, eigenvectors = eigh(centred_landmark_kernel(model))
    want_values = eigenvalues[::-1][:n_components]
    want_vectors = eigenvectors[:, ::-1][:, :n_components]
    assert np.max(np.abs(model.eigenvalues - want_values)) <= eig_tol * want_values[0]
    vectors = model.coeffs * np.sqrt(model.eigenvalues)
    assert np.max(np.abs(align_signs(vectors, want_vectors) - want_vectors)) <= vec_tol


@pytest.mark.parametrize("case", TOP_K_CASES)
def test_kpca_fit_sign_convention_holds_for_every_component(case):
    x, n_components, gamma, m, _, _ = TOP_K_CASES[case]
    coeffs = kpca_fit(x, n_components, gamma, m, seed=0).coeffs
    assert np.array_equal(signed_by_largest_entry(coeffs), coeffs)
    first_largest = np.argmax(np.abs(coeffs), axis=0)
    assert np.all(coeffs[first_largest, np.arange(n_components)] > 0)


def test_kpca_fit_sign_convention_breaks_a_tie_toward_the_first_row():
    # two landmarks: the one component is ±(1, -1) / sqrt(2), entries of equal magnitude
    model = kpca_fit(np.array([[0.0], [1.0]]), 1, 1.0, 2, seed=0)
    column = model.coeffs[:, 0] * np.sqrt(model.eigenvalues[0])
    assert abs(column[0]) == abs(column[1]) and column[0] > 0 > column[1]


def test_kpca_fit_rejects_eigenvalues_tied_across_the_cut():
    # at this gamma every off-diagonal kernel entry is below 1e-50: the centred
    # kernel's top m - 1 eigenvalues all round to 1, the kept components are
    # not determined, and LAPACK's bisection finds fewer than asked
    x = np.random.default_rng(13).uniform(size=(1000, 60))
    with pytest.raises(NumericalError, match="eigenvalues are tied across component 5$"):
        kpca_fit(x, n_components=5, gamma=40.0, landmark_count=300, seed=0)


def test_kpca_fit_centres_the_landmark_kernel_in_place():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2000, 6))
    m = 400
    kpca_fit(x, 4, 0.5, 30, seed=0)  # first-call setup outside the measurement
    tracemalloc.start()
    try:
        model = kpca_fit(x, 4, 0.5, m, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the kernel, factored in place, and eigh's workspace; the m x m eigenvector
    # matrix would make about 2·m², a copy for eigh or a centred copy one more m²
    assert peak < 1.5 * 8 * m * m
    # the same bits as centring a copy, in the same operation order, and the same
    # top-k call and sign convention
    with parallel.single_threaded_blas():
        eigenvalues, eigenvectors = eigh(centred_landmark_kernel(model), subset_by_index=[m - 4, m - 1])
    assert np.array_equal(model.eigenvalues, eigenvalues[::-1])
    want = signed_by_largest_entry(eigenvectors[:, ::-1]) / np.sqrt(model.eigenvalues)
    assert np.array_equal(model.coeffs, want)


def test_kpca_reduce_shapes_and_determinism():
    rng = np.random.default_rng(8)
    cube = rng.normal(size=(8, 8, 6)).astype(np.float32)
    cfg = MstvConfig(k=3, scales=(RtvParams(lam=0.0),), n_components=3, landmark_count=40)
    a = kpca_reduce(cube, cfg, seed=2)
    b = kpca_reduce(cube, cfg, seed=2)
    assert a.shape == (64, 3)
    assert np.array_equal(a, b)
    # the seed draws 40 of the 64 pixels as landmarks
    assert not np.array_equal(a, kpca_reduce(cube, cfg, seed=3))


def test_kpca_reduce_makes_no_float64_copy_of_the_stack(monkeypatch):
    rng = np.random.default_rng(12)
    stack = rng.uniform(size=(64, 64, 40)).astype(np.float32)
    cfg = MstvConfig(k=8, scales=(RtvParams(lam=0.0),) * 5, n_components=5, landmark_count=100)
    # two blocks cast at once, as on two CPUs; all of them together would be the copy
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    kpca_reduce(stack[:16, :16], cfg, seed=0)  # first-call setup outside the measurement
    tracemalloc.start()
    try:
        got = kpca_reduce(stack, cfg, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    x = stack.reshape(-1, 40).astype(np.float64)
    assert peak < x.nbytes
    model = kpca_fit(x, 5, 1.0 / 40, 100, seed=1)
    assert np.array_equal(got, kpca_transform(model, x))


def test_mstv_config_validated():
    with pytest.raises(ConfigError):
        MstvConfig(k=0)
    with pytest.raises(ConfigError):
        MstvConfig(k=2, scales=(RtvParams(),), n_components=3)
    with pytest.raises(ConfigError):
        MstvConfig(n_components=10, landmark_count=5)


# -- KPCA transform in row blocks ---------------------------------------------

def _serial_block_transform(model, x):
    """The parent formula on the same row blocks, one after the other."""
    out = np.empty((x.shape[0], model.coeffs.shape[1]))
    with parallel.single_threaded_blas():
        for start, stop in row_blocks(x.shape[0]):
            block = x[start:stop]
            if model.gamma == 0.0:
                k = block @ model.landmarks.T
            else:
                k = kelm.rbf_kernel(cdist(block, model.landmarks, "sqeuclidean"), model.gamma)
            centered = k - k.mean(axis=1, keepdims=True) - model.col_mean[None, :] + model.total_mean
            out[start:stop] = centered @ model.coeffs
    return out


@pytest.mark.parametrize("gamma", [0.5, 0.0], ids=["rbf", "linear"])
@pytest.mark.parametrize("m", BLOCK_SIZES)
def test_kpca_transform_blocks_bit_equal_to_serial_blocks(cpus, gamma, m):
    rng = np.random.default_rng(m)
    model = kpca_fit(rng.normal(size=(300, 6)), n_components=4, gamma=gamma, landmark_count=50, seed=0)
    x = rng.normal(size=(m, 6))
    got = kpca_transform(model, x)
    assert got.shape == (m, 4) and np.array_equal(got, _serial_block_transform(model, x))


@pytest.mark.parametrize("gamma, skipped", [(1 / 60, True), (20.0, False)])
def test_kpca_transform_skips_the_floor_pass_only_where_it_cannot_fire(floor_passes, monkeypatch,
                                                                        gamma, skipped):
    # 60 unit-range bands, as the smoothing stack, spread along one line so
    # that the kernel has entries at every scale; at gamma 1 / 60, as
    # kpca_reduce sets it, the distance bound shows that the floor cannot
    # fire, at 20 it fires on the farthest pairs
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(2 * parallel.BLOCK_ROWS + 7, 1)) * rng.uniform(size=60)
    model = kpca_fit(x, n_components=5, gamma=gamma, landmark_count=300, seed=0)
    floor_passes.clear()
    got = kpca_transform(model, x)
    assert len(floor_passes) == 3 and all(s == skipped for s, _ in floor_passes)
    assert all(fired != skipped for _, fired in floor_passes)
    monkeypatch.setattr(kelm, "sq_dist_bound", lambda a, b: np.inf)  # the pass on every block
    assert np.array_equal(got, kpca_transform(model, x))
    assert len(floor_passes) == 6 and not any(s for s, _ in floor_passes[3:])


def test_kpca_transform_linear_blocks_match_one_product():
    # the linear kernel of a block is a matrix product whose bits BLAS may
    # let depend on the block's row count; the blocked features stay within
    # 1e-12 of the projection done as one product
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(3 * parallel.BLOCK_ROWS + 5, 60))
    model = kpca_fit(x, n_components=20, gamma=0.0, landmark_count=500, seed=0)
    k = x @ model.landmarks.T
    whole = (k - k.mean(axis=1, keepdims=True) - model.col_mean + model.total_mean) @ model.coeffs
    got = kpca_transform(model, x)
    assert np.max(np.abs(got - whole)) <= 1e-12 * np.max(np.abs(whole))


def test_kpca_transform_block_failure_order_and_blas_threads(monkeypatch, cpus, openblas_at_two_threads):
    rng = np.random.default_rng(3)
    model = kpca_fit(rng.normal(size=(300, 6)), n_components=4, gamma=0.5, landmark_count=50, seed=0)
    x = rng.normal(size=(5 * parallel.BLOCK_ROWS, 6))
    controls = openblas_at_two_threads
    seen = []  # BLAS thread counts inside the blocks

    def failing(a, b, metric, out):
        seen.append([get() for _, get in controls])
        start = int(np.flatnonzero((x == a[0]).all(axis=1))[0])
        if start == parallel.BLOCK_ROWS:
            time.sleep(0.2)  # let the later failure finish first
            raise ConfigError("block 1 failed")
        if start == 3 * parallel.BLOCK_ROWS:
            raise NumericalError("block 3 failed")
        return cdist(a, b, metric, out=out)

    monkeypatch.setattr(mstv, "cdist", failing)
    with pytest.raises(ConfigError, match="block 1 failed"):
        kpca_transform(model, x)
    assert seen and all(counts == [1] * len(controls) for counts in seen)
    assert [get() for _, get in controls] == [2] * len(controls)
