import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hsikelm.lbp import lbp_features

# independent oracle: explicit neighbor walk with clamped (replicate) indexing
_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1)]


def lbp_code(img, r, c):
    h, w = img.shape
    code = 0
    for bit, (dr, dc) in enumerate(_OFFSETS):
        rr = min(max(r + dr, 0), h - 1)
        cc = min(max(c + dc, 0), w - 1)
        if img[rr, cc] >= img[r, c]:
            code |= 1 << bit
    return code


def oracle_codes(img):
    return np.array([[lbp_code(img, r, c) for c in range(img.shape[1])]
                     for r in range(img.shape[0])])


def feature_code(img, r, c):
    """The library's code of one pixel, read back from ``lbp_features``."""
    scaled = lbp_features(img[:, :, None])[r * img.shape[1] + c, 0]
    return int(round(scaled * 255))


def test_uniform_patch_gives_255():
    img = np.full((3, 3), 9.0)
    assert lbp_code(img, 1, 1) == feature_code(img, 1, 1) == 255


def test_strict_center_maximum_gives_0():
    img = np.array([[1, 2, 3], [4, 9, 5], [6, 7, 8]], dtype=float)
    assert lbp_code(img, 1, 1) == feature_code(img, 1, 1) == 0


def test_hand_patch_code_66():
    img = np.array([[5, 9, 1], [4, 7, 2], [8, 3, 6]], dtype=float)
    assert lbp_code(img, 1, 1) == feature_code(img, 1, 1) == 66


def test_single_pixel_replicates_to_255():
    img = np.array([[4.0]])
    assert lbp_code(img, 0, 0) == 255
    cube = img[:, :, None]
    assert lbp_features(cube).tolist() == [[1.0]]


def test_constant_cube_all_ones():
    cube = np.full((4, 5, 3), 2.5, dtype=np.float32)
    feats = lbp_features(cube)
    assert feats.shape == (20, 3)
    assert np.all(feats == 1.0)


def test_reduced_scene_shape():
    cube = np.zeros((145, 145, 20), dtype=np.float32)
    assert lbp_features(cube).shape == (145 * 145, 20)


def test_matches_oracle_on_random_images():
    rng = np.random.default_rng(7)
    for _ in range(5):
        img = rng.integers(0, 256, size=(32, 32)).astype(np.float32)
        cube = img[:, :, None]
        got = (lbp_features(cube)[:, 0] * 255.0).round().astype(int).reshape(32, 32)
        assert np.array_equal(got, oracle_codes(img))


_int_images = hnp.arrays(np.float32, (8, 8), elements=st.integers(0, 255).map(float))


@settings(max_examples=30, deadline=None)
@given(img=_int_images, shift=st.integers(-512, 512))
def test_gray_shift_invariance(img, shift):
    base = lbp_features(img[:, :, None])
    shifted = lbp_features((img + np.float32(shift))[:, :, None])
    assert np.array_equal(base, shifted)


@settings(max_examples=30, deadline=None)
@given(img=_int_images, scale=st.sampled_from([0.25, 0.5, 2.0, 3.0, 4.0]))
def test_positive_scale_invariance(img, scale):
    base = lbp_features(img[:, :, None])
    scaled = lbp_features((img * np.float32(scale))[:, :, None])
    assert np.array_equal(base, scaled)
