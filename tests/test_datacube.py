import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsikelm import datacube
from hsikelm.datacube import (
    check_companion,
    load_cube,
    load_labels,
    save_cube,
    save_labels,
    stratified_split,
    train_count,
)
from hsikelm.errors import ConfigError, DataError
from conftest import write_old_format_raster


def test_load_2x2x1_identity(tmp_path):
    path = tmp_path / "tiny.npy"
    np.save(path, np.array([0.0, 1.0, 2.0, 3.0], dtype=np.float32).reshape(2, 2, 1))
    cube = load_cube(path)
    assert cube.shape == (2, 2, 1) and cube.dtype == np.float32
    assert cube[0, 0, 0] == 0.0
    assert cube[0, 1, 0] == 1.0
    assert cube[1, 0, 0] == 2.0
    assert cube[1, 1, 0] == 3.0


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing"):
        load_cube(tmp_path / "nope.f32")


def test_non_finite_rejected_with_index(tmp_path):
    path = tmp_path / "nan.npy"
    np.save(path, np.array([0.0, np.nan, 2.0, 3.0], dtype=np.float32).reshape(2, 2, 1))
    with pytest.raises(DataError, match=r"row=0, col=1, band=0"):
        load_cube(path)


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_finite_value_beyond_float32_range_rejected_with_index(tmp_path, value):
    # finite, but it casts to float32 infinity: named as out of range, without a cast warning
    path = tmp_path / "big.npy"
    np.save(path, np.array([0.0, 1.0, value, value]).reshape(2, 2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"value -?1e\+39 at \(row=1, col=0, band=0\) "
                                            r"is out of float32 range"):
            load_cube(path)


def test_float32_cube_loads_without_a_copy(tmp_path, monkeypatch):
    values = np.zeros((2, 2, 1), dtype=np.float32)
    monkeypatch.setattr(datacube, "_load_raster", lambda path, ndim: values)
    assert load_cube(tmp_path / "any.npy") is values


def test_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    cube = rng.normal(size=(7, 5, 3)).astype(np.float32)
    first = tmp_path / "a.f32"
    save_cube(cube, first)
    loaded = load_cube(first)
    second = tmp_path / "b.f32"
    save_cube(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.f32", "b.f32"]


def test_file_names_kept_as_given(tmp_path):
    # the benchmark's fixtures are written as cube.f32 and labels.u16
    cube = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    labels = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.uint16)
    save_cube(cube, tmp_path / "cube.f32")
    save_labels(labels, tmp_path / "labels.u16")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cube.f32", "labels.u16"]
    assert np.array_equal(load_cube(tmp_path / "cube.f32"), cube)
    assert np.array_equal(load_labels(tmp_path / "labels.u16", 2), labels)


def test_old_format_conversion_recipe(tmp_path):
    # the README's recipe turns a raw band-sequential payload into a .npy cube
    values = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    p = tmp_path / "old.f32"
    write_old_format_raster(p, values)
    h, w, b = 2, 3, 4
    np.save(tmp_path / "new.npy", np.fromfile(p, "<f4").reshape(b, h, w).transpose(1, 2, 0))
    assert np.array_equal(load_cube(tmp_path / "new.npy"), values)


def _truncated_npy(path):
    np.save(path, np.zeros((2, 2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-3])


_MALFORMED = {
    "object.npy": lambda p: np.save(p, np.full((1, 1, 1), None), allow_pickle=True),
    "corrupt.npy": lambda p: p.write_bytes(b"not an array"),
    "truncated.npy": _truncated_npy,
    "text.npy": lambda p: np.save(p, np.full((1, 1, 1), "x")),
    "old_format.f32": lambda p: write_old_format_raster(p, np.zeros((1, 2, 1), dtype=np.float32)),
    "old_format.u16": lambda p: write_old_format_raster(p, np.ones((1, 2, 1), dtype="<u2")),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_raster_is_data_error(tmp_path, name):
    path = tmp_path / name
    _MALFORMED[name](path)
    with pytest.raises(DataError, match="not a .npy array file|values, not numbers"):
        if path.suffix == ".u16":
            load_labels(path, num_classes=1)
        else:
            load_cube(path)


def test_npy_reader(tmp_path):
    arr = np.zeros((145, 145, 200), dtype=np.float32)
    path = tmp_path / "scene.npy"
    np.save(path, arr)
    assert load_cube(path).shape == (145, 145, 200)


def _label_file(tmp_path, values, dtype=None):
    """The path of a .npy label file that holds ``values``."""
    path = tmp_path / "gt.npy"
    np.save(path, np.array(values, dtype=dtype))
    return path


def test_labels_round_trip(tmp_path):
    labels = np.array([[0, 1], [2, 1]], dtype=np.uint16)
    path = tmp_path / "gt.u16"
    save_labels(labels, path)
    loaded = load_labels(path, num_classes=2)
    assert loaded.dtype == np.uint16 and np.array_equal(loaded, labels)


def test_labels_npy_reader(tmp_path):
    loaded = load_labels(_label_file(tmp_path, [[1, 0], [2, 2]], np.int64), num_classes=2)
    assert loaded.dtype == np.uint16
    assert loaded.tolist() == [[1, 0], [2, 2]]


def test_all_zero_raster_rejected(tmp_path):
    # a raster may lack classes (a prediction raster can); the split rejects
    # such a ground truth before anything is trained on it
    raster = load_labels(_label_file(tmp_path, np.zeros((4, 4)), np.uint16), num_classes=3)
    with pytest.raises(DataError, match="class 1 has zero labeled pixels"):
        stratified_split(raster, 3, 0.5, seed=0)


def test_label_exceeding_num_classes(tmp_path):
    with pytest.raises(DataError, match="^label 5 exceeds num_classes=2$"):
        load_labels(_label_file(tmp_path, [[1, 5]], np.uint16), num_classes=2)


def test_num_classes_beyond_uint16_rejected(tmp_path):
    # the uint16 cast wrapped 65537 to 1 when num_classes let it through
    with pytest.raises(DataError, match=r"^num_classes must lie in 1\.\.65535, got 70000$"):
        load_labels(_label_file(tmp_path, [[1, 65537]], np.int64), num_classes=70000)
    edge = load_labels(_label_file(tmp_path, [[1, 65535]], np.int64), num_classes=65535)
    assert edge.dtype == np.uint16 and edge.tolist() == [[1, 65535]]


# cast to uint16 before these checks, 65537 loaded as 1, inf as 0 (unlabeled), and -1
# was reported as label 65535
@pytest.mark.parametrize("value, message", [
    (65537.0, "label 65537 exceeds"),
    (np.inf, "non-finite"),
    (-1.0, "negative"),
    (1.5, "non-integer"),
])
def test_float_label_range_checked_before_uint16_cast(tmp_path, value, message):
    with pytest.raises(DataError, match=message):
        load_labels(_label_file(tmp_path, [[1.0, value]]), num_classes=2)


def test_zero_size_label_raster_rejected(tmp_path):
    with pytest.raises(DataError, match=r"^label raster dimensions must be >= 1, got \(0, 3\)$"):
        load_labels(_label_file(tmp_path, np.zeros((0, 3)), np.uint16), num_classes=1)


def test_single_pixel_single_class_valid(tmp_path):
    raster = load_labels(_label_file(tmp_path, [[1]], np.uint16), num_classes=1)
    assert np.flatnonzero(raster).tolist() == [0]
    split = stratified_split(raster, 1, 0.5, seed=0)
    assert split.train_idx.tolist() == [0] and split.test_idx.size == 0


@pytest.mark.parametrize("values", [[[1, 65536]], [[-1, 1]], [[1.0, 2.0]]],
                         ids=["above-uint16", "negative", "float"])
def test_save_labels_never_wraps_an_id(tmp_path, values):
    path = tmp_path / "labels.u16"
    with pytest.raises(DataError, match=r"label ids must be integers in 0\.\.65535"):
        save_labels(np.array(values), path)
    assert not path.exists()


def test_companion_dims_must_match():
    cube = np.zeros((3, 4, 2), dtype=np.float32)
    check_companion(cube, np.ones((3, 4), dtype=np.uint16))
    with pytest.raises(DataError, match="^label raster 4x4 does not match cube 3x4$"):
        check_companion(cube, np.ones((4, 4), dtype=np.uint16))


def test_train_count_rule():
    assert train_count(7, 0.10) == 1  # max(1, round(0.7))
    assert train_count(4, 0.10) == 1  # max(1, round(0.4)) -> floor
    assert train_count(25, 0.10) == 3  # round half away from zero
    assert train_count(10, 1.0) == 10


def _striped_labels(rows_per_class, num_classes, width=10):
    lab = np.zeros((rows_per_class * num_classes, width), dtype=np.uint16)
    for c in range(num_classes):
        lab[c * rows_per_class : (c + 1) * rows_per_class] = c + 1
    return lab


def test_split_counts_and_partition():
    labels = _striped_labels(5, 3, width=10)  # 50 pixels per class
    split = stratified_split(labels, 3, 0.1, seed=0)
    flat = labels.ravel()
    for c in (1, 2, 3):
        n_train = int(np.sum(flat[split.train_idx] == c))
        n_test = int(np.sum(flat[split.test_idx] == c))
        assert n_train == train_count(50, 0.1) == 5
        assert n_train + n_test == 50
    assert np.intersect1d(split.train_idx, split.test_idx).size == 0
    together = np.union1d(split.train_idx, split.test_idx)
    assert np.array_equal(together, np.flatnonzero(labels))


def test_split_fraction_one_empty_test():
    labels = _striped_labels(2, 2)
    split = stratified_split(labels, 2, 1.0, seed=1)
    assert split.test_idx.size == 0
    assert split.train_idx.size == np.count_nonzero(labels)


def test_split_deterministic_and_seed_sensitive():
    labels = _striped_labels(10, 2, width=10)  # 200 labeled pixels
    a = stratified_split(labels, 2, 0.3, seed=42)
    b = stratified_split(labels, 2, 0.3, seed=42)
    c = stratified_split(labels, 2, 0.3, seed=43)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert not np.array_equal(a.train_idx, c.train_idx)


def test_split_bad_fraction():
    labels = _striped_labels(2, 2)
    with pytest.raises(ConfigError):
        stratified_split(labels, 2, 0.0, seed=0)
    with pytest.raises(ConfigError):
        stratified_split(labels, 2, 1.5, seed=0)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    fraction=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
def test_split_class_sums(sizes, fraction, seed):
    num_classes = len(sizes)
    total = sum(sizes)
    flat = np.concatenate([np.full(n, c + 1) for c, n in enumerate(sizes)])
    labels = flat.reshape(total, 1).astype(np.uint16)
    split = stratified_split(labels, num_classes, fraction, seed)
    lab = labels.ravel()
    for c, n in enumerate(sizes, start=1):
        n_train = int(np.sum(lab[split.train_idx] == c))
        assert n_train == train_count(n, fraction)
        assert n_train + int(np.sum(lab[split.test_idx] == c)) == n
