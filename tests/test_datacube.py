import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsikelm.datacube import (
    HyperCube,
    LabelRaster,
    check_companion,
    load_cube,
    load_labels,
    save_cube,
    save_labels,
    stratified_split,
    train_count,
)
from hsikelm.errors import ConfigError, DataError


def write_cube_file(path, height, width, bands, payload: bytes):
    header = {
        "height": height, "width": width, "bands": bands,
        "dtype": "f32", "order": "row-major-band-sequential", "byteorder": "little",
    }
    (path.parent / (path.name + ".json")).write_text(json.dumps(header, sort_keys=True) + "\n")
    path.write_bytes(payload)


def test_load_2x2x1_identity(tmp_path):
    path = tmp_path / "tiny.f32"
    write_cube_file(path, 2, 2, 1, struct.pack("<4f", 0.0, 1.0, 2.0, 3.0))
    cube = load_cube(path)
    assert (cube.height, cube.width, cube.bands) == (2, 2, 1)
    assert cube.values[0, 0, 0] == 0.0
    assert cube.values[0, 1, 0] == 1.0
    assert cube.values[1, 0, 0] == 2.0
    assert cube.values[1, 1, 0] == 3.0


def test_payload_one_byte_short(tmp_path):
    path = tmp_path / "short.f32"
    write_cube_file(path, 2, 2, 1, struct.pack("<4f", 0, 1, 2, 3)[:-1])
    with pytest.raises(DataError, match="payload length mismatch"):
        load_cube(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing"):
        load_cube(tmp_path / "nope.f32")


def test_non_finite_rejected_with_index(tmp_path):
    path = tmp_path / "nan.f32"
    write_cube_file(path, 2, 2, 1, struct.pack("<4f", 0, float("nan"), 2, 3))
    with pytest.raises(DataError, match=r"row=0, col=1, band=0"):
        load_cube(path)


def test_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    cube = HyperCube(rng.normal(size=(7, 5, 3)).astype(np.float32))
    first = tmp_path / "a.f32"
    save_cube(cube, first)
    loaded = load_cube(first)
    second = tmp_path / "b.f32"
    save_cube(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.f32.json").read_bytes() == (tmp_path / "b.f32.json").read_bytes()


def test_band_sequential_layout(tmp_path):
    # band 0 fully precedes band 1 in the payload
    values = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    path = tmp_path / "c.f32"
    save_cube(HyperCube(values), path)
    flat = np.frombuffer(path.read_bytes(), dtype="<f4")
    assert np.array_equal(flat[:4], values[:, :, 0].ravel())
    assert np.array_equal(flat[4:], values[:, :, 1].ravel())


def _save_with_header(path, edit):
    """A 1x2 raster (a cube for .f32, labels for .u16) whose header becomes edit(header)."""
    if path.suffix == ".f32":
        save_cube(HyperCube(np.zeros((1, 2, 1), dtype=np.float32)), path)
    else:
        save_labels(LabelRaster(np.ones((1, 2), dtype=np.uint16), num_classes=1), path)
    hpath = path.parent / (path.name + ".json")
    hpath.write_text(json.dumps(edit(json.loads(hpath.read_text()))))


def _truncated_npy(path):
    np.save(path, np.zeros((2, 2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-3])


_MALFORMED = {
    "object.npy": lambda p: np.save(p, np.full((1, 1, 1), None), allow_pickle=True),
    "corrupt.npy": lambda p: p.write_bytes(b"not an array"),
    "truncated.npy": _truncated_npy,
    "text.npy": lambda p: np.save(p, np.full((1, 1, 1), "x")),
    "bool_height.f32": lambda p: _save_with_header(p, lambda h: {**h, "height": True}),
    "bool_bands.u16": lambda p: _save_with_header(p, lambda h: {**h, "bands": True}),
    "number_header.f32": lambda p: _save_with_header(p, lambda h: 5),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_raster_is_data_error(tmp_path, name):
    path = tmp_path / name
    _MALFORMED[name](path)
    with pytest.raises(DataError):
        if path.suffix == ".u16":
            load_labels(path, num_classes=1)
        else:
            load_cube(path)


def test_npy_reader(tmp_path):
    arr = np.zeros((145, 145, 200), dtype=np.float32)
    path = tmp_path / "scene.npy"
    np.save(path, arr)
    cube = load_cube(path)
    assert (cube.height, cube.width, cube.bands) == (145, 145, 200)


def test_labels_round_trip(tmp_path):
    labels = LabelRaster(np.array([[0, 1], [2, 1]], dtype=np.uint16), num_classes=2)
    path = tmp_path / "gt.u16"
    save_labels(labels, path)
    loaded = load_labels(path, num_classes=2)
    assert np.array_equal(loaded.labels, labels.labels)


def test_labels_npy_reader(tmp_path):
    path = tmp_path / "gt.npy"
    np.save(path, np.array([[1, 0], [2, 2]], dtype=np.int64))
    loaded = load_labels(path, num_classes=2)
    assert loaded.labels.dtype == np.uint16


def test_all_zero_raster_rejected():
    # a raster may lack classes (a prediction raster can); the split rejects
    # such a ground truth before anything is trained on it
    raster = LabelRaster(np.zeros((4, 4), dtype=np.uint16), num_classes=3)
    with pytest.raises(DataError, match="class 1 has zero labeled pixels"):
        stratified_split(raster, 0.5, seed=0)


def test_label_exceeding_num_classes():
    with pytest.raises(DataError, match="exceeds"):
        LabelRaster(np.array([[1, 5]], dtype=np.uint16), num_classes=2)


def test_num_classes_beyond_uint16_rejected():
    # the uint16 cast wrapped 65537 to 1 when num_classes let it through
    with pytest.raises(DataError, match=r"num_classes must lie in 1\.\.65535, got 70000"):
        LabelRaster(np.array([[1, 65537]], dtype=np.int64), num_classes=70000)
    assert LabelRaster(np.array([[1, 65535]], dtype=np.int64), num_classes=65535).labels.max() == 65535


# cast to uint16 before these checks, 65537 loaded as 1, inf as 0 (unlabeled), and -1
# was reported as label 65535
@pytest.mark.parametrize("value, message", [
    (65537.0, "label 65537 exceeds"),
    (np.inf, "non-finite"),
    (-1.0, "negative"),
])
def test_float_label_range_checked_before_uint16_cast(value, message):
    with pytest.raises(DataError, match=message):
        LabelRaster(np.array([[1.0, value]]), num_classes=2)


def test_single_pixel_single_class_valid():
    raster = LabelRaster(np.array([[1]], dtype=np.uint16), num_classes=1)
    assert raster.labeled_indices().tolist() == [0]


def test_companion_dims_must_match():
    cube = HyperCube(np.zeros((3, 4, 2), dtype=np.float32))
    good = LabelRaster(np.ones((3, 4), dtype=np.uint16), num_classes=1)
    check_companion(cube, good)
    bad = LabelRaster(np.ones((4, 4), dtype=np.uint16), num_classes=1)
    with pytest.raises(DataError, match="does not match"):
        check_companion(cube, bad)


def test_train_count_rule():
    assert train_count(7, 0.10) == 1  # max(1, round(0.7))
    assert train_count(4, 0.10) == 1  # max(1, round(0.4)) -> floor
    assert train_count(25, 0.10) == 3  # round half away from zero
    assert train_count(10, 1.0) == 10


def _striped_labels(rows_per_class, num_classes, width=10):
    lab = np.zeros((rows_per_class * num_classes, width), dtype=np.uint16)
    for c in range(num_classes):
        lab[c * rows_per_class : (c + 1) * rows_per_class] = c + 1
    return LabelRaster(lab, num_classes)


def test_split_counts_and_partition():
    labels = _striped_labels(5, 3, width=10)  # 50 pixels per class
    split = stratified_split(labels, 0.1, seed=0)
    flat = labels.labels.ravel()
    for c in (1, 2, 3):
        n_train = int(np.sum(flat[split.train_idx] == c))
        n_test = int(np.sum(flat[split.test_idx] == c))
        assert n_train == train_count(50, 0.1) == 5
        assert n_train + n_test == 50
    assert np.intersect1d(split.train_idx, split.test_idx).size == 0
    together = np.union1d(split.train_idx, split.test_idx)
    assert np.array_equal(together, labels.labeled_indices())


def test_split_fraction_one_empty_test():
    labels = _striped_labels(2, 2)
    split = stratified_split(labels, 1.0, seed=1)
    assert split.test_idx.size == 0
    assert split.train_idx.size == labels.labeled_indices().size


def test_split_deterministic_and_seed_sensitive():
    labels = _striped_labels(10, 2, width=10)  # 200 labeled pixels
    a = stratified_split(labels, 0.3, seed=42)
    b = stratified_split(labels, 0.3, seed=42)
    c = stratified_split(labels, 0.3, seed=43)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert not np.array_equal(a.train_idx, c.train_idx)


def test_split_bad_fraction():
    labels = _striped_labels(2, 2)
    with pytest.raises(ConfigError):
        stratified_split(labels, 0.0, seed=0)
    with pytest.raises(ConfigError):
        stratified_split(labels, 1.5, seed=0)


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
    labels = LabelRaster(flat.reshape(total, 1).astype(np.uint16), num_classes)
    split = stratified_split(labels, fraction, seed)
    lab = labels.labels.ravel()
    for c, n in enumerate(sizes, start=1):
        n_train = int(np.sum(lab[split.train_idx] == c))
        assert n_train == train_count(n, fraction)
        assert n_train + int(np.sum(lab[split.test_idx] == c)) == n
