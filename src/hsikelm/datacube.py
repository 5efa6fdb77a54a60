"""Hyperspectral cube / label raster data model, binary I/O, and splits.

Canonical on-disk format: a raw little-endian payload file plus a JSON
sidecar header at ``<payload path>.json``. Cubes are float32 stored
band-sequentially (all of band 0 in row-major order, then band 1, ...);
label rasters are uint16 with ``bands = 1``. Arrays of shape (H, W, B)
or (H, W) saved with ``numpy.save`` are also accepted by the loaders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

CUBE_ORDER = "row-major-band-sequential"
# label rasters are stored as uint16, so class ids stop at its largest value
MAX_CLASSES = np.iinfo(np.uint16).max
# header dtype name -> little-endian payload dtype
_DTYPES = {"f32": np.dtype("<f4"), "u16": np.dtype("<u2")}


@dataclass(frozen=True)
class HyperCube:
    """Immutable H x W x B raster of per-pixel spectra (float32 at rest)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3:
            raise DataError(f"cube values must be 3-D (H, W, B), got shape {v.shape}")
        if any(s < 1 for s in v.shape):
            raise DataError(f"cube dimensions must all be >= 1, got {v.shape}")
        if v.dtype != np.float32:
            v = v.astype(np.float32)
        bad = np.argwhere(~np.isfinite(v))
        if bad.size:
            r, c, b = (int(x) for x in bad[0])
            raise DataError(f"non-finite value at (row={r}, col={c}, band={b})")
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]

    @property
    def pixels(self) -> int:
        return self.height * self.width

    def as_matrix(self) -> np.ndarray:
        """Pixels-by-bands float64 view used by the linear algebra layers."""
        return self.values.reshape(self.pixels, self.bands).astype(np.float64)


@dataclass(frozen=True)
class LabelRaster:
    """Per-pixel class ids; 0 means unlabeled, labeled ids run 1..num_classes.

    A class may be absent, as in a prediction raster; ``stratified_split``
    rejects a ground truth that lacks one.
    """

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2:
            raise DataError(f"label raster must be 2-D, got shape {lab.shape}")
        if any(s < 1 for s in lab.shape):
            raise DataError(f"label raster dimensions must be >= 1, got {lab.shape}")
        if not np.issubdtype(lab.dtype, np.integer):
            if not np.all(np.isfinite(lab)):
                raise DataError("label raster contains non-finite values")
            if not np.all(lab == np.round(lab)):
                raise DataError("label raster contains non-integer values")
        if not 1 <= self.num_classes <= MAX_CLASSES:
            raise DataError(f"num_classes must lie in 1..{MAX_CLASSES}, got {self.num_classes}")
        if lab.min() < 0:
            raise DataError("label raster contains negative values")
        top = int(lab.max())
        if top > self.num_classes:
            raise DataError(f"label {top} exceeds num_classes={self.num_classes}")
        object.__setattr__(self, "labels", lab.astype(np.uint16))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def labeled_indices(self) -> np.ndarray:
        """Flat (row-major) indices of all labeled pixels."""
        return np.flatnonzero(self.labels.ravel() > 0)


@dataclass(frozen=True)
class SampleSplit:
    """Disjoint train/test partition of the labeled pixels (flat indices)."""

    train_idx: np.ndarray
    test_idx: np.ndarray


def _header_path(path: Path) -> Path:
    return Path(str(path) + ".json")


def read_json_object(path, error=DataError) -> dict:
    """The JSON object in the file at ``path``.

    A missing file, bytes that are not JSON (malformed or undecodable) and a
    value that is not an object raise ``error``. The bytes are decoded as
    ``json.loads`` detects (UTF-8, -16 or -32), whatever the locale.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"missing file: {path}")
    try:
        value = json.loads(path.read_bytes())
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError both derive from it
        raise error(f"malformed JSON in {path}: {e}") from e
    if not isinstance(value, dict):
        raise error(f"{path} must hold a JSON object")
    return value


def _read_header(path: Path, expect_dtype: str) -> dict:
    hpath = _header_path(path)
    header = read_json_object(hpath)
    required = {"height", "width", "bands", "dtype", "order", "byteorder"}
    missing = required - set(header)
    if missing:
        raise DataError(f"header {hpath} missing keys: {sorted(missing)}")
    if header["dtype"] != expect_dtype:
        raise DataError(f"header dtype {header['dtype']!r}, expected {expect_dtype!r}")
    if header["order"] != CUBE_ORDER:
        raise DataError(f"unsupported layout order {header['order']!r}")
    if header["byteorder"] != "little":
        raise DataError(f"unsupported byteorder {header['byteorder']!r}")
    for key in ("height", "width", "bands"):
        if type(header[key]) is not int or header[key] < 1:
            raise DataError(f"header field {key} must be a positive integer")
    return header


def _load_raster(path, dtype: str, ndim: int) -> np.ndarray:
    """(H, W, B) array (``ndim`` 3) or one-band (H, W) array (``ndim`` 2) read
    from a .npy file or from the header + band-sequential payload pair."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    if path.suffix == ".npy":
        try:
            arr = np.load(path)
        except (ValueError, EOFError) as e:  # pickled, object or corrupt data
            raise DataError(f"unreadable .npy file {path}: {e}") from e
        if not isinstance(arr, np.ndarray):  # a zip archive loads as an open NpzFile
            arr.close()
            raise DataError(f"{path} holds a zip archive, not one array")
        if arr.ndim != ndim:
            raise DataError(f"expected {ndim}-D array in {path}, got shape {arr.shape}")
        if arr.dtype.kind not in "biuf":
            raise DataError(f"{path} holds {arr.dtype} values, not numbers")
        return arr
    header = _read_header(path, expect_dtype=dtype)
    h, w, b = header["height"], header["width"], header["bands"]
    if ndim == 2 and b != 1:
        raise DataError(f"label raster must have bands=1, got {b}")
    raw = path.read_bytes()
    expected = h * w * b * _DTYPES[dtype].itemsize
    if len(raw) != expected:
        raise DataError(
            f"payload length mismatch for {path}: expected {expected} bytes, got {len(raw)}"
        )
    values = np.frombuffer(raw, dtype=_DTYPES[dtype]).reshape(b, h, w).transpose(1, 2, 0)
    values = np.ascontiguousarray(values)
    return values if ndim == 3 else values[:, :, 0]


def _save_raster(values_hwb: np.ndarray, path, dtype: str) -> None:
    """Write an (H, W, B) array as the band-sequential payload + header pair."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    h, w, b = values_hwb.shape
    header = {"height": h, "width": w, "bands": b, "dtype": dtype,
              "order": CUBE_ORDER, "byteorder": "little"}
    payload = np.ascontiguousarray(values_hwb.transpose(2, 0, 1), dtype=_DTYPES[dtype])
    path.write_bytes(payload.tobytes())  # first, so a failed write leaves no header behind
    try:
        _header_path(path).write_text(json.dumps(header, sort_keys=True) + "\n")
    except BaseException:  # nor a payload without its header
        path.unlink(missing_ok=True)
        raise


def load_cube(path) -> HyperCube:
    """Read a cube from the canonical format or from a (H, W, B) .npy file."""
    return HyperCube(_load_raster(path, "f32", ndim=3))


def save_cube(cube: HyperCube, path) -> None:
    """Write the canonical header + band-sequential payload pair."""
    _save_raster(cube.values, path, "f32")


def load_labels(path, num_classes: int) -> LabelRaster:
    """Read a label raster (canonical u16 or .npy); ids must lie in 0..num_classes."""
    return LabelRaster(_load_raster(path, "u16", ndim=2), num_classes)


def save_labels(raster: LabelRaster, path) -> None:
    _save_raster(raster.labels[:, :, None], path, "u16")


def check_companion(cube: HyperCube, labels: LabelRaster) -> None:
    """Reject a cube/label pair whose spatial dimensions disagree."""
    if (cube.height, cube.width) != (labels.height, labels.width):
        raise DataError(
            f"label raster {labels.height}x{labels.width} does not match "
            f"cube {cube.height}x{cube.width}"
        )


def train_count(class_size: int, fraction: float) -> int:
    """Per-class training size: max(1, round(fraction * n)), half away from zero."""
    return max(1, int(np.floor(fraction * class_size + 0.5)))


def stratified_split(labels: LabelRaster, fraction: float, seed: int) -> SampleSplit:
    """Seeded per-class split of the labeled pixels into train and test.

    Each class contributes ``train_count`` pixels drawn uniformly without
    replacement; the remainder goes to the test side. Deterministic for a
    fixed seed. A class without labeled pixels is a DataError.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must lie in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    flat = labels.labels.ravel()
    train_parts, test_parts = [], []
    for c in range(1, labels.num_classes + 1):
        idx = np.flatnonzero(flat == c)
        if idx.size == 0:
            raise DataError(f"class {c} has zero labeled pixels")
        k = train_count(idx.size, fraction)
        pick = rng.choice(idx.size, size=k, replace=False)
        mask = np.zeros(idx.size, dtype=bool)
        mask[pick] = True
        train_parts.append(idx[mask])
        test_parts.append(idx[~mask])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return SampleSplit(train_idx=train, test_idx=test)
