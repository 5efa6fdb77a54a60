"""Hyperspectral cube / label raster data model, file I/O, and splits.

Every raster is one array in numpy's ``.npy`` format, under whatever file
name it is given: a cube is an (H, W, B) array, a label raster an (H, W)
array of class ids. ``load_cube`` returns the cube as a plain float32
ndarray of finite values, the array every feature stage takes;
``load_labels`` returns a ``LabelRaster`` of uint16 ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

# label rasters are stored as uint16, so class ids stop at its largest value
MAX_CLASSES = np.iinfo(np.uint16).max


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


def _load_raster(path, ndim: int) -> np.ndarray:
    """The numeric (H, W, B) (``ndim`` 3) or (H, W) (``ndim`` 2) array in the
    .npy file at ``path``."""
    try:
        with open(path, "rb") as fh:
            arr = np.lib.format.read_array(fh, allow_pickle=False)
    except FileNotFoundError as e:
        raise DataError(f"missing file: {path}") from e
    except ValueError as e:  # a zip archive, raw bytes, a truncated file or an object array
        raise DataError(f"{path} is not a .npy array file: {e}") from e
    if arr.ndim != ndim:
        raise DataError(f"expected {ndim}-D array in {path}, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{path} holds {arr.dtype} values, not numbers")
    return arr


def load_cube(path) -> np.ndarray:
    """Read the (H, W, B) cube in the .npy file at ``path`` as a float32 array
    of finite values; a float32 file is not copied."""
    values = _load_raster(path, ndim=3)
    if any(s < 1 for s in values.shape):
        raise DataError(f"cube dimensions must all be >= 1, got {values.shape}")
    with np.errstate(over="ignore"):  # a finite value beyond float32's range casts to inf
        cube = values.astype(np.float32, copy=False)
    bad = np.argwhere(~np.isfinite(cube))
    if bad.size:
        r, c, b = (int(x) for x in bad[0])
        if np.isfinite(values[r, c, b]):
            raise DataError(f"value {values[r, c, b]} at (row={r}, col={c}, band={b}) "
                            f"is out of float32 range")
        raise DataError(f"non-finite value at (row={r}, col={c}, band={b})")
    return cube


def save_cube(values: np.ndarray, path) -> None:
    """Write the array ``values`` (a cube, a label raster or a feature matrix)
    as a .npy file at exactly ``path``, keeping its dtype."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:  # np.save would append .npy to a path
        np.save(fh, values)


def load_labels(path, num_classes: int) -> LabelRaster:
    """Read the (H, W) label raster in the .npy file at ``path``; ids must lie
    in 0..num_classes."""
    return LabelRaster(_load_raster(path, ndim=2), num_classes)


def save_labels(raster: LabelRaster, path) -> None:
    """Write the raster as a uint16 (H, W) .npy file at ``path``."""
    save_cube(raster.labels, path)


def check_companion(cube: np.ndarray, labels: LabelRaster) -> None:
    """Reject a cube/label pair whose spatial dimensions disagree."""
    if cube.shape[:2] != labels.labels.shape:
        raise DataError(
            f"label raster {labels.height}x{labels.width} does not match "
            f"cube {cube.shape[0]}x{cube.shape[1]}"
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
