"""Hyperspectral cube and label raster file I/O, and splits.

Every raster is one array in numpy's ``.npy`` format, under whatever file
name it is given: a cube is an (H, W, B) array, a label raster an (H, W)
array of class ids. Both load as plain ndarrays: ``load_cube`` returns the
cube as float32 of finite values, the array every feature stage takes, and
``load_labels`` the label raster as validated uint16 ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

# label rasters are stored as uint16, so class ids stop at its largest value
MAX_CLASSES = np.iinfo(np.uint16).max


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


def load_labels(path, num_classes: int) -> np.ndarray:
    """Read the (H, W) label raster in the .npy file at ``path`` as a uint16
    array of class ids: 0 means unlabeled, labeled ids run 1..num_classes.

    A class may be absent, as in a prediction raster; ``stratified_split``
    rejects a ground truth that lacks one. Float ids are range-checked before
    the cast, so no id wraps.
    """
    lab = _load_raster(path, ndim=2)
    if any(s < 1 for s in lab.shape):
        raise DataError(f"label raster dimensions must be >= 1, got {lab.shape}")
    if not np.issubdtype(lab.dtype, np.integer):
        if not np.all(np.isfinite(lab)):
            raise DataError("label raster contains non-finite values")
        if not np.all(lab == np.round(lab)):
            raise DataError("label raster contains non-integer values")
    if not 1 <= num_classes <= MAX_CLASSES:
        raise DataError(f"num_classes must lie in 1..{MAX_CLASSES}, got {num_classes}")
    if lab.min() < 0:
        raise DataError("label raster contains negative values")
    top = int(lab.max())
    if top > num_classes:
        raise DataError(f"label {top} exceeds num_classes={num_classes}")
    return lab.astype(np.uint16)


def save_labels(labels: np.ndarray, path) -> None:
    """Write the (H, W) class ids ``labels`` as a uint16 .npy file at ``path``.
    The array must be of an integer dtype with ids in 0..65535; any other is
    a DataError, never cast or wrapped."""
    if labels.size and not (np.issubdtype(labels.dtype, np.integer)
                            and 0 <= labels.min() and labels.max() <= MAX_CLASSES):
        raise DataError(f"label ids must be integers in 0..{MAX_CLASSES}")
    save_cube(labels.astype(np.uint16, copy=False), path)


def check_companion(cube: np.ndarray, labels: np.ndarray) -> None:
    """Reject a cube/label pair whose spatial dimensions disagree."""
    if cube.shape[:2] != labels.shape:
        raise DataError(
            f"label raster {labels.shape[0]}x{labels.shape[1]} does not match "
            f"cube {cube.shape[0]}x{cube.shape[1]}"
        )


def train_count(class_size: int, fraction: float) -> int:
    """Per-class training size: max(1, round(fraction * n)), half away from zero."""
    return max(1, int(np.floor(fraction * class_size + 0.5)))


def stratified_split(labels: np.ndarray, num_classes: int, fraction: float,
                     seed: int) -> SampleSplit:
    """Seeded per-class split of the labeled pixels into train and test.

    Each class contributes ``train_count`` pixels drawn uniformly without
    replacement; the remainder goes to the test side. Deterministic for a
    fixed seed. A class of 1..num_classes without labeled pixels is a
    DataError.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must lie in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    flat = labels.ravel()
    train_parts, test_parts = [], []
    for c in range(1, num_classes + 1):
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
