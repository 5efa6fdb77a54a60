import json
import os
from pathlib import Path

import numpy as np
import pytest

import hsikelm
from hsikelm import datacube, kelm, parallel, pipeline


class ScriptedRng:
    """Stand-in generator returning pre-scripted draws, for hand-case tests.

    ``uniform`` pops raw scripted floats regardless of the requested range;
    ``standard_normal``/``integers`` pop scalars or arrays; ``permutation``
    returns the scripted order.
    """

    def __init__(self, uniforms=(), normals=(), int_rows=(), perm=None):
        self.uniforms = list(uniforms)
        self.normals = list(normals)
        self.int_rows = list(int_rows)
        self.perm = perm

    def uniform(self, *args, **kwargs):
        return self.uniforms.pop(0)

    def standard_normal(self, size=None):
        value = self.normals.pop(0)
        if size is None:
            return value
        return np.broadcast_to(np.asarray(value, dtype=float), (size,)).copy()

    def integers(self, low, high, size=None):
        return np.asarray(self.int_rows.pop(0))

    def permutation(self, n):
        return np.asarray(self.perm)


@pytest.fixture
def scripted_rng():
    return ScriptedRng


def blas_env(threads: str) -> dict:
    """This environment with ``OPENBLAS_NUM_THREADS`` set, for a subprocess that imports hsikelm."""
    src = str(Path(hsikelm.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)


@pytest.fixture
def openblas_at_two_threads():
    """Every loaded OpenBLAS set to 2 threads, a count a pin to 1 thread must
    undo; yields their (set, get) controls and restores the counts after."""
    controls = parallel.openblas_thread_controls()
    original = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(2)
    yield controls
    for (set_threads, _), count in zip(controls, original):
        set_threads(count)


# row counts for the blocks of parallel.run_row_blocks, none included: around
# 2048 rows (4 blocks of 512, 4 of 511 or 512, 5 of 409 or 410) and 6149 rows (13)
BLOCK_ROWS = parallel.BLOCK_ROWS
BLOCK_SIZES = [0, 1, 2047, 2048, 2049, 6149]


def row_blocks(rows):
    """(start, stop) of the blocks parallel.run_row_blocks makes: ⌈rows /
    BLOCK_ROWS⌉ of them, block k from k·rows // count to (k + 1)·rows // count."""
    count = -(-rows // BLOCK_ROWS)
    return [(k * rows // count, (k + 1) * rows // count) for k in range(count)]


def clustered_samples(n=300, seed=0):
    """n samples in 4-D, two clusters per class of 3, whose spread leaves
    kernel entries at every scale: at log10 gamma near 2 some fall below the
    RBF kernel's floor and others lie just above it."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 2.0, size=(6, 4))
    cluster = np.arange(n) % 6
    return centres[cluster] + 0.15 * rng.normal(size=(n, 4)), cluster % 3 + 1


@pytest.fixture
def floor_passes(monkeypatch):
    """Spies on ``kelm.floored_exp``: per call, whether its bound skipped the
    floor's pass over the smallest exponent, and whether the floor fired."""
    calls = []
    plain = kelm.floored_exp

    def spy(exponents, lowest=-np.inf):
        fired = bool(exponents.size and exponents.min() < kelm._LOG_FLOOR)
        calls.append((bool(lowest >= kelm._LOG_FLOOR), fired))
        return plain(exponents, lowest)

    monkeypatch.setattr(kelm, "floored_exp", spy)
    return calls


@pytest.fixture(params=[1, 8], ids=["1cpu", "8cpus"])
def cpus(request, monkeypatch):
    """The affinity mask's CPU count, as the job runner sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


@pytest.fixture
def small_scene(tmp_path):
    """A 32x32x20 3-class striped cube and its labels saved as .npy files."""
    cube, labels = pipeline.make_synthetic_cube(32, 32, 20, 3, 0.1, seed=0)
    cube_path = tmp_path / "cube.f32"
    label_path = tmp_path / "labels.u16"
    datacube.save_cube(cube, cube_path)
    datacube.save_labels(labels, label_path)
    return {"cube": cube, "labels": labels, "num_classes": 3,
            "cube_path": cube_path, "label_path": label_path}


def write_old_format_raster(path, values):
    """Write an (H, W, B) float32 or uint16 array in the retired on-disk format:
    a raw little-endian band-sequential payload at ``path`` plus a JSON header
    at ``<path>.json``. The loaders must reject it."""
    h, w, b = values.shape
    dtype = {"f": "f32", "u": "u16"}[values.dtype.kind]
    header = {"height": h, "width": w, "bands": b, "dtype": dtype,
              "order": "row-major-band-sequential", "byteorder": "little"}
    Path(f"{path}.json").write_text(json.dumps(header, sort_keys=True) + "\n")
    Path(path).write_bytes(np.ascontiguousarray(values.transpose(2, 0, 1)).tobytes())


def fast_config_dict(scene, out_dir, **extra):
    """Small-budget pipeline config for unit tests."""
    base = {
        "cube_path": str(scene["cube_path"]),
        "label_path": str(scene["label_path"]),
        "num_classes": scene["num_classes"],
        "train_fraction": 0.1,
        "seed": 0,
        "folds": 2,
        "output_dir": str(out_dir),
        "mstv": {"k": 5, "n_components": 5, "landmark_count": 256},
        "ssa": {"pop_size": 6, "max_iter": 3},
    }
    base.update(extra)
    return base


def read_confusion_csv(path) -> np.ndarray:
    """Parse ``metrics.write_confusion_csv`` output: a header row of class ids
    1..c, then one row of c counts per reference class."""
    header, *rows = Path(path).read_text().splitlines()
    assert header.split(",") == [str(c) for c in range(1, len(rows) + 1)]
    return np.array([[int(v) for v in row.split(",")] for row in rows])
