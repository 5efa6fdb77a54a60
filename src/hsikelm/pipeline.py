"""End-to-end orchestration: split, features, tuning, training, evaluation, artifacts.

A run loads the labels, splits the labeled pixels and, when it tunes,
assigns the training pixels to folds; a split or fold count that cannot
work thus fails before any feature is computed. It then loads the cube,
extracts spectral features (grouping + multi-scale smoothing + kernel
PCA) and spatial features (per-pixel LBP codes), fuses them, tunes the
classifier's (C, gamma) with the swarm optimizer unless fixed values are
supplied, trains, evaluates on the held-out pixels, and writes a report JSON,
confusion CSV, classification map PPM, (when tuned) a convergence trace
CSV and a JSON of the stage times into the output directory. The report
holds no times, its artifact paths are relative to the output directory
and the config echo omits it, so two runs with the same seed write the
same report bytes, even into different directories.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import kelm, metrics, parallel, ssa
from .datacube import (
    MAX_CLASSES,
    SampleSplit,
    check_companion,
    load_cube,
    load_labels,
    stratified_split,
)
from .errors import ConfigError, DataError, HsiKelmError
from .lbp import lbp_features
from .mstv import (
    MstvConfig,
    group_and_average,
    kpca_reduce,
    min_max_scale,
    multiscale_stack,
    scale_bands_unit,
)

# one fixed color per class id (1-based); class 0 renders black
PALETTE = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200), (245, 130, 48),
    (145, 30, 180), (70, 240, 240), (240, 50, 230), (210, 245, 60), (250, 190, 212),
    (0, 128, 128), (220, 190, 255), (170, 110, 40), (255, 250, 200), (128, 0, 0),
    (170, 255, 195), (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
    (255, 255, 255),
)

REPORT_NAME = "run_report.json"
CONFUSION_NAME = "confusion.csv"
MAP_NAME = "classification_map.ppm"
TRACE_NAME = "ssa_trace.csv"
TIMINGS_NAME = "timings.json"
# the keys of timings.json that hold one value per stage
TIMES_KEY = "per_stage_times_s"
PEAKS_KEY = "per_stage_peak_rss_mb"


@dataclass(frozen=True)
class PipelineConfig:
    cube_path: str
    label_path: str
    num_classes: int
    train_fraction: float = 0.1
    folds: int = 5
    seed: int = 0
    output_dir: str = "out"
    mstv: MstvConfig = field(default_factory=MstvConfig)
    ssa: ssa.TuningConfig = field(default_factory=ssa.TuningConfig)
    fixed_hyperparams: kelm.KelmHyperparams | None = None

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must lie in (0, 1); {self.train_fraction} leaves an empty test split"
            )
        if not 1 <= self.num_classes <= MAX_CLASSES:
            raise ConfigError(f"num_classes must lie in 1..{MAX_CLASSES}, got {self.num_classes}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _convert(tp, value, path: str):
    """Check a JSON value against the field type ``tp`` and return it as that type.

    Handles int, float (an int is widened), str, ``X | None``,
    ``tuple[X, ...]`` and fixed-length tuples (from a JSON list), and nested
    config dataclasses. A bool is never accepted as a number, nor NaN, an
    infinity (Python's JSON reader accepts both) or an int beyond a float's
    range as a float.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return None if value is None else _convert(args[0], value, path)
    if is_dataclass(tp):
        return _build(tp, value, path)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        expected = "a list" if variadic else f"a list of {len(args)}"
        if isinstance(value, list) and (variadic or len(value) == len(args)):
            item_types = args[:1] * len(value) if variadic else args
            return tuple(_convert(t, v, f"{path}[{i}]")
                         for i, (t, v) in enumerate(zip(item_types, value)))
    else:
        expected = tp.__name__
        if tp is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints out of range
                raise ConfigError(f"{path} must be a finite float, got {value!r}")
            value = float(value)
        if isinstance(value, tp) and not isinstance(value, bool):
            return value
    raise ConfigError(f"{path} must be {expected}, got {value!r}")


def _build(cls, raw, where: str):
    """Instantiate the config dataclass ``cls`` from the JSON object ``raw``
    found at path ``where``: every init field comes from ``raw``
    (type-checked), else from its default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'the config'} must be an object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    init_fields = [f for f in fields(cls) if f.init]
    unknown = set(raw) - {f.name for f in init_fields}
    if unknown:
        raise ConfigError(f"unknown {where or 'top-level'} config key(s): {sorted(unknown)}")
    given = {}
    for f in init_fields:
        path = f"{where}.{f.name}" if where else f.name
        if f.name in raw:
            given[f.name] = _convert(hints[f.name], raw[f.name], path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required config key: {path}")
    return cls(**given)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a validated config from a JSON-style dict; unknown keys and wrong
    types fail. The sections parse as nested dataclasses; the top-level
    ``seed`` is the run's only seed."""
    return _build(PipelineConfig, raw, "")


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """The config in the JSON object at ``path``, with the non-None
    ``overrides`` set on top.

    A missing file, bytes that are not JSON (malformed or undecodable) and a
    value that is not an object raise ``ConfigError``. The bytes are decoded
    as ``json.loads`` detects (UTF-8, -16 or -32), whatever the locale.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"missing file: {path}")
    try:
        raw = json.loads(path.read_bytes())
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError both derive from it
        raise ConfigError(f"malformed JSON in {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    return config_from_dict(raw)


def _echo(value):
    if is_dataclass(value):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return value


def config_echo_dict(config: PipelineConfig) -> dict:
    """Semantic config as a plain dict in the shape ``config_from_dict`` reads;
    excludes the run-local output_dir."""
    return {key: value for key, value in _echo(config).items() if key != "output_dir"}


def peak_rss_mb() -> float:
    """The process's own peak resident memory so far, in MB of 10^6 bytes.

    It is ``VmHWM`` of ``/proc/self/status``. Linux carries ``ru_maxrss``
    over fork and exec from the launching process, so that a process started
    by a larger one reads the launcher's peak there; ``ru_maxrss`` (KiB on
    Linux) is the fallback where there is no ``/proc``.
    """
    try:
        with open("/proc/self/status") as fh:
            kib = next((line.split()[1] for line in fh if line.startswith("VmHWM:")), None)
    except OSError:
        kib = None
    if kib is None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(kib) * 1024 / 1e6


@contextmanager
def _stage(name: str, timings: dict):
    """Run the body as stage ``name``: an ``HsiKelmError`` gets the stage in its
    message. When the body ends, also on error, the memory it freed is released
    (``parallel.release_free_memory``), its time is added to
    ``timings[TIMES_KEY][name]`` and the peak RSS so far is recorded in
    ``timings[PEAKS_KEY][name]``."""
    start = time.perf_counter()
    try:
        yield
    except HsiKelmError as e:
        raise type(e)(f"stage {name}: {e}") from e
    finally:
        parallel.release_free_memory()
        times = timings.setdefault(TIMES_KEY, {})
        times[name] = times.get(name, 0.0) + (time.perf_counter() - start)
        timings.setdefault(PEAKS_KEY, {})[name] = peak_rss_mb()


def load_and_split(config: PipelineConfig, tune: bool, timings: dict | None = None):
    """Stages load and split, which need no feature: the label raster, the
    run's seeded train/test split of its labeled pixels, the class ids of the
    training pixels and, when ``tune``, their fold ids (else None). Every
    class must have a labeled pixel and the test side must not be empty."""
    timings = {} if timings is None else timings
    with _stage("load", timings):
        labels = load_labels(config.label_path, config.num_classes)
    with _stage("split", timings):
        split = stratified_split(labels, config.num_classes, config.train_fraction, config.seed)
        if split.test_idx.size == 0:
            raise DataError("empty test split")
        train_y = labels.ravel()[split.train_idx].astype(np.int64)
        fold_of = ssa.stratified_fold_ids(train_y, config.folds, config.seed) if tune else None
    return labels, split, train_y, fold_of


def build_features(config: PipelineConfig, labels: np.ndarray,
                   timings: dict | None = None) -> np.ndarray:
    """Load the cube, which must match ``labels`` in shape, and produce the
    fused float64 feature matrix: per pixel, the KPCA components (each min-max
    scaled over the pixels), then the LBP codes of the grouped bands. Each
    intermediate array is deleted in the stage that last reads it, so that
    the release at that stage's end returns its memory."""
    timings = {} if timings is None else timings
    with _stage("load", timings):
        cube = load_cube(config.cube_path)
        check_companion(cube, labels)
    with _stage("group", timings):
        reduced = group_and_average(cube, config.mstv.k)
        del cube  # only the grouped bands are used from here on
    with _stage("mstv", timings):
        stacked = multiscale_stack(scale_bands_unit(reduced), config.mstv.scales)
        spectral = kpca_reduce(stacked, config.mstv, config.seed)
        del stacked
    with _stage("lbp", timings):
        spatial = lbp_features(reduced)
        del reduced
    with _stage("fuse", timings):
        fused = np.hstack([min_max_scale(spectral, axis=0), spatial])
        del spectral, spatial
    return fused


def predict_raster(model: kelm.KelmModel, fused: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Predicted class id of every labeled (nonzero) pixel of ``labels``, 0
    elsewhere, in the label raster's shape."""
    labeled = np.flatnonzero(labels)
    _, pred_labeled = kelm.predict(model, fused[labeled])
    raster = np.zeros(labels.size, dtype=np.int64)
    raster[labeled] = pred_labeled
    return raster.reshape(labels.shape)


def score_test_split(truth: np.ndarray, pred: np.ndarray, split: SampleSplit, num_classes: int):
    """Confusion matrix, OA, AA and kappa of a prediction raster on the test pixels."""
    cm = metrics.confusion(truth.ravel()[split.test_idx], pred.ravel()[split.test_idx], num_classes)
    return cm, metrics.oa(cm), metrics.aa(cm), metrics.kappa(cm)


def make_synthetic_cube(
    height: int, width: int, bands: int, num_classes: int, noise_sigma: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Class-striped fixture: a float32 (H, W, B) cube of smooth per-class
    spectra with a per-class checkerboard texture modulation and i.i.d.
    Gaussian noise, and its uint16 (H, W) label raster."""
    if min(height, width, bands) < 1:
        raise ConfigError(f"invalid dimensions {height}x{width}x{bands}")
    if not 1 <= num_classes <= height:
        raise ConfigError(f"num_classes must lie in 1..height={height}, got {num_classes}")
    if not 0 <= noise_sigma < np.inf:  # NaN fails too
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    rows = np.arange(height)
    stripe = np.minimum((rows * num_classes) // height, num_classes - 1)
    labels = np.broadcast_to((stripe + 1)[:, None], (height, width)).astype(np.uint16)

    grid = np.linspace(0.0, 1.0, bands)
    centers = (np.arange(num_classes) + 0.5) / num_classes
    signatures = 0.2 + 0.8 * np.exp(-((grid[None, :] - centers[:, None]) ** 2) / (2 * 0.12**2))
    checker = ((rows[:, None] + np.arange(width)[None, :]) % 2).astype(np.float64) * 2.0 - 1.0
    amplitude = 0.08 * (1 + np.arange(num_classes) % 3) / 3.0
    values = signatures[stripe][:, None, :] * (1.0 + amplitude[stripe][:, None] * checker)[:, :, None]
    if noise_sigma > 0:
        values = values + rng.normal(0.0, noise_sigma, size=values.shape)
    return values.astype(np.float32), labels


def render_map(pred_labels: np.ndarray, path) -> None:
    """Write a binary P6 PPM: one palette color per class, black for 0."""
    arr = np.asarray(pred_labels)
    if arr.ndim != 2:
        raise DataError(f"prediction raster must be 2-D, got shape {arr.shape}")
    if arr.size and arr.min() < 0:
        raise DataError("prediction raster contains negative labels")
    h, w = arr.shape
    img = np.zeros((h, w, 3), dtype=np.uint8)
    for v in np.unique(arr):
        if v == 0:
            continue
        img[arr == v] = PALETTE[(int(v) - 1) % len(PALETTE)]
    header = f"P6\n{w} {h}\n255\n".encode()
    Path(path).write_bytes(header + img.tobytes())


@dataclass
class RunReport:
    oa: float
    aa: float
    kappa: float
    chosen_hyperparams: kelm.KelmHyperparams
    ssa_trace_path: str | None
    confusion_path: str
    map_path: str
    seed: int
    config_echo: dict


def run_full(config: PipelineConfig) -> RunReport:
    """Execute every stage and write all artifacts into the output directory;
    the stage times go to ``TIMINGS_NAME``, not into the report."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict = {}
    t0 = time.perf_counter()

    labels, split, train_y, fold_of = load_and_split(
        config, tune=config.fixed_hyperparams is None, timings=timings)
    fused = build_features(config, labels, timings)
    train_x = fused[split.train_idx]

    tune_result = None
    if config.fixed_hyperparams is not None:
        chosen = config.fixed_hyperparams
    else:
        with _stage("tune", timings):
            tune_result = ssa.tune_kelm(train_x, train_y, config.ssa, config.seed, fold_of)
            chosen = ssa.hyperparams(tune_result.best_pos)

    with _stage("train", timings):
        model = kelm.train(train_x, train_y, chosen)

    with _stage("predict", timings):
        pred_map = predict_raster(model, fused, labels)

    with _stage("evaluate", timings):
        cm, oa_v, aa_v, kappa_v = score_test_split(labels, pred_map, split, config.num_classes)

    with _stage("emit", timings):
        metrics.write_confusion_csv(cm, out_dir / CONFUSION_NAME)
        render_map(pred_map, out_dir / MAP_NAME)
        trace_path = None
        if tune_result is not None:
            ssa.write_trace_csv(out_dir / TRACE_NAME, tune_result)
            trace_path = TRACE_NAME

    stage_s = timings[TIMES_KEY]
    timing_doc = {**timings, "train_time_s": stage_s.get("tune", 0.0) + stage_s["train"],
                  "total_time_s": time.perf_counter() - t0}
    report = RunReport(
        oa=oa_v,
        aa=aa_v,
        kappa=kappa_v,
        chosen_hyperparams=chosen,
        ssa_trace_path=trace_path,
        confusion_path=CONFUSION_NAME,
        map_path=MAP_NAME,
        seed=config.seed,
        config_echo=config_echo_dict(config),
    )
    for name, doc in ((REPORT_NAME, asdict(report)), (TIMINGS_NAME, timing_doc)):
        (out_dir / name).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return report
