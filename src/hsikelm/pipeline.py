"""End-to-end orchestration: features, tuning, training, evaluation, artifacts.

A run loads a cube and its labels, extracts spectral features (grouping +
multi-scale smoothing + kernel PCA) and spatial features (per-pixel LBP
codes), fuses them, splits the labeled pixels, tunes the classifier's
(C, gamma) with the swarm optimizer unless fixed values are supplied,
trains, evaluates on the held-out pixels, and writes a report JSON,
confusion CSV, classification map PPM, and (when tuned) a convergence
trace CSV into the output directory. Report artifact paths are relative
to the output directory and the config echo omits it, so two runs with
the same seed are byte-identical in canonical mode (which zeroes the
timing fields) even when written to different directories.
"""

from __future__ import annotations

import json
import time
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import kelm, metrics, ssa
from .datacube import (
    MAX_CLASSES,
    HyperCube,
    LabelRaster,
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
    ssa: ssa.SsaConfig = field(default_factory=ssa.default_tuning_config)
    fixed_hyperparams: kelm.KelmHyperparams | None = None
    canonical: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must lie in (0, 1); {self.train_fraction} leaves an empty test split"
            )
        if not 1 <= self.num_classes <= MAX_CLASSES:
            raise ConfigError(f"num_classes must lie in 1..{MAX_CLASSES}, got {self.num_classes}")
        if self.folds < 1:
            raise ConfigError(f"folds must be >= 1, got {self.folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# JSON names of the (lower, upper) pair of each SsaConfig dimension, in order
SSA_BOUNDS = {
    "log10_c_bounds": ssa.DEFAULT_LOG10_C_BOUNDS,
    "log10_gamma_bounds": ssa.DEFAULT_LOG10_GAMMA_BOUNDS,
}


def _convert(tp, value, path: str):
    """Check a JSON value against the field type ``tp`` and return it as that type.

    Handles int, float (an int is widened), str, bool, ``X | None``,
    ``tuple[X, ...]`` and fixed-length tuples (from a JSON list), and nested
    config dataclasses. A bool is never accepted as a number.
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
        if tp is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
            return value
    raise ConfigError(f"{path} must be {expected}, got {value!r}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _build(cls, raw, where: str, **given):
    """Instantiate the config dataclass ``cls`` from the JSON object ``raw``.

    Every field comes from ``raw`` (type-checked), else from ``given``, else
    from its default; the fields in ``given`` are not keys of ``raw``.
    """
    hints = typing.get_type_hints(cls)
    unknown = set(_object(raw, where)) - (set(hints) - set(given))
    if unknown:
        raise ConfigError(f"unknown {where or 'top-level'} config key(s): {sorted(unknown)}")
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        if f.name in raw:
            given[f.name] = _convert(hints[f.name], raw[f.name], path)
        elif f.name not in given and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required config key: {path}")
    return cls(**given)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a validated config from a JSON-style dict; unknown keys and wrong types fail.

    The sections ``mstv`` and ``ssa`` inherit the master ``seed`` unless they
    set their own; ``ssa`` states its search box as ``SSA_BOUNDS`` pairs.
    """
    raw = dict(raw)
    seed = _convert(int, raw.get("seed", 0), "seed")
    mstv_raw = {"seed": seed, **_object(raw.pop("mstv", {}), "mstv")}
    ssa_raw = {"seed": seed, **_object(raw.pop("ssa", {}), "ssa")}
    bounds = [_convert(tuple[float, float], ssa_raw.pop(key, list(default)), f"ssa.{key}")
              for key, default in SSA_BOUNDS.items()]
    lower, upper = np.array(bounds, dtype=np.float64).T
    return _build(
        PipelineConfig, raw, "",
        mstv=_build(MstvConfig, mstv_raw, "mstv"),
        ssa=_build(ssa.SsaConfig, ssa_raw, "ssa", lower=lower, upper=upper),
    )


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"missing config file: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    return config_from_dict(raw)


def _echo(value):
    if is_dataclass(value):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return value


def config_echo_dict(config: PipelineConfig) -> dict:
    """Semantic config as a plain dict in the shape ``config_from_dict`` reads;
    excludes the run-local output_dir."""
    echo = _echo(config)
    del echo["output_dir"], echo["ssa"]["lower"], echo["ssa"]["upper"]
    pairs = np.column_stack([config.ssa.lower, config.ssa.upper]).tolist()
    echo["ssa"].update(zip(SSA_BOUNDS, pairs))
    return echo


@contextmanager
def _stage(name: str, timings: dict):
    start = time.perf_counter()
    try:
        yield
    except HsiKelmError as e:
        raise type(e)(f"stage {name}: {e}") from e
    except Exception as e:
        raise RuntimeError(f"stage {name}: {e}") from e
    finally:
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start)


def normalize_features(features: np.ndarray) -> np.ndarray:
    """Min-max each column to [0, 1]; constant columns map to 0."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {f.shape}")
    if f.size and not np.all(np.isfinite(f)):
        raise DataError("non-finite value in feature matrix")
    return min_max_scale(f, axis=0)


def fuse(spectral: np.ndarray, spatial: np.ndarray) -> np.ndarray:
    """Row-wise concatenation with the spectral block first."""
    spectral = np.asarray(spectral, dtype=np.float64)
    spatial = np.asarray(spatial, dtype=np.float64)
    if spectral.shape[0] != spatial.shape[0]:
        raise DataError(
            f"pixel count mismatch: spectral {spectral.shape[0]} vs spatial {spatial.shape[0]}"
        )
    return np.hstack([spectral, spatial])


@dataclass
class FeatureBundle:
    labels: LabelRaster
    fused: np.ndarray
    spectral_dim: int
    spatial_dim: int


def build_features(config: PipelineConfig, timings: dict | None = None) -> FeatureBundle:
    """Load data and produce the fused per-pixel feature matrix."""
    timings = {} if timings is None else timings
    with _stage("load", timings):
        cube = load_cube(config.cube_path)
        labels = load_labels(config.label_path, config.num_classes)
        check_companion(cube, labels)
    with _stage("group", timings):
        reduced = group_and_average(cube, config.mstv.k)
    with _stage("mstv", timings):
        stacked = multiscale_stack(scale_bands_unit(reduced), config.mstv.scales)
        spectral = kpca_reduce(stacked, config.mstv)
    with _stage("lbp", timings):
        spatial = lbp_features(reduced)
    with _stage("fuse", timings):
        fused = fuse(normalize_features(spectral), spatial)
    return FeatureBundle(
        labels=labels,
        fused=fused,
        spectral_dim=spectral.shape[1],
        spatial_dim=spatial.shape[1],
    )


def split_labels(labels: LabelRaster, config: PipelineConfig) -> SampleSplit:
    """The run's seeded train/test split of the labeled pixels; every class
    must have a labeled pixel and the test side must not be empty."""
    split = stratified_split(labels, config.train_fraction, config.seed)
    if split.test_idx.size == 0:
        raise DataError("empty test split")
    return split


def training_set(bundle: FeatureBundle, split: SampleSplit) -> tuple[np.ndarray, np.ndarray]:
    """Features and class ids of the split's training pixels."""
    labels = bundle.labels.labels.ravel()[split.train_idx].astype(np.int64)
    return bundle.fused[split.train_idx], labels


def predict_raster(model: kelm.KelmModel, bundle: FeatureBundle) -> np.ndarray:
    """Predicted class id of every labeled pixel, 0 elsewhere, in the label
    raster's shape."""
    labeled = bundle.labels.labeled_indices()
    _, pred_labeled = kelm.predict(model, bundle.fused[labeled])
    raster = np.zeros(bundle.labels.labels.size, dtype=np.int64)
    raster[labeled] = pred_labeled
    return raster.reshape(bundle.labels.labels.shape)


def score_test_split(truth: LabelRaster, pred: np.ndarray, split: SampleSplit):
    """Confusion matrix, OA, AA and kappa of a prediction raster on the test pixels."""
    t = truth.labels.ravel()[split.test_idx].astype(np.int64)
    p = np.asarray(pred).ravel()[split.test_idx].astype(np.int64)
    cm = metrics.confusion(t, p, truth.num_classes)
    return cm, metrics.oa(cm), metrics.aa(cm), metrics.kappa(cm)


def make_synthetic_cube(
    height: int, width: int, bands: int, num_classes: int, noise_sigma: float, seed: int
) -> tuple[HyperCube, LabelRaster]:
    """Class-striped fixture: smooth per-class spectra, a per-class
    checkerboard texture modulation, and i.i.d. Gaussian noise."""
    if min(height, width, bands) < 1:
        raise ConfigError(f"invalid dimensions {height}x{width}x{bands}")
    if not 1 <= num_classes <= height:
        raise ConfigError(f"num_classes must lie in 1..height={height}, got {num_classes}")
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
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
    return HyperCube(values.astype(np.float32)), LabelRaster(labels.copy(), num_classes)


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
    train_time_s: float
    total_time_s: float
    per_stage_times_s: dict
    chosen_hyperparams: kelm.KelmHyperparams
    ssa_trace_path: str | None
    confusion_path: str
    map_path: str
    seed: int
    config_echo: dict

    def to_json(self, canonical: bool = False) -> str:
        doc = asdict(self)
        if canonical:
            doc.update(train_time_s=0.0, total_time_s=0.0,
                       per_stage_times_s=dict.fromkeys(self.per_stage_times_s, 0.0))
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run_full(config: PipelineConfig) -> RunReport:
    """Execute every stage and write all artifacts into the output directory."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict = {}
    t0 = time.perf_counter()

    bundle = build_features(config, timings)

    with _stage("split", timings):
        split = split_labels(bundle.labels, config)
    train_x, train_y = training_set(bundle, split)

    tune_result = None
    if config.fixed_hyperparams is not None:
        chosen = config.fixed_hyperparams
    else:
        with _stage("tune", timings):
            tune_result = ssa.tune_kelm(train_x, train_y, config.ssa, folds=config.folds)
            chosen = tune_result.hyper

    with _stage("train", timings):
        model = kelm.train(train_x, train_y, chosen, num_classes=config.num_classes)

    with _stage("predict", timings):
        pred_map = predict_raster(model, bundle)

    with _stage("evaluate", timings):
        cm, oa_v, aa_v, kappa_v = score_test_split(bundle.labels, pred_map, split)

    with _stage("emit", timings):
        metrics.write_confusion_csv(cm, out_dir / CONFUSION_NAME)
        render_map(pred_map, out_dir / MAP_NAME)
        trace_path = None
        if tune_result is not None:
            ssa.write_trace_csv(out_dir / TRACE_NAME, tune_result.trace_best, tune_result.trace_mean)
            trace_path = TRACE_NAME

    total = time.perf_counter() - t0
    report = RunReport(
        oa=oa_v,
        aa=aa_v,
        kappa=kappa_v,
        train_time_s=timings.get("tune", 0.0) + timings["train"],
        total_time_s=total,
        per_stage_times_s=timings,
        chosen_hyperparams=chosen,
        ssa_trace_path=trace_path,
        confusion_path=CONFUSION_NAME,
        map_path=MAP_NAME,
        seed=config.seed,
        config_echo=config_echo_dict(config),
    )
    (out_dir / REPORT_NAME).write_text(report.to_json(canonical=config.canonical))
    return report
