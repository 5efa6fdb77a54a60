import json
import os
import pkgutil
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hsikelm
from hsikelm import metrics, parallel, pipeline
from hsikelm.datacube import save_cube, save_labels
from hsikelm.errors import ConfigError, DataError
from hsikelm.kelm import KelmHyperparams
from hsikelm.lbp import lbp_features
from hsikelm.mstv import (
    MstvConfig,
    group_and_average,
    kpca_reduce,
    min_max_scale,
    multiscale_stack,
    scale_bands_unit,
)
from hsikelm.pipeline import (
    PALETTE,
    build_features,
    config_echo_dict,
    config_from_dict,
    load_config,
    make_synthetic_cube,
    render_map,
    run_full,
)
from conftest import fast_config_dict, read_confusion_csv


# -- normalization and fusion -------------------------------------------------

def test_normalize_basic_column():
    out = min_max_scale(np.array([[2.0], [4.0], [6.0]]), axis=0)
    assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])


def test_normalize_constant_column_to_zero():
    out = min_max_scale(np.array([[5.0], [5.0], [5.0]]), axis=0)
    assert np.all(out == 0.0)


def test_normalize_unit_column_unchanged():
    col = np.array([[0.0], [0.25], [1.0]])
    assert np.array_equal(min_max_scale(col, axis=0), col)


@settings(max_examples=30, deadline=None)
@given(f=hnp.arrays(np.float64, (6, 3), elements=st.floats(-100, 100)))
def test_normalize_range_property(f):
    out = min_max_scale(f, axis=0)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_fuse_ordering(small_scene, tmp_path):
    # build_features' fuse stage: the scaled KPCA block, then the LBP block;
    # n_components != k, so the two blocks cannot trade places unnoticed
    config = config_from_dict(fast_config_dict(
        small_scene, tmp_path, mstv={"k": 5, "n_components": 4, "landmark_count": 256}))
    n, k = config.mstv.n_components, config.mstv.k
    fused = build_features(config, small_scene["labels"])
    reduced = group_and_average(small_scene["cube"], k)
    stacked = multiscale_stack(scale_bands_unit(reduced), config.mstv.scales)
    assert fused.dtype == np.float64 and fused.shape == (32 * 32, n + k)
    spectral = kpca_reduce(stacked, config.mstv, config.seed)
    assert np.array_equal(fused[:, :n], min_max_scale(spectral, axis=0))
    assert np.array_equal(fused[:, n:], lbp_features(reduced))


@pytest.mark.parametrize("seed", range(4))
def test_fused_features_invariant_to_gain_and_offset_of_the_cube(seed, tmp_path):
    # each grouped band is min-max scaled before smoothing, LBP codes depend
    # only on the order of values, and each KPCA component has a fixed sign:
    # the fused features of a·cube + b (a > 0) are those of the cube, column
    # for column, up to the cube's float32 rounding. Measured on run seeds
    # 0-3: 0.96e-6 to 1.84e-6, the LBP columns exact; the tolerance is 5.4
    # times the largest. Without the band scaling it was 0.88 to 0.93, and a
    # reflected KPCA column makes it 1
    cube, labels = make_synthetic_cube(40, 36, 24, 4, 0.5, seed=1)
    scene = {"cube_path": tmp_path / "cube.f32", "label_path": tmp_path / "labels.u16",
             "num_classes": 4}
    save_labels(labels, scene["label_path"])
    config = config_from_dict(fast_config_dict(
        scene, tmp_path, seed=seed, mstv={"k": 6, "n_components": 8, "landmark_count": 300}))
    features = []
    for values in (cube, (3.7 * cube.astype(np.float64) + 11.0).astype(np.float32)):
        save_cube(values, scene["cube_path"])
        features.append(build_features(config, labels))
    assert np.max(np.abs(features[1] - features[0])) <= 1e-5


def test_fused_width_for_default_dims(small_scene, tmp_path):
    # default k = n_components = 20 on the 20-band scene: 20 + 20 columns
    config = config_from_dict(fast_config_dict(
        small_scene, tmp_path, mstv={"landmark_count": 256}))
    assert (config.mstv.k, config.mstv.n_components) == (MstvConfig().k, MstvConfig().n_components)
    fused = build_features(config, small_scene["labels"])
    assert fused.shape == (32 * 32, MstvConfig().n_components + MstvConfig().k) == (32 * 32, 40)


# -- synthetic fixture ---------------------------------------------------------

def test_synthetic_nearest_centroid_noiseless():
    cube, labels = make_synthetic_cube(16, 16, 10, 2, noise_sigma=0.0, seed=0)
    x = cube.reshape(-1, cube.shape[2])
    y = labels.ravel()
    centroids = np.stack([x[y == c].mean(axis=0) for c in (1, 2)])
    pred = 1 + np.argmin(((x[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    assert np.all(pred == y)


def test_synthetic_deterministic():
    a, _ = make_synthetic_cube(12, 12, 8, 3, 0.2, seed=9)
    b, _ = make_synthetic_cube(12, 12, 8, 3, 0.2, seed=9)
    assert a.dtype == np.float32 and a.tobytes() == b.tobytes()


def test_synthetic_validation():
    with pytest.raises(ConfigError):
        make_synthetic_cube(4, 4, 4, 5, 0.0, seed=0)  # stripes don't fit
    with pytest.raises(ConfigError):
        make_synthetic_cube(0, 4, 4, 1, 0.0, seed=0)


# -- map rendering -------------------------------------------------------------

def test_render_all_zero_black(tmp_path):
    path = tmp_path / "map.ppm"
    render_map(np.zeros((2, 3), dtype=int), path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n3 2\n255\n")
    assert data[len(b"P6\n3 2\n255\n"):] == bytes(18)


@pytest.mark.parametrize("raster, message", [
    (np.zeros((2, 3, 1), dtype=int), r"prediction raster must be 2-D, got shape \(2, 3, 1\)"),
    (np.array([[1, -1]]), "prediction raster contains negative labels"),
], ids=["3-d", "negative"])
def test_render_rejects_a_raster_it_cannot_draw(raster, message, tmp_path):
    path = tmp_path / "map.ppm"
    with pytest.raises(DataError, match=message):
        render_map(raster, path)
    assert not path.exists()


def test_render_distinct_palette_colors(tmp_path):
    c = 6
    path = tmp_path / "map.ppm"
    render_map(np.arange(1, c + 1)[None, :], path)
    body = path.read_bytes().split(b"\n", 3)[3]
    pixels = [tuple(body[i * 3 : i * 3 + 3]) for i in range(c)]
    assert len(set(pixels)) == c
    assert pixels[0] == PALETTE[0]


# -- config parsing ------------------------------------------------------------

def test_config_requires_core_keys():
    with pytest.raises(ConfigError, match="missing required"):
        config_from_dict({"cube_path": "x"})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"cube_path": "a", "label_path": "b", "num_classes": 2, "oops": 1})
    with pytest.raises(ConfigError, match="unknown mstv"):
        config_from_dict({"cube_path": "a", "label_path": "b", "num_classes": 2,
                          "mstv": {"bogus": 3}})


_EVERY_KEY = {
    "cube_path": "cube.f32", "label_path": "labels.u16", "num_classes": 4,
    "train_fraction": 0.25, "folds": 3, "seed": 7,
    "mstv": {
        "k": 6, "n_components": 9, "landmark_count": 300,
        "scales": [
            {"lam": 0.01, "sigma": 1.5},
            {"lam": 0.02, "sigma": 2.5},
        ],
    },
    "ssa": {
        "pop_size": 12, "max_iter": 4,
        "log10_c_bounds": [-1.0, 3.0], "log10_gamma_bounds": [-2.0, 2.0],
    },
    "fixed_hyperparams": {"c": 10.0, "gamma": 0.25},
}


def _key_tree(value):
    """The nested keys of a config dict; a list stands for its items' distinct key trees."""
    if isinstance(value, dict):
        return {key: _key_tree(v) for key, v in value.items()}
    if isinstance(value, list):
        return sorted({json.dumps(_key_tree(v), sort_keys=True) for v in value})
    return None


def test_every_key_config_sets_every_key():
    # fixed_hyperparams is the one section whose default is None, so it is given
    echo = config_echo_dict(config_from_dict({"cube_path": "a", "label_path": "b", "num_classes": 2,
                                              "fixed_hyperparams": {"c": 1.0, "gamma": 1.0}}))
    assert _key_tree(_EVERY_KEY) == _key_tree(echo)


def test_config_echo_round_trips():
    # a config that sets every key echoes itself, so it round-trips as well
    assert config_echo_dict(config_from_dict({**_EVERY_KEY, "output_dir": "out"})) == _EVERY_KEY
    echo = config_echo_dict(config_from_dict({"cube_path": "a", "label_path": "b", "num_classes": 2}))
    assert config_echo_dict(config_from_dict({**echo, "output_dir": "elsewhere"})) == echo


def test_config_fraction_bounds():
    with pytest.raises(ConfigError, match="empty test split"):
        config_from_dict({"cube_path": "a", "label_path": "b", "num_classes": 2,
                          "train_fraction": 1.0})


def test_load_config_overrides(tmp_path, small_scene):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fast_config_dict(small_scene, tmp_path / "out")))
    cfg = load_config(path, {"seed": 5, "train_fraction": 0.2})
    assert cfg.seed == 5
    assert cfg.train_fraction == 0.2


def test_build_features_frees_the_cube_before_smoothing(small_scene, tmp_path, monkeypatch):
    from hsikelm import datacube, mstv, pipeline as pl

    loaded, alive = [], []

    def load_cube(path):
        cube = datacube.load_cube(path)
        loaded.append(weakref.ref(cube))
        return cube

    def multiscale_stack(cube, scales):
        alive.append(loaded[0]() is not None)
        return mstv.multiscale_stack(cube, scales)

    monkeypatch.setattr(pl, "load_cube", load_cube)
    monkeypatch.setattr(pl, "multiscale_stack", multiscale_stack)
    config = config_from_dict(fast_config_dict(small_scene, tmp_path / "out"))
    fused = pl.build_features(config, small_scene["labels"])
    assert alive == [False] and fused.shape[0] == 32 * 32


def test_build_features_frees_each_intermediate_in_the_stage_that_last_reads_it(
        small_scene, tmp_path, monkeypatch):
    from hsikelm import lbp, mstv, pipeline as pl

    refs = {}

    def recorded(name, fn):
        def call(*args):
            out = fn(*args)
            refs[name] = weakref.ref(out)
            return out
        return call

    for name, attr, fn in (("reduced", "group_and_average", mstv.group_and_average),
                           ("stacked", "multiscale_stack", mstv.multiscale_stack),
                           ("spectral", "kpca_reduce", mstv.kpca_reduce),
                           ("spatial", "lbp_features", lbp.lbp_features)):
        monkeypatch.setattr(pl, attr, recorded(name, fn))
    alive_at_release, release = [], parallel.release_free_memory

    def stage_end_release():
        # only the stage-end release runs in the pipeline's own frame
        if sys._getframe(1).f_code is pl._stage.__wrapped__.__code__:
            alive_at_release.append({name for name, ref in refs.items() if ref() is not None})
        release()

    monkeypatch.setattr(parallel, "release_free_memory", stage_end_release)
    config = config_from_dict(fast_config_dict(small_scene, tmp_path / "out"))
    fused = pl.build_features(config, small_scene["labels"])
    assert fused.shape[0] == 32 * 32
    # stages load, group, mstv, lbp, fuse
    assert alive_at_release == [set(), {"reduced"}, {"reduced", "spectral"},
                                {"spectral", "spatial"}, set()]


def test_peak_rss_is_the_process_own_not_its_launcher(tmp_path):
    # the launcher holds 150 MB when it starts the child; Linux carries
    # ru_maxrss over fork and exec, so the child would read at least that there
    src = str(Path(hsikelm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = "from hsikelm.pipeline import peak_rss_mb; print(peak_rss_mb())"
    launcher = ("import subprocess, sys\n"
                "ballast = b'x' * (150 * 10**6)\n"
                f"subprocess.run([sys.executable, '-c', {child!r}], check=True)\n")
    run = subprocess.run([sys.executable, "-c", launcher], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert 0 < float(run.stdout) < 150


def test_peak_rss_without_proc_falls_back_to_ru_maxrss(monkeypatch):
    def unreadable(path, *args, **kwargs):
        raise PermissionError(f"no access to {path}")

    monkeypatch.setattr(pipeline, "open", unreadable, raising=False)  # shadows the builtin
    want = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    assert pipeline.peak_rss_mb() == pytest.approx(want, rel=0.05)


# -- full run ------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from hsikelm import pipeline as pl

    tmp = tmp_path_factory.mktemp("run")
    cube, labels = pl.make_synthetic_cube(32, 32, 20, 3, 0.1, seed=0)
    cube_path, label_path = tmp / "cube.f32", tmp / "labels.u16"
    save_cube(cube, cube_path)
    save_labels(labels, label_path)
    scene = {"cube": cube, "labels": labels, "num_classes": 3,
             "cube_path": cube_path, "label_path": label_path}
    out = tmp / "out"
    config = config_from_dict(fast_config_dict(scene, out))
    report = run_full(config)
    return {"report": report, "out": out, "scene": scene, "tmp": tmp}


def test_run_report_metrics(small_run):
    report = small_run["report"]
    assert report.oa > 0.9
    assert 0.0 <= report.kappa <= 1.0
    assert report.ssa_trace_path == "ssa_trace.csv"
    assert (small_run["out"] / "ssa_trace.csv").exists()


def test_run_metrics_match_emitted_csv(small_run):
    report = small_run["report"]
    cm = read_confusion_csv(small_run["out"] / report.confusion_path)
    assert report.oa == metrics.oa(cm)
    assert report.aa == metrics.aa(cm)
    assert report.kappa == metrics.kappa(cm)


def test_run_stage_times_positive_and_cover_total(small_run):
    timings = json.loads((small_run["out"] / "timings.json").read_text())
    assert all(v > 0 for v in timings["per_stage_times_s"].values())
    assert timings["train_time_s"] > 0
    stage_sum = sum(timings["per_stage_times_s"].values())
    assert abs(stage_sum - timings["total_time_s"]) <= 0.1 * timings["total_time_s"]


def test_run_records_peak_rss_at_each_stage_end(small_run):
    timings = json.loads((small_run["out"] / "timings.json").read_text())
    peaks = timings["per_stage_peak_rss_mb"]
    assert sorted(peaks) == sorted(timings["per_stage_times_s"])
    # a peak never falls; "load" runs twice, so its value is the second one
    in_order = [peaks[s] for s in ["split", "load", "group", "mstv", "lbp", "fuse", "tune",
                                   "train", "predict", "evaluate", "emit"]]
    assert 0 < in_order[0] and in_order == sorted(in_order)
    assert in_order[-1] <= pipeline.peak_rss_mb()


def test_stage_releases_free_memory_when_it_ends_also_on_error(monkeypatch):
    calls = []
    monkeypatch.setattr(parallel, "release_free_memory", lambda: calls.append(1))
    timings = {}
    with pipeline._stage("a", timings):
        assert not calls
    assert len(calls) == 1
    with pytest.raises(DataError, match="stage b: bad input"):
        with pipeline._stage("b", timings):
            raise DataError("bad input")
    assert len(calls) == 2
    assert sorted(timings["per_stage_times_s"]) == sorted(timings["per_stage_peak_rss_mb"]) == ["a", "b"]


def test_run_report_json_artifact(small_run):
    doc = json.loads((small_run["out"] / "run_report.json").read_text())
    assert doc["oa"] == small_run["report"].oa
    assert doc["map_path"] == "classification_map.ppm"
    assert "output_dir" not in doc["config_echo"]


def test_run_fixed_hyperparams_skips_tuning(small_run):
    scene = small_run["scene"]
    out = small_run["tmp"] / "fixed_out"
    config = config_from_dict(
        fast_config_dict(scene, out, fixed_hyperparams={"c": 100.0, "gamma": 1.0})
    )
    report = run_full(config)
    assert report.ssa_trace_path is None
    assert "tune" not in json.loads((out / "timings.json").read_text())["per_stage_times_s"]
    assert not (out / "ssa_trace.csv").exists()
    assert report.chosen_hyperparams == KelmHyperparams(c=100.0, gamma=1.0)


def test_run_missing_cube_is_stage_tagged(small_run, tmp_path):
    scene = small_run["scene"]
    raw = fast_config_dict(scene, tmp_path / "o")
    raw["cube_path"] = str(tmp_path / "missing.f32")
    with pytest.raises(DataError, match="stage load"):
        run_full(config_from_dict(raw))


def test_harder_synthetic_quality_floor(tmp_path):
    # 12 noisy classes and 5% training pixels keep OA well below 1.0, so a
    # quality regression shows; measured OA 0.8549, AA 0.8549, kappa 0.8417
    cube, labels = make_synthetic_cube(48, 48, 30, 12, 0.4, seed=0)
    scene = {"cube_path": tmp_path / "cube.f32", "label_path": tmp_path / "labels.u16",
             "num_classes": 12}
    save_cube(cube, scene["cube_path"])
    save_labels(labels, scene["label_path"])
    report = run_full(config_from_dict(fast_config_dict(
        scene, tmp_path / "out", train_fraction=0.05, folds=3,
        mstv={"k": 10, "n_components": 10, "landmark_count": 300,
              "scales": [{"sigma": 1.0}, {"sigma": 2.0}]},
        ssa={"pop_size": 10, "max_iter": 3},
    )))
    assert report.oa >= 0.84 and report.aa >= 0.84 and report.kappa >= 0.82


@pytest.mark.parametrize("seed", [0, 3])
def test_class_with_one_training_sample_tunes_on_held_out_error(seed, tmp_path):
    # class 1 keeps 20 labeled pixels, so 5% training leaves it 1 sample; a tune
    # scored on training error ran to the box corner (4, 3) on these seeds, at
    # OA 0.06 and 0.05, while 3 held-out folds measured OA 0.87 and 0.90
    cube, labels = make_synthetic_cube(48, 48, 30, 12, 0.4, seed=seed)
    labels.ravel()[np.flatnonzero(labels.ravel() == 1)[20:]] = 0
    scene = {"cube_path": tmp_path / "cube.f32", "label_path": tmp_path / "labels.u16",
             "num_classes": 12}
    save_cube(cube, scene["cube_path"])
    save_labels(labels, scene["label_path"])
    report = run_full(config_from_dict(fast_config_dict(
        scene, tmp_path / "out", train_fraction=0.05, folds=3, seed=seed,
        mstv={"k": 10, "n_components": 10, "landmark_count": 300,
              "scales": [{"sigma": 1.0}, {"sigma": 2.0}]},
        ssa={"pop_size": 10, "max_iter": 3},
    )))
    chosen = (np.log10(report.chosen_hyperparams.c), np.log10(report.chosen_hyperparams.gamma))
    assert chosen != pytest.approx((4.0, 3.0))
    assert report.oa >= 0.5


def test_each_module_imports_on_its_own():
    # each module in a fresh interpreter, so none relies on the package or another
    # module having been imported first; the ones that need no scipy load none
    modules = sorted(info.name for info in pkgutil.iter_modules(hsikelm.__path__))
    assert len(modules) == 11
    src = str(Path(hsikelm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import importlib, sys; importlib.import_module(sys.argv[1]); print('scipy' in sys.modules)"
    runs = {name: subprocess.Popen([sys.executable, "-c", probe, f"hsikelm.{name}"], env=env,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for name in modules}
    outputs = {name: run.communicate(timeout=60) for name, run in runs.items()}
    for name, run in runs.items():
        out, err = outputs[name]
        assert run.returncode == 0, f"hsikelm.{name}: {err}"
        if name in {"errors", "datacube", "metrics", "lbp", "parallel"}:
            assert out.strip() == "False", f"hsikelm.{name} loads scipy"
