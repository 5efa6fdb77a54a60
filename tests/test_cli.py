import json

import numpy as np
import pytest

from hsikelm import cli, kelm, pipeline
from hsikelm.cli import main
from hsikelm.datacube import load_cube, load_labels, save_labels
from conftest import fast_config_dict, write_old_format_raster


@pytest.fixture
def scene_config(tmp_path, small_scene):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(fast_config_dict(small_scene, tmp_path / "out")))
    return {"config": cfg_path, "tmp": tmp_path, "scene": small_scene}


def test_synth_writes_canonical_pair(tmp_path):
    cube_path = tmp_path / "c.f32"
    label_path = tmp_path / "l.u16"
    rc = main([
        "synth", "--height", "16", "--width", "12", "--bands", "8", "--classes", "3",
        "--noise-sigma", "0.05", "--seed", "1",
        "--out-cube", str(cube_path), "--out-labels", str(label_path),
    ])
    assert rc == 0
    cube = load_cube(cube_path)
    labels = load_labels(label_path, 3)
    assert cube.shape == (16, 12, 8)
    assert labels.dtype == np.uint16 and labels.shape == (16, 12)
    assert sorted(np.unique(labels)) == [1, 2, 3]


@pytest.mark.parametrize("flag, value, message", [
    ("--noise-sigma", "nan", "noise_sigma must be finite and >= 0, got nan"),
    ("--noise-sigma", "inf", "noise_sigma must be finite and >= 0, got inf"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
], ids=["nan-noise", "inf-noise", "negative-seed"])
def test_synth_bad_noise_or_seed_exit_2(flag, value, message, tmp_path, capsys):
    rc = main(["synth", "--height", "8", "--width", "8", "--bands", "4", "--classes", "2", flag, value,
               "--out-cube", str(tmp_path / "c.f32"), "--out-labels", str(tmp_path / "l.u16")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c.f32").exists()


def test_file_outputs_create_missing_directories(tmp_path):
    # synth, features and train write files, not directories: each creates the
    # parent directory it is pointed into
    fresh = tmp_path / "fresh" / "nested"
    cube_path, label_path = fresh / "cube" / "c.f32", fresh / "labels" / "l.u16"
    assert main(["synth", "--height", "16", "--width", "16", "--bands", "8", "--classes", "2",
                 "--out-cube", str(cube_path), "--out-labels", str(label_path)]) == 0
    scene = {"cube_path": cube_path, "label_path": label_path, "num_classes": 2}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(fast_config_dict(scene, tmp_path / "out", train_fraction=0.3,
                                                    mstv={"k": 4, "n_components": 3})))
    features_path = fresh / "features" / "f.f32"
    assert main(["features", "--config", str(cfg_path), "--out", str(features_path)]) == 0
    assert load_cube(features_path).shape[2] == 7  # 3 spectral + 4 spatial
    model_path = fresh / "model" / "m.bin"
    assert main(["train", "--config", str(cfg_path), "--c", "10", "--gamma", "0.5",
                 "--out", str(model_path)]) == 0
    assert model_path.stat().st_size > 0


def test_run_subcommand(scene_config):
    outs = [scene_config["tmp"] / "cli_out", scene_config["tmp"] / "cli_again"]
    for out in outs:
        assert main(["run", "--config", str(scene_config["config"]), "--out", str(out)]) == 0
    assert (outs[0] / "confusion.csv").exists()
    assert (outs[0] / "classification_map.ppm").exists()
    # the times go to timings.json, so every run writes the same report
    assert (outs[0] / "run_report.json").read_bytes() == (outs[1] / "run_report.json").read_bytes()
    assert "total_time_s" not in json.loads((outs[0] / "run_report.json").read_text())
    timings = json.loads((outs[0] / "timings.json").read_text())
    assert sorted(timings) == [
        "per_stage_peak_rss_mb", "per_stage_times_s", "total_time_s", "train_time_s"]
    assert sorted(timings["per_stage_times_s"]) == sorted([
        "load", "split", "group", "mstv", "lbp", "fuse", "tune", "train", "predict", "evaluate", "emit"])


def test_run_canonical_flag_is_gone(scene_config):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(scene_config["config"]), "--canonical"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("command", ["features", "predict"])
def test_train_fraction_only_on_commands_that_split(command, scene_config):
    argv = [command, "--config", str(scene_config["config"]), "--out", str(scene_config["tmp"] / "o"),
            "--train-fraction", "0.5"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + (["--model", "m.bin"] if command == "predict" else []))
    assert exit_info.value.code == 2


@pytest.mark.parametrize("fixed", [None, {"c": 1e-6, "gamma": 1e-6}], ids=["tuned", "fixed"])
def test_feature_tune_train_predict_evaluate_chain(fixed, tmp_path, small_scene):
    # the stage subcommands share run's split, prediction raster and scoring,
    # so their chain reproduces run's artifacts byte for byte; at the fixed
    # (C, gamma) no pixel is predicted as class 3
    extra = {} if fixed is None else {"fixed_hyperparams": fixed}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(fast_config_dict(small_scene, tmp_path / "out", **extra)))
    cfg = str(cfg_path)
    run_dir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(run_dir)]) == 0
    report = json.loads((run_dir / "run_report.json").read_text())

    features_path = tmp_path / "features.npy"
    assert main(["features", "--config", cfg, "--out", str(features_path)]) == 0
    feats = np.load(features_path)
    assert feats.shape == (32, 32, 10)  # 5 spectral + 5 spatial for the fast config
    assert feats.dtype == np.float64  # the values run trains on, not a float32 rounding
    expected = pipeline.build_features(pipeline.load_config(cfg_path), small_scene["labels"])
    assert np.array_equal(feats, expected.reshape(32, 32, -1))

    if fixed is None:
        tune_dir = tmp_path / "tuned"
        assert main(["tune", "--config", cfg, "--out", str(tune_dir)]) == 0
        chosen = json.loads((tune_dir / "chosen_hyperparams.json").read_text())
        assert (tune_dir / "ssa_trace.csv").read_bytes() == (run_dir / "ssa_trace.csv").read_bytes()
    else:
        chosen = fixed
        assert not (run_dir / "ssa_trace.csv").exists()
    assert chosen == report["chosen_hyperparams"]

    model_path = tmp_path / "model.bin"
    assert main([
        "train", "--config", cfg, "--c", str(chosen["c"]), "--gamma", str(chosen["gamma"]),
        "--out", str(model_path),
    ]) == 0

    pred_dir = tmp_path / "pred"
    assert main(["predict", "--config", cfg, "--model", str(model_path),
                 "--out", str(pred_dir)]) == 0
    pred = load_labels(pred_dir / "predicted_labels.npy", 3)
    assert pred.shape == (32, 32)
    assert ((pred_dir / "classification_map.ppm").read_bytes()
            == (run_dir / "classification_map.ppm").read_bytes())

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg, "--pred", str(pred_dir / "predicted_labels.npy"),
                 "--out", str(eval_dir)]) == 0
    assert (eval_dir / "confusion.csv").read_bytes() == (run_dir / "confusion.csv").read_bytes()
    scored = json.loads((eval_dir / "metrics.json").read_text())
    assert scored == {key: report[key] for key in ("oa", "aa", "kappa")}
    if fixed is None:
        assert scored["oa"] > 0.9
    else:
        assert 3 not in pred


def test_train_without_hyperparams_is_config_error(scene_config, tmp_path):
    rc = main(["train", "--config", str(scene_config["config"]),
               "--out", str(tmp_path / "m.bin")])
    assert rc == 2


@pytest.mark.parametrize("flag", ["--c", "--gamma"])
def test_train_with_one_hyperparam_flag_is_config_error(flag, tmp_path, small_scene, capsys):
    # the config's fixed_hyperparams must not silently fill in the missing flag
    raw = fast_config_dict(small_scene, tmp_path / "o", fixed_hyperparams={"c": 1.0, "gamma": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    rc = main(["train", "--config", str(path), flag, "2.0", "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    missing = "--gamma" if flag == "--c" else "--c"
    assert f"needs {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"num_classes": "x"}, "num_classes must be int, got 'x'"),
    ({"num_classes": 2.5}, "num_classes must be int, got 2.5"),
    ({"seed": True}, "seed must be int, got True"),
    ({"mstv": [1]}, "mstv must be an object"),
    ({"mstv": {"scales": [{"lam": "x"}]}}, "mstv.scales[0].lam must be float, got 'x'"),
    ({"fixed_hyperparams": {"c": "1", "gamma": 1.0}}, "fixed_hyperparams.c must be float"),
    ({"fixed_hyperparams": {"c": 1.0}}, "missing required config key: fixed_hyperparams.gamma"),
    ({"ssa": {"log10_c_bounds": [1]}}, "ssa.log10_c_bounds must be a list of 2, got [1]"),
    ({"ssa": {"lower": [1]}}, "unknown ssa config key(s): ['lower']"),
    ({"ssa": {"paper_literal_v": False}}, "unknown ssa config key(s): ['paper_literal_v']"),
    ({"num_classes": 70000}, "num_classes must lie in 1..65535, got 70000"),
    ({"ssa": {"log10_c_bounds": [float("nan"), 4]}},
     "ssa.log10_c_bounds[0] must be a finite float, got nan"),
    ({"ssa": {"log10_gamma_bounds": [-float("inf"), float("inf")]}},
     "ssa.log10_gamma_bounds[0] must be a finite float, got -inf"),
    ({"train_fraction": float("inf")}, "train_fraction must be a finite float, got inf"),
    ({"fixed_hyperparams": {"c": 10 ** 400, "gamma": 1.0}},
     "fixed_hyperparams.c must be a finite float, got 1000"),
    ({"mstv": {"scales": [{"sigma": float("inf")}]}},
     "mstv.scales[0].sigma must be a finite float, got inf"),
    ({"mstv": {"scales": [{"lam": float("nan")}]}}, "mstv.scales[0].lam must be a finite float, got nan"),
    ({"ssa": {"producer_ratio": 0.2}}, "unknown ssa config key(s): ['producer_ratio']"),
    ({"ssa": {"scout_ratio": 0.1}}, "unknown ssa config key(s): ['scout_ratio']"),
    ({"ssa": {"safety_threshold": 0.8}}, "unknown ssa config key(s): ['safety_threshold']"),
    ({"mstv": {"scales": [{"iterations": 4}]}}, "unknown mstv.scales[0] config key(s): ['iterations']"),
    ({"mstv": {"scales": [{"epsilon_s": 0.01}]}},
     "unknown mstv.scales[0] config key(s): ['epsilon_s']"),
    ({"mstv": {"scales": [{"epsilon_l": 0.001}]}},
     "unknown mstv.scales[0] config key(s): ['epsilon_l']"),
    ({"folds": 1}, "folds must be >= 2, got 1"),
    ({"mstv": {"kpca_gamma": 0.5}}, "unknown mstv config key(s): ['kpca_gamma']"),
    ({"canonical": True}, "unknown top-level config key(s): ['canonical']"),
    ({"ssa": {"log10_c_bounds": [4, -2]}},
     "log10_c_bounds must be [lower, upper] with lower <= upper, got (4.0, -2.0)"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_malformed_config_exit_2(override, message, tmp_path, small_scene, capsys):
    raw = {**fast_config_dict(small_scene, tmp_path / "o"), **override}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, bounds", [
    ("log10_c_bounds", [-400, 400]),
    ("log10_c_bounds", [-2, 309]),
    ("log10_gamma_bounds", [-330, 3]),
])
def test_search_box_outside_float_range_exit_2_before_any_stage(key, bounds, tmp_path, small_scene,
                                                                 capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_full", lambda config: pytest.fail("a stage ran"))
    raw = fast_config_dict(small_scene, tmp_path / "o")
    raw["ssa"] = {**raw["ssa"], key: bounds}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and "stage" not in err


def _fail_if_smoothed(monkeypatch):
    monkeypatch.setattr(pipeline, "multiscale_stack", lambda *a: pytest.fail("the smoothing ran"))


def test_more_folds_than_the_largest_class_exit_2(tmp_path, small_scene, capsys, monkeypatch):
    # 1% of the 352-, 352- and 320-pixel classes leaves 4, 4 and 3 training
    # samples; the fold plan fails at the split, before the smoothing
    _fail_if_smoothed(monkeypatch)
    raw = fast_config_dict(small_scene, tmp_path / "o", train_fraction=0.01, folds=5)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    for argv in (["run"], ["tune", "--out", str(tmp_path / "tuned")]):
        assert main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: stage split: folds=5 leaves a fold empty: the largest "
                              "class has 4 training sample(s)")
        assert "train_fraction" in err and "fixed_hyperparams" in err
    # without a tune there is no fold plan, so the same split runs
    monkeypatch.undo()
    path.write_text(json.dumps({**raw, "fixed_hyperparams": {"c": 100.0, "gamma": 1.0}}))
    assert main(["run", "--config", str(path)]) == 0


@pytest.mark.parametrize("command", ["run", "tune", "train"])
def test_one_labeled_pixel_per_class_exit_3_before_the_smoothing(command, tmp_path, small_scene,
                                                                  capsys, monkeypatch):
    # each class's one labeled pixel goes to training, which leaves no test pixel
    _fail_if_smoothed(monkeypatch)
    raster = np.zeros((32, 32), dtype=np.uint16)
    raster[[0, 15, 31], 0] = [1, 2, 3]
    label_path = tmp_path / "sparse.u16"
    save_labels(raster, label_path)
    raw = fast_config_dict(small_scene, tmp_path / "o", label_path=str(label_path),
                           fixed_hyperparams={"c": 1.0, "gamma": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "data error: stage split: empty test split\n"


def test_unknown_config_key_exit_2(tmp_path, small_scene):
    raw = fast_config_dict(small_scene, tmp_path / "o")
    raw["not_a_key"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2


@pytest.mark.parametrize("section", ["mstv", "ssa"])
def test_section_seed_is_an_unknown_key_exit_2(section, tmp_path, small_scene, capsys):
    # the top-level seed is the run's only seed
    raw = fast_config_dict(small_scene, tmp_path / "o")
    raw[section] = {**raw[section], "seed": 3}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: unknown {section} config key(s): ['seed']\n"


def test_seed_flag_is_the_seed_key(tmp_path, small_scene):
    # run --seed 3 on a seed-0 config writes what "seed": 3 in the file writes,
    # and so does tune --seed 3 for its trace
    flagged, keyed = tmp_path / "flagged.json", tmp_path / "keyed.json"
    flagged.write_text(json.dumps(fast_config_dict(small_scene, tmp_path / "o")))
    keyed.write_text(json.dumps(fast_config_dict(small_scene, tmp_path / "o", seed=3)))
    assert main(["run", "--config", str(flagged), "--seed", "3", "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(keyed), "--out", str(tmp_path / "b")]) == 0
    assert main(["tune", "--config", str(flagged), "--seed", "3", "--out", str(tmp_path / "t")]) == 0
    for name in (pipeline.REPORT_NAME, pipeline.CONFUSION_NAME, pipeline.MAP_NAME,
                 pipeline.TRACE_NAME):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    trace = (tmp_path / "b" / pipeline.TRACE_NAME).read_bytes()
    assert (tmp_path / "t" / pipeline.TRACE_NAME).read_bytes() == trace


def test_missing_cube_exit_3(tmp_path, small_scene):
    raw = fast_config_dict(small_scene, tmp_path / "o")
    raw["cube_path"] = str(tmp_path / "gone.f32")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 3


def _one_line_data_error_naming(path, err):
    assert err.startswith("data error: ") and err.count("\n") == 1 and str(path) in err


def test_synth_into_a_directory_exit_3_without_header(tmp_path, capsys):
    cube_path = tmp_path / "taken"
    cube_path.mkdir()
    rc = main(["synth", "--height", "8", "--width", "8", "--bands", "4", "--classes", "2",
               "--out-cube", str(cube_path), "--out-labels", str(tmp_path / "l.u16")])
    assert rc == 3
    _one_line_data_error_naming(cube_path, capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]  # no labels either


def test_synth_unwritable_labels_exit_3_without_cube(tmp_path, capsys):
    cube_path, label_path = tmp_path / "c.f32", tmp_path / "taken"
    label_path.mkdir()
    rc = main(["synth", "--height", "8", "--width", "8", "--bands", "4", "--classes", "2",
               "--out-cube", str(cube_path), "--out-labels", str(label_path)])
    assert rc == 3
    _one_line_data_error_naming(label_path, capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]  # no cube left


def test_undecodable_config_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff{}")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed JSON in ") and str(path) in err


def test_zip_archive_named_npy_exit_3(scene_config, capsys):
    cube_path = scene_config["tmp"] / "cube.npy"
    with open(cube_path, "wb") as f:  # np.savez would append .npz to a path
        np.savez(f, values=scene_config["scene"]["cube"])
    raw = json.loads(scene_config["config"].read_text())
    scene_config["config"].write_text(json.dumps({**raw, "cube_path": str(cube_path)}))
    assert main(["run", "--config", str(scene_config["config"])]) == 3
    assert f"{cube_path} is not a .npy array file" in capsys.readouterr().err


def test_old_format_cube_exit_3_at_load(scene_config, capsys, monkeypatch):
    # a raw payload with its JSON header is not a .npy file, whatever the header says
    _fail_if_smoothed(monkeypatch)
    cube_path = scene_config["tmp"] / "old.f32"
    write_old_format_raster(cube_path, scene_config["scene"]["cube"])
    raw = json.loads(scene_config["config"].read_text())
    scene_config["config"].write_text(json.dumps({**raw, "cube_path": str(cube_path)}))
    assert main(["run", "--config", str(scene_config["config"])]) == 3
    err = capsys.readouterr().err
    _one_line_data_error_naming(cube_path, err)
    assert err.startswith("data error: stage load: ")


@pytest.mark.parametrize("kind", ["config-json", "npy", "truncated-archive", "no-classes",
                                  "nan-alpha"])
def test_predict_with_a_file_that_is_not_a_model_exit_3(kind, scene_config, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_features", lambda *a: pytest.fail("features built"))
    model_path = scene_config["tmp"] / "model.bin"
    if kind == "config-json":
        model_path = scene_config["config"]
    elif kind == "npy":
        with open(model_path, "wb") as fh:
            np.save(fh, np.eye(3))
    elif kind == "truncated-archive":
        model = kelm.train(np.eye(3), [1, 2, 2], kelm.KelmHyperparams(c=1.0, gamma=1.0))
        kelm.save_model(model, model_path)
        model_path.write_bytes(model_path.read_bytes()[:-30])
    else:  # archives that train could never write
        alpha = np.zeros((3, 0)) if kind == "no-classes" else np.full((3, 2), np.nan)
        with open(model_path, "wb") as fh:
            np.savez(fh, train_x=np.eye(3), alpha=alpha, hyper=np.array([1.0, 1.0]),
                     class_ids=np.arange(1, alpha.shape[1] + 1))
    rc = main(["predict", "--config", str(scene_config["config"]), "--model", str(model_path),
               "--out", str(scene_config["tmp"] / "pred")])
    assert rc == 3
    _one_line_data_error_naming(model_path, capsys.readouterr().err)
    assert not (scene_config["tmp"] / "pred").exists()


@pytest.mark.parametrize("class_ids", [[1, 2, 65537], [1, 5, 70000]], ids=["65537", "70000"])
def test_predict_with_class_ids_beyond_num_classes_exit_3_before_features(
        class_ids, scene_config, capsys, monkeypatch):
    # a uint16 cast of the predictions once wrote 65537 as class 1 and named 70000 as 4464
    monkeypatch.setattr(cli, "build_features", lambda *a: pytest.fail("features built"))
    model_path = scene_config["tmp"] / "model.bin"
    with open(model_path, "wb") as fh:
        np.savez(fh, train_x=np.eye(3), alpha=np.zeros((3, 3)), hyper=np.array([1.0, 1.0]),
                 class_ids=np.array(class_ids, dtype=np.int64))
    rc = main(["predict", "--config", str(scene_config["config"]), "--model", str(model_path),
               "--out", str(scene_config["tmp"] / "pred")])
    assert rc == 3
    err = capsys.readouterr().err
    _one_line_data_error_naming(model_path, err)
    assert f"class id {class_ids[-1]} exceeds num_classes=3" in err
    assert not (scene_config["tmp"] / "pred").exists()


def test_evaluate_with_a_raster_of_another_shape_exit_3(scene_config, capsys):
    pred_path = scene_config["tmp"] / "pred.npy"
    save_labels(np.ones((33, 32), dtype=np.uint16), pred_path)
    rc = main(["evaluate", "--config", str(scene_config["config"]), "--pred", str(pred_path),
               "--out", str(scene_config["tmp"] / "eval")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "data error: prediction raster 33x32 does not match ground truth 32x32\n"
    assert not (scene_config["tmp"] / "eval").exists()


def test_run_out_under_a_file_exit_3(scene_config, capsys):
    out = scene_config["tmp"] / "a_file" / "out"
    out.parent.write_text("")
    assert main(["run", "--config", str(scene_config["config"]), "--out", str(out)]) == 3
    _one_line_data_error_naming(out, capsys.readouterr().err)


def test_run_unwritable_artifact_exit_3(scene_config, capsys):
    out = scene_config["tmp"] / "out"
    (out / "confusion.csv").mkdir(parents=True)  # a directory where the file goes
    assert main(["run", "--config", str(scene_config["config"]), "--out", str(out)]) == 3
    _one_line_data_error_naming(out / "confusion.csv", capsys.readouterr().err)


def test_degenerate_cube_exit_4(tmp_path, small_scene):
    # a constant cube has no positive kernel-PCA eigenvalues
    from hsikelm.datacube import save_cube

    cube_path = tmp_path / "flat.f32"
    label_path = tmp_path / "flat_labels.u16"
    save_cube(np.ones((8, 8, 6), dtype=np.float32), cube_path)
    labels = np.ones((8, 8), dtype=np.uint16)
    labels[4:] = 2
    save_labels(labels, label_path)
    raw = {
        "cube_path": str(cube_path), "label_path": str(label_path), "num_classes": 2,
        "folds": 2,  # 3 training samples per class: the fold plan passes and the run reaches KPCA
        "mstv": {"k": 2, "n_components": 2, "landmark_count": 64},
        "ssa": {"pop_size": 4, "max_iter": 2},
        "output_dir": str(tmp_path / "o"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 4


def test_failed_cholesky_exit_4(scene_config, capsys):
    # at this gamma every kernel value is exactly 1 and 1/C vanishes next to it:
    # the system is the all-ones matrix, whose second leading minor is 0
    model_path = scene_config["tmp"] / "m.bin"
    rc = main(["train", "--config", str(scene_config["config"]), "--c", "1e300",
               "--gamma", "1e-300", "--out", str(model_path)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "2-th leading minor of the array is not positive definite" in err
    assert not model_path.exists()


def test_bad_fraction_exit_2(scene_config):
    rc = main(["run", "--config", str(scene_config["config"]), "--train-fraction", "1.0"])
    assert rc == 2
