import json

import numpy as np
import pytest

from hsikelm.cli import main
from hsikelm.datacube import load_cube, load_labels
from conftest import fast_config_dict


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
    assert (cube.height, cube.width, cube.bands) == (16, 12, 8)
    assert labels.num_classes == 3


def test_run_subcommand(scene_config):
    out = scene_config["tmp"] / "cli_out"
    rc = main(["run", "--config", str(scene_config["config"]), "--out", str(out), "--canonical"])
    assert rc == 0
    assert (out / "run_report.json").exists()
    assert (out / "confusion.csv").exists()
    assert (out / "classification_map.ppm").exists()
    doc = json.loads((out / "run_report.json").read_text())
    assert doc["total_time_s"] == 0.0  # canonical mode zeroes timings


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
    assert main(["run", "--config", cfg, "--out", str(run_dir), "--canonical"]) == 0
    report = json.loads((run_dir / "run_report.json").read_text())

    features_path = tmp_path / "features.f32"
    assert main(["features", "--config", cfg, "--out", str(features_path)]) == 0
    feats = load_cube(features_path)
    assert feats.bands == 10  # 5 spectral + 5 spatial for the fast config

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
    pred = load_labels(pred_dir / "predicted_labels.u16", 3)
    assert pred.labels.shape == (32, 32)
    assert ((pred_dir / "classification_map.ppm").read_bytes()
            == (run_dir / "classification_map.ppm").read_bytes())

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg, "--pred", str(pred_dir / "predicted_labels.u16"),
                 "--out", str(eval_dir)]) == 0
    assert (eval_dir / "confusion.csv").read_bytes() == (run_dir / "confusion.csv").read_bytes()
    scored = json.loads((eval_dir / "metrics.json").read_text())
    assert scored == {key: report[key] for key in ("oa", "aa", "kappa")}
    if fixed is None:
        assert scored["oa"] > 0.9
    else:
        assert 3 not in pred.labels


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
])
def test_malformed_config_exit_2(override, message, tmp_path, small_scene, capsys):
    raw = {**fast_config_dict(small_scene, tmp_path / "o"), **override}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, small_scene):
    raw = fast_config_dict(small_scene, tmp_path / "o")
    raw["not_a_key"] = True
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2


def test_missing_cube_exit_3(tmp_path, small_scene):
    raw = fast_config_dict(small_scene, tmp_path / "o")
    raw["cube_path"] = str(tmp_path / "gone.f32")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 3


def test_degenerate_cube_exit_4(tmp_path, small_scene):
    # a constant cube has no positive kernel-PCA eigenvalues
    from hsikelm.datacube import HyperCube, LabelRaster, save_cube, save_labels

    cube_path = tmp_path / "flat.f32"
    label_path = tmp_path / "flat_labels.u16"
    save_cube(HyperCube(np.ones((8, 8, 6), dtype=np.float32)), cube_path)
    labels = np.ones((8, 8), dtype=np.uint16)
    labels[4:] = 2
    save_labels(LabelRaster(labels, 2), label_path)
    raw = {
        "cube_path": str(cube_path), "label_path": str(label_path), "num_classes": 2,
        "mstv": {"k": 2, "n_components": 2, "landmark_count": 64},
        "ssa": {"pop_size": 4, "max_iter": 2},
        "output_dir": str(tmp_path / "o"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 4


def test_bad_fraction_exit_2(scene_config):
    rc = main(["run", "--config", str(scene_config["config"]), "--train-fraction", "1.0"])
    assert rc == 2
