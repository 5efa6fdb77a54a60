"""Command-line entry points.

Subcommands: synth (fixture generator), features, tune, train, predict,
evaluate, and run (full pipeline). Configuration comes from a JSON file;
a few flags override it. Exit codes: 0 success, 2 config error, 3 data
error (also a file that cannot be read or written), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import kelm, metrics, ssa
from .datacube import load_labels, save_cube, save_labels
from .errors import ConfigError, DataError, NumericalError
from .pipeline import (
    CONFUSION_NAME,
    MAP_NAME,
    REPORT_NAME,
    TRACE_NAME,
    build_features,
    load_and_split,
    load_config,
    make_synthetic_cube,
    predict_raster,
    render_map,
    run_full,
    score_test_split,
)

PRED_NAME = "predicted_labels.npy"


def _config_from_args(args, out_is_output_dir: bool = False):
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if out_is_output_dir and getattr(args, "out", None) is not None:
        overrides["output_dir"] = args.out
    if getattr(args, "train_fraction", None) is not None:
        overrides["train_fraction"] = args.train_fraction
    return load_config(args.config, overrides)


def _cmd_synth(args) -> int:
    cube, labels = make_synthetic_cube(
        args.height, args.width, args.bands, args.classes, args.noise_sigma, args.seed
    )
    save_cube(cube, args.out_cube)
    try:
        save_labels(labels, args.out_labels)
    except BaseException:  # leave no cube without its labels
        Path(args.out_cube).unlink(missing_ok=True)
        raise
    height, width, bands = cube.shape
    print(f"wrote {args.out_cube} ({height}x{width}x{bands}) and {args.out_labels}")
    return 0


def _cmd_run(args) -> int:
    config = _config_from_args(args, out_is_output_dir=True)
    report = run_full(config)
    print(f"oa={report.oa:.4f} aa={report.aa:.4f} kappa={report.kappa:.4f}")
    print(
        f"chosen c={report.chosen_hyperparams.c:.6g} "
        f"gamma={report.chosen_hyperparams.gamma:.6g}"
    )
    print(f"report: {Path(config.output_dir) / REPORT_NAME}")
    return 0


def _cmd_features(args) -> int:
    config = _config_from_args(args)
    labels = load_labels(config.label_path, config.num_classes)
    fused = build_features(config, labels)
    save_cube(fused.reshape(*labels.shape, -1), args.out)
    print(f"wrote {args.out}: {fused.shape[1]} features "
          f"({config.mstv.n_components} spectral + {config.mstv.k} spatial)")
    return 0


def _cmd_tune(args) -> int:
    config = _config_from_args(args)
    labels, split, train_y, fold_of = load_and_split(config, tune=True)
    train_x = build_features(config, labels)[split.train_idx]
    result = ssa.tune_kelm(train_x, train_y, config.ssa.swarm(config.seed), fold_of)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "chosen_hyperparams.json").write_text(
        json.dumps({"c": result.hyper.c, "gamma": result.hyper.gamma}, sort_keys=True) + "\n"
    )
    ssa.write_trace_csv(out_dir / TRACE_NAME, result.trace_best, result.trace_mean)
    print(f"chosen c={result.hyper.c:.6g} gamma={result.hyper.gamma:.6g} "
          f"fitness={result.best_fitness:.6g} folds={config.folds}")
    return 0


def _resolve_hyper(args, config) -> kelm.KelmHyperparams:
    if args.c is None and args.gamma is not None:
        raise ConfigError("--gamma needs --c: pass both or neither")
    if args.gamma is None and args.c is not None:
        raise ConfigError("--c needs --gamma: pass both or neither")
    if args.c is not None:
        return kelm.KelmHyperparams(c=args.c, gamma=args.gamma)
    if config.fixed_hyperparams is not None:
        return config.fixed_hyperparams
    raise ConfigError("no hyperparameters: pass --c/--gamma or set fixed_hyperparams in the config")


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    hyper = _resolve_hyper(args, config)
    labels, split, train_y, _ = load_and_split(config, tune=False)
    train_x = build_features(config, labels)[split.train_idx]
    model = kelm.train(train_x, train_y, hyper)
    kelm.save_model(model, args.out)
    print(f"wrote {args.out}: {model.train_x.shape[0]} samples, "
          f"{model.class_ids.size} classes, c={hyper.c:.6g} gamma={hyper.gamma:.6g}")
    return 0


def _cmd_predict(args) -> int:
    config = _config_from_args(args)
    model = kelm.load_model(args.model)
    top = int(model.class_ids.max())
    if top > config.num_classes:  # checked before the features, which take minutes on a scene
        raise DataError(f"model {args.model}: class id {top} exceeds "
                        f"num_classes={config.num_classes}")
    labels = load_labels(config.label_path, config.num_classes)
    raster = predict_raster(model, build_features(config, labels), labels)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_labels(raster, out_dir / PRED_NAME)
    render_map(raster, out_dir / MAP_NAME)
    print(f"wrote {out_dir / PRED_NAME} and {out_dir / MAP_NAME}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    truth, split, _, _ = load_and_split(config, tune=False)
    pred = load_labels(args.pred, config.num_classes)
    if truth.shape != pred.shape:
        raise DataError(
            f"prediction raster {pred.shape[0]}x{pred.shape[1]} does not match "
            f"ground truth {truth.shape[0]}x{truth.shape[1]}"
        )
    cm, oa_v, aa_v, kappa_v = score_test_split(truth, pred, split, config.num_classes)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics.write_confusion_csv(cm, out_dir / CONFUSION_NAME)
    (out_dir / "metrics.json").write_text(
        json.dumps({"oa": oa_v, "aa": aa_v, "kappa": kappa_v}, sort_keys=True) + "\n"
    )
    print(f"oa={oa_v:.4f} aa={aa_v:.4f} kappa={kappa_v:.4f} "
          f"(test split of {split.test_idx.size} pixels)")
    return 0


def _add_config_flags(sub, splits: bool = True):
    sub.add_argument("--config", required=True, help="path to the JSON config file")
    sub.add_argument("--seed", type=int, default=None, help="override the run's seed")
    if splits:  # features and predict take every labeled pixel, so no split fraction
        sub.add_argument("--train-fraction", dest="train_fraction", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsikelm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic striped cube and labels")
    synth.add_argument("--height", type=int, default=64)
    synth.add_argument("--width", type=int, default=64)
    synth.add_argument("--bands", type=int, default=40)
    synth.add_argument("--classes", type=int, default=5)
    synth.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-cube", dest="out_cube", required=True)
    synth.add_argument("--out-labels", dest="out_labels", required=True)
    synth.set_defaults(func=_cmd_synth)

    run = subs.add_parser("run", help="full pipeline: features, tune, train, evaluate")
    _add_config_flags(run)
    run.add_argument("--out", default=None, help="override the config's output directory")
    run.set_defaults(func=_cmd_run)

    features = subs.add_parser("features", help="export the fused feature matrix as a raster")
    _add_config_flags(features, splits=False)
    features.add_argument("--out", required=True,
                          help="destination .npy file of the (H, W, F) float64 features")
    features.set_defaults(func=_cmd_features)

    tune = subs.add_parser("tune", help="search (C, gamma) on the training split")
    _add_config_flags(tune)
    tune.add_argument("--out", required=True, help="directory for hyperparams JSON and trace CSV")
    tune.set_defaults(func=_cmd_tune)

    train = subs.add_parser("train", help="train a model with given hyperparameters")
    _add_config_flags(train)
    train.add_argument("--c", type=float, default=None)
    train.add_argument("--gamma", type=float, default=None)
    train.add_argument("--out", required=True, help="destination model file")
    train.set_defaults(func=_cmd_train)

    predict = subs.add_parser("predict", help="predict labels for every labeled pixel")
    _add_config_flags(predict, splits=False)
    predict.add_argument("--model", required=True)
    predict.add_argument("--out", required=True, help="directory for the prediction artifacts")
    predict.set_defaults(func=_cmd_predict)

    evaluate = subs.add_parser("evaluate", help="score a prediction raster on the test split")
    _add_config_flags(evaluate)
    evaluate.add_argument("--pred", required=True)
    evaluate.add_argument("--out", required=True, help="directory for confusion CSV and metrics JSON")
    evaluate.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:  # an OSError names the file it could not read or write
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
