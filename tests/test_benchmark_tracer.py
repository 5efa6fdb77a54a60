"""The benchmark's tracer still fits the program.

``perfbench/tracer.py`` wraps hsikelm functions by name and reads fields of
what they return. It is loaded here as a plain file, the way the benchmark
loads it, and one small tuned ``hsikelm run`` goes through it: a renamed or
inlined traced name, or a renamed result field, fails here and not only in
a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

from hsikelm import cli, mstv

from conftest import fast_config_dict

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
tracer_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_module)


def test_tracer_counts_a_tuned_run_and_restores_every_patched_name(small_scene, tmp_path):
    raw = fast_config_dict(small_scene, tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        patches = list(tracer._patches)
        tracer.uninstall()
    assert patches
    for module, attr, original in patches:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} left patched"

    got = tracer.layer_metrics()
    assert got["kelm.train_calls"] == 1 and got["kelm.predict_calls"] == 1
    assert got["mstv.rtv_calls"] == raw["mstv"]["k"] * len(mstv.default_scales())
    assert got["ssa.evals"] > 0
    # the initial population's evaluations come before init_state returns
    assert tracer.counts["ssa.evaluated"] == got["ssa.evals"] - raw["ssa"]["pop_size"]
    last = (tmp_path / "out" / "ssa_trace.csv").read_text().splitlines()[-1]
    assert got["ssa.cv_mse"] == float(last.split(",")[1])
