"""Re-record the golden run outputs in ``tests/golden/`` from the current code.

    PYTHONPATH=src python scripts/record_goldens.py

Each fixture in ``tests/golden/fixtures.json`` is a synthetic cube (the
arguments of ``make_synthetic_cube``) plus a run config whose data and output
paths are relative to the run's working directory, so the config echo in the
report does not depend on where the run happens. The script runs
``hsikelm run`` on each fixture in a temporary directory, copies the report,
confusion CSV, classification map and (when tuned) SSA trace into
``tests/golden/<fixture>/``, and writes the numpy and scipy versions and the
build and core of each loaded OpenBLAS to ``tests/golden/versions.json``.
``tests/test_golden.py`` runs the same fixtures and compares.

Re-record only in a change whose purpose is to change the run outputs, and
state the old and new OA/AA/kappa of each fixture with it.
"""

import ctypes
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import scipy

from hsikelm import cli, parallel
from hsikelm.datacube import save_cube, save_labels
from hsikelm.pipeline import CONFUSION_NAME, MAP_NAME, REPORT_NAME, TRACE_NAME, make_synthetic_cube

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
ARTIFACTS = (REPORT_NAME, CONFUSION_NAME, MAP_NAME, TRACE_NAME)
# the build-and-core string of numpy's ILP64 OpenBLAS, scipy's, a plain build
_OPENBLAS_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                            "openblas_get_config")


def fixtures() -> dict:
    return json.loads((GOLDEN / "fixtures.json").read_text())


def run_fixture(spec: dict, workdir: Path) -> Path:
    """Write the fixture's cube, labels and config into ``workdir``, run
    ``hsikelm run`` with ``workdir`` as the working directory and return the
    run's output directory."""
    cube, labels = make_synthetic_cube(**spec["synth"])
    config = spec["config"]
    save_cube(cube, workdir / config["cube_path"])
    save_labels(labels, workdir / config["label_path"])
    (workdir / "config.json").write_text(json.dumps(config))
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        status = cli.main(["run", "--config", "config.json"])
    finally:
        os.chdir(previous)
    if status != 0:
        raise RuntimeError(f"hsikelm run exited {status} in {workdir}")
    return workdir / config["output_dir"]


def numeric_versions() -> dict:
    """numpy's and scipy's versions and the build and core of every OpenBLAS
    loaded so far."""
    configs = []
    for lib in parallel.loaded_openblas():
        for name in _OPENBLAS_CONFIG_SYMBOLS:
            if hasattr(lib, name):
                get_config = getattr(lib, name)
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                configs.append(" ".join(get_config().decode().split()))
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": configs}


def main() -> None:
    for name, spec in fixtures().items():
        with tempfile.TemporaryDirectory() as tmp:
            out = run_fixture(spec, Path(tmp))
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir()
            for artifact in ARTIFACTS:
                if (out / artifact).exists():
                    shutil.copyfile(out / artifact, target / artifact)
            report = json.loads((out / REPORT_NAME).read_text())
        print(f"{name}: oa={report['oa']:.4f} aa={report['aa']:.4f} kappa={report['kappa']:.4f}")
    versions = GOLDEN / "versions.json"
    versions.write_text(json.dumps(numeric_versions(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {versions}")


if __name__ == "__main__":
    main()
