"""``scripts/rtv_timing.py`` runs against the current ``mstv`` internals."""

import subprocess
import sys
from pathlib import Path

from conftest import blas_env

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rtv_timing.py"


def test_rtv_timing_reports_every_column_at_toy_shapes():
    run = subprocess.run([sys.executable, str(_SCRIPT), "--shapes", "6x5,1x1"], env=blas_env("1"),
                         capture_output=True, text=True, check=True, timeout=120)
    header, *rows = run.stdout.splitlines()
    assert header.split() == ["shape", "plan_s", "smooth_s", "weights_gather_ms",
                              "factor_solve_ms", "rss_rise_mb"]
    assert [row.split()[0] for row in rows] == ["6x5", "1x1"]
    for row in rows:
        values = [float(v) for v in row.split()[1:]]
        assert len(values) == 5 and all(v >= 0.0 for v in values)
