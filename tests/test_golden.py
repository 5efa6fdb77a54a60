"""Golden run outputs: each fixture in ``tests/golden/fixtures.json`` runs
end to end through ``hsikelm run`` and its artifacts are compared with the
stored ones.

The report, the confusion CSV and the classification map must match byte for
byte. The SSA trace must have the stored length and match within rtol 1e-9,
because the last bits of ``np.exp`` depend on numpy's SIMD dispatch. A
mismatch names the artifact and its first differing line. The stored files
are re-recorded with ``scripts/record_goldens.py``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from hsikelm.pipeline import TRACE_NAME

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_goldens.py"
_spec = importlib.util.spec_from_file_location("record_goldens", _SCRIPT)
record_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_goldens)

GOLDEN = record_goldens.GOLDEN
FIXTURES = record_goldens.fixtures()
TRACE_RTOL = 1e-9


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def golden_run(request, tmp_path_factory):
    name = request.param
    return name, record_goldens.run_fixture(FIXTURES[name], tmp_path_factory.mktemp(name))


def _first_difference(got: list, stored: list, same) -> str | None:
    """Where the line lists first differ under ``same(got_line, stored_line)``, else None;
    a line is quoted up to its first 80 characters or bytes."""
    for i, (g, s) in enumerate(zip(got, stored), start=1):
        if not same(g, s):
            return f"line {i}: got {g[:80]!r}, stored {s[:80]!r}"
    if len(got) != len(stored):
        return f"line {min(len(got), len(stored)) + 1}: got {len(got)} lines, stored {len(stored)}"
    return None


def _same_trace_row(got: str, stored: str) -> bool:
    g, s = got.split(","), stored.split(",")
    if len(g) != len(s) or g[0] != s[0]:
        return False
    try:  # the header has no numbers and must match exactly
        return bool(np.allclose([float(v) for v in g[1:]], [float(v) for v in s[1:]],
                                rtol=TRACE_RTOL, atol=0.0))
    except ValueError:
        return got == stored


@pytest.mark.parametrize("artifact", record_goldens.ARTIFACTS)
def test_run_matches_golden(golden_run, artifact):
    name, out = golden_run
    produced, stored = out / artifact, GOLDEN / name / artifact
    assert produced.exists() == stored.exists(), \
        f"{name}: {artifact} {'written' if produced.exists() else 'not written'}, " \
        f"but {'stored' if stored.exists() else 'not stored'}"
    if not stored.exists():
        return
    if artifact == TRACE_NAME:
        where = _first_difference(produced.read_text().splitlines(),
                                  stored.read_text().splitlines(), _same_trace_row)
    else:
        where = _first_difference(produced.read_bytes().split(b"\n"),
                                  stored.read_bytes().split(b"\n"), bytes.__eq__)
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    assert where is None, (
        f"{name}: {artifact} differs from the golden at {where}; the goldens were recorded "
        f"with {recorded}, this run has {record_goldens.numeric_versions()}"
    )
