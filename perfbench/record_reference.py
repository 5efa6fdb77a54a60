"""Record the reference outputs that run.py checks every call against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs one untraced call per workload and fixture seed (0 .. FIXTURE_SEEDS-1)
and writes their outputs to reference.json. Record them from the code whose
outputs later changes must keep; a change that alters outputs on purpose
says so and records them again.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from run import DEADLINE_S, REFERENCE, SRC, WORK, run_call
from workloads import FIXTURE_SEEDS, WORKLOADS, write_fixture


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        entries = {}
        for seed in range(FIXTURE_SEEDS):
            job = WORK / f"record-{name}-{seed}"
            shutil.rmtree(job, ignore_errors=True)
            try:
                config = write_fixture(WORKLOADS[name], seed, job / "fixture")
                result = run_call(config, job / "call", None, time.monotonic() + DEADLINE_S)
            finally:
                shutil.rmtree(job, ignore_errors=True)
            if "outputs" not in result:
                print(f"{name} seed {seed}: {result['problems']}", file=sys.stderr)
                return 1
            entries[str(seed)] = {k: v for k, v in result["outputs"].items() if k != "trace_monotone"}
            print(f"{name} seed {seed}: run_s {result['run_s']:.2f} {entries[str(seed)]}", flush=True)
        reference[name] = entries
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
