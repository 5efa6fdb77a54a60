"""One benchmark call in a fresh interpreter.

    python3 perfbench/worker.py --src SRC --config CONFIG --out OUT_DIR --result RESULT.json
        [--spans SPANS.json]

Imports ``hsikelm.cli`` from ``SRC``, then times one
``hsikelm.cli.main(["run", "--config", CONFIG, "--out", OUT_DIR])``. With
``--spans`` the call is traced (see tracer.py) and the spans are written
there after the call. The result file holds the exit code, the wall time of
the call, the process's peak RSS and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from hsikelm import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"imported {cli.__file__}, not the checkout's {src}", file=sys.stderr)
        return 2

    argv = ["run", "--config", args.config, "--out", args.out]
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    if tracer is None:
        rc = cli.main(argv)
    else:
        rc = tracer.call("cli.main", cli.main, argv)
    run_s = time.perf_counter() - start

    result = {
        "rc": rc,
        "run_s": run_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        Path(args.spans).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}
        ))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
