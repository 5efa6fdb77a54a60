"""Time one RTV smoothing (``mstv.rtv_smooth``: four reweighted sparse
solves) per image shape, each shape in a fresh process.

    PYTHONPATH=src python scripts/rtv_timing.py [--shapes 64x64,145x145,610x340]

The band is the first band of a ``make_synthetic_cube`` fixture (4 bands,
up to 4 classes, noise 0.1, seed 0), min-max scaled as the pipeline scales
it, and smoothed at the default scale (lambda 0.005, sigma 3). Per shape the
table gives:

- ``plan_s``: the time of the shape's plan (``mstv._rtv_plan``: the
  elimination order and the permuted pattern, computed once per shape and
  then cached);
- ``smooth_s``: the time of the smoothing after it;
- the median round, split into ``factor_solve_ms``, SuperLU's factor and
  solve (``mstv.splu`` and the solve of the LU it returns), and
  ``weights_gather_ms``, the rest of the round: the weights and values,
  their gather into the pattern, the residual check and the scatter;
- ``rss_rise_mb``: how far the process's own peak RSS
  (``pipeline.peak_rss_mb``, in MB of 10^6 bytes, as the benchmark reports
  it) rose over the plan and the smoothing. The LU factors of one solve set
  that rise.
"""

import argparse
import json
import subprocess
import sys
import time

import numpy as np

from hsikelm import mstv
from hsikelm.pipeline import make_synthetic_cube, peak_rss_mb

DEFAULT_SHAPES = "64x64,145x145,610x340"
COLUMNS = ("shape", "plan_s", "smooth_s", "weights_gather_ms", "factor_solve_ms", "rss_rise_mb")


def shapes(text: str) -> list[tuple[int, int]]:
    """Parse ``HxW[,HxW...]``."""
    try:
        out = [tuple(int(v) for v in shape.lower().split("x")) for shape in text.split(",")]
    except ValueError:
        out = []
    if not out or any(len(s) != 2 or min(s) < 1 for s in out):
        raise argparse.ArgumentTypeError(f"expected HxW[,HxW...] with H, W >= 1, got {text!r}")
    return out


class _TimedLU:
    """A SuperLU factorization whose solves add their time to ``spent``."""

    def __init__(self, lu, spent: list):
        self.lu, self.spent = lu, spent

    def solve(self, *args, **kwargs):
        start = time.perf_counter()
        x = self.lu.solve(*args, **kwargs)
        self.spent[-1] += time.perf_counter() - start
        return x


def measure(h: int, w: int) -> dict:
    """One cold smoothing of an h x w band in this process."""
    cube, _ = make_synthetic_cube(h, w, 4, min(h, 4), 0.1, 0)
    band = mstv.scale_bands_unit(cube)[:, :, 0]
    del cube
    round_ends, factor_solve_s = [], []
    solve, splu = mstv.spsolve, mstv.splu

    def timed_solve(*args):
        x = solve(*args)
        round_ends.append(time.perf_counter())
        return x

    def timed_splu(*args, **kwargs):
        start = time.perf_counter()
        lu = splu(*args, **kwargs)
        factor_solve_s.append(time.perf_counter() - start)
        return _TimedLU(lu, factor_solve_s)

    mstv.spsolve, mstv.splu = timed_solve, timed_splu
    try:
        base = peak_rss_mb()
        start = time.perf_counter()
        mstv._rtv_plan(h, w)
        planned = time.perf_counter()
        mstv.rtv_smooth(band, mstv.RtvParams())
        done = time.perf_counter()
    finally:
        mstv.spsolve, mstv.splu = solve, splu
    round_s = np.diff([planned, *round_ends])
    return {
        "shape": f"{h}x{w}",
        "plan_s": planned - start,
        "smooth_s": done - planned,
        "weights_gather_ms": 1e3 * float(np.median(round_s - factor_solve_s)),
        "factor_solve_ms": 1e3 * float(np.median(factor_solve_s)),
        "rss_rise_mb": peak_rss_mb() - base,
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--shapes", type=shapes, default=DEFAULT_SHAPES,
                        help="comma-separated HxW list")
    parser.add_argument("--child", type=shapes, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure(*args.child[0])))
        return

    widths = [max(len(name), 9) for name in COLUMNS]
    print(" ".join(f"{name:>{width}}" for name, width in zip(COLUMNS, widths)))
    for h, w in args.shapes:
        child = subprocess.run(
            [sys.executable, __file__, "--child", f"{h}x{w}"],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        r = json.loads(child.stdout.splitlines()[-1])
        print(" ".join([f"{r['shape']:>{widths[0]}}"]
                       + [f"{r[name]:{width}.3f}" for name, width in zip(COLUMNS[1:], widths[1:])]))


if __name__ == "__main__":
    main()
