"""Time one RTV smoothing (``mstv.rtv_smooth``: four reweighted sparse
solves) per image shape, each shape in a fresh process.

    PYTHONPATH=src python scripts/rtv_timing.py [--shapes 64x64,145x145,610x340]

The band is the first band of a ``make_synthetic_cube`` fixture (4 bands,
up to 4 classes, noise 0.1, seed 0), min-max scaled as the pipeline scales
it, and smoothed at the default scale (lambda 0.005, sigma 3). Per shape the
table gives the time of the elimination order (computed once per shape and
then cached), the time of the smoothing after it, the median of its four
solves, and how far the process's own peak RSS (``pipeline.peak_rss_mb``,
in MB of 10^6 bytes, as the benchmark reports it) rose over both: the LU
factors of one solve set that rise.
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


def shapes(text: str) -> list[tuple[int, int]]:
    """Parse ``HxW[,HxW...]``."""
    try:
        out = [tuple(int(v) for v in shape.lower().split("x")) for shape in text.split(",")]
    except ValueError:
        out = []
    if not out or any(len(s) != 2 or min(s) < 1 for s in out):
        raise argparse.ArgumentTypeError(f"expected HxW[,HxW...] with H, W >= 1, got {text!r}")
    return out


def measure(h: int, w: int) -> dict:
    """One cold smoothing of an h x w band in this process."""
    cube, _ = make_synthetic_cube(h, w, 4, min(h, 4), 0.1, 0)
    band = mstv.scale_bands_unit(cube)[:, :, 0]
    del cube
    solve_s = []
    solve = mstv.spsolve

    def timed_solve(*args):
        start = time.perf_counter()
        x = solve(*args)
        solve_s.append(time.perf_counter() - start)
        return x

    mstv.spsolve = timed_solve
    base = peak_rss_mb()
    start = time.perf_counter()
    mstv._rtv_order(h, w)
    ordered = time.perf_counter()
    mstv.rtv_smooth(band, mstv.RtvParams())
    done = time.perf_counter()
    return {
        "shape": f"{h}x{w}",
        "order_s": ordered - start,
        "smooth_s": done - ordered,
        "solve_ms": 1e3 * float(np.median(solve_s)),
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

    print(f"{'shape':>9} {'order_s':>8} {'smooth_s':>9} {'solve_ms':>9} {'rss_rise_mb':>12}")
    for h, w in args.shapes:
        child = subprocess.run(
            [sys.executable, __file__, "--child", f"{h}x{w}"],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        r = json.loads(child.stdout.splitlines()[-1])
        print(f"{r['shape']:>9} {r['order_s']:8.3f} {r['smooth_s']:9.3f} "
              f"{r['solve_ms']:9.1f} {r['rss_rise_mb']:12.1f}")


if __name__ == "__main__":
    main()
