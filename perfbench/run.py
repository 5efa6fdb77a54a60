"""hsikelm benchmark: one workload through the user's entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses the checkout's
``src/hsikelm`` and nothing installed. Workloads are defined in workloads.py;
``--seed`` picks the fixture. The fixture and config are written before any
timing. Every call is ``hsikelm.cli.main(["run", "--config", ...])`` in a
fresh worker process (worker.py) under the BLAS thread settings found in the
environment, which the benchmark passes through unchanged. One call runs at
a time.

``--trace 0`` makes calls until the next one would end after ``--seconds``
(at least one) and reports the end-to-end metrics: medians over the calls,
and ``setup_s`` as the median of several interpreter starts that import
``hsikelm.cli``. ``--trace 1`` makes one untraced call and two traced calls
and reports the per-layer metrics of the first traced call (tracer.py),
checks that the counts of the second repeat exactly, and reports the
tracing overhead as traced minus untraced ``run_s``.

Every call's outputs are checked against reference.json (recorded by
record_reference.py): OA/AA/kappa within ``QUALITY_ABS_TOL``, the chosen
(C, gamma) and the final cross-validated MSE within ``REL_TOL``, the SSA
trace length exactly, and the trace's best column non-increasing. A call
that exits non-zero or fails the check counts as failed.

Standard output: the environment record, one line per metric (name, value,
unit), then a JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``. The environment, per-call results and spans are also written to
``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COMPUTED, EXACT
from workloads import WORKLOADS, fixture_seed, write_fixture

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
REFERENCE = BENCH_DIR / "reference.json"

QUALITY_ABS_TOL = 2e-3
REL_TOL = 1e-6
SETUP_REPEATS = 5
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)


def declared_units(kind: str) -> dict:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer`` of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
    }


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports hsikelm.cli, after one warm-up."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import hsikelm.cli"
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def summarize_outputs(out_dir: Path) -> dict:
    """The outputs the check compares: quality, chosen (C, gamma), SSA trace."""
    report = json.loads((out_dir / "run_report.json").read_text())
    best = []
    if report["ssa_trace_path"] is not None:
        rows = (out_dir / report["ssa_trace_path"]).read_text().splitlines()[1:]
        best = [float(row.split(",")[1]) for row in rows]
    return {
        "oa": report["oa"],
        "aa": report["aa"],
        "kappa": report["kappa"],
        "c": report["chosen_hyperparams"]["c"],
        "gamma": report["chosen_hyperparams"]["gamma"],
        "cv_mse": best[-1] if best else None,
        "trace_len": len(best),
        "trace_monotone": all(b <= a for a, b in zip(best, best[1:])),
    }


def check_outputs(got: dict, expected: dict) -> list[str]:
    problems = []
    if not got["trace_monotone"]:
        problems.append("SSA best-fitness trace increases")
    if got["trace_len"] != expected["trace_len"]:
        problems.append(f"trace length {got['trace_len']} != {expected['trace_len']}")
    for key in ("oa", "aa", "kappa"):
        if abs(got[key] - expected[key]) > QUALITY_ABS_TOL:
            problems.append(f"{key} {got[key]} != {expected[key]} (abs tol {QUALITY_ABS_TOL})")
    for key in ("c", "gamma", "cv_mse"):
        a, b = got[key], expected[key]
        if (a is None) != (b is None) or (a is not None and abs(a - b) > REL_TOL * abs(b)):
            problems.append(f"{key} {a} != {b} (rel tol {REL_TOL})")
    return problems


def run_call(config: Path, call_dir: Path, expected: dict | None, deadline: float,
             traced: bool = False) -> dict:
    """One fresh worker process; returns its result plus ``problems`` (empty when it passed)."""
    call_dir.mkdir(parents=True)
    result_path = call_dir / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(SRC),
           "--config", str(config), "--out", str(call_dir / "out"), "--result", str(result_path)]
    if traced:
        cmd += ["--spans", str(call_dir / "spans.json")]
    try:
        with open(call_dir / "worker.log", "w") as log:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"problems": ["worker timed out"]}
    if proc.returncode != 0 or not result_path.exists():
        log_tail = (call_dir / "worker.log").read_text()[-2000:]
        return {"problems": [f"worker exited {proc.returncode}: {log_tail}"]}
    result = json.loads(result_path.read_text())
    if result["rc"] != 0:
        result["problems"] = [f"hsikelm run exited {result['rc']}"]
        return result
    result["outputs"] = summarize_outputs(call_dir / "out")
    result["problems"] = (
        ["no reference outputs for this fixture"] if expected is None
        else check_outputs(result["outputs"], expected)
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hsikelm" / "cli.py").is_file():
        print(f"no hsikelm sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    fseed = fixture_seed(args.seed)
    expected = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(str(fseed))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed} -> fixture seed {fseed}; trace {args.trace}")
    print("pso: not measured; it sits outside the pipeline and no workload calls it")

    job = WORK / f"{workload.name}-{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(job, ignore_errors=True)
    try:
        config = write_fixture(workload, fseed, job / "fixture")
        calls = []
        if args.trace:
            for i, traced in enumerate((False, True, True)):
                calls.append(run_call(config, job / f"call{i}", expected, deadline, traced))
        else:
            setup_s = measure_setup()
            start = time.monotonic()
            while True:
                calls.append(run_call(config, job / f"call{len(calls)}", expected, deadline))
                if calls[-1]["problems"]:
                    break
                elapsed = time.monotonic() - start
                typical = statistics.median(c["run_s"] for c in calls)
                if elapsed + typical > args.seconds or time.monotonic() + 2 * typical > deadline:
                    break
        failed = sum(1 for c in calls if c["problems"])
        for i, c in enumerate(calls):
            for problem in c["problems"]:
                print(f"call {i} failed: {problem}", file=sys.stderr)
        done = [c for c in calls if "run_s" in c]
        if not done:
            print("no call completed", file=sys.stderr)
            return 1

        if args.trace:
            if len(done) < 3:
                print("traced run incomplete", file=sys.stderr)
                return 1
            untraced, first, second = done
            metrics = dict(first["layers"])
            metrics["trace.run_s"] = first["run_s"]
            metrics["trace.overhead_s"] = first["run_s"] - untraced["run_s"]
            moved = [k for k in EXACT if first["layers"][k] != second["layers"][k]]
            for key in moved:
                print(f"count {key} did not repeat: {first['layers'][key]} vs "
                      f"{second['layers'][key]}", file=sys.stderr)
            if moved and not second["problems"]:
                failed += 1
        else:
            metrics = {
                "run_s": statistics.median(c["run_s"] for c in done),
                "setup_s": setup_s,
                "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in done),
            }
            for key in ("oa", "aa", "kappa"):
                metrics[key] = statistics.median(c["outputs"][key] for c in done)

        units = declared_units("per_layer" if args.trace else "end_to_end")
        for name, unit in units.items():
            label = " (computed)" if name in COMPUTED else ""
            print(f"{name:26s} {metrics[name]:.6g} {unit}{label}")
        outputs = done[0].get("outputs", {})
        if outputs.get("cv_mse") is not None:
            print(f"{'cv_mse':26s} {outputs['cv_mse']:.6g} mse (final best of ssa_trace.csv)")
        print(f"{'failed_frac':26s} {failed / len(calls):.6g} fraction "
              f"({failed} of {len(calls)} calls)")

        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}-trace{args.trace}"
        if args.trace:
            shutil.copy(job / "call1" / "spans.json", results / f"{stem}-spans.json")
        (results / f"{stem}.json").write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "fixture_seed": fseed,
            "env": env, "calls": calls, "metrics": metrics,
        }, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(job, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
