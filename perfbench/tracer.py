"""Span tracing for one benchmark call, done entirely from the benchmark's side.

``Tracer.install`` replaces public functions of the hsikelm modules by
wrappers, at the name the caller looks them up (``pipeline.multiscale_stack``
is patched in ``pipeline``'s namespace, ``rtv_smooth`` in ``mstv``'s, and
``kelm.train`` on the ``kelm`` module that ``pipeline`` and ``ssa`` call
through). Each wrapper records a span (name, start, end, parent) in memory,
and some also count work (see ``Tracer.install``); nothing in the program is
edited.

A span name is ``<layer>.<function>``; the layer is the module that defines
the function. A layer's self time is the time inside its spans that no span
of another layer covers.

Counts marked as computed in ``COMPUTED`` are derived from argument and
result shapes, not measured; they must repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import statistics
import time

COMPUTED = ("kelm.chol_gflop", "kelm.dist_entries", "mstv.kpca_kernel_entries")

# counts that must repeat exactly between two traced runs of one fixture
EXACT = (
    "ssa.evals", "kelm.train_calls", "kelm.predict_calls", "kelm.predict_rows",
    "kelm.failures", "mstv.rtv_calls", *COMPUTED,
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.counts = {
            "kelm.dist_entries": 0,
            "kelm.chol_flop3": 0,  # sum of n**3 over train calls
            "kelm.predict_rows": 0,
            "kelm.failures": 0,
            "mstv.kpca_kernel_entries": 0,
            "ssa.evals": 0,
            "ssa.evaluated": 0,
            "ssa.accepted": 0,
        }
        self._evals_mark = 0
        self.cv_mse = 0.0

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, module, attr, name, before=None, after=None, failure=None):
        """Replace ``module.attr`` by a traced wrapper.

        ``before(args)`` may return replacement positional arguments;
        ``after(args, result)`` sees the result; ``failure`` is an
        ``(exception type, count key)`` pair counted when the call raises it.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args) or args
            try:
                result = self.call(name, original, *args, **kwargs)
            except Exception as e:
                if failure is not None and isinstance(e, failure[0]):
                    self.counts[failure[1]] += 1
                raise
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def install(self):
        from hsikelm import cli, datacube, kelm, lbp, metrics, mstv, pipeline, ssa
        from hsikelm.errors import NumericalError

        counts = self.counts

        def add(key, value):
            counts[key] += value

        self._wrap(cli, "run_full", "pipeline.run_full")
        self._wrap(cli, "load_config", "pipeline.load_config")
        self._wrap(pipeline, "build_features", "pipeline.build_features")
        for attr in ("load_cube", "load_labels", "check_companion", "stratified_split"):
            self._wrap(pipeline, attr, f"datacube.{attr}")
        for attr in ("group_and_average", "scale_bands_unit", "multiscale_stack", "kpca_reduce"):
            self._wrap(pipeline, attr, f"mstv.{attr}")
        self._wrap(pipeline, "lbp_features", "lbp.lbp_features")

        self._wrap(mstv, "rtv_smooth", "mstv.rtv_smooth")
        self._wrap(mstv, "spsolve", "mstv.spsolve")
        self._wrap(mstv, "kpca_fit", "mstv.kpca_fit",
                   after=lambda a, model: add("mstv.kpca_kernel_entries",
                                              model.landmarks.shape[0] ** 2))
        self._wrap(mstv, "kpca_transform", "mstv.kpca_transform",
                   after=lambda a, out: add("mstv.kpca_kernel_entries",
                                            a[1].shape[0] * a[0].landmarks.shape[0]))

        def objective(obj):
            def traced(position):
                add("ssa.evals", 1)
                return self.call("ssa.objective", obj, position)
            return traced

        def mark_evals(args, result):
            self._evals_mark = counts["ssa.evals"]

        def count_accepted(args):
            state = args[0]
            add("ssa.accepted", int((state.cand_fitness < state.fitness).sum()))
            add("ssa.evaluated", counts["ssa.evals"] - self._evals_mark)
            self._evals_mark = counts["ssa.evals"]

        def record_cv(args, result):
            self.cv_mse = float(result.best_fitness)

        self._wrap(ssa, "tune_kelm", "ssa.tune_kelm", after=record_cv)
        self._wrap(ssa, "optimize", "ssa.optimize", before=lambda a: (objective(a[0]), *a[1:]))
        self._wrap(ssa, "init_state", "ssa.init_state", after=mark_evals)
        self._wrap(ssa, "greedy_replace", "ssa.greedy_replace", before=count_accepted)
        self._wrap(ssa, "write_trace_csv", "ssa.write_trace_csv")

        self._wrap(kelm, "train", "kelm.train",
                   before=lambda a: add("kelm.chol_flop3", a[0].shape[0] ** 3),
                   failure=(NumericalError, "kelm.failures"))
        self._wrap(kelm, "predict", "kelm.predict",
                   after=lambda a, r: add("kelm.predict_rows", a[1].shape[0]))
        self._wrap(kelm, "cdist", "kelm.cdist",
                   after=lambda a, r: add("kelm.dist_entries", r.size))
        self._wrap(kelm, "one_hot", "kelm.one_hot")
        self._wrap(kelm, "mse_fitness", "kelm.mse_fitness")

        for attr in ("confusion", "oa", "aa", "kappa", "write_confusion_csv"):
            self._wrap(metrics, attr, f"metrics.{attr}")

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Reduce the spans and counts to the per-layer metrics of BENCHMARK.json."""
        durations: dict[str, list[float]] = {}
        self_time: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            durations.setdefault(name, []).append(end - start)
        for name, start, end, parent in self.spans:
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                player = pname.split(".", 1)[0]
                self_time[player] = self_time.get(player, 0.0) - (end - start)

        def total(name):
            return sum(durations.get(name, ()), 0.0)

        def median_ms(name):
            values = durations.get(name)
            return 1000.0 * statistics.median(values) if values else 0.0

        c = self.counts
        rtv_s, solve_s = total("mstv.rtv_smooth"), total("mstv.spsolve")
        return {
            "ssa.tune_s": total("ssa.tune_kelm"),
            "ssa.evals": c["ssa.evals"],
            "ssa.eval_ms": median_ms("ssa.objective"),
            "ssa.self_s": self_time.get("ssa", 0.0),
            "ssa.accept_ratio": c["ssa.accepted"] / c["ssa.evaluated"] if c["ssa.evaluated"] else 0.0,
            "ssa.cv_mse": self.cv_mse,
            "kelm.train_calls": len(durations.get("kelm.train", ())),
            "kelm.train_s": total("kelm.train"),
            "kelm.train_ms": median_ms("kelm.train"),
            "kelm.dist_entries": c["kelm.dist_entries"],
            "kelm.chol_gflop": c["kelm.chol_flop3"] / 3e9,
            "kelm.predict_calls": len(durations.get("kelm.predict", ())),
            "kelm.predict_rows": c["kelm.predict_rows"],
            "kelm.predict_s": total("kelm.predict"),
            "kelm.failures": c["kelm.failures"],
            "mstv.rtv_calls": len(durations.get("mstv.rtv_smooth", ())),
            "mstv.rtv_s": rtv_s,
            "mstv.rtv_call_ms": median_ms("mstv.rtv_smooth"),
            "mstv.rtv_solve_s": solve_s,
            "mstv.rtv_assembly_s": rtv_s - solve_s,
            "mstv.group_s": total("mstv.group_and_average"),
            "mstv.kpca_fit_s": total("mstv.kpca_fit"),
            "mstv.kpca_transform_s": total("mstv.kpca_transform"),
            "mstv.kpca_kernel_entries": c["mstv.kpca_kernel_entries"],
            "datacube.load_s": total("datacube.load_cube") + total("datacube.load_labels"),
            "lbp.features_s": total("lbp.lbp_features"),
            "metrics.evaluate_s": sum(
                total(f"metrics.{a}") for a in ("confusion", "oa", "aa", "kappa")
            ),
            "pipeline.self_s": self_time.get("pipeline", 0.0),
            "cli.self_s": self_time.get("cli", 0.0),
        }
