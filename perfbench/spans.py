"""In-memory spans around the public functions of each kernelcast module.

The tracer patches every binding a caller looks up: a function imported by
name into another module (``cli.volterra_gram``, ``kernels.solve_ridge_gram``)
is replaced there as well as in its defining module, and methods are
replaced on their class.  Nothing under ``src/`` changes; ``remove()`` puts
every original back, so traced and untraced iterations run the same code.

A span is ``(name, start, end, parent, run_id, info)``; ``info`` holds the
counts a probe read from the call's positional arguments (``self``
included for methods) or its result.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict


def _nbytes(path) -> int:
    return os.path.getsize(path)


def _rows(result) -> int:
    return int(result.shape[0]) if result.ndim == 2 else 1


def _ridge(args, result) -> dict:
    return {"n": int(args[0].shape[0]), "method": result.method,
            "jitter": result.jitter > 0.0}


def _forecast_run(args, result) -> dict:
    return {"truncated": result.truncated}


def _grid(args, result) -> dict:
    scores = [s for row in result.table for s in row.fold_mse]
    return {"candidates": len(result.table), "fold_scores": len(scores),
            "finite_scores": sum(math.isfinite(s) for s in scores)}


# (span name, defining module, attribute path, probe(args, result) -> info)
TARGETS = (
    ("datasets.simulate", "datasets", "simulate_lorenz", None),
    ("datasets.simulate", "datasets", "simulate_bekk", None),
    ("datasets.save_csv", "datasets", "save_csv",
     lambda a, r: {"bytes": _nbytes(a[1])}),
    ("datasets.load_csv", "datasets", "load_csv",
     lambda a, r: {"rows": r[0].n}),
    ("preprocess.apply_pipeline", "preprocess", "apply_pipeline", None),
    ("preprocess.invert_pipeline", "preprocess", "invert_pipeline", None),
    ("ngrc.ngrc_features", "ngrc", "ngrc_features",
     lambda a, r: {"rows": _rows(r)}),
    ("ngrc.fit_ngrc", "ngrc", "fit_ngrc", None),
    ("ngrc.predict_ngrc", "ngrc", "predict_ngrc", None),
    ("kernels.volterra_gram", "kernels", "volterra_gram",
     lambda a, r: {"n": int(r.values.shape[0])}),
    ("kernels.volterra_step", "kernels", "VolterraExtension.step", None),
    ("kernels.poly_gram", "kernels", "poly_gram", None),
    ("kernels.fit_kernel_model", "kernels", "fit_kernel_model", None),
    ("kernels.model_from_dict", "kernels", "KernelModel.from_dict", None),
    ("kernels.predict_kernel", "kernels", "predict_kernel", None),
    ("linsolve.solve_ridge_gram", "linsolve", "solve_ridge_gram", _ridge),
    ("linsolve.solve_ridge_primal", "linsolve", "solve_ridge_primal", None),
    ("estimators.fit", "estimators", "fit_estimator", None),
    ("estimators.to_dict", "estimators", "estimator_to_dict", None),
    ("estimators.from_dict", "estimators", "estimator_from_dict", None),
    ("forecast.path_continue", "forecast", "path_continue", _forecast_run),
    ("forecast.open_loop", "forecast", "open_loop", _forecast_run),
    ("forecast.step", "estimators", "_LaggedStepper.step", None),
    ("forecast.step", "estimators", "_VolterraStepper.step", None),
    ("forecast.save_csv", "forecast", "ForecastRun.save_csv",
     lambda a, r: {"bytes": _nbytes(a[1])}),
    ("forecast.load_csv", "forecast", "load_forecast_csv", None),
    ("cv.grid_search", "cv", "grid_search", _grid),
    ("metrics.evaluate", "cli", "evaluate_run", None),
    ("metrics.welch_psd", "metrics", "welch_psd", None),
    ("metrics.w1_nd", "metrics", "w1_nd", None),
)


class Tracer:
    """Records spans while installed; single-threaded by design."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent,
                           self.run_id, None))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, info) -> None:
        self._stack.pop()
        name, start, _, parent, run_id, _ = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, run_id,
                           info)

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx, None)

    def _wrap(self, name: str, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    info = probe(args, result)
                return result
            finally:
                self._close(idx, info)
        return traced

    def install(self) -> None:
        """Patch every binding of every target in the loaded kernelcast modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "kernelcast" or n.startswith("kernelcast.")]
        for name, module, attr, probe in TARGETS:
            owner = sys.modules[f"kernelcast.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__, probe))
                else:
                    patched = self._wrap(name, raw, probe)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            fn = getattr(owner, attr)
            patched = self._wrap(name, fn, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, patched)

    def remove(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, run_id, info])
                         + "\n")


def _pct_us(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[tuple], run_id: int) -> dict:
    """Per-layer values of one traced pipeline iteration.

    Layers that the workload never enters report 0 calls and 0 seconds.
    Computed work counts are derived from sizes, not measured.
    """
    own = [(i, s) for i, s in enumerate(spans) if s[4] == run_id]
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for i, (name, start, end, parent, _, info) in own:
        by_name[name].append((start, end, info))
        if parent >= 0:
            child_time[parent] += end - start

    def durations(name):
        return [e - s for s, e, _ in by_name[name]]

    def total(name):
        return sum(durations(name))

    def calls(name):
        return len(by_name[name])

    def info_sum(name, key):
        return sum(i[key] for _, _, i in by_name[name])

    ridge = [i for _, _, i in by_name["linsolve.solve_ridge_gram"]]
    gram_n = [i["n"] for _, _, i in by_name["kernels.volterra_gram"]]
    grids = by_name["cv.grid_search"]
    cv_fits = [e - s for s, e, _ in by_name["estimators.fit"]
               if any(gs <= s and e <= ge for gs, ge, _ in grids)]
    cv_total = total("cv.grid_search")
    fold_scores = sum(i["fold_scores"] for _, _, i in grids)
    cli_self = sum(spans[i][2] - spans[i][1] - child_time[i]
                   for i, s in own if s[0].startswith("cli."))
    return {
        "datasets.simulate_s": total("datasets.simulate"),
        "datasets.save_csv_s": total("datasets.save_csv"),
        "datasets.csv_bytes_written": info_sum("datasets.save_csv", "bytes"),
        "datasets.load_csv_s": total("datasets.load_csv"),
        "datasets.load_csv_calls": calls("datasets.load_csv"),
        "datasets.load_csv_rows": info_sum("datasets.load_csv", "rows"),
        "preprocess.apply_pipeline_calls": calls("preprocess.apply_pipeline"),
        "preprocess.invert_pipeline_calls": calls("preprocess.invert_pipeline"),
        "preprocess.apply_pipeline_s": total("preprocess.apply_pipeline"),
        "ngrc.ngrc_features_s": total("ngrc.ngrc_features"),
        "ngrc.ngrc_features_calls": calls("ngrc.ngrc_features"),
        "ngrc.ngrc_features_rows": info_sum("ngrc.ngrc_features", "rows"),
        "ngrc.fit_ngrc_s": total("ngrc.fit_ngrc"),
        "ngrc.predict_ngrc_us_p50": _pct_us(durations("ngrc.predict_ngrc"), 0.50),
        "ngrc.predict_ngrc_us_p99": _pct_us(durations("ngrc.predict_ngrc"), 0.99),
        "kernels.volterra_gram_s": total("kernels.volterra_gram"),
        "kernels.volterra_gram_calls": calls("kernels.volterra_gram"),
        "kernels.volterra_gram_n": max(gram_n, default=0),
        "kernels.volterra_gram_bytes_computed": sum(8 * n * n for n in gram_n),
        "kernels.volterra_steps": calls("kernels.volterra_step"),
        "kernels.volterra_step_us_p50": _pct_us(durations("kernels.volterra_step"), 0.50),
        "kernels.volterra_step_us_p99": _pct_us(durations("kernels.volterra_step"), 0.99),
        "kernels.poly_gram_s": total("kernels.poly_gram"),
        "kernels.poly_gram_calls": calls("kernels.poly_gram"),
        "kernels.fit_kernel_model_s": total("kernels.fit_kernel_model"),
        "kernels.model_from_dict_s": total("kernels.model_from_dict"),
        "kernels.predict_kernel_s": total("kernels.predict_kernel"),
        "kernels.predict_kernel_calls": calls("kernels.predict_kernel"),
        "linsolve.solve_ridge_gram_s": total("linsolve.solve_ridge_gram"),
        "linsolve.solve_ridge_gram_calls": len(ridge),
        "linsolve.gram_n_max": max((i["n"] for i in ridge), default=0),
        "linsolve.route_cholesky": sum(i["method"] == "cholesky" for i in ridge),
        "linsolve.route_eigh": sum(i["method"] == "eigh" for i in ridge),
        "linsolve.jitter_solves": sum(i["jitter"] for i in ridge),
        # n^3/3 per Cholesky factorization; about 9 n^3 per eigendecomposition
        # with eigenvectors (symmetric QR, Golub and Van Loan).
        "linsolve.factor_flops_computed": sum(
            i["n"] ** 3 / 3 for i in ridge if i["method"] == "cholesky"),
        "linsolve.eigh_flops_computed": sum(
            9 * i["n"] ** 3 for i in ridge if i["method"] == "eigh"),
        "linsolve.solve_ridge_primal_s": total("linsolve.solve_ridge_primal"),
        "estimators.fit_s": total("estimators.fit"),
        "estimators.to_dict_s": total("estimators.to_dict"),
        "estimators.from_dict_s": total("estimators.from_dict"),
        "forecast.path_continue_s": total("forecast.path_continue"),
        "forecast.steps": calls("forecast.step"),
        "forecast.step_us_p50": _pct_us(durations("forecast.step"), 0.50),
        "forecast.step_us_p99": _pct_us(durations("forecast.step"), 0.99),
        "forecast.open_loop_s": total("forecast.open_loop"),
        "forecast.open_loop_calls": calls("forecast.open_loop"),
        "forecast.save_csv_s": total("forecast.save_csv"),
        "forecast.load_csv_s": total("forecast.load_csv"),
        "forecast.csv_bytes": info_sum("forecast.save_csv", "bytes"),
        "forecast.truncated_runs": sum(
            i["truncated"] for name in ("forecast.path_continue",
                                        "forecast.open_loop")
            for _, _, i in by_name[name]),
        "cv.grid_search_s": cv_total,
        "cv.candidates": sum(i["candidates"] for _, _, i in grids),
        "cv.fold_fits": len(cv_fits),
        "cv.finite_fold_ratio": (sum(i["finite_scores"] for _, _, i in grids)
                                 / fold_scores) if fold_scores else 0.0,
        "cv.fit_share": sum(cv_fits) / cv_total if cv_total else 0.0,
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.welch_psd_s": total("metrics.welch_psd"),
        "metrics.w1_nd_s": total("metrics.w1_nd"),
        "cli.self_s": cli_self,
        "trace.spans": len(own),
    }
