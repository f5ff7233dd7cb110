"""File-based experiment driver.

Subcommands cover the full loop: ``simulate`` writes train/test CSVs,
``fit`` trains one estimator, ``cv`` grid-searches hyperparameters,
``forecast`` rolls the task (closed or open loop), ``eval`` scores it, and
``bench`` times the training/prediction primitives.  Every stage reads its
inputs from the experiment directory written by earlier stages, carries the
configuration hash into all outputs, and rejects stale artifacts whose hash
disagrees.

Exit codes: 0 success, 2 configuration or dependency error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .cv import Grid, expanding_folds, grid_search, overlapping_folds
from .datasets import (
    BekkParams,
    TimeSeries,
    load_csv,
    save_csv,
    simulate_bekk,
    simulate_lorenz,
    simulate_mackey_glass,
    split_train_test,
    write_csv,
)
from .errors import (
    ConfigError,
    DependencyError,
    InvalidInputError,
    KernelcastError,
    doc_field,
)
from .estimators import (
    INPUT_TRANSFORMS,
    REQUIRED_HYPER,
    estimator_from_dict,
    estimator_to_dict,
    fit_estimator,
    fit_path_estimator,
    hyper_value,
)
from .forecast import load_forecast_csv, open_loop, path_continue, valid_time
from .metrics import (
    MetricReport,
    mae,
    mape,
    mdae,
    nmse_detailed,
    psde_detailed,
    subsample_rows,
    w1_1d,
    w1_nd,
    welch_psd,
)
from .preprocess import bekk_output_pipeline
from .presets import PRESETS

SCHEMA = "kernelcast-experiment/1"


# ---------------------------------------------------------------------------
# configuration plumbing


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _get(config: dict, path: str, default=..., conv=None):
    """Value at the dotted ``path`` of ``config``, passed through ``conv``.

    A missing or null value gives ``default``; without one (``...``) it is a
    :class:`ConfigError`, as is a value ``conv`` rejects with a
    ``TypeError`` or ``ValueError``.  Both name ``path``.
    """
    node = config
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
        if node is None:
            if default is ...:
                raise ConfigError("missing required field", field=path)
            return default
    if conv is None:
        return node
    try:
        return conv(node)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed value {node!r}: {exc}", field=path)


def load_config(args) -> dict:
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(sorted(PRESETS)),
                field="preset",
            )
        config = json.loads(json.dumps(PRESETS[args.preset]))
    elif getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", field="config")
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"config is not valid JSON: {exc}", field="config")
        if not isinstance(config, dict):
            raise ConfigError("top level must be a JSON object", field="config")
    else:
        raise ConfigError("either --config or --preset is required")
    if config.get("schema") != SCHEMA:
        raise ConfigError(f"expected schema {SCHEMA!r}", field="schema")
    if getattr(args, "seed", None) is not None:
        config["seed"] = int(args.seed)
    return config


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str, what: str) -> dict:
    if not os.path.exists(path):
        raise DependencyError(f"missing upstream artifact: {path}", field=what)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DependencyError(f"corrupt upstream artifact {path}: {exc}",
                              field=what)
    if not isinstance(doc, dict):
        raise DependencyError(
            f"corrupt upstream artifact {path}: top level is not an object",
            field=what)
    return doc


def _write_manifest(out_dir: str, stage: str, config: dict,
                    files: dict, extra: dict | None = None) -> None:
    doc = {
        "stage": stage,
        "schema": SCHEMA,
        "version": __version__,
        "config_sha256": config_hash(config),
        "seed": config.get("seed"),
        "files": files,
    }
    doc.update(extra or {})
    _write_json(os.path.join(out_dir, f"{stage}_manifest.json"), doc)


def _check_manifest(out_dir: str, stage: str, config: dict) -> dict:
    path = os.path.join(out_dir, f"{stage}_manifest.json")
    doc = _read_json(path, stage)
    expected = config_hash(config)
    found = doc_field(doc, "config_sha256", path)
    if found != expected:
        raise DependencyError(
            f"{stage} artifacts were produced from a different configuration "
            f"({found} != {expected})"
        )
    return doc


# ---------------------------------------------------------------------------
# dataset handling


def _dataset_csv(config: dict, path: str) -> TimeSeries:
    """The series in the CSV file named at ``path``; a file that cannot be
    read or parsed is a :class:`ConfigError` naming ``path``."""
    try:
        return load_csv(_get(config, path, conv=str))[0]
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        raise ConfigError(f"cannot load: {exc}", field=path)


def generate_dataset(config: dict) -> dict:
    """Simulate or load the configured dataset, already split and paired."""
    kind = _get(config, "dataset.kind")
    seed = _get(config, "seed", 0, int)
    n_train = _get(config, "dataset.n_train", conv=int)
    series = pair = None

    if kind == "lorenz":
        n_points = _get(config, "dataset.n_points", 15001, int)
        if n_points < 2:
            raise ConfigError("n_points must be >= 2", field="dataset.n_points")
        dt = _get(config, "dataset.dt", 0.005, float)
        if not 0 < dt < math.inf:
            raise ConfigError("must be positive and finite", field="dataset.dt")
        try:
            series = simulate_lorenz(
                _get(config, "dataset.initial", (0.0, 1.0, 1.05), np.float64),
                dt, n_points)
        except InvalidInputError as exc:  # dt and n_points are checked above
            raise ConfigError(str(exc), field="dataset.initial")
    elif kind == "mackey-glass":
        settings = {"dt_fine": _get(config, "dataset.dt_fine", 0.02, float),
                    "delay": _get(config, "dataset.delay", 17.0, float),
                    "n_fine": _get(config, "dataset.n_fine", 382500, int),
                    "splice": _get(config, "dataset.splice", 50, int)}
        for name in ("dt_fine", "delay"):
            if not 0 < settings[name] < math.inf:
                raise ConfigError("must be positive and finite",
                                  field=f"dataset.{name}")
        for name in ("n_fine", "splice"):
            if settings[name] < 1:
                raise ConfigError("must be >= 1", field=f"dataset.{name}")
        try:
            series = simulate_mackey_glass(**settings)
        except InvalidInputError as exc:  # each setting is checked above;
            # what is left is delay not being a multiple of dt_fine
            raise ConfigError(str(exc), field="dataset.delay")
    elif kind == "bekk":
        n_points = _get(config, "dataset.n_points", 3761, int)
        if n_points < 3:
            raise ConfigError("n_points must be >= 3", field="dataset.n_points")
        d = _get(config, "dataset.d", conv=int)
        # np.float64 of a list is a float64 array: a, b are scalars or lists
        a = _get(config, "dataset.a", 0.3, np.float64)
        b = _get(config, "dataset.b", 0.9, np.float64)
        try:
            params = BekkParams(_get(config, "dataset.C", conv=np.float64),
                                np.full(d, a) if np.ndim(a) == 0 else a,
                                np.full(d, b) if np.ndim(b) == 0 else b,
                                seed=seed)
        except KernelcastError as exc:
            raise ConfigError(str(exc), field="dataset")
        innovations, _returns, covariances = simulate_bekk(params, n_points)
        # Pair input z_t with next-step vech covariance.
        pair = (TimeSeries(innovations.values[:-1], 1.0, "bekk-inputs"),
                TimeSeries(covariances.values[1:], 1.0, "bekk-outputs"))
    elif kind == "csv":
        if _get(config, "task.mode") == "path-continuation":
            series = _dataset_csv(config, "dataset.path")
        else:
            pair = (_dataset_csv(config, "dataset.inputs_path"),
                    _dataset_csv(config, "dataset.outputs_path"))
            if pair[0].n != pair[1].n:
                raise ConfigError("input/output CSV lengths differ",
                                  field="dataset")
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}", field="dataset.kind")

    n = series.n if series is not None else pair[0].n
    if not 0 < n_train < n:
        raise ConfigError(f"must lie strictly between 0 and {n}",
                          field="dataset.n_train")
    if series is not None:
        train, test = split_train_test(series, n_train)
        return {"task": "path-continuation", "train": train, "test": test}
    tr_in, te_in = split_train_test(pair[0], n_train)
    tr_out, te_out = split_train_test(pair[1], n_train)
    return {"task": "open-loop", "train_inputs": tr_in,
            "train_outputs": tr_out, "test_inputs": te_in,
            "test_outputs": te_out}


_PATH_FILES = ("train", "test")
_OPEN_FILES = ("train_inputs", "train_outputs", "test_inputs", "test_outputs")


def cmd_simulate(config: dict, out_dir: str) -> int:
    data = generate_dataset(config)
    os.makedirs(out_dir, exist_ok=True)
    meta = {"config_sha256": config_hash(config),
            "seed": config.get("seed"),
            "generator": "philox-boxmuller"}
    names = _PATH_FILES if data["task"] == "path-continuation" else _OPEN_FILES
    reference = data[names[-1]]  # what a forecast is scored against
    files = {}
    for name in names:
        path = os.path.join(out_dir, f"{name}.csv")
        save_csv(data[name], path, extra_meta=meta)
        files[name] = f"{name}.csv"
    _write_manifest(out_dir, "simulate", config, files,
                    {"task": data["task"], "dt": float(reference.dt),
                     "sizes": {name: data[name].n for name in names}})
    print(f"simulate: wrote {', '.join(files.values())} to {out_dir}")
    return 0


def load_dataset_artifacts(config: dict, out_dir: str) -> dict:
    manifest = _check_manifest(out_dir, "simulate", config)
    source = os.path.join(out_dir, "simulate_manifest.json")
    task = doc_field(manifest, "task", source)
    names = _PATH_FILES if task == "path-continuation" else _OPEN_FILES
    data = {"task": task}
    for name in names:
        path = os.path.join(out_dir,
                            doc_field(manifest, f"files.{name}", source))
        if not os.path.exists(path):
            raise DependencyError(f"missing upstream artifact: {path}")
        data[name], _ = load_csv(path)
    return data


# ---------------------------------------------------------------------------
# fit / cv


def _estimator_kind(config: dict) -> str:
    kind = _get(config, "estimator.kind")
    if kind not in REQUIRED_HYPER:
        raise ConfigError(f"unknown estimator kind {kind!r}",
                          field="estimator.kind")
    return kind


def _hyper(config: dict, path: str, required=()) -> dict:
    """The hyperparameters at ``path``, typed by ``hyper_value``; each name
    in ``required`` must be present."""
    names = dict.fromkeys((*required, *_get(config, path, {}, dict)))
    return {name: _get(config, f"{path}.{name}",
                       conv=functools.partial(hyper_value, name))
            for name in names}


def _fit_kw(config: dict, kind: str, task: str) -> dict:
    """Fit keywords: the covariance output transforms for open-loop data,
    and ``headroom``, which only a kind with ``max-norm-scale`` inputs reads
    (the target training norm)."""
    fit_kw = {}
    if task != "path-continuation":
        fit_kw["output_kinds"] = bekk_output_pipeline()
    headroom = _get(config, "estimator.headroom", None, float)
    if headroom is None:
        return fit_kw
    if "max-norm-scale" not in INPUT_TRANSFORMS[kind]:
        raise ConfigError(f"has no effect on {kind!r} estimators, whose "
                          "inputs are not max-norm scaled",
                          field="estimator.headroom")
    fit_kw["headroom"] = headroom
    return fit_kw


def _fit_from_config(config: dict, data: dict):
    kind = _estimator_kind(config)
    hyper = _hyper(config, "estimator.hyper", REQUIRED_HYPER[kind])
    fit_kw = _fit_kw(config, kind, data["task"])
    if data["task"] == "path-continuation":
        return fit_path_estimator(kind, hyper, data["train"].values,
                                  **fit_kw)[0]
    return fit_estimator(kind, hyper, data["train_inputs"].values,
                         data["train_outputs"].values, **fit_kw)


def cmd_fit(config: dict, out_dir: str) -> int:
    data = load_dataset_artifacts(config, out_dir)
    started = time.perf_counter()
    est = _fit_from_config(config, data)
    elapsed = time.perf_counter() - started
    written = time.perf_counter()
    doc = {"config_sha256": config_hash(config),
           "estimator": estimator_to_dict(est)}
    _write_json(os.path.join(out_dir, "model.json"), doc)
    sol = est.model.solution
    _write_manifest(out_dir, "fit", config, {"model": "model.json"},
                    {"fit_seconds": elapsed, "gram_s": sol.gram_s,
                     "solve_s": sol.solve_s,
                     "write_s": time.perf_counter() - written,
                     "solver": {"route": est.route,
                                "features": est.features,
                                "method": sol.method, "jitter": sol.jitter,
                                "smallest_pivot": sol.smallest_pivot,
                                "modes_cut": sol.modes_cut,
                                "storage": sol.storage,
                                "gram_bytes": sol.gram_bytes}})
    print(f"fit: {est.kind} model written to {out_dir}/model.json "
          f"({elapsed:.2f}s)")
    return 0


def _grid_from_config(config: dict) -> Grid:
    def values(name, conv):
        return _get(config, f"estimator.grid.{name}", [],
                    lambda value: [conv(v) for v in value])

    _get(config, "estimator.grid", conv=dict)  # required; its lists are not
    return Grid(
        taus=values("taus", int), ps=values("ps", int),
        lams=values("lams", float), thetas=values("thetas", float),
        lam_regs=values("lam_regs", float),
        M=_get(config, "estimator.grid.M", 1.0, float),
    )


def cmd_cv(config: dict, out_dir: str) -> int:
    data = load_dataset_artifacts(config, out_dir)
    kind = _estimator_kind(config)
    grid = _grid_from_config(config)
    if data["task"] == "path-continuation":
        n_train = data["train"].n
    else:
        n_train = data["train_inputs"].n
    mode = _get(config, "cv.mode")
    try:
        if mode == "overlapping":
            plan = overlapping_folds(n_train,
                                     _get(config, "cv.fold_len", conv=int),
                                     _get(config, "cv.val_len", conv=int),
                                     _get(config, "cv.stride", conv=int))
        elif mode == "expanding":
            plan = expanding_folds(n_train, _get(config, "cv.k", conv=int))
        else:
            raise ConfigError(f"unknown cv mode {mode!r}", field="cv.mode")
    except InvalidInputError as exc:
        raise ConfigError(str(exc), field="cv")
    fixed = _hyper(config, "cv.fixed_hyper")
    fit_kw = _fit_kw(config, kind, data["task"])
    if data["task"] == "path-continuation":
        result = grid_search(kind, grid, plan, "path-continuation",
                             series=data["train"].values,
                             fit_kw=fit_kw, fixed_hyper=fixed)
    else:
        result = grid_search(kind, grid, plan, "open-loop",
                             inputs=data["train_inputs"].values,
                             outputs=data["train_outputs"].values,
                             fit_kw=fit_kw, fixed_hyper=fixed)
    lb_path = os.path.join(out_dir, "leaderboard.csv")
    result.leaderboard_csv(lb_path)
    best_doc = {"config_sha256": config_hash(config), "best": result.best,
                "pruned": result.pruned,
                "n_candidates": len(result.table),
                "candidates": [row.describe() for row in result.table]}
    _write_json(os.path.join(out_dir, "cv_best.json"), best_doc)
    _write_manifest(out_dir, "cv", config,
                    {"leaderboard": "leaderboard.csv",
                     "best": "cv_best.json"})
    print(f"cv: best {result.best} of {len(result.table)} candidates "
          f"({len(result.pruned)} pruned)")
    return 0


# ---------------------------------------------------------------------------
# forecast / eval


def cmd_forecast(config: dict, out_dir: str) -> int:
    data = load_dataset_artifacts(config, out_dir)
    _check_manifest(out_dir, "fit", config)
    model_path = os.path.join(out_dir, "model.json")
    model_doc = _read_json(model_path, "model")
    if doc_field(model_doc, "config_sha256", model_path) != config_hash(config):
        raise DependencyError("model.json was fitted under a different config")
    est = estimator_from_dict(doc_field(model_doc, "estimator", model_path),
                              model_path, "estimator")
    mode = _get(config, "task.mode")
    horizon_cfg = _get(config, "task.horizon", None, int)
    if mode == "path-continuation":
        if data["task"] != "path-continuation":
            raise ConfigError("dataset does not support path continuation",
                              field="task.mode")
        test = data["test"]
        horizon = min(horizon_cfg or test.n, test.n)
        seed_hist = data["train"].values[-est.tau:]
        run = path_continue(est, seed_hist, horizon,
                            reference=test.values[:horizon])
    elif mode == "open-loop":
        if data["task"] == "path-continuation":
            # one-step-ahead predictions along the test span
            test = data["test"]
            horizon = min(horizon_cfg or test.n, test.n)
            stacked = np.vstack([data["train"].values[-1:],
                                 test.values[:horizon - 1]])
            run = open_loop(est, stacked, reference=test.values[:horizon])
        else:
            inputs = data["test_inputs"]
            horizon = horizon_cfg or inputs.n
            run = open_loop(est, inputs.values[:horizon],
                            reference=data["test_outputs"].values[:horizon])
    else:
        raise ConfigError(f"unknown task mode {mode!r}", field="task.mode")
    path = os.path.join(out_dir, "forecast.csv")
    run.save_csv(path, extra_meta={"config_sha256": config_hash(config),
                                   "estimator": est.kind})
    _write_manifest(out_dir, "forecast", config, {"forecast": "forecast.csv"},
                    {"mode": mode, "horizon": run.horizon,
                     "truncated": run.truncated, "projected": run.projected})
    status = f"truncated at step {run.error_step}" if run.truncated else "ok"
    print(f"forecast: {mode} horizon {run.horizon} -> forecast.csv ({status})")
    return 0


def evaluate_run(reference: np.ndarray, predicted: np.ndarray, config: dict,
                 dt: float, mode: str) -> MetricReport:
    """Score one forecast against its reference per the configured metrics."""
    report = MetricReport(config={"mode": mode, "dt": dt})
    flags = {}

    t_valid_steps = None
    lyap = _get(config, "task.lyapunov_exponent", None, float)
    if mode == "path-continuation" and lyap:
        vt = valid_time(reference, predicted, lyap, dt,
                        _get(config, "task.valid_threshold", 0.2, float))
        report.t_valid = vt.value
        report.t_valid_censored = vt.censored
        t_valid_steps = _get(config, "metrics.pointwise_window", None, int)
        if t_valid_steps is None:
            t_valid_steps = int(min(
                math.ceil(vt.value) / lyap / dt, reference.shape[0]))
            t_valid_steps = max(t_valid_steps, 1)
    y = reference if t_valid_steps is None else reference[:t_valid_steps]
    y_hat = predicted if t_valid_steps is None else predicted[:t_valid_steps]

    report.nmse, degenerate = nmse_detailed(y, y_hat)
    if degenerate:
        flags["nmse_degenerate_dims"] = list(degenerate)
    report.mae = mae(y, y_hat)
    report.mdae = mdae(y, y_hat)
    report.mape = mape(y, y_hat, _get(config, "metrics.mape_eps", 1e-8, float))

    nperseg = min(_get(config, "metrics.welch_nperseg", 1024, int),
                  reference.shape[0])
    if nperseg < 1:
        raise ConfigError("must be >= 1", field="metrics.welch_nperseg")
    overlap = _get(config, "metrics.welch_overlap", 0.5, float)
    fs = 1.0 / dt
    try:
        psd_true = welch_psd(reference, nperseg, overlap, fs)
    except InvalidInputError as exc:  # fs = 1/dt > 0: the overlap is at fault
        raise ConfigError(str(exc), field="metrics.welch_overlap")
    psd_est = welch_psd(predicted, nperseg, overlap, fs)
    report.psde, skipped = psde_detailed(
        psd_true, psd_est, _get(config, "metrics.psde_fcut_bins", None, int))
    if skipped:
        flags["psde_skipped_bins"] = skipped

    cap = _get(config, "metrics.w1_cap", 512, int)
    sub = _get(config, "metrics.w1_subsample", 512, int)
    w1_seed = _get(config, "metrics.w1_seed", 7, int)
    try:
        if reference.shape[1] == 1:
            report.w1 = w1_1d(reference[:, 0], predicted[:, 0])
        else:
            k = min(sub, cap, reference.shape[0])
            a = subsample_rows(reference, k, w1_seed)
            b = subsample_rows(predicted, k, w1_seed)
            report.w1 = w1_nd(a, b, cap=cap)
            flags["w1_subsampled_to"] = int(a.shape[0])
    except InvalidInputError as exc:
        report.w1 = float("nan")
        flags["w1_degenerate"] = str(exc)
    report.flags = flags
    report.config.update({"t_valid_steps": t_valid_steps,
                          "welch_nperseg": nperseg})
    return report


def cmd_eval(config: dict, out_dir: str) -> int:
    _check_manifest(out_dir, "forecast", config)
    forecast_path = os.path.join(out_dir, "forecast.csv")
    run, meta = load_forecast_csv(forecast_path)
    if doc_field(meta, "config_sha256", forecast_path) != config_hash(config):
        raise DependencyError("forecast.csv was produced under a different config")
    if run.reference is None:
        raise DependencyError("forecast.csv carries no reference columns")
    source = os.path.join(out_dir, "simulate_manifest.json")
    dt = doc_field(_check_manifest(out_dir, "simulate", config), "dt", source)
    if not (isinstance(dt, float) and 0 < dt < math.inf):
        raise DependencyError(f"{source}: dt {dt!r} is not a positive finite "
                              "number")
    if run.truncated and run.predicted.shape[0] == 0:
        raise KernelcastError("forecast is empty; nothing to evaluate")
    # forecast.csv holds one reference row per predicted row
    report = evaluate_run(run.reference, run.predicted, config, dt, run.mode)
    if run.truncated:
        report.flags["truncated_at"] = run.error_step
    report.config["config_sha256"] = config_hash(config)
    write_csv(os.path.join(out_dir, "metrics.csv"), report.CSV_FIELDS,
              [report.csv_cells()], {"config_sha256": config_hash(config)})
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(report.to_json() + "\n")
    _write_manifest(out_dir, "eval", config,
                    {"metrics_csv": "metrics.csv",
                     "metrics_json": "metrics.json"})
    print("eval: " + ", ".join(
        f"{name}={getattr(report, name)}" for name in
        ("nmse", "mae", "mdae", "mape", "psde", "w1", "t_valid")))
    return 0


# ---------------------------------------------------------------------------
# bench


def cmd_bench(config: dict, out_dir: str) -> int:
    from .bench import run_bench  # loaded only by the bench subcommand

    os.makedirs(out_dir, exist_ok=True)
    rows = run_bench(config)
    path = os.path.join(out_dir, "bench.csv")
    fields = ["op", "n", "tau", "p", "d", "median_s", "min_s", "repeats",
              "asymptotic"]
    write_csv(path, fields, ([row[f] for f in fields] for row in rows),
              {"config_sha256": config_hash(config)})
    _write_manifest(out_dir, "bench", config, {"bench": "bench.csv"})
    print(f"bench: {len(rows)} timings -> {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelcast",
        description="Simulate, fit, cross-validate, forecast, evaluate, and "
                    "benchmark kernel and NG-RC forecasters.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("fit", cmd_fit),
                     ("cv", cmd_cv), ("forecast", cmd_forecast),
                     ("eval", cmd_eval), ("bench", cmd_bench)):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="path to an experiment JSON file")
        cmd.add_argument("--preset",
                         help="named built-in configuration, one of: "
                              + ", ".join(sorted(PRESETS)))
        cmd.add_argument("--out", required=True, help="experiment directory")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        return args.fn(config, args.out)
    except (ConfigError, DependencyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KernelcastError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
