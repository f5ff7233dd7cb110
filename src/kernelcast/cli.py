"""File-based experiment driver.

Subcommands cover the full loop: ``simulate`` writes train/test CSVs,
``fit`` trains one estimator, ``cv`` grid-searches hyperparameters,
``forecast`` rolls the task (closed or open loop), ``eval`` scores it, and
``bench`` times the training/prediction primitives.  Every stage reads its
inputs from the experiment directory written by earlier stages, carries the
configuration hash into all outputs, and rejects stale artifacts whose hash
disagrees.

Exit codes: 0 success, 2 configuration or dependency error, 3 numerical
failure or an allocation that does not fit in memory.
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
from .cv import (
    GRID_AXES,
    Grid,
    expanding_folds,
    grid_search,
    overlapping_folds,
)
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
    int_in,
    numbers,
    positive,
)
from .estimators import (
    OPTIONAL_HYPER,
    REQUIRED_HYPER,
    check_hyper,
    estimator_from_dict,
    estimator_to_dict,
    fit_task,
    hyper_value,
)
from .forecast import check_task, forecast_task, load_forecast_csv
from .metrics import evaluate_run
from .presets import PRESETS

SCHEMA = "kernelcast-experiment/1"


# ---------------------------------------------------------------------------
# configuration plumbing


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _section(value) -> dict:
    """Converter for ``_get``: ``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError("must be an object of named values")
    return value


def _one_of(*names):
    """Converter for ``_get``: ``value`` if it is one of ``names``."""
    def conv(value):
        if value not in names:
            raise ValueError("must be one of " + ", ".join(names))
        return value
    return conv


# The most float64 values that one numpy array can address: a dataset size
# whose array would hold more is a config mistake, not an allocation to try.
_MAX_SIZE = np.iinfo(np.intp).max // 8

# The fields of ``dataset`` and ``cv`` that depend on ``dataset.kind`` and
# ``cv.mode``: one table per value, read as :data:`FIELDS` is.
FIELDS_BY = {
    "dataset.kind": {
        # the trajectory is an (n_points, 3) array
        "lorenz": {"dataset.n_points": (int_in(2, _MAX_SIZE // 3), 15001),
                   "dataset.dt": (positive, 0.005),
                   "dataset.initial": (numbers, (0.0, 1.0, 1.05))},
        "mackey-glass": {"dataset.dt_fine": (positive, 0.02),
                         "dataset.delay": (positive, 17.0),
                         "dataset.n_fine": (int_in(1, _MAX_SIZE), 382500),
                         "dataset.splice": (int_in(1), 50)},
        "bekk": {"dataset.n_points": (int_in(3, _MAX_SIZE), 3761),
                 "dataset.d": (int_in(1, _MAX_SIZE), ...),
                 "dataset.C": (numbers, ...),
                 # a and b: a scalar or one value per dimension
                 "dataset.a": (numbers, 0.3),
                 "dataset.b": (numbers, 0.9)},
        # a series for path continuation, input/output pairs for open loop
        "csv": {"dataset.path": (str, ...),
                "dataset.inputs_path": (str, ...),
                "dataset.outputs_path": (str, ...)}},
    # fold sizes, in the order of the fold function's arguments
    "cv.mode": {
        "overlapping": {"cv.fold_len": (int_in(1), ...),
                        "cv.val_len": (int_in(1), ...),
                        "cv.stride": (int_in(1), ...)},
        "expanding": {"cv.k": (int_in(2), ...)}},
}

# Every config field that a stage reads, by dotted path: its converter and
# its default, ``...`` for a required one.  ``load_config`` rejects every
# other key; ``_hyper`` checks the names inside the three hyperparameter
# sections.
FIELDS = {
    "schema": (_one_of(SCHEMA), ...),
    "seed": (int_in(0), 0),
    "dataset.kind": (_one_of(*FIELDS_BY["dataset.kind"]), ...),
    "dataset.n_train": (int_in(1), ...),
    "estimator.kind": (_one_of(*REQUIRED_HYPER), ...),
    "estimator.hyper": (_section, {}),
    "estimator.grid": (_section, {}),
    "task.mode": (check_task, ...),
    "task.horizon": (int_in(1), math.inf),
    "task.lyapunov_exponent": (positive, None),
    "cv.mode": (_one_of(*FIELDS_BY["cv.mode"]), ...),
    "cv.fixed_hyper": (_section, {}),
}


def _at(config: dict, path: str):
    """The value at the dotted ``path`` of ``config``; None if missing."""
    node = config
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
    return node


def _fields(config: dict) -> dict:
    """:data:`FIELDS` and the fields of each kind ``config`` names."""
    fields = dict(FIELDS)
    for selector, tables in FIELDS_BY.items():
        if _at(config, selector) is not None:
            fields.update(tables[_get(config, selector)])
    return fields


def _get(config: dict, path: str, conv=None):
    """Value at the dotted ``path`` of ``config``, through the field's
    converter, or ``conv`` where the rule depends on the data.  A missing or
    null value gives the field's default; without one, and for a value the
    converter rejects, it is a :class:`ConfigError` naming ``path``."""
    rule, default = FIELDS.get(path) or _fields(config).get(path, (None, ...))
    value = _at(config, path)
    if value is None:
        if default is ...:
            raise ConfigError("missing required field", field=path)
        return default
    try:
        return (conv or rule)(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value {value!r}: {exc}", field=path)


def _check_keys(node: dict, fields: dict, prefix: str = "") -> None:
    """Reject a non-null key of ``node``, the section at ``prefix``, that
    ``fields`` does not declare.  An undeclared block is named by its first
    key that holds a value; a null sets nothing."""
    takes = sorted({path[len(prefix):].split(".")[0] for path in fields
                    if path.startswith(prefix)})
    for key, value in node.items():
        path = prefix + key
        if value is None or path in fields:
            continue
        if key in takes:  # a section
            if not isinstance(value, dict):
                raise ConfigError(f"must be an object, not {value!r}",
                                  field=path)
            _check_keys(value, fields, path + ".")
            continue
        if isinstance(value, dict):  # an undeclared block
            path = next((f"{path}.{name}" for name, item in value.items()
                         if item is not None), "")
        if path:
            raise ConfigError(f"is not read for this config; "
                              f"{prefix[:-1] or 'the top level'} takes "
                              + ", ".join(takes), field=path)


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
    _get(config, "schema")
    _check_keys(config, _fields(config))
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    return config


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_upstream(path: str, read, what: str | None = None):
    """``read(path)`` of an upstream artifact: a file that is missing,
    unreadable or malformed is a :class:`DependencyError` naming it (and
    ``what``, when given)."""
    if not os.path.exists(path):
        raise DependencyError(f"missing upstream artifact: {path}", field=what)
    try:
        return read(path)
    except DependencyError:  # a missing key, named with the file
        raise
    except (OSError, ValueError) as exc:  # not UTF-8, not JSON, ParseError
        raise DependencyError(f"corrupt upstream artifact {path}: {exc}",
                              field=what)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_json(path: str, what: str) -> dict:
    doc = _read_upstream(path, _load_json, what)
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
        return load_csv(_get(config, path))[0]
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        raise ConfigError(f"cannot load: {exc}", field=path)


def generate_dataset(config: dict) -> tuple[tuple, tuple]:
    """Simulate or load the configured dataset, split into its train and
    test spans: ``(series,)`` each, or ``(inputs, outputs)`` each."""
    kind = _get(config, "dataset.kind")
    seed = _get(config, "seed")

    if kind == "lorenz":
        n_points, dt, initial = (_get(config, f"dataset.{name}")
                                 for name in ("n_points", "dt", "initial"))
        try:
            data = (simulate_lorenz(initial, dt, n_points),)
        except InvalidInputError as exc:  # dt and n_points are checked above
            raise ConfigError(str(exc), field="dataset.initial")
    elif kind == "mackey-glass":
        settings = {name: _get(config, f"dataset.{name}")
                    for name in ("dt_fine", "delay", "n_fine", "splice")}
        try:
            data = (simulate_mackey_glass(**settings),)
        except InvalidInputError as exc:  # each setting is checked above;
            # what is left is delay not being a multiple of dt_fine
            raise ConfigError(str(exc), field="dataset.delay")
    elif kind == "bekk":
        d, C, a, b = (_get(config, f"dataset.{name}")
                      for name in ("d", "C", "a", "b"))
        if np.shape(C) != (d, d):  # before np.full(d, a) allocates
            raise ConfigError(f"must be the order of dataset.C, whose shape "
                              f"is {np.shape(C)}", field="dataset.d")
        # the covariances are an (n_points, d (d + 1) / 2) array
        n_points = _get(config, "dataset.n_points",
                        int_in(3, _MAX_SIZE // (d * (d + 1) // 2)))
        try:
            params = BekkParams(C, np.full(d, a) if np.ndim(a) == 0 else a,
                                np.full(d, b) if np.ndim(b) == 0 else b,
                                seed=seed)
        except KernelcastError as exc:
            raise ConfigError(str(exc), field="dataset")
        innovations, _returns, covariances = simulate_bekk(params, n_points)
        # Pair input z_t with next-step vech covariance.
        data = (TimeSeries(innovations.values[:-1], 1.0, "bekk-inputs"),
                TimeSeries(covariances.values[1:], 1.0, "bekk-outputs"))
    else:  # csv
        if _get(config, "task.mode") == "path-continuation":
            data = (_dataset_csv(config, "dataset.path"),)
        else:
            data = (_dataset_csv(config, "dataset.inputs_path"),
                    _dataset_csv(config, "dataset.outputs_path"))
            if data[0].n != data[1].n:
                raise ConfigError("input/output CSV lengths differ",
                                  field="dataset")

    n_train = _get(config, "dataset.n_train", int_in(1, data[0].n - 1))
    train, test = zip(*(split_train_test(series, n_train) for series in data))
    return train, test


# The task a dataset's spans serve, and the CSV names of each span: a
# series is continued, input/output pairs are predicted open loop.
_SPAN_FILES = {"path-continuation": {"train": ("train",), "test": ("test",)},
               "open-loop": {"train": ("train_inputs", "train_outputs"),
                             "test": ("test_inputs", "test_outputs")}}


def cmd_simulate(config: dict, out_dir: str) -> int:
    spans = generate_dataset(config)
    os.makedirs(out_dir, exist_ok=True)
    meta = {"config_sha256": config_hash(config),
            "seed": config.get("seed"),
            "generator": "philox-boxmuller"}
    task = "path-continuation" if len(spans[0]) == 1 else "open-loop"
    files, sizes = {}, {}
    for names, span in zip(_SPAN_FILES[task].values(), spans):
        for name, series in zip(names, span):
            save_csv(series, os.path.join(out_dir, f"{name}.csv"),
                     extra_meta=meta)
            files[name], sizes[name] = f"{name}.csv", series.n
    # dt of the test outputs, which a forecast is scored against
    _write_manifest(out_dir, "simulate", config, files,
                    {"task": task, "dt": float(spans[1][-1].dt),
                     "sizes": sizes})
    print(f"simulate: wrote {', '.join(files.values())} to {out_dir}")
    return 0


def load_span(config: dict, out_dir: str, span: str) -> tuple:
    """The arrays of the ``span`` (``"train"`` or ``"test"``) that
    ``simulate`` wrote: ``(series,)`` or ``(inputs, outputs)``."""
    manifest = _check_manifest(out_dir, "simulate", config)
    source = os.path.join(out_dir, "simulate_manifest.json")
    task = doc_field(manifest, "task", source)
    if task not in _SPAN_FILES:
        raise DependencyError(f"{source}: unknown task {task!r}")
    paths = [os.path.join(out_dir, doc_field(manifest, f"files.{name}", source))
             for name in _SPAN_FILES[task][span]]
    return tuple(_read_upstream(path, load_csv)[0].values
                 for path in paths)


# ---------------------------------------------------------------------------
# fit / cv


def _hyper(config: dict, path: str, readable, required=(),
           conv=hyper_value) -> dict:
    """The entries at ``path``, each passed through ``conv(name, value)``;
    each name in ``required`` must be present, and a name outside
    ``readable`` is a :class:`ConfigError`."""
    names = dict.fromkeys((*required, *_get(config, path)))
    for name in names:
        if name not in readable:
            raise ConfigError("not read here for this estimator kind; this "
                              "field takes " + ", ".join(readable),
                              field=f"{path}.{name}")
    return {name: _get(config, f"{path}.{name}",
                       functools.partial(conv, name)) for name in names}


def _fit_from_config(config: dict, train: tuple):
    """The typed ``estimator.hyper`` and the estimator fitted with it."""
    _get(config, "task.mode", lambda mode: check_task(mode, train))
    kind = _get(config, "estimator.kind")
    hyper = _hyper(config, "estimator.hyper",
                   (*REQUIRED_HYPER[kind], *OPTIONAL_HYPER[kind]),
                   REQUIRED_HYPER[kind])
    try:
        check_hyper(kind, hyper)
    except InvalidInputError as exc:
        raise ConfigError(str(exc), field="estimator.hyper")
    return hyper, fit_task(kind, hyper, train)


def cmd_fit(config: dict, out_dir: str) -> int:
    train = load_span(config, out_dir, "train")
    started = time.perf_counter()
    hyper, est = _fit_from_config(config, train)
    elapsed = time.perf_counter() - started
    written = time.perf_counter()
    doc = {"config_sha256": config_hash(config),
           "estimator": estimator_to_dict(est)}
    _write_json(os.path.join(out_dir, "model.json"), doc)
    sol = est.model.solution
    floored = [[list(spec.degenerate_dims) for spec in specs]
               for specs in (est.input_specs, est.output_specs)]
    _write_manifest(out_dir, "fit", config, {"model": "model.json"},
                    {"hyper": hyper, "transforms": {
                        "input": floored[0], "output": None if
                        est.output_specs is est.input_specs else floored[1]},
                     "fit_seconds": elapsed, "gram_s": sol.gram_s,
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


def _grid_from_config(config: dict, kind: str) -> Grid:
    """The grid at ``estimator.grid``: a non-empty list for each name the
    kind requires (its :data:`GRID_AXES` list), and ``M`` if it reads one.
    Every value is checked by ``hyper_value``, and a Volterra grid keeps at
    least one pair that ``check_hyper`` accepts for its ``M``."""
    axes = {GRID_AXES[name]: name for name in REQUIRED_HYPER[kind]}

    def values(key, value):
        if key not in axes:  # M
            return hyper_value(key, value)
        if not isinstance(value, list) or not value:
            raise ValueError("must be a non-empty list")
        return [hyper_value(axes[key], v) for v in value]

    readable = (*axes, "M") if "M" in OPTIONAL_HYPER[kind] else tuple(axes)
    grid = Grid(**_hyper(config, "estimator.grid", readable, tuple(axes),
                         values))
    if not grid.candidates(kind)[0]:
        raise ConfigError(f"every pair is pruned: none meets the Volterra "
                          f"bound theta·M < 1, lam < sqrt(1 - theta²M²) for "
                          f"M = {grid.M}", field="estimator.grid")
    return grid


def cmd_cv(config: dict, out_dir: str) -> int:
    train = load_span(config, out_dir, "train")
    task_mode = _get(config, "task.mode", lambda mode: check_task(mode, train))
    kind = _get(config, "estimator.kind")
    grid = _grid_from_config(config, kind)
    n_train = train[0].shape[0]
    mode = _get(config, "cv.mode")
    make = overlapping_folds if mode == "overlapping" else expanding_folds
    sizes = [_get(config, path) for path in FIELDS_BY["cv.mode"][mode]]
    try:
        plan = make(n_train, *sizes)
    except InvalidInputError as exc:  # the fold sizes do not fit n_train
        raise ConfigError(str(exc), field="cv")
    # the grid sets every required name, and M
    fixed = _hyper(config, "cv.fixed_hyper",
                   [name for name in OPTIONAL_HYPER[kind] if name != "M"])
    result = grid_search(kind, grid, plan, task_mode, train,
                         fixed_hyper=fixed)
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
    train = load_span(config, out_dir, "train")
    test = load_span(config, out_dir, "test")
    _check_manifest(out_dir, "fit", config)
    model_path = os.path.join(out_dir, "model.json")
    model_doc = _read_json(model_path, "model")
    if doc_field(model_doc, "config_sha256", model_path) != config_hash(config):
        raise DependencyError("model.json was fitted under a different config")
    est = estimator_from_dict(doc_field(model_doc, "estimator", model_path),
                              model_path, "estimator")
    mode = _get(config, "task.mode", lambda mode: check_task(mode, train))
    run = forecast_task(est, mode, train, test,
                        _get(config, "task.horizon"))
    path = os.path.join(out_dir, "forecast.csv")
    run.save_csv(path, extra_meta={"config_sha256": config_hash(config),
                                   "estimator": est.kind})
    _write_manifest(out_dir, "forecast", config, {"forecast": "forecast.csv"},
                    {"mode": mode, "horizon": run.horizon,
                     "truncated": run.truncated, "projected": run.projected})
    status = f"truncated at step {run.error_step}" if run.truncated else "ok"
    print(f"forecast: {mode} horizon {run.horizon} -> forecast.csv ({status})")
    return 0


def cmd_eval(config: dict, out_dir: str) -> int:
    _check_manifest(out_dir, "forecast", config)
    forecast_path = os.path.join(out_dir, "forecast.csv")
    run, meta = _read_upstream(forecast_path, load_forecast_csv)
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
    report = evaluate_run(run.reference, run.predicted, dt, run.mode,
                          _get(config, "task.lyapunov_exponent"))
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
    rows = run_bench(_get(config, "seed"))
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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
