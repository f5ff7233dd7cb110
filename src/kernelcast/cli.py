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

from . import __version__
from .errors import (
    ConfigError,
    DependencyError,
    InvalidInputError,
    KernelcastError,
    doc_field,
    doc_value,
    int_in,
    numbers,
    one_of,
    positive,
)
from .presets import PRESETS

# This module loads only the standard library, ``errors`` and ``presets``:
# each stage imports the modules it runs, numpy with the first of them, so
# a process that ends in the front end (``--help``, a usage or config
# error) loads no numpy, and one that runs a stage loads what it needs.


def __getattr__(name: str):
    # The benchmark's tracer reads ``cli.evaluate_run``.  This goes when the
    # tracer imports what it wraps (ROADMAP item 1).
    if name == "evaluate_run":
        from .metrics import evaluate_run
        return evaluate_run
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _file_name(value) -> str:
    """Converter: ``value`` if it names a file in the run directory."""
    if not isinstance(value, str) or os.path.basename(value) != value:
        raise InvalidInputError("must be a file name")
    return value


def _finite_times(count: float):
    """Converter: ``value`` as a positive number whose inverse and whose
    product with ``count`` are finite."""
    def conv(value) -> float:
        x = positive(value)
        if not math.isfinite(1.0 / x) or not math.isfinite(count * x):
            raise InvalidInputError(f"must have a finite inverse and a "
                                    f"finite product with {count!r}")
        return x
    return conv


def _estimator_kind(value) -> str:
    """Converter: ``value`` if it is an estimator kind, a key of
    :data:`~kernelcast.estimators.REQUIRED_HYPER`."""
    from .estimators import REQUIRED_HYPER
    return one_of(*REQUIRED_HYPER)(value)


def _task_mode(value, train=None) -> str:
    """Converter: ``value`` if it is a task mode that the training span
    ``train`` (when given) supports, by
    :func:`~kernelcast.forecast.check_task`."""
    from .forecast import check_task
    return check_task(value, train)


# The most float64 values that one numpy array can address: a dataset size
# whose array would hold more is a config mistake, not an allocation to try.
# ``sys.maxsize`` is numpy's largest ``intp`` where ``Py_ssize_t`` is
# ``intptr_t``, as on every platform numpy builds for.
_MAX_SIZE = sys.maxsize // 8

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
    "schema": (one_of(SCHEMA), ...),
    "seed": (int_in(0), 0),
    "dataset.kind": (one_of(*FIELDS_BY["dataset.kind"]), ...),
    "dataset.n_train": (int_in(1), ...),
    "estimator.kind": (_estimator_kind, ...),
    "estimator.hyper": (_section, {}),
    "estimator.grid": (_section, {}),
    "task.mode": (_task_mode, ...),
    "task.horizon": (int_in(1), math.inf),
    "task.lyapunov_exponent": (positive, None),
    "cv.mode": (one_of(*FIELDS_BY["cv.mode"]), ...),
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
    """The config that ``args.preset`` names, else the one in the JSON file
    at ``args.config``, checked for its schema and for keys no stage reads,
    with ``args.seed`` (when given) as its seed."""
    if getattr(args, "preset", None) is not None:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(sorted(PRESETS)),
                field="preset",
            )
        config = json.loads(json.dumps(PRESETS[args.preset]))
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", field="config")
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"config is not valid JSON: {exc}", field="config")
        if not isinstance(config, dict):
            raise ConfigError("top level must be a JSON object", field="config")
    _get(config, "schema")
    _check_keys(config, _fields(config))
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    return config


def _check_out(out_dir: str) -> None:
    """Reject an ``--out`` that names a file, or lies below one, before a
    stage reads or writes anything."""
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"{path} is not a directory", field="out")


def _make_out(out_dir: str) -> None:
    """Create the experiment directory ``out_dir`` if it is missing."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the directory: {exc}", field="out")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("top level is not an object")
    return doc


def _upstream(out_dir: str, name: str, config: dict, read=_load_json):
    """``read(path)`` of the file ``name`` that an earlier stage wrote to
    ``out_dir``: a JSON object, or ``(value, comments)`` of a CSV.  A file
    that is missing, unreadable, malformed or written under another config
    (its ``config_sha256``) is a :class:`DependencyError` naming it."""
    path = os.path.join(out_dir, name)
    try:
        result = read(path)
    except FileNotFoundError:
        raise DependencyError(f"missing upstream artifact: {path}")
    except DependencyError:  # a missing key, named with the file
        raise
    except (OSError, ValueError) as exc:  # not UTF-8, not JSON, ParseError
        raise DependencyError(f"corrupt upstream artifact {path}: {exc}")
    found = doc_field(result if isinstance(result, dict) else result[1],
                      "config_sha256", path)
    if found != config_hash(config):
        raise DependencyError(f"{path} was produced under another config "
                              f"({found} != {config_hash(config)})")
    return result


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


# ---------------------------------------------------------------------------
# dataset handling


def _dataset_csv(config: dict, path: str) -> TimeSeries:
    """The series in the CSV file named at ``path``; a file that cannot be
    read or parsed is a :class:`ConfigError` naming ``path``."""
    from .datasets import load_csv

    try:
        return load_csv(_get(config, path))[0]
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        raise ConfigError(f"cannot load: {exc}", field=path)


def generate_dataset(config: dict) -> tuple[tuple, tuple]:
    """Simulate or load the configured dataset, split into its train and
    test spans: ``(series,)`` each, or ``(inputs, outputs)`` each."""
    import numpy as np

    from .datasets import (BekkParams, TimeSeries, simulate_bekk,
                           simulate_lorenz, simulate_mackey_glass,
                           split_train_test)

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
    from .datasets import save_csv

    spans = generate_dataset(config)
    _make_out(out_dir)
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


def load_span(config: dict, out_dir: str, *spans: str) -> tuple:
    """The arrays of each of ``spans`` (``"train"``, ``"test"``) that
    ``simulate`` wrote: ``(series,)`` or ``(inputs, outputs)`` each."""
    from .datasets import load_csv

    manifest = _upstream(out_dir, "simulate_manifest.json", config)
    source = os.path.join(out_dir, "simulate_manifest.json")
    names = _SPAN_FILES[doc_value(manifest, "task", source, "",
                                  one_of(*_SPAN_FILES))]
    return tuple(tuple(
        _upstream(out_dir, doc_value(manifest, f"files.{name}", source, "",
                                     _file_name), config, load_csv)[0].values
        for name in names[span]) for span in spans)


# ---------------------------------------------------------------------------
# fit / cv


def _hyper(config: dict, path: str, readable, required=(),
           conv=None) -> dict:
    """The entries at ``path``, each passed through ``conv(name, value)``,
    by default :func:`~kernelcast.estimators.hyper_value`; each name in
    ``required`` must be present, and a name outside ``readable`` is a
    :class:`ConfigError`."""
    if conv is None:
        from .estimators import hyper_value as conv
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
    from .estimators import (OPTIONAL_HYPER, REQUIRED_HYPER, check_hyper,
                             fit_task)

    _get(config, "task.mode", functools.partial(_task_mode, train=train))
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
    from .estimators import estimator_to_dict
    # Loaded for the benchmark's tracer, which reads every module it wraps
    # from ``sys.modules`` after one untraced pass, and no Lorenz workload
    # runs ``cv``.  It goes when the tracer imports what it wraps (ROADMAP
    # item 1).
    from . import cv  # noqa: F401

    train, = load_span(config, out_dir, "train")
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
    from .cv import GRID_AXES, Grid
    from .estimators import OPTIONAL_HYPER, REQUIRED_HYPER, hyper_value

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
    from .cv import expanding_folds, grid_search, overlapping_folds
    from .estimators import OPTIONAL_HYPER

    train, = load_span(config, out_dir, "train")
    task_mode = _get(config, "task.mode",
                     functools.partial(_task_mode, train=train))
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
    from .estimators import estimator_from_dict
    from .forecast import forecast_task

    train, test = load_span(config, out_dir, "train", "test")
    _upstream(out_dir, "fit_manifest.json", config)
    model_path = os.path.join(out_dir, "model.json")
    model_doc = _upstream(out_dir, "model.json", config)
    est = estimator_from_dict(doc_field(model_doc, "estimator", model_path),
                              model_path, "estimator")
    widths = (test[0].shape[1], test[-1].shape[1])
    if est.widths != widths:
        raise DependencyError(
            f"{model_path}: the model reads {est.widths[0]} input and "
            f"{est.widths[1]} output dimensions, the dataset has "
            f"{widths[0]} and {widths[1]}")
    mode = _get(config, "task.mode",
                functools.partial(_task_mode, train=train))
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
    from .datasets import write_csv
    from .forecast import load_forecast_csv
    from .metrics import evaluate_run

    _upstream(out_dir, "forecast_manifest.json", config)
    run, _meta = _upstream(out_dir, "forecast.csv", config, load_forecast_csv)
    if run.reference is None:
        raise DependencyError("forecast.csv carries no reference columns")
    rows = run.reference.shape[0]  # one reference row per predicted row
    dt = doc_value(_upstream(out_dir, "simulate_manifest.json", config), "dt",
                   os.path.join(out_dir, "simulate_manifest.json"), "",
                   _finite_times(rows))
    if run.truncated and run.predicted.shape[0] == 0:
        raise KernelcastError("forecast is empty; nothing to evaluate")
    # a valid time spans at most every row
    lyap = _get(config, "task.lyapunov_exponent", _finite_times(rows * dt))
    report = evaluate_run(run.reference, run.predicted, dt, run.mode, lyap)
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
    from .bench import run_bench
    from .datasets import write_csv

    _make_out(out_dir)
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
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--config",
                            help="path to an experiment JSON file")
        source.add_argument("--preset",
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
        _check_out(args.out)
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
