"""No value at any leaf of a shipped config, of a fitted ``model.json`` or
of a ``simulate_manifest.json``, and no value of a comment or cell of a
``forecast.csv``, makes a reader raise anything but a package error.

Each leaf, and the first element of each array, is set in turn to each of
:data:`VALUES`.  A config goes through ``load_config`` and the readers that
its stages run on it before they read data (``_get`` of every declared
field, ``_hyper`` and ``check_hyper`` as ``fit`` reads the hyperparameters,
``_grid_from_config`` and ``cv.fixed_hyper`` as ``cv`` reads them).  A
``model.json`` goes through the stages' reader of upstream files and
``estimator_from_dict`` as ``forecast`` loads it, and a
``simulate_manifest.json`` through ``load_span`` as ``fit``, ``cv`` and
``forecast`` read their spans.  The ``mode``, ``horizon`` and
``error_step`` comments and the first, second and last cell of the first
row of a ``forecast.csv`` are set in turn to each of :data:`CELLS` and the
file is read as ``eval`` reads it.  Every outcome must be a value or a
:class:`~kernelcast.errors.KernelcastError`; no leaf is skipped.
"""

import argparse
import copy
import json
import math

import numpy as np
import pytest

from kernelcast import cli
from kernelcast.errors import KernelcastError, doc_field
from kernelcast.estimators import (
    OPTIONAL_HYPER,
    REQUIRED_HYPER,
    check_hyper,
    estimator_from_dict,
)
from kernelcast.forecast import load_forecast_csv
from kernelcast.presets import PRESETS

VALUES = (None, "abc", True, -1, 0, 1.5, 1e308, math.nan, [], {}, [1.0],
          "2")
# the text of a CSV comment value or cell
CELLS = ("", "abc", "nan", "inf", "-inf", "1e308", "1e999", "0x10", " 1")

MODEL_PRESETS = sorted(name for name in PRESETS if name != "bench-default")


def leaf_paths(node, path=()):
    """The path of every leaf of ``node`` and of the first element of every
    array in it, depth first.  An empty object or array is a leaf."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
        return
    yield path
    if isinstance(node, list) and node:
        yield from leaf_paths(node[0], path + (0,))


def swap(root, path, value):
    """Put ``value`` at ``path`` of ``root``; return the value it replaced."""
    *parents, last = path
    node = root
    for key in parents:
        node = node[key]
    old, node[last] = node[last], value
    return old


def sweep(doc, read) -> tuple[int, list]:
    """Run ``read(doc)`` with each of :data:`VALUES` at each leaf of
    ``doc``, which is restored after each run: the number of leaves, and
    ``(path, value, exception)`` for every run that raised something other
    than a :class:`KernelcastError`."""
    paths = list(leaf_paths(doc))
    crashes = []
    for path in paths:
        for value in VALUES:
            old = swap(doc, path, copy.deepcopy(value))
            try:
                read(doc)
            except KernelcastError:
                pass
            except Exception as exc:  # what the sweep looks for
                crashes.append((".".join(map(str, path)), value, repr(exc)))
            finally:
                swap(doc, path, old)
    return len(paths), crashes


def outcome(fn, *args):
    """``fn(*args)``, or None where it raises a :class:`KernelcastError`."""
    try:
        return fn(*args)
    except KernelcastError:
        return None


def read_config(config: dict, file) -> None:
    """``config`` written to ``file`` and read as the stages read it."""
    file.write_text(json.dumps(config))
    config = cli.load_config(argparse.Namespace(config=str(file)))
    for path in cli._fields(config):
        outcome(cli._get, config, path)
    kind = outcome(cli._get, config, "estimator.kind")
    if kind is None:
        return
    hyper = outcome(cli._hyper, config, "estimator.hyper",
                    (*REQUIRED_HYPER[kind], *OPTIONAL_HYPER[kind]),
                    REQUIRED_HYPER[kind])
    if hyper is not None:
        outcome(check_hyper, kind, hyper)
    outcome(cli._grid_from_config, config, kind)
    outcome(cli._hyper, config, "cv.fixed_hyper",
            [name for name in OPTIONAL_HYPER[kind] if name != "M"])


def read_model(doc: dict, config: dict) -> None:
    """``doc`` read as ``forecast`` reads ``model.json`` under ``config``."""
    doc = cli._upstream("run", "model.json", config, lambda path: doc)
    estimator_from_dict(doc_field(doc, "estimator", "model.json"),
                        "model.json", "estimator")


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """The config and directory of a short ``bekk-ngrc`` run through
    ``forecast``."""
    config = copy.deepcopy(PRESETS["bekk-ngrc"])
    config["dataset"].update(n_points=80, n_train=60)
    out = tmp_path_factory.mktemp("short-run")
    (out / "config.json").write_text(json.dumps(config))
    for stage in ("simulate", "fit", "forecast"):
        assert cli.main([stage, "--config", str(out / "config.json"),
                         "--out", str(out)]) == 0
    return config, out


def test_leaf_paths_cover_array_heads():
    doc = {"a": 1, "b": {"c": [[2, 3]], "d": {}}, "e": []}
    assert list(leaf_paths(doc)) == [("a",), ("b", "c"), ("b", "c", 0),
                                     ("b", "c", 0, 0), ("b", "d"), ("e",)]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_config_leaf_sweep(tmp_path, preset):
    config = copy.deepcopy(PRESETS[preset])
    before = json.dumps(config, sort_keys=True)
    leaves, crashes = sweep(
        config, lambda doc: read_config(doc, tmp_path / "config.json"))
    # bench-default holds the schema and the seed only
    assert leaves >= (2 if preset == "bench-default" else 5)
    assert crashes == []
    assert json.dumps(config, sort_keys=True) == before


@pytest.mark.parametrize("preset", MODEL_PRESETS)
def test_model_document_leaf_sweep(request, preset):
    family = preset.rsplit("-", 1)[0].replace("-", "_")
    runs = request.getfixturevalue(f"{family}_pipelines")
    text = (runs[preset]["a"]["dir"] / "model.json").read_text()
    doc = json.loads(text)

    def read(doc):
        read_model(doc, PRESETS[preset])

    read(doc)  # the document as written loads
    leaves, crashes = sweep(doc, read)
    assert leaves >= 10
    assert crashes == []
    assert doc == json.loads(text)


def test_simulate_manifest_leaf_sweep(short_run):
    config, out = short_run
    path = out / "simulate_manifest.json"
    text = path.read_text()

    def read(doc):
        path.write_text(json.dumps(doc))
        cli.load_span(config, str(out), "train", "test")

    doc = json.loads(text)
    try:
        read(doc)  # the manifest as written loads
        leaves, crashes = sweep(doc, read)
    finally:
        path.write_text(text)
    # stage, schema, version, config_sha256, seed, task, dt, and the file
    # and size of each of the four spans
    assert leaves == 15
    assert crashes == []


def test_forecast_csv_sweep(short_run):
    config, out = short_run
    path = out / "forecast.csv"
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines)
                  if not line.startswith("#"))
    edits = []
    for key in ("mode", "horizon", "error_step"):
        kept = [line for line in lines if not line.startswith(f"# {key}=")]
        edits += [(key, cell, [f"# {key}={cell}\n", *kept]) for cell in CELLS]
    row = lines[header + 1].rstrip("\n").split(",")
    for index in (0, 1, -1):
        for cell in CELLS:
            cells = row.copy()
            cells[index] = cell
            edited = lines.copy()
            edited[header + 1] = ",".join(cells) + "\n"
            edits.append((f"cell {index}", cell, edited))
    crashes, read = [], 0
    try:
        for where, cell, edited in edits:
            path.write_text("".join(edited))
            try:
                run, _ = cli._upstream(str(out), "forecast.csv", config,
                                       load_forecast_csv)
            except KernelcastError:
                continue
            except Exception as exc:  # what the sweep looks for
                crashes.append((where, cell, repr(exc)))
                continue
            read += 1
            # eval scores only finite values
            if not (np.isfinite(run.predicted).all()
                    and np.isfinite(run.reference).all()):
                crashes.append((where, cell, "a value that is not finite"))
    finally:
        path.write_text(text)
    assert len(edits) == 6 * len(CELLS)
    assert crashes == []
    assert read > 0  # " 1" in a cell and the step key read back
