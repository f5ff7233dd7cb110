"""No value at any leaf of a shipped config or of a fitted ``model.json``
makes a reader raise anything but a package error.

Each leaf, and the first element of each array, is set in turn to each of
:data:`VALUES`.  A config goes through ``load_config`` and the readers that
its stages run on it before they read data (``_get`` of every declared
field, ``_hyper`` and ``check_hyper`` as ``fit`` reads the hyperparameters,
``_grid_from_config`` and ``cv.fixed_hyper`` as ``cv`` reads them).  A
``model.json`` goes through ``estimator_from_dict`` as ``forecast`` loads
it.  Every outcome must be a value or a
:class:`~kernelcast.errors.KernelcastError`; no leaf is skipped.
"""

import argparse
import copy
import json
import math

import pytest

from kernelcast import cli
from kernelcast.errors import KernelcastError, doc_field
from kernelcast.estimators import (
    OPTIONAL_HYPER,
    REQUIRED_HYPER,
    check_hyper,
    estimator_from_dict,
)
from kernelcast.presets import PRESETS

VALUES = (None, "abc", True, -1, 0, 1.5, 1e308, math.nan, [], {}, [1.0],
          "2")

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


def read_model(doc: dict) -> None:
    """``doc`` read as ``forecast`` reads ``model.json``."""
    doc_field(doc, "config_sha256", "model.json")
    estimator_from_dict(doc_field(doc, "estimator", "model.json"),
                        "model.json", "estimator")


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
    read_model(doc)  # the document as written loads
    leaves, crashes = sweep(doc, read_model)
    assert leaves >= 10
    assert crashes == []
    assert doc == json.loads(text)
