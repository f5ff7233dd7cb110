"""The scripts under ``tools/`` run against the package in ``src/``."""

import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_digests_of_one_preset(tmp_path, capsys):
    tool = load_tool("artifact_digests")
    doc = tool.digests(tmp_path, ["bekk-ngrc"])
    assert doc["exit_codes"] == {f"bekk-ngrc/{stage}": 0
                                 for stage in tool.STAGES}
    assert len(doc["sha256"]) == 10
    assert not any(name.endswith("_manifest.json") for name in doc["sha256"])
    assert all(len(digest) == 64 for digest in doc["sha256"].values())
    assert set(doc["threads"]) == set(tool.THREAD_VARS)
    assert set(doc["blas_threads"]) == {"numpy", "scipy"}
    assert all(count is None or type(count) is int and count >= 1
               for count in doc["blas_threads"].values())
    assert doc["cpus"] == len(os.sched_getaffinity(0)) >= 1
    assert doc["versions"] == {"python": platform.python_version(),
                               "numpy": np.__version__,
                               "scipy": scipy.__version__}
    assert capsys.readouterr().out == ""  # stage output goes to stderr
    assert len(tool.REPLICATION_PRESETS) == 9


def digests_doc(**sha256):
    return {"threads": {"OMP_NUM_THREADS": None}, "blas_threads":
            {"numpy": 2, "scipy": 2}, "cpus": 2,
            "versions": {"python": "3.11", "numpy": "2", "scipy": "1"},
            "exit_codes": {"p/fit": 0, "p/cv": 3},
            "sha256": {"p/model.json": "a" * 64, **sha256}}


def saved(tmp_path, *docs):
    paths = [tmp_path / f"{i}.json" for i in range(len(docs))]
    for path, doc in zip(paths, docs):
        path.write_text(json.dumps(doc))
    return [str(path) for path in paths]


def test_compare_lists_what_differs(tmp_path, capsys):
    tool = load_tool("artifact_digests")
    before = digests_doc(**{"p/forecast.csv": "b" * 64})
    assert tool.compare(before, json.loads(json.dumps(before))) == []
    after = digests_doc(**{"p/forecast.csv": "c" * 64})
    after["exit_codes"]["p/cv"] = 0
    assert tool.compare(before, after) == [
        "exit_codes p/cv: 3 -> 0",
        f"sha256 p/forecast.csv: {'b' * 64} -> {'c' * 64}"]
    del after["sha256"]["p/forecast.csv"]
    assert tool.compare(before, after)[1].endswith(" -> None")
    paths = saved(tmp_path, before, after)
    assert tool.run(paths) == 1
    assert capsys.readouterr().out.splitlines() == tool.compare(before, after)
    assert tool.run([paths[0], paths[0]]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("field, value", [
    ("threads", {"OMP_NUM_THREADS": "1"}),
    ("blas_threads", {"numpy": 1, "scipy": 2}),
    ("cpus", 4),
    ("versions", {"python": "3.11", "numpy": "2", "scipy": "2"}),
])
def test_compare_refuses_other_environments(tmp_path, capsys, field, value):
    tool = load_tool("artifact_digests")
    other = dict(digests_doc(), **{field: value})
    with pytest.raises(ValueError, match=f"environments: {field}$"):
        tool.compare(digests_doc(), other)
    assert tool.run(saved(tmp_path, digests_doc(), other)) == 2
    assert capsys.readouterr().err.startswith("refused: ")


def test_openblas_threads_is_null_without_library_or_symbol(tmp_path):
    tool = load_tool("artifact_digests")
    assert tool.openblas_threads(str(tmp_path / "missing.so"),
                                 "scipy_openblas_get_num_threads") is None
    assert tool.openblas_threads(tool._multiarray_umath.__file__,
                                 "no_such_symbol") is None


def test_stage_walls_of_one_pair(tmp_path):
    tool = load_tool("stage_walls")
    src = str(TOOLS.parent / "src")
    walls = tool.stage_walls("bekk-ngrc", (src, src), 1, str(tmp_path))
    assert list(walls) == list(tool.STAGES)
    assert all(len(a) == len(b) == 1 for a, b in walls.values())
    # each run is a stage's (wall, peak RSS); numpy alone takes over 10 MB
    assert all(wall > 0 and rss > 10 for a, b in walls.values()
               for wall, rss in a + b)
    lines = tool.report(walls).splitlines()
    assert len(lines) == 1 + len(tool.STAGES)
    assert all(line.startswith(stage) and line.endswith(" of 1")
               for stage, line in zip(tool.STAGES, lines[1:]))
