"""The scripts under ``tools/`` run against the package in ``src/``."""

import importlib.util
import os
import platform
from pathlib import Path

import numpy as np
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
    assert all(len(a) == len(b) == 1 and min(a + b) > 0
               for a, b in walls.values())
    lines = tool.report(walls).splitlines()
    assert len(lines) == 1 + len(tool.STAGES)
    assert all(line.startswith(stage) and line.endswith(" of 1")
               for stage, line in zip(tool.STAGES, lines[1:]))
