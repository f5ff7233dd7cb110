"""Run every pipeline stage of kernelcast presets and digest the artifacts.

Usage (from the repository root):

    PYTHONPATH=src python tools/artifact_digests.py > digests.json

runs simulate, fit, forecast, eval and cv on each replication preset
through ``kernelcast.cli.main`` in this one process, in a temporary
directory, and prints one JSON document: the exit code of every stage, the
sha256 of every file the stages wrote except the ``*_manifest.json`` files
(which record times), and the environment that the digests hold under: the
BLAS thread settings, the thread count that the OpenBLAS builds of numpy
and of SciPy's LAPACK each ran with, the usable CPUs and the Python, numpy
and SciPy versions.  Digests depend on the thread count, which defaults to
the usable CPUs when ``threads`` is unset, so compare two documents only
when their ``threads``, ``blas_threads``, ``cpus`` and ``versions`` agree.
The stages' own output and one status line per stage go to standard error.
Point ``PYTHONPATH`` at another checkout's ``src`` to digest that code.

    PYTHONPATH=src python tools/artifact_digests.py BEFORE.json AFTER.json

compares two saved documents: it prints each exit code and each digest
that differs, one line each, and exits 1 if any does, 0 if none does and 2
if the documents were taken in different environments.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import sys
import tempfile
from importlib.metadata import version

from kernelcast.cli import main
from kernelcast.linsolve import _lapack
from kernelcast.presets import PRESETS

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

STAGES = ("simulate", "fit", "forecast", "eval", "cv")
REPLICATION_PRESETS = sorted(name for name in PRESETS
                             if "task" in PRESETS[name])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# The fields of a document that its digests hold under.
ENVIRONMENT = ("threads", "blas_threads", "cpus", "versions")


def openblas_threads(module_file: str, symbol: str) -> int | None:
    """The thread count that ``symbol``, a ``scipy-openblas`` build's
    ``openblas_get_num_threads``, reports.  It is looked up on the handle
    of the extension module ``module_file``, which finds it in the
    libraries that module links.  None where either is missing."""
    try:
        get = getattr(ctypes.CDLL(module_file), symbol)
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def digests(out_dir, presets) -> dict:
    """Run :data:`STAGES` on each of ``presets``, each in its own directory
    under ``out_dir``: ``{"threads", "blas_threads", "cpus", "versions",
    "exit_codes", "sha256"}``, the last two keyed ``preset/stage`` and
    ``preset/file``.  ``blas_threads`` holds the count of numpy's build
    (64-bit integers) and of the one under SciPy's LAPACK extension, which
    the solves load."""
    exit_codes, sha256 = {}, {}
    for preset in presets:
        run_dir = os.path.join(out_dir, preset)
        for stage in STAGES:
            with contextlib.redirect_stdout(sys.stderr):
                code = main([stage, "--preset", preset, "--out", run_dir])
            exit_codes[f"{preset}/{stage}"] = code
            print(f"{preset} {stage}: exit {code}", file=sys.stderr)
        for name in sorted(os.listdir(run_dir)):
            if not name.endswith("_manifest.json"):
                with open(os.path.join(run_dir, name), "rb") as fh:
                    sha256[f"{preset}/{name}"] = hashlib.sha256(
                        fh.read()).hexdigest()
    return {"threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "blas_threads": {
                "numpy": openblas_threads(_multiarray_umath.__file__,
                                          "scipy_openblas_get_num_threads64_"),
                "scipy": openblas_threads(_lapack().__file__,
                                          "scipy_openblas_get_num_threads")},
            "cpus": len(os.sched_getaffinity(0)),
            "versions": {"python": platform.python_version(),
                         "numpy": version("numpy"),
                         "scipy": version("scipy")},
            "exit_codes": exit_codes, "sha256": sha256}


def compare(before: dict, after: dict) -> list[str]:
    """One line for each ``preset/stage`` exit code and ``preset/file``
    sha256 that differs between two :func:`digests` documents; a key that
    one of them lacks reads ``None`` there.  Documents whose
    :data:`ENVIRONMENT` fields differ raise ``ValueError``: their digests
    cannot be compared."""
    differ = [name for name in ENVIRONMENT if before[name] != after[name]]
    if differ:
        raise ValueError("taken in different environments: "
                         + ", ".join(differ))
    lines = []
    for field in ("exit_codes", "sha256"):
        a, b = before[field], after[field]
        lines += [f"{field} {key}: {a.get(key)} -> {b.get(key)}"
                  for key in sorted(a.keys() | b.keys())
                  if a.get(key) != b.get(key)]
    return lines


def run(argv: list[str]) -> int:
    """Print the digests document (no arguments), or :func:`compare` the
    two saved documents that ``argv`` names."""
    if not argv:
        with tempfile.TemporaryDirectory() as tmp:
            doc = digests(tmp, REPLICATION_PRESETS)
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    try:
        lines = compare(*docs)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
