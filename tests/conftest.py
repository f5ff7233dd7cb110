import json
import time
import tracemalloc
import warnings

import pytest

from kernelcast.cli import main
from kernelcast.linsolve import GramRows

REPLICATION_PRESETS = {
    "lorenz": ("lorenz-ngrc", "lorenz-polynomial", "lorenz-volterra"),
    "mackey-glass": ("mackey-glass-ngrc", "mackey-glass-polynomial",
                     "mackey-glass-volterra"),
    "bekk": ("bekk-ngrc", "bekk-polynomial", "bekk-volterra"),
}


def _peak_traced_bytes(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs, over what
    was already allocated.  numpy reports its array buffers to tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture()
def peak_bytes():
    return _peak_traced_bytes


def lower_rows(K) -> GramRows:
    """A full symmetric ``K`` as the rows of its lower triangle, the one
    form of a Gram that ``solve_ridge_gram`` takes."""
    n = K.shape[0]
    return GramRows(n, lambda: (K[i, :i + 1] for i in range(n)))


@pytest.fixture(scope="session")
def gram_rows():
    return lower_rows


def run_preset_pipeline(preset: str, out_dir) -> dict:
    """Drive simulate/fit/forecast/eval for one preset; return artifacts."""
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cmd in ("simulate", "fit", "forecast", "eval"):
            code = main([cmd, "--preset", preset, "--out", str(out_dir)])
            assert code == 0, f"{preset}: {cmd} exited {code}"
    elapsed = time.perf_counter() - started
    metrics = json.loads((out_dir / "metrics.json").read_text())
    return {"dir": out_dir, "metrics": metrics, "seconds": elapsed}


def _run_family(tmp_path_factory, family: str) -> dict:
    """Each preset pipeline executed twice (run a/b) for determinism checks."""
    root = tmp_path_factory.mktemp(f"acc-{family}")
    out = {}
    for preset in REPLICATION_PRESETS[family]:
        out[preset] = {
            "a": run_preset_pipeline(preset, root / preset / "a"),
            "b": run_preset_pipeline(preset, root / preset / "b"),
        }
    return out


@pytest.fixture(scope="session")
def lorenz_pipelines(tmp_path_factory):
    return _run_family(tmp_path_factory, "lorenz")


@pytest.fixture(scope="session")
def mackey_glass_pipelines(tmp_path_factory):
    return _run_family(tmp_path_factory, "mackey-glass")


@pytest.fixture(scope="session")
def bekk_pipelines(tmp_path_factory):
    return _run_family(tmp_path_factory, "bekk")
