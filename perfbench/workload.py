"""One workload run: a fresh process that drives the kernelcast CLI.

Started by ``run.py`` with ``PYTHONPATH=src`` and the BLAS thread variables
already set.  It imports ``kernelcast.cli`` once (timed as set-up), writes
the generated experiment config, then repeats the pipeline
``kernelcast.cli.main([stage, ...])`` stage by stage until the time budget
is spent, and at least twice.  Each repetition writes into a fresh
directory; its CSV artifacts are digested so repetitions can be compared
byte for byte.

Usage: python3 perfbench/workload.py WORKLOAD SEED SECONDS TRACE WORKDIR
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import kernelcast.cli as cli  # noqa: E402  (the timed set-up)
SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from kernelcast.presets import PRESETS  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import Tracer, layer_metrics  # noqa: E402

# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "lorenz-volterra": ("lorenz-volterra", ("simulate", "fit", "forecast", "eval")),
    "lorenz-ngrc": ("lorenz-ngrc", ("simulate", "fit", "forecast", "eval")),
    "bekk-poly-cv": ("bekk-polynomial",
                     ("simulate", "fit", "forecast", "eval", "cv")),
}

# A seed other than 0 moves each Lorenz initial coordinate by
# LORENZ_SHIFT * u, u ~ U(-1, 1) drawn from Philox(seed); the integrator
# itself ignores the config seed.  BEKK takes the seed as its innovation
# seed through --seed.  Seed 0 runs the shipped preset unchanged.
LORENZ_SHIFT = 0.1

# Acceptance criterion 3 of the test suite: every Lorenz estimator keeps a
# valid prediction time of at least 4 Lyapunov times.
MIN_T_VALID = 4.0


def make_config(preset: str, seed: int) -> tuple[dict, list[str]]:
    config = copy.deepcopy(PRESETS[preset])
    if seed == 0:
        return config, []
    if config["dataset"]["kind"] == "lorenz":
        shift = np.random.Generator(np.random.Philox(seed)).uniform(-1, 1, 3)
        config["dataset"]["initial"] = [
            float(x) + LORENZ_SHIFT * float(u)
            for x, u in zip(config["dataset"]["initial"], shift)]
        return config, []
    return config, ["--seed", str(seed)]


def csv_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            h.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def quality(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "metrics.json")) as fh:
        metrics = json.load(fh)
    return {"t_valid_lyap": metrics["t_valid"], "nmse": metrics["nmse"]}


def gate(stage: str, out_dir: str, lorenz: bool) -> str | None:
    """Correctness check of a stage's artifacts; the reason it failed, or None."""
    if stage == "forecast":
        with open(os.path.join(out_dir, "forecast_manifest.json")) as fh:
            if json.load(fh)["truncated"]:
                return "forecast truncated"
    if stage == "eval":
        q = quality(out_dir)
        if not math.isfinite(q["nmse"]):
            return f"nmse is {q['nmse']}"
        if lorenz and not (q["t_valid_lyap"] or 0.0) >= MIN_T_VALID:
            return f"t_valid {q['t_valid_lyap']} < {MIN_T_VALID}"
    return None


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, work = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4])
    preset, stages = WORKLOADS[workload]
    config, extra = make_config(preset, seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    lorenz = config["dataset"]["kind"] == "lorenz"

    tracer = Tracer()
    iterations = []
    failures = []
    attempted = 0
    first_digest = None
    started = time.perf_counter()
    while True:
        k = len(iterations)
        traced = trace and k % 2 == 1
        out_dir = os.path.join(work, f"iter{k}")
        shutil.rmtree(out_dir, ignore_errors=True)
        tracer.run_id = k
        if traced:
            tracer.install()
        walls = {}
        try:
            for stage in stages:
                attempted += 1
                args = [stage, "--config", config_path, "--out", out_dir, *extra]
                t0 = time.perf_counter()
                try:
                    rc = (tracer.span(f"cli.{stage}", cli.main, args) if traced
                          else cli.main(args))
                except Exception:  # a crash is a failed op, not a lost run
                    rc = traceback.format_exc()
                walls[stage] = time.perf_counter() - t0
                reason = (f"exit {rc}" if rc != 0 else
                          gate(stage, out_dir, lorenz))
                if reason:
                    failures.append(f"iteration {k} {stage}: {reason}")
                    break
        finally:
            tracer.remove()
        record = {"traced": traced, "stage_s": walls,
                  "pipeline_s": sum(walls.values())}
        if failures:
            iterations.append(record)
            break
        digest = csv_digest(out_dir)
        if first_digest is None:
            first_digest = digest
        elif digest != first_digest:
            failures.append(f"iteration {k}: CSV artifacts differ from "
                            "iteration 0 under the same seed")
        record.update(quality(out_dir), csv_sha256=digest)
        if traced:
            record["layers"] = layer_metrics(tracer.spans, k)
            record["layers"]["cli.model_json_bytes"] = os.path.getsize(
                os.path.join(out_dir, "model.json"))
        iterations.append(record)
        if k > 0:
            shutil.rmtree(os.path.join(work, f"iter{k - 1}"))
        elapsed = time.perf_counter() - started
        if failures or (len(iterations) >= 2
                        and elapsed + record["pipeline_s"] > seconds):
            break

    result = {
        "workload": workload, "preset": preset, "seed": seed,
        "seed_rule": {"lorenz_initial": config["dataset"].get("initial"),
                      "lorenz_shift": LORENZ_SHIFT, "cli_args": extra},
        "setup_s": SETUP_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted, "failures": failures,
        "iterations": iterations,
        "env": environment(),
    }
    if trace:
        tracer.write_jsonl(os.path.join(work, "spans.jsonl"))
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "llc": last_level_cache(),
    }


def last_level_cache() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    with contextlib.suppress(OSError):
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                best = max(best, (level, fh.read().strip()))
    return best[1]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
