"""kernelcast end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json in a fresh Python process
(``perfbench/workload.py``) that imports ``kernelcast.cli`` from ``src/``
and calls its ``main()`` for each pipeline stage, over and over for about
``--seconds``.  With ``--trace 0`` it reports every end-to-end metric; with
``--trace 1`` it alternates untraced and traced repetitions and reports
every per-layer metric, including the tracing overhead.  The last line of
standard output is the JSON result; the lines before it are a readable
table.  Artifacts, spans and the full result go to ``.perfbench/``.

Set-up time is the in-process ``import kernelcast.cli`` time, taken from
the workload process and from extra import-only processes; the median is
reported.  Exit status: 0 when every stage of every repetition passed the
correctness gate, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4     # import-only processes, next to the workload process
TIME_LIMIT_S = 170   # the whole run, set-up probes included
STAGES = ("simulate", "fit", "forecast", "eval", "cv")

_PROBE = ("import time; t = time.perf_counter(); import kernelcast.cli; "
          "print(time.perf_counter() - t)")


def child_env() -> dict:
    """Environment with src/ importable and BLAS capped at the usable CPUs.

    The thread variables must be set before numpy loads, which is why they
    go into the child's environment rather than through ``--threads``.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    return env


def stage_samples(iterations: list[dict]) -> dict:
    """Wall-time samples per stage, plus the per-iteration pipeline sums."""
    samples = {f"{stage}_s": [it["stage_s"][stage] for it in iterations
                              if stage in it["stage_s"]] for stage in STAGES}
    samples = {name: vals for name, vals in samples.items() if vals}
    samples["pipeline_s"] = [it["pipeline_s"] for it in iterations]
    return samples


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    samples = stage_samples(result["iterations"])
    samples["setup_s"] = setup
    lines = [f"{name:<12} median {statistics.median(vals):8.4f} s  "
             f"max {max(vals):8.4f} s  n {len(vals)}"
             for name, vals in samples.items()]
    lines.append(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    last = result["iterations"][-1]
    lines.append(f"quality      t_valid_lyap {last['t_valid_lyap']}  "
                 f"nmse {last['nmse']}")
    return {"setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"]}, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    traced = [it for it in result["iterations"] if it["traced"]]
    plain = [it for it in result["iterations"] if not it["traced"]]
    values = {name: statistics.median(it["layers"][name] for it in traced)
              for name in traced[0]["layers"]}
    untraced = stage_samples(plain)
    for stage in STAGES:
        values[f"cli.{stage}_s"] = statistics.median(
            untraced.get(f"{stage}_s", [0.0]))
    values["cli.pipeline_s"] = statistics.median(untraced["pipeline_s"])
    values["trace.overhead_s"] = (
        statistics.median(it["pipeline_s"] for it in traced)
        - values["cli.pipeline_s"])
    values["metrics.t_valid_lyap"] = traced[0]["t_valid_lyap"] or 0.0
    values["metrics.nmse"] = traced[0]["nmse"]
    lines = [f"traced repetitions {len(traced)}, untraced {len(plain)}"]
    lines += [f"{name:<40} {value:.6g}" for name, value in values.items()]
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the shipped preset unchanged")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    started = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "kernelcast", "cli.py")):
        print("kernelcast sources not found under src/", file=sys.stderr)
        return 2

    env = child_env()
    work = os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - started)

    try:
        setup = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                                   capture_output=True, text=True, check=True,
                                   cwd=ROOT, timeout=remaining())
            setup.append(float(probe.stdout))
        with open(os.path.join(work, "stdout.log"), "w") as log:
            subprocess.run(
                [sys.executable, os.path.join(HERE, "workload.py"),
                 args.workload, str(args.seed), str(args.seconds),
                 str(args.trace), work],
                env=env, stdout=log, stderr=subprocess.STDOUT, check=True,
                cwd=ROOT, timeout=remaining())
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark run failed: {exc}; see {work}", file=sys.stderr)
        return 2
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    failed = len(result["failures"])
    metrics, lines = {}, []
    if not failed:  # a failed run may lack whole stages; it prints its failures
        if args.trace:
            values, lines = per_layer(result)
            wanted = spec["per_layer"]
        else:
            values, lines = end_to_end(result, [result["setup_s"], *setup])
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"preset {result['preset']}  {json.dumps(result['seed_rule'])}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for line in lines + result["failures"]:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
