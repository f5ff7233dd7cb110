"""Fresh-process wall time of each CLI stage, for two source trees.

Usage (from the repository root):

    python tools/stage_walls.py PRESET SRC_A SRC_B [--pairs N]

runs simulate, fit, forecast, eval and cv on PRESET as the ``kernelcast``
command runs them: each stage in a new interpreter, with ``PYTHONPATH``
set to one of the two ``src`` trees, timed from this process, so that a
wall includes the interpreter start and every import the stage makes.
Each of the N pairs (10 by default) runs the whole pipeline once per tree,
each into a new directory, and alternates which tree runs first.  It
prints, for each stage, the median and quartiles of each tree's walls and
the number of pairs in which SRC_B's wall was the lower.  A stage that
exits non-zero stops the tool with its standard error.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

STAGES = ("simulate", "fit", "forecast", "eval", "cv")
# what the installed ``kernelcast`` command runs
_COMMAND = "import sys; from kernelcast.cli import main; sys.exit(main())"


def pipeline_walls(preset: str, src: str, out_dir: str) -> list[float]:
    """The wall of each of :data:`STAGES` on ``preset``, each stage in a new
    interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    walls = []
    for stage in STAGES:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _COMMAND, stage, "--preset", preset,
             "--out", out_dir],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        walls.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise SystemExit(f"{src}: {stage} exited {proc.returncode}\n"
                             f"{proc.stderr}")
    return walls


def stage_walls(preset: str, srcs: tuple[str, str], pairs: int,
                work: str) -> dict:
    """``{stage: (walls of srcs[0], walls of srcs[1])}`` over ``pairs``
    alternating pairs of pipelines, each run in a new directory under
    ``work``."""
    sides = ([], [])
    for k in range(pairs):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            sides[side].append(pipeline_walls(
                preset, srcs[side], os.path.join(work, f"pair{k}-{side}")))
    return {stage: tuple([run[i] for run in runs] for runs in sides)
            for i, stage in enumerate(STAGES)}


def report(walls: dict) -> str:
    """One line per stage: each side's median [quartiles] in seconds, and
    the pairs in which the second side's wall was the lower."""
    lines = [f"{'stage':<9} {'A median [q1, q3]':>24} "
             f"{'B median [q1, q3]':>24}  B lower"]
    for stage, (a, b) in walls.items():
        cells = [f"{q[1]:.3f} [{q[0]:.3f}, {q[2]:.3f}]"
                 for q in (np.percentile(x, (25, 50, 75)) for x in (a, b))]
        wins = sum(y < x for x, y in zip(a, b))
        lines.append(f"{stage:<9} {cells[0]:>24} {cells[1]:>24}  "
                     f"{wins} of {len(a)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("preset")
    parser.add_argument("src_a", help="the first src tree (A)")
    parser.add_argument("src_b", help="the second src tree (B)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    srcs = tuple(os.path.abspath(src) for src in (args.src_a, args.src_b))
    with tempfile.TemporaryDirectory() as work:
        walls = stage_walls(args.preset, srcs, args.pairs, work)
    print(f"{args.preset}, {args.pairs} pairs; A = {srcs[0]}, B = {srcs[1]}")
    print(report(walls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
