"""The benchmark's tracer runs a whole pipeline and reads every probe.

``perfbench/spans.py`` wraps its targets only under ``--trace 1``, and its
probes read the arguments and results of the calls they wrap (the Gram's
``shape``, the solution's ``method``), so a change to what those carry
would otherwise show only in a traced benchmark run.  Each pipeline runs
as ``perfbench/workload.py`` runs it, in a fresh interpreter: one untraced
pass, then the tracer installed and a traced pass.  ``Tracer.install``
reads every module it wraps from ``sys.modules``, so a module that the
tracer needs but no stage of the pipeline loads fails here; ``lorenz-ngrc``
runs no ``cv``.  ``bekk-volterra``'s fit and ``cv`` reach both routes of
``solve_ridge_gram``.  Nothing under ``perfbench/`` changes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PIPELINE = """
import contextlib, importlib.util, json, sys
import kernelcast.cli as cli

preset, stages, work = sys.argv[1], sys.argv[2].split(","), sys.argv[3]
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[4])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
codes = []
for k, traced in enumerate((False, True)):
    tracer.run_id = k
    if traced:
        tracer.install()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            codes.append([cli.main([stage, "--preset", preset,
                                    "--out", f"{work}/iter{k}"])
                          for stage in stages])
    finally:
        tracer.remove()
print(json.dumps([codes, spans.layer_metrics(tracer.spans, 1)]))
"""


def run_pipeline(preset, stages, work):
    """Exit codes of the untraced and the traced pass, and the layer
    metrics of the traced one."""
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE, preset, ",".join(stages), str(work),
         str(ROOT / "perfbench" / "spans.py")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_pipeline_reads_every_probe(tmp_path):
    stages = ("simulate", "fit", "forecast", "eval", "cv")
    codes, layers = run_pipeline("bekk-volterra", stages, tmp_path)
    assert codes == [[0] * len(stages)] * 2
    assert layers["linsolve.route_cholesky"] > 0
    assert layers["linsolve.route_eigh"] > 0


def test_traced_pipeline_without_cv(tmp_path):
    # as the Lorenz workloads run: the tracer still wraps ``cv``
    stages = ("simulate", "fit", "forecast", "eval")
    codes, layers = run_pipeline("lorenz-ngrc", stages, tmp_path)
    assert codes == [[0] * len(stages)] * 2
    assert layers["ngrc.ngrc_features_calls"] > 0
    assert layers["forecast.steps"] > 0
