"""The benchmark's tracer runs a whole pipeline and reads every probe.

``perfbench/spans.py`` wraps its targets only under ``--trace 1``, and its
probes read the arguments and results of the calls they wrap (the Gram's
``shape``, the solution's ``method``), so a change to what those carry
would otherwise show only in a traced benchmark run.  This loads the
tracer as ``tests/test_trace_targets.py`` does, runs every stage of
``bekk-volterra``, whose fit and ``cv`` reach both routes of
``solve_ridge_gram``, and changes nothing under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import kernelcast.cli as cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
STAGES = ("simulate", "fit", "forecast", "eval", "cv")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pipeline_reads_every_probe(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = {stage: cli.main([stage, "--preset", "bekk-volterra",
                                  "--out", str(tmp_path)])
                 for stage in STAGES}
    finally:
        tracer.remove()
    assert codes == dict.fromkeys(STAGES, 0)
    layers = spans.layer_metrics(tracer.spans, tracer.run_id)
    assert layers["linsolve.route_cholesky"] > 0
    assert layers["linsolve.route_eigh"] > 0
