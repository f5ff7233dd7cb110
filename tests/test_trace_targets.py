"""Every function the benchmark's tracer wraps still exists.

``perfbench/spans.py`` names its targets by module and attribute path and
patches them only when ``--trace 1`` runs, so a renamed or deleted function
would go unnoticed until then.  This reads the target table; it changes
nothing under ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


def test_table_is_not_empty():
    assert len(TARGETS) >= 30


@pytest.mark.parametrize("name, module, attr",
                         [(t[0], t[1], t[2]) for t in TARGETS],
                         ids=[f"{t[1]}.{t[2]}" for t in TARGETS])
def test_target_resolves(name, module, attr):
    owner = importlib.import_module(f"kernelcast.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), name
    else:
        assert callable(getattr(owner, attr)), name
