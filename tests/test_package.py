"""``kernelcast`` resolves each exported name on first access (PEP 562)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kernelcast as kc

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_is_its_defining_modules_object():
    assert len(kc.__all__) == 66
    for name, module in kc._EXPORTS.items():
        owner = importlib.import_module(f"kernelcast.{module}")
        assert getattr(kc, name) is getattr(owner, name), name


def test_dir_lists_every_export():
    assert set(kc.__all__) <= set(dir(kc))
    assert "__version__" in dir(kc)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kc.no_such_name


def test_from_import_of_a_submodule_imports_it():
    # the module ``__getattr__`` raises AttributeError for ``bench``, so the
    # import system goes on to import the submodule
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\nfrom kernelcast import bench\n"
         "print(json.dumps([bench.__name__, callable(bench.run_bench), "
         "'kernelcast.cv' in sys.modules]))"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["kernelcast.bench", True, False]
