"""The benchmark's view of the package: every name it uses still resolves.

The benchmark under ``bench/`` drives the package only from outside, by
importing public names and wrapping module attributes.  These tests fail
locally when a change renames or removes one of them.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _bench_spans().WRAPPED])
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"entroprop.{module}"), attr))


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]
