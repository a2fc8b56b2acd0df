"""The benchmark tracer's patch points: every name it wraps must exist in the program.

perfbench/tracing.py replaces module attributes of fqexchange by name, so a
refactor that drops or moves one of them would break `run.py --trace 1`.
The tracer module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _, _ in tracing.PATCHES]


@pytest.mark.parametrize("module, attr", _patches())
def test_tracing_patch_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"fqexchange.{module}"), attr, None))
