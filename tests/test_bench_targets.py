"""The benchmark's tracer (``perfbench/spans.py``) patches ymqm functions by
name.  A rename or deletion in ymqm would break every traced benchmark run
without failing any other test, so each target is resolved here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in spans.SPANS] + list(spans.COUNTED),
    ids=lambda x: x,
)
def test_traced_target_resolves(module, attr):
    importlib.import_module(module)
    _, fn = spans._resolve(module, attr)
    assert callable(fn)
