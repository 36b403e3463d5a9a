"""Every function the benchmark wraps still exists: bench/spans.py resolves
each SPANS and COUNTERS entry by name, so a rename would break the
benchmark run.  spans.py is imported read-only and nothing is patched."""

import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, path", sorted(
    {(module, path) for _, module, path, _ in spans.SPANS} |
    {(module, path) for _, module, path in spans.COUNTERS}))
def test_bench_name_resolves(module, path):
    _, _, target = spans._resolve(module, path)
    assert callable(target)
