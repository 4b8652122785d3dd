"""Every wrap point of the benchmark's layer timer still names live program code.

``platebench/spans.py`` drops a wrap point it cannot resolve with only a
notice, so renaming or deleting a wrapped name would silently remove one of
the benchmark's declared per-layer metrics.  This test turns that into a
failure.  It loads ``spans.py`` from its file and changes nothing there.
"""

import importlib.util
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[1] / "platebench" / "spans.py"
_spec = importlib.util.spec_from_file_location("platebench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module,path", [point[:2] for point in spans.WRAP_POINTS],
                         ids=[f"{point[0]}.{point[1]}" for point in spans.WRAP_POINTS])
def test_wrap_point_resolves(module, path):
    assert spans._resolve(module, path) is not None, f"{module}.{path} is gone"
