"""The benchmark's tracer rebinds sparsefl names; each one must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves_on_sparsefl():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"sparsefl.{module}.{attr}"
        for module, attr, _ in spans.BOUNDARIES + spans.LAYERS
        if not hasattr(importlib.import_module(f"sparsefl.{module}"), attr)
    ]
    assert not missing, f"perfbench/spans.py wraps names that are gone: {missing}"
