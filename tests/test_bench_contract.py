"""The functions the benchmark's tracer wraps must exist under their names.

`bench/tracer.py` reports a missing function as absent rather than failing,
and the traced run then lacks that function's metrics; this test makes the
loss visible in the unit suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_function_is_a_public_callable():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}"
               for layer, names in tracer.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"qtriple.{layer}"), name, None))]
    assert missing == []
