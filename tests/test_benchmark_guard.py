"""The traced benchmark run patches library functions by name: every name it
lists must still resolve, or a refactor would silently break the trace.

perfbench/tracer.py is loaded read-only from the checkout; nothing is
installed or patched here.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    names = [(mod, fn) for mod, fn, _ in tracer.SPANNED] + list(tracer.COUNTED)
    assert names
    missing = [
        f"{mod}.{fn}" for mod, fn in names
        if not callable(getattr(importlib.import_module(mod), fn, None))
    ]
    assert not missing, f"traced names no longer in the library: {missing}"
