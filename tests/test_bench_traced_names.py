"""The benchmark's per-layer tracer wraps package functions by name.

A name in bench/tracing.py's TRACED that no longer resolves to a function
would make every traced benchmark run fail with AttributeError, so a
change that renames or deletes a traced function must show up here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.TRACED:
        layer, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"oamboost.{layer}"), func, None)):
            missing.append(name)
    assert tracing.TRACED and not missing
