"""The benchmark's tracer wraps package functions by name; every name must resolve.

`bench/tracing.py` looks each target up with `vars()` on its module or class,
so a target that was renamed or removed from the package breaks `--trace 1`.
This test keeps a cleanup of the package from doing that silently.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span", sorted(tracing.TARGETS))
def test_trace_target_resolves(span):
    module_name, path = tracing.TARGETS[span]
    assert span.startswith(module_name + ".")
    owner = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    *owners, attr = path.split(".")
    for name in owners:
        owner = vars(owner)[name]
    assert callable(vars(owner)[attr])
