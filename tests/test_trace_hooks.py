"""The benchmark tracer must find every call site it wraps.

`perfbench/tracing.py` lists a call site it cannot find as absent and
carries on, so a refactor that moves one would silently drop its
per-layer metrics. This test fails instead.
"""

import importlib.util
from pathlib import Path

import hmrag

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_tracer_finds_every_call_site():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install(hmrag)
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
