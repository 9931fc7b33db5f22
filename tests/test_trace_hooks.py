"""The benchmark tracer must find every call site it wraps, and the spans
its decision metrics read must keep their shape.

`perfbench/tracing.py` lists a call site it cannot find as absent and
carries on, so a refactor that moves one would silently drop its
per-layer metrics. `decision.refine_ms` sums the chat spans whose parent
is `decision.decide`, and `decision.expert_route_share` reads the route
captured on that span, so both read 0 if the refine call leaves `decide`.
These tests fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

import hmrag
from hmrag.pipeline import format_eval_question

from world import build_world

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_call_site(tracing):
    tracer = tracing.Tracer()
    tracer.install(hmrag)
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_refine_call_is_a_direct_child_of_the_decide_span(tracing):
    world = build_world(n=4)
    pipeline = world.make_pipeline()
    record = world.eval_records[0]
    tracer = tracing.Tracer()
    tracer.install(hmrag)
    try:
        root = tracer.begin_question(record.id)
        trace = pipeline.run_query(format_eval_question(record))
        tracer.end_question(root)
    finally:
        tracer.uninstall()
    name, parent, data = tracing._NAME, tracing._PARENT, tracing._DATA
    decides = [s for s in tracer.spans if s[name] == "decision.decide"]
    assert len(decides) == 1
    assert decides[0][data] == trace.entries[0].report.route
    refines = [s for s in tracer.spans
               if s[name] == "gateway.chat" and s[parent] == decides[0][tracing._ID]]
    assert len(refines) == 1
    assert refines[0][tracing._END] > refines[0][tracing._START]


def test_every_query_call_site_the_tracer_wraps_fires_on_one_question(tracing):
    """A call site the query path stops calling keeps its name, so
    `test_benchmark_tracer_finds_every_call_site` passes, but its per-layer
    metric reads 0. Captions are made only at ingest."""
    world = build_world(n=20)
    pipeline = world.make_pipeline()
    tracer = tracing.Tracer()
    tracer.install(hmrag)
    fired = set()
    try:
        sites = [(owner, attr, f"{owner.__name__}.{attr}") for owner, attr, _ in tracer._restore]
        for owner, attr, site in sites:
            traced = owner.__dict__[attr]

            def counted(*args, _site=site, _traced=traced, **kwargs):
                fired.add(_site)
                return _traced(*args, **kwargs)
            setattr(owner, attr, counted)  # uninstall puts the originals back
        pipeline.run_query(format_eval_question(world.eval_records[0]))
    finally:
        tracer.uninstall()
    assert {site for _, _, site in sites} - fired == {"ModelGateway.caption_image"}
