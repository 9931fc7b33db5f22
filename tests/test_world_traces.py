"""The normalized traces of the scripted worlds, pinned by one hash.

A change that alters what any query sends, receives or records moves the
hash. A change that alters traces on purpose updates WORLD_TRACES_SHA256
and states the old and the new hash in CHANGES.md.
"""

import hashlib
import json

from hmrag.pipeline import format_eval_question

from world import build_world

WORLD_TRACES_SHA256 = "4f6e72c071c4f13c399b879bfcec184de80cecebb95a7aea0d327f216249e5cf"

ALL_AGENTS = ("vector", "graph", "web")
PIPELINES = [  # (enabled agents, decision stage on)
    (ALL_AGENTS, True),
    (ALL_AGENTS, False),
    (("graph", "web"), True),
    (("vector", "web"), True),
    (("vector", "graph"), True),
]


def test_world_traces_hash_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for n in (4, 20):
        world = build_world(n=n)
        for enabled, decision_enabled in PIPELINES:
            pipeline = world.make_pipeline(enabled=enabled, decision_enabled=decision_enabled)
            for record in world.eval_records:
                trace = pipeline.run_query(format_eval_question(record))
                digest.update(json.dumps(trace.normalized(), sort_keys=True).encode("utf-8"))
                count += 1
    assert count == 120
    assert digest.hexdigest() == WORLD_TRACES_SHA256
