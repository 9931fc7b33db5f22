"""Spans around hmrag's public call sites, recorded from outside the package.

``install`` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent, question id, captured result),
and ``uninstall`` puts the originals back. A call site that no longer
exists is listed as absent instead of failing the run. Only one question
is in flight at a time, so a span opened on a fan-out pool thread takes
the open fan-out span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

_ID, _NAME, _START, _END, _PARENT, _QUESTION, _DATA = range(7)


class _Span:
    __slots__ = ("_tracer", "_name", "record")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self.record = self._tracer.start(self._name)
        return self.record

    def __exit__(self, *exc):
        self._tracer.finish(self.record)
        return False


class Tracer:
    """In-memory span store; spans are lists [id, name, start, end, parent, question, data]."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.question: str | None = None
        self._root: int | None = None
        self._fanout: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][_ID]
        else:
            parent = self._fanout if self._fanout is not None else self._root
        record = [next(self._ids), name, time.perf_counter(), 0.0, parent, self.question, None]
        self.spans.append(record)
        stack.append(record)
        return record

    def finish(self, record: list) -> None:
        record[_END] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def begin_question(self, question_id: str) -> list:
        self.question = question_id
        record = self.start("question")
        self._root = record[_ID]
        return record

    def end_question(self, record: list) -> None:
        self.finish(record)
        self._root = None
        self.question = None

    # installing wrappers

    def wrap(self, owner, attr: str, name: str, capture=None, fanout: bool = False) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = tracer.start(name)
            if fanout:
                tracer._fanout = record[_ID]
            try:
                result = original(*args, **kwargs)
                if capture is not None:
                    record[_DATA] = capture(args, result)
                return result
            finally:
                if fanout:
                    tracer._fanout = None
                tracer.finish(record)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self, hmrag) -> None:
        gateway, decompose = hmrag.gateway, hmrag.decompose
        vector, graph, web = hmrag.vector_agent, hmrag.graph_agent, hmrag.web_agent
        decision, pipeline = hmrag.decision, hmrag.pipeline
        self.wrap(gateway.ModelGateway, "complete_chat", "gateway.chat")
        self.wrap(gateway.ModelGateway, "embed_text", "gateway.embed")
        self.wrap(gateway.ModelGateway, "caption_image", "gateway.caption")
        self.wrap(decompose.DecompositionAgent, "decompose", "decompose",
                  capture=lambda args, plan: len(plan.sub_queries))
        self.wrap(vector.VectorAgent, "run", "vector_agent.run")
        self.wrap(vector, "top_k_by_vector", "vector_agent.top_k",
                  capture=lambda args, result: (args[0], len(args[2]),
                                                [s.chunk.chunk_id for s in result.top]))
        self.wrap(vector, "cosine_scores", "kernels.cosine_scores")
        self.wrap(graph.GraphAgent, "run", "graph_agent.run",
                  capture=lambda args, candidate: (args[1], candidate.evidence))
        self.wrap(graph.GraphAgent, "extract_keywords", "graph_agent.keywords")
        self.wrap(graph, "retrieve_subgraph", "graph_agent.retrieve_subgraph")
        self.wrap(graph, "expand_one_hop", "graph_agent.expand_one_hop")
        self.wrap(graph, "cosine_scores", "kernels.cosine_scores")
        self.wrap(web.WebAgent, "run", "web_agent.run")
        self.wrap(web.WebAgent, "search", "web_agent.search")
        self.wrap(decision.DecisionAgent, "decide", "decision.decide",
                  capture=lambda args, result: result[1].route)
        self.wrap(decision.DecisionAgent, "summarize", "decision.summarize")
        self.wrap(decision, "rouge_l", "decision.rouge_l")
        self.wrap(decision, "bleu", "decision.bleu")
        self.wrap(decision, "lcs_length", "kernels.lcs_length")
        self.wrap(pipeline.Pipeline, "_fan_out", "pipeline.fanout", fanout=True)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON array per span after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "question"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:_DATA]) + "\n")


def _duration_ms(span) -> float:
    return (span[_END] - span[_START]) * 1e3


def _self_ms(span, children) -> float:
    """Duration minus the part of it that child spans cover."""
    covered = 0.0
    cursor = span[_START]
    for child in sorted(children, key=lambda c: c[_START]):
        start, end = max(child[_START], cursor), min(child[_END], span[_END])
        if end > start:
            covered += end - start
            cursor = end
    return (span[_END] - span[_START] - covered) * 1e3


def layer_metrics(tracer: Tracer, questions: int, gold_doc, gold_entities) -> tuple[dict, dict]:
    """Per-question layer metrics from the spans of a traced phase.

    ``gold_doc(query)`` gives the doc id whose chunk must be retrieved for
    a sub-query and ``gold_entities(query)`` the entity names a relevant
    triplet touches. Also returns graph embedding calls per question id.
    """
    spans = [s for s in tracer.spans if s[_QUESTION] is not None]
    by_id = {s[_ID]: s for s in spans}
    children: dict[int, list] = {}
    by_name: dict[str, list] = {}
    for span in spans:
        children.setdefault(span[_PARENT], []).append(span)
        by_name.setdefault(span[_NAME], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def under(span, ancestor_name):
        parent = by_id.get(span[_PARENT])
        while parent is not None:
            if parent[_NAME] == ancestor_name:
                return True
            parent = by_id.get(parent[_PARENT])
        return False

    def total_ms(*names):
        return sum(_duration_ms(s) for name in names for s in named(name)) / questions

    def count(name, ancestor=None):
        return sum(1 for s in named(name) if ancestor is None or under(s, ancestor)) / questions

    def share(hits, total):
        return hits / total if total else 0.0

    gateway_spans = named("gateway.chat") + named("gateway.embed") + named("gateway.caption")
    top_k = [s[_DATA] for s in named("vector_agent.top_k") if s[_DATA]]
    recalled = sum(any(cid.startswith(gold_doc(query) + ":") for cid in ids)
                   for query, _, ids in top_k)
    triplets = touching = 0
    for query, evidence in (s[_DATA] for s in named("graph_agent.run") if s[_DATA]):
        gold = gold_entities(query)
        for line in evidence:
            head, arrow, rest = line.partition(" —")
            if not arrow or "→ " not in rest:
                continue
            triplets += 1
            touching += head in gold or rest.split("→ ", 1)[1] in gold
    routes = [s[_DATA] for s in named("decision.decide") if s[_DATA]]
    wait_ms = 0.0
    graph_slowest = 0
    fanouts = named("pipeline.fanout")
    for fanout in fanouts:
        agents = [c for c in children.get(fanout[_ID], ()) if c[_NAME].endswith(".run")]
        slowest = max(agents, key=_duration_ms, default=None)
        wait_ms += _duration_ms(fanout) - (_duration_ms(slowest) if slowest else 0.0)
        graph_slowest += slowest is not None and slowest[_NAME] == "graph_agent.run"
    graph_embeds: dict[str, int] = {}
    for span in named("gateway.embed"):
        if under(span, "graph_agent.run"):
            graph_embeds[span[_QUESTION]] = graph_embeds.get(span[_QUESTION], 0) + 1

    metrics = {
        "gateway.chat.calls": count("gateway.chat"),
        "gateway.chat.ms": total_ms("gateway.chat"),
        "gateway.embed.calls": count("gateway.embed"),
        "gateway.embed.ms": total_ms("gateway.embed"),
        "gateway.backend_ms": sum(total_ms(n) for n in by_name if n.startswith("backend.")),
        "gateway.self_ms": sum(_self_ms(s, children.get(s[_ID], ())) for s in gateway_spans)
        / questions,
        "decompose.ms": total_ms("decompose"),
        "decompose.chat_calls": count("gateway.chat", "decompose"),
        "decompose.sub_queries": sum(s[_DATA] or 0 for s in named("decompose")) / questions,
        "vector_agent.run_ms": total_ms("vector_agent.run"),
        "vector_agent.top_k_ms": total_ms("vector_agent.top_k"),
        "vector_agent.rows_scored": sum(rows for _, rows, _ in top_k) / questions,
        "vector_agent.gold_recall": share(recalled, len(top_k)),
        "graph_agent.run_ms": total_ms("graph_agent.run"),
        "graph_agent.keywords_ms": total_ms("graph_agent.keywords"),
        "graph_agent.retrieve_subgraph_ms": total_ms("graph_agent.retrieve_subgraph"),
        "graph_agent.retrieve_subgraph.self_ms": sum(
            _self_ms(s, children.get(s[_ID], ())) for s in named("graph_agent.retrieve_subgraph")
        ) / questions,
        "graph_agent.expand_one_hop_ms": total_ms("graph_agent.expand_one_hop"),
        "graph_agent.embed_calls": count("gateway.embed", "graph_agent.run"),
        "graph_agent.triplets": triplets / questions,
        "graph_agent.evidence_precision": share(touching, triplets),
        "web_agent.run_ms": total_ms("web_agent.run"),
        "web_agent.search_ms": total_ms("web_agent.search"),
        "decision.decide_ms": total_ms("decision.decide"),
        "decision.summarize_ms": total_ms("decision.summarize"),
        "decision.summarize_calls": count("decision.summarize"),
        "decision.metrics_ms": total_ms("decision.rouge_l", "decision.bleu"),
        "decision.refine_ms": sum(
            _duration_ms(s) for s in named("gateway.chat")
            if by_id.get(s[_PARENT], [None, None])[_NAME] == "decision.decide"
        ) / questions,
        "decision.expert_route_share": share(routes.count("expert"), len(routes)),
        "kernels.cosine_scores.calls": count("kernels.cosine_scores"),
        "kernels.cosine_scores.ms": total_ms("kernels.cosine_scores"),
        "kernels.lcs_length.calls": count("kernels.lcs_length"),
        "kernels.lcs_length.ms": total_ms("kernels.lcs_length"),
        "pipeline.fanout_ms": total_ms("pipeline.fanout"),
        "pipeline.fanout_wait_ms": wait_ms / questions,
        "pipeline.graph_critical_share": share(graph_slowest, len(fanouts)),
    }
    return metrics, graph_embeds
