import concurrent.futures
import json
import logging
import sys
import threading
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmrag.gateway as gateway_mod
from hmrag.decision import format_answers, AnswerCandidate, unavailable_candidate
from hmrag.errors import BackendUnavailableError, PipelineError
from hmrag.gateway import (
    CallLog,
    HashingEmbeddingBackend,
    HTTPChatBackend,
    HTTPEmbeddingBackend,
    ModelBackendConfig,
    ModelGateway,
    ScriptedChatBackend,
)
from hmrag.ingest import Chunk, EmbeddingIndex, KnowledgeGraph, build_index
from hmrag.pipeline import (
    Pipeline,
    PipelineConfig,
    QueryTrace,
    compose_contextual_query,
    extract_choice,
    format_eval_question,
    parse_eval_record,
    run_eval,
)
from hmrag.graph_agent import GraphAgent
from hmrag.templates import TemplateSet
from hmrag.vector_agent import VectorAgent, build_prompt, top_k_by_vector
from hmrag.web_agent import SearchConfig, SerperSearchClient, StubSearchClient, WebAgent

from conftest import (
    JSON_SCALARS, JSON_VALUES, ConstantChatBackend, CountingChatBackend, FakeResponse, user_turns,
)
from world import EMBED_DIM, SUMMARY_BUDGET, build_world

TEMPLATES = TemplateSet()


@pytest.fixture(scope="module")
def small_world():
    return build_world(n=4)


def test_single_intent_all_agents_agree(small_world):
    pipeline = small_world.make_pipeline()
    record = small_world.eval_records[0]
    trace = pipeline.run_query(format_eval_question(record))
    assert trace.plan.multi_intent is False
    assert len(trace.entries) == 1
    entry = trace.entries[0]
    assert [c.source for c in entry.candidates] == ["vector", "graph", "web"]
    assert all(c.available for c in entry.candidates)
    assert entry.report.route == "lightweight"
    assert trace.final_answer == small_world.answer_texts[record.id]


def test_disabling_graph_agent_leaves_two_candidates(small_world):
    pipeline = small_world.make_pipeline(enabled=("vector", "web"))
    record = small_world.eval_records[1]
    trace = pipeline.run_query(format_eval_question(record))
    entry = trace.entries[0]
    assert [c.source for c in entry.candidates] == ["vector", "web"]
    assert set(entry.report.pair_scores) == {"vector|web"}
    assert trace.final_answer == small_world.answer_texts[record.id]


def test_decision_disabled_takes_web_answer_verbatim(small_world):
    pipeline = small_world.make_pipeline(decision_enabled=False)
    record = small_world.eval_records[2]
    trace = pipeline.run_query(format_eval_question(record))
    entry = trace.entries[0]
    web_candidate = next(c for c in entry.candidates if c.source == "web")
    assert entry.report is None
    assert trace.final_answer == web_candidate.text


def test_traces_are_deterministic_across_runs(small_world):
    pipeline = small_world.make_pipeline()
    question = format_eval_question(small_world.eval_records[3])
    first = pipeline.run_query(question).normalized()
    second = pipeline.run_query(question).normalized()
    assert first == second
    # and stable through JSON round-trips
    assert json.loads(json.dumps(first, sort_keys=True)) == json.loads(
        json.dumps(second, sort_keys=True))


def _keys_anywhere(value, key):
    if isinstance(value, dict):
        return key in value or any(_keys_anywhere(v, key) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_keys_anywhere(v, key) for v in value)
    return False


def test_trace_json_shape(small_world):
    trace = small_world.make_pipeline().run_query(format_eval_question(small_world.eval_records[0]))
    data = json.loads(trace.to_json())
    assert set(data) == {"question", "plan", "entries", "final_answer", "warnings", "calls",
                         "timings"}
    assert set(data["plan"]) == {"original", "sub_queries", "multi_intent"}
    entry = data["entries"][0]
    assert set(entry) == {"sub_query", "contextual_query", "candidates", "report", "answer",
                          "warnings", "timings"}
    assert {frozenset(c) for c in entry["candidates"]} == {
        frozenset({"text", "source", "evidence", "summary", "available"})}
    assert set(entry["report"]) == {"pair_scores", "mean_fused", "threshold", "consensus",
                                    "route"}
    assert {frozenset(c) for c in data["calls"]} == {frozenset({"kind", "role", "detail"})}

    normalized = trace.normalized()
    assert not _keys_anywhere(normalized, "timings")
    keys = [(c["kind"], c["role"], c["detail"]) for c in normalized["calls"]]
    assert keys == sorted(keys)
    assert len(keys) == len(data["calls"])


def test_trace_records_every_backend_call(small_world):
    log = CallLog()
    pipeline = small_world.make_pipeline(call_log=log)
    chat_backend = CountingChatBackend(pipeline._gateway._chat_backends["chat"])
    pipeline._gateway._chat_backends = dict.fromkeys(pipeline._gateway._chat_backends, chat_backend)
    trace = pipeline.run_query(format_eval_question(small_world.eval_records[0]))
    kinds = {"chat": 0, "embedding": 0, "caption": 0, "search": 0}
    for record in trace.calls:
        kinds[record.kind] += 1
    assert kinds["chat"] == chat_backend.calls
    assert kinds["search"] == 1
    # one embed for the vector query plus one per entity/relation/keyword scan
    assert kinds["embedding"] > 1
    assert all(r.role for r in trace.calls)


def test_concurrent_queries_keep_their_own_traces():
    world = build_world(n=20)
    pipeline = world.make_pipeline()
    questions = [format_eval_question(r) for r in world.eval_records]
    serial = [pipeline.run_query(q).normalized() for q in questions]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        concurrent_runs = list(pool.map(lambda q: pipeline.run_query(q).normalized(), questions))
    assert concurrent_runs == serial


class DigestChat:
    """Answers every prompt with "single-intent" (so the intent judgment reads
    single) and a digest of the prompt. The three agents' prompts differ, so each
    sub-query has three distinct answers, and so three summary requests."""

    def complete(self, turns, params):
        return f"single-intent {zlib.crc32(turns[-1].content.encode('utf-8')):08x}"


def test_concurrent_queries_keep_their_own_summary_calls():
    world = build_world(n=20)
    pipeline = world.make_pipeline()
    gateway = pipeline._gateway
    gateway._chat_backends = dict.fromkeys(gateway._chat_backends, DigestChat())
    questions = [format_eval_question(r) for r in world.eval_records]
    serial = [pipeline.run_query(q).normalized() for q in questions]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost call record shows
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            concurrent_runs = list(pool.map(lambda q: pipeline.run_query(q).normalized(),
                                            questions))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent_runs == serial
    summary_head = TEMPLATES.text("summarize").split("{", 1)[0]
    for trace in concurrent_runs:
        (entry,) = trace["entries"]
        assert len({c["text"] for c in entry["candidates"] if c["summary"]}) == 3
        assert sum(c["detail"].startswith(summary_head) for c in trace["calls"]) == 3


def _mini_vector_store(texts):
    backend = HashingEmbeddingBackend(dim=16, seed=1)
    gateway = ModelGateway(chat=ScriptedChatBackend(), embedding=backend)
    chunks = [Chunk(f"c{i}", "doc", t, (i, i + 1)) for i, t in enumerate(texts)]
    return build_index(chunks, gateway), backend


def test_multi_intent_chains_context_and_refines_final():
    question = "What mineral is shown and which property identifies it?"
    sub1 = "What mineral is shown?"
    sub2 = "Which property identifies it?"
    index, embed_backend = _mini_vector_store(
        ["granite is a common igneous rock", "hardness identifies many minerals"])
    header = TEMPLATES.text("vector_header")
    embed = embed_backend.embed

    chat = ScriptedChatBackend()
    chat.add(user_turns(TEMPLATES.render("judge_intent", question=question)), "multi-intent")
    chat.add(user_turns(TEMPLATES.render("decompose", question=question)),
             f"1. {sub1}\n2. {sub2}")

    result1 = top_k_by_vector(sub1, embed(sub1), index, 5)
    prompt1 = build_prompt(sub1, [s.chunk.text for s in result1.top], header)
    chat.add(user_turns(prompt1), "Granite.")
    refine1 = TEMPLATES.render(
        "refine_lightweight", question=sub1,
        answers=format_answers([AnswerCandidate(text="Granite.", source="vector")]))
    chat.add(user_turns(refine1), "First sub-answer: granite.")

    ctx2 = compose_contextual_query(sub2, [(sub1, "First sub-answer: granite.")])
    result2 = top_k_by_vector(ctx2, embed(ctx2), index, 5)
    prompt2 = build_prompt(ctx2, [s.chunk.text for s in result2.top], header)
    chat.add(user_turns(prompt2), "Hardness.")
    refine2 = TEMPLATES.render(
        "refine_lightweight", question=ctx2,
        answers=format_answers([AnswerCandidate(text="Hardness.", source="vector")]))
    chat.add(user_turns(refine2), "Second sub-answer: hardness.")

    blocks = "\n\n".join([
        f"Q: {sub1}\nA: First sub-answer: granite.",
        f"Q: {sub2}\nA: Second sub-answer: hardness.",
    ])
    chat.add(user_turns(TEMPLATES.render("final_refine", question=question, answers=blocks)),
             "Granite, identified by hardness.")

    gateway = ModelGateway(chat=chat, embedding=HashingEmbeddingBackend(dim=16, seed=1))
    pipeline = Pipeline(
        gateway, index, None, None,
        cfg=PipelineConfig(enabled_agents=("vector",)), templates=TEMPLATES,
    )
    trace = pipeline.run_query(question)
    assert trace.plan.sub_queries == (sub1, sub2)
    assert "First sub-answer: granite." in trace.entries[1].contextual_query
    assert trace.final_answer == "Granite, identified by hardness."


def _vector_and_web_pipeline(world, make_client, **cfg):
    """Vector + web pipeline for the first world question; only the vector
    answer path plus its single-candidate refine are scripted."""
    record = world.eval_records[0]
    question = format_eval_question(record)
    gateway = ModelGateway(chat=world.book.backend(), embedding=world.embedding_backend())
    cfg = PipelineConfig(enabled_agents=("vector", "web"), top_k=5,
                         search=SearchConfig(num_results=5), **cfg)
    pipeline = Pipeline(gateway, world.index, None, make_client(question),
                        cfg=cfg, templates=world.templates)
    vector_text = world.answer_texts[record.id]
    refine = world.templates.render(
        "refine_lightweight", question=question,
        answers=format_answers([AnswerCandidate(text=vector_text, source="vector")]))
    pipeline._gateway._chat_backends["chat"].add(user_turns(refine), vector_text)
    return pipeline, question, vector_text


def test_agent_timeout_yields_unavailable_candidate(small_world, caplog):
    class SlowClient:
        def search(self, query, cfg):
            time.sleep(0.5)
            return []

    pipeline, question, vector_text = _vector_and_web_pipeline(
        small_world, lambda question: SlowClient(), agent_timeout_s=0.05)
    started = time.monotonic()
    with caplog.at_level(logging.WARNING, logger="hmrag.errors"):
        trace = pipeline.run_query(question)
    elapsed = time.monotonic() - started
    web_candidate = next(c for c in trace.entries[0].candidates if c.source == "web")
    assert web_candidate.available is False
    assert any("timed out" in w for w in trace.entries[0].warnings)
    assert any("web agent timed out" in r.getMessage() for r in caplog.records)
    assert trace.final_answer == vector_text
    assert elapsed < 0.45  # the stuck agent must not stall the query


def test_fan_out_agents_share_one_deadline(small_world):
    pipeline = small_world.make_pipeline(decision_enabled=False, agent_timeout_s=1.0)

    def delayed(run, delay):
        def run_later(query, warnings=None):
            time.sleep(delay)
            return run(query, warnings)
        return run_later

    for source, delay in (("vector", 0.5), ("graph", 1.2)):
        agent = pipeline._agents[source]
        agent.run = delayed(agent.run, delay)
    trace = pipeline.run_query(format_eval_question(small_world.eval_records[0]))
    entry = trace.entries[0]
    assert [(c.source, c.available) for c in entry.candidates] == [
        ("vector", True), ("graph", False), ("web", True)]
    assert entry.warnings == ["graph agent timed out after 1.0s"]


LATE_DETAIL = "late call from a timed-out search"


class LateSearch:
    """Search double whose first search outlives the agent timeout: it waits
    until the next query is searching, then calls the gateway."""

    def __init__(self, inner):
        self.inner = inner
        self.gateway = None
        self.first = True
        self.next_query_searching = threading.Event()
        self.late_call_made = threading.Event()

    def search(self, query, cfg):
        if self.first:
            self.first = False
            self.next_query_searching.wait(5)
            self.gateway.embed_text(LATE_DETAIL)
            self.late_call_made.set()
        else:
            self.next_query_searching.set()
            self.late_call_made.wait(5)
        return self.inner.search(query, cfg)


def test_timed_out_agent_calls_stay_out_of_later_traces(small_world):
    client = LateSearch(StubSearchClient(small_world.web_fixture))
    pipeline = small_world.make_pipeline(web_client=client, agent_timeout_s=0.3)
    client.gateway = pipeline._gateway
    questions = [format_eval_question(r) for r in small_world.eval_records]
    first = pipeline.run_query(questions[0])
    assert any("web agent timed out" in w for w in first.entries[0].warnings)
    later = [pipeline.run_query(q) for q in questions[1:] + questions[:1]]
    assert client.late_call_made.is_set()
    for trace in [first] + later:
        assert LATE_DETAIL not in [c.detail for c in trace.calls]
    assert all(sum(c.kind == "search" for c in t.calls) == 1 for t in later)


@pytest.mark.parametrize("payload", [
    {"organic": [{"link": "https://a", "position": 1}, {"link": "https://b", "position": "two"}]},
    {"organic": [{"link": "https://a", "position": 1}, {"link": "https://b", "position": 1}]},
    {"organic": [{"link": "https://a", "position": 0}]},
    [{"link": "https://a", "position": 1}],
])
def test_malformed_search_payload_degrades_web_candidate(small_world, payload):
    pipeline, question, vector_text = _vector_and_web_pipeline(
        small_world, lambda question: StubSearchClient({question: payload}))
    trace = pipeline.run_query(question)
    web_candidate = next(c for c in trace.entries[0].candidates if c.source == "web")
    assert web_candidate.available is False
    assert any(w.startswith("web retrieval failed") for w in trace.entries[0].warnings)
    assert trace.final_answer == vector_text


@pytest.mark.parametrize("embedding", [None, "abc", [[1.0], [1.0, 2.0]], [], [1.0, float("nan")],
                                       [1.0, 2.0], [0.0] * EMBED_DIM])
def test_malformed_http_embedding_degrades_vector_candidate(small_world, monkeypatch, embedding):
    body = FakeResponse({"data": [{"embedding": embedding}]})
    monkeypatch.setattr(gateway_mod.requests, "post", lambda url, **kw: body)
    pipeline, question, answer_text = _vector_and_web_pipeline(
        small_world, lambda question: StubSearchClient(small_world.web_fixture))
    pipeline._gateway._embedding = HTTPEmbeddingBackend(ModelBackendConfig(endpoint="http://x"))
    refine = small_world.templates.render(
        "refine_lightweight", question=question,
        answers=format_answers([AnswerCandidate(text=answer_text, source="web")]))
    pipeline._gateway._chat_backends["chat"].add(user_turns(refine), answer_text)

    trace = pipeline.run_query(question)
    candidates = {c.source: c for c in trace.entries[0].candidates}
    assert candidates["vector"].available is False
    assert candidates["web"].available is True
    assert any(w.startswith("vector retrieval failed") for w in trace.entries[0].warnings)
    assert trace.final_answer == answer_text


class OneBadEmbedding:
    """Hashing embeddings, except a 2-long vector the first time `bad_text`
    is embedded. Keyed on the text, since fan-out threads embed in any order."""

    def __init__(self, inner, bad_text):
        self._inner = inner
        self._bad_text = bad_text
        self._lock = threading.Lock()
        self._served = False

    def embed(self, text):
        with self._lock:
            bad = text == self._bad_text and not self._served
            self._served = self._served or bad
        return np.ones(2) if bad else self._inner.embed(text)


@pytest.mark.parametrize("source", ["vector", "graph"])
def test_wrong_length_embedding_degrades_only_its_own_question(small_world, source):
    questions = [format_eval_question(r) for r in small_world.eval_records]
    # the vector agent embeds the question, the graph agent every entity name
    bad_text = {"vector": questions[0], "graph": small_world.graph.entities[0].name}[source]
    pipeline = small_world.make_pipeline(decision_enabled=False)
    pipeline._gateway._embedding = OneBadEmbedding(small_world.embedding_backend(), bad_text)

    first, *later = [pipeline.run_query(q).entries[0] for q in questions]
    assert first.warnings == [
        f"{source} retrieval failed: embedding has shape (2,), expected ({EMBED_DIM},)"]
    assert [c.source for c in first.candidates if not c.available] == [source]
    for entry in later:
        assert [(c.source, c.available) for c in entry.candidates] == [
            ("vector", True), ("graph", True), ("web", True)]
        assert entry.warnings == []


@pytest.mark.parametrize("empty", [True, False], ids=["empty", "missing"])
@pytest.mark.parametrize("source", ["vector", "graph"])
def test_empty_or_missing_store_for_an_enabled_agent_is_pipeline_error(small_world, source, empty):
    field, empty_store = {
        "vector": ("index", EmbeddingIndex(EMBED_DIM, [], [], np.empty((0, EMBED_DIM)))),
        "graph": ("graph", KnowledgeGraph()),
    }[source]
    with pytest.raises(PipelineError, match=f"{source} agent enabled"):
        replace(small_world, **{field: empty_store if empty else None}).make_pipeline()


_embedding_bodies = st.one_of(
    st.builds(lambda v: {"data": [{"embedding": v}]}, st.lists(
        st.integers() | st.floats(allow_nan=False, allow_infinity=False), max_size=EMBED_DIM + 2)),
    st.just({"data": []}),
    st.just({}),
)


@settings(max_examples=60, deadline=None)
@given(bodies=st.lists(st.lists(_embedding_bodies, min_size=1, max_size=3), min_size=1, max_size=3))
def test_run_query_survives_embedding_payloads_across_queries(small_world, bodies):
    clean = small_world.embedding_backend()
    gateway = ModelGateway(chat=ConstantChatBackend(), embedding=HTTPEmbeddingBackend(
        ModelBackendConfig(endpoint="http://embed.local")))
    pipeline = Pipeline(gateway, small_world.index, small_world.graph,
                        cfg=PipelineConfig(enabled_agents=("vector", "graph")))
    question = format_eval_question(small_world.eval_records[0])
    query_bodies = None  # None serves clean vectors

    def post(url, json, **kw):
        text = json["input"][0]
        if query_bodies is None:
            return FakeResponse({"data": [{"embedding": clean.embed(text).tolist()}]})
        # chosen by the text, so thread order cannot change which call gets which body
        return FakeResponse(query_bodies[zlib.crc32(text.encode("utf-8")) % len(query_bodies)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gateway_mod.requests, "post", post)
        for query_bodies in bodies:
            try:
                assert isinstance(pipeline.run_query(question), QueryTrace)
            except PipelineError:
                pass
        query_bodies = None
        trace = pipeline.run_query(question)
    assert [(c.source, c.available) for c in trace.entries[0].candidates] == [
        ("vector", True), ("graph", True)]


# per kind: a clean body, and bodies that are arbitrary JSON or arbitrary JSON in the expected shape
_HTTP_BODIES = {
    "search": ({"organic": [{"link": "https://example.org", "title": "t", "snippet": "s"}]},
               JSON_VALUES | st.builds(lambda v: {"organic": v}, st.lists(st.fixed_dictionaries(
                   {"link": st.just("https://example.org") | JSON_SCALARS},
                   optional={"title": JSON_VALUES, "snippet": JSON_VALUES,
                             "position": JSON_SCALARS | JSON_VALUES}), max_size=3))),
    "chat": ({"choices": [{"message": {"content": "ok"}}]},
             JSON_VALUES | st.builds(lambda v: {"choices": [{"message": {"content": v}}]},
                                      JSON_VALUES | st.text(max_size=40))),
}


@pytest.mark.parametrize("kind", sorted(_HTTP_BODIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_query_survives_search_and_chat_payloads_across_queries(small_world, kind, data):
    bodies = data.draw(st.lists(st.lists(_HTTP_BODIES[kind][1], min_size=1, max_size=3),
                                min_size=1, max_size=3))
    # both kinds go over HTTP; the one not under test always gets its clean body
    gateway = ModelGateway(chat=HTTPChatBackend(ModelBackendConfig(endpoint="http://chat.local")),
                           embedding=small_world.embedding_backend())
    pipeline = Pipeline(gateway, small_world.index, small_world.graph,
                        SerperSearchClient("http://search.local", api_key_env=""))
    question = format_eval_question(small_world.eval_records[0])
    query_bodies = None  # None serves clean bodies

    def post(url, json, **kw):
        url_kind, text = (("chat", json["messages"][0]["content"]) if url == "http://chat.local"
                          else ("search", json["q"]))
        if query_bodies is None or url_kind != kind:
            return FakeResponse(_HTTP_BODIES[url_kind][0])
        # chosen by the text, so thread order cannot change which call gets which body
        return FakeResponse(query_bodies[zlib.crc32(text.encode("utf-8")) % len(query_bodies)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gateway_mod.requests, "post", post)
        for query_bodies in bodies:
            try:
                assert isinstance(pipeline.run_query(question), QueryTrace)
            except PipelineError:
                pass
        query_bodies = None
        trace = pipeline.run_query(question)
    assert [(c.source, c.available) for c in trace.entries[0].candidates] == [
        ("vector", True), ("graph", True), ("web", True)]


class DownBackend:
    """Chat, embedding and search double whose every call fails as an unreachable server does."""

    def complete(self, turns, params):
        raise BackendUnavailableError("down")

    def embed(self, text):
        raise BackendUnavailableError("down")

    def search(self, query, cfg):
        raise BackendUnavailableError("down")


@pytest.mark.parametrize("stage", ["retrieval", "answer"])
@pytest.mark.parametrize("source", ["vector", "graph", "web"])
def test_agent_failure_gives_unavailable_candidate_and_one_warning(small_world, source, stage):
    down = DownBackend()
    retrieval_works = stage == "answer"
    # graph keywords come from the main chat role, its answer from the lightweight one
    chat = small_world.book.backend() if retrieval_works and source == "graph" else down
    embedding = small_world.embedding_backend() if retrieval_works else down
    client = StubSearchClient(small_world.web_fixture) if retrieval_works else down
    gateway = ModelGateway(chat=chat, embedding=embedding, lightweight_chat=down)
    templates = small_world.templates
    agent = {
        "vector": lambda: VectorAgent(gateway, small_world.index, templates=templates),
        "graph": lambda: GraphAgent(gateway, small_world.graph, templates=templates),
        "web": lambda: WebAgent(gateway, client, templates=templates),
    }[source]()
    warnings = []
    candidate = agent.run(format_eval_question(small_world.eval_records[0]), warnings)
    assert candidate == unavailable_candidate(source)
    assert warnings == [f"{source} {stage} failed: down"]


def test_all_agents_unavailable_fails_with_diagnostic_trace():
    class DeadClient:
        def search(self, query, cfg):
            from hmrag.errors import BackendUnavailableError
            raise BackendUnavailableError("search down")

    chat = ScriptedChatBackend()
    question = "Anything at all?"
    chat.add(user_turns(TEMPLATES.render("judge_intent", question=question)), "single-intent")
    gateway = ModelGateway(chat=chat, embedding=HashingEmbeddingBackend(dim=8))
    pipeline = Pipeline(
        gateway, None, None, DeadClient(),
        cfg=PipelineConfig(enabled_agents=("web",)), templates=TEMPLATES,
    )
    with pytest.raises(PipelineError) as exc_info:
        pipeline.run_query(question)
    trace = exc_info.value.trace
    assert trace is not None
    assert trace.entries[0].candidates[0].available is False


class FailingPrompt:
    """Chat double that fails one prompt as an unreachable server does and
    serves the rest."""

    def __init__(self, inner, prompt):
        self.inner = inner
        self.prompt = prompt

    def complete(self, turns, params):
        if turns[-1].content == self.prompt:
            raise BackendUnavailableError("down")
        return self.inner.complete(turns, params)


def test_summary_failures_reach_the_error_trace(small_world):
    record = small_world.eval_records[0]
    pipeline = small_world.make_pipeline()
    backends = pipeline._gateway._chat_backends
    summary_prompt = small_world.templates.render(
        "summarize", text=small_world.answer_texts[record.id], budget=SUMMARY_BUDGET)
    backends["lightweight_chat"] = FailingPrompt(backends["chat"], summary_prompt)
    with pytest.raises(PipelineError) as exc_info:
        pipeline.run_query(format_eval_question(record))
    trace = exc_info.value.trace
    entry = trace.entries[0]
    assert [(c.source, c.available) for c in entry.candidates] == [
        ("vector", False), ("graph", False), ("web", False)]
    assert entry.warnings == [f"{source} summary failed: down"
                              for source in ("vector", "graph", "web")]
    # the calls made before the failure still reach the trace: the graph
    # answer and the one summary request for the text all three share
    assert sum(c.role == "lightweight_chat" for c in trace.calls) == 2


def _stage_prompt(world, record, stage):
    """A world question's intent-judgment prompt, or its decision-refine
    prompt on the lightweight route over all three candidates."""
    question = format_eval_question(record)
    if stage == "judge":
        return world.templates.render("judge_intent", question=question)
    answers = format_answers([AnswerCandidate(text=world.answer_texts[record.id], source=s)
                              for s in ("vector", "graph", "web")])
    return world.templates.render("refine_lightweight", question=question, answers=answers)


def _failing_pipeline(world, prompt):
    pipeline = world.make_pipeline()
    backends = pipeline._gateway._chat_backends
    for role in ("chat", "lightweight_chat"):
        backends[role] = FailingPrompt(backends[role], prompt)
    return pipeline


@pytest.mark.parametrize("stage", ["judge", "refine"])
def test_backend_failure_outside_agents_is_pipeline_error(small_world, stage):
    record = small_world.eval_records[0]
    prompt = _stage_prompt(small_world, record, stage)
    pipeline = _failing_pipeline(small_world, prompt)
    with pytest.raises(PipelineError) as exc_info:
        pipeline.run_query(format_eval_question(record))
    assert isinstance(exc_info.value.__cause__, BackendUnavailableError)
    trace = exc_info.value.trace
    assert trace is not None
    # the failed call is the last one the trace records
    assert trace.calls[-1].kind == "chat"
    assert trace.calls[-1].detail == prompt[:120]
    if stage == "judge":
        assert len(trace.calls) == 1
        assert trace.plan is None
    else:
        assert trace.plan is not None
        assert len(trace.entries) == 1
        # a failed refine keeps the agents' answers, though not their summaries
        text = small_world.answer_texts[record.id]
        assert [(c.source, c.available, c.text) for c in trace.entries[0].candidates] == [
            (source, True, text) for source in ("vector", "graph", "web")]
        assert trace.entries[0].report is None
    assert trace.final_answer == ""


@pytest.mark.parametrize("stage", ["judge", "refine"])
def test_run_eval_counts_backend_failure_and_goes_on(tmp_path, small_world, stage):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps({
        "id": r.id, "question": r.question, "choices": list(r.choices),
        "answer": r.answer, "tags": list(r.tags)}) + "\n" for r in small_world.eval_records),
        encoding="utf-8")
    failing = small_world.eval_records[1]
    pipeline = _failing_pipeline(small_world, _stage_prompt(small_world, failing, stage))
    report = run_eval(pipeline, dataset)
    assert [row["id"] for row in report["questions"]] == [r.id for r in small_world.eval_records]
    assert report["total"] == 4
    assert report["errors"] == 1
    assert report["correct"] == 3
    rows = {row["id"]: row for row in report["questions"]}
    assert rows[failing.id]["error"] == "backend call failed: down"
    assert rows[failing.id]["predicted"] is None


@pytest.mark.parametrize("field, value", [
    ("top_k", 0), ("tau", -0.1), ("tau", 1.5), ("fusion_lambda", -0.5), ("fusion_lambda", 1.01),
    ("consensus_threshold", -0.01), ("consensus_threshold", 2.0),
    ("summary_token_budget", 0), ("agent_timeout_s", 0.0), ("agent_timeout_s", -1.0),
])
def test_pipeline_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})


def test_extract_choice_rules():
    choices = ("water", "magma", "granite", "sand")
    assert extract_choice("The answer is B.", choices) == 1
    assert extract_choice("I pick (C) because rocks", choices) == 2
    assert extract_choice("granite", choices) == 2
    assert extract_choice("Granite.", choices) == 2
    assert extract_choice("no idea", choices) is None
    # article "a" must not match a choice letter
    assert extract_choice("a tricky answer with no letter", choices) is None
    # out-of-range letters are skipped, later in-range letter wins
    assert extract_choice("E or rather D", choices) == 3


def test_parse_eval_record_validation():
    with pytest.raises(ValueError):
        parse_eval_record({"question": "q", "choices": [], "answer": 0})
    with pytest.raises(ValueError):
        parse_eval_record({"question": "q", "choices": ["a", "b"], "answer": 5})
    with pytest.raises(ValueError):
        parse_eval_record({"choices": ["a"], "answer": 0})
    record = parse_eval_record(
        {"id": "x", "question": "q", "choices": ["a", "b"], "answer": 1, "tags": "geo"})
    assert record.tags == ("geo",)


def test_run_eval_counts_and_tags(tmp_path, small_world):
    world = build_world(n=4, wrong_ids=frozenset({"q03"}))
    dataset = tmp_path / "dataset.jsonl"
    lines = [json.dumps({
        "id": r.id, "question": r.question, "choices": list(r.choices),
        "answer": r.answer, "tags": list(r.tags)}) for r in world.eval_records]
    lines.append("{bad json")
    lines.append(json.dumps({"id": "nochoices", "question": "q", "answer": 0}))
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")

    report = run_eval(world.make_pipeline(), dataset)
    assert report["total"] == 4
    assert report["correct"] == 3
    assert report["accuracy"] == pytest.approx(0.75)
    assert report["skipped"] == 2
    assert set(report["per_tag"]) == {"coastal", "inland"}
    assert report["per_tag"]["inland"]["total"] == 2


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"],
                         ids=["u2028", "u2029", "u0085"])
def test_run_eval_reads_a_record_holding_a_unicode_line_separator(tmp_path, small_world, separator):
    # str.splitlines also splits at these, which sit raw in an ensure_ascii=False line
    record = small_world.eval_records[0]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps({
        "id": f"q{separator}1", "question": record.question, "choices": list(record.choices),
        "answer": record.answer, "tags": [f"tag{separator}"]}, ensure_ascii=False) + "\n",
        encoding="utf-8")
    report = run_eval(small_world.make_pipeline(), dataset)
    assert (report["total"], report["correct"], report["skipped"]) == (1, 1, 0)
    assert report["questions"][0]["id"] == f"q{separator}1"
    assert set(report["per_tag"]) == {f"tag{separator}"}


def test_run_eval_skips_lines_that_are_not_objects(tmp_path, small_world):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text('[1, 2]\n"text"\n', encoding="utf-8")
    report = run_eval(small_world.make_pipeline(), dataset)
    assert report["total"] == 0
    assert report["skipped"] == 2


def test_run_eval_skips_an_answer_that_is_a_bool(tmp_path, small_world):
    line = {"question": "q", "choices": ["a", "b"], "answer": True}
    with pytest.raises(ValueError, match="answer index"):
        parse_eval_record(line)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps(line) + "\n", encoding="utf-8")
    report = run_eval(small_world.make_pipeline(), dataset)
    assert report["total"] == 0
    assert report["skipped"] == 1


def test_eval_question_includes_context_fields():
    record = parse_eval_record({
        "id": "x", "question": "Which rock?", "choices": ["a", "b"], "answer": 0,
        "context": "Rocks form in layers.", "image_caption": "a cliff face",
    })
    question = format_eval_question(record)
    assert "Context: Rocks form in layers." in question
    assert "Image caption: a cliff face" in question
    assert "(A) a" in question and "(B) b" in question


def test_agent_answer_calls_use_deterministic_decoding(small_world, monkeypatch):
    scripted = small_world.book.backend()
    bodies = []

    def post(url, json, **kw):
        bodies.append(json)
        answer = scripted.complete(user_turns(json["messages"][0]["content"]), None)
        return FakeResponse({"choices": [{"message": {"content": answer}}]})

    monkeypatch.setattr(gateway_mod.requests, "post", post)
    http = HTTPChatBackend(ModelBackendConfig(endpoint="http://chat.local", model_name="m"))
    pipeline = small_world.make_pipeline()
    pipeline._gateway._chat_backends = dict.fromkeys(pipeline._gateway._chat_backends, http)
    record = small_world.eval_records[0]
    trace = pipeline.run_query(format_eval_question(record))

    assert trace.final_answer == small_world.answer_texts[record.id]
    summaries = {small_world.templates.render("summarize", text=c.text, budget=SUMMARY_BUDGET)
                 for c in trace.entries[0].candidates}
    assert len(bodies) == sum(c.kind == "chat" for c in trace.calls)
    assert summaries <= {body["messages"][0]["content"] for body in bodies}
    for body in bodies:
        prompt = body["messages"][0]["content"]
        assert json.dumps(body, sort_keys=True) == json.dumps({
            "model": "m", "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0, "top_p": 1.0,
            "max_tokens": SUMMARY_BUDGET if prompt in summaries else 1024,
        }, sort_keys=True)


def test_graph_answer_uses_lightweight_role(small_world):
    log = CallLog()
    pipeline = small_world.make_pipeline(enabled=("graph",), call_log=log)
    record = small_world.eval_records[0]
    question = format_eval_question(record)
    # graph-only run needs its single-candidate refine scripted
    refine = small_world.templates.render(
        "refine_lightweight", question=question,
        answers=format_answers([AnswerCandidate(
            text=small_world.answer_texts[record.id], source="graph")]))
    pipeline._gateway._chat_backends["chat"].add(user_turns(refine),
                                                 small_world.answer_texts[record.id])
    trace = pipeline.run_query(question)
    chat_roles = [c.role for c in trace.calls if c.kind == "chat"]
    # keyword extraction on the main role, answer + refine on the light one
    assert chat_roles.count("lightweight_chat") == 2
    assert "chat" in chat_roles
    assert trace.final_answer == small_world.answer_texts[record.id]
