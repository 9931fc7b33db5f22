"""Seeded backend faults under concurrency.

Faults are chosen by the content of each request, never by call order, so
a question meets the same faults whether it runs alone or beside seven
others: a failed chat request (summary requests included), a reworded
agent answer (so a sub-query has several distinct answers to summarize),
a wrong-length query embedding and a malformed search payload. The serial
and the concurrent run must then give byte-identical normalized traces.

A search that hangs until its question's fan-out has given up on it must
leave nothing in any trace, its own included, and no thread behind: its
question's trace is the same whether the hang ends before or after that
question's run_query returns.
"""

import concurrent.futures
import contextvars
import json
import threading
import zlib

import pytest

from hmrag.errors import BackendUnavailableError, PipelineError, ScriptMismatchError
from hmrag.pipeline import format_eval_question
from hmrag.web_agent import StubSearchClient

from world import build_world

SEED = 3
THREADS = 8
MALFORMED_SEARCH = {"organic": "not a list"}


def chosen(kind: str, content: str, one_in: int) -> bool:
    return zlib.crc32(f"{SEED}\x1f{kind}\x1f{content}".encode("utf-8")) % one_in == 0


class FaultyChat:
    """The world's scripted chat, with faults chosen by prompt.

    A chosen prompt fails (one summary prompt in two, one other prompt in
    eight); a chosen agent answer is reworded; a prompt the script lacks,
    because faults changed what the pipeline asks, gets a digest of itself.
    """

    def __init__(self, book, summary_head):
        self._book = book
        self._summary_head = summary_head

    def complete(self, turns, params):
        prompt = turns[0].content
        if chosen("chat", prompt, 2 if prompt.startswith(self._summary_head) else 8):
            raise BackendUnavailableError("seeded chat fault")
        try:
            reply = self._book.complete(turns, params)
        except ScriptMismatchError:
            return f"unscripted {zlib.crc32(prompt.encode('utf-8')):08x}"
        if reply.startswith("The answer is") and chosen("reword", prompt, 3):
            return f"{reply} (reworded {zlib.crc32(prompt.encode('utf-8')):08x})"
        return reply


class FaultyEmbedding:
    """The world's embedding, one entry short for the chosen texts."""

    def __init__(self, inner, faulty_texts):
        self._inner = inner
        self._faulty = faulty_texts

    def embed(self, text):
        vector = self._inner.embed(text)
        return vector[:-1] if text in self._faulty else vector


def _faulty_pipeline(world, questions):
    pipeline = world.make_pipeline(web_client=StubSearchClient({
        query: MALFORMED_SEARCH if chosen("search", query, 4) else payload
        for query, payload in world.web_fixture.items()}))
    gateway = pipeline._gateway
    chat = FaultyChat(world.book.backend(), world.templates.text("summarize").split("{", 1)[0])
    gateway._chat_backends = dict.fromkeys(gateway._chat_backends, chat)
    gateway._embedding = FaultyEmbedding(
        world.embedding_backend(), {q for q in questions if chosen("embed", q, 4)})
    return pipeline


def _outcome(pipeline, question) -> str:
    """The normalized trace as JSON, or the error and the trace it carries."""
    try:
        return json.dumps(pipeline.run_query(question).normalized(), sort_keys=True)
    except PipelineError as exc:
        assert exc.trace is not None, f"PipelineError without a trace: {exc}"
        return json.dumps({"error": str(exc), "trace": exc.trace.normalized()}, sort_keys=True)


@pytest.fixture(scope="module")
def faulty_world():
    world = build_world(n=20)
    questions = [format_eval_question(r) for r in world.eval_records]
    return _faulty_pipeline(world, questions), questions


def test_seeded_faults_give_the_same_traces_serially_and_from_eight_threads(faulty_world):
    pipeline, questions = faulty_world
    serial = [_outcome(pipeline, q) for q in questions]
    with concurrent.futures.ThreadPoolExecutor(max_workers=THREADS) as pool:
        concurrent_runs = list(pool.map(lambda q: _outcome(pipeline, q), questions))
    assert concurrent_runs == serial

    # the seed reaches every kind of fault, and some questions still succeed
    text = "\n".join(serial)
    for needle in ("seeded chat fault", "summary failed", "response missing 'organic' array",
                   "embedding has shape", '"error": "backend call failed'):
        assert needle in text, needle
    assert any('"error"' not in outcome for outcome in serial)
    assert any("reworded" in outcome for outcome in serial)


DEADLINE_S = 1.0
# the question whose run_query is in progress in this context; agent threads see it too
_asking = contextvars.ContextVar("asking")


class HangingSearch:
    """The world's search, hanging for the chosen questions until `release[question]`
    is set; it then makes a late embedding call and fails."""

    def __init__(self, inner, hung_questions):
        self._inner = inner
        self._hung = hung_questions
        self.gateway = None
        self.release = {q: threading.Event() for q in hung_questions}
        self.late = []  # questions whose search made its late call

    def search(self, query, cfg):
        question = _asking.get()
        if question in self._hung and not self.release[question].is_set():
            assert self.release[question].wait(5), "the hang was never released"
            self.gateway.embed_text(late_detail(question))
            self.late.append(question)
            raise BackendUnavailableError("late failure of a timed-out search")
        return self._inner.search(query, cfg)


def late_detail(question):
    return f"late call {zlib.crc32(question.encode('utf-8')):08x}"


def _asked(pipeline, question):
    _asking.set(question)
    return _outcome(pipeline, question)


def _ask_with_hangs(world, questions, hung, release_after_query):
    """Every question from eight threads, with the search hanging for the `hung`
    ones. Each hang is released once its question's fan-out has returned, or
    once its run_query has. Returns the outcomes and the questions whose
    search made its late call."""
    search = HangingSearch(StubSearchClient(world.web_fixture), hung)
    pipeline = world.make_pipeline(web_client=search, agent_timeout_s=DEADLINE_S)
    search.gateway = pipeline._gateway
    fan_out = pipeline._fan_out

    def release():
        event = search.release.get(_asking.get())
        if event is not None:
            event.set()

    def fan_out_then_release(query, entry):
        try:
            return fan_out(query, entry)
        finally:  # the fan-out has returned, so a hung search is past its deadline
            release()

    def ask(question):
        try:
            return _asked(pipeline, question)
        finally:
            release()  # a no-op once the fan-out has released the hang

    if not release_after_query:
        pipeline._fan_out = fan_out_then_release
    with concurrent.futures.ThreadPoolExecutor(max_workers=THREADS) as pool:
        outcomes = dict(zip(questions, pool.map(ask, questions)))
    return outcomes, search.late


def test_a_hung_search_leaks_nothing_into_other_questions_and_no_thread():
    threads_before = set(threading.enumerate())
    start = threading.active_count()
    world = build_world(n=20)
    questions = [format_eval_question(r) for r in world.eval_records]
    clean = world.make_pipeline()
    baseline = {q: _asked(clean, q) for q in questions}
    hung = {q for q in questions if chosen("hang", q, 6)}
    assert 0 < len(hung) < len(questions)

    runs = {}
    for release_after_query in (False, True):
        outcomes, late = _ask_with_hangs(world, questions, hung, release_after_query)
        for thread in set(threading.enumerate()) - threads_before:
            thread.join(5)  # each hung search ends once released, and idle workers then exit
        assert sorted(late) == sorted(hung)
        runs[release_after_query] = outcomes

    # no thread of this test is left; threads of earlier tests may have ended meanwhile
    assert set(threading.enumerate()) <= threads_before
    assert threading.active_count() <= start
    for outcomes in runs.values():
        for question, outcome in outcomes.items():
            assert "late failure" not in outcome
            assert not any(late_detail(q) in outcome for q in hung)
            if question in hung:
                assert "web agent timed out after 1.0s" in outcome
            else:
                assert outcome == baseline[question]
    # a hung question's outcome does not depend on when its hang ends
    assert runs[False] == runs[True]
