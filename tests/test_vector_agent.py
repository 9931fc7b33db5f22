import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmrag.decision import AnswerCandidate
from hmrag.errors import BackendUnavailableError
from hmrag.gateway import ScriptedChatBackend
from hmrag.ingest import EmbeddingIndex
from hmrag.templates import TemplateSet
from hmrag.vector_agent import (
    VectorAgent,
    build_prompt,
    score_all,
    top_k_by_vector,
)

from conftest import make_gateway, user_turns

TEMPLATES = TemplateSet()
HEADER = TEMPLATES.text("vector_header")


def make_index(vectors, ids=None, texts=None):
    matrix = np.asarray(vectors, dtype=np.float64)
    n = matrix.shape[0]
    ids = ids or [f"c{i}" for i in range(n)]
    texts = texts or [f"text {i}" for i in range(n)]
    return EmbeddingIndex(matrix.shape[1], ids, texts, matrix)


def test_score_all_matches_hand_computed_dot_products():
    index = make_index([[1.0, 0.0], [0.0, 1.0], [0.7071, 0.7071]], ids=["d1", "d2", "d3"])
    scored = score_all(np.array([1.0, 0.0]), index)
    assert scored[0].score == pytest.approx(1.0, abs=1e-9)
    assert scored[1].score == pytest.approx(0.0, abs=1e-9)
    # 0.7071/(1 * sqrt(2 * 0.7071^2)) reduces to 1/sqrt(2)
    assert scored[2].score == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_score_self_similarity_is_one():
    vec = np.array([0.3, -1.2, 4.5])
    index = make_index([vec])
    assert score_all(vec, index)[0].score == pytest.approx(1.0, abs=1e-9)


def test_score_dimension_mismatch_raises():
    index = make_index(np.ones((2, 8)))
    with pytest.raises(ValueError):
        score_all(np.ones(3), index)


def test_score_zero_query_raises():
    index = make_index([[1.0, 0.0]])
    with pytest.raises(ValueError):
        score_all(np.zeros(2), index)


def test_score_zero_norm_record_scores_zero():
    index = make_index([[0.0, 0.0], [1.0, 0.0]])
    scored = score_all(np.array([1.0, 0.0]), index)
    assert scored[0].score == 0.0
    assert scored[1].score == pytest.approx(1.0)


def test_zero_rows_are_logged_once_when_the_index_is_built(caplog):
    with caplog.at_level(logging.WARNING, logger="hmrag"):
        index = make_index([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        at_build = [record.getMessage() for record in caplog.records]
        for _ in range(3):
            top_k_by_vector("q", np.array([1.0, 0.0]), index, k=3)
            score_all(np.array([0.0, 1.0]), index)
    assert at_build == ["2 zero-norm index records will score 0"]
    assert [record.getMessage() for record in caplog.records] == at_build


def test_id_rank_is_each_chunk_ids_place_in_ascending_order():
    index = make_index(np.eye(4), ids=["zz", "aa", "mm", "ab"])
    assert index.id_rank.tolist() == [3, 0, 2, 1]

def test_top_k_fixture_ordering():
    index = make_index([[1.0, 0.0], [0.0, 1.0], [0.7071, 0.7071]], ids=["d1", "d2", "d3"])
    result = top_k_by_vector("q", np.array([1.0, 0.0]), index, k=2)
    assert [s.chunk.chunk_id for s in result.top] == ["d1", "d3"]
    assert result.top[0].score == pytest.approx(1.0)
    assert result.top[1].score == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_top_k_clamped_to_index_size():
    index = make_index(np.eye(3))
    result = top_k_by_vector("q", np.array([1.0, 0.0, 0.0]), index, k=10)
    assert len(result.top) == 3


def test_top_k_ties_break_by_chunk_id():
    index = make_index([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], ids=["zz", "aa", "mm"])
    result = top_k_by_vector("q", np.array([2.0, 0.0]), index, k=3)
    assert [s.chunk.chunk_id for s in result.top] == ["aa", "mm", "zz"]


def test_top_k_rejects_empty_index_and_bad_k():
    index = make_index([[1.0, 0.0]])
    with pytest.raises(ValueError):
        top_k_by_vector("q", np.array([1.0, 0.0]), index, k=0)
    empty = EmbeddingIndex(2, [], [], np.empty((0, 2)))
    with pytest.raises(ValueError):
        top_k_by_vector("q", np.array([1.0, 0.0]), empty, k=1)


@given(st.floats(min_value=1e-200, max_value=1e200))
@settings(max_examples=50, deadline=None)
def test_ranking_invariant_under_positive_query_rescaling(scale):
    rng = np.random.default_rng(11)
    index = make_index(rng.standard_normal((12, 6)))
    query = rng.standard_normal(6)
    base = top_k_by_vector("q", query, index, k=5)
    scaled = top_k_by_vector("q", query * scale, index, k=5)
    assert [s.chunk.chunk_id for s in base.top] == [s.chunk.chunk_id for s in scaled.top]
    assert [s.score for s in scaled.top] == pytest.approx([s.score for s in base.top])


def parse_prompt(prompt):
    # independent inverse of build_prompt: lengths announced in the
    # delimiters make the parse unambiguous
    body = prompt
    marker_end = body.index(" chars):\n")
    q_len = int(body[len("Question ("):marker_end])
    body = body[marker_end + len(" chars):\n"):]
    query = body[:q_len]
    body = body[q_len:]
    head = "\n\n" + HEADER.rstrip("\n") + "\n\nContext chunks: "
    assert body.startswith(head)
    body = body[len(head):]
    newline = body.index("\n") if "\n" in body else len(body)
    count = int(body[:newline])
    body = body[newline:]
    chunks = []
    for i in range(1, count + 1):
        head = f"\n[chunk {i}/{count} | "
        assert body.startswith(head)
        body = body[len(head):]
        bracket = body.index(" chars]\n")
        length = int(body[:bracket])
        body = body[bracket + len(" chars]\n"):]
        chunks.append(body[:length])
        body = body[length:]
    assert body == ""
    return query, chunks


texty = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=40)


@given(texty.filter(lambda s: s.strip()), st.lists(texty, min_size=0, max_size=4))
@settings(max_examples=150, deadline=None)
def test_prompt_assembly_round_trips(query, chunk_texts):
    prompt = build_prompt(query, chunk_texts, HEADER)
    assert parse_prompt(prompt) == (query, chunk_texts)


def test_answer_uses_scripted_chat_and_tags_evidence(hashing_backend):
    index = make_index([[1.0, 0.0]], texts=["quartz is hard"])
    result = top_k_by_vector("What mineral?", np.array([1.0, 0.0]), index, k=1)
    prompt = build_prompt("What mineral?", ["quartz is hard"], HEADER)
    chat = ScriptedChatBackend().add(user_turns(prompt), "Granite.")
    agent = VectorAgent(make_gateway(chat=chat, embedding=hashing_backend), index, templates=TEMPLATES)
    candidate = agent.answer("What mineral?", result)
    assert candidate == AnswerCandidate(
        text="Granite.", source="vector", evidence=("quartz is hard",)
    )
    assert agent.answer("What mineral?", result) == candidate  # determinism


def test_answer_rejects_empty_top():
    index = make_index([[1.0, 0.0]])
    agent = VectorAgent(make_gateway(), index, templates=TEMPLATES)
    from hmrag.vector_agent import RetrievalResult
    with pytest.raises(ValueError):
        agent.answer("q", RetrievalResult(query="q", top=()))


def test_backend_failure_yields_unavailable_candidate(hashing_backend):
    class DeadChat:
        def complete(self, turns, params):
            raise BackendUnavailableError("down")

    index = make_index(np.eye(8)[:2])  # dim must match the embedding double
    agent = VectorAgent(make_gateway(chat=DeadChat(), embedding=hashing_backend), index,
                        templates=TEMPLATES)
    candidate = agent.run("some question")
    assert candidate.available is False
    assert candidate.source == "vector"


def test_retrieval_failure_is_reported_in_warnings():
    class DeadEmbedding:
        def embed(self, text):
            raise BackendUnavailableError("embeddings down")

    agent = VectorAgent(make_gateway(embedding=DeadEmbedding()), make_index(np.eye(2)),
                        templates=TEMPLATES)
    warnings = []
    candidate = agent.run("some question", warnings)
    assert candidate.available is False
    assert warnings == ["vector retrieval failed: embeddings down"]
