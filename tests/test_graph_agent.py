import threading

import numpy as np
import pytest

from hmrag import kernels
from hmrag.decision import AnswerCandidate
from hmrag.errors import BackendUnavailableError, EmbeddingError, GatewayError
from hmrag.gateway import CallLog, HashingEmbeddingBackend, ScriptedChatBackend
from hmrag.graph_agent import (
    GraphAgent,
    KeywordSet,
    Subgraph,
    _embed_first_block,
    _max_relevance,
    expand_one_hop,
    fallback_keywords,
    make_keyword_set,
    retrieve_subgraph,
    serialize_subgraph,
)
from hmrag.ingest import KnowledgeGraph
from hmrag.templates import TemplateSet

from conftest import DEEP_JSON, make_gateway, traced_peak, user_turns

TEMPLATES = TemplateSet()
EMBED = HashingEmbeddingBackend(dim=16, seed=3).embed


def chain_graph():
    graph = KnowledgeGraph()
    graph.add_triplet("A", "r1", "B")
    graph.add_triplet("B", "r2", "C")
    graph.add_triplet("C", "r3", "D")
    return graph


def keyword_turns(question):
    return user_turns(TEMPLATES.render("keywords", question=question))


KEYWORD_JSON = '{"local_keywords": ["Granite", "granite"], "global_keywords": ["Rock Classification"]}'


@pytest.mark.parametrize("response", [
    KEYWORD_JSON,
    f"```\n{KEYWORD_JSON}\n```",
    f"```json\n{KEYWORD_JSON}\n```",
    f"```JSON\n{KEYWORD_JSON}\n```",
], ids=["unfenced", "fenced", "fenced_json", "fenced_JSON"])
def test_extract_keywords_parses_json(response):
    chat = ScriptedChatBackend().add(keyword_turns("q?"), response)
    agent = GraphAgent(make_gateway(chat=chat), chain_graph(), templates=TEMPLATES)
    keywords = agent.extract_keywords("q?")
    assert keywords == KeywordSet(local=("granite",), global_=("rock classification",))


@pytest.mark.parametrize("response", [
    "oops",
    '{"local_keywords": ["quartz", null], "global_keywords": []}',
    '{"local_keywords": ["quartz"], "global_keywords": [3]}',
    '{"local_keywords": [{"a": 1}], "global_keywords": ["rocks"]}',
    DEEP_JSON,
], ids=["not_json", "null_keyword", "number_keyword", "object_keyword", "nested_too_deeply"])
def test_extract_keywords_fallback_on_malformed_response(response):
    chat = ScriptedChatBackend().add(keyword_turns("Which rocks contain quartz?"), response)
    agent = GraphAgent(make_gateway(chat=chat), chain_graph(), templates=TEMPLATES)
    warnings = []
    keywords = agent.extract_keywords("Which rocks contain quartz?", warnings)
    assert keywords.local == ("rocks", "contain", "quartz")
    assert keywords.global_ == ()
    assert warnings


def test_fallback_keywords_strips_stopwords_and_punctuation():
    keywords = fallback_keywords("What is the Earth made of?")
    assert keywords.local == ("earth", "made")


def test_retrieve_subgraph_selects_entity_match():
    graph = KnowledgeGraph()
    graph.add_triplet("earth", "orbits", "sun")
    sub = retrieve_subgraph(make_keyword_set(["earth"], []), graph, tau=0.3, embed=EMBED)
    assert sub.triplets == (("earth", "orbits", "sun"),)
    assert sub.seed_entities == {"earth"}
    assert sub.expanded_entities >= {"earth", "sun"}


def test_retrieve_subgraph_tau_one_excludes_exact_matches():
    graph = KnowledgeGraph()
    graph.add_triplet("earth", "orbits", "sun")
    sub = retrieve_subgraph(make_keyword_set(["nothing_matches_here"], []), graph, tau=1.0, embed=EMBED)
    assert sub.triplets == ()
    assert sub.seed_entities == frozenset()


def test_retrieve_subgraph_global_keyword_matches_relation():
    graph = KnowledgeGraph()
    graph.add_triplet("alpha", "contains", "beta")
    graph.add_triplet("gamma", "predates", "delta")
    graph.add_triplet("epsilon", "contains", "zeta")
    # no entity-level match: local keywords are unrelated
    sub = retrieve_subgraph(make_keyword_set(["unrelatedterm"], ["contains"]), graph,
                            tau=0.9, embed=EMBED)
    assert set(sub.triplets) == {("alpha", "contains", "beta"), ("epsilon", "contains", "zeta")}
    assert sub.seed_entities == frozenset()


def test_retrieve_subgraph_monotone_in_tau():
    rng = np.random.default_rng(5)
    for _ in range(10):
        graph = KnowledgeGraph()
        names = [f"node{i}" for i in range(8)]
        for _ in range(12):
            h, t = rng.choice(len(names), size=2, replace=False)
            graph.add_triplet(names[h], f"rel{rng.integers(4)}", names[t])
        keywords = make_keyword_set([names[0], "node3"], ["rel1"])
        previous = None
        for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
            selected = set(retrieve_subgraph(keywords, graph, tau, EMBED).triplets)
            if previous is not None:
                assert selected <= previous
            previous = selected


def test_retrieve_subgraph_validates_inputs():
    with pytest.raises(ValueError):
        retrieve_subgraph(make_keyword_set(["x"], []), KnowledgeGraph(), 0.3, EMBED)
    with pytest.raises(ValueError):
        retrieve_subgraph(make_keyword_set(["x"], []), chain_graph(), 1.5, EMBED)


ROWS_PER_BLOCK = kernels.block_rows(64)


def recording_embed(vectors, calls):
    """Looks `text` up in `vectors` and records it, allocating nothing per call."""
    def embed(text):
        calls.append(text)
        return vectors[text]
    return embed


@pytest.mark.parametrize("rows", [ROWS_PER_BLOCK // 2, 5 * ROWS_PER_BLOCK + 3],
                         ids=["one_block", "six_blocks"])
def test_max_relevance_embeds_in_order_and_scores_as_one_matrix(rows):
    rng = np.random.default_rng(rows)
    texts = [f"t{i % (rows - 7)}" for i in range(rows)]  # a few texts repeat
    vectors = {text: rng.standard_normal(64) for text in texts}
    vectors["t3"] = np.zeros(64)
    keywords = [rng.standard_normal(64) for _ in range(3)]
    calls = []
    best = _max_relevance(texts, keywords, recording_embed(vectors, calls))
    assert calls == texts
    matrix = np.array([vectors[text] for text in texts])
    whole = np.maximum.reduce([kernels.cosine_scores(k, matrix) for k in keywords])
    if rows <= ROWS_PER_BLOCK:
        assert np.array_equal(best, whole)
    else:  # BLAS may round a row's dot product differently in another block
        assert np.allclose(best, whole, rtol=0, atol=1e-12)


def test_max_relevance_error_row_raises_at_its_own_embedding_call():
    texts = [f"t{i}" for i in range(3 * ROWS_PER_BLOCK)]
    bad = ROWS_PER_BLOCK + 5
    vectors = {text: np.ones(64) for text in texts}
    vectors[texts[bad]] = np.ones(63)
    calls = []
    with pytest.raises(EmbeddingError, match=r"shape \(63,\)"):
        _max_relevance(texts, [np.ones(64)], recording_embed(vectors, calls))
    assert calls == texts[:bad + 1]


@pytest.mark.parametrize("entities", [2_000, 20_000])
def test_retrieve_subgraph_scratch_is_a_few_blocks_plus_a_few_words_per_row(entities):
    rng = np.random.default_rng(entities)
    graph = KnowledgeGraph()
    names = [f"e{i}" for i in range(entities)]
    for name in names:
        graph.add_entity(name)
    heads = rng.integers(entities, size=entities // 2)
    for head, step in zip(heads, rng.integers(1, entities, size=entities // 2)):
        graph.add_triplet(names[head], f"r{head % 50}", names[(head + step) % entities])
    texts = names + [f"r{i}" for i in range(50)] + ["local", "global"]
    vectors = {text: rng.standard_normal(64) for text in texts}
    peak = traced_peak(retrieve_subgraph, make_keyword_set(["local"], ["global"]), graph, 0.3,
                       vectors.__getitem__)
    rows = entities + graph.triplet_count
    assert peak < 2 * kernels.BLOCK_BYTES + 48 * rows, peak / (rows * 64 * 8)


class EmbedDouble:
    """`EMBED`, except that `fault(text)` may stand in for a text's vector or raise."""

    def __init__(self, fault=lambda text: None):
        self.fault = fault

    def embed(self, text):
        vector = self.fault(text)
        return EMBED(text) if vector is None else vector


def test_keyword_request_runs_while_the_first_entity_names_are_embedded():
    graph = chain_graph()
    names = {entity.name for entity in graph.entities}
    entity_embedded = threading.Event()

    class KeywordsAfterAnEntityEmbedding:
        def complete(self, turns, params):
            # a serial agent embeds nothing while this request is open
            assert entity_embedded.wait(5), "no entity name was embedded during the keyword request"
            return KEYWORD_JSON

    def note_entity(text):
        if text in names:
            entity_embedded.set()

    log = CallLog()
    gateway = make_gateway(chat=KeywordsAfterAnEntityEmbedding(),
                           embedding=EmbedDouble(note_entity), call_log=log)
    agent = GraphAgent(gateway, graph, templates=TEMPLATES)
    with log.collect() as calls:
        sub = agent.retrieve("q?")
    keywords = make_keyword_set(["granite"], ["rock classification"])
    assert sub == expand_one_hop(retrieve_subgraph(keywords, graph, 0.3, EMBED), graph)
    # the keyword request is listed where it started, before the embeddings made beside it
    assert [(call.kind, call.detail) for call in calls] == [
        ("chat", TEMPLATES.render("keywords", question="q?")[:120]),
        *[("embedding", text) for text in
          ["A", "B", "C", "D", "granite", "rock classification", "r1", "r2", "r3"]]]


def _serial_retrieve(agent, query):
    """`GraphAgent.retrieve` with its stages one after another."""
    keywords = agent.extract_keywords(query)
    sub = retrieve_subgraph(keywords, agent._graph, agent._tau, agent._gateway.embed_text)
    return expand_one_hop(sub, agent._graph)


def _outcome(retrieve, agent, log):
    with log.collect() as calls:
        try:
            result = retrieve(agent, "q?")
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, sorted(call.detail for call in calls)


def _fails_on(bad):
    def fault(text):
        if text == bad:
            raise GatewayError(f"embedding of {text!r} down")
    return fault


@pytest.mark.parametrize("keywords, fault, same_calls", [
    (BackendUnavailableError("chat down"), _fails_on("A"), False),
    ('{"local_keywords": [], "global_keywords": ["r2"]}', _fails_on("A"), False),
    (KEYWORD_JSON, _fails_on("B"), True),
    (KEYWORD_JSON, _fails_on("granite"), False),
    (KEYWORD_JSON, lambda text: np.ones(2) if text == "A" else None, False),
], ids=["keyword_error_wins", "unscored_entity_error_is_dropped", "entity_error",
        "keyword_embedding_error_first", "wrong_length_first_entity"])
def test_retrieve_raises_or_returns_what_the_serial_stages_do(keywords, fault, same_calls):
    """Errors keep their stage order. The calls are the serial stages' calls,
    except the first entity names embedded before an error ended the query or
    where no local keyword scores them."""
    class Chat:
        def complete(self, turns, params):
            if isinstance(keywords, Exception):
                raise keywords
            return keywords

    log = CallLog()
    agent = GraphAgent(make_gateway(chat=Chat(), embedding=EmbedDouble(fault), call_log=log),
                       chain_graph(), templates=TEMPLATES)
    overlapped, overlapped_calls = _outcome(GraphAgent.retrieve, agent, log)
    serial, serial_calls = _outcome(_serial_retrieve, agent, log)
    assert overlapped == serial
    assert (overlapped_calls == serial_calls) is same_calls
    assert set(serial_calls) <= set(overlapped_calls)


def test_first_block_embeds_one_block_of_rows_at_the_first_vector_size():
    names = [f"e{i}" for i in range(ROWS_PER_BLOCK + 3)]
    graph = KnowledgeGraph()
    for name in names:
        graph.add_entity(name)
    calls = []
    vectors = _embed_first_block(graph, recording_embed(dict.fromkeys(names, np.ones(64)), calls))
    assert calls == names[:ROWS_PER_BLOCK]
    assert len(vectors) == ROWS_PER_BLOCK
    assert _embed_first_block(KnowledgeGraph(), EMBED) == []


def test_expand_one_hop_from_seed_only():
    sub = Subgraph(triplets=(), seed_entities=frozenset({"B"}), expanded_entities=frozenset({"B"}))
    expanded = expand_one_hop(sub, chain_graph())
    assert expanded.expanded_entities == {"A", "B", "C"}
    assert set(expanded.triplets) == {("A", "r1", "B"), ("B", "r2", "C")}


def test_expand_one_hop_counts_triplet_endpoints_as_retrieved():
    sub = Subgraph(
        triplets=(("B", "r2", "C"),),
        seed_entities=frozenset({"B"}),
        expanded_entities=frozenset({"B", "C"}),
    )
    expanded = expand_one_hop(sub, chain_graph())
    assert expanded.expanded_entities == {"A", "B", "C", "D"}
    assert set(expanded.triplets) == {("A", "r1", "B"), ("B", "r2", "C"), ("C", "r3", "D")}


def test_expand_one_hop_empty_is_identity():
    sub = Subgraph(triplets=(), seed_entities=frozenset(), expanded_entities=frozenset())
    expanded = expand_one_hop(sub, chain_graph())
    assert expanded.expanded_entities == frozenset()
    assert expanded.triplets == ()


def adjacency_oracle(sub, graph):
    # brute-force reference: base nodes, then scan every triplet for adjacency
    base = set(sub.seed_entities)
    for h, _, t in sub.triplets:
        base.update((h, t))
    expanded = set(base)
    for h, _, t in graph.triplets:
        if h in base:
            expanded.add(t)
        if t in base:
            expanded.add(h)
    # the subgraph's own triplets first, then the new ones in graph order
    triplets = dict.fromkeys(sub.triplets)
    for h, r, t in graph.triplets:
        if h in expanded and t in expanded and (h in base or t in base):
            triplets.setdefault((h, r, t), None)
    return expanded, tuple(triplets)


def _random_case(name, rng):
    return "".join(c.upper() if rng.integers(2) else c.lower() for c in name)


def _random_graph_and_subgraph(rng, mixed_case):
    # mixed_case: triplets name their endpoints in random case, which the
    # graph folds onto the first-seen spelling
    graph = KnowledgeGraph()
    n = int(rng.integers(2, 30))
    names = [f"e{i}" for i in range(n)]
    for name in names:
        graph.add_entity(name)
    for _ in range(int(rng.integers(1, 3 * n))):
        h, t = rng.choice(n, size=2, replace=False)
        head, tail = names[h], names[t]
        if mixed_case:
            head, tail = _random_case(head, rng), _random_case(tail, rng)
        graph.add_triplet(head, f"r{rng.integers(5)}", tail)
    n_seeds = int(rng.integers(0, min(4, n + 1)))
    seeds = frozenset(rng.choice(names, size=n_seeds, replace=False).tolist())
    all_triplets = graph.triplets
    picked = tuple(all_triplets[i] for i in
                   rng.choice(len(all_triplets), size=min(2, len(all_triplets)), replace=False))
    sub = Subgraph(
        triplets=picked, seed_entities=seeds,
        expanded_entities=seeds | {x for t in picked for x in (t[0], t[2])},
    )
    return graph, sub


def test_expand_one_hop_matches_adjacency_oracle_on_random_graphs():
    for mixed_case in (False, True):
        rng = np.random.default_rng(17)
        for _ in range(50):
            graph, sub = _random_graph_and_subgraph(rng, mixed_case)
            expanded = expand_one_hop(sub, graph)
            oracle_entities, oracle_triplets = adjacency_oracle(sub, graph)
            assert expanded.expanded_entities == oracle_entities
            assert expanded.triplets == oracle_triplets
            assert expanded.expanded_entities >= sub.expanded_entities


def graph_evidence(graph, keywords, tau=0.3, embed=HashingEmbeddingBackend(64, 0).embed):
    return serialize_subgraph(
        expand_one_hop(retrieve_subgraph(keywords, graph, tau, embed), graph), graph)


def test_loaded_graph_keeps_first_added_order_and_evidence(tmp_path):
    graph = KnowledgeGraph()
    graph.add_triplet("Zetapolis", "capital_of", "Zeta")
    graph.add_triplet("Alphapolis", "capital_of", "Alpha")
    path = tmp_path / "graph.jsonl"
    graph.save(path)
    loaded = KnowledgeGraph.load(path)
    assert loaded.entities == graph.entities
    assert loaded.triplets == graph.triplets
    keywords = make_keyword_set([], ["capital_of"])
    evidence = graph_evidence(graph, keywords)
    assert evidence[:2] == ["Zetapolis —capital_of→ Zeta", "Alphapolis —capital_of→ Alpha"]
    assert graph_evidence(loaded, keywords) == evidence

    swapped = KnowledgeGraph()
    swapped.add_triplet("Alphapolis", "capital_of", "Alpha")
    swapped.add_triplet("Zetapolis", "capital_of", "Zeta")
    assert swapped != graph


def test_random_graphs_round_trip_in_order(tmp_path):
    rng = np.random.default_rng(23)
    path = tmp_path / "graph.jsonl"
    for _ in range(20):
        graph, sub = _random_graph_and_subgraph(rng, mixed_case=True)
        graph.save(path)
        loaded = KnowledgeGraph.load(path)
        assert loaded == graph
        assert loaded.entities == graph.entities
        assert loaded.triplets == graph.triplets
        keywords = make_keyword_set(sorted(sub.seed_entities), [t[1] for t in sub.triplets])
        assert graph_evidence(loaded, keywords) == graph_evidence(graph, keywords)


def test_serialize_includes_descriptions_and_visual_location():
    graph = KnowledgeGraph()
    graph.add_entity("earth", "blue planet")
    graph.add_entity("sun", "star", visual_location="img/sun.png")
    graph.add_triplet("earth", "orbits", "sun")
    sub = Subgraph(
        triplets=(("earth", "orbits", "sun"),),
        seed_entities=frozenset({"earth"}),
        expanded_entities=frozenset({"earth", "sun"}),
    )
    lines = serialize_subgraph(sub, graph)
    assert "earth —orbits→ sun" in lines
    assert "earth: blue planet" in lines
    assert "sun: star [visual: img/sun.png]" in lines


def test_answer_over_serialized_triplets():
    graph = KnowledgeGraph()
    graph.add_triplet("earth", "orbits", "sun")
    sub = Subgraph(
        triplets=(("earth", "orbits", "sun"),),
        seed_entities=frozenset({"earth"}),
        expanded_entities=frozenset({"earth", "sun"}),
    )
    evidence = "\n".join(serialize_subgraph(sub, graph))
    prompt = TEMPLATES.render("graph_answer", question="What orbits?", evidence=evidence)
    chat = ScriptedChatBackend().add(user_turns(prompt), "The Earth orbits the Sun.")
    agent = GraphAgent(make_gateway(chat=chat, lightweight=chat), graph, templates=TEMPLATES)
    candidate = agent.answer("What orbits?", sub)
    assert candidate.text == "The Earth orbits the Sun."
    assert candidate.source == "graph"
    assert agent.answer("What orbits?", sub) == candidate


def test_answer_with_empty_subgraph_states_no_evidence():
    graph = chain_graph()
    sub = Subgraph(triplets=(), seed_entities=frozenset(), expanded_entities=frozenset())
    prompt = TEMPLATES.render("graph_answer", question="q?", evidence="(no graph evidence retrieved)")
    chat = ScriptedChatBackend().add(user_turns(prompt), "Insufficient graph evidence.")
    agent = GraphAgent(make_gateway(chat=chat), graph, templates=TEMPLATES)
    candidate = agent.answer("q?", sub)
    assert candidate.text == "Insufficient graph evidence."
    assert candidate.evidence == ()


def test_run_marks_unavailable_on_backend_failure():
    class DeadChat:
        def complete(self, turns, params):
            raise BackendUnavailableError("down")

    agent = GraphAgent(make_gateway(chat=DeadChat()), chain_graph(), templates=TEMPLATES)
    candidate = agent.run("question?")
    assert candidate == AnswerCandidate(text="", source="graph", evidence=(), summary=None,
                                        available=False)
