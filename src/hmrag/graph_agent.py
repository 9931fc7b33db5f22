"""Relational retrieval over the knowledge graph.

Keywords come in two levels: local keywords match entity names, global
keywords match relation text. Both matches are embedding-cosine scores
gated by a threshold tau, selection is monotone in tau by construction.
The retrieved subgraph then grows by one hop around its seed entities
and triplet endpoints before being serialized for answer generation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .decision import AnswerCandidate, run_agent
from .errors import trace_warning
from .gateway import parse_json, start_in_threads
from .ingest import KnowledgeGraph, check_embedding
from .kernels import block_rows, cosine_scores
from .templates import TemplateSet

_STOPWORDS = frozenset("""
a an the is are was were be been being what which who whom whose when where why
how of in on at to for with and or do does did this that these those it its from
by as can could will would should may might not no than then there here about
into over under between during each such both more most other some any only own
same so too very
""".split())

_EMPTY_EVIDENCE = "(no graph evidence retrieved)"


@dataclass(frozen=True)
class KeywordSet:
    local: tuple[str, ...]
    global_: tuple[str, ...]


def _normalize_keywords(values) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for value in values:
        keyword = value.casefold().strip()
        if keyword:
            seen.setdefault(keyword, None)
    return tuple(seen)


def make_keyword_set(local, global_) -> KeywordSet:
    return KeywordSet(local=_normalize_keywords(local), global_=_normalize_keywords(global_))


def fallback_keywords(query: str) -> KeywordSet:
    """Content words of the query (stopwords removed) as local keywords."""
    stripped = (w.strip("?.,:;!\"'()") for w in query.casefold().split())
    content = [w for w in stripped if w and w not in _STOPWORDS]
    return make_keyword_set(content, [])


@dataclass(frozen=True)
class Subgraph:
    triplets: tuple[tuple[str, str, str], ...]
    seed_entities: frozenset[str]
    expanded_entities: frozenset[str]


def _max_relevance(texts: list[str], keyword_vectors: list[np.ndarray], embed,
                   embedded=()) -> np.ndarray:
    """Per-text maximum cosine against any keyword vector. The graph holds no
    vectors, so one call's vectors need only match the first keyword vector.
    Texts are embedded and scored one block of rows at a time, in order.
    `embedded` holds the embeddings of the first texts, made beforehand; an
    exception among them is raised where that text's embedding call would be."""
    if not texts or not keyword_vectors:
        return np.zeros(len(texts), dtype=np.float64)
    dim = np.size(keyword_vectors[0])
    step = block_rows(dim)
    block = np.empty((min(len(texts), step), dim), dtype=np.float64)
    best = np.full(len(texts), -np.inf, dtype=np.float64)
    for start in range(0, len(texts), step):
        block_texts = texts[start:start + step]
        rows = block[:len(block_texts)]
        for row, text in enumerate(block_texts):
            index = start + row
            vector = embedded[index] if index < len(embedded) else embed(text)
            if isinstance(vector, Exception):
                raise vector
            rows[row] = check_embedding(vector, dim)
        block_best = best[start:start + len(block_texts)]
        for vector in keyword_vectors:
            scores = cosine_scores(check_embedding(vector, dim), rows)
            np.maximum(block_best, scores, out=block_best)
    return best


def _embed_first_block(graph: KnowledgeGraph, embed) -> list:
    """The embeddings of the graph's first entity names, in order: as many as
    fill one block of rows at the first embedding's size. An embedding that
    raises ends the list as its exception."""
    vectors = []
    try:
        for entity in graph.entities:
            vectors.append(embed(entity.name))
            if len(vectors) == block_rows(np.size(vectors[0])):
                break
    except Exception as exc:  # raised only if scoring reaches that name
        vectors.append(exc)
    return vectors


def retrieve_subgraph(keywords: KeywordSet, graph: KnowledgeGraph, tau: float, embed,
                      *, entity_vectors=()) -> Subgraph:
    """Threshold-gated triplet selection, local entity phase first.

    Entities whose name scores above tau against a local keyword become
    seeds and pull in their incident triplets; relations scoring above
    tau against a global keyword pull in their triplet regardless of
    entity matches. `entity_vectors` may hold the first entity names'
    embeddings, as `_embed_first_block` makes them.
    """
    if len(graph) == 0:
        raise ValueError("cannot retrieve from an empty graph")
    if not 0 <= tau <= 1:
        raise ValueError("tau must be in [0, 1]")

    local_vectors = [embed(k) for k in keywords.local]
    global_vectors = [embed(k) for k in keywords.global_]

    entity_names = [e.name for e in graph.entities]
    entity_scores = _max_relevance(entity_names, local_vectors, embed, entity_vectors)
    seeds = {name for name, score in zip(entity_names, entity_scores) if score > tau}

    triplets = graph.triplets
    relation_scores = _max_relevance([t[1] for t in triplets], global_vectors, embed)
    # entity-incident triplets first, then relation matches, each in graph order
    selected = dict.fromkeys(
        [t for t in triplets if t[0] in seeds or t[2] in seeds]
        + [t for t, score in zip(triplets, relation_scores) if score > tau])

    endpoints = {name for t in selected for name in (t[0], t[2])}
    return Subgraph(
        triplets=tuple(selected),
        seed_entities=frozenset(seeds),
        expanded_entities=frozenset(seeds | endpoints),
    )


def expand_one_hop(sub: Subgraph, graph: KnowledgeGraph) -> Subgraph:
    """Grow the subgraph by the immediate neighborhood of its members.

    Retrieved nodes are `sub.expanded_entities`: the seeds plus every endpoint
    of a retrieved triplet, as `retrieve_subgraph` builds it. Every graph
    triplet incident to one is added, and its endpoints join the entity set.
    """
    base = sub.expanded_entities
    expanded = set(base)
    triplets: dict[tuple[str, str, str], None] = dict.fromkeys(sub.triplets)
    for triplet in graph.triplets:
        head, _, tail = triplet
        if head in base or tail in base:
            expanded.add(head)
            expanded.add(tail)
            triplets.setdefault(triplet, None)
    return Subgraph(
        triplets=tuple(triplets),
        seed_entities=sub.seed_entities,
        expanded_entities=frozenset(expanded),
    )


def serialize_subgraph(sub: Subgraph, graph: KnowledgeGraph) -> list[str]:
    """Triplet lines plus the description and visual location of each entity."""
    lines = [f"{head} —{relation}→ {tail}" for head, relation, tail in sub.triplets]
    for name in sorted(sub.expanded_entities, key=str.casefold):
        entity = graph.get_entity(name)
        line = f"{entity.name}: {entity.description}" if entity.description else f"{entity.name}:"
        if entity.visual_location:
            line += f" [visual: {entity.visual_location}]"
        lines.append(line)
    return lines


class GraphAgent:
    """Read-only over an immutable graph; safe for concurrent queries."""

    source = "graph"

    def __init__(self, gateway, graph: KnowledgeGraph, tau: float = DEFAULTS["graph.tau"],
                 templates: TemplateSet | None = None):
        self._gateway = gateway
        self._graph = graph
        self._tau = tau
        self._templates = templates or TemplateSet()

    def extract_keywords(self, query: str, warnings: list[str] | None = None) -> KeywordSet:
        if not query or not query.strip():
            raise ValueError("query must be non-empty")
        prompt = self._templates.render("keywords", question=query)
        response = self._gateway.complete_chat(prompt)
        parsed = _parse_keyword_response(response)
        if parsed is None:
            trace_warning(warnings, "keyword extraction unparseable, falling back to query "
                                    f"content words: {response[:60]!r}")
            return fallback_keywords(query)
        return parsed

    def retrieve(self, query: str, warnings: list[str] | None = None) -> Subgraph:
        # the keyword request runs while this thread embeds the first entity names,
        # which need no keyword; a task's calls are listed where it started
        wait = start_in_threads([functools.partial(self.extract_keywords, query, warnings)])
        try:
            entity_vectors = _embed_first_block(self._graph, self._gateway.embed_text)
        finally:
            (keywords,) = wait()
        sub = retrieve_subgraph(keywords.result(), self._graph, self._tau,
                                self._gateway.embed_text, entity_vectors=entity_vectors)
        return expand_one_hop(sub, self._graph)

    def answer(self, query: str, sub: Subgraph) -> AnswerCandidate:
        lines = serialize_subgraph(sub, self._graph)
        evidence_text = "\n".join(lines) if lines else _EMPTY_EVIDENCE
        prompt = self._templates.render("graph_answer", question=query, evidence=evidence_text)
        text = self._gateway.complete_chat(prompt, role="lightweight_chat")
        return AnswerCandidate(text=text, source=self.source, evidence=tuple(lines))

    def run(self, query: str, warnings: list[str] | None = None) -> AnswerCandidate:
        return run_agent(self, query, warnings)


def _parse_keyword_response(response: str) -> KeywordSet | None:
    text = response.strip()
    if text.startswith("```"):
        text = text.strip("`")
        if text[:4].lower() == "json":
            text = text[4:]
    try:
        data = parse_json(text)
    except ValueError:
        return None
    if not isinstance(data, dict):
        return None
    local = data.get("local_keywords", [])
    global_ = data.get("global_keywords", [])
    if not all(isinstance(keywords, list) and all(isinstance(k, str) for k in keywords)
               for keywords in (local, global_)):
        return None
    return make_keyword_set(local, global_)
