"""Fine-grained retrieval: cosine ranking over the embedding index.

Search is exact and exhaustive; at the corpus sizes this engine targets
that is cheaper than approximate structures and trivially testable.
Ties are broken by ascending chunk_id so rankings are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .decision import AnswerCandidate, run_agent
from .errors import EmbeddingError
from .ingest import Chunk, EmbeddingIndex, check_embedding
from .kernels import cosine_scores
from .templates import TemplateSet


@dataclass(frozen=True)
class ScoredChunk:
    chunk: Chunk
    score: float


@dataclass(frozen=True)
class RetrievalResult:
    query: str
    top: tuple[ScoredChunk, ...]

    def __post_init__(self):
        scores = [s.score for s in self.top]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("top list must be sorted by non-increasing score")


def _scores(query_vec: np.ndarray, index: EmbeddingIndex) -> np.ndarray:
    """Cosine score of a validated query against every index record, in index order."""
    query_vec = check_embedding(query_vec, index.dim)
    if not query_vec.any():
        raise EmbeddingError("query vector must be non-zero")
    return cosine_scores(query_vec, index.matrix)


def score_all(query_vec: np.ndarray, index: EmbeddingIndex) -> list[ScoredChunk]:
    """One cosine score per index record, in index order."""
    scores = _scores(query_vec, index)
    return [ScoredChunk(index.record(i), float(scores[i])) for i in range(len(index))]


def top_k_by_vector(query: str, query_vec: np.ndarray, index: EmbeddingIndex, k: int) -> RetrievalResult:
    """Select the k best records, ties broken by ascending chunk_id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(index) == 0:
        raise ValueError("cannot retrieve from an empty index")
    scores = _scores(query_vec, index)
    order = np.lexsort((index.id_rank, -scores))
    top = tuple(ScoredChunk(index.record(i), float(scores[i])) for i in order[:k])
    return RetrievalResult(query=query, top=top)


def build_prompt(query: str, chunk_texts, header: str) -> str:
    """Assemble the generation prompt: question, context header, ranked chunks.

    Every section is announced with its exact character length, so the
    prompt parses back unambiguously: distinct (query, chunk list)
    inputs can never collide.
    """
    parts = [f"Question ({len(query)} chars):", query, ""]
    parts.append(header.rstrip("\n"))
    parts.append("")
    parts.append(f"Context chunks: {len(chunk_texts)}")
    for i, text in enumerate(chunk_texts, 1):
        parts.append(f"[chunk {i}/{len(chunk_texts)} | {len(text)} chars]")
        parts.append(text)
    return "\n".join(parts)


class VectorAgent:
    """Read-only over an immutable index; safe for concurrent queries."""

    source = "vector"

    def __init__(self, gateway, index: EmbeddingIndex, top_k: int = DEFAULTS["retrieval.top_k"],
                 templates: TemplateSet | None = None):
        self._gateway = gateway
        self._index = index
        self._top_k = top_k
        self._templates = templates or TemplateSet()

    def retrieve(self, query: str, warnings: list[str] | None = None) -> RetrievalResult:
        query_vec = self._gateway.embed_text(query)
        return top_k_by_vector(query, query_vec, self._index, self._top_k)

    def answer(self, query: str, result: RetrievalResult) -> AnswerCandidate:
        if not result.top:
            raise ValueError("retrieval result has no chunks")
        chunk_texts = [s.chunk.text for s in result.top]
        prompt = build_prompt(query, chunk_texts, self._templates.text("vector_header"))
        text = self._gateway.complete_chat(prompt)
        return AnswerCandidate(text=text, source=self.source, evidence=tuple(chunk_texts))

    def run(self, query: str, warnings: list[str] | None = None) -> AnswerCandidate:
        return run_agent(self, query, warnings)
