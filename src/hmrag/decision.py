"""Arbitration of the retrieval agents' answers.

Each distinct available answer text is summarized once, all texts in
one concurrent round; pairwise agreement is scored with an LCS-overlap
metric and a clipped n-gram precision metric, and the fused mean
decides the route: agreeing answers are merged by the lightweight
model, conflicting ones go to the expert model with full evidence
attached.

Metric conventions, fixed for reproducibility:
  - tokenization case-folds and splits on whitespace and punctuation;
  - LCS overlap normalizes by the longer sequence;
  - n-gram precision uses n up to min(4, len(candidate)), each n weighing
    1/4, collapses to 0 when any used precision is 0 (no smoothing), and
    applies a min(1, len(ref)/len(cand)) factor that penalizes long
    candidates;
  - pairwise fusion symmetrizes the directional n-gram metric so voting
    is order-independent.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import itertools
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from statistics import mean

import numpy as np

from .errors import GatewayError, PipelineError, trace_warning
from .kernels import lcs_length
from .templates import TemplateSet

logger = logging.getLogger(__name__)

SOURCES = ("vector", "graph", "web")
ROUTE_LIGHTWEIGHT = "lightweight"
ROUTE_EXPERT = "expert"
BLEU_MAX_N = 4

_WORD = re.compile(r"\w+")


@dataclass(frozen=True)
class AnswerCandidate:
    text: str
    source: str
    evidence: tuple[str, ...] = ()
    summary: str | None = None
    available: bool = True

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown candidate source {self.source!r}")


def unavailable_candidate(source: str) -> AnswerCandidate:
    return AnswerCandidate(text="", source=source, evidence=(), summary=None, available=False)


def run_agent(agent, query: str, warnings: list[str] | None = None) -> AnswerCandidate:
    """Run a retrieval agent's `retrieve` then `answer` step.

    This is the one failure path of the retrieval agents: a GatewayError
    from either step gives an unavailable candidate and exactly one
    warning, "{source} {stage} failed: {error}".
    """
    stage = "retrieval"
    try:
        evidence = agent.retrieve(query, warnings)
        stage = "answer"
        return agent.answer(query, evidence)
    except GatewayError as exc:
        trace_warning(warnings, f"{agent.source} {stage} failed: {exc}")
        return unavailable_candidate(agent.source)


@dataclass(frozen=True)
class ConsensusReport:
    pair_scores: dict[str, dict[str, float]]
    mean_fused: float
    threshold: float
    consensus: bool
    route: str

    def __post_init__(self):
        for pair, scores in self.pair_scores.items():
            for metric, value in scores.items():
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{pair} {metric} score {value} outside [0, 1]")
        if not 0.0 <= self.mean_fused <= 1.0:
            raise ValueError(f"mean_fused {self.mean_fused} outside [0, 1]")
        if self.consensus != (self.mean_fused >= self.threshold):
            raise ValueError("consensus flag inconsistent with mean_fused vs threshold")
        expected_route = ROUTE_LIGHTWEIGHT if self.consensus else ROUTE_EXPERT
        if self.route != expected_route:
            raise ValueError(f"route {self.route!r} inconsistent with consensus={self.consensus}")


def tokenize(text: str) -> list[str]:
    """Case-fold and split on whitespace and punctuation."""
    return _WORD.findall(text.casefold())


def rouge_l(a, b) -> float:
    """LCS(a, b) / max(|a|, |b|); empty input scores 0 rather than raising."""
    a, b = list(a), list(b)
    if not a or not b:
        logger.warning("rouge_l over an empty token sequence scores 0")
        return 0.0
    vocab: dict[str, int] = {}
    ids_a = np.array([vocab.setdefault(t, len(vocab)) for t in a], dtype=np.int64)
    ids_b = np.array([vocab.setdefault(t, len(vocab)) for t in b], dtype=np.int64)
    return lcs_length(ids_a, ids_b) / max(len(a), len(b))


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate, reference) -> float:
    """Uniformly weighted n-gram precision of `candidate` against `reference`.

    n runs from 1 to min(BLEU_MAX_N, len(candidate)); each n weighs
    1/BLEU_MAX_N, without renormalization over the used range.
    """
    candidate, reference = list(candidate), list(reference)
    weight = 1.0 / BLEU_MAX_N
    if not candidate:
        logger.warning("bleu over an empty candidate scores 0")
        return 0.0
    if not reference:
        return 0.0
    log_sum = 0.0
    for n in range(1, min(BLEU_MAX_N, len(candidate)) + 1):
        counts = _ngram_counts(candidate, n)
        clipped = counts & _ngram_counts(reference, n)
        precision = sum(clipped.values()) / sum(counts.values())
        if precision == 0.0:
            return 0.0
        log_sum += weight * math.log(precision)
    brevity = min(1.0, len(reference) / len(candidate))
    return math.exp(log_sum) * brevity


def pair_metrics(summary_a: str, summary_b: str, fusion_lambda: float) -> tuple[float, float, float]:
    """(LCS overlap, symmetrized n-gram precision, their lambda-weighted blend)."""
    tokens_a, tokens_b = tokenize(summary_a), tokenize(summary_b)
    rouge = rouge_l(tokens_a, tokens_b)
    sym_bleu = (bleu(tokens_a, tokens_b) + bleu(tokens_b, tokens_a)) / 2
    return rouge, sym_bleu, fusion_lambda * rouge + (1 - fusion_lambda) * sym_bleu


def fused_similarity(a: AnswerCandidate, b: AnswerCandidate, fusion_lambda: float) -> float:
    """lambda-weighted blend of LCS overlap and symmetrized n-gram precision."""
    if not 0 <= fusion_lambda <= 1:
        raise ValueError("fusion_lambda must be in [0, 1]")
    if a.summary is None or b.summary is None:
        raise ValueError("both candidates need summaries before scoring")
    return pair_metrics(a.summary, b.summary, fusion_lambda)[2]


def format_answers(candidates, with_evidence: bool = False) -> str:
    blocks = []
    for candidate in candidates:
        lines = [f"[{candidate.source}] {candidate.text}"]
        if with_evidence:
            lines.extend(f"  evidence: {item}" for item in candidate.evidence)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _pair_key(source_a: str, source_b: str) -> str:
    return "|".join(sorted((source_a, source_b)))


class DecisionAgent:
    def __init__(self, gateway, templates: TemplateSet | None = None,
                 fusion_lambda: float = 0.5, consensus_threshold: float = 0.5,
                 summary_token_budget: int = 64):
        self._gateway = gateway
        self._templates = templates or TemplateSet()
        self.fusion_lambda = fusion_lambda
        self.consensus_threshold = consensus_threshold
        self.summary_token_budget = summary_token_budget

    def summarize(self, candidate: AnswerCandidate,
                  warnings: list[str] | None = None) -> AnswerCandidate:
        """Attach a short model-written summary; unavailable candidates pass through.

        A GatewayError marks the candidate unavailable and adds one warning,
        "{source} summary failed: {error}".
        """
        if not candidate.available:
            return candidate
        prompt = self._templates.render(
            "summarize", text=candidate.text, budget=self.summary_token_budget
        )
        try:
            summary = self._gateway.complete_chat(
                prompt, role="lightweight_chat", max_tokens=self.summary_token_budget
            )
        except GatewayError as exc:
            trace_warning(warnings, f"{candidate.source} summary failed: {exc}")
            return replace(candidate, available=False)
        return replace(candidate, summary=summary)

    def _summarize_distinct(self, candidates, warnings: list[str] | None
                            ) -> list[AnswerCandidate]:
        """Summarize once each distinct text of the candidates still lacking a
        summary, all texts in one concurrent round, and give each summary to every
        candidate with that text. Decoding is pinned, so a repeated prompt could
        only repeat the summary.

        A failed summary marks every sharer unavailable with its own warning;
        the warnings follow in candidate order once the round has ended.
        """
        firsts: dict[str, AnswerCandidate] = {}  # text -> first candidate needing it
        for c in candidates:
            if c.available and c.summary is None:
                firsts.setdefault(c.text, c)
        failures = {text: [] for text in firsts}
        if len(firsts) < 2:
            done = {text: self.summarize(c, failures[text]) for text, c in firsts.items()}
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=min(len(firsts), 3)) as pool:
                # each task runs in a copy of the query's context, so its call
                # lands in this query's call list
                futures = {text: pool.submit(contextvars.copy_context().run,
                                             self.summarize, c, failures[text])
                           for text, c in firsts.items()}
            done = {text: future.result() for text, future in futures.items()}

        worked = []
        for c in candidates:
            summarized = done.get(c.text) if c.available and c.summary is None else None
            if summarized is None:
                worked.append(c)
            elif summarized.available:
                worked.append(replace(c, summary=summarized.summary))
            else:
                worked.append(replace(c, available=False))
                # summarize already logged the first sharer's warning
                first, (message,) = firsts[c.text], failures[c.text]
                if c is first:
                    if warnings is not None:
                        warnings.append(message)
                else:
                    trace_warning(warnings, c.source + message[len(first.source):])
        return worked

    def _refine(self, query: str, candidates, route: str) -> str:
        if route == ROUTE_LIGHTWEIGHT:
            prompt = self._templates.render(
                "refine_lightweight", question=query, answers=format_answers(candidates)
            )
            role = "lightweight_chat"
        else:
            prompt = self._templates.render(
                "refine_expert", question=query,
                answers=format_answers(candidates, with_evidence=True),
            )
            role = "expert_chat"
        return self._gateway.complete_chat(prompt, role=role)

    def decide(self, query: str, candidates, warnings: list[str] | None = None
               ) -> tuple[str, ConsensusReport, list[AnswerCandidate]]:
        """Vote over the available candidates and produce the final text.

        A failed summary adds its warning to `warnings`, when given.

        Returns the final answer, the consensus report, and the candidate
        list as it stood at voting time (summaries attached, failures
        marked unavailable).
        """
        worked = list(candidates)
        if not any(c.available for c in worked):
            raise PipelineError("no available answer candidates to decide over")

        if sum(c.available for c in worked) >= 2:
            worked = self._summarize_distinct(worked, warnings)
        available = [c for c in worked if c.available]
        if not available:
            raise PipelineError("all candidates became unavailable during summarization")

        pair_scores: dict[str, dict[str, float]] = {}
        fused_values = []
        for a, b in itertools.combinations(available, 2):
            rouge, sym_bleu, fused = pair_metrics(a.summary, b.summary, self.fusion_lambda)
            pair_scores[_pair_key(a.source, b.source)] = {
                "rouge_l": rouge, "bleu": sym_bleu, "fused": fused,
            }
            fused_values.append(fused)

        # a lone answer has no pair, so nothing to disagree with: fully consistent
        mean_fused = mean(fused_values) if fused_values else 1.0
        consensus = mean_fused >= self.consensus_threshold
        route = ROUTE_LIGHTWEIGHT if consensus else ROUTE_EXPERT
        report = ConsensusReport(
            pair_scores=pair_scores, mean_fused=mean_fused,
            threshold=self.consensus_threshold, consensus=consensus, route=route,
        )
        final = self._refine(query, available, route)
        return final, report, worked
