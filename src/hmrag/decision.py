"""Arbitration of the retrieval agents' answers.

Each distinct available answer text is summarized once, on a thread of
its own. A summary starts as soon as two available answers have arrived,
or its text arrives later, so it runs beside the slower retrieval agents.
Pairwise agreement is scored with an LCS-overlap metric and a clipped
n-gram precision metric, and the fused mean decides the route: agreeing
answers are merged by the lightweight model, conflicting ones go to the
expert model with full evidence attached.

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

import functools
import itertools
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from statistics import mean

from .config import DEFAULTS
from .errors import GatewayError, PipelineError, trace_warning
from .gateway import start_in_thread
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
    return lcs_length(a, b) / max(len(a), len(b))


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


def pair_metrics(tokens_a, tokens_b, fusion_lambda: float) -> tuple[float, float, float]:
    """(LCS overlap, symmetrized n-gram precision, their lambda-weighted blend) of two token lists."""
    rouge = rouge_l(tokens_a, tokens_b)
    sym_bleu = (bleu(tokens_a, tokens_b) + bleu(tokens_b, tokens_a)) / 2
    return rouge, sym_bleu, fusion_lambda * rouge + (1 - fusion_lambda) * sym_bleu


def fused_similarity(a: AnswerCandidate, b: AnswerCandidate, fusion_lambda: float) -> float:
    """lambda-weighted blend of LCS overlap and symmetrized n-gram precision."""
    if not 0 <= fusion_lambda <= 1:
        raise ValueError("fusion_lambda must be in [0, 1]")
    if a.summary is None or b.summary is None:
        raise ValueError("both candidates need summaries before scoring")
    return pair_metrics(tokenize(a.summary), tokenize(b.summary), fusion_lambda)[2]


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
                 fusion_lambda: float = DEFAULTS["decision.fusion_lambda"],
                 consensus_threshold: float = DEFAULTS["decision.consensus_threshold"],
                 summary_token_budget: int = DEFAULTS["decision.summary_token_budget"]):
        self._gateway = gateway
        self._templates = templates or TemplateSet()
        self.fusion_lambda = fusion_lambda
        self.consensus_threshold = consensus_threshold
        self.summary_token_budget = summary_token_budget

    def summarize(self, text: str) -> str:
        """One summary request: a short model-written summary of `text`. A failed
        request raises its GatewayError."""
        prompt = self._templates.render("summarize", text=text, budget=self.summary_token_budget)
        return self._gateway.complete_chat(
            prompt, role="lightweight_chat", max_tokens=self.summary_token_budget)

    def start_summaries(self, candidates, started: dict) -> None:
        """Once two of `candidates` are available, start the summary of each
        distinct text among the available ones lacking a summary that `started`
        (text -> the `wait` of `start_in_thread`) does not hold yet, on a thread
        of its own. A caller may offer the candidates as they arrive."""
        if sum(c.available for c in candidates) < 2:
            return
        for c in candidates:
            if c.available and c.summary is None and c.text not in started:
                started[c.text] = start_in_thread(functools.partial(self.summarize, c.text))

    def _summarize_distinct(self, candidates, warnings: list[str] | None,
                            started: dict) -> list[AnswerCandidate]:
        """Summarize once each distinct text of the candidates still lacking a
        summary, and give each summary to every candidate with that text. The
        summaries in `started`, begun while the candidates arrived, are waited
        for, and the missing ones are started now; their calls join the trace in
        candidate order. Decoding is pinned, so a repeated prompt could only
        repeat the summary.

        A failed summary marks every sharer unavailable, each with its own
        warning "{source} summary failed: {error}", in candidate order once every
        summary has ended; an error that is not a GatewayError is raised.
        """
        self.start_summaries(candidates, started)
        texts = dict.fromkeys(c.text for c in candidates if c.available and c.summary is None)
        futures = {text: started[text]() for text in texts}
        worked = []
        for c in candidates:
            if not c.available or c.summary is not None:
                worked.append(c)
                continue
            try:
                worked.append(replace(c, summary=futures[c.text].result()))
            except GatewayError as exc:
                trace_warning(warnings, f"{c.source} summary failed: {exc}")
                worked.append(replace(c, available=False))
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

    def decide(self, query: str, candidates, warnings: list[str] | None = None,
               started: dict | None = None) -> tuple[str, ConsensusReport, list[AnswerCandidate]]:
        """Vote over the available candidates and produce the final text.

        `started` holds the summaries `start_summaries` began as the candidates
        arrived; decide starts the rest. A failed summary adds one warning to
        `warnings`, when given, for each candidate sharing its text.

        Returns the final answer, the consensus report, and the candidate
        list as it stood at voting time (summaries attached, failures
        marked unavailable).
        """
        worked = list(candidates)
        if not any(c.available for c in worked):
            raise PipelineError("no available answer candidates to decide over")

        if sum(c.available for c in worked) >= 2:
            worked = self._summarize_distinct(worked, warnings, started or {})
        available = [c for c in worked if c.available]
        if not available:
            raise PipelineError("all candidates became unavailable during summarization")

        pair_scores: dict[str, dict[str, float]] = {}
        fused_values = []
        summarized = [(c.source, tokenize(c.summary)) for c in available if c.summary is not None]
        for (source_a, tokens_a), (source_b, tokens_b) in itertools.combinations(summarized, 2):
            rouge, sym_bleu, fused = pair_metrics(tokens_a, tokens_b, self.fusion_lambda)
            pair_scores[_pair_key(source_a, source_b)] = {
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
