"""End-to-end query orchestration.

A query is decomposed, each sub-query fans out concurrently to the
enabled retrieval agents, the decision agent arbitrates the candidates,
and sub-answers chain forward as context for later sub-queries. Every
stage lands in a QueryTrace, including each backend call with its role.

With the decision stage disabled (ablation), the web candidate is taken
verbatim, falling back to vector then graph.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

from .config import DEFAULTS
from .decompose import DecompositionAgent, SubQueryPlan
from .decision import (
    SOURCES,
    AnswerCandidate,
    ConsensusReport,
    DecisionAgent,
    unavailable_candidate,
)
from .errors import GatewayError, PipelineError, trace_warning
from .gateway import CallLog, ModelGateway, parse_json, start_in_threads
from .ingest import EmbeddingIndex, KnowledgeGraph
from .graph_agent import GraphAgent
from .templates import TemplateSet
from .vector_agent import VectorAgent
from .web_agent import SearchConfig, WebAgent

logger = logging.getLogger(__name__)

FALLBACK_ORDER = ("web", "vector", "graph")  # decision-disabled preference

_CHOICE_LETTER = re.compile(r"\b([A-E])\b")
_PARENTHESIZED_LETTER = re.compile(r"\(([A-E])\)")
_CHOICE_LABELS = "ABCDE"


@dataclass(frozen=True)
class PipelineConfig:
    enabled_agents: tuple[str, ...] = SOURCES
    decision_enabled: bool = DEFAULTS["decision.enabled"]
    top_k: int = DEFAULTS["retrieval.top_k"]
    tau: float = DEFAULTS["graph.tau"]
    fusion_lambda: float = DEFAULTS["decision.fusion_lambda"]
    consensus_threshold: float = DEFAULTS["decision.consensus_threshold"]
    summary_token_budget: int = DEFAULTS["decision.summary_token_budget"]
    agent_timeout_s: float = DEFAULTS["orchestrator.agent_timeout_s"]
    search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self):
        unknown = set(self.enabled_agents) - set(SOURCES)
        if unknown:
            raise ValueError(f"unknown agents {sorted(unknown)}")
        if not self.enabled_agents:
            raise ValueError("at least one retrieval agent must be enabled")
        for name in ("tau", "fusion_lambda", "consensus_threshold"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("top_k", "summary_token_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 < self.agent_timeout_s <= threading.TIMEOUT_MAX:  # refuses nan too
            raise ValueError(f"agent_timeout_s must be in (0, {threading.TIMEOUT_MAX}]")


@dataclass
class SubQueryTrace:
    sub_query: str
    contextual_query: str
    candidates: list[AnswerCandidate] = field(default_factory=list)
    report: ConsensusReport | None = None
    answer: str = ""
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class QueryTrace:
    question: str
    plan: SubQueryPlan | None = None
    entries: list[SubQueryTrace] = field(default_factory=list)
    final_answer: str = ""
    warnings: list[str] = field(default_factory=list)
    calls: list = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def normalized(self) -> dict:
        """Comparison form: the trace with its timing fields dropped."""
        data = asdict(self)
        del data["timings"]
        for entry in data["entries"]:
            del entry["timings"]
        return data

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False, indent=2, sort_keys=True)


def _qa_blocks(prior: list[tuple[str, str]]) -> str:
    return "\n\n".join(f"Q: {q}\nA: {a}" for q, a in prior)


def compose_contextual_query(sub_query: str, prior: list[tuple[str, str]]) -> str:
    if not prior:
        return sub_query
    return sub_query + "\n\nAnswers to earlier sub-questions:\n" + _qa_blocks(prior)


class Pipeline:
    """Wires decomposition, retrieval fan-out, and decision per query.

    Stores are immutable and shared; agents for one sub-query run
    concurrently while sub-queries themselves run in order because each
    one can depend on earlier answers.
    """

    def __init__(self, gateway: ModelGateway, index: EmbeddingIndex | None,
                 graph: KnowledgeGraph | None, web_client=None,
                 cfg: PipelineConfig | None = None, templates: TemplateSet | None = None,
                 call_log: CallLog | None = None):
        self.cfg = cfg or PipelineConfig()
        self._templates = templates or TemplateSet()
        self._gateway = gateway
        self._call_log = call_log
        self._decomposer = DecompositionAgent(gateway, self._templates)
        self._decision = DecisionAgent(
            gateway, self._templates,
            fusion_lambda=self.cfg.fusion_lambda,
            consensus_threshold=self.cfg.consensus_threshold,
            summary_token_budget=self.cfg.summary_token_budget,
        )
        self._agents = {}
        if "vector" in self.cfg.enabled_agents:
            if index is None or len(index) == 0:
                raise PipelineError("vector agent enabled but no index loaded, or it is empty")
            self._agents["vector"] = VectorAgent(gateway, index, self.cfg.top_k, self._templates)
        if "graph" in self.cfg.enabled_agents:
            if graph is None or len(graph) == 0:
                raise PipelineError("graph agent enabled but no graph loaded, or it is empty")
            self._agents["graph"] = GraphAgent(gateway, graph, self.cfg.tau, self._templates)
        if "web" in self.cfg.enabled_agents:
            if web_client is None:
                raise PipelineError("web agent enabled but no search client configured")
            self._agents["web"] = WebAgent(gateway, web_client, self.cfg.search, self._templates)
        self._order = tuple(s for s in SOURCES if s in self._agents)

    def _fan_out(self, query: str, entry: SubQueryTrace) -> tuple[list[AnswerCandidate], dict]:
        """The agents' candidates in agent order, and the summaries started as
        they arrived in time (see `DecisionAgent.start_summaries`)."""
        # one list per agent, so a timed-out agent's late warnings stay out of the trace
        warnings = {source: [] for source in self._order}
        runs = [functools.partial(self._agents[source].run, query, warnings[source])
                for source in self._order]
        arrived, summaries = [], {}

        def on_finish(future):
            if self.cfg.decision_enabled and future.exception() is None:
                arrived.append(future.result())
                self._decision.start_summaries(arrived, summaries)

        # one deadline for all agents, counted from the start of the fan-out
        futures = start_in_threads(runs)(self.cfg.agent_timeout_s, on_finish)
        candidates = []
        for source, future in zip(self._order, futures):
            if future is not None:
                candidates.append(future.result())
                entry.warnings.extend(warnings[source])
            else:
                candidates.append(unavailable_candidate(source))
                trace_warning(entry.warnings,
                              f"{source} agent timed out after {self.cfg.agent_timeout_s}s")
        return candidates, summaries

    def _fallback_answer(self, candidates: list[AnswerCandidate]) -> AnswerCandidate | None:
        by_source = {c.source: c for c in candidates if c.available}
        return next((by_source[s] for s in FALLBACK_ORDER if s in by_source), None)

    def run_query(self, question: str) -> QueryTrace:
        if not question or not question.strip():
            raise ValueError("question must be non-empty")
        trace = QueryTrace(question=question)
        started = time.perf_counter()
        calls = self._call_log.collect() if self._call_log is not None else nullcontext([])
        with calls as records:
            try:
                plan = self._decomposer.decompose(question, trace.warnings)
                trace.plan = plan
                trace.timings["decompose_s"] = time.perf_counter() - started

                prior: list[tuple[str, str]] = []
                for sub_query in plan.sub_queries:
                    contextual = compose_contextual_query(sub_query, prior)
                    entry = SubQueryTrace(sub_query=sub_query, contextual_query=contextual)
                    trace.entries.append(entry)
                    fan_started = time.perf_counter()
                    candidates, summaries = self._fan_out(contextual, entry)
                    # set before deciding, so every later exit keeps the agents' answers
                    entry.candidates = candidates
                    entry.timings["fanout_s"] = time.perf_counter() - fan_started

                    decide_started = time.perf_counter()
                    if self.cfg.decision_enabled:
                        try:
                            answer, entry.report, entry.candidates = self._decision.decide(
                                contextual, candidates, entry.warnings, summaries)
                        except PipelineError:
                            # decide fails only once no candidate is usable, summaries included
                            entry.candidates = [replace(c, available=False) for c in candidates]
                            raise
                    else:
                        chosen = self._fallback_answer(candidates)
                        if chosen is None:
                            raise PipelineError("no available answer candidates to decide over")
                        answer = chosen.text
                    entry.answer = answer
                    entry.timings["decision_s"] = time.perf_counter() - decide_started
                    prior.append((sub_query, answer))

                final = prior[-1][1]
                if plan.multi_intent:
                    prompt = self._templates.render("final_refine", question=question,
                                                    answers=_qa_blocks(prior))
                    final = self._gateway.complete_chat(prompt, role="lightweight_chat")
                trace.final_answer = final
                return trace
            except PipelineError as exc:
                exc.trace = trace
                raise
            except GatewayError as exc:
                # the agents degrade on their own; a failed decompose, refine or
                # final-refine call ends the query, with the trace so far
                raise PipelineError(f"backend call failed: {exc}", trace=trace) from exc
            finally:
                trace.timings["total_s"] = time.perf_counter() - started
                trace.calls = records


@dataclass(frozen=True)
class EvalRecord:
    id: str
    question: str
    choices: tuple[str, ...]
    answer: int
    context: str = ""
    image_caption: str = ""
    tags: tuple[str, ...] = ()


def parse_eval_record(raw: dict) -> EvalRecord:
    if not isinstance(raw, dict):
        raise ValueError("record is not a JSON object")
    choices = raw.get("choices")
    if not isinstance(choices, list) or not choices or len(choices) > len(_CHOICE_LABELS):
        raise ValueError("record needs 1-5 choices")
    answer = raw.get("answer")
    if type(answer) is not int or not 0 <= answer < len(choices):  # a bool is no index
        raise ValueError("answer index out of range")
    question = raw.get("question")
    if not question or not isinstance(question, str):
        raise ValueError("record needs a question")
    tags = raw.get("tags", [])
    if isinstance(tags, str):
        tags = [tags]
    return EvalRecord(
        id=str(raw.get("id", "")),
        question=question,
        choices=tuple(str(c) for c in choices),
        answer=answer,
        context=str(raw.get("context") or ""),
        image_caption=str(raw.get("image_caption") or ""),
        tags=tuple(str(t) for t in tags),
    )


def format_eval_question(record: EvalRecord) -> str:
    parts = [record.question]
    if record.context:
        parts.append(f"Context: {record.context}")
    if record.image_caption:
        parts.append(f"Image caption: {record.image_caption}")
    choice_lines = [f"({_CHOICE_LABELS[i]}) {c}" for i, c in enumerate(record.choices)]
    parts.append("Choices:\n" + "\n".join(choice_lines))
    return "\n\n".join(parts)


def _normalize_choice_text(text: str) -> str:
    return text.strip().rstrip(".").strip().casefold()


def extract_choice(answer: str, choices) -> int | None:
    """First parenthesized A-E letter in range, else first standalone one in
    range (so a sentence-initial article "A" loses to a later "(C)"), else
    exact choice-text match."""
    for match in (*_PARENTHESIZED_LETTER.finditer(answer), *_CHOICE_LETTER.finditer(answer)):
        idx = _CHOICE_LABELS.index(match.group(1))
        if idx < len(choices):
            return idx
    normalized = _normalize_choice_text(answer)
    for i, choice in enumerate(choices):
        if _normalize_choice_text(choice) == normalized:
            return i
    return None


def run_eval(pipeline: Pipeline, dataset_path, keep_traces: bool = False) -> dict:
    """Answer every dataset question and report accuracy.

    Malformed records are skipped and counted; per-tag accuracy is
    reported whenever records carry tags.
    """
    skipped = 0
    per_tag: dict[str, dict[str, int]] = {}
    rows = []
    traces = []
    records = []
    # split only at b"\n": U+2028, U+2029 and U+0085 may sit raw inside a string;
    # each line is decoded in its handler, so a line that is not UTF-8 is skipped too
    with open(dataset_path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    records.append(parse_eval_record(parse_json(line)))
            except (ValueError, TypeError) as exc:
                logger.warning("skipping malformed eval record at line %d: %s", lineno, exc)
                skipped += 1
    for record in records:
        predicted = None
        error_text = ""
        try:
            trace = pipeline.run_query(format_eval_question(record))
            if keep_traces:
                traces.append(trace)
            predicted = extract_choice(trace.final_answer, record.choices)
        except PipelineError as exc:
            error_text = str(exc)
        is_correct = predicted == record.answer
        for tag in record.tags:
            bucket = per_tag.setdefault(tag, {"total": 0, "correct": 0})
            bucket["total"] += 1
            bucket["correct"] += int(is_correct)
        rows.append({
            "id": record.id, "predicted": predicted, "answer": record.answer,
            "correct": is_correct, "error": error_text,
        })
    correct = sum(row["correct"] for row in rows)
    report = {
        "total": len(rows),
        "correct": correct,
        "accuracy": correct / len(rows) if rows else 0.0,
        "skipped": skipped,
        "errors": sum(bool(row["error"]) for row in rows),
        "per_tag": {
            tag: {
                "total": bucket["total"],
                "correct": bucket["correct"],
                "accuracy": bucket["correct"] / bucket["total"],
            }
            for tag, bucket in sorted(per_tag.items())
        },
        "questions": rows,
    }
    if keep_traces:
        report["_traces"] = traces
    return report
