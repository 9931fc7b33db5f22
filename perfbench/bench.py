"""One benchmark run of one workload: set-up, closed loop, checks, report.

``run.py`` is the entry point; it puts the checkout's ``src/`` on the path
before this module imports hmrag.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy

import hmrag
import hmrag.cli

import corpus
import micro
from doubles import (KEYWORDS_PER_QUERY, RELATION, Backend, FlagCaptions, ReaderChat,
                     Recorder, WorldSearch)
from tracing import Tracer, layer_metrics

OUT = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    docs: int
    delays_s: dict  # sleep per backend request, by kind
    rate: float  # a run asks max(min_questions, round(seconds * rate)) questions
    min_questions: int
    trace_questions: int  # questions in each pass of a traced run
    setups: int  # set-up repetitions; setup_s is their median


WORKLOADS = {
    "remote_small": Workload(
        docs=20, delays_s={"chat": 0.010, "caption": 0.010, "search": 0.010, "embedding": 0.001},
        rate=1.0, min_questions=60, trace_questions=20, setups=5),
    "local_small": Workload(
        docs=20, delays_s={}, rate=60.0, min_questions=40, trace_questions=100, setups=9),
    "local_large": Workload(
        docs=10_000, delays_s={}, rate=0.5, min_questions=12, trace_questions=6, setups=2),
}
WARMUP_QUESTIONS = 1  # fills lazy caches; not timed

E2E_UNITS = {
    "question_p50_ms": "ms", "question_tail_ms": "ms", "questions_per_s": "1/s",
    "backend_calls_per_question": "count", "chat_calls_per_question": "count",
    "embedding_calls_per_question": "count", "search_calls_per_question": "count",
    "setup_s": "s", "peak_rss_mb": "MB", "failed_share": "share",
}
# failed_share is printed, but is 0 in a correct run, so the result line carries it
# as "failed" out of "attempted" rather than as a metric.

# name: (unit, better); values are per question unless the name says otherwise
PER_LAYER = {
    "gateway.chat.calls": ("count", "lower"),
    "gateway.chat.ms": ("ms", "lower"),
    "gateway.embed.calls": ("count", "lower"),
    "gateway.embed.ms": ("ms", "lower"),
    "gateway.caption.calls": ("count", "lower"),  # per ingested document
    "gateway.backend_ms": ("ms", "lower"),
    "gateway.self_ms": ("ms", "lower"),
    "decompose.ms": ("ms", "lower"),
    "decompose.chat_calls": ("count", "lower"),
    "decompose.sub_queries": ("count", "lower"),
    "vector_agent.run_ms": ("ms", "lower"),
    "vector_agent.top_k_ms": ("ms", "lower"),
    "vector_agent.rows_scored": ("count", "lower"),
    "vector_agent.gold_recall": ("share", "higher"),
    "graph_agent.run_ms": ("ms", "lower"),
    "graph_agent.keywords_ms": ("ms", "lower"),
    "graph_agent.retrieve_subgraph_ms": ("ms", "lower"),
    "graph_agent.retrieve_subgraph.self_ms": ("ms", "lower"),
    "graph_agent.expand_one_hop_ms": ("ms", "lower"),
    "graph_agent.embed_calls": ("count", "lower"),
    "graph_agent.triplets": ("count", "lower"),
    "graph_agent.evidence_precision": ("share", "higher"),
    "web_agent.run_ms": ("ms", "lower"),
    "web_agent.search_ms": ("ms", "lower"),
    "decision.decide_ms": ("ms", "lower"),
    "decision.summarize_ms": ("ms", "lower"),
    "decision.summarize_calls": ("count", "lower"),
    "decision.metrics_ms": ("ms", "lower"),
    "decision.refine_ms": ("ms", "lower"),
    "decision.expert_route_share": ("share", "lower"),
    "kernels.cosine_scores.calls": ("count", "lower"),
    "kernels.cosine_scores.ms": ("ms", "lower"),
    "kernels.lcs_length.calls": ("count", "lower"),
    "kernels.lcs_length.ms": ("ms", "lower"),
    "kernels.cosine_scores.rows_1k_ms": ("ms", "lower"),  # fixed-size timings, per call
    "kernels.cosine_scores.rows_20k_ms": ("ms", "lower"),
    "kernels.cosine_scores.rows_100k_ms": ("ms", "lower"),
    "kernels.lcs_length.len_64_ms": ("ms", "lower"),
    "kernels.lcs_length.len_256_ms": ("ms", "lower"),
    "kernels.lcs_length.len_1024_ms": ("ms", "lower"),
    "vector_agent.top_k.rows_1k_ms": ("ms", "lower"),
    "vector_agent.top_k.rows_20k_ms": ("ms", "lower"),
    "vector_agent.top_k.rows_100k_ms": ("ms", "lower"),
    "pipeline.fanout_ms": ("ms", "lower"),
    "pipeline.fanout_wait_ms": ("ms", "lower"),
    "pipeline.graph_critical_share": ("share", "lower"),
    "ingest.docs_per_s": ("1/s", "higher"),  # ingest rows: one set-up of the workload
    "ingest.caption_s": ("s", "lower"),
    "ingest.build_index_s": ("s", "lower"),
    "ingest.extract_graph_s": ("s", "lower"),
    "ingest.embed_calls_per_chunk": ("count", "lower"),
    "ingest.index_save_s": ("s", "lower"),
    "ingest.index_load_s": ("s", "lower"),
    "ingest.graph_save_s": ("s", "lower"),
    "ingest.graph_load_s": ("s", "lower"),
    "ingest.store_bytes": ("bytes", "lower"),
    "ingest.index_save.rows_100k_s": ("s", "lower"),  # EmbeddingIndex of 100k x 64
    "ingest.index_load.rows_100k_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),  # traced / untraced question_p50_ms
}


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_enabled": getattr(hmrag.kernels, "NUMBA_ENABLED", "absent"),
    }


# set-up: ingest, save, load, start the pipeline


class Bench:
    """Generated inputs plus the doubles and wrappers that serve them."""

    def __init__(self, world, workload: Workload, corpus_path: Path):
        self.world = world
        self.corpus_path = corpus_path
        self.recorder = Recorder()
        delay = workload.delays_s.get
        defaults = hmrag.config.DEFAULTS
        reader = ReaderChat()
        self._chat = {role: Backend(reader, "chat", role, delay("chat", 0.0), self.recorder)
                      for role in ("chat", "lightweight_chat", "expert_chat")}
        self._embedding = Backend(
            hmrag.HashingEmbeddingBackend(int(defaults["embedding.dim"]),
                                          int(defaults["embedding.seed"])),
            "embedding", "embedding", delay("embedding", 0.0), self.recorder)
        self._caption = Backend(FlagCaptions(), "caption", "caption", delay("caption", 0.0),
                                self.recorder)
        self._search_delay_s = delay("search", 0.0)

    def web_client(self, call_log):
        return Backend(WorldSearch(self.world, call_log), "search", "web", self._search_delay_s,
                       self.recorder)

    def gateway(self, call_log=None):
        return hmrag.ModelGateway(
            chat=self._chat["chat"], embedding=self._embedding, caption=self._caption,
            lightweight_chat=self._chat["lightweight_chat"],
            expert_chat=self._chat["expert_chat"], call_log=call_log)

    def setup(self, store_dir: Path):
        """``hmrag ingest`` then ``hmrag query`` start-up; returns the pipeline and step times."""
        cli, ingest = hmrag.cli, hmrag.ingest
        steps: dict[str, float] = {}
        clock = [time.perf_counter()]

        def lap(name):
            now = time.perf_counter()
            steps[name] = now - clock[0]
            clock[0] = now

        cfg = dict(hmrag.config.DEFAULTS)
        templates = cli.build_templates(cfg)
        gateway = self.gateway()
        records = ingest.load_corpus(self.corpus_path)
        lap("load_corpus_s")
        docs = [ingest.caption_and_refine(r, gateway, templates) for r in records]
        lap("caption_s")
        chunks = [c for doc in docs for c in ingest.chunk_document(
            doc, int(cfg["chunking.size"]), int(cfg["chunking.overlap"]))]
        lap("chunk_s")
        before = self.recorder.snapshot()
        index = ingest.build_index(chunks, gateway)
        lap("build_index_s")
        embeds = (self.recorder.snapshot() - before)[("embedding", "embedding")]
        graph = ingest.extract_graph(docs, gateway, templates, [])
        lap("extract_graph_s")
        index_path, graph_path = store_dir / cli.INDEX_FILENAME, store_dir / cli.GRAPH_FILENAME
        index.save(index_path)
        lap("index_save_s")
        graph.save(graph_path)
        lap("graph_save_s")
        del index, graph, docs, chunks
        index = ingest.EmbeddingIndex.load(index_path)
        lap("index_load_s")
        graph = ingest.KnowledgeGraph.load(graph_path)
        lap("graph_load_s")
        call_log = hmrag.CallLog()
        pipeline = hmrag.Pipeline(
            self.gateway(call_log), index, graph, self.web_client(call_log),
            cfg=cli.build_pipeline_config(cfg), templates=cli.build_templates(cfg),
            call_log=call_log)
        lap("pipeline_s")
        info = {
            "steps": steps,
            "docs": len(records),
            "chunks": len(index),
            "entities": len(graph),
            "triplets": graph.triplet_count,
            "embed_calls_per_chunk": embeds / len(index),
            "store_bytes": sum(p.stat().st_size for p in store_dir.iterdir() if p.is_file()),
        }
        return pipeline, info


# the closed loop


@dataclass
class Outcome:
    id: str
    ms: float
    error: str  # empty when the answer, route and sub-question count are right
    calls: Counter
    answer: tuple


def ask(bench: Bench, pipeline, question, text: str) -> Outcome:
    before = bench.recorder.snapshot()
    started = time.perf_counter()
    try:
        trace = pipeline.run_query(text)
    except Exception as exc:  # noqa: BLE001 - every escaped exception is a failed question
        ms = (time.perf_counter() - started) * 1e3
        return Outcome(question.id, ms, f"{type(exc).__name__}: {exc}",
                       bench.recorder.snapshot() - before, ())
    ms = (time.perf_counter() - started) * 1e3
    calls = bench.recorder.snapshot() - before
    choice = hmrag.pipeline.extract_choice(trace.final_answer, question.choices)
    routes = tuple(e.report.route if e.report else None for e in trace.entries)
    errors = []
    if choice != question.answer:
        errors.append(f"chose {choice}, gold {question.answer}")
    if len(trace.entries) != question.sub_queries:
        errors.append(f"{len(trace.entries)} sub-questions, expected {question.sub_queries}")
    else:
        expected = tuple(expected_route(e, c) for e, c in zip(trace.entries, question.countries))
        if routes != expected:
            errors.append(f"routes {routes}, expected {expected}")
    return Outcome(question.id, ms, "; ".join(errors), calls, (choice, routes))


def expected_route(entry, country) -> str:
    """Consensus when every agent's evidence holds the gold fact, else the expert.

    The hashing embedding does not always rank the gold chunk in the top
    k (vector_agent.gold_recall reports how often it does), and a vector
    answer without it disagrees with the others, so the route follows the
    evidence each agent actually received.
    """
    evidence = {c.source: c.evidence for c in entry.candidates}
    agree = (country.web_claim is None
             and any(country.capital_sentence in chunk for chunk in evidence.get("vector", ()))
             and f"{country.capital} —{RELATION}→ {country.name}" in evidence.get("graph", ()))
    return "lightweight" if agree else "expert"


def ask_all(bench, pipeline, questions, texts, tracer=None) -> tuple[list[Outcome], float]:
    outcomes = []
    started = time.perf_counter()
    for question in questions:
        if tracer is None:
            outcomes.append(ask(bench, pipeline, question, texts[question.id]))
        else:
            root = tracer.begin_question(question.id)
            outcomes.append(ask(bench, pipeline, question, texts[question.id]))
            tracer.end_question(root)
    return outcomes, time.perf_counter() - started


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest integer percentile (nearest rank) with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    raise ValueError(f"{n} samples leave no percentile with 10 beyond it")


def e2e_metrics(outcomes: list[Outcome], wall_s: float) -> tuple[dict, dict]:
    latencies = [o.ms for o in outcomes]
    n = len(outcomes)
    calls = Counter()
    for outcome in outcomes:
        calls.update(outcome.calls)
    by_kind = Counter()
    for (kind, _), value in calls.items():
        by_kind[kind] += value
    percentile, tail_ms = tail(latencies)
    metrics = {
        "question_p50_ms": statistics.median(latencies),
        "question_tail_ms": tail_ms,
        "questions_per_s": n / wall_s,
        "backend_calls_per_question": sum(by_kind.values()) / n,
        "chat_calls_per_question": by_kind["chat"] / n,
        "embedding_calls_per_question": by_kind["embedding"] / n,
        "search_calls_per_question": by_kind["search"] / n,
        "failed_share": sum(1 for o in outcomes if o.error) / n,
    }
    detail = {
        "tail_percentile": percentile,
        "samples": n,
        "calls_by_kind_and_role": {f"{k}/{r}": v / n for (k, r), v in sorted(calls.items())},
    }
    return metrics, detail


# traced pass


def traced_pass(bench, pipeline, info, questions, texts, untraced) -> tuple[dict, list, Tracer]:
    tracer = Tracer()
    tracer.install(hmrag)
    bench.recorder.tracer = tracer
    try:
        outcomes, _ = ask_all(bench, pipeline, questions, texts, tracer)
    finally:
        bench.recorder.tracer = None
        tracer.uninstall()

    def country_of(query):
        return bench.world.by_name[corpus.subject(query)]

    def gold_entities(query):
        country = country_of(query)
        return {country.name, country.capital}

    metrics, graph_embeds = layer_metrics(
        tracer, len(questions), lambda q: country_of(q).doc_id, gold_entities)
    checks = []
    for before, after in zip(untraced, outcomes):
        if (before.answer, before.calls) != (after.answer, after.calls):
            checks.append(f"{after.id}: traced answer or calls differ from the untraced run")
    expected = KEYWORDS_PER_QUERY + info["entities"] + info["triplets"]
    for question in questions:
        got = graph_embeds.get(question.id, 0)
        if question.sub_queries == 1 and got != expected:
            checks.append(f"{question.id}: {got} graph embedding calls, expected "
                          f"#keywords + |V| + |E| = {expected}")
    untraced_p50 = statistics.median(o.ms for o in untraced)
    metrics["trace.overhead"] = statistics.median(o.ms for o in outcomes) / untraced_p50
    return metrics, checks + [f"{o.id}: {o.error}" for o in outcomes if o.error], tracer


def ingest_metrics(info: dict) -> dict:
    steps = info["steps"]
    ingest_s = sum(steps[k] for k in ("load_corpus_s", "caption_s", "chunk_s",
                                       "build_index_s", "extract_graph_s"))
    return {
        "ingest.docs_per_s": info["docs"] / ingest_s,
        "ingest.caption_s": steps["caption_s"],
        "ingest.build_index_s": steps["build_index_s"],
        "ingest.extract_graph_s": steps["extract_graph_s"],
        "ingest.embed_calls_per_chunk": info["embed_calls_per_chunk"],
        "ingest.index_save_s": steps["index_save_s"],
        "ingest.index_load_s": steps["index_load_s"],
        "ingest.graph_save_s": steps["graph_save_s"],
        "ingest.graph_load_s": steps["graph_load_s"],
        "ingest.store_bytes": float(info["store_bytes"]),
    }


# one workload in this process


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    env = environment()
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))

    count = workload.trace_questions if trace else max(
        workload.min_questions, round(seconds * workload.rate))
    world = corpus.build_world(workload.docs, seed)
    warmup = corpus.build_questions(world, WARMUP_QUESTIONS, seed, prefix="w")
    questions = corpus.build_questions(world, count, seed)
    texts = {}
    for q in warmup + questions:
        record = hmrag.pipeline.parse_eval_record(
            {"id": q.id, "question": q.question, "choices": list(q.choices), "answer": q.answer})
        texts[q.id] = hmrag.pipeline.format_eval_question(record)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        corpus_path = tmp / "corpus.jsonl"
        corpus_path.write_text("".join(json.dumps(r) + "\n" for r in corpus.corpus_records(world)),
                               encoding="utf-8")
        bench = Bench(world, workload, corpus_path)
        setups = 1 if trace else workload.setups
        # Set-ups alternate with blocks of questions, so each metric samples
        # the whole run rather than one stretch of the host's load.
        blocks = [questions[i * len(questions) // setups:(i + 1) * len(questions) // setups]
                  for i in range(setups)]
        setup_times = []
        before_setup = bench.recorder.snapshot()
        outcomes, wall_s = [], 0.0
        pipeline = None
        for i, block in enumerate(blocks):
            store = tmp / f"store{i}"
            store.mkdir()
            pipeline = None  # release the previous set-up before building the next
            gc.collect()
            started = time.perf_counter()
            pipeline, info = bench.setup(store)
            setup_times.append(time.perf_counter() - started)
            if i == 0:
                setup_calls = bench.recorder.snapshot() - before_setup
                warm, _ = ask_all(bench, pipeline, warmup, texts)
                # Read before later set-ups and questions, whose freed memory the
                # allocator keeps in per-thread arenas by amounts that vary by run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            gc.collect()
            block_outcomes, block_s = ask_all(bench, pipeline, block, texts)
            outcomes += block_outcomes
            wall_s += block_s
        failures = [f"{o.id}: {o.error}" for o in warm + outcomes if o.error]
        report = {"setup_s_samples": setup_times}
        if trace:
            metrics, checks, tracer = traced_pass(bench, pipeline, info, questions, texts, outcomes)
            failures += checks
            metrics.update(ingest_metrics(info))
            metrics["gateway.caption.calls"] = setup_calls[("caption", "caption")] / info["docs"]
            micro_dir = tmp / "micro"
            micro_dir.mkdir()
            micro_metrics, micro_errors = micro.run(seed, micro_dir)
            metrics.update(micro_metrics)
            failures += micro_errors
            report["absent"] = tracer.absent
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        else:
            metrics, detail = e2e_metrics(outcomes, wall_s)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = peak_rss_mb
            report.update(detail)
            units = E2E_UNITS

    attempted = len(warm) + len(outcomes)
    failed = sum(1 for o in warm + outcomes if o.error)
    correct = not failures
    for metric, unit in units.items():
        extra = ""
        if metric == "question_tail_ms":
            extra = f"  (p{report['tail_percentile']} of {report['samples']} questions)"
        print(f"{name} {metric} {metrics[metric]:.6g} {unit}{extra}")
    if trace and tracer.absent:
        print(f"absent, so the metrics built on them read 0: {', '.join(tracer.absent)}")
    for failure in failures:
        print(f"FAILED {failure}")

    stem = f"{name}-seed{seed}-trace{int(trace)}"
    report.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "delays_s": workload.delays_s,
        "world": {k: info[k] for k in ("docs", "chunks", "entities", "triplets")},
        "metrics": metrics, "failures": failures, "attempted": attempted, "failed": failed,
    })
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    if trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    result = {k: {"value": metrics[k], "unit": unit}
              for k, unit in units.items() if k != "failed_share"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1
