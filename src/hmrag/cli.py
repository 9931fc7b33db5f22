"""Command-line interface: ingest, query, eval, config."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import config as config_mod
from .decision import SOURCES
from .errors import ConfigError, HmragError
from .gateway import (
    CallLog,
    HashingEmbeddingBackend,
    HTTPCaptionBackend,
    HTTPChatBackend,
    HTTPEmbeddingBackend,
    ModelBackendConfig,
    ModelGateway,
    ScriptedCaptionBackend,
    ScriptedChatBackend,
)
from .ingest import EmbeddingIndex, KnowledgeGraph, build_stores, check_chunking, load_corpus
from .pipeline import Pipeline, PipelineConfig, run_eval
from .templates import TemplateSet
from .web_agent import SearchConfig, SerperSearchClient, StubSearchClient

INDEX_FILENAME = "index.jsonl"
GRAPH_FILENAME = "graph.jsonl"


def _backend_config(cfg: dict, role: str) -> ModelBackendConfig:
    return ModelBackendConfig(
        endpoint=str(cfg[f"{role}.endpoint"]),
        model_name=str(cfg[f"{role}.model_name"]),
        api_key_env=str(cfg[f"{role}.api_key_env"]),
        timeout_s=float(cfg[f"{role}.timeout_s"]),
        retries=int(cfg[f"{role}.retries"]),
    )


def _chat_backend(cfg: dict, role: str):
    kind = str(cfg[f"{role}.backend"])
    if kind == "inherit":
        return None
    if kind == "scripted":
        fixture = str(cfg[f"{role}.fixture"])
        if not fixture:
            raise ConfigError(f"{role}.backend = scripted needs {role}.fixture")
        return ScriptedChatBackend.from_file(fixture)
    if kind == "http":
        return HTTPChatBackend(_backend_config(cfg, role))
    raise ConfigError(f"unknown {role}.backend {kind!r}")


def build_gateway(cfg: dict, call_log: CallLog | None = None) -> ModelGateway:
    chat = _chat_backend(cfg, "chat")
    if chat is None:
        raise ConfigError("chat.backend must not be 'inherit'")

    emb_kind = str(cfg["embedding.backend"])
    if emb_kind == "scripted":
        embedding = HashingEmbeddingBackend(int(cfg["embedding.dim"]), int(cfg["embedding.seed"]))
    elif emb_kind == "http":
        embedding = HTTPEmbeddingBackend(_backend_config(cfg, "embedding"))
    else:
        raise ConfigError(f"unknown embedding.backend {emb_kind!r}")

    cap_kind = str(cfg["caption.backend"])
    caption = None
    if cap_kind == "scripted":
        fixture = str(cfg["caption.fixture"])
        if fixture:
            caption = ScriptedCaptionBackend.from_file(fixture)
    elif cap_kind == "http":
        if str(cfg["caption.endpoint"]):
            caption = HTTPCaptionBackend(_backend_config(cfg, "caption"))
    else:
        raise ConfigError(f"unknown caption.backend {cap_kind!r}")

    return ModelGateway(
        chat=chat,
        embedding=embedding,
        caption=caption,
        lightweight_chat=_chat_backend(cfg, "lightweight_chat"),
        expert_chat=_chat_backend(cfg, "expert_chat"),
        call_log=call_log,
    )


def build_web_client(cfg: dict):
    kind = str(cfg["web.backend"])
    if kind == "stub":
        fixture = str(cfg["web.stub_fixture_path"])
        if not fixture:
            raise ConfigError("web.backend = stub needs web.stub_fixture_path")
        return StubSearchClient.from_file(fixture)
    if kind == "http":
        return SerperSearchClient(
            endpoint=str(cfg["web.search_endpoint"]),
            api_key_env=str(cfg["web.api_key_env"]),
            timeout_s=float(cfg["web.timeout_s"]),
            retries=int(cfg["web.retries"]),
        )
    raise ConfigError(f"unknown web.backend {kind!r}")


def build_templates(cfg: dict) -> TemplateSet:
    return TemplateSet(str(cfg["prompts.dir"]) or None)


def build_pipeline_config(cfg: dict, disabled_agents=(), decision_enabled=None) -> PipelineConfig:
    enabled = tuple(
        agent.strip() for agent in str(cfg["agents.enabled"]).split(",")
        if agent.strip() and agent.strip() not in disabled_agents
    )
    return PipelineConfig(
        enabled_agents=enabled,
        decision_enabled=bool(cfg["decision.enabled"]) if decision_enabled is None else decision_enabled,
        top_k=int(cfg["retrieval.top_k"]),
        tau=float(cfg["graph.tau"]),
        fusion_lambda=float(cfg["decision.fusion_lambda"]),
        consensus_threshold=float(cfg["decision.consensus_threshold"]),
        summary_token_budget=int(cfg["decision.summary_token_budget"]),
        agent_timeout_s=float(cfg["orchestrator.agent_timeout_s"]),
        search=SearchConfig(
            num_results=int(cfg["web.num_results"]),
            language=str(cfg["web.language"]),
        ),
    )


def _load_store(load, path: Path, agent: str, enabled):
    """`load(path)` for an enabled agent's store; a disabled agent's file is never read."""
    if agent not in enabled:
        return None
    if not path.is_file():
        raise ConfigError(f"{agent} agent enabled but {path} is missing")
    return load(path)


def _make_pipeline(args) -> Pipeline:
    cfg = config_mod.load_config(args.config)
    pipeline_cfg = build_pipeline_config(cfg, args.disable_agent, False if args.no_decision else None)
    call_log = CallLog()
    gateway = build_gateway(cfg, call_log)
    web_client = build_web_client(cfg) if "web" in pipeline_cfg.enabled_agents else None
    store, enabled = Path(args.store), pipeline_cfg.enabled_agents
    return Pipeline(
        gateway,
        _load_store(EmbeddingIndex.load, store / INDEX_FILENAME, "vector", enabled),
        _load_store(KnowledgeGraph.load, store / GRAPH_FILENAME, "graph", enabled),
        web_client,
        cfg=pipeline_cfg, templates=build_templates(cfg), call_log=call_log,
    )


def cmd_ingest(args) -> int:
    cfg = config_mod.load_config(args.config)
    chunk_size, overlap = int(cfg["chunking.size"]), int(cfg["chunking.overlap"])
    check_chunking(chunk_size, overlap)  # before --out is created
    gateway = build_gateway(cfg)
    templates = build_templates(cfg)
    records = load_corpus(args.corpus)
    if not records:
        print("corpus is empty", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # before the first model call, like eval's report
    warnings: list[str] = []
    index, graph = build_stores(records, gateway, templates, chunk_size, overlap, warnings)
    index.save(out_dir / INDEX_FILENAME)
    graph.save(out_dir / GRAPH_FILENAME)
    print(f"ingested {len(records)} documents: {len(index)} chunks, "
          f"{len(graph)} entities, {graph.triplet_count} triplets -> {out_dir}")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _check_writable(path) -> None:
    """Raise OSError if `path` cannot be written, without creating or changing it:
    checked before any model call, so a bad path costs none."""
    target = Path(path)
    if target.exists():
        open(target, "a", encoding="utf-8").close()  # appends nothing
    elif not os.access(target.parent, os.W_OK | os.X_OK):  # refuses a missing directory too
        raise OSError(f"cannot create {path}: its directory is missing or not writable")


def cmd_query(args) -> int:
    if args.trace:
        _check_writable(args.trace)
    trace = _make_pipeline(args).run_query(args.question)
    if args.trace:  # written only once the query has succeeded
        Path(args.trace).write_text(trace.to_json() + "\n", encoding="utf-8")
        print(trace.final_answer)
    else:
        print(trace.to_json())
    return 0


def cmd_eval(args) -> int:
    _check_writable(args.report)
    report = run_eval(_make_pipeline(args), args.dataset)
    Path(args.report).write_text(  # only once every question has run
        json.dumps(report, ensure_ascii=False, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"accuracy {report['accuracy']:.4f} "
          f"({report['correct']}/{report['total']}, {report['skipped']} skipped)")
    return 0


def cmd_config(args) -> int:
    if args.print_defaults:
        print(config_mod.format_defaults())
        return 0
    print("nothing to do; try --print-defaults", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmrag",
        description="Multi-agent retrieval-augmented question answering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build the index and graph stores from a corpus")
    p_ingest.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    p_ingest.add_argument("--out", required=True, help="output store directory")
    p_ingest.add_argument("--config", default=None)
    p_ingest.set_defaults(func=cmd_ingest)

    # the store and pipeline options that query and eval share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--store", required=True)
    shared.add_argument("--config", default=None)
    shared.add_argument("--disable-agent", action="append", choices=list(SOURCES), default=[])
    shared.add_argument("--no-decision", action="store_true")

    p_query = sub.add_parser("query", parents=[shared], help="answer one question against a store")
    p_query.add_argument("--trace", default=None, help="write the trace JSON here instead of stdout")
    p_query.add_argument("question")
    p_query.set_defaults(func=cmd_query)

    p_eval = sub.add_parser("eval", parents=[shared],
                            help="run a multiple-choice dataset and report accuracy")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--report", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_config = sub.add_parser("config", help="inspect configuration")
    p_config.add_argument("--print-defaults", action="store_true")
    p_config.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HmragError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        trace = getattr(exc, "trace", None)
        if trace is not None:
            print(trace.to_json(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
