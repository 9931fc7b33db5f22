import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hmrag.cli as cli_mod
import hmrag.gateway as gateway_mod
from hmrag.cli import main
from hmrag.config import DEFAULTS
from hmrag.errors import BackendUnavailableError, ConfigError, GatewayError
from hmrag.gateway import HashingEmbeddingBackend, ScriptedCaptionBackend, ScriptedChatBackend
from hmrag.ingest import EmbeddingIndex, KnowledgeGraph
from hmrag.pipeline import format_eval_question
from hmrag.templates import TemplateSet
from hmrag.web_agent import SearchConfig

from conftest import FakeResponse
from world import build_world


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_world")
    world = build_world(n=4).write_files(directory)
    return world


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_print_defaults(capsys):
    code, out, _ = run_cli(["config", "--print-defaults"], capsys)
    assert code == 0
    assert "retrieval.top_k = 5" in out
    assert "decision.consensus_threshold = 0.5" in out
    assert "chat.endpoint = " in out


def test_ingest_builds_store(world_dir, tmp_path, capsys):
    store = tmp_path / "store"
    code, out, err = run_cli([
        "ingest", "--corpus", str(world_dir.paths["corpus"]),
        "--out", str(store), "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert code == 0, err
    assert (store / "index.jsonl").is_file()
    assert (store / "graph.jsonl").is_file()
    assert "4 documents" in out

    # re-ingest into a second directory: byte-identical stores
    store2 = tmp_path / "store2"
    run_cli([
        "ingest", "--corpus", str(world_dir.paths["corpus"]),
        "--out", str(store2), "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert (store / "index.jsonl").read_bytes() == (store2 / "index.jsonl").read_bytes()
    assert (store / "graph.jsonl").read_bytes() == (store2 / "graph.jsonl").read_bytes()


@pytest.fixture()
def store_dir(world_dir, tmp_path, capsys):
    store = tmp_path / "store"
    code = main([
        "ingest", "--corpus", str(world_dir.paths["corpus"]),
        "--out", str(store), "--config", str(world_dir.paths["config"]),
    ])
    capsys.readouterr()
    assert code == 0
    return store


def test_query_prints_trace_json(world_dir, store_dir, capsys):
    record = world_dir.eval_records[0]
    question = format_eval_question(record)
    code, out, err = run_cli([
        "query", "--store", str(store_dir), "--config", str(world_dir.paths["config"]),
        question,
    ], capsys)
    assert code == 0, err
    trace = json.loads(out)
    assert trace["final_answer"] == world_dir.answer_texts[record.id]
    assert len(trace["entries"]) == 1


def test_query_trace_file_prints_final_answer(world_dir, store_dir, tmp_path, capsys):
    record = world_dir.eval_records[1]
    question = format_eval_question(record)
    trace_path = tmp_path / "trace.json"
    code, out, err = run_cli([
        "query", "--store", str(store_dir), "--config", str(world_dir.paths["config"]),
        "--trace", str(trace_path), question,
    ], capsys)
    assert code == 0, err
    assert out.strip() == world_dir.answer_texts[record.id]
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    assert trace["question"] == question


def test_query_disable_agent_and_no_decision(world_dir, store_dir, capsys):
    record = world_dir.eval_records[2]
    question = format_eval_question(record)
    code, out, err = run_cli([
        "query", "--store", str(store_dir), "--config", str(world_dir.paths["config"]),
        "--disable-agent", "graph", "--no-decision", question,
    ], capsys)
    assert code == 0, err
    trace = json.loads(out)
    sources = [c["source"] for c in trace["entries"][0]["candidates"]]
    assert sources == ["vector", "web"]
    assert trace["entries"][0]["report"] is None


def test_eval_writes_report(world_dir, store_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, err = run_cli([
        "eval", "--store", str(store_dir), "--dataset", str(world_dir.paths["dataset"]),
        "--report", str(report_path), "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert code == 0, err
    assert "accuracy 1.0000" in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total"] == 4
    assert report["correct"] == 4


def test_ingest_reads_an_empty_image_ref_as_no_image(world_dir, tmp_path, capsys):
    record = world_dir.records[1]
    assert record.image_ref is None  # its extraction prompt is scripted for the bare text
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": record.id, "text": record.text, "image_ref": ""}) + "\n",
                      encoding="utf-8")
    code, out, err = run_cli([
        "ingest", "--corpus", str(corpus), "--out", str(tmp_path / "store"),
        "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert code == 0, err
    assert "ingested 1 documents" in out


@pytest.mark.parametrize("command, key, fixture", [
    ("query", "chat.fixture", [{"prompt": "x", "response": "y"}]),
    ("query", "chat.fixture", [{"turns": [{"role": "system", "content": "x"}], "response": "y"}]),
    ("query", "web.stub_fixture_path", [1]),
    ("ingest", "caption.fixture", [1, 2]),
    ("ingest", "caption.fixture", {"img/flag00.png": 5}),
])
def test_malformed_fixture_is_one_error_line_naming_it(
        world_dir, store_dir, tmp_path, capsys, command, key, fixture):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    config = tmp_path / "hmrag.conf"
    config.write_text(world_dir.paths["config"].read_text(encoding="utf-8") + f"{key} = {path}\n",
                      encoding="utf-8")
    if command == "query":
        args = ["query", "--store", str(store_dir), "anything?"]
    else:
        args = ["ingest", "--corpus", str(world_dir.paths["corpus"]), "--out", str(tmp_path / "s")]
    code, out, err = run_cli(args + ["--config", str(config)], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_missing_store_is_reported(world_dir, tmp_path, capsys):
    code, out, err = run_cli([
        "query", "--store", str(tmp_path / "nostore"),
        "--config", str(world_dir.paths["config"]), "anything?",
    ], capsys)
    assert code == 1
    assert "error:" in err


def test_disabled_agent_store_is_never_read(world_dir, store_dir, tmp_path, capsys):
    store = tmp_path / "copy"
    shutil.copytree(store_dir, store)
    (store / "index.jsonl").write_text("not json\n", encoding="utf-8")
    record = world_dir.eval_records[0]
    code, out, err = run_cli([
        "query", "--store", str(store), "--config", str(world_dir.paths["config"]),
        "--disable-agent", "vector", "--no-decision", format_eval_question(record),
    ], capsys)
    assert code == 0, err
    sources = [c["source"] for c in json.loads(out)["entries"][0]["candidates"]]
    assert sources == ["graph", "web"]


@pytest.mark.parametrize("filename, what, bad_line, error", [
    ("graph.jsonl", "graph record", {"kind": "entity"}, "KeyError"),
    ("index.jsonl", "index record", {"chunk_id": "extra", "text": "no vector"}, "KeyError"),
    # rows shorter or longer than the header's dim
    ("index.jsonl", "index record", {"chunk_id": "extra", "text": "t", "vector": [1.0]},
     "ValueError('vector has 1 entries, header dim is 64')"),
    ("index.jsonl", "index record", {"chunk_id": "extra", "text": "t", "vector": [1.0] * 65},
     "ValueError('vector has 65 entries, header dim is 64')"),
])
def test_malformed_store_line_is_reported_with_file_and_line(
        world_dir, store_dir, tmp_path, capsys, filename, what, bad_line, error):
    store = tmp_path / "copy"
    shutil.copytree(store_dir, store)
    path = store / filename
    lines = path.read_text(encoding="utf-8").splitlines() + [json.dumps(bad_line)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli([
        "query", "--store", str(store), "--config", str(world_dir.paths["config"]), "anything?",
    ], capsys)
    assert code == 1
    assert f"error: bad {what} at {path} line {len(lines)}: {error}" in err


def test_missing_dataset_is_one_error_line(world_dir, store_dir, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text('{"accuracy": 1.0}\n', encoding="utf-8")
    code, out, err = run_cli([
        "eval", "--store", str(store_dir), "--dataset", str(tmp_path / "missing.jsonl"),
        "--report", str(report), "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing.jsonl" in err
    assert report.read_text(encoding="utf-8") == '{"accuracy": 1.0}\n'


@pytest.mark.parametrize("existing", [True, False], ids=["existing_file", "no_file"])
@pytest.mark.parametrize("command, failure", [
    ("query", "no scripted response"),  # the chat script lacks the question
    ("eval", "missing.jsonl"),
])
def test_failed_run_leaves_its_output_file_as_it_was(
        world_dir, store_dir, tmp_path, capsys, command, failure, existing):
    out = tmp_path / "out.json"
    earlier = b'{"from": "an earlier run"}\n'
    if existing:
        out.write_bytes(earlier)
    args = {"query": ["query", "--trace", str(out), "A question nobody scripted?"],
            "eval": ["eval", "--dataset", str(tmp_path / "missing.jsonl"), "--report", str(out)]}
    code, _, err = run_cli(args[command] + [
        "--store", str(store_dir), "--config", str(world_dir.paths["config"])], capsys)
    assert code == 1
    assert err.startswith("error: ") and failure in err.splitlines()[0]
    if existing:
        assert out.read_bytes() == earlier
    else:
        assert not out.exists()


def test_unwritable_report_fails_before_any_question(
        world_dir, store_dir, tmp_path, capsys, monkeypatch):
    def no_eval(*args, **kwargs):
        raise AssertionError("no question may be asked")

    monkeypatch.setattr(cli_mod, "run_eval", no_eval)
    code, out, err = run_cli([
        "eval", "--store", str(store_dir), "--dataset", str(world_dir.paths["dataset"]),
        "--report", str(tmp_path / "nodir" / "r.json"), "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nodir" in err


@pytest.mark.parametrize("line", ["prompts.file.vector_header = custom.txt",
                                  "decision.bleu_max_n = 2"])
def test_retired_config_key_stops_query_before_any_backend_call(
        world_dir, store_dir, tmp_path, capsys, monkeypatch, line):
    def no_backend(*args, **kwargs):
        raise AssertionError("no backend may be called")

    monkeypatch.setattr(ScriptedChatBackend, "complete", no_backend)
    monkeypatch.setattr(HashingEmbeddingBackend, "embed", no_backend)
    config = tmp_path / "hmrag.conf"
    config.write_text(world_dir.paths["config"].read_text(encoding="utf-8") + line + "\n",
                      encoding="utf-8")
    lineno = len(config.read_text(encoding="utf-8").splitlines())
    code, out, err = run_cli([
        "query", "--store", str(store_dir), "--config", str(config), "anything?",
    ], capsys)
    assert code == 1
    key = line.partition(" =")[0]
    assert err == f"error: config line {lineno} sets unknown key '{key}'\n"


@pytest.mark.parametrize("lines", [["orchestrator.agent_timeout_s = inf"],
                                   ["web.backend = http", "web.timeout_s = nan"]])
def test_timeout_out_of_range_stops_query_before_any_backend_call(
        world_dir, store_dir, tmp_path, capsys, monkeypatch, lines):
    def no_backend(*args, **kwargs):
        raise AssertionError("no backend may be called")

    monkeypatch.setattr(ScriptedChatBackend, "complete", no_backend)
    monkeypatch.setattr(HashingEmbeddingBackend, "embed", no_backend)
    monkeypatch.setattr(gateway_mod.requests, "post", no_backend)
    config = tmp_path / "hmrag.conf"
    config.write_text(world_dir.paths["config"].read_text(encoding="utf-8") + "\n".join(lines)
                      + "\n", encoding="utf-8")
    code, out, err = run_cli([
        "query", "--store", str(store_dir), "--config", str(config), "anything?",
    ], capsys)
    assert code == 1
    assert re.fullmatch(r"error: (agent_)?timeout_s must be in \(0, [0-9.]+\]\n", err)


def test_null_text_in_the_index_is_one_error_line_naming_it(world_dir, store_dir, tmp_path, capsys):
    store = tmp_path / "copy"
    shutil.copytree(store_dir, store)
    path = store / "index.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps(dict(json.loads(lines[1]), text=None))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli([
        "query", "--store", str(store), "--config", str(world_dir.paths["config"]), "anything?",
    ], capsys)
    assert code == 1
    assert err.startswith(f"error: bad index record at {path} line 2: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, key", [
    ("query", "chat.fixture"),
    ("query", "web.stub_fixture_path"),
    ("ingest", "caption.fixture"),
])
def test_fixture_that_is_not_json_is_one_error_line_naming_it(
        world_dir, store_dir, tmp_path, capsys, command, key):
    path = tmp_path / "fixture.json"
    path.write_text("{not json", encoding="utf-8")
    config = tmp_path / "hmrag.conf"
    config.write_text(world_dir.paths["config"].read_text(encoding="utf-8") + f"{key} = {path}\n",
                      encoding="utf-8")
    if command == "query":
        args = ["query", "--store", str(store_dir), "anything?"]
    else:
        args = ["ingest", "--corpus", str(world_dir.paths["corpus"]), "--out", str(tmp_path / "s")]
    code, out, err = run_cli(args + ["--config", str(config)], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"fixture {path} is not JSON" in err


@pytest.fixture()
def backend_calls(monkeypatch):
    """Counts every chat, embedding and caption call of the scripted backends."""
    calls = []

    def counting(cls, name):
        inner = getattr(cls, name)

        def call(self, *args):
            calls.append(name)
            return inner(self, *args)
        monkeypatch.setattr(cls, name, call)

    counting(ScriptedChatBackend, "complete")
    counting(HashingEmbeddingBackend, "embed")
    counting(ScriptedCaptionBackend, "caption")
    return calls


def test_unwritable_query_trace_fails_before_any_backend_call(
        world_dir, store_dir, tmp_path, capsys, backend_calls):
    record = world_dir.eval_records[0]
    code, out, err = run_cli([
        "query", "--store", str(store_dir), "--config", str(world_dir.paths["config"]),
        "--trace", str(tmp_path / "nodir" / "t.json"), format_eval_question(record),
    ], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nodir" in err
    assert backend_calls == []


def test_ingest_out_under_a_file_fails_before_any_backend_call(
        world_dir, tmp_path, capsys, backend_calls):
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run_cli([
        "ingest", "--corpus", str(world_dir.paths["corpus"]),
        "--out", str(blocker / "store"), "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "afile" in err
    assert backend_calls == []


def _config_with(world_dir, tmp_path, *lines):
    """The world's config file with `lines` appended, which override it."""
    config = tmp_path / "hmrag.conf"
    config.write_text(world_dir.paths["config"].read_text(encoding="utf-8")
                      + "".join(line + "\n" for line in lines), encoding="utf-8")
    return config


@pytest.mark.parametrize("lines, error", [
    (["chat.backend = scripted", "chat.fixture = "], "chat.backend = scripted needs chat.fixture"),
    (["chat.backend = inherit"], "chat.backend must not be 'inherit'"),
    (["web.backend = stub", "web.stub_fixture_path = "],
     "web.backend = stub needs web.stub_fixture_path"),
], ids=["scripted_chat_without_fixture", "inherited_chat", "stub_web_without_fixture"])
def test_incomplete_backend_setting_stops_query_before_any_backend_call(
        world_dir, store_dir, tmp_path, capsys, monkeypatch, backend_calls, lines, error):
    posts = []
    monkeypatch.setattr(gateway_mod.requests, "post", lambda url, **kwargs: posts.append(url))
    config = _config_with(world_dir, tmp_path, *lines)
    code, out, err = run_cli([
        "query", "--store", str(store_dir), "--config", str(config), "anything?",
    ], capsys)
    assert code == 1
    assert err == f"error: {error}\n"
    assert backend_calls == [] and posts == []


@pytest.mark.parametrize("size, overlap, error", [
    (64, 64, "overlap must satisfy 0 <= overlap < chunk_size, got 64"),
    (64, 512, "overlap must satisfy 0 <= overlap < chunk_size, got 512"),
    (0, 0, "chunk_size must be positive"),
], ids=["overlap_equals_size", "overlap_above_size", "zero_size"])
def test_bad_chunking_fails_ingest_before_any_backend_call(
        world_dir, tmp_path, capsys, backend_calls, size, overlap, error):
    config = _config_with(world_dir, tmp_path, f"chunking.size = {size}",
                          f"chunking.overlap = {overlap}")
    code, out, err = run_cli([
        "ingest", "--corpus", str(world_dir.paths["corpus"]),
        "--out", str(tmp_path / "store"), "--config", str(config),
    ], capsys)
    assert code == 1
    assert err == f"error: {error}\n"
    assert backend_calls == []
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("command", ["query", "eval"])
def test_unset_api_key_fails_before_any_backend_call(
        world_dir, store_dir, tmp_path, capsys, monkeypatch, backend_calls, command):
    posts = []
    monkeypatch.setattr(gateway_mod.requests, "post", lambda url, **kwargs: posts.append(url))
    monkeypatch.delenv("HMRAG_UNSET_KEY", raising=False)
    config = _config_with(world_dir, tmp_path, "web.backend = http",
                          "web.api_key_env = HMRAG_UNSET_KEY")
    args = {"query": ["query", "anything?"],
            "eval": ["eval", "--dataset", str(world_dir.paths["dataset"]),
                     "--report", str(tmp_path / "report.json")]}[command]
    code, out, err = run_cli(args + ["--store", str(store_dir), "--config", str(config)], capsys)
    assert code == 1
    assert err == "error: environment variable 'HMRAG_UNSET_KEY' is not set\n"
    assert backend_calls == [] and posts == []


_HTTP_ROLES = ("chat", "lightweight_chat", "expert_chat", "embedding", "caption")


@pytest.fixture()
def http_cfg(monkeypatch):
    """Every role, and web search, on the http backend with its own endpoint, model and key."""
    cfg = dict(DEFAULTS)
    for role in _HTTP_ROLES:
        cfg.update({f"{role}.backend": "http", f"{role}.endpoint": f"https://{role}.test/v1",
                    f"{role}.model_name": f"{role}-model", f"{role}.api_key_env": f"KEY_{role}"})
        monkeypatch.setenv(f"KEY_{role}", f"secret-{role}")
    cfg.update({"web.backend": "http", "web.search_endpoint": "https://web.test/search",
                "web.api_key_env": "KEY_web"})
    monkeypatch.setenv("KEY_web", "secret-web")
    return cfg


def test_http_backends_reach_their_own_endpoints(http_cfg, monkeypatch):
    posts = []

    def fake_post(url, **kwargs):
        key = {k: v for k, v in kwargs["headers"].items() if k != "Content-Type"}
        posts.append((url, kwargs["json"].get("model"), key))
        return FakeResponse({"choices": [{"message": {"content": "ok"}}],
                             "data": [{"embedding": [1.0, 0.0]}], "organic": []})

    monkeypatch.setattr(gateway_mod.requests, "post", fake_post)
    gateway = cli_mod.build_gateway(http_cfg)
    for role in ("chat", "lightweight_chat", "expert_chat"):
        assert gateway.complete_chat("ping", role=role) == "ok"
    assert gateway.embed_text("ping").tolist() == [1.0, 0.0]
    assert gateway.caption_image("https://img.test/a.png") == "ok"
    assert cli_mod.build_web_client(http_cfg).search("ping", SearchConfig()) == []
    assert posts == [
        (f"https://{role}.test/v1", f"{role}-model", {"Authorization": f"Bearer secret-{role}"})
        for role in _HTTP_ROLES
    ] + [("https://web.test/search", None, {"X-API-KEY": "secret-web"})]


def test_http_caption_without_endpoint_leaves_no_caption_backend(http_cfg):
    http_cfg["caption.endpoint"] = ""
    with pytest.raises(ConfigError, match="no caption backend configured"):
        cli_mod.build_gateway(http_cfg).caption_image("https://img.test/a.png")


@pytest.mark.parametrize("key", [f"{role}.backend" for role in _HTTP_ROLES] + ["web.backend"])
def test_unknown_backend_is_a_config_error(http_cfg, key):
    http_cfg[key] = "carrier-pigeon"
    build = cli_mod.build_web_client if key == "web.backend" else cli_mod.build_gateway
    with pytest.raises(ConfigError, match=f"unknown {key} 'carrier-pigeon'"):
        build(http_cfg)


def test_ingest_refuses_a_blank_text_record_before_any_backend_call(
        world_dir, tmp_path, capsys, backend_calls):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "a", "text": "words"}) + "\n"
                      + json.dumps({"id": "b", "text": " \t "}) + "\n", encoding="utf-8")
    code, out, err = run_cli([
        "ingest", "--corpus", str(corpus), "--out", str(tmp_path / "store"),
        "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert code == 1
    assert err.startswith(f"error: bad corpus record at {corpus} line 2: ") and err.count("\n") == 1
    assert "'b' has neither text" in err
    assert backend_calls == []
    assert not (tmp_path / "store").exists()


def test_ingest_of_an_empty_corpus_exits_2(world_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n", encoding="utf-8")
    code, out, err = run_cli([
        "ingest", "--corpus", str(corpus), "--out", str(tmp_path / "store"),
        "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert code == 2
    assert err == "corpus is empty\n"
    assert not (tmp_path / "store").exists()


def test_ingest_prints_extraction_warnings(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "d1", "text": "plain words"}) + "\n", encoding="utf-8")
    prompt = TemplateSet().render("extract_graph", text="plain words")
    chat = tmp_path / "chat.json"
    chat.write_text(json.dumps([{"turns": [{"role": "user", "content": prompt}],
                                 "response": "nothing to extract"}]), encoding="utf-8")
    config = tmp_path / "hmrag.conf"
    config.write_text(f"chat.backend = scripted\nchat.fixture = {chat}\n"
                      "embedding.backend = scripted\ncaption.backend = scripted\n", encoding="utf-8")
    code, out, err = run_cli([
        "ingest", "--corpus", str(corpus), "--out", str(tmp_path / "store"), "--config", str(config),
    ], capsys)
    assert code == 0
    assert "ingested 1 documents: 1 chunks, 0 entities, 0 triplets" in out
    assert err == ("warning: extraction produced no parseable lines for document 'd1'; skipped\n")


def test_pipeline_error_prints_its_trace(world_dir, store_dir, capsys, monkeypatch):
    def down(self, text):
        raise BackendUnavailableError("embedding down")

    monkeypatch.setattr(HashingEmbeddingBackend, "embed", down)
    question = format_eval_question(world_dir.eval_records[0])
    code, out, err = run_cli([
        "query", "--store", str(store_dir), "--config", str(world_dir.paths["config"]),
        "--disable-agent", "graph", "--disable-agent", "web", question,
    ], capsys)
    assert code == 1
    first, _, rest = err.partition("\n")
    assert first == "error: no available answer candidates to decide over"
    trace = json.loads(rest)
    assert trace["question"] == question
    assert any("embedding down" in w for e in trace["entries"] for w in e["warnings"])


def test_pipeline_error_without_the_decision_stage_prints_its_trace(
        world_dir, store_dir, capsys, monkeypatch):
    def down(self, text):
        raise BackendUnavailableError("embedding down")

    monkeypatch.setattr(HashingEmbeddingBackend, "embed", down)
    question = format_eval_question(world_dir.eval_records[0])
    code, out, err = run_cli([
        "query", "--store", str(store_dir), "--config", str(world_dir.paths["config"]),
        "--disable-agent", "graph", "--disable-agent", "web", "--no-decision", question,
    ], capsys)
    assert code == 1
    first, _, rest = err.partition("\n")
    assert first == "error: no available answer candidates to decide over"
    entry = json.loads(rest)["entries"][0]
    assert [(c["source"], c["available"]) for c in entry["candidates"]] == [("vector", False)]
    assert entry["report"] is None
    assert any("embedding down" in w for w in entry["warnings"])


def test_ingest_that_fails_at_one_document_names_it_and_writes_no_store(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": f"plain words {i}",
                                          "image_ref": f"img/d{i}.png" if i == 7 else None}) + "\n"
                              for i in range(12)), encoding="utf-8")
    chat, captions = tmp_path / "chat.json", tmp_path / "captions.json"
    chat.write_text("[]", encoding="utf-8")
    captions.write_text("{}", encoding="utf-8")
    config = tmp_path / "hmrag.conf"
    config.write_text(f"chat.backend = scripted\nchat.fixture = {chat}\n"
                      "embedding.backend = scripted\n"
                      f"caption.backend = scripted\ncaption.fixture = {captions}\n",
                      encoding="utf-8")
    store = tmp_path / "store"
    code, out, err = run_cli([
        "ingest", "--corpus", str(corpus), "--out", str(store), "--config", str(config),
    ], capsys)
    assert (code, err) == (1, "error: no scripted caption for 'img/d7.png'\n")
    assert list(store.iterdir()) == []


def test_ingest_whose_embedding_fails_at_one_chunk_writes_no_store(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": f"plain words {i}"}) + "\n"
                              for i in range(12)), encoding="utf-8")
    embed = HashingEmbeddingBackend.embed

    def down_at_seven(self, text):
        if text == "plain words 7":
            raise GatewayError("embedding down at chunk d7")
        return embed(self, text)

    monkeypatch.setattr(HashingEmbeddingBackend, "embed", down_at_seven)
    chat, config = tmp_path / "chat.json", tmp_path / "hmrag.conf"
    chat.write_text("[]", encoding="utf-8")  # extraction would come after the index
    config.write_text(f"chat.backend = scripted\nchat.fixture = {chat}\n"
                      "embedding.backend = scripted\ncaption.backend = scripted\n", encoding="utf-8")
    store = tmp_path / "store"
    code, out, err = run_cli([
        "ingest", "--corpus", str(corpus), "--out", str(store), "--config", str(config),
    ], capsys)
    assert (code, out, err) == (1, "", "error: embedding down at chunk d7\n")
    assert list(store.iterdir()) == []


def test_ingest_missing_one_extraction_entry_names_that_document(tmp_path, capsys):
    texts = [f"plain words of document {i}" for i in range(12)]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": text}) + "\n"
                              for i, text in enumerate(texts)), encoding="utf-8")
    templates = TemplateSet()
    chat = tmp_path / "chat.json"
    chat.write_text(json.dumps([
        {"turns": [{"role": "user", "content": templates.render("extract_graph", text=text)}],
         "response": f"ENTITY|thing{i}|a thing"}
        for i, text in enumerate(texts) if i != 7]), encoding="utf-8")
    config = tmp_path / "hmrag.conf"
    config.write_text(f"chat.backend = scripted\nchat.fixture = {chat}\n"
                      "embedding.backend = scripted\ncaption.backend = scripted\n", encoding="utf-8")
    store = tmp_path / "store"
    code, out, err = run_cli([
        "ingest", "--corpus", str(corpus), "--out", str(store), "--config", str(config),
    ], capsys)
    assert code == 1
    assert err.startswith("error: no scripted response for prompt ") and err.count("\n") == 1
    assert [text for text in texts if text in err] == [texts[7]]
    assert list(store.iterdir()) == []


def test_ingest_writes_the_stores_of_the_test_world(tmp_path, capsys):
    """`hmrag ingest` and `tests/world.py` build their stores on one path."""
    world = build_world(n=20).write_files(tmp_path / "world")
    store, expected = tmp_path / "store", tmp_path / "expected"
    code, out, err = run_cli([
        "ingest", "--corpus", str(world.paths["corpus"]), "--out", str(store),
        "--config", str(world.paths["config"]),
    ], capsys)
    assert code == 0, err
    assert EmbeddingIndex.load(store / "index.jsonl") == world.index
    assert KnowledgeGraph.load(store / "graph.jsonl") == world.graph
    expected.mkdir()
    world.index.save(expected / "index.jsonl")
    world.graph.save(expected / "graph.jsonl")
    for name in ("index.jsonl", "graph.jsonl"):
        assert (store / name).read_bytes() == (expected / name).read_bytes()


# run in a fresh interpreter: this one loaded `requests` through conftest
_OFFLINE_RUN = """
import json, sys
import hmrag, hmrag.cli
corpus, config, store, question, client = sys.argv[1:]
ingest = hmrag.cli.main(["ingest", "--corpus", corpus, "--out", store, "--config", config])
query = hmrag.cli.main(["query", "--store", store, "--config", config, question])
offline = sorted({"requests", "urllib3"} & sys.modules.keys())
if client == "embedding":
    from hmrag.gateway import HTTPEmbeddingBackend, ModelBackendConfig
    HTTPEmbeddingBackend(ModelBackendConfig("http://embed.local"))
else:
    from hmrag.web_agent import SerperSearchClient
    SerperSearchClient("http://search.local", api_key_env="")
print(json.dumps([ingest, query, offline, "requests" in sys.modules]))
"""


@pytest.mark.parametrize("client", ["embedding", "search"])
def test_offline_cli_run_never_loads_the_http_stack(world_dir, tmp_path, client):
    question = format_eval_question(world_dir.eval_records[0])
    env = dict(os.environ, PYTHONPATH=str(Path(cli_mod.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _OFFLINE_RUN, str(world_dir.paths["corpus"]),
         str(world_dir.paths["config"]), str(tmp_path / "store"), question, client],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    ingest, query, offline, after_build = json.loads(done.stdout.splitlines()[-1])
    assert (ingest, query, offline) == (0, 0, [])
    assert after_build  # building an HTTP client brings `requests` in
