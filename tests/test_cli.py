import json
import shutil

import pytest

import hmrag.cli as cli_mod
from hmrag.cli import main
from hmrag.gateway import HashingEmbeddingBackend, ScriptedChatBackend
from hmrag.pipeline import format_eval_question

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
     "vector has 1 entries, header dim is 64"),
    ("index.jsonl", "index record", {"chunk_id": "extra", "text": "t", "vector": [1.0] * 65},
     "vector has 65 entries, header dim is 64"),
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
    code, out, err = run_cli([
        "eval", "--store", str(store_dir), "--dataset", str(tmp_path / "missing.jsonl"),
        "--report", str(tmp_path / "report.json"), "--config", str(world_dir.paths["config"]),
    ], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing.jsonl" in err


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
