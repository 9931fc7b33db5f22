import inspect
import re

import pytest

from hmrag.cli import build_pipeline_config
from hmrag.config import DEFAULTS, format_defaults, load_config, parse_config_text
from hmrag.errors import ConfigError
from hmrag.gateway import HashingEmbeddingBackend, ModelBackendConfig
from hmrag.ingest import chunk_document
from hmrag.pipeline import PipelineConfig
from hmrag.templates import TemplateSet, render
from hmrag.web_agent import SearchConfig, SerperSearchClient


def test_defaults_cover_every_backend_role():
    for role in ("chat", "lightweight_chat", "expert_chat", "embedding", "caption"):
        for key in ("endpoint", "model_name", "timeout_s", "retries"):
            assert f"{role}.{key}" in DEFAULTS


def test_cli_defaults_equal_the_library_defaults():
    # each of these values is written twice: once in DEFAULTS, once as a parameter default
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert build_pipeline_config(dict(DEFAULTS)) == PipelineConfig()
    pairs = {
        "chunking.size": default(chunk_document, "chunk_size"),
        "chunking.overlap": default(chunk_document, "overlap"),
        "embedding.dim": default(HashingEmbeddingBackend, "dim"),
        "embedding.seed": default(HashingEmbeddingBackend, "seed"),
        "web.num_results": default(SearchConfig, "num_results"),
        "web.language": default(SearchConfig, "language"),
        "web.search_endpoint": default(SerperSearchClient, "endpoint"),
        "web.api_key_env": default(SerperSearchClient, "api_key_env"),
        "web.timeout_s": default(SerperSearchClient, "timeout_s"),
        "web.retries": default(SerperSearchClient, "retries"),
    }
    for role in ("chat", "lightweight_chat", "expert_chat", "embedding", "caption"):
        pairs[f"{role}.timeout_s"] = default(ModelBackendConfig, "timeout_s")
        pairs[f"{role}.retries"] = default(ModelBackendConfig, "retries")
    assert {key: DEFAULTS[key] for key in pairs} == pairs


def test_parse_coerces_known_types():
    values = parse_config_text(
        "# comment line\n"
        "retrieval.top_k = 7\n"
        "graph.tau = 0.6\n"
        "decision.enabled = false\n"
        "chat.endpoint = http://models.local/v1\n"
        "\n"
    )
    assert values == {
        "retrieval.top_k": 7,
        "graph.tau": 0.6,
        "decision.enabled": False,
        "chat.endpoint": "http://models.local/v1",
    }


def test_parse_rejects_bad_lines_and_values():
    with pytest.raises(ConfigError):
        parse_config_text("just words without equals")
    with pytest.raises(ConfigError):
        parse_config_text("retrieval.top_k = many")
    with pytest.raises(ConfigError):
        parse_config_text("decision.enabled = maybe")


@pytest.mark.parametrize("line, expected", [
    ("retrieval.top_k = many", "retrieval.top_k expects an integer, got 'many'"),
    ("graph.tau = high", "graph.tau expects a number, got 'high'"),
    ("decision.enabled = maybe", "decision.enabled expects true/false, got 'maybe'"),
])
def test_value_of_the_wrong_type_names_its_line(line, expected):
    with pytest.raises(ConfigError, match=f"^config line 2: {re.escape(expected)}$"):
        parse_config_text(f"# c\n{line}\n")


def test_unknown_keys_are_refused():
    # a misspelt key, then retired ones that would otherwise change prompts or metrics unnoticed
    for line in ("retrieval.topk = 7", "web.type = stub", "decision.bleu_max_n = 2",
                 "prompts.file.vector_header = 0010"):
        key = line.partition(" =")[0]
        with pytest.raises(ConfigError, match=f"^config line 3 sets unknown key '{re.escape(key)}'$"):
            parse_config_text(f"retrieval.top_k = 7\n# a comment\n{line}\n")


def test_load_config_merges_file_over_defaults(tmp_path):
    path = tmp_path / "hmrag.conf"
    path.write_text("retrieval.top_k = 9\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg["retrieval.top_k"] == 9
    assert cfg["graph.tau"] == DEFAULTS["graph.tau"]


def test_load_config_honors_env_var(tmp_path, monkeypatch):
    path = tmp_path / "env.conf"
    path.write_text("graph.tau = 0.9\n", encoding="utf-8")
    monkeypatch.setenv("HMRAG_CONFIG", str(path))
    assert load_config()["graph.tau"] == 0.9


def test_load_config_missing_file_errors():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/hmrag.conf")


def test_format_defaults_round_trips_through_parser():
    parsed = parse_config_text(format_defaults())
    assert parsed == DEFAULTS


def test_render_is_single_pass():
    out = render("ask {question} now", question="what is {question}?")
    assert out == "ask what is {question}? now"


def test_render_leaves_unknown_placeholders():
    assert render("value {unknown}", question="q") == "value {unknown}"


def test_template_overrides_dir(tmp_path):
    (tmp_path / "vector_header.txt").write_text("CUSTOM HEADER", encoding="utf-8")
    templates = TemplateSet(overrides_dir=tmp_path)
    assert templates.text("vector_header") == "CUSTOM HEADER"
    # untouched templates still come from the package
    assert "{question}" in templates.text("judge_intent")


def test_template_override_that_is_not_utf8_fails_when_the_set_is_built(tmp_path):
    path = tmp_path / "summarize.txt"
    path.write_bytes(b"Summarize \xff{text}")
    with pytest.raises(ConfigError, match=f"cannot read prompt template {re.escape(str(path))}"):
        TemplateSet(overrides_dir=tmp_path)


def test_template_overrides_dir_must_be_a_directory(tmp_path):
    with pytest.raises(ConfigError, match="not a directory"):
        TemplateSet(overrides_dir=tmp_path / "missing")


def test_unknown_template_name_rejected():
    with pytest.raises(ConfigError):
        TemplateSet().text("no_such_template")
