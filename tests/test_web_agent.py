import json
import re

import pytest
import requests

import hmrag.web_agent as web_mod
from hmrag.errors import ConfigError, GatewayError, ScriptMismatchError, SearchParseError
from hmrag.gateway import CallLog, ScriptedChatBackend
from hmrag.templates import TemplateSet
from hmrag.web_agent import (
    SearchConfig,
    SearchResult,
    SerperSearchClient,
    StubSearchClient,
    WebAgent,
    format_results,
)

from conftest import DEEP_JSON, FakeResponse, decoding_response, make_gateway, user_turns

TEMPLATES = TemplateSet()

PLANET_FIXTURE = {
    "largest planet": {
        "organic": [
            {"title": "Jupiter", "snippet": "Jupiter is the largest planet.",
             "link": "https://example.org/jupiter", "position": 1},
            {"title": "Planet sizes", "snippet": "Ranking of planet sizes.",
             "link": "https://example.org/sizes", "position": 2},
            {"title": "Gas giants", "snippet": "Jupiter and Saturn are gas giants.",
             "link": "https://example.org/giants", "position": 3},
        ]
    }
}


def test_stub_returns_results_in_position_order():
    client = StubSearchClient(PLANET_FIXTURE)
    results = client.search("largest planet", SearchConfig(num_results=5))
    assert [r.position for r in results] == [1, 2, 3]
    assert results[0].url == "https://example.org/jupiter"


def test_stub_truncates_to_num_results():
    client = StubSearchClient(PLANET_FIXTURE)
    results = client.search("largest planet", SearchConfig(num_results=2))
    assert [r.position for r in results] == [1, 2]


def test_duplicate_positions_violate_invariant():
    fixture = {"q": {"organic": [
        {"title": "a", "snippet": "", "link": "https://a", "position": 1},
        {"title": "b", "snippet": "", "link": "https://b", "position": 1},
    ]}}
    with pytest.raises(SearchParseError):
        StubSearchClient(fixture).search("q", SearchConfig())


def test_stub_unknown_query_is_script_mismatch():
    with pytest.raises(ScriptMismatchError):
        StubSearchClient(PLANET_FIXTURE).search("unknown", SearchConfig())


def test_missing_organic_array_is_parse_error():
    client = StubSearchClient({"q": {"error": "quota"}})
    with pytest.raises(SearchParseError) as exc_info:
        client.search("q", SearchConfig())
    assert "quota" in exc_info.value.raw_payload


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(num_results=0)
    with pytest.raises(ValueError):
        SearchResult(title="t", snippet="s", url="", position=1)


def test_live_client_wire_format(monkeypatch):
    captured = {}

    class FakeResponse:
        status_code = 200
        text = json.dumps(PLANET_FIXTURE["largest planet"])

        def json(self):
            return PLANET_FIXTURE["largest planet"]

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, payload=json, headers=headers)
        return FakeResponse()

    monkeypatch.setattr(web_mod.requests, "post", fake_post)
    monkeypatch.setenv("SERPER_API_KEY", "serper-test")
    client = SerperSearchClient(endpoint="https://search.local/search")
    results = client.search("largest planet", SearchConfig(num_results=3, language="en"))
    assert captured["payload"] == {"q": "largest planet", "num": 3, "hl": "en"}
    assert captured["headers"]["X-API-KEY"] == "serper-test"
    assert len(results) == 3


def test_live_client_body_nested_too_deeply_is_parse_error(monkeypatch):
    monkeypatch.setattr(web_mod.requests, "post", lambda url, **kw: decoding_response(DEEP_JSON))
    client = SerperSearchClient(api_key_env="")
    with pytest.raises(SearchParseError, match="search response is not JSON"):
        client.search("q", SearchConfig())


def test_live_client_requires_api_key(monkeypatch):
    monkeypatch.delenv("SERPER_API_KEY", raising=False)
    with pytest.raises(ConfigError, match="'SERPER_API_KEY' is not set"):
        SerperSearchClient()


def test_live_client_unreachable(monkeypatch):
    monkeypatch.setenv("SERPER_API_KEY", "k")

    def dead_post(url, **kwargs):
        raise requests.ConnectionError("no route")

    monkeypatch.setattr(web_mod.requests, "post", dead_post)
    client = SerperSearchClient(retries=1)
    with pytest.raises(GatewayError):
        client.search("q", SearchConfig())


def test_infinite_position_is_parse_error():
    fixture = {"q": {"organic": [{"link": "https://a", "position": float("inf")}]}}
    with pytest.raises(SearchParseError):
        StubSearchClient(fixture).search("q", SearchConfig())


@pytest.mark.parametrize("entry", [
    {"link": "https://a", "title": None, "snippet": None},
    {"link": "https://a"},
])
def test_null_or_absent_title_and_snippet_read_as_empty_text(entry):
    (result,) = StubSearchClient({"q": {"organic": [entry]}}).search("q", SearchConfig())
    assert (result.title, result.snippet, result.position) == ("", "", 1)
    assert format_results([result]) == ["[1]  —  (https://a)"]


@pytest.mark.parametrize("entry, reason", [
    ({"title": 5}, "not text"),
    ({"title": ["Jupiter"]}, "not text"),
    ({"snippet": False}, "not text"),
    ({"snippet": {"text": "s"}}, "not text"),
    ({"link": 7}, "not text"),
    ({"link": ["https://b"]}, "not text"),
    ({"position": True}, "position True is not an int >= 1"),
    ({"position": 2.7}, "position 2.7 is not an int >= 1"),
    ({"position": None}, "position None is not an int >= 1"),
    ({"position": "2"}, "position '2' is not an int >= 1"),
    ({"position": 0}, "position 0 is not an int >= 1"),
])
def test_entry_that_is_not_text_or_an_int_position_is_parse_error_naming_it(entry, reason):
    organic = [{"link": "https://a", "position": 1}, {"link": "https://b", "position": 2, **entry}]
    with pytest.raises(SearchParseError, match=f"organic entry 1 .*{re.escape(reason)}"):
        StubSearchClient({"q": {"organic": organic}}).search("q", SearchConfig())


def test_live_client_retries_5xx_then_succeeds(monkeypatch):
    responses = [FakeResponse({"error": "busy"}, status_code=503),
                 FakeResponse(PLANET_FIXTURE["largest planet"])]
    monkeypatch.setattr(web_mod.requests, "post", lambda url, **kw: responses.pop(0))
    client = SerperSearchClient(api_key_env="", retries=1)
    results = client.search("largest planet", SearchConfig())
    assert [r.position for r in results] == [1, 2, 3]
    assert responses == []


def test_live_client_4xx_fails_without_retry(monkeypatch):
    attempts = []

    def reject_post(url, **kwargs):
        attempts.append(url)
        return FakeResponse({"error": "bad key"}, status_code=403)

    monkeypatch.setattr(web_mod.requests, "post", reject_post)
    client = SerperSearchClient(api_key_env="", retries=3)
    with pytest.raises(GatewayError):
        client.search("q", SearchConfig())
    assert len(attempts) == 1


def test_live_client_non_json_body_is_parse_error_with_raw_body(monkeypatch):
    body = "<html>gateway timeout</html>"
    monkeypatch.setattr(web_mod.requests, "post", lambda url, **kw: FakeResponse(None, text=body))
    client = SerperSearchClient(api_key_env="")
    with pytest.raises(SearchParseError) as exc_info:
        client.search("q", SearchConfig())
    assert exc_info.value.raw_payload == body


@pytest.mark.parametrize("kwargs", [{"timeout_s": 0}, {"timeout_s": -1.0}, {"retries": -1},
                                    {"timeout_s": float("nan")}, {"timeout_s": float("inf")},
                                    {"timeout_s": 1e12}])
def test_live_client_rejects_bad_timeout_and_retries(kwargs):
    with pytest.raises(ValueError):
        SerperSearchClient(**kwargs)


def test_answer_formats_results_and_attributes_urls():
    client = StubSearchClient(PLANET_FIXTURE)
    results = client.search("largest planet", SearchConfig(num_results=2))
    lines = format_results(results)
    assert lines[0] == "[1] Jupiter — Jupiter is the largest planet. (https://example.org/jupiter)"
    prompt = TEMPLATES.render("web_answer", question="largest planet", results="\n".join(lines))
    chat = ScriptedChatBackend().add(user_turns(prompt), "Jupiter. [1]")
    agent = WebAgent(make_gateway(chat=chat), client, SearchConfig(num_results=2), TEMPLATES)
    candidate = agent.answer("largest planet", results)
    assert candidate.text == "Jupiter. [1]"
    assert candidate.source == "web"
    # attribution soundness: every evidence URL came from the input results
    assert set(candidate.evidence) <= {r.url for r in results}
    assert agent.answer("largest planet", results) == candidate


def test_answer_with_no_results_states_no_evidence():
    prompt = TEMPLATES.render("web_answer", question="q", results="(no web evidence retrieved)")
    chat = ScriptedChatBackend().add(user_turns(prompt), "No web evidence found.")
    agent = WebAgent(make_gateway(chat=chat), StubSearchClient({}), SearchConfig(), TEMPLATES)
    candidate = agent.answer("q", [])
    assert candidate.text == "No web evidence found."
    assert candidate.evidence == ()


def test_run_degrades_to_unavailable_on_parse_error_and_keeps_payload():
    client = StubSearchClient({"q": {"organic": "not-a-list"}})
    agent = WebAgent(make_gateway(), client, SearchConfig(), TEMPLATES)
    warnings = []
    candidate = agent.run("q", warnings)
    assert candidate.available is False
    assert any("not-a-list" in w for w in warnings)


def test_search_calls_are_logged():
    log = CallLog()
    agent = WebAgent(make_gateway(call_log=log), StubSearchClient(PLANET_FIXTURE),
                     SearchConfig(), TEMPLATES)
    with log.collect() as records:
        agent.search("largest planet")
    assert [(r.kind, r.role) for r in records] == [("search", "web")]
