import dataclasses
import itertools
import json

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import hmrag.gateway as gateway_mod
from hmrag.errors import (
    BackendUnavailableError,
    ConfigError,
    GatewayError,
    ScriptMismatchError,
)
from hmrag.gateway import (
    CallLog,
    ChatTurn,
    DecodingParams,
    HTTPCaptionBackend,
    HTTPChatBackend,
    HTTPEmbeddingBackend,
    ModelBackendConfig,
    ScriptedCaptionBackend,
    ScriptedChatBackend,
)
from hmrag.web_agent import SearchConfig, SearchResult, SerperSearchClient

from conftest import JSON_VALUES, CountingChatBackend, FakeResponse, make_gateway, user_turns


@pytest.mark.parametrize("kwargs", [
    {"max_tokens": -1},
    {"max_tokens": -1024},
    {"max_tokens": -(2**31)},
    {"max_tokens": 0},
])
def test_decoding_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        DecodingParams(**kwargs)


def test_chat_turn_requires_user_content():
    with pytest.raises(ValueError):
        ChatTurn("  ")


def test_backend_config_validates_timeout():
    with pytest.raises(ValueError):
        ModelBackendConfig(endpoint="http://x", timeout_s=0)


def test_scripted_chat_returns_mapped_response():
    backend = CountingChatBackend(ScriptedChatBackend().add(user_turns("what is granite?"), "Answer: B"))
    gateway = make_gateway(chat=backend)
    assert gateway.complete_chat("what is granite?") == "Answer: B"
    assert gateway.complete_chat("what is granite?") == "Answer: B"  # determinism
    assert backend.calls == 2


def test_scripted_chat_miss_is_hard_error():
    backend = ScriptedChatBackend().add(user_turns("a"), "x")
    gateway = make_gateway(chat=backend)
    with pytest.raises(ScriptMismatchError):
        gateway.complete_chat("b")


def test_empty_prompt_rejected():
    gateway = make_gateway()
    for prompt in ("", "  \n"):
        with pytest.raises(ValueError):
            gateway.complete_chat(prompt)


def test_hashing_embedding_is_deterministic(hashing_backend):
    gateway = make_gateway(embedding=hashing_backend)
    first = gateway.embed_text("cat")
    second = gateway.embed_text("cat")
    assert first.shape == (8,)
    np.testing.assert_array_equal(first, second)


def test_embed_rejects_empty_text(hashing_backend):
    gateway = make_gateway(embedding=hashing_backend)
    with pytest.raises(ValueError):
        gateway.embed_text("")
    with pytest.raises(ValueError):
        gateway.embed_text("   ")


def test_hashing_embedding_no_collisions_over_fixture_sample(hashing_backend):
    # 100 distinct strings must map to 100 pairwise-distinct vectors
    texts = [f"sample text number {i} about topic {i % 7}" for i in range(100)]
    vectors = [tuple(hashing_backend.embed(t)) for t in texts]
    for a, b in itertools.combinations(range(100), 2):
        assert vectors[a] != vectors[b], (texts[a], texts[b])


def test_hashing_embedding_similar_text_scores_higher(hashing_backend):
    base = hashing_backend.embed("the capital of arvania is arvapolis")
    near = hashing_backend.embed("capital of arvania")
    far = hashing_backend.embed("unrelated volcanic mineral survey")
    assert float(base @ near) > float(base @ far)


def test_scripted_caption_and_miss():
    backend = ScriptedCaptionBackend({"img/soil.png": "a diagram of soil layers"})
    gateway = make_gateway(caption=backend)
    assert gateway.caption_image("img/soil.png") == "a diagram of soil layers"
    assert gateway.caption_image("img/soil.png") == "a diagram of soil layers"
    with pytest.raises(ScriptMismatchError):
        gateway.caption_image("img/missing.png")


def test_caption_without_backend_is_config_error():
    gateway = make_gateway()
    with pytest.raises(ConfigError):
        gateway.caption_image("img/x.png")


def test_http_chat_wire_format(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, payload=json, headers=headers, timeout=timeout)
        return FakeResponse({"choices": [{"message": {"content": "hello"}}]})

    monkeypatch.setattr(gateway_mod.requests, "post", fake_post)
    monkeypatch.setenv("TEST_CHAT_KEY", "sk-test")
    backend = HTTPChatBackend(ModelBackendConfig(
        endpoint="http://models.local/v1/chat/completions",
        model_name="small-chat", api_key_env="TEST_CHAT_KEY", timeout_s=12.5, retries=1,
    ))
    out = backend.complete(user_turns("hi"), DecodingParams(max_tokens=64))

    assert out == "hello"
    assert captured["payload"]["messages"] == [{"role": "user", "content": "hi"}]
    assert captured["payload"]["temperature"] == 0.0
    assert captured["payload"]["top_p"] == 1.0
    assert captured["payload"]["max_tokens"] == 64
    assert captured["headers"]["Authorization"] == "Bearer sk-test"
    assert captured["timeout"] == 12.5


def test_http_chat_missing_api_key_env(monkeypatch):
    monkeypatch.delenv("MISSING_KEY", raising=False)
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", api_key_env="MISSING_KEY"))
    with pytest.raises(ConfigError):
        backend.complete(user_turns("hi"), DecodingParams())


def test_http_retries_then_succeeds(monkeypatch):
    attempts = []

    def flaky_post(url, **kwargs):
        attempts.append(url)
        if len(attempts) < 3:
            raise requests.ConnectionError("down")
        return FakeResponse({"choices": [{"message": {"content": "up"}}]})

    monkeypatch.setattr(gateway_mod.requests, "post", flaky_post)
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", retries=2))
    assert backend.complete(user_turns("hi"), DecodingParams()) == "up"
    assert len(attempts) == 3


def test_http_retries_exhausted(monkeypatch):
    attempts = []

    def dead_post(url, **kwargs):
        attempts.append(url)
        raise requests.ConnectionError("down")

    monkeypatch.setattr(gateway_mod.requests, "post", dead_post)
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", retries=2))
    with pytest.raises(BackendUnavailableError):
        backend.complete(user_turns("hi"), DecodingParams())
    assert len(attempts) == 3


def test_http_4xx_fails_without_retry(monkeypatch):
    attempts = []

    def reject_post(url, **kwargs):
        attempts.append(url)
        return FakeResponse({"error": "bad"}, status_code=401)

    monkeypatch.setattr(gateway_mod.requests, "post", reject_post)
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", retries=3))
    with pytest.raises(GatewayError):
        backend.complete(user_turns("hi"), DecodingParams())
    assert len(attempts) == 1


def test_retries_never_change_the_value(monkeypatch):
    payload = {"choices": [{"message": {"content": "stable"}}]}
    calls = {"n": 0}

    def flaky_post(url, **kwargs):
        calls["n"] += 1
        if calls["n"] % 2 == 1:
            raise requests.ConnectionError("blip")
        return FakeResponse(payload)

    monkeypatch.setattr(gateway_mod.requests, "post", flaky_post)
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", retries=1))
    flaky_value = backend.complete(user_turns("hi"), DecodingParams())

    monkeypatch.setattr(gateway_mod.requests, "post", lambda url, **kw: FakeResponse(payload))
    clean_value = backend.complete(user_turns("hi"), DecodingParams())
    assert flaky_value == clean_value


@pytest.mark.parametrize("content", [None, 42, ["a", "b"]])
def test_http_non_text_content_is_gateway_error(monkeypatch, content):
    from hmrag.gateway import HTTPCaptionBackend

    payload = {"choices": [{"message": {"content": content}}]}
    monkeypatch.setattr(gateway_mod.requests, "post", lambda url, **kw: FakeResponse(payload))
    config = ModelBackendConfig(endpoint="http://x")
    with pytest.raises(GatewayError):
        HTTPChatBackend(config).complete(user_turns("hi"), DecodingParams())
    with pytest.raises(GatewayError):
        HTTPCaptionBackend(config).caption("https://example.org/pic.jpg")


def test_http_non_json_body_is_gateway_error(monkeypatch):
    body = FakeResponse(None, text="<html>502 from a proxy</html>")
    monkeypatch.setattr(gateway_mod.requests, "post", lambda url, **kw: body)
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x"))
    with pytest.raises(GatewayError, match="malformed JSON"):
        backend.complete(user_turns("hi"), DecodingParams())


def test_http_embedding_wire_format(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(payload=json)
        return FakeResponse({"data": [{"embedding": [0.1, 0.2, 0.3]}]})

    monkeypatch.setattr(gateway_mod.requests, "post", fake_post)
    backend = HTTPEmbeddingBackend(ModelBackendConfig(endpoint="http://x", model_name="emb"))
    vector = backend.embed("hello world")
    assert captured["payload"] == {"model": "emb", "input": ["hello world"]}
    np.testing.assert_allclose(vector, [0.1, 0.2, 0.3])


def test_http_caption_encodes_local_file(monkeypatch, tmp_path):
    from hmrag.gateway import HTTPCaptionBackend

    image = tmp_path / "pic.png"
    image.write_bytes(b"\x89PNG fake bytes")
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(payload=json)
        return FakeResponse({"choices": [{"message": {"content": "a test image"}}]})

    monkeypatch.setattr(gateway_mod.requests, "post", fake_post)
    backend = HTTPCaptionBackend(ModelBackendConfig(endpoint="http://x", model_name="vlm"))
    assert backend.caption(str(image)) == "a test image"
    content = captured["payload"]["messages"][0]["content"]
    assert content[0]["type"] == "text"
    assert content[1]["image_url"]["url"].startswith("data:image/png;base64,")
    assert captured["payload"]["temperature"] == 0.0


def test_http_caption_missing_file_errors_before_network(monkeypatch):
    from hmrag.gateway import HTTPCaptionBackend

    def no_post(*args, **kwargs):
        raise AssertionError("must not reach the network")

    monkeypatch.setattr(gateway_mod.requests, "post", no_post)
    backend = HTTPCaptionBackend(ModelBackendConfig(endpoint="http://x"))
    with pytest.raises(ValueError):
        backend.caption("img/definitely-missing.png")


def test_http_caption_passes_urls_through(monkeypatch):
    from hmrag.gateway import HTTPCaptionBackend

    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(payload=json)
        return FakeResponse({"choices": [{"message": {"content": "remote"}}]})

    monkeypatch.setattr(gateway_mod.requests, "post", fake_post)
    backend = HTTPCaptionBackend(ModelBackendConfig(endpoint="http://x"))
    backend.caption("https://example.org/pic.jpg")
    content = captured["payload"]["messages"][0]["content"]
    assert content[1]["image_url"]["url"] == "https://example.org/pic.jpg"


def test_call_log_records_roles(hashing_backend):
    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend, call_log=log)
    with log.collect() as records:
        gateway.complete_chat("hi")
        gateway.complete_chat("hi", role="expert_chat")
        gateway.embed_text("hello")
    assert [(r.kind, r.role) for r in records] == [
        ("chat", "chat"), ("chat", "expert_chat"), ("embedding", "embedding"),
    ]
    gateway.complete_chat("outside")  # no list is open: dropped
    with log.collect() as fresh:
        pass
    assert fresh == []
    assert len(records) == 3


def test_call_log_is_thread_safe(hashing_backend):
    import concurrent.futures
    import contextvars
    import sys

    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend, call_log=log)

    def worker(i):
        for _ in range(50):
            gateway.embed_text(f"text {i}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with log.collect() as records, concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(contextvars.copy_context().run, worker, i) for i in range(8)]
            for future in futures:
                future.result(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert len(records) == 400


def test_nested_collect_keeps_each_list_apart(hashing_backend):
    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend, call_log=log)
    with log.collect() as outer:
        gateway.embed_text("before")
        with log.collect() as inner:
            gateway.embed_text("inside")
        gateway.embed_text("after")
    assert [r.detail for r in outer] == ["before", "after"]
    assert [r.detail for r in inner] == ["inside"]


def test_gateway_without_call_log_records_nothing(hashing_backend):
    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend)
    with log.collect() as records:
        gateway.complete_chat("hi")
        gateway.embed_text("hello")
    assert records == []


def test_scripted_chat_from_file(tmp_path):
    entries = [{"turns": [{"role": "user", "content": "ping"}], "response": "pong"}]
    path = tmp_path / "chat.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    backend = ScriptedChatBackend.from_file(path)
    gateway = make_gateway(chat=backend)
    assert gateway.complete_chat("ping") == "pong"


def test_chat_turn_is_its_content_alone():
    assert [f.name for f in dataclasses.fields(ChatTurn)] == ["content"]


_GOOD_TURN = {"role": "user", "content": "ping"}


@pytest.mark.parametrize("entry", [
    {"response": "pong"},                                                       # no turns
    {"turns": [_GOOD_TURN]},                                                    # no response
    {"turns": [{"content": "ping"}], "response": "pong"},                       # no role
    {"turns": [{"role": "user"}], "response": "pong"},                          # no content
    {"turns": [], "response": "pong"},                                          # zero turns
    {"turns": [{"role": "system", "content": "be terse"}, _GOOD_TURN], "response": "pong"},
    {"turns": [{"role": "assistant", "content": "ping"}], "response": "pong"},
    {"turns": [{"role": "system", "content": "ping"}], "response": "pong"},
    {"turns": [{"role": "user", "content": 5}], "response": "pong"},
    {"turns": [{"role": "user", "content": "  "}], "response": "pong"},
    {"turns": [_GOOD_TURN], "response": 5},
    {"turns": _GOOD_TURN, "response": "pong"},                                  # not a list
    ["ping", "pong"],
])
def test_scripted_chat_from_file_refuses_entries_the_gateway_cannot_send(tmp_path, entry):
    path = tmp_path / "chat.json"
    path.write_text(json.dumps([{"turns": [_GOOD_TURN], "response": "pong"}, entry]),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad chat fixture entry 1 in .*chat\.json"):
        ScriptedChatBackend.from_file(path)


def test_scripted_chat_from_file_refuses_a_fixture_that_is_not_a_list(tmp_path):
    path = tmp_path / "chat.json"
    path.write_text("5", encoding="utf-8")
    with pytest.raises(ValueError, match=r"chat fixture .*chat\.json"):
        ScriptedChatBackend.from_file(path)


@pytest.mark.parametrize("count", [0, 2])
def test_chat_backends_refuse_anything_but_one_turn(monkeypatch, count):
    def fail_post(*args, **kwargs):
        raise AssertionError("requests.post must not be called")

    monkeypatch.setattr(gateway_mod.requests, "post", fail_post)
    turns = [ChatTurn(f"turn {i}") for i in range(count)]
    with pytest.raises(ValueError, match="exactly one user turn"):
        HTTPChatBackend(ModelBackendConfig(endpoint="http://x")).complete(turns, DecodingParams())
    with pytest.raises(ValueError, match="exactly one user turn"):
        ScriptedChatBackend().complete(turns, DecodingParams())
    with pytest.raises(ValueError, match="exactly one user turn"):
        ScriptedChatBackend().add(turns, "x")


def test_scripted_chat_miss_names_the_prompt():
    backend = ScriptedChatBackend().add(user_turns("a"), "x")
    with pytest.raises(ScriptMismatchError, match="'what is basalt\\?'"):
        backend.complete(user_turns("what is basalt?"), DecodingParams())


_MODEL_CONFIG = ModelBackendConfig(endpoint="http://models.local")
# Each client sees arbitrary JSON, and arbitrary JSON inside the shape it expects.
_HTTP_CLIENTS = {
    "chat": (
        lambda: HTTPChatBackend(_MODEL_CONFIG).complete(user_turns("hi"), DecodingParams()),
        st.builds(lambda v: {"choices": [{"message": {"content": v}}]}, JSON_VALUES),
        lambda out: isinstance(out, str),
    ),
    "caption": (
        lambda: HTTPCaptionBackend(_MODEL_CONFIG).caption("https://example.org/pic.jpg"),
        st.builds(lambda v: {"choices": [{"message": {"content": v}}]}, JSON_VALUES),
        lambda out: isinstance(out, str),
    ),
    "embedding": (
        lambda: HTTPEmbeddingBackend(_MODEL_CONFIG).embed("hello"),
        st.builds(lambda v: {"data": [{"embedding": v}]},
                  JSON_VALUES | st.lists(st.integers() | st.floats(), max_size=4)),
        lambda out: (isinstance(out, np.ndarray) and out.dtype == np.float64
                     and out.ndim == 1 and out.size > 0 and bool(np.isfinite(out).all())),
    ),
    "search": (
        lambda: SerperSearchClient("http://search.local", api_key_env="").search("q", SearchConfig()),
        st.builds(lambda v: {"organic": v}, st.lists(st.fixed_dictionaries(
            {"link": st.just("https://example.org") | JSON_VALUES},
            optional={"title": JSON_VALUES, "snippet": JSON_VALUES, "position": JSON_VALUES},
        ), max_size=4)),
        lambda out: isinstance(out, list) and all(isinstance(r, SearchResult) for r in out),
    ),
}


@pytest.mark.parametrize("client", sorted(_HTTP_CLIENTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_http_response_decoding_yields_value_or_gateway_error(client, data):
    call, shaped, is_valid = _HTTP_CLIENTS[client]
    body = data.draw(JSON_VALUES | shaped)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gateway_mod.requests, "post", lambda url, **kw: FakeResponse(body))
        try:
            out = call()
        except GatewayError:  # SearchParseError included
            return
    assert is_valid(out), out
