import concurrent.futures
import dataclasses
import hashlib
import itertools
import json
import random
import re
import sys
import threading

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import hmrag.gateway as gateway_mod
import hmrag.web_agent as web_mod
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
    HashingEmbeddingBackend,
    HTTPCaptionBackend,
    HTTPChatBackend,
    HTTPEmbeddingBackend,
    MAX_SLICES,
    ModelBackendConfig,
    ScriptedCaptionBackend,
    ScriptedChatBackend,
    map_in_threads,
    run_in_threads,
    start_in_thread,
    start_in_threads,
)
from hmrag.web_agent import SearchConfig, SearchResult, SerperSearchClient

from conftest import (
    DEEP_JSON, JSON_VALUES, CountingChatBackend, FakeResponse, decoding_response, make_gateway,
    traced_peak, user_turns,
)


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
    # requests.post would raise ValueError for nan and OverflowError for the others
    for timeout_s in (float("nan"), float("inf"), 1e12):
        with pytest.raises(ValueError, match="timeout_s"):
            ModelBackendConfig(endpoint="http://x", timeout_s=timeout_s)


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


def reference_embedding(text, dim, seed):
    """The hashing embedding written out without its memo."""
    acc = np.zeros(dim)
    for token in text.casefold().split():
        digest = hashlib.sha256(f"{seed}\x1f{token}".encode("utf-8")).digest()
        vec = np.random.default_rng(int.from_bytes(digest[:8], "little")).standard_normal(dim)
        acc += vec / np.linalg.norm(vec)
    return acc / np.linalg.norm(acc)


@pytest.mark.parametrize("dim, seed", [(3, 0), (16, 1), (64, 0), (64, 9)])
def test_hashing_embedding_is_bit_identical_to_the_unmemoised_formula(dim, seed):
    backend = HashingEmbeddingBackend(dim, seed)
    texts = ["cat", "Cat cat CAT", "the Capital of ARVANIA is arvapolis the", "Straße strasse",
             "cat"]
    for text in texts + texts:  # the second pass reads every token from the memo
        assert backend.embed(text).tobytes() == reference_embedding(text, dim, seed).tobytes()


def test_embed_returns_an_array_the_memo_does_not_share(monkeypatch):
    draw = gateway_mod._draw

    def opposed(seed, dim, token):  # "down" is "up" reversed, so "up down" sums to zero
        return -draw(seed, dim, "up") if token == "down" else draw(seed, dim, token)

    monkeypatch.setattr(gateway_mod, "_draw", opposed)
    backend = HashingEmbeddingBackend(dim=8, seed=3)
    assert backend.embed("up down").tobytes() == draw(3, 8, "up down").tobytes()  # the fallback
    for text in ("cat", "cat dog cat", "up down"):
        first = backend.embed(text)
        expected = first.copy()
        first += 1.0
        np.testing.assert_array_equal(backend.embed(text), expected)


def test_hashing_embedding_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(gateway_mod, "_TOKEN_MEMO_BYTES", 10 * 16 * 8)  # ten vectors at dim 16
    backend = HashingEmbeddingBackend(dim=16, seed=2)
    tokens = [f"token{i}" for i in range(50)]
    for token in tokens + tokens[:5]:
        assert backend.embed(token).tobytes() == reference_embedding(token, 16, 2).tobytes()
    info = backend._token_vector.cache_info()
    assert info.maxsize == 10 and info.currsize == 10


def test_concurrent_embeds_equal_serial_ones():
    tokens = [f"tok{i % 300} tok{i % 7}" for i in range(1200)]
    serial = {text: HashingEmbeddingBackend(16, 4).embed(text).tobytes() for text in tokens}
    shared = HashingEmbeddingBackend(16, 4)

    def worker(order):
        shuffled = random.Random(order).sample(tokens, len(tokens))
        return all(shared.embed(text).tobytes() == serial[text] for text in shuffled)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a torn memo entry shows
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, order) for order in range(8)]
            assert all(future.result(timeout=60) for future in futures)
    finally:
        sys.setswitchinterval(interval)
    assert shared._token_vector.cache_info().currsize == 300


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
    with pytest.raises(ConfigError, match="'MISSING_KEY' is not set"):
        HTTPChatBackend(ModelBackendConfig(endpoint="http://x", api_key_env="MISSING_KEY"))


@pytest.mark.parametrize("module", [gateway_mod, web_mod])
def test_requests_attribute_resolves_to_the_requests_module(module):
    assert module.requests is requests
    with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'no_such_name'"):
        module.no_such_name


def test_patching_requests_post_by_its_dotted_path_intercepts_a_send(monkeypatch):
    """The acceptance suite forbids the network this way."""
    def boom(*args, **kwargs):
        raise AssertionError("network call attempted")

    monkeypatch.setattr("hmrag.gateway.requests.post", boom)
    with pytest.raises(AssertionError, match="network call attempted"):
        HTTPEmbeddingBackend(ModelBackendConfig(endpoint="http://x")).embed("hello")


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


def test_http_4xx_fails_without_retry(monkeypatch, retry_waits):
    attempts = []

    def reject_post(url, **kwargs):
        attempts.append(url)
        return FakeResponse({"error": "bad"}, status_code=401)

    monkeypatch.setattr(gateway_mod.requests, "post", reject_post)
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", retries=3))
    with pytest.raises(GatewayError):
        backend.complete(user_turns("hi"), DecodingParams())
    assert len(attempts) == 1 and retry_waits == []


# each HTTP client built from a model config, and one request made through it
_BUILD_HTTP_CLIENT = {
    "chat": HTTPChatBackend,
    "embedding": HTTPEmbeddingBackend,
    "caption": HTTPCaptionBackend,
    "search": lambda config: SerperSearchClient(config.endpoint, config.api_key_env,
                                                config.timeout_s, config.retries),
}
_ONE_REQUEST = {
    "chat": lambda client: client.complete(user_turns("hi"), DecodingParams()),
    "embedding": lambda client: client.embed("hello"),
    "caption": lambda client: client.caption("https://example.org/pic.jpg"),
    "search": lambda client: client.search("q", SearchConfig()),
}


@pytest.mark.parametrize("endpoint", [
    "", "localhost:8080/v1/chat/completions", "ftp://models.local/v1", "http://", "https:///v1",
    "http://[::1/v1",
], ids=["empty", "no_scheme", "ftp", "no_host", "empty_host", "unbalanced_ipv6"])
@pytest.mark.parametrize("kind", sorted(_BUILD_HTTP_CLIENT))
def test_an_endpoint_that_is_not_an_http_url_with_a_host_fails_when_the_client_is_built(
        monkeypatch, kind, endpoint):
    posts = []
    monkeypatch.setattr(gateway_mod.requests, "post", lambda url, **kwargs: posts.append(url))
    with pytest.raises(ConfigError, match=f"^{kind} backend needs an http or https endpoint "
                                          f"with a host, got {re.escape(repr(endpoint))}$"):
        _BUILD_HTTP_CLIENT[kind](ModelBackendConfig(endpoint=endpoint, api_key_env=""))
    assert posts == []


@pytest.mark.parametrize("endpoint, key", [
    ("http://127.0.0.1:9/v1", "sk-test\n"), ("http://127.0.0.1:port/v1", "sk-test"),
], ids=["key_ends_in_newline", "port_not_a_number"])
@pytest.mark.parametrize("kind", sorted(_BUILD_HTTP_CLIENT))
def test_a_request_that_can_never_be_sent_fails_at_once_without_a_retry(
        monkeypatch, retry_waits, kind, endpoint, key):
    attempts = []
    real_post = requests.post  # refuses these before it opens any connection

    def post(url, **kwargs):
        attempts.append(url)
        return real_post(url, **kwargs)

    monkeypatch.setattr(gateway_mod.requests, "post", post)
    monkeypatch.setenv("TEST_KEY", key)
    client = _BUILD_HTTP_CLIENT[kind](
        ModelBackendConfig(endpoint=endpoint, api_key_env="TEST_KEY", retries=2))
    with pytest.raises(GatewayError, match=f"^request to {re.escape(endpoint)} cannot be sent: ") \
            as exc_info:
        _ONE_REQUEST[kind](client)
    assert not isinstance(exc_info.value, BackendUnavailableError)
    assert len(attempts) == 1 and retry_waits == []


def post_in_turn(monkeypatch, responses):
    """Makes `requests.post` answer with `responses` in turn; returns the list of attempts."""
    attempts = []

    def post(url, **kwargs):
        attempts.append(url)
        return responses[min(len(attempts), len(responses)) - 1]

    monkeypatch.setattr(gateway_mod.requests, "post", post)
    return attempts


OK_CHAT = FakeResponse({"choices": [{"message": {"content": "ok"}}]})


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("after, wait", [("7", 7.0), (" 0 ", 0.0), ("86400", 30.0)],
                         ids=["seconds", "zero", "capped"])
def test_429_and_503_wait_the_retry_after_seconds_capped(monkeypatch, retry_waits, status, after,
                                                        wait):
    attempts = post_in_turn(monkeypatch, [
        FakeResponse({"error": "slow down"}, status_code=status, headers={"retry-after": after}),
        OK_CHAT])
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", retries=2))
    assert backend.complete(user_turns("hi"), DecodingParams()) == "ok"
    assert len(attempts) == 2 and retry_waits == [wait]


@pytest.mark.parametrize("after", [None, "Wed, 21 Oct 2015 07:28:00 GMT", "1.5", "-1", "\u0661"],
                         ids=["absent", "http_date", "fraction", "negative", "non_ascii_digit"])
def test_429_without_delta_seconds_backs_off_with_jitter(monkeypatch, retry_waits, after):
    headers = {} if after is None else {"Retry-After": after}
    attempts = post_in_turn(monkeypatch, [
        FakeResponse({"error": "slow down"}, status_code=429, headers=headers), OK_CHAT])
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", retries=1))
    assert backend.complete(user_turns("hi"), DecodingParams()) == "ok"
    assert len(attempts) == 2
    (wait,) = retry_waits
    assert gateway_mod._BACKOFF_BASE_S / 2 <= wait <= gateway_mod._BACKOFF_BASE_S


@pytest.mark.parametrize("failure", ["status_500", "connection"])
def test_backoff_doubles_up_to_the_cap_and_an_exhausted_budget_is_unavailable(
        monkeypatch, retry_waits, failure):
    def post(url, **kwargs):
        if failure == "connection":
            raise requests.ConnectionError("down")
        return FakeResponse({"error": "boom"}, status_code=500)

    monkeypatch.setattr(gateway_mod.requests, "post", post)
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", retries=9))
    with pytest.raises(BackendUnavailableError, match="after 10 attempts"):
        backend.complete(user_turns("hi"), DecodingParams())
    ceilings = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0]  # one wait per retry
    assert len(retry_waits) == len(ceilings)
    for wait, ceiling in zip(retry_waits, ceilings):
        assert ceiling / 2 <= wait <= ceiling


def test_a_429_on_every_attempt_exhausts_the_budget(monkeypatch, retry_waits):
    attempts = post_in_turn(monkeypatch, [
        FakeResponse({"error": "slow down"}, status_code=429, headers={"Retry-After": "2"})])
    backend = HTTPChatBackend(ModelBackendConfig(endpoint="http://x", retries=2))
    with pytest.raises(BackendUnavailableError, match="after 3 attempts: status 429"):
        backend.complete(user_turns("hi"), DecodingParams())
    assert len(attempts) == 3 and retry_waits == [2.0, 2.0]


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


@pytest.mark.parametrize("call", [
    lambda config: HTTPChatBackend(config).complete(user_turns("hi"), DecodingParams()),
    lambda config: HTTPEmbeddingBackend(config).embed("hi"),
    lambda config: HTTPCaptionBackend(config).caption("https://example.org/pic.jpg"),
], ids=["chat", "embedding", "caption"])
def test_http_body_nested_too_deeply_is_gateway_error(monkeypatch, call):
    monkeypatch.setattr(gateway_mod.requests, "post", lambda url, **kw: decoding_response(DEEP_JSON))
    with pytest.raises(GatewayError, match="malformed JSON"):
        call(ModelBackendConfig(endpoint="http://x"))


def test_fixture_nested_too_deeply_is_a_value_error_naming_it(tmp_path):
    path = tmp_path / "chat.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    with pytest.raises(ValueError, match=f"chat fixture {re.escape(str(path))} is not JSON: "
                                         "JSON nested too deeply"):
        ScriptedChatBackend.from_file(path)


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
    import contextvars

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


def test_run_in_threads_joins_finished_tasks_calls_in_task_order(hashing_backend):
    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend, call_log=log)
    second_done = threading.Event()

    def first():
        gateway.embed_text("first, before the second task")
        assert second_done.wait(5)
        gateway.embed_text("first, after the second task")

    def second():
        gateway.embed_text("second")
        second_done.set()

    with log.collect() as records:
        gateway.embed_text("before")
        futures = run_in_threads([first, second], timeout=30)
        gateway.embed_text("after")
    assert [future.result() for future in futures] == [None, None]
    assert [r.detail for r in records] == [
        "before", "first, before the second task", "first, after the second task", "second",
        "after"]


def test_run_in_threads_drops_every_call_of_a_task_unfinished_at_the_deadline(hashing_backend):
    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend, call_log=log)
    hung_started, release, late_call_made = threading.Event(), threading.Event(), threading.Event()

    def hung():
        gateway.embed_text("hung, before the deadline")
        hung_started.set()
        assert release.wait(5)
        gateway.embed_text("hung, after the deadline")
        late_call_made.set()

    def quick():
        assert hung_started.wait(5)
        gateway.embed_text("quick")

    with log.collect() as records:
        futures = run_in_threads([hung, quick], timeout=1.0)
        release.set()
        assert late_call_made.wait(5)
        gateway.embed_text("after")
    assert futures[0] is None and futures[1] is not None
    assert [r.detail for r in records] == ["quick", "after"]


def test_start_in_threads_lists_finished_tasks_calls_where_the_round_started(hashing_backend):
    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend, call_log=log)
    quick_done, release, late_call_made = threading.Event(), threading.Event(), threading.Event()

    def quick():
        gateway.embed_text("quick")
        quick_done.set()

    def hung():
        gateway.embed_text("hung, before the deadline")
        assert release.wait(5)
        gateway.embed_text("hung, after the deadline")
        late_call_made.set()

    with log.collect() as records:
        gateway.embed_text("before")
        wait = start_in_threads([hung, quick])
        assert quick_done.wait(5)
        gateway.embed_text("between start and wait")
        futures = wait(timeout=0.5)
        release.set()
        assert late_call_made.wait(5)
        gateway.embed_text("after")
    assert futures[0] is None and futures[1] is not None
    assert [r.detail for r in records] == ["before", "quick", "between start and wait", "after"]


def test_run_in_threads_outside_collect_records_nothing(hashing_backend):
    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend, call_log=log)

    def task():
        gateway.embed_text("outside")
        return gateway_mod._open_calls.get()  # the list a call would be recorded into

    assert [future.result() for future in run_in_threads([task, task])] == [None, None]


def test_map_in_threads_keeps_item_order_in_results_and_calls(hashing_backend):
    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend, call_log=log)
    texts = [f"text number {i}" for i in range(300)]
    assert map_in_threads(len, []) == []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with log.collect() as records:
            vectors = map_in_threads(gateway.embed_text, texts)
    finally:
        sys.setswitchinterval(interval)
    assert [r.detail for r in records] == texts
    assert [v.tolist() for v in vectors] == [hashing_backend.embed(t).tolist() for t in texts]


def test_an_interrupted_map_in_threads_starts_no_further_item(monkeypatch):
    """Ctrl-C while every slice is in its first item: the interrupt reaches the
    caller, and each slice ends after that item."""
    wait = concurrent.futures.wait
    slices = []  # the futures of the slice tasks
    in_first_items = threading.Barrier(gateway_mod.MAX_SLICES + 1, timeout=10)
    release = threading.Event()
    started, lock = [], threading.Lock()

    def interrupted_wait(futures, timeout=None):
        slices.extend(futures)
        in_first_items.wait()
        raise KeyboardInterrupt

    def item(i):
        with lock:
            started.append(i)
            first = len(started) <= gateway_mod.MAX_SLICES
        if first:
            in_first_items.wait()
            assert release.wait(10)
        return i

    monkeypatch.setattr(gateway_mod.concurrent.futures, "as_completed", interrupted_wait)
    with pytest.raises(KeyboardInterrupt):
        map_in_threads(item, range(40))
    release.set()
    assert not wait(slices, timeout=10).not_done
    assert sorted(started) == list(range(0, 40, 40 // gateway_mod.MAX_SLICES))


def test_map_in_threads_reads_a_range_in_place():
    # the result list is 8 B per item; listing the range first added about 50 B more
    items = 20_000
    map_in_threads(lambda i: None, range(MAX_SLICES))  # warm the thread machinery
    peak = traced_peak(map_in_threads, lambda i: None, range(items))
    assert peak <= 16 * items + 2**16
    assert map_in_threads(str, (i for i in range(5))) == ["0", "1", "2", "3", "4"]


def test_start_in_thread_lists_its_calls_where_the_callers_list_ends_at_the_wait(
        hashing_backend):
    log = CallLog()
    gateway = make_gateway(embedding=hashing_backend, call_log=log)
    with log.collect() as records:
        wait = start_in_thread(lambda: gateway.embed_text("started first") is not None)
        round_wait = start_in_threads([lambda: gateway.embed_text("round")])
        round_wait()
        gateway.embed_text("between")
        assert wait().result() is True
        gateway.embed_text("after")
    assert [r.detail for r in records] == ["round", "between", "started first", "after"]


def test_on_finish_sees_each_call_that_finishes_in_time_and_no_other():
    release = threading.Event()
    seen = []

    def hung():
        assert release.wait(5)
        return "late"

    try:
        futures = start_in_threads([hung, lambda: "quick", lambda: "quicker"])(
            timeout=0.2, on_finish=lambda future: seen.append(future.result()))
    finally:
        release.set()
    assert futures[0] is None
    assert sorted(seen) == ["quick", "quicker"]
    assert [f.result() for f in futures[1:]] == ["quick", "quicker"]


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
