"""Uniform access to chat, embedding, and caption models.

Backends are pluggable: HTTP clients speaking the common chat-completions
and embeddings JSON wire formats, built on the one HTTP client (`_HTTPClient`)
that web search builds on too, plus deterministic scripted doubles for tests
and offline runs. `requests` is needed, and imported, only once an HTTP client
is built, so a process on scripted backends never loads the HTTP stack. A chat
call is one user turn sent with temperature 0 and top_p 1, so every call is
reproducible given the same backend state.
"""

from __future__ import annotations

import base64
import concurrent.futures
import functools
import hashlib
import json
import math
import mimetypes
import os
import random
import threading
import time
import urllib.parse
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULTS, ROLE_DEFAULTS
from .errors import (
    BackendUnavailableError,
    ConfigError,
    GatewayError,
    ScriptMismatchError,
)

_TEMPERATURE = 0.0
_TOP_P = 1.0
# the most slices `map_in_threads` runs at once
MAX_SLICES = 8
# waits before a retry: the first backoff, and the cap on any wait
_BACKOFF_BASE_S = 0.5
_MAX_WAIT_S = 30.0
_sleep = time.sleep  # every wait between retries; tests replace it


def _import_requests():
    """Bind `requests` in this module and return it: the HTTP stack loads only
    once an HTTP client is built, so scripted backends never pay for it."""
    global requests
    import requests
    return requests


def __getattr__(name):  # PEP 562: `hmrag.gateway.requests` resolves before any client is built
    if name == "requests":
        return _import_requests()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DecodingParams:
    """The one decoding value a chat call varies: its token cap."""

    max_tokens: int = 1024

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")


@dataclass(frozen=True)
class ChatTurn:
    content: str  # the prompt: a chat call is this one user turn

    def __post_init__(self):
        if not isinstance(self.content, str) or not self.content.strip():
            raise ValueError("a chat turn's content must be non-blank text")


def _prompt_of(turns) -> str:
    if len(turns) != 1:
        raise ValueError(f"a chat call is exactly one user turn, got {len(turns)}")
    return turns[0].content


@dataclass(frozen=True)
class ModelBackendConfig:
    endpoint: str
    model_name: str = ROLE_DEFAULTS["model_name"]
    api_key_env: str = ROLE_DEFAULTS["api_key_env"]
    timeout_s: float = ROLE_DEFAULTS["timeout_s"]
    retries: int = ROLE_DEFAULTS["retries"]

    def __post_init__(self):
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:  # refuses nan too
            raise ValueError(f"timeout_s must be in (0, {threading.TIMEOUT_MAX}]")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclass(slots=True)
class CallRecord:
    """One backend call, as surfaced in query traces."""

    kind: str  # chat | embedding | caption | search
    role: str
    detail: str


# the call list of the work running in this context; None outside CallLog.collect()
_open_calls: ContextVar[list[CallRecord] | None] = ContextVar("hmrag_open_calls", default=None)


class CallLog:
    """Collects each query's backend calls for its trace.

    `collect()` opens a fresh list in the current context, and `record`
    appends to whatever list is open there; a call made outside `collect()`
    is dropped. A task of `start_in_threads` records into a list of its own,
    which joins the caller's list only if the task finishes in time. Threads
    that share a list need no lock: `list.append` is atomic.
    """

    def record(self, kind: str, role: str, detail: str) -> None:
        calls = _open_calls.get()
        if calls is not None:
            calls.append(CallRecord(kind, role, detail[:120]))

    @contextmanager
    def collect(self):
        """Open a call list for the enclosed work and yield it."""
        token = _open_calls.set([])
        try:
            yield _open_calls.get()
        finally:
            _open_calls.reset(token)


def _start(calls):
    """Submit each call on a thread of its own, in a copy of the caller's context
    with a call list of its own. Returns the caller's list, the contexts and the futures."""
    caller_calls = _open_calls.get()
    contexts = [copy_context() for _ in calls]
    for context in contexts:
        context.run(_open_calls.set, None if caller_calls is None else [])
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=len(calls) or 1)
    futures = [pool.submit(context.run, call) for context, call in zip(contexts, calls)]
    pool.shutdown(wait=False)  # the submitted calls still run; nothing waits on the pool
    return caller_calls, contexts, futures


def start_in_threads(calls):
    """Start each zero-argument call on its own thread: with `start_in_thread`, the
    one way the package runs work concurrently. Returns `wait(timeout=None,
    on_finish=None)`, to be called once, which waits up to `timeout` seconds for
    all of them and returns, per call, its future if it has finished by then, else
    None. It calls `on_finish(future)` on the caller's thread for each call as it
    finishes in time.

    Each call runs in a copy of the caller's context with a call list of its
    own. `wait` inserts the finished calls' lists into the caller's list in
    call order, where that list ended when they started; an unfinished call
    ends in the background and adds none of its calls.
    """
    caller_calls, contexts, futures = _start(calls)
    position = None if caller_calls is None else len(caller_calls)

    def wait(timeout: float | None = None, on_finish=None) -> list:
        done = set()
        try:
            for future in concurrent.futures.as_completed(futures, timeout):
                done.add(future)
                if on_finish is not None:
                    on_finish(future)
        except concurrent.futures.TimeoutError:
            pass
        finished = [future if future in done else None for future in futures]
        if caller_calls is not None:
            caller_calls[position:position] = [
                record for context, future in zip(contexts, finished)
                if future is not None for record in context[_open_calls]]
        return finished

    return wait


def start_in_thread(call):
    """Start `call` as one task of `start_in_threads`, and return `wait()`, to be
    called once: it waits for the call, appends the call's records to the caller's
    list where that list ends by then, and returns the call's future. So a task
    started while other work runs is listed after that work's calls, and tasks
    are listed in the order of their waits."""
    caller_calls, (context,), (future,) = _start([call])

    def wait():
        concurrent.futures.wait((future,))
        if caller_calls is not None:
            caller_calls.extend(context[_open_calls])
        return future

    return wait


def run_in_threads(calls, timeout: float | None = None) -> list:
    """`start_in_threads(calls)`, then its `wait(timeout)`: the finished calls'
    records follow every call the caller made before."""
    return start_in_threads(calls)(timeout)


def map_in_threads(function, items) -> list:
    """`[function(item) for item in items]`, as at most MAX_SLICES contiguous
    slices run at once, each serially as one task of `run_in_threads`. A range,
    list or tuple is read in place; any other iterable is listed first.

    Once an item has raised, or the caller is interrupted, no slice starts
    another item; the error raised is that of the earliest failed item in list
    order. Results, and the calls recorded for them, keep item order.
    """
    if not isinstance(items, (range, list, tuple)):
        items = list(items)
    if not items:
        return []
    results = [None] * len(items)
    count = min(MAX_SLICES, len(items))
    bounds = [len(items) * i // count for i in range(count + 1)]
    stop = threading.Event()

    def run_slice(start, end):
        for i in range(start, end):
            if stop.is_set():
                break
            try:
                results[i] = function(items[i])
            except BaseException:
                stop.set()
                raise

    try:
        futures = run_in_threads([functools.partial(run_slice, start, end)
                                  for start, end in zip(bounds, bounds[1:])])
    finally:
        stop.set()  # on an interrupt, so the slices end after their current item
    for future in futures:
        future.result()  # the earliest failed slice's error, if any
    return results


def parse_json(text):
    """`json.loads(text)`, where a value nested too deeply to decode is a ValueError
    like any other malformed JSON; `json` raises RecursionError for it."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def load_fixture(path, what: str, valid, wanted: str):
    """The JSON value in fixture file `path` if `valid(value)`, else a ValueError naming it."""
    try:
        value = parse_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{what} fixture {path} is not JSON: {exc}") from None
    if not valid(value):
        raise ValueError(f"{what} fixture {path} must be {wanted}")
    return value


class ScriptedChatBackend:
    """Exact-match chat double: a prompt -> response mapping.

    An unmatched prompt raises ScriptMismatchError: tests must fail
    loudly rather than silently receive a fallback answer. Install all
    entries before first use; the mapping is treated as immutable after.
    """

    def __init__(self):
        self._responses: dict[str, str] = {}

    def add(self, turns, response: str) -> "ScriptedChatBackend":
        self._responses[_prompt_of(turns)] = response
        return self

    @classmethod
    def from_file(cls, path) -> "ScriptedChatBackend":
        """Load `[{"turns": [{"role": "user", "content": …}], "response": …}, …]`."""
        backend = cls()
        entries = load_fixture(path, "chat", lambda v: isinstance(v, list), "a JSON list of entries")
        for i, entry in enumerate(entries):
            try:
                (turn,) = entry["turns"]  # the gateway sends nothing else, so nothing else can match
                if turn["role"] != "user" or not isinstance(entry["response"], str):
                    raise ValueError("want one user turn and a text response")
                backend.add([ChatTurn(turn["content"])], entry["response"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad chat fixture entry {i} in {path}: {exc!r}") from None
        return backend

    def complete(self, turns, params: DecodingParams) -> str:
        prompt = _prompt_of(turns)
        try:
            return self._responses[prompt]
        except KeyError:
            # prompts from one template share a long head; the tail holds what differs
            shown = repr(prompt) if len(prompt) <= 240 else f"{prompt[:80]!r} ... {prompt[-160:]!r}"
            raise ScriptMismatchError(f"no scripted response for prompt {shown}") from None


# vector data each HashingEmbeddingBackend memoises: 32 768 tokens at dim 64
_TOKEN_MEMO_BYTES = 16 * 2**20


def _draw(seed: int, dim: int, token: str) -> np.ndarray:
    """The read-only unit vector of `token`: a normal draw seeded from its content hash."""
    digest = hashlib.sha256(f"{seed}\x1f{token}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    vec = rng.standard_normal(dim)
    vec = vec / np.linalg.norm(vec)
    vec.flags.writeable = False  # memo entries are shared by every caller
    return vec


class HashingEmbeddingBackend:
    """Deterministic embedding double.

    The vector is the normalized sum of per-token pseudo-random unit
    vectors seeded from a content hash, so identical text maps to an
    identical vector and texts sharing tokens land near each other.
    Token vectors are memoised per instance, least recently used first
    out, within `_TOKEN_MEMO_BYTES` of vector data; the memo is
    thread-safe and every `embed` returns a fresh array.
    """

    def __init__(self, dim: int = DEFAULTS["embedding.dim"], seed: int = DEFAULTS["embedding.seed"]):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.seed = seed
        # a partial, not a method, so the memo holds no reference to this instance
        self._token_vector = functools.lru_cache(_TOKEN_MEMO_BYTES // (8 * dim))(
            functools.partial(_draw, seed, dim))

    def embed(self, text: str) -> np.ndarray:
        tokens = text.casefold().split()
        if not tokens:
            raise ValueError("cannot embed blank text")
        acc = np.zeros(self.dim, dtype=np.float64)
        for token in tokens:
            acc += self._token_vector(token)
        norm = math.sqrt(acc.dot(acc))  # np.linalg.norm's own formula for a real vector
        if norm == 0.0:  # astronomically unlikely; keep the unit-norm contract
            return self._token_vector(" ".join(tokens)).copy()
        return acc / norm


class ScriptedCaptionBackend:
    """Caption double backed by an image_ref -> caption mapping."""

    def __init__(self, mapping: dict[str, str]):
        self._mapping = dict(mapping)

    @classmethod
    def from_file(cls, path) -> "ScriptedCaptionBackend":
        def valid(v):
            return isinstance(v, dict) and all(isinstance(c, str) for c in v.values())
        return cls(load_fixture(path, "caption", valid, "a JSON object of image_ref -> caption"))

    def caption(self, image_ref: str) -> str:
        try:
            return self._mapping[image_ref]
        except KeyError:
            raise ScriptMismatchError(f"no scripted caption for {image_ref!r}") from None


def _retry_wait_s(retry: int, response) -> float:
    """Seconds to wait before retry number `retry` (from 1), after `response`, or
    after a connection failure when None: a 429 or 503 response's Retry-After
    delta-seconds, else an exponential backoff with jitter; capped either way."""
    if response is not None and response.status_code in (429, 503):
        after = response.headers.get("Retry-After", "").strip()
        if after.isascii() and after.isdigit():  # RFC 9110 10.2.3 delta-seconds
            return min(float(after), _MAX_WAIT_S)
    ceiling = min(_MAX_WAIT_S, _BACKOFF_BASE_S * 2.0 ** min(retry - 1, 32))
    return ceiling * random.uniform(0.5, 1.0)


class _HTTPClient:
    """The one client of every JSON-over-HTTP service: built, it checks its
    endpoint and reads its API key, so neither fails at a request; it then
    POSTs JSON with retries. Each subclass adds its wire format."""

    kind: str  # names the client in error messages
    key_header, key_prefix = "Authorization", "Bearer "  # carry the key from `config.api_key_env`

    def __init__(self, config: ModelBackendConfig):
        try:
            url = urllib.parse.urlsplit(config.endpoint)
        except ValueError:  # an unbalanced IPv6 bracket
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(f"{self.kind} backend needs an http or https endpoint with a host, "
                              f"got {config.endpoint!r}")
        _import_requests()  # here, at start-up, so no request and no worker thread pays for it
        self.config = config
        self._headers = {"Content-Type": "application/json"}
        if config.api_key_env:
            key = os.environ.get(config.api_key_env)
            if not key:
                raise ConfigError(f"environment variable {config.api_key_env!r} is not set")
            self._headers[self.key_header] = self.key_prefix + key

    def _send(self, payload: dict) -> requests.Response:
        """POST `payload` as JSON; returns the status-checked response. Connection
        failures, timeouts, 429 and 5xx are retried up to `config.retries` times,
        each after a `_retry_wait_s` wait. Any other 4xx, and a request that can
        never be sent (a `requests` error that is a ValueError), raise GatewayError."""
        config, url = self.config, self.config.endpoint
        last_error: Exception | None = None
        response = None
        for attempt in range(config.retries + 1):
            if attempt:
                _sleep(_retry_wait_s(attempt, response))
            try:
                response = requests.post(url, json=payload, headers=self._headers,
                                         timeout=config.timeout_s)
            except requests.RequestException as exc:
                if isinstance(exc, ValueError):  # a bad URL or header value: no retry can send it
                    raise GatewayError(f"request to {url} cannot be sent: {exc}") from exc
                last_error, response = exc, None
                continue
            if response.status_code >= 500 or response.status_code == 429:
                last_error = GatewayError(f"status {response.status_code} from {url}")
                continue
            if response.status_code >= 400:
                raise GatewayError(
                    f"request rejected with status {response.status_code}: {response.text[:200]}"
                )
            return response
        raise BackendUnavailableError(
            f"backend at {url} unreachable after {config.retries + 1} attempts: {last_error}"
        )

    def _post(self, payload: dict):
        response = self._send(payload)
        try:
            return response.json()
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply to decode
            raise GatewayError(f"malformed JSON from {self.config.endpoint}: {exc}") from exc

    def _chat_completion(self, content, max_tokens: int) -> str:
        data = self._post({
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": content}],
            "temperature": _TEMPERATURE,
            "top_p": _TOP_P,
            "max_tokens": max_tokens,
        })
        try:
            reply = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"unexpected {self.kind} response shape: {exc}") from exc
        if not isinstance(reply, str):
            raise GatewayError(f"{self.kind} response content is {type(reply).__name__}, not text")
        return reply


class HTTPChatBackend(_HTTPClient):
    """Chat-completions client; works against any compatible server."""

    kind = "chat"

    def complete(self, turns, params: DecodingParams) -> str:
        return self._chat_completion(_prompt_of(turns), params.max_tokens)


def check_vector_entries(values) -> np.ndarray:
    """`values` as a float64 row: the rule for a vector read from outside. TypeError
    unless a non-empty list of int or float entries, since numpy would read None as
    NaN and "1" or True as 1.0; OverflowError for an int beyond float range;
    ValueError for a non-finite entry."""
    if type(values) is not list or not values or not set(map(type, values)) <= {int, float}:
        raise TypeError(f"vector is not a non-empty list of numbers: {values!r:.80}")
    row = np.array(values, np.float64)
    if not np.isfinite(row).all():
        raise ValueError("vector has a non-finite entry")
    return row


class HTTPEmbeddingBackend(_HTTPClient):
    """Embeddings client speaking the input/embedding JSON wire format."""

    kind = "embedding"

    def embed(self, text: str) -> np.ndarray:
        data = self._post({"model": self.config.model_name, "input": [text]})
        try:
            return check_vector_entries(data["data"][0]["embedding"])
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise GatewayError(f"unexpected embedding response: {exc}") from exc


class HTTPCaptionBackend(_HTTPClient):
    """Caption client: a vision-style chat-completions call per image."""

    kind = "caption"

    def _resolve_image(self, image_ref: str) -> str:
        if image_ref.startswith(("http://", "https://", "data:")):
            return image_ref
        path = Path(image_ref)
        if not path.is_file():
            raise ValueError(f"image_ref does not resolve to a file: {image_ref!r}")
        mime = mimetypes.guess_type(path.name)[0] or "image/png"
        encoded = base64.b64encode(path.read_bytes()).decode("ascii")
        return f"data:{mime};base64,{encoded}"

    def caption(self, image_ref: str) -> str:
        content = [
            {"type": "text", "text": "Describe this image in one or two sentences."},
            {"type": "image_url", "image_url": {"url": self._resolve_image(image_ref)}},
        ]
        return self._chat_completion(content, max_tokens=256)


class ModelGateway:
    """Routes chat/embedding/caption calls to role-configured backends.

    Roles `lightweight_chat` and `expert_chat` fall back to the main chat
    backend when not configured separately. Keeps no state between calls, so
    it is safe for concurrent use; each store checks the vectors it scores.
    """

    def __init__(self, chat, embedding=None, caption=None,
                 lightweight_chat=None, expert_chat=None, call_log: CallLog | None = None):
        if chat is None:
            raise ConfigError("a chat backend is required")
        self._chat_backends = {
            "chat": chat,
            "lightweight_chat": chat if lightweight_chat is None else lightweight_chat,
            "expert_chat": chat if expert_chat is None else expert_chat,
        }
        self._embedding = embedding
        self._caption = caption
        self._call_log = call_log

    def record_call(self, kind: str, role: str, detail: str) -> None:
        """Record a backend call, when this gateway has a call log."""
        if self._call_log is not None:
            self._call_log.record(kind, role, detail)

    def complete_chat(self, prompt: str, role: str = "chat",
                      max_tokens: int = DecodingParams.max_tokens) -> str:
        """Send `prompt` as one user turn under pinned decoding; only the token cap varies."""
        if role not in self._chat_backends:
            raise ConfigError(f"unknown chat role {role!r}")
        turns = [ChatTurn(prompt)]
        params = DecodingParams(max_tokens=max_tokens)
        self.record_call("chat", role, prompt)
        return self._chat_backends[role].complete(turns, params)

    def embed_text(self, text: str) -> np.ndarray:
        if not text or not text.strip():
            raise ValueError("cannot embed empty text")
        if self._embedding is None:
            raise ConfigError("no embedding backend configured")
        self.record_call("embedding", "embedding", text)
        return np.asarray(self._embedding.embed(text), dtype=np.float64)

    def caption_image(self, image_ref: str) -> str:
        if not image_ref:
            raise ValueError("image_ref must be non-empty")
        if self._caption is None:
            raise ConfigError("no caption backend configured")
        self.record_call("caption", "caption", image_ref)
        return self._caption.caption(image_ref)
