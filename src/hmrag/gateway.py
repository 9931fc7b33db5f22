"""Uniform access to chat, embedding, and caption models.

Backends are pluggable: HTTP clients speaking the common chat-completions
and embeddings JSON wire formats over one transport (`post_with_retries`,
which web search uses too), plus deterministic scripted doubles for tests
and offline runs. A chat call is one user turn sent with temperature 0 and
top_p 1, so every call is reproducible given the same backend state.
"""

from __future__ import annotations

import base64
import hashlib
import json
import mimetypes
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import requests

from .errors import (
    BackendUnavailableError,
    ConfigError,
    GatewayError,
    ScriptMismatchError,
)
from .ingest import check_vector_entries

_TEMPERATURE = 0.0
_TOP_P = 1.0


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
    model_name: str = ""
    api_key_env: str = ""
    timeout_s: float = 30.0
    retries: int = 2

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclass(frozen=True)
class CallRecord:
    """One backend call, as surfaced in query traces."""

    kind: str  # chat | embedding | caption | search
    role: str
    detail: str


# the call list of the query running in this context; None outside CallLog.collect()
_open_calls: ContextVar[list[CallRecord] | None] = ContextVar("hmrag_open_calls", default=None)
_calls_lock = threading.Lock()  # fan-out threads of one query append to one list


class CallLog:
    """Collects each query's backend calls for its trace.

    `collect()` opens a fresh list in the current context, and `record`
    appends to whatever list is open there. Threads run in a copy of the
    query's context share its list, so concurrent queries never see each
    other's calls; a call made outside `collect()` is dropped.
    """

    def record(self, kind: str, role: str, detail: str) -> None:
        calls = _open_calls.get()
        if calls is not None:
            with _calls_lock:
                calls.append(CallRecord(kind, role, detail[:120]))

    @contextmanager
    def collect(self):
        """Open a call list for the enclosed work and yield it."""
        token = _open_calls.set([])
        try:
            yield _open_calls.get()
        finally:
            _open_calls.reset(token)


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
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(entries, list):
            raise ValueError(f"chat fixture {path} must be a JSON list of entries")
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
            raise ScriptMismatchError(f"no scripted response for prompt {prompt[:120]!r}") from None


class HashingEmbeddingBackend:
    """Deterministic embedding double.

    The vector is the normalized sum of per-token pseudo-random unit
    vectors seeded from a content hash, so identical text maps to an
    identical vector and texts sharing tokens land near each other.
    """

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.seed = seed

    def _token_vector(self, token: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self.seed}\x1f{token}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        vec = rng.standard_normal(self.dim)
        return vec / np.linalg.norm(vec)

    def embed(self, text: str) -> np.ndarray:
        tokens = text.casefold().split()
        if not tokens:
            raise ValueError("cannot embed blank text")
        acc = np.zeros(self.dim, dtype=np.float64)
        for token in tokens:
            acc += self._token_vector(token)
        norm = np.linalg.norm(acc)
        if norm == 0.0:  # astronomically unlikely; keep the unit-norm contract
            return self._token_vector(" ".join(tokens))
        return acc / norm


class ScriptedCaptionBackend:
    """Caption double backed by an image_ref -> caption mapping."""

    def __init__(self, mapping: dict[str, str]):
        self._mapping = dict(mapping)

    @classmethod
    def from_file(cls, path) -> "ScriptedCaptionBackend":
        mapping = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
            raise ValueError(f"caption fixture {path} must be a JSON object of image_ref -> caption")
        return cls(mapping)

    def caption(self, image_ref: str) -> str:
        try:
            return self._mapping[image_ref]
        except KeyError:
            raise ScriptMismatchError(f"no scripted caption for {image_ref!r}") from None


def json_headers(key_env: str, key_header: str, key_prefix: str = "") -> dict[str, str]:
    """JSON request headers, plus `key_header` carrying the API key read from
    the environment variable `key_env` when one is named."""
    headers = {"Content-Type": "application/json"}
    if key_env:
        key = os.environ.get(key_env)
        if not key:
            raise ConfigError(f"environment variable {key_env!r} is not set")
        headers[key_header] = key_prefix + key
    return headers


def post_with_retries(config: ModelBackendConfig, payload: dict, headers: dict) -> requests.Response:
    """POST JSON to `config.endpoint`: the one HTTP transport of the package.

    Connection failures and 5xx responses are retried up to `config.retries`
    times, back to back; any other 4xx raises GatewayError at once. Returns
    the status-checked response; each caller decodes the body itself.
    """
    url = config.endpoint
    last_error: Exception | None = None
    for _ in range(config.retries + 1):
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=config.timeout_s)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if response.status_code >= 500:
            last_error = GatewayError(f"server error {response.status_code} from {url}")
            continue
        if response.status_code >= 400:
            raise GatewayError(
                f"request rejected with status {response.status_code}: {response.text[:200]}"
            )
        return response
    raise BackendUnavailableError(
        f"backend at {url} unreachable after {config.retries + 1} attempts: {last_error}"
    )


class _HTTPModelClient:
    """Endpoint check, authorised POST and chat-completions codec shared by
    the HTTP model clients."""

    kind: str  # names the client in error messages

    def __init__(self, config: ModelBackendConfig):
        if not config.endpoint:
            raise ConfigError(f"{self.kind} backend needs an endpoint")
        self.config = config

    def _post(self, payload: dict):
        headers = json_headers(self.config.api_key_env, "Authorization", "Bearer ")
        response = post_with_retries(self.config, payload, headers)
        try:
            return response.json()
        except ValueError as exc:
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


class HTTPChatBackend(_HTTPModelClient):
    """Chat-completions client; works against any compatible server."""

    kind = "chat"

    def complete(self, turns, params: DecodingParams) -> str:
        return self._chat_completion(_prompt_of(turns), params.max_tokens)


class HTTPEmbeddingBackend(_HTTPModelClient):
    """Embeddings client speaking the input/embedding JSON wire format."""

    kind = "embedding"

    def embed(self, text: str) -> np.ndarray:
        data = self._post({"model": self.config.model_name, "input": [text]})
        try:
            array = np.array(check_vector_entries(data["data"][0]["embedding"]), dtype=np.float64)
        except (KeyError, IndexError, TypeError, OverflowError) as exc:
            raise GatewayError(f"unexpected embedding response shape: {exc}") from exc
        if not np.isfinite(array).all():
            raise GatewayError("embedding response has non-finite values")
        return array


class HTTPCaptionBackend(_HTTPModelClient):
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
