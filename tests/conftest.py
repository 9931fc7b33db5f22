import json
import threading

import pytest
from hypothesis import strategies as st

from hmrag.gateway import (
    CallLog,
    ChatTurn,
    HashingEmbeddingBackend,
    ModelGateway,
    ScriptedChatBackend,
)
from hmrag.templates import TemplateSet

# arbitrary JSON for payload fuzzing; None doubles as "not JSON at all" in FakeResponse
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class FakeResponse:
    """Stands in for `requests.Response`; a None payload makes `json()` fail."""

    def __init__(self, payload, status_code=200, text=None):
        self._payload = payload
        self.status_code = status_code
        self.text = text if text is not None else json.dumps(payload)

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class ConstantChatBackend:
    """Returns the same text for every turn list; counts calls per role-agnostic."""

    def __init__(self, text="ok"):
        self.text = text
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, turns, params):
        with self._lock:
            self.calls += 1
        return self.text


class CountingChatBackend:
    """Wraps a chat backend and counts the requests that reach it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, turns, params):
        with self._lock:
            self.calls += 1
        return self.inner.complete(turns, params)


class EchoChatBackend:
    """Echoes the prompt, useful when the prompt itself is the assertion."""

    def complete(self, turns, params):
        return turns[0].content


class FlakyChatBackend:
    """Fails `failures` times with the given exception, then answers."""

    def __init__(self, failures, exc_factory, text="recovered"):
        self.remaining = failures
        self.exc_factory = exc_factory
        self.text = text
        self.attempts = 0

    def complete(self, turns, params):
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc_factory()
        return self.text


@pytest.fixture
def templates():
    return TemplateSet()


@pytest.fixture
def hashing_backend():
    return HashingEmbeddingBackend(dim=8, seed=7)


@pytest.fixture
def call_log():
    return CallLog()


def make_gateway(chat=None, embedding=None, caption=None, lightweight=None,
                 expert=None, call_log=None):
    return ModelGateway(
        chat=chat or ConstantChatBackend(),
        embedding=embedding,
        caption=caption,
        lightweight_chat=lightweight,
        expert_chat=expert,
        call_log=call_log,
    )


def user_turns(content):
    return [ChatTurn(content)]


def scripted(*entries):
    backend = ScriptedChatBackend()
    for turns, response in entries:
        backend.add(turns, response)
    return backend
