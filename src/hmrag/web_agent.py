"""Web retrieval through a Serper-compatible search endpoint.

The live client POSTs ``{q, num, hl}`` with an X-API-KEY header as a
subclass of the gateway's one HTTP client and reads the ``organic`` array
(title/snippet/link/position). A file-backed stub serves the same JSON
keyed by query so tests and offline runs never touch the network.
Answers carry their source URLs as evidence. `requests` is needed, and
imported, only once a `SerperSearchClient` (or any gateway HTTP client) is
built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .config import DEFAULTS
from .decision import AnswerCandidate, run_agent
from .errors import ScriptMismatchError, SearchParseError
from .gateway import ModelBackendConfig, _HTTPClient, _import_requests, load_fixture
from .templates import TemplateSet

_EMPTY_RESULTS = "(no web evidence retrieved)"


def __getattr__(name):  # PEP 562: `hmrag.web_agent.requests`, for patching, without an import here
    if name == "requests":
        return _import_requests()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SearchConfig:
    num_results: int = DEFAULTS["web.num_results"]
    language: str = DEFAULTS["web.language"]

    def __post_init__(self):
        if self.num_results < 1:
            raise ValueError("num_results must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    title: str
    snippet: str
    url: str
    position: int

    def __post_init__(self):
        if not self.url:
            raise ValueError("search result url must be non-empty")
        if self.position < 1:
            raise ValueError("position must be >= 1")


def parse_search_response(data: dict, cfg: SearchConfig, raw_payload: str = "") -> list[SearchResult]:
    """Shared parser for live and stub responses."""
    organic = data.get("organic") if isinstance(data, dict) else None
    if not isinstance(organic, list):
        raise SearchParseError("response missing 'organic' array", raw_payload=raw_payload)
    results = []
    for i, item in enumerate(organic):
        if not isinstance(item, dict) or not item.get("link"):
            raise SearchParseError(f"organic entry {i} missing link", raw_payload=raw_payload)
        # a null or absent title or snippet is ""; as for vectors, nothing else is coerced:
        # str() would read null as "None", and int() would read true as 1 and 2.7 as 2
        title, snippet = ("" if item.get(key) is None else item[key] for key in ("title", "snippet"))
        position = item.get("position", i + 1)
        if not all(isinstance(text, str) for text in (title, snippet, item["link"])):
            raise SearchParseError(f"organic entry {i} has a title, snippet or link that is not text",
                                   raw_payload=raw_payload)
        if type(position) is not int or position < 1:
            raise SearchParseError(f"organic entry {i} position {position!r:.40} is not an int >= 1",
                                   raw_payload=raw_payload)
        results.append(SearchResult(title, snippet, item["link"], position))
    positions = [r.position for r in results]
    if len(set(positions)) != len(positions):
        raise SearchParseError(f"duplicate result positions in response: {sorted(positions)}",
                               raw_payload=raw_payload)
    results.sort(key=lambda r: r.position)
    return results[: cfg.num_results]


class SerperSearchClient(_HTTPClient):
    kind = "search"
    key_header, key_prefix = "X-API-KEY", ""

    def __init__(self, endpoint: str = DEFAULTS["web.search_endpoint"],
                 api_key_env: str = DEFAULTS["web.api_key_env"],
                 timeout_s: float = DEFAULTS["web.timeout_s"], retries: int = DEFAULTS["web.retries"]):
        # ModelBackendConfig rejects a non-positive timeout and negative retries,
        # before the base checks the endpoint and reads the API key.
        super().__init__(ModelBackendConfig(endpoint, api_key_env=api_key_env,
                                            timeout_s=timeout_s, retries=retries))

    def search(self, query: str, cfg: SearchConfig) -> list[SearchResult]:
        if not query or not query.strip():
            raise ValueError("query must be non-empty")
        response = self._send({"q": query, "num": cfg.num_results, "hl": cfg.language})
        try:
            data = response.json()
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply to decode
            raise SearchParseError(f"search response is not JSON: {exc}",
                                   raw_payload=response.text) from exc
        return parse_search_response(data, cfg, raw_payload=response.text)


class StubSearchClient:
    """Serves canned Serper-format JSON keyed by the exact query string."""

    def __init__(self, fixture: dict[str, dict]):
        self._fixture = dict(fixture)

    @classmethod
    def from_file(cls, path) -> "StubSearchClient":
        # each payload is checked when its query is searched
        return cls(load_fixture(path, "search", lambda v: isinstance(v, dict),
                                "a JSON object of query -> response"))

    def search(self, query: str, cfg: SearchConfig) -> list[SearchResult]:
        if not query or not query.strip():
            raise ValueError("query must be non-empty")
        try:
            data = self._fixture[query]
        except KeyError:
            raise ScriptMismatchError(f"no stub search fixture for query {query[:80]!r}") from None
        return parse_search_response(data, cfg, raw_payload=json.dumps(data))


def format_results(results) -> list[str]:
    return [f"[{r.position}] {r.title} — {r.snippet} ({r.url})" for r in results]


class WebAgent:
    source = "web"

    def __init__(self, gateway, client, cfg: SearchConfig | None = None,
                 templates: TemplateSet | None = None):
        self._gateway = gateway
        self._client = client
        self._cfg = cfg or SearchConfig()
        self._templates = templates or TemplateSet()

    def search(self, query: str) -> list[SearchResult]:
        """The one place a web search is recorded in the query's calls."""
        self._gateway.record_call("search", "web", query)
        return self._client.search(query, self._cfg)

    def retrieve(self, query: str, warnings: list[str] | None = None) -> list[SearchResult]:
        return self.search(query)

    def answer(self, query: str, results) -> AnswerCandidate:
        lines = format_results(results)
        results_text = "\n".join(lines) if lines else _EMPTY_RESULTS
        prompt = self._templates.render("web_answer", question=query, results=results_text)
        text = self._gateway.complete_chat(prompt)
        return AnswerCandidate(text=text, source=self.source, evidence=tuple(r.url for r in results))

    def run(self, query: str, warnings: list[str] | None = None) -> AnswerCandidate:
        return run_agent(self, query, warnings)
