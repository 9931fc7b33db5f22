"""Web retrieval through a Serper-compatible search endpoint.

The live client POSTs ``{q, num, hl}`` with an X-API-KEY header through
the gateway's HTTP transport and reads the ``organic`` array
(title/snippet/link/position). A file-backed stub serves the same JSON
keyed by query so tests and offline runs never touch the network.
Answers carry their source URLs as evidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import requests  # unused here, but tests patch it on this module to forbid network access

from .decision import AnswerCandidate, run_agent
from .errors import ScriptMismatchError, SearchParseError
from .gateway import ModelBackendConfig, json_headers, post_with_retries
from .templates import TemplateSet

DEFAULT_SEARCH_ENDPOINT = "https://google.serper.dev/search"

_EMPTY_RESULTS = "(no web evidence retrieved)"


@dataclass(frozen=True)
class SearchConfig:
    num_results: int = 5
    language: str = "en"

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
        try:
            results.append(SearchResult(
                title=str(item.get("title", "")),
                snippet=str(item.get("snippet", "")),
                url=str(item["link"]),
                position=int(item.get("position", i + 1)),
            ))
        except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise SearchParseError(f"organic entry {i} malformed: {exc}",
                                   raw_payload=raw_payload) from exc
    positions = [r.position for r in results]
    if len(set(positions)) != len(positions):
        raise SearchParseError(f"duplicate result positions in response: {sorted(positions)}",
                               raw_payload=raw_payload)
    results.sort(key=lambda r: r.position)
    return results[: cfg.num_results]


class SerperSearchClient:
    def __init__(self, endpoint: str = DEFAULT_SEARCH_ENDPOINT, api_key_env: str = "SERPER_API_KEY",
                 timeout_s: float = 30.0, retries: int = 2):
        # ModelBackendConfig rejects a non-positive timeout and negative retries.
        self.config = ModelBackendConfig(endpoint, api_key_env=api_key_env,
                                         timeout_s=timeout_s, retries=retries)

    def search(self, query: str, cfg: SearchConfig) -> list[SearchResult]:
        if not query or not query.strip():
            raise ValueError("query must be non-empty")
        headers = json_headers(self.config.api_key_env, "X-API-KEY")
        payload = {"q": query, "num": cfg.num_results, "hl": cfg.language}
        response = post_with_retries(self.config, payload, headers)
        try:
            data = response.json()
        except ValueError as exc:
            raise SearchParseError(f"search response is not JSON: {exc}",
                                   raw_payload=response.text) from exc
        return parse_search_response(data, cfg, raw_payload=response.text)


class StubSearchClient:
    """Serves canned Serper-format JSON keyed by the exact query string."""

    def __init__(self, fixture: dict[str, dict]):
        self._fixture = dict(fixture)

    @classmethod
    def from_file(cls, path) -> "StubSearchClient":
        fixture = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(fixture, dict):  # each payload is checked when its query is searched
            raise ValueError(f"search fixture {path} must be a JSON object of query -> response")
        return cls(fixture)

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
