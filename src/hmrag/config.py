"""Plain-text key-value configuration with dotted keys.

A config file holds ``key = value`` lines; ``#`` starts a full-line
comment. The file path comes from ``--config`` or the ``HMRAG_CONFIG``
environment variable. ``DEFAULTS`` holds every key a file may set; each
value is coerced to the type of its default, and any other key, a
misspelt or a retired one, is an error naming its line. ``DEFAULTS`` is
the one statement of each default: the library's parameters read theirs from it.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import ConfigError

CONFIG_ENV_VAR = "HMRAG_CONFIG"

ROLE_DEFAULTS = {
    "backend": "http",
    "endpoint": "",
    "model_name": "",
    "api_key_env": "",
    "timeout_s": 30.0,
    "retries": 2,
    "fixture": "",
}

DEFAULTS: dict[str, object] = {
    "chunking.size": 512,
    "chunking.overlap": 64,
    "retrieval.top_k": 5,
    "graph.tau": 0.3,
    "web.backend": "http",
    "web.search_endpoint": "https://google.serper.dev/search",
    "web.api_key_env": "SERPER_API_KEY",
    "web.num_results": 5,
    "web.language": "en",
    "web.stub_fixture_path": "",
    "web.timeout_s": 30.0,
    "web.retries": 2,
    "decision.enabled": True,
    "decision.fusion_lambda": 0.5,
    "decision.consensus_threshold": 0.5,
    "decision.summary_token_budget": 64,
    "agents.enabled": "vector,graph,web",
    "orchestrator.agent_timeout_s": 30.0,
    "prompts.dir": "",
    "embedding.dim": 64,
    "embedding.seed": 0,
}

for _role in ("chat", "lightweight_chat", "expert_chat", "embedding", "caption"):
    for _key, _value in ROLE_DEFAULTS.items():
        DEFAULTS.setdefault(f"{_role}.{_key}", _value)
del DEFAULTS["embedding.fixture"]  # the scripted embedding backend hashes text and reads no file
# Secondary chat roles reuse the main chat backend unless configured.
DEFAULTS["lightweight_chat.backend"] = "inherit"
DEFAULTS["expert_chat.backend"] = "inherit"


_EXPECTED = {bool: "true/false", int: "an integer", float: "a number"}


def _coerce(key: str, raw: str, lineno: int):
    """`raw` as the type of the key's default; str(raw) is raw itself."""
    kind = type(DEFAULTS[key])
    try:
        if kind is bool:
            return {"true": True, "false": False}[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"config line {lineno}: {key} expects {_EXPECTED[kind]}, got {raw!r}") from None


def parse_config_text(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno} is not 'key = value': {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"config line {lineno} sets unknown key {key!r}")
        values[key] = _coerce(key, raw.strip(), lineno)
    return values


def load_config(path: str | Path | None = None) -> dict[str, object]:
    """Defaults merged with the config file, if any."""
    merged = dict(DEFAULTS)
    chosen = path or os.environ.get(CONFIG_ENV_VAR)
    if chosen:
        file_path = Path(chosen)
        if not file_path.is_file():
            raise ConfigError(f"config file not found: {file_path}")
        data = file_path.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"config file {file_path} line {lineno} is not UTF-8: {exc}") from None
        merged.update(parse_config_text(text))
    return merged


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def format_defaults() -> str:
    """Defaults in the same key = value syntax the parser accepts."""
    return "\n".join(f"{key} = {_format_value(value)}" for key, value in sorted(DEFAULTS.items()))
