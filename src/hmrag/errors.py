"""Exception types shared across the package, and the one way a step that
degrades instead of failing reports itself."""

import logging

logger = logging.getLogger(__name__)


def trace_warning(warnings: list[str] | None, message: str) -> None:
    """Log `message` and append it to the trace's `warnings`, when given."""
    logger.warning(message)
    if warnings is not None:
        warnings.append(message)


class HmragError(Exception):
    """Base class for package-specific errors."""


class ConfigError(HmragError):
    """Invalid or missing configuration."""


class GatewayError(HmragError):
    """A model or search backend failed.

    `decision.run_agent` turns this into an unavailable answer candidate
    and a trace warning instead of failing the whole query.
    """


class BackendUnavailableError(GatewayError):
    """Backend unreachable after exhausting the configured retries."""


class EmbeddingError(GatewayError, ValueError):
    """An embedding has the wrong length or zero norm.

    A GatewayError, so the agent that asked for it degrades instead of
    failing the query, and a ValueError, since the vector is invalid input.
    """


class SearchParseError(GatewayError):
    """Search response was not valid JSON or missed required fields.

    The message ends with the start of the raw payload, so a trace
    warning shows what the endpoint sent.
    """

    def __init__(self, message: str, raw_payload: str = ""):
        super().__init__(f"{message}; raw payload: {raw_payload[:500]}")
        self.raw_payload = raw_payload


class ScriptMismatchError(HmragError):
    """A scripted test double had no entry for the observed input.

    Deliberately not a GatewayError: a miss is a test-configuration bug
    and must fail loudly instead of degrading to an unavailable answer.
    """


class ClassificationParseError(HmragError):
    """Intent-judgment response contained neither decision token."""


class PipelineError(HmragError):
    """Query could not be answered, e.g. every agent was unavailable."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
