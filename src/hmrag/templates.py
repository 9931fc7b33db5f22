"""Prompt template loading and rendering.

Templates ship as plain-text files under ``hmrag/prompts/`` and use
``{name}`` placeholders. A config-supplied directory (``prompts.dir``)
can override any template by filename.
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path

from .errors import ConfigError

TEMPLATE_NAMES = (
    "judge_intent",
    "decompose",
    "refine_caption",
    "extract_graph",
    "keywords",
    "vector_header",
    "graph_answer",
    "web_answer",
    "summarize",
    "refine_lightweight",
    "refine_expert",
    "final_refine",
)

_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


def render(template: str, **fields) -> str:
    """Substitute {name} placeholders in a single pass.

    Field values are never re-scanned, so user content containing braces
    cannot inject further substitutions.
    """

    def _sub(match):
        key = match.group(1)
        return str(fields[key]) if key in fields else match.group(0)

    return _PLACEHOLDER.sub(_sub, template)


class TemplateSet:
    """The named prompt templates, all read when the set is built, so a bad
    override fails before any model call. `<name>.txt` in `overrides_dir`
    replaces the packaged template of that name."""

    def __init__(self, overrides_dir: str | Path | None = None):
        if overrides_dir and not Path(overrides_dir).is_dir():
            raise ConfigError(f"prompt overrides directory is not a directory: {overrides_dir}")
        packaged = resources.files("hmrag") / "prompts"
        self._texts = {}
        for name in TEMPLATE_NAMES:
            path = Path(overrides_dir, f"{name}.txt") if overrides_dir else None
            if path is None or not path.exists():
                path = packaged / f"{name}.txt"
            try:
                self._texts[name] = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read prompt template {path}: {exc}") from exc

    def text(self, name: str) -> str:
        if name not in self._texts:
            raise ConfigError(f"unknown template {name!r}")
        return self._texts[name]

    def render(self, name: str, **fields) -> str:
        return render(self.text(name), **fields)
