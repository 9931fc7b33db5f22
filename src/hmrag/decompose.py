"""Two-stage query analysis: intent judgment, then decomposition.

A binary prompt classifies the question as single- or multi-intent; only
multi-intent questions get the decomposition prompt, which must yield
2-3 sub-questions. Anything that fails to parse degrades to the
single-intent path so a bad model response never kills the query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ClassificationParseError, trace_warning
from .templates import TemplateSet

MAX_SUB_QUERIES = 3

# any run of leading bullets ("- "), numbers ("1.", "(2)") and question tags ("Q1:")
_LINE_PREFIX = re.compile(r"^(?:[-*•]+\s+|\(?\d+[.):\]\-:]\s*|[Qq]\d*\s*[.:)\-]\s*)*")


@dataclass(frozen=True)
class SubQueryPlan:
    original: str
    sub_queries: tuple[str, ...]
    multi_intent: bool

    def __post_init__(self):
        if self.multi_intent:
            if not 2 <= len(self.sub_queries) <= MAX_SUB_QUERIES:
                raise ValueError("multi-intent plans need 2 or 3 sub-queries")
        elif self.sub_queries != (self.original,):
            raise ValueError("single-intent plans carry the original question only")


def strip_numbering(line: str) -> str:
    """Remove leading bullets and numbering like "1.", "(2)", "Q1:"."""
    return _LINE_PREFIX.sub("", line, count=1).strip()


def parse_sub_questions(response: str) -> list[str]:
    lines = [strip_numbering(line) for line in response.splitlines()]
    return [line for line in lines if line]


class DecompositionAgent:
    """Stateless; safe for concurrent use."""

    def __init__(self, gateway, templates: TemplateSet | None = None):
        self._gateway = gateway
        self._templates = templates or TemplateSet()

    def judge_multi_intent(self, question: str) -> bool:
        """Map the judgment response to a boolean by token scan.

        "single" anywhere wins False; otherwise "multi" wins True; a
        response with neither token raises ClassificationParseError.
        """
        if not question or not question.strip():
            raise ValueError("question must be non-empty")
        prompt = self._templates.render("judge_intent", question=question)
        response = self._gateway.complete_chat(prompt)
        lowered = response.casefold()
        if "single" in lowered:
            return False
        if "multi" in lowered:
            return True
        raise ClassificationParseError(
            f"judgment response contains neither 'single' nor 'multi': {response[:80]!r}"
        )

    def decompose(self, question: str, warnings: list[str] | None = None) -> SubQueryPlan:
        if not question or not question.strip():
            raise ValueError("question must be non-empty")
        try:
            multi = self.judge_multi_intent(question)
        except ClassificationParseError as exc:
            multi = False
            trace_warning(warnings,
                          f"intent judgment unparseable, treating as single-intent: {exc}")
        if not multi:
            return SubQueryPlan(question, (question,), multi_intent=False)

        prompt = self._templates.render("decompose", question=question)
        response = self._gateway.complete_chat(prompt)
        sub_questions = parse_sub_questions(response)[:MAX_SUB_QUERIES]
        if len(sub_questions) < 2:
            trace_warning(warnings, "decomposition yielded fewer than 2 sub-questions, "
                                    "falling back to single-intent")
            return SubQueryPlan(question, (question,), multi_intent=False)
        return SubQueryPlan(question, tuple(sub_questions), multi_intent=True)
