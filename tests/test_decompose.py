import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmrag.decompose import DecompositionAgent, SubQueryPlan, parse_sub_questions, strip_numbering
from hmrag.errors import ClassificationParseError
from hmrag.gateway import ScriptedChatBackend
from hmrag.templates import TemplateSet

from conftest import CountingChatBackend, make_gateway, user_turns


TEMPLATES = TemplateSet()


def judge_turns(question):
    return user_turns(TEMPLATES.render("judge_intent", question=question))


def decompose_turns(question):
    return user_turns(TEMPLATES.render("decompose", question=question))


def make_agent(*entries):
    backend = ScriptedChatBackend()
    for turns, response in entries:
        backend.add(turns, response)
    counting = CountingChatBackend(backend)
    return DecompositionAgent(make_gateway(chat=counting), TEMPLATES), counting


def test_judge_maps_multi_token():
    agent, _ = make_agent((judge_turns("q?"), "multi-intent"))
    assert agent.judge_multi_intent("q?") is True


def test_judge_maps_single_token():
    agent, _ = make_agent((judge_turns("q?"), "single-intent"))
    assert agent.judge_multi_intent("q?") is False


def test_judge_single_wins_when_both_present():
    agent, _ = make_agent((judge_turns("q?"), "not multi, single"))
    assert agent.judge_multi_intent("q?") is False


def test_judge_unparseable_raises():
    agent, _ = make_agent((judge_turns("q?"), "unclear"))
    with pytest.raises(ClassificationParseError):
        agent.judge_multi_intent("q?")


def test_judge_rejects_empty_question():
    agent, _ = make_agent()
    with pytest.raises(ValueError):
        agent.judge_multi_intent("  ")


def test_decompose_single_intent_passthrough_never_calls_decomposer():
    question = "What is photosynthesis?"
    agent, backend = make_agent((judge_turns(question), "single-intent"))
    plan = agent.decompose(question)
    assert plan == SubQueryPlan(question, (question,), multi_intent=False)
    assert backend.calls == 1  # only the judgment call; a decompose call would miss


def test_decompose_parses_numbered_response():
    question = "What mineral is shown and which property identifies it?"
    agent, _ = make_agent(
        (judge_turns(question), "multi-intent"),
        (decompose_turns(question), "1. What mineral is shown?\n2. Which property identifies it?"),
    )
    plan = agent.decompose(question)
    assert plan.multi_intent is True
    assert plan.sub_queries == ("What mineral is shown?", "Which property identifies it?")


def test_decompose_truncates_to_three():
    question = "big question?"
    lines = "\n".join(f"{i}. sub question {i}?" for i in range(1, 6))
    agent, _ = make_agent(
        (judge_turns(question), "multi-intent"),
        (decompose_turns(question), lines),
    )
    plan = agent.decompose(question)
    assert plan.sub_queries == ("sub question 1?", "sub question 2?", "sub question 3?")


def test_decompose_falls_back_when_too_few_lines():
    question = "q?"
    warnings = []
    agent, _ = make_agent(
        (judge_turns(question), "multi-intent"),
        (decompose_turns(question), "only one line"),
    )
    plan = agent.decompose(question, warnings)
    assert plan.multi_intent is False
    assert plan.sub_queries == (question,)
    assert warnings


def test_decompose_judgment_parse_failure_degrades_to_single():
    question = "q?"
    warnings = []
    agent, _ = make_agent((judge_turns(question), "hmm"))
    plan = agent.decompose(question, warnings)
    assert plan.multi_intent is False
    assert any("single-intent" in w for w in warnings)


def test_plan_invariant_enforced():
    with pytest.raises(ValueError):
        SubQueryPlan("q", ("a",), multi_intent=True)
    with pytest.raises(ValueError):
        SubQueryPlan("q", ("a", "b", "c", "d"), multi_intent=True)
    with pytest.raises(ValueError):
        SubQueryPlan("q", ("other",), multi_intent=False)


def test_parse_ignores_blank_lines_and_prefixes_across_formats():
    # ten observed numbering styles, with blank lines sprinkled in
    response = "\n".join([
        "1. alpha?",
        "",
        "2) beta?",
        "(3) gamma?",
        "- delta?",
        "* epsilon?",
        "  ",
        "Q1: zeta?",
        "q2. eta?",
        "10. theta?",
        "iota?",
        "• kappa?",
    ])
    assert parse_sub_questions(response) == [
        "alpha?", "beta?", "gamma?", "delta?", "epsilon?",
        "zeta?", "eta?", "theta?", "iota?", "kappa?",
    ]


_OLD_LINE_PREFIXES = (
    re.compile(r"^[-*•]+\s+"),
    re.compile(r"^\(?\d+[.):\]\-:]\s*"),
    re.compile(r"^[Qq]\d*\s*[.:)\-]\s*"),
)


def strip_numbering_by_fixpoint(line):
    """The former `strip_numbering`: strip one prefix at a time until none is left."""
    changed = True
    while changed:
        changed = False
        for pattern in _OLD_LINE_PREFIXES:
            stripped = pattern.sub("", line, count=1)
            if stripped != line:
                line = stripped
                changed = True
    return line.strip()


# whole and broken prefixes, separators and text, so that runs of several prefixes are common
_PREFIX_PIECES = ["- ", "-", "•", "*", " ", "\t", "(1)", "2.", "3", ")", "Q1:", "q -", "Q", ":", "x"]


def test_strip_numbering_matches_the_fixpoint_loop_on_every_run_of_up_to_four_pieces():
    for n in range(5):
        for pieces in itertools.product(_PREFIX_PIECES, repeat=n):
            line = "".join(pieces)
            assert strip_numbering(line) == strip_numbering_by_fixpoint(line), line


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_PREFIX_PIECES) | st.text(max_size=3), max_size=12).map("".join))
def test_strip_numbering_matches_the_fixpoint_loop(line):
    assert strip_numbering(line) == strip_numbering_by_fixpoint(line)
