import itertools
import threading
from statistics import mean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmrag import decision
from hmrag.decision import (
    AnswerCandidate,
    ConsensusReport,
    DecisionAgent,
    bleu,
    format_answers,
    fused_similarity,
    rouge_l,
    tokenize,
    unavailable_candidate,
)
from hmrag.errors import BackendUnavailableError, PipelineError, ScriptMismatchError
from hmrag.gateway import ScriptedChatBackend
from hmrag.templates import TemplateSet

from conftest import ConstantChatBackend, CountingChatBackend, make_gateway, user_turns

TEMPLATES = TemplateSet()

tokens = st.lists(st.sampled_from("abcde"), min_size=1, max_size=12)


def test_tokenize_casefolds_and_splits_punctuation():
    assert tokenize("The answer is B.") == ["the", "answer", "is", "b"]
    assert tokenize("rock-forming; minerals!") == ["rock", "forming", "minerals"]


def test_rouge_identical_sequences():
    assert rouge_l(list("abcd"), list("abcd")) == 1.0


def test_rouge_hand_derived_case():
    # LCS of [a,b,c,d] and [a,c,b,d] is 3 (a,b,d or a,c,d)
    assert rouge_l(list("abcd"), list("acbd")) == pytest.approx(0.75)


def test_rouge_disjoint_sequences():
    assert rouge_l(list("abc"), list("xyz")) == 0.0


def test_rouge_empty_scores_zero():
    assert rouge_l([], list("ab")) == 0.0


@given(tokens, tokens)
@settings(max_examples=100, deadline=None)
def test_rouge_symmetric_and_bounded(a, b):
    forward = rouge_l(a, b)
    assert forward == rouge_l(b, a)
    assert 0.0 <= forward <= 1.0


def test_bleu_identical_sequences():
    assert bleu(list("abcde"), list("abcde")) == pytest.approx(1.0)


def test_bleu_hand_derived_zero_collapse():
    # p1=3/4, p2=2/3, p3=1/2, p4=0 -> no smoothing, score 0
    assert bleu(list("abcd"), list("abce")) == 0.0


def test_bleu_hand_derived_capped_n():
    # candidate shorter than BLEU_MAX_N: n capped at 2, p1=p2=1, brevity min(1, 3/2)=1
    assert bleu(list("ab"), list("abc")) == pytest.approx(1.0)


def test_bleu_long_candidate_penalized():
    # [a,b,c,d,a,b] vs [a,b,c,d]: hand-counted precisions 4/6, 3/5, 2/4, 1/3
    # and a 4/6 length factor penalizing the longer candidate
    expected = ((2 / 3) * (3 / 5) * (1 / 2) * (1 / 3)) ** 0.25 * (4 / 6)
    assert bleu(list("abcdab"), list("abcd")) == pytest.approx(expected, abs=1e-12)
    assert 0.0 < expected < 1.0


def test_bleu_empty_candidate_scores_zero():
    assert bleu([], list("ab")) == 0.0


def test_bleu_empty_reference_scores_zero():
    assert bleu(list("ab"), []) == 0.0


@given(tokens, tokens)
@settings(max_examples=100, deadline=None)
def test_bleu_bounded(a, b):
    assert 0.0 <= bleu(a, b) <= 1.0


def candidate(source, text, summary=None):
    return AnswerCandidate(text=text, source=source, summary=summary)


def test_fused_identical_summaries_any_lambda():
    a = candidate("vector", "x", summary="the answer is b")
    b = candidate("graph", "y", summary="the answer is b")
    for lam in (0.0, 0.3, 1.0):
        assert fused_similarity(a, b, lam) == pytest.approx(1.0)


def test_fused_hand_derived_mixture():
    # rouge 0.75 and symmetric bleu 0.25 fuse to 0.5 at lambda 0.5
    a = candidate("vector", "x", summary="a b c d")
    b = candidate("graph", "y", summary="a c b d")
    rouge = rouge_l(tokenize(a.summary), tokenize(b.summary))
    sym = (bleu(tokenize(a.summary), tokenize(b.summary))
           + bleu(tokenize(b.summary), tokenize(a.summary))) / 2
    expected = 0.5 * rouge + 0.5 * sym
    assert rouge == pytest.approx(0.75)
    assert fused_similarity(a, b, 0.5) == pytest.approx(expected)


def test_fused_disjoint_summaries():
    a = candidate("vector", "x", summary="alpha beta")
    b = candidate("graph", "y", summary="gamma delta")
    assert fused_similarity(a, b, 0.5) == 0.0


def test_fused_symmetric():
    a = candidate("vector", "x", summary="granite is igneous rock")
    b = candidate("web", "y", summary="igneous granite")
    assert fused_similarity(a, b, 0.4) == pytest.approx(fused_similarity(b, a, 0.4))


def test_fused_requires_summaries():
    a = candidate("vector", "x")
    b = candidate("graph", "y", summary="s")
    with pytest.raises(ValueError):
        fused_similarity(a, b, 0.5)


def test_fused_monotone_in_components():
    # fixed-point checks spanning the component grid: lam*r + (1-lam)*b
    cases = {(1.0, 1.0): 1.0, (0.75, 0.25): 0.5, (0.0, 0.0): 0.0}
    values = []
    for (r, b), expected in cases.items():
        values.append(0.5 * r + 0.5 * b)
        assert values[-1] == pytest.approx(expected)
    assert values == sorted(values, reverse=True)


def make_agent(chat=None, lightweight=None, expert=None, threshold=0.5):
    gateway = make_gateway(chat=chat or ConstantChatBackend("merged"),
                           lightweight=lightweight, expert=expert)
    return DecisionAgent(gateway, TEMPLATES, consensus_threshold=threshold)


def test_summarize_attaches_summary():
    text = "Granite is an igneous rock. It forms from magma."
    prompt = TEMPLATES.render("summarize", text=text, budget=64)
    chat = ScriptedChatBackend().add(user_turns(prompt), "Granite is an igneous rock.")
    agent = DecisionAgent(make_gateway(chat=chat), TEMPLATES)
    assert agent.summarize(text) == "Granite is an igneous rock."
    assert agent.summarize(text) == "Granite is an igneous rock."


def test_summarize_skips_unavailable():
    # an unavailable candidate is passed through untouched and gets no summary request
    chat = CountingChatBackend(SummaryChat(["granite", "basalt"]))
    agent = DecisionAgent(make_gateway(chat=chat), TEMPLATES)
    untouched = unavailable_candidate("web")
    _, _, worked = agent.decide("q?", [
        candidate("vector", "granite"), candidate("graph", "basalt"), untouched])
    assert worked[2] is untouched
    assert (chat.inner.summary_calls, chat.calls) == (2, 3)  # two summaries, then the refine


def test_summarize_failure_marks_unavailable():
    class Dead:
        def complete(self, turns, params):
            raise BackendUnavailableError("down")

    agent = DecisionAgent(make_gateway(chat=Dead()), TEMPLATES)
    with pytest.raises(BackendUnavailableError, match="down"):
        agent.summarize("text")
    warnings = []
    with pytest.raises(PipelineError, match="unavailable during summarization"):
        agent.decide("q?", [candidate("vector", "text"), candidate("graph", "other")], warnings)
    assert warnings == ["vector summary failed: down", "graph summary failed: down"]


def test_decide_raises_a_summary_error_that_is_not_a_gateway_error():
    # a scripted double's miss is a test bug, so it must not degrade to a warning
    agent = DecisionAgent(make_gateway(chat=ScriptedChatBackend()), TEMPLATES)
    warnings = []
    with pytest.raises(ScriptMismatchError):
        agent.decide("q?", [candidate("vector", "granite"), candidate("graph", "basalt")], warnings)
    assert warnings == []


def test_decide_identical_answers_routes_lightweight():
    lightweight = ConstantChatBackend("merged answer")
    expert = ConstantChatBackend("expert answer")
    agent = make_agent(lightweight=lightweight, expert=expert)
    candidates = [candidate(s, "The answer is B.", summary="answer b")
                  for s in ("vector", "graph", "web")]
    final, report, _ = agent.decide("q?", candidates)
    assert report.route == "lightweight"
    assert report.consensus is True
    assert report.mean_fused == pytest.approx(1.0)
    assert final == "merged answer"
    assert expert.calls == 0


def test_decide_disjoint_answers_routes_expert():
    lightweight = ConstantChatBackend("merged answer")
    expert = ConstantChatBackend("expert answer")
    agent = make_agent(lightweight=lightweight, expert=expert)
    candidates = [
        candidate("vector", "alpha", summary="alpha one"),
        candidate("graph", "beta", summary="beta two"),
        candidate("web", "gamma", summary="gamma three"),
    ]
    final, report, _ = agent.decide("q?", candidates)
    assert report.route == "expert"
    assert report.mean_fused == pytest.approx(0.0)
    assert final == "expert answer"
    assert lightweight.calls == 0


def test_decide_single_pair_when_one_agent_unavailable():
    agent = make_agent()
    candidates = [
        candidate("vector", "x", summary="granite rock sample found"),
        candidate("graph", "y", summary="granite rock sample found"),
        unavailable_candidate("web"),
    ]
    final, report, _ = agent.decide("q?", candidates)
    assert set(report.pair_scores) == {"graph|vector"}
    assert report.mean_fused == pytest.approx(1.0)
    assert report.route == "lightweight"


def test_decide_single_candidate_routes_lightweight_without_summaries():
    # a lone answer is a vote with no pairs: fully consistent at any threshold
    for threshold in (0.5, 1.0):
        chat = ConstantChatBackend("only answer refined")
        expert = ConstantChatBackend("expert answer")
        agent = make_agent(chat=chat, expert=expert, threshold=threshold)
        final, report, _ = agent.decide("q?", [candidate("web", "only answer")])
        assert report.route == "lightweight"
        assert report.pair_scores == {}
        assert report.mean_fused == 1.0
        assert final == "only answer refined"
        assert (chat.calls, expert.calls) == (1, 0)


def test_decide_lone_survivor_of_failed_summaries_is_refined_alone():
    texts = {"vector": "vector text", "graph": "graph text", "web": "web text"}
    failing = {TEMPLATES.render("summarize", text=texts[s], budget=64) for s in ("vector", "graph")}
    refine_prompt = TEMPLATES.render(
        "refine_lightweight", question="q?",
        answers=format_answers([candidate("web", texts["web"])]))

    class SummariesDown:
        def complete(self, turns, params):
            if turns[-1].content in failing:
                raise BackendUnavailableError("down")
            return "refined" if turns[-1].content == refine_prompt else "web summary"

    for threshold in (0.5, 1.0):
        chat = SummariesDown()
        expert = ConstantChatBackend("expert answer")
        agent = make_agent(chat=chat, expert=expert, threshold=threshold)
        warnings = []
        final, report, worked = agent.decide(
            "q?", [candidate(s, text) for s, text in texts.items()], warnings)
        # only the refine prompt over the web answer alone yields "refined"
        assert final == "refined"
        assert report.pair_scores == {}
        assert report.mean_fused == 1.0
        assert report.route == "lightweight"
        assert expert.calls == 0
        assert warnings == ["vector summary failed: down", "graph summary failed: down"]
        assert [(c.source, c.available, c.summary) for c in worked] == [
            ("vector", False, None), ("graph", False, None), ("web", True, "web summary")]


def test_decide_zero_available_is_pipeline_error():
    agent = make_agent()
    with pytest.raises(PipelineError):
        agent.decide("q?", [unavailable_candidate("vector")])


def test_decide_summarizes_candidates_missing_summaries():
    text_a = "Answer A text"
    text_b = "Answer A text"
    prompt = TEMPLATES.render("summarize", text=text_a, budget=64)
    chat = ScriptedChatBackend().add(user_turns(prompt), "answer a")
    refine_prompt = TEMPLATES.render(
        "refine_lightweight", question="q?",
        answers=format_answers([
            AnswerCandidate(text=text_a, source="vector", summary="answer a"),
            AnswerCandidate(text=text_b, source="graph", summary="answer a"),
        ]),
    )
    chat.add(user_turns(refine_prompt), "merged")
    agent = DecisionAgent(make_gateway(chat=chat), TEMPLATES)
    final, report, worked = agent.decide(
        "q?", [candidate("vector", text_a), candidate("graph", text_b)]
    )
    assert final == "merged"
    assert all(c.summary == "answer a" for c in worked)


class SummaryChat:
    """Summarizes each of `texts` as "short <text>" and answers any other prompt
    "merged". Counts the summary requests; with a barrier, each summary reply
    waits on it first."""

    def __init__(self, texts, barrier=None):
        self.texts = {TEMPLATES.render("summarize", text=t, budget=64): t for t in texts}
        self.barrier = barrier
        self.summary_calls = 0
        self._lock = threading.Lock()

    def complete(self, turns, params):
        text = self.texts.get(turns[-1].content)
        if text is None:
            return "merged"
        with self._lock:
            self.summary_calls += 1
        if self.barrier is not None:
            self.barrier.wait()
        return f"short {text}"


def test_decide_summarizes_each_distinct_text_once():
    chat = SummaryChat(["granite", "basalt"])
    agent = DecisionAgent(make_gateway(chat=chat), TEMPLATES)
    _, _, worked = agent.decide("q?", [
        candidate("vector", "granite"), candidate("graph", "basalt"), candidate("web", "granite")])
    assert chat.summary_calls == 2
    assert [(c.source, c.summary) for c in worked] == [
        ("vector", "short granite"), ("graph", "short basalt"), ("web", "short granite")]


@pytest.mark.parametrize("texts", [("granite", "basalt"), ("granite", "basalt", "slate")])
def test_decide_requests_the_distinct_summaries_at_the_same_time(texts):
    # each reply waits until every summary request has arrived, so requests
    # made one after another would break the barrier instead
    chat = SummaryChat(texts, barrier=threading.Barrier(len(texts), timeout=5))
    agent = DecisionAgent(make_gateway(chat=chat), TEMPLATES)
    sources = ("vector", "graph", "web")
    _, _, worked = agent.decide("q?", [candidate(s, t) for s, t in zip(sources, texts)])
    assert [c.summary for c in worked] == [f"short {t}" for t in texts]


def test_failed_shared_summary_warns_and_drops_each_sharer_in_candidate_order():
    failing = TEMPLATES.render("summarize", text="shared", budget=64)

    class SharedSummaryDown(SummaryChat):
        def complete(self, turns, params):
            if turns[-1].content == failing:
                with self._lock:
                    self.summary_calls += 1
                raise BackendUnavailableError("down")
            return super().complete(turns, params)

    chat = SharedSummaryDown(["own"])
    agent = DecisionAgent(make_gateway(chat=chat), TEMPLATES)
    warnings = []
    final, report, worked = agent.decide("q?", [
        candidate("vector", "own"), candidate("graph", "shared"), candidate("web", "shared")],
        warnings)
    assert chat.summary_calls == 2
    assert warnings == ["graph summary failed: down", "web summary failed: down"]
    assert [(c.source, c.available, c.summary) for c in worked] == [
        ("vector", True, "short own"), ("graph", False, None), ("web", False, None)]
    assert (final, report.pair_scores) == ("merged", {})


def test_routing_is_pure_function_of_scores_across_random_fixtures():
    import random

    rng = random.Random(23)
    vocab = ["alpha", "beta", "gamma", "delta", "answer", "rock", "b"]
    for trial in range(100):
        threshold = rng.random()
        agent = make_agent(threshold=threshold)
        candidates = []
        for source in ("vector", "graph", "web"):
            summary = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
            candidates.append(candidate(source, f"text {source}", summary=summary))
        final, report, _ = agent.decide("q?", candidates)
        independent_mean = mean(
            fused_similarity(a, b, agent.fusion_lambda)
            for a, b in itertools.combinations(candidates, 2)
        )
        assert report.mean_fused == pytest.approx(independent_mean, abs=1e-12)
        expected_route = "lightweight" if independent_mean >= threshold else "expert"
        assert report.route == expected_route
        assert report.consensus == (independent_mean >= threshold)


def test_decide_tokenizes_each_summary_once(monkeypatch):
    seen = []
    monkeypatch.setattr(decision, "tokenize", lambda text: seen.append(text) or tokenize(text))
    candidates = [candidate(source, f"text {source}", summary=f"{source} summary")
                  for source in ("vector", "graph", "web")]
    _, report, _ = make_agent().decide("q?", candidates)
    assert sorted(seen) == sorted(c.summary for c in candidates)
    assert len(report.pair_scores) == 3
    seen.clear()
    _, report, _ = make_agent().decide("q?", [candidate("vector", "alone")])
    assert seen == [] and report.pair_scores == {}


def test_consensus_report_validates_consistency():
    with pytest.raises(ValueError):
        ConsensusReport(pair_scores={}, mean_fused=0.9, threshold=0.5,
                        consensus=False, route="expert")
    with pytest.raises(ValueError):
        ConsensusReport(pair_scores={}, mean_fused=0.9, threshold=0.5,
                        consensus=True, route="expert")
    with pytest.raises(ValueError):
        ConsensusReport(pair_scores={"graph|vector": {"fused": 1.2}}, mean_fused=0.9,
                        threshold=0.5, consensus=True, route="lightweight")
    with pytest.raises(ValueError):
        ConsensusReport(pair_scores={}, mean_fused=-0.1, threshold=0.5,
                        consensus=False, route="expert")
