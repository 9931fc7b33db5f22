"""Backend doubles: a reader chat model, caption and search services, and
the wrapper that delays and counts every request.

The chat double recognises each prompt by matching it against hmrag's own
prompt templates, then answers from the text inside the prompt: agent
answers come from their evidence, refine steps vote over the answers they
are shown. An agent whose retrieval lost the gold evidence therefore
answers wrongly instead of reading a scripted right answer. A prompt it
does not recognise raises, which fails the question.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import Counter
from contextlib import nullcontext

from hmrag.templates import TEMPLATE_NAMES, TemplateSet
from hmrag.web_agent import parse_search_response

from corpus import World, sub_question, subject

KEYWORD_GLOBAL = "capital"
KEYWORDS_PER_QUERY = 2  # the question's country, and KEYWORD_GLOBAL
RELATION = "capital_of"

_CHOICE_LINE = re.compile(r"^\(([A-E])\) (.+)$", re.MULTILINE)
_LETTER = re.compile(r"\(([A-E])\)|option ([A-E])")
_CLAIM = re.compile(r"The capital of (\S+) is (\S+?)[.,]")
_HOSTED = re.compile(r"(\S+) has hosted the government of (\S+) since the reform")
_CHUNK_HEADER = re.compile(r"\[chunk \d+/\d+ \| (\d+) chars\]\n")
_VISUAL = re.compile(r" \[visual: [^\]]*\]$", re.MULTILINE)


class UnrecognizedPrompt(Exception):
    """The chat double was sent a prompt it has no reader for."""


def _template_pattern(text: str) -> re.Pattern:
    parts = re.split(r"\{([a-z_]+)\}", text)
    regex = "".join(re.escape(p) if i % 2 == 0 else f"(?P<{p}>.*?)" for i, p in enumerate(parts))
    return re.compile(regex, re.DOTALL)


def _question_part(question: str) -> str:
    return question.split("\n\n", 1)[0]


def _subject(question: str) -> str:
    name = subject(question)
    if name is None:
        raise UnrecognizedPrompt(f"no country in question {question[:80]!r}")
    return name


def _choices(question: str) -> dict[str, str]:
    return {text: letter for letter, text in _CHOICE_LINE.findall(question)}


def _first(pattern: str, text: str) -> str | None:
    match = re.search(pattern, text, re.MULTILINE)
    return match.group(1) if match else None


def _claim(question: str, country: str, capital: str | None, description: str | None,
           seat: bool, cite: str = "") -> str:
    """The answer every agent writes when its evidence names the capital."""
    if capital is None or description is None or not seat:
        return f"The evidence does not say which city is the capital of {country}."
    head = f"The capital of {country} is {capital}"
    letter = _choices(question).get(capital)
    if letter:
        head += f", so the answer is ({letter})"
    return (f"{head}. {country} is {description}, and {capital} is the seat of the "
            f"{country} government.{cite}")


def _read_facts(question: str, text: str, cite: str = "") -> str:
    """Answer from document-style text: the corpus chunks or web snippets."""
    country = _subject(question)
    name = re.escape(country)
    capital = _first(rf"The capital of {name} is (\S+) ,", text)
    description = _first(rf"{name} is (a [^.]+) \.", text)
    seat = capital is not None and f"{capital} , the seat of the {country} government" in text
    return _claim(question, country, capital, description, seat, cite)


def _vote(answers: str) -> tuple[str | None, str | None]:
    """Majority option letter, else majority capital claim; ties go to the first seen."""
    letters, claims = [], []
    for block in answers.split("\n\n"):
        text = block.split("\n", 1)[0]
        letter = _LETTER.search(text)
        if letter:
            letters.append(letter.group(1) or letter.group(2))
        claim = _CLAIM.search(text)
        if claim:
            claims.append(claim.groups())
    if letters:
        return Counter(letters).most_common(1)[0][0], None
    if claims:
        return None, "The capital of {} is {}.".format(*Counter(claims).most_common(1)[0][0])
    return None, None


class ReaderChat:
    """Deterministic chat double that answers from the prompt text alone."""

    def __init__(self, templates: TemplateSet | None = None):
        templates = templates or TemplateSet()
        self._vector_header = templates.text("vector_header").rstrip("\n")
        self._readers = []
        for name in TEMPLATE_NAMES:
            reader = getattr(self, f"_read_{name}", None)
            if reader is not None:
                self._readers.append((_template_pattern(templates.text(name)), reader))

    def complete(self, turns, params) -> str:
        prompt = turns[-1].content
        if prompt.startswith("Question ("):
            return self._read_vector(prompt)
        for pattern, reader in self._readers:
            match = pattern.fullmatch(prompt)
            if match:
                fields = match.groupdict()
                if "budget" in fields:
                    fields["budget"] = min(int(fields["budget"]), params.max_tokens)
                return reader(**fields)
        raise UnrecognizedPrompt(f"no reader for prompt {prompt[:80]!r}")

    # query decomposition

    def _read_judge_intent(self, question):
        clauses = _question_part(question).count("capital of the nation of ")
        return "multi-intent" if clauses >= 2 else "single-intent"

    def _read_decompose(self, question):
        names = re.findall(r"capital of the nation of (\S+)", _question_part(question))
        return "\n".join(f"{i}. {sub_question(name)}" for i, name in enumerate(names, 1))

    # retrieval agents

    def _read_keywords(self, question):
        return json.dumps({"local_keywords": [_subject(question)],
                           "global_keywords": [KEYWORD_GLOBAL]})

    def _read_vector(self, prompt):
        header = re.match(r"Question \((\d+) chars\):\n", prompt)
        question = prompt[header.end():header.end() + int(header.group(1))]
        rest = prompt[header.end() + len(question):]
        if not rest.startswith(f"\n\n{self._vector_header}\n\nContext chunks: "):
            raise UnrecognizedPrompt(f"malformed vector prompt {prompt[:80]!r}")
        chunks = []
        for match in _CHUNK_HEADER.finditer(rest):
            chunks.append(rest[match.end():match.end() + int(match.group(1))])
        return _read_facts(question, "\n".join(chunks))

    def _read_graph_answer(self, question, evidence):
        country = _subject(question)
        name = re.escape(country)
        evidence = _VISUAL.sub("", evidence)
        capital = _first(rf"^(\S+) —{RELATION}→ {name}$", evidence)
        description = _first(rf"^{name}: (.+)$", evidence)
        seat = capital is not None and re.search(
            rf"^{re.escape(capital)}: seat of the {name} government$", evidence, re.MULTILINE)
        return _claim(question, country, capital, description, bool(seat))

    def _read_web_answer(self, question, results):
        country = _subject(question)
        hosted = _HOSTED.search(results)
        if hosted and hosted.group(2) == country:
            city = hosted.group(1)
            letter = _choices(question).get(city)
            option = f" (option {letter})" if letter else ""
            return (f"{city}{option}: travel notes say {city} has hosted the government "
                    f"of {country} since the reform [1].")
        return _read_facts(question, results, cite=" [1]")

    # decision

    def _read_summarize(self, text, budget):
        return " ".join(text.split()[:budget])

    def _read_refine_lightweight(self, question, answers):
        letter, claim = _vote(answers)
        if letter:
            return f"The answer is ({letter})."
        return claim or "The answers do not settle the question."

    def _read_refine_expert(self, question, answers):
        letter, claim = _vote(answers)
        if letter:
            return f"Weighing the evidence, the answer is ({letter})."
        return claim or "The evidence does not settle the question."

    def _read_final_refine(self, question, answers):
        capitals = [m.group(2) for m in _CLAIM.finditer(answers)]
        letter = _choices(question).get(" and ".join(capitals))
        if letter:
            return f"The answer is ({letter})."
        return "None of the choices matches the sub-answers."

    # ingest

    def _read_extract_graph(self, text):
        match = re.search(r"^(\S+) is (a [^.]+) \. The capital of \1 is (\S+) , "
                          r"the seat of the \1 government \.", text)
        if match is None:
            return "no entities found"
        country, description, capital = match.groups()
        return "\n".join([
            f"ENTITY|{country}|{description}",
            f"ENTITY|{capital}|seat of the {country} government",
            f"REL|{capital}|{RELATION}|{country}",
        ])

    def _read_refine_caption(self, caption, text):
        color = re.fullmatch(r"a rectangular flag with a (\S+) field", caption).group(1)
        return f"The flag of {text.split()[0]} shows a {color} emblem."


class FlagCaptions:
    """Caption double: the image reference names the flag's colour."""

    def caption(self, image_ref: str) -> str:
        color = re.fullmatch(r"img/\d+-(\w+)\.png", image_ref).group(1)
        return f"a rectangular flag with a {color} field"


class WorldSearch:
    """Search double serving Serper-format results about the world's countries.

    For a contradicted country the top result names a wrong capital, so
    the web answer disagrees with the corpus.
    """

    def __init__(self, world: World, call_log=None):
        self._world = world
        self._call_log = call_log

    def search(self, query, cfg):
        if self._call_log is not None:
            self._call_log.record("search", "web", query)
        country = self._world.by_name[_subject(query)]
        slug = country.name.lower()
        if country.web_claim is None:
            top = {"title": f"{country.name} travel guide",
                   "snippet": country.text,
                   "link": f"https://example.org/{slug}"}
        else:
            top = {"title": f"{country.name} travel notes",
                   "snippet": (f"Travel notes: {country.web_claim} has hosted the government "
                               f"of {country.name} since the reform."),
                   "link": f"https://example.org/notes/{slug}"}
        organic = [
            {**top, "position": 1},
            {"title": "World capitals list", "snippet": "Capitals of the world's nations.",
             "link": "https://example.org/capitals", "position": 2},
            {"title": "Regional survey", "snippet": f"A survey of nations in the {country.region}.",
             "link": "https://example.org/survey", "position": 3},
        ]
        return parse_search_response({"organic": organic}, cfg)


class Recorder:
    """Request counts by (kind, role), shared by every backend wrapper.

    ``tracer`` is set only during a traced phase; backend spans are then
    recorded around each request.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Counter = Counter()
        self.tracer = None

    def count(self, kind: str, role: str) -> None:
        with self._lock:
            self._counts[(kind, role)] += 1

    def snapshot(self) -> Counter:
        with self._lock:
            return Counter(self._counts)


class Backend:
    """Sleeps once per request, counts it, then forwards to the wrapped double."""

    def __init__(self, inner, kind: str, role: str, delay_s: float, recorder: Recorder):
        self._inner = inner
        self._kind = kind
        self._role = role
        self._delay_s = delay_s
        self._recorder = recorder

    def _call(self, method: str, *args):
        self._recorder.count(self._kind, self._role)
        tracer = self._recorder.tracer
        with tracer.span(f"backend.{self._kind}") if tracer else nullcontext():
            if self._delay_s:
                time.sleep(self._delay_s)
            return getattr(self._inner, method)(*args)

    def complete(self, turns, params):
        return self._call("complete", turns, params)

    def embed(self, text):
        return self._call("embed", text)

    def caption(self, image_ref):
        return self._call("caption", image_ref)

    def search(self, query, cfg):
        return self._call("search", query, cfg)
