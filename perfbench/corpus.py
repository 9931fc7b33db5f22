"""Seeded synthetic world: corpus, web facts and a question set.

Every document states one country, what kind of nation it is, and its
capital. Names are combinatorial (three syllables plus a suffix), so the
world scales past 10k documents without repeats, and every fifth
document carries an image reference so ingest runs caption + refine.

Nothing here calls hmrag: the fixtures are plain data, and the backend
doubles in ``doubles.py`` answer from the prompt text alone.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

_ONSETS = "b d f g k l m n p r s t v z".split()
_VOWELS = "a e i o u".split()
_SYLLABLES = [o + v for o in _ONSETS for v in _VOWELS]
_ADJECTIVES = ["small", "coastal", "mountain", "island", "river", "desert", "forest", "lake"]
_REGIONS = ["southern sea", "northern plains", "eastern gulf", "western isles", "central highlands"]
_COLORS = ["crimson", "azure", "emerald", "golden", "violet"]

# Exact shares of each run's questions. "contradicted" questions ask about
# a country whose web snippets name another city, so the vote must go to
# the expert; "multi" questions name two countries and get 2 sub-questions.
QUESTION_MIX = (("single", 0.55), ("contradicted", 0.20), ("multi", 0.25))
CONTRADICTED_SHARE = 0.25  # of countries


@dataclass(frozen=True)
class Country:
    doc_id: str
    name: str
    capital: str
    adjective: str
    region: str
    image_ref: str | None
    web_claim: str | None  # a wrong capital the web reports, or None

    @property
    def description(self) -> str:
        return f"a {self.adjective} nation in the {self.region}"

    @property
    def capital_sentence(self) -> str:
        return f"The capital of {self.name} is {self.capital} ,"

    @property
    def text(self) -> str:
        # The name recurs and stays a separate token, which keeps the gold
        # document in the hashing embedding's top k on the small worlds.
        return (f"{self.name} is {self.description} . {self.capital_sentence} "
                f"the seat of the {self.name} government .")


@dataclass(frozen=True)
class Question:
    id: str
    question: str
    choices: tuple[str, ...]
    answer: int
    countries: tuple[Country, ...]  # one per expected sub-question, in order

    @property
    def sub_queries(self) -> int:
        return len(self.countries)


@dataclass(frozen=True)
class World:
    countries: tuple[Country, ...]
    by_name: dict

    def __len__(self):
        return len(self.countries)

    @property
    def agreeing(self) -> list[Country]:
        return [c for c in self.countries if c.web_claim is None]

    @property
    def contradicted(self) -> list[Country]:
        return [c for c in self.countries if c.web_claim is not None]


def sub_question(country_name: str) -> str:
    # The name appears twice and never glued to punctuation: "X?" would be a
    # token no document holds, and the gold document would drop out of the
    # hashing embedding's top k.
    return (f"Which city is the capital of the nation of {country_name} , "
            f"where the {country_name} government sits ?")


_SUBJECT = re.compile(r"capital of the nation of (\S+) ,")


def subject(text: str) -> str | None:
    """The country a sub-question asks about, read from the text's first line."""
    match = _SUBJECT.search(text.split("\n", 1)[0])
    return match.group(1) if match else None


def _names(rng: random.Random, count: int) -> list[str]:
    combos = len(_SYLLABLES) ** 3
    if count > combos:
        raise ValueError(f"at most {combos} names, asked for {count}")
    names = []
    for code in rng.sample(range(combos), count):
        a, rest = divmod(code, len(_SYLLABLES) ** 2)
        b, c = divmod(rest, len(_SYLLABLES))
        names.append(_SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c])
    return names


def build_world(n_docs: int, seed: int) -> World:
    if n_docs < 8:
        raise ValueError("the question generator needs at least 8 documents")
    rng = random.Random(seed)
    stems = _names(rng, 2 * n_docs)
    capitals = [stem.capitalize() + "por" for stem in stems[n_docs:]]
    contradicted = set(rng.sample(range(n_docs), max(1, round(CONTRADICTED_SHARE * n_docs))))
    countries = []
    for i in range(n_docs):
        web_claim = None
        if i in contradicted:
            web_claim = capitals[(i + 1 + rng.randrange(n_docs - 1)) % n_docs]
        countries.append(Country(
            doc_id=f"doc{i:05d}",
            name=stems[i].capitalize() + "ia",
            capital=capitals[i],
            adjective=rng.choice(_ADJECTIVES),
            region=rng.choice(_REGIONS),
            image_ref=f"img/{i:05d}-{rng.choice(_COLORS)}.png" if i % 5 == 0 else None,
            web_claim=web_claim,
        ))
    return World(tuple(countries), {c.name: c for c in countries})


def corpus_records(world: World) -> list[dict]:
    """Corpus rows in the ``hmrag ingest`` JSON-lines shape."""
    return [{"id": c.doc_id, "text": c.text, "image_ref": c.image_ref} for c in world.countries]


def _distractors(rng: random.Random, world: World, exclude: set, count: int) -> list[str]:
    picked: list[str] = []
    while len(picked) < count:
        other = world.countries[rng.randrange(len(world))].capital
        if other not in exclude and other not in picked:
            picked.append(other)
    return picked


def _single(rng: random.Random, world: World, qid: str, pool: list[Country]) -> Question:
    country = rng.choice(pool)
    wrong = [country.web_claim] if country.web_claim else []
    wrong += _distractors(rng, world, {country.capital, *wrong}, 3 - len(wrong))
    answer = rng.randrange(4)
    choices = wrong[:answer] + [country.capital] + wrong[answer:]
    return Question(qid, sub_question(country.name), tuple(choices), answer, (country,))


def _multi(rng: random.Random, world: World, qid: str, pool: list[Country]) -> Question:
    first, second = rng.sample(pool, 2)
    d1, d2, d3, d4 = _distractors(rng, world, {first.capital, second.capital}, 4)
    wrong = [f"{first.capital} and {d1}", f"{d2} and {second.capital}", f"{d3} and {d4}"]
    answer = rng.randrange(4)
    gold = f"{first.capital} and {second.capital}"
    choices = wrong[:answer] + [gold] + wrong[answer:]
    text = (f"Which city is the capital of the nation of {first.name} , "
            f"and which city is the capital of the nation of {second.name} ?")
    return Question(qid, text, tuple(choices), answer, (first, second))


def build_questions(world: World, count: int, seed: int, prefix: str = "q") -> list[Question]:
    rng = random.Random(f"{seed}/{prefix}")
    kinds = [kind for kind, share in QUESTION_MIX[1:] for _ in range(round(share * count))]
    kinds = [QUESTION_MIX[0][0]] * (count - len(kinds)) + kinds
    rng.shuffle(kinds)
    agreeing, contradicted = world.agreeing, world.contradicted
    questions = []
    for i, kind in enumerate(kinds):
        qid = f"{prefix}{i:04d}"
        if kind == "multi":
            questions.append(_multi(rng, world, qid, agreeing))
        else:
            questions.append(_single(rng, world, qid,
                                     contradicted if kind == "contradicted" else agreeing))
    return questions
