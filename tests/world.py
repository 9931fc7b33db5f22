"""Deterministic synthetic corpus with fully scripted backends.

Coined country/capital pairs; each capital name appears verbatim in
exactly one document. Every chat prompt the pipeline will issue is
precomputed here with the package's own prompt builders and installed
into an exact-match scripted backend, so end-to-end runs are offline
and bit-reproducible. A stub search fixture serves the web agent.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

from hmrag.gateway import (
    CallLog,
    ChatTurn,
    HashingEmbeddingBackend,
    ModelGateway,
    ScriptedCaptionBackend,
    ScriptedChatBackend,
)
from hmrag.decision import format_answers, AnswerCandidate
from hmrag.graph_agent import (
    make_keyword_set,
    retrieve_subgraph,
    expand_one_hop,
    serialize_subgraph,
)
from hmrag.ingest import (
    CorpusRecord,
    build_index,
    caption_and_refine,
    chunk_document,
    extract_graph,
)
from hmrag.pipeline import (
    EvalRecord,
    Pipeline,
    PipelineConfig,
    format_eval_question,
)
from hmrag.templates import TemplateSet
from hmrag.vector_agent import build_prompt, top_k_by_vector
from hmrag.web_agent import SearchConfig, StubSearchClient, format_results, parse_search_response

BASES = [
    "Arva", "Belmo", "Cindra", "Dorva", "Elmira", "Fenwick", "Galdor",
    "Hestia", "Ivren", "Jorvik", "Kestrel", "Lumora", "Mirelle", "Norvath",
    "Opaline", "Prisma", "Querra", "Rovana", "Selmark", "Tyri",
]
COLORS = ["crimson", "azure", "emerald", "golden"]
LETTERS = "ABCDE"

EMBED_DIM = 64
EMBED_SEED = 0
TOP_K = 5
TAU = 0.3
SUMMARY_BUDGET = 64

SUBSETS = (
    ("vector", "graph", "web"),
    ("graph", "web"),
    ("vector", "web"),
    ("vector", "graph"),
)


def country(i):
    return BASES[i] + "nia"


def city(i):
    return BASES[i] + "polis"


class ScriptBook:
    """Collects prompt -> response entries, refusing conflicting rebinds."""

    def __init__(self):
        self.entries = {}

    def add(self, prompt, response):
        if prompt in self.entries:
            assert self.entries[prompt] == response, f"conflicting script for prompt: {prompt[:80]}"
            return
        self.entries[prompt] = response

    def backend(self):
        scripted = ScriptedChatBackend()
        for prompt, response in self.entries.items():
            scripted.add([ChatTurn(prompt)], response)
        return scripted

    def to_json(self):
        return [
            {"turns": [{"role": "user", "content": prompt}], "response": response}
            for prompt, response in self.entries.items()
        ]


@dataclass
class World:
    n: int
    records: list
    eval_records: list
    book: ScriptBook
    captions: dict
    web_fixture: dict
    index: object
    graph: object
    templates: TemplateSet
    answer_letters: dict
    answer_texts: dict
    dir: Path | None = None
    paths: dict = field(default_factory=dict)

    def embedding_backend(self):
        return HashingEmbeddingBackend(dim=EMBED_DIM, seed=EMBED_SEED)

    def make_pipeline(self, enabled=("vector", "graph", "web"), decision_enabled=True,
                      call_log=None, web_client=None, agent_timeout_s=30.0):
        call_log = call_log or CallLog()
        gateway = ModelGateway(
            chat=self.book.backend(),
            embedding=self.embedding_backend(),
            caption=ScriptedCaptionBackend(self.captions),
            call_log=call_log,
        )
        web_client = web_client or StubSearchClient(self.web_fixture)
        cfg = PipelineConfig(
            enabled_agents=tuple(enabled),
            decision_enabled=decision_enabled,
            top_k=TOP_K,
            tau=TAU,
            summary_token_budget=SUMMARY_BUDGET,
            agent_timeout_s=agent_timeout_s,
            search=SearchConfig(num_results=TOP_K),
        )
        return Pipeline(gateway, self.index, self.graph, web_client,
                        cfg=cfg, templates=self.templates, call_log=call_log)

    def write_files(self, directory: Path):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        corpus = directory / "corpus.jsonl"
        corpus.write_text(
            "\n".join(json.dumps(
                {"id": r.id, "text": r.text, "image_ref": r.image_ref}, ensure_ascii=False)
                for r in self.records) + "\n",
            encoding="utf-8",
        )
        chat = directory / "chat_fixture.json"
        chat.write_text(json.dumps(self.book.to_json(), ensure_ascii=False), encoding="utf-8")
        captions = directory / "captions.json"
        captions.write_text(json.dumps(self.captions, ensure_ascii=False), encoding="utf-8")
        web = directory / "web_stub.json"
        web.write_text(json.dumps(self.web_fixture, ensure_ascii=False), encoding="utf-8")
        dataset = directory / "dataset.jsonl"
        dataset.write_text(
            "\n".join(json.dumps({
                "id": r.id, "question": r.question, "choices": list(r.choices),
                "answer": r.answer, "tags": list(r.tags)}, ensure_ascii=False)
                for r in self.eval_records) + "\n",
            encoding="utf-8",
        )
        config = directory / "hmrag.conf"
        config.write_text(
            "\n".join([
                "chat.backend = scripted",
                f"chat.fixture = {chat}",
                "embedding.backend = scripted",
                f"embedding.dim = {EMBED_DIM}",
                f"embedding.seed = {EMBED_SEED}",
                "caption.backend = scripted",
                f"caption.fixture = {captions}",
                "web.backend = stub",
                f"web.stub_fixture_path = {web}",
                f"retrieval.top_k = {TOP_K}",
                f"graph.tau = {TAU}",
            ]) + "\n",
            encoding="utf-8",
        )
        self.dir = directory
        self.paths = {
            "corpus": corpus, "chat": chat, "captions": captions,
            "web": web, "dataset": dataset, "config": config,
        }
        return self


def build_world(n=20, wrong_ids=frozenset(), subsets=SUBSETS):
    assert 2 <= n <= len(BASES)
    templates = TemplateSet()
    book = ScriptBook()
    captions = {}
    records = []
    raw_captions = {}

    for i in range(n):
        text = (
            f"{country(i)} is a small coastal nation in the southern sea. "
            f"The capital of {country(i)} is {city(i)}. "
            f"The central museum of {city(i)} holds the national mineral collection."
        )
        image_ref = f"img/flag{i:02d}.png" if i % 5 == 0 else None
        records.append(CorpusRecord(f"doc{i:02d}", text, image_ref))
        if image_ref:
            raw = f"a rectangular flag with a {COLORS[i % len(COLORS)]} field"
            refined = f"The flag of {country(i)} shows a {COLORS[i % len(COLORS)]} emblem."
            captions[image_ref] = raw
            raw_captions[i] = (raw, refined)
            book.add(templates.render("refine_caption", caption=raw, text=text), refined)

    # extraction responses, keyed by the fused text each document will have
    fused_texts = {}
    for i, record in enumerate(records):
        if record.image_ref:
            fused_texts[i] = record.text + "\n\n" + raw_captions[i][1]
        else:
            fused_texts[i] = record.text
        extraction = "\n".join([
            f"ENTITY|{country(i)}|a coastal nation",
            f"ENTITY|{city(i)}|capital of {country(i)}",
            f"REL|{city(i)}|capital_of|{country(i)}",
        ])
        book.add(templates.render("extract_graph", text=fused_texts[i]), extraction)

    # build the stores exactly the way ingestion will
    ingest_gateway = ModelGateway(
        chat=book.backend(),
        embedding=HashingEmbeddingBackend(dim=EMBED_DIM, seed=EMBED_SEED),
        caption=ScriptedCaptionBackend(captions),
    )
    docs = [caption_and_refine(r, ingest_gateway, templates) for r in records]
    assert [d.fused_text for d in docs] == [fused_texts[i] for i in range(n)]
    chunks = []
    for doc in docs:
        chunks.extend(chunk_document(doc))
    index = build_index(chunks, ingest_gateway)
    graph = extract_graph(docs, ingest_gateway, templates)

    # eval dataset: four city choices, correct letter varies with position
    eval_records = []
    answer_letters = {}
    answer_texts = {}
    for i in range(n):
        correct_pos = i % min(4, n)
        choice_ids = [(i + off) % n for off in range(1, min(4, n))]
        choices = [city(j) for j in choice_ids]
        choices.insert(correct_pos, city(i))
        record = EvalRecord(
            id=f"q{i:02d}",
            question=f"What is the capital of {country(i)}?",
            choices=tuple(choices),
            answer=correct_pos,
            tags=("coastal",) if i % 2 == 0 else ("inland",),
        )
        eval_records.append(record)
        letter = LETTERS[correct_pos]
        if record.id in wrong_ids:
            letter = LETTERS[(correct_pos + 1) % len(choices)]
        answer_letters[record.id] = letter
        answer_texts[record.id] = f"The answer is {letter}."

    # query-phase scripts, derived with the same builders the agents use
    embed = HashingEmbeddingBackend(dim=EMBED_DIM, seed=EMBED_SEED).embed
    web_fixture = {}
    header = templates.text("vector_header")
    search_cfg = SearchConfig(num_results=TOP_K)
    for i, record in enumerate(eval_records):
        question = format_eval_question(record)
        answer_text = answer_texts[record.id]
        book.add(templates.render("judge_intent", question=question), "single-intent")

        result = top_k_by_vector(question, embed(question), index, TOP_K)
        vector_prompt = build_prompt(question, [s.chunk.text for s in result.top], header)
        book.add(vector_prompt, answer_text)

        keyword_json = json.dumps({
            "local_keywords": [country(i).casefold()],
            "global_keywords": ["capital"],
        })
        book.add(templates.render("keywords", question=question), keyword_json)
        keywords = make_keyword_set([country(i).casefold()], ["capital"])
        sub = expand_one_hop(retrieve_subgraph(keywords, graph, TAU, embed), graph)
        evidence = "\n".join(serialize_subgraph(sub, graph)) or "(no graph evidence retrieved)"
        book.add(templates.render("graph_answer", question=question, evidence=evidence),
                 answer_text)

        web_fixture[question] = {"organic": [
            {"title": f"{country(i)} travel guide",
             "snippet": f"The capital of {country(i)} is {city(i)}.",
             "link": f"https://example.org/{country(i).lower()}", "position": 1},
            {"title": "World capitals list",
             "snippet": f"{city(i)} serves as the seat of government.",
             "link": "https://example.org/capitals", "position": 2},
            {"title": "Southern sea nations",
             "snippet": "A survey of coastal nations.",
             "link": "https://example.org/southern-sea", "position": 3},
        ]}
        results = parse_search_response(web_fixture[question], search_cfg)
        book.add(templates.render("web_answer", question=question,
                                  results="\n".join(format_results(results))),
                 answer_text)

        summary = f"answer {answer_letters[record.id]}"
        book.add(templates.render("summarize", text=answer_text, budget=SUMMARY_BUDGET), summary)

        for subset in subsets:
            cands = [AnswerCandidate(text=answer_text, source=s) for s in subset]
            book.add(templates.render("refine_lightweight", question=question,
                                      answers=format_answers(cands)),
                     answer_text)

    return World(
        n=n, records=records, eval_records=eval_records, book=book,
        captions=captions, web_fixture=web_fixture, index=index, graph=graph,
        templates=templates, answer_letters=answer_letters, answer_texts=answer_texts,
    )
