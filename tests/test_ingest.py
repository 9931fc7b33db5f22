import json
import re

import numpy as np
import pytest

from hmrag.errors import EmbeddingError
from hmrag.gateway import ScriptedCaptionBackend, ScriptedChatBackend
from hmrag.ingest import (
    Chunk,
    CorpusRecord,
    EmbeddingIndex,
    FusedDocument,
    KnowledgeGraph,
    build_index,
    caption_and_refine,
    chunk_document,
    extract_graph,
    load_corpus,
    parse_extraction_response,
)
from hmrag.templates import TemplateSet

from conftest import make_gateway, user_turns


TEMPLATES = TemplateSet()


def refine_turns(caption, text):
    return user_turns(TEMPLATES.render("refine_caption", caption=caption, text=text))


def extract_turns(text):
    return user_turns(TEMPLATES.render("extract_graph", text=text))


def test_corpus_record_needs_text_or_image():
    with pytest.raises(ValueError):
        CorpusRecord("r1")
    CorpusRecord("r2", text="t")
    CorpusRecord("r3", image_ref="img/x.png")


def test_caption_and_refine_concatenates_with_separator(templates):
    caption = ScriptedCaptionBackend({"img/soil.png": "raw soil caption"})
    chat = ScriptedChatBackend().add(
        refine_turns("raw soil caption", "soil facts"), "a diagram of soil layers"
    )
    gateway = make_gateway(chat=chat, caption=caption)
    doc = caption_and_refine(CorpusRecord("d1", "soil facts", "img/soil.png"), gateway, templates)
    assert doc.fused_text == "soil facts\n\na diagram of soil layers"
    assert doc.caption == "a diagram of soil layers"
    assert doc.image_ref == "img/soil.png"


def test_caption_and_refine_without_text_uses_caption_alone(templates):
    caption = ScriptedCaptionBackend({"img/x.png": "raw"})
    chat = ScriptedChatBackend().add(refine_turns("raw", ""), "refined caption")
    gateway = make_gateway(chat=chat, caption=caption)
    doc = caption_and_refine(CorpusRecord("d2", "", "img/x.png"), gateway, templates)
    assert doc.fused_text == "refined caption"


def test_caption_and_refine_without_image_passes_text_through(templates):
    gateway = make_gateway(chat=ScriptedChatBackend())  # any chat call would blow up
    doc = caption_and_refine(CorpusRecord("d3", "x"), gateway, templates)
    assert doc.fused_text == "x"
    assert doc.caption is None


def test_chunk_spans_match_hand_enumeration():
    doc = FusedDocument("d", " ".join(f"t{i}" for i in range(10)))
    chunks = chunk_document(doc, chunk_size=4, overlap=1)
    assert [c.token_span for c in chunks] == [(0, 4), (3, 7), (6, 10)]
    assert chunks[0].text == "t0 t1 t2 t3"
    assert [c.chunk_id for c in chunks] == ["d:0000", "d:0001", "d:0002"]


def test_chunk_short_document_single_window():
    doc = FusedDocument("d", "a b c")
    chunks = chunk_document(doc, chunk_size=4, overlap=1)
    assert [c.token_span for c in chunks] == [(0, 3)]


def test_chunk_rejects_overlap_not_below_size():
    doc = FusedDocument("d", "a b c")
    with pytest.raises(ValueError):
        chunk_document(doc, chunk_size=4, overlap=4)


@pytest.mark.parametrize("n_tokens,size,overlap", [(1, 4, 0), (10, 4, 1), (17, 5, 2), (100, 7, 3)])
def test_chunk_spans_tile_the_document(n_tokens, size, overlap):
    doc = FusedDocument("d", " ".join(f"w{i}" for i in range(n_tokens)))
    chunks = chunk_document(doc, chunk_size=size, overlap=overlap)
    covered = set()
    for c in chunks:
        covered.update(range(*c.token_span))
    assert covered == set(range(n_tokens))


def test_build_index_counts_and_dim(hashing_backend):
    gateway = make_gateway(embedding=hashing_backend)
    chunks = [Chunk(f"c{i}", "d", f"text number {i}", (i, i + 1)) for i in range(3)]
    index = build_index(chunks, gateway)
    assert len(index) == 3
    assert index.dim == 8
    assert index.chunk_ids == ["c0", "c1", "c2"]


def test_build_index_rejects_duplicate_chunk_ids(hashing_backend):
    gateway = make_gateway(embedding=hashing_backend)
    chunks = [Chunk("c0", "d", "a", (0, 1)), Chunk("c0", "d", "b", (1, 2))]
    with pytest.raises(ValueError):
        build_index(chunks, gateway)


@pytest.mark.parametrize("lengths", [(9, 8, 8), (8, 8, 9)], ids=["odd_first", "odd_later"])
def test_build_index_rejects_embedding_length_drift(lengths):
    class DriftingEmbedding:
        """Embedding double whose n-th vector is `lengths[n]` long."""

        def __init__(self):
            self.calls = 0

        def embed(self, text):
            self.calls += 1
            return np.ones(lengths[self.calls - 1])

    gateway = make_gateway(embedding=DriftingEmbedding())
    chunks = [Chunk(f"c{i}", "d", f"text number {i}", (i, i + 1)) for i in range(3)]
    with pytest.raises(EmbeddingError):
        build_index(chunks, gateway)


def test_build_index_rejects_empty_input(hashing_backend):
    with pytest.raises(ValueError):
        build_index([], make_gateway(embedding=hashing_backend))


def test_index_persist_roundtrip_and_rebuild_identical(tmp_path, hashing_backend):
    gateway = make_gateway(embedding=hashing_backend)
    chunks = [Chunk(f"c{i}", "d", f"zeta text {i}", (i, i + 1)) for i in range(4)]
    index = build_index(chunks, gateway)

    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    index.save(path_a)
    loaded = EmbeddingIndex.load(path_a)
    assert loaded == index

    build_index(chunks, make_gateway(embedding=hashing_backend)).save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


@pytest.mark.parametrize("vector", ["[null, 1]", '["1", 2]', "[true, 0]", "[NaN, 1]"])
def test_index_load_rejects_vector_entries_that_are_not_finite_numbers(tmp_path, vector):
    index = EmbeddingIndex(2, ["a", "b", "c"], ["x", "y", "z"], np.eye(3, 2))
    path = tmp_path / "index.jsonl"
    index.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace("[0.0, 1.0]", vector)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad index record at {re.escape(str(path))} line 3"):
        EmbeddingIndex.load(path)


def test_index_load_rejects_an_integer_beyond_float_range(tmp_path):
    path = tmp_path / "index.jsonl"
    path.write_text('{"dim": 2, "count": 1}\n{"chunk_id": "a", "text": "t", "vector": [1%s, 0]}\n'
                    % ("0" * 400), encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad index record in {re.escape(str(path))}"):
        EmbeddingIndex.load(path)



@pytest.mark.parametrize("records, lineno, error", [
    ([{"chunk_id": "a", "text": None}], 2, "chunk_id and text must be strings"),
    ([{"chunk_id": "a", "text": "t"}, {"chunk_id": 1, "text": "t"}], 3,
     "chunk_id and text must be strings"),
    ([{"chunk_id": "a", "text": "t"}, {"chunk_id": "b", "text": "t"}, {"chunk_id": "a", "text": "u"}],
     4, "chunk_id 'a' repeats line 2"),
], ids=["null_text", "int_chunk_id", "duplicate_chunk_id"])
def test_index_load_names_the_line_of_a_bad_id_or_text(tmp_path, records, lineno, error):
    path = tmp_path / "index.jsonl"
    lines = [{"dim": 2, "count": len(records)}] + [dict(r, vector=[1.0, 0.0]) for r in records]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad index record at {re.escape(str(path))} line {lineno}: "
                                         f".*{re.escape(error)}"):
        EmbeddingIndex.load(path)


def test_index_load_names_the_file_of_a_header_without_positive_dim(tmp_path):
    path = tmp_path / "index.jsonl"
    path.write_text(json.dumps({"dim": 0, "count": 0}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} does not start with an index "
                                         "header of positive dim"):
        EmbeddingIndex.load(path)


@pytest.mark.parametrize("header", [
    {"dim": 2.9, "count": True}, {"dim": 2.0, "count": 1}, {"dim": True, "count": 1},
    {"dim": 2, "count": 1.0}, {"dim": "2", "count": 1},
], ids=["float_dim_bool_count", "float_dim", "bool_dim", "float_count", "text_dim"])
def test_index_load_refuses_a_header_count_or_dim_that_is_not_an_integer(tmp_path, header):
    path = tmp_path / "index.jsonl"
    path.write_text(json.dumps(header) + "\n"
                    + json.dumps({"chunk_id": "a", "vector": [1.0, 0.0], "text": "t"}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad index record at {re.escape(str(path))} line 1: "
                                         ".*must be integers"):
        EmbeddingIndex.load(path)


def test_index_load_takes_the_header_from_the_first_non_blank_line(tmp_path):
    index = EmbeddingIndex(2, ["a"], ["t"], np.eye(1, 2))
    path = tmp_path / "index.jsonl"
    index.save(path)
    path.write_text("\n \n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert EmbeddingIndex.load(path) == index


def test_parse_extraction_lines():
    response = "ENTITY|sun|star\nENTITY|earth|planet\nREL|earth|orbits|sun\nnoise line"
    entities, triplets = parse_extraction_response(response)
    assert entities == [("sun", "star"), ("earth", "planet")]
    assert triplets == [("earth", "orbits", "sun")]


def test_extract_graph_builds_entities_and_triplets(templates):
    doc = FusedDocument("d1", "the earth orbits the sun")
    chat = ScriptedChatBackend().add(
        extract_turns(doc.fused_text),
        "ENTITY|sun|star\nENTITY|earth|planet\nREL|earth|orbits|sun",
    )
    graph = extract_graph([doc], make_gateway(chat=chat), templates)
    assert len(graph) == 2
    assert graph.triplet_count == 1
    assert graph.triplets == [("earth", "orbits", "sun")]


def test_extract_graph_deduplicates_entities_across_docs(templates):
    docs = [FusedDocument("d1", "one"), FusedDocument("d2", "two")]
    chat = (
        ScriptedChatBackend()
        .add(extract_turns("one"), "ENTITY|Sun|star")
        .add(extract_turns("two"), "ENTITY|sun|bright star\nREL|sun|lights|Earth")
    )
    graph = extract_graph(docs, make_gateway(chat=chat), templates)
    # case-folded dedup keeps the first spelling and first description
    names = [e.name for e in graph.entities]
    assert names == ["Sun", "Earth"]  # first-seen order
    assert graph.get_entity("sun").name == "Sun"
    assert graph.get_entity("sun").description == "star"


def test_extract_graph_autocreates_undeclared_entity(templates):
    doc = FusedDocument("d1", "moon text")
    chat = ScriptedChatBackend().add(
        extract_turns("moon text"), "ENTITY|earth|planet\nREL|moon|orbits|earth"
    )
    graph = extract_graph([doc], make_gateway(chat=chat), templates)
    assert graph.has_entity("moon")
    assert graph.get_entity("moon").description == ""
    assert all(graph.has_entity(head) and graph.has_entity(tail)
               for head, _, tail in graph.triplets)


def test_extract_graph_skips_unparseable_doc_with_warning(templates):
    docs = [FusedDocument("good", "g"), FusedDocument("bad", "b")]
    chat = (
        ScriptedChatBackend()
        .add(extract_turns("g"), "ENTITY|rock|mineral")
        .add(extract_turns("b"), "total nonsense with no usable lines")
    )
    warnings = []
    graph = extract_graph(docs, make_gateway(chat=chat), templates, warnings)
    assert len(graph) == 1
    assert len(warnings) == 1
    assert "bad" in warnings[0]


def test_extract_graph_attaches_visual_location(templates):
    doc = FusedDocument("d1", "flag text", caption="a flag", image_ref="img/flag.png")
    chat = ScriptedChatBackend().add(
        extract_turns("flag text"), "ENTITY|flag|national symbol"
    )
    graph = extract_graph([doc], make_gateway(chat=chat), templates)
    assert graph.get_entity("flag").visual_location == "img/flag.png"


def test_graph_persist_roundtrip_and_idempotence(tmp_path):
    graph = KnowledgeGraph()
    graph.add_entity("Sun", "star", visual_location="img/sun.png")
    graph.add_entity("Earth", "planet")
    graph.add_triplet("Earth", "orbits", "Sun")
    graph.add_triplet("Earth", "orbits", "Sun")  # duplicate ignored
    assert graph.triplet_count == 1

    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    graph.save(path_a)
    loaded = KnowledgeGraph.load(path_a)
    assert loaded == graph
    loaded.save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_load_corpus_reads_jsonl(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        json.dumps({"id": "a", "text": "hello"}) + "\n"
        + json.dumps({"id": "b", "text": "", "image_ref": "img/b.png"}) + "\n",
        encoding="utf-8",
    )
    records = load_corpus(path)
    assert [r.id for r in records] == ["a", "b"]
    assert records[1].image_ref == "img/b.png"


@pytest.mark.parametrize("line", [
    {"id": "a", "text": "t", "image_ref": 5},
    {"id": "a", "image_ref": ["img/a.png"]},
    {"id": "a", "text": 5},
])
def test_load_corpus_refuses_text_or_image_ref_that_is_not_a_string(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "ok", "text": "fine"}) + "\n" + json.dumps(line) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad corpus record at {re.escape(str(path))} line 2"):
        load_corpus(path)


def test_load_corpus_reports_bad_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(path)


# str.splitlines also splits at these; the stores write them raw inside strings
LINE_SEPARATORS = ["\u2028", "\u2029", "\u0085"]


@pytest.mark.parametrize("separator", LINE_SEPARATORS, ids=["u2028", "u2029", "u0085"])
def test_index_round_trips_a_text_holding_a_unicode_line_separator(tmp_path, separator):
    index = EmbeddingIndex(2, ["a", "b"], [f"one{separator}two", "three"], np.eye(2))
    path = tmp_path / "index.jsonl"
    index.save(path)
    assert separator in path.read_text(encoding="utf-8")
    assert EmbeddingIndex.load(path) == index


@pytest.mark.parametrize("separator", LINE_SEPARATORS, ids=["u2028", "u2029", "u0085"])
def test_graph_round_trips_fields_holding_a_unicode_line_separator(tmp_path, separator):
    graph = KnowledgeGraph()
    graph.add_entity("Sun", f"a{separator}star", visual_location=f"img/{separator}sun.png")
    graph.add_triplet("Earth", "orbits", "Sun")
    path = tmp_path / "graph.jsonl"
    graph.save(path)
    loaded = KnowledgeGraph.load(path)
    assert loaded == graph
    assert loaded.get_entity("sun").visual_location == f"img/{separator}sun.png"


@pytest.mark.parametrize("separator", LINE_SEPARATORS, ids=["u2028", "u2029", "u0085"])
def test_load_corpus_reads_a_text_holding_a_unicode_line_separator(tmp_path, separator):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "a", "text": f"one{separator}two"}, ensure_ascii=False)
                    + "\r\n" + json.dumps({"id": "b", "text": "three"}) + "\n", encoding="utf-8")
    assert [(r.id, r.text) for r in load_corpus(path)] == [("a", f"one{separator}two"),
                                                           ("b", "three")]
