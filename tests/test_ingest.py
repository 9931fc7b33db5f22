import base64
import json
import re
import threading
import tracemalloc

import numpy as np
import pytest

import hmrag.gateway as gateway_mod
from hmrag.config import DEFAULTS
from hmrag.errors import EmbeddingError
from hmrag.gateway import HashingEmbeddingBackend, ScriptedCaptionBackend, ScriptedChatBackend
from hmrag.ingest import (
    Chunk,
    CorpusRecord,
    EmbeddingIndex,
    KnowledgeGraph,
    build_index,
    build_stores,
    caption_and_refine,
    chunk_document,
    extract_graph,
    load_corpus,
    parse_extraction_response,
)
from hmrag.templates import TemplateSet

from conftest import DEEP_JSON, make_gateway, user_turns


TEMPLATES = TemplateSet()


def refine_turns(caption, text):
    return user_turns(TEMPLATES.render("refine_caption", caption=caption, text=text))


def extract_turns(text):
    return user_turns(TEMPLATES.render("extract_graph", text=text))


def test_corpus_record_needs_text_or_image():
    for blank in ("", " ", "\n\t", "\u3000"):  # text that is only whitespace is no text
        with pytest.raises(ValueError, match="'r1' has neither text nor image_ref"):
            CorpusRecord("r1", blank)
    CorpusRecord("r2", text="t")
    CorpusRecord("r3", image_ref="img/x.png")
    CorpusRecord("r4", text=" ", image_ref="img/x.png")


def test_caption_and_refine_concatenates_with_separator(templates):
    caption = ScriptedCaptionBackend({"img/soil.png": "raw soil caption"})
    chat = ScriptedChatBackend().add(
        refine_turns("raw soil caption", "soil facts"), "a diagram of soil layers"
    )
    gateway = make_gateway(chat=chat, caption=caption)
    doc = caption_and_refine(CorpusRecord("d1", "soil facts", "img/soil.png"), gateway, templates)
    assert doc == CorpusRecord("d1", "soil facts\n\na diagram of soil layers", "img/soil.png")


def test_caption_and_refine_without_text_uses_caption_alone(templates):
    caption = ScriptedCaptionBackend({"img/x.png": "raw"})
    chat = ScriptedChatBackend().add(refine_turns("raw", ""), "refined caption")
    gateway = make_gateway(chat=chat, caption=caption)
    doc = caption_and_refine(CorpusRecord("d2", "", "img/x.png"), gateway, templates)
    assert doc == CorpusRecord("d2", "refined caption", "img/x.png")


def test_caption_and_refine_without_image_passes_text_through(templates):
    gateway = make_gateway(chat=ScriptedChatBackend())  # any chat call would blow up
    for image_ref in (None, ""):  # an empty image_ref is none
        doc = caption_and_refine(CorpusRecord("d3", "x", image_ref), gateway, templates)
        assert doc == CorpusRecord("d3", "x")  # image_ref None, not ""


def test_chunk_spans_match_hand_enumeration():
    doc = CorpusRecord("d", " ".join(f"t{i}" for i in range(10)))
    chunks = chunk_document(doc, chunk_size=4, overlap=1)
    assert chunks == [("d:0000", "t0 t1 t2 t3"), ("d:0001", "t3 t4 t5 t6"),
                      ("d:0002", "t6 t7 t8 t9")]


def test_chunk_short_document_single_window():
    doc = CorpusRecord("d", "a\n\nb  c")
    chunks = chunk_document(doc, chunk_size=4, overlap=1)
    assert chunks == [("d:0000", "a b c")]


def test_chunk_rejects_overlap_not_below_size():
    doc = CorpusRecord("d", "a b c")
    with pytest.raises(ValueError):
        chunk_document(doc, chunk_size=4, overlap=4)


@pytest.mark.parametrize("n_tokens,size,overlap", [(1, 4, 0), (10, 4, 1), (17, 5, 2), (100, 7, 3)])
def test_chunk_spans_tile_the_document(n_tokens, size, overlap):
    doc = CorpusRecord("d", " ".join(f"w{i}" for i in range(n_tokens)))
    chunks = chunk_document(doc, chunk_size=size, overlap=overlap)
    covered = set()
    for c in chunks:
        words = [int(token[1:]) for token in c.text.split(" ")]
        assert 0 < len(words) <= size
        assert words == list(range(words[0], words[0] + len(words)))  # one unbroken window
        covered.update(words)
    assert covered == set(range(n_tokens))


def test_build_stores_checks_chunking_before_any_model_call(templates):
    gateway = make_gateway(chat=ScriptedChatBackend(), caption=ScriptedCaptionBackend({}))
    records = [CorpusRecord("d1", "words", "img/x.png")]  # its caption call would fail
    with pytest.raises(ValueError, match="overlap must satisfy 0 <= overlap < chunk_size, got 4"):
        build_stores(records, gateway, templates, 4, 4)


def test_build_index_counts_and_dim(hashing_backend):
    gateway = make_gateway(embedding=hashing_backend)
    chunks = [Chunk(f"c{i}", f"text number {i}") for i in range(3)]
    index = build_index(chunks, gateway)
    assert len(index) == 3
    assert index.dim == 8
    assert index.chunk_ids == ["c0", "c1", "c2"]


def test_build_index_rejects_duplicate_chunk_ids(hashing_backend):
    gateway = make_gateway(embedding=hashing_backend)
    chunks = [Chunk("c0", "a"), Chunk("c0", "b")]
    with pytest.raises(ValueError):
        build_index(chunks, gateway)


@pytest.mark.parametrize("lengths", [(9, 8, 8), (8, 8, 9)], ids=["odd_first", "odd_later"])
def test_build_index_rejects_embedding_length_drift(lengths):
    class DriftingEmbedding:
        """Embedding double whose vector for "text number n" is `lengths[n]` long,
        whatever order the chunks are embedded in."""

        def embed(self, text):
            return np.ones(lengths[int(text.split()[-1])])

    gateway = make_gateway(embedding=DriftingEmbedding())
    chunks = [Chunk(f"c{i}", f"text number {i}") for i in range(3)]
    with pytest.raises(EmbeddingError):
        build_index(chunks, gateway)


def test_build_index_rejects_empty_input(hashing_backend):
    with pytest.raises(ValueError):
        build_index([], make_gateway(embedding=hashing_backend))


def test_index_persist_roundtrip_and_rebuild_identical(tmp_path, hashing_backend):
    gateway = make_gateway(embedding=hashing_backend)
    chunks = [Chunk(f"c{i}", f"zeta text {i}") for i in range(4)]
    index = build_index(chunks, gateway)

    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    index.save(path_a)
    loaded = EmbeddingIndex.load(path_a)
    assert loaded == index

    build_index(chunks, make_gateway(embedding=hashing_backend)).save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def write_index_lines(path, dim, vectors):
    """An index file of `dim` holding one line per vector, each given as its JSON text."""
    lines = [json.dumps({"dim": dim, "count": len(vectors)})]
    lines += ['{"chunk_id": "c%d", "vector": %s, "text": "t"}' % (i, vector)
              for i, vector in enumerate(vectors)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def b64_vector(*entries):
    return json.dumps(base64.b64encode(np.array(entries, "<f8").tobytes()).decode("ascii"))


@pytest.mark.parametrize("vector", ["[null, 1]", '["1", 2]', "[true, 0]", "[NaN, 1]"])
def test_index_load_rejects_vector_entries_that_are_not_finite_numbers(tmp_path, vector):
    path = tmp_path / "index.jsonl"
    write_index_lines(path, 2, ["[1.0, 0.0]", vector, "[0.0, 0.0]"])
    with pytest.raises(ValueError, match=f"bad index record at {re.escape(str(path))} line 3"):
        EmbeddingIndex.load(path)


@pytest.mark.parametrize("vector", [
    # 1.0, 0.0 with a character outside the alphabet, which a lax decoder would skip
    '"AAAA!AAAA8D8AAAAAAAAAAA=="', '"AAAA AAAA8D8AAAAAAAAAAA=="', '"\u00e9AAAAAAA8D8AAAAAAAAAAA=="',
    b64_vector(1.0), b64_vector(1.0, 0.0, 0.0),
    b64_vector(float("nan"), 1.0), b64_vector(1.0, float("-inf")), "5", "null",
], ids=["bang", "space", "non_ascii", "dim_minus_1", "dim_plus_1", "nan", "inf", "number", "null"])
def test_index_load_rejects_a_base64_vector_that_is_not_dim_finite_floats(tmp_path, vector):
    path = tmp_path / "index.jsonl"
    write_index_lines(path, 2, [b64_vector(1.0, 0.0), vector])
    with pytest.raises(ValueError, match=f"bad index record at {re.escape(str(path))} line 3"):
        EmbeddingIndex.load(path)


def test_index_saves_each_vector_as_base64_little_endian_float64(tmp_path):
    path = tmp_path / "index.jsonl"
    EmbeddingIndex(2, ["a"], ["t"], np.array([[1.0, -2.5]])).save(path)
    record = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
    assert record == {"chunk_id": "a", "vector": json.loads(b64_vector(1.0, -2.5)), "text": "t"}
    assert base64.b64decode(record["vector"]) == bytes.fromhex("000000000000f03f00000000000004c0")


def test_index_load_reads_a_store_whose_vectors_are_lists(tmp_path):
    matrix = np.array([[0.1, -2.0], [1e-300, 3.0], [0.0, 0.0]])
    path = tmp_path / "index.jsonl"
    write_index_lines(path, 2, [json.dumps(row.tolist()) for row in matrix])
    assert EmbeddingIndex.load(path) == EmbeddingIndex(2, ["c0", "c1", "c2"], ["t"] * 3, matrix)


def test_index_save_load_save_is_byte_identical_and_bit_exact(tmp_path):
    big = np.finfo(np.float64).max
    matrix = np.array([[-0.0, 5e-324, big], [-big, 0.1, 1 / 3], [0.0, 0.0, 0.0]])
    index = EmbeddingIndex(3, ["a", "b", "z"], ["x", "y", "z"], matrix)
    path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    index.save(path_a)
    loaded = EmbeddingIndex.load(path_a)
    assert loaded.matrix.tobytes() == matrix.tobytes()  # == alone would equate -0.0 and 0.0
    assert loaded.chunk_ids == index.chunk_ids and loaded.texts == index.texts
    loaded.save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_index_refuses_a_non_finite_matrix_so_ingest_writes_no_store_that_cannot_load():
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingIndex(2, ["a", "b"], ["t", "u"], np.array([[np.nan, 0.0], [1.0, np.inf]]))

    class NaNEmbedding:
        def embed(self, text):
            return np.array([1.0, np.nan])

    with pytest.raises(ValueError, match="non-finite"):  # raised before `hmrag ingest` saves
        build_index([Chunk("c0", "a")], make_gateway(embedding=NaNEmbedding()))


def test_index_load_rejects_an_integer_beyond_float_range(tmp_path):
    path = tmp_path / "index.jsonl"
    path.write_text('{"dim": 2, "count": 1}\n{"chunk_id": "a", "text": "t", "vector": [1%s, 0]}\n'
                    % ("0" * 400), encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad index record at {re.escape(str(path))} line 2: "
                                         "OverflowError"):
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


@pytest.mark.parametrize("count", [0, 3])
def test_index_load_refuses_a_header_count_that_is_not_its_number_of_rows(tmp_path, count):
    path = tmp_path / "index.jsonl"
    path.write_text(json.dumps({"dim": 2, "count": count}) + "\n"
                    + json.dumps({"chunk_id": "a", "vector": [1.0, 0.0], "text": "t"}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: index header says {count} "
                                         "records, file has 1$"):
        EmbeddingIndex.load(path)


def test_index_load_takes_the_header_from_the_first_non_blank_line(tmp_path):
    index = EmbeddingIndex(2, ["a"], ["t"], np.eye(1, 2))
    path = tmp_path / "index.jsonl"
    index.save(path)
    path.write_text("\n \n" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert EmbeddingIndex.load(path) == index


def load_with_peak_memory(path):
    """The index at `path` and the peak of traced allocations while it loads."""
    tracemalloc.start()
    try:
        return EmbeddingIndex.load(path), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_index_load_peak_memory_stays_below_two_matrices(tmp_path):
    matrix = np.random.default_rng(0).standard_normal((5000, 64))
    index = EmbeddingIndex(64, [f"c{i}" for i in range(5000)], [f"text {i}" for i in range(5000)],
                           matrix)
    path = tmp_path / "index.jsonl"
    index.save(path)
    loaded, peak = load_with_peak_memory(path)
    assert loaded == index
    assert peak < 2 * matrix.nbytes, peak / matrix.nbytes


def test_index_load_peak_memory_stays_below_four_matrices(tmp_path):
    """The same bound as before for a store whose vectors are JSON lists."""
    matrix = np.random.default_rng(0).standard_normal((5000, 64))
    path = tmp_path / "index.jsonl"
    write_index_lines(path, 64, [json.dumps(row.tolist()) for row in matrix])
    loaded, peak = load_with_peak_memory(path)
    assert loaded.matrix.tobytes() == matrix.tobytes()
    assert peak < 4 * matrix.nbytes, peak / matrix.nbytes


def test_parse_extraction_lines():
    response = ("ENTITY|sun|star\nENTITY|earth|planet\nREL|earth|orbits|sun\nnoise line\n"
                "ENTITY|Paris|capital of France | home of the Louvre \nREL|moon|orbits|earth|extra")
    entities, triplets = parse_extraction_response(response)
    # a description runs to the end of its line; a relation's extra field is dropped
    assert entities == [("sun", "star"), ("earth", "planet"),
                        ("Paris", "capital of France | home of the Louvre")]
    assert triplets == [("earth", "orbits", "sun"), ("moon", "orbits", "earth")]


def test_extract_graph_builds_entities_and_triplets(templates):
    doc = CorpusRecord("d1", "the earth orbits the sun")
    chat = ScriptedChatBackend().add(
        extract_turns(doc.text),
        "ENTITY|sun|star\nENTITY|earth|planet\nREL|earth|orbits|sun",
    )
    graph = extract_graph([doc], make_gateway(chat=chat), templates)
    assert len(graph) == 2
    assert graph.triplet_count == 1
    assert graph.triplets == [("earth", "orbits", "sun")]


def test_extract_graph_deduplicates_entities_across_docs(templates):
    docs = [CorpusRecord("d1", "one"), CorpusRecord("d2", "two")]
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
    doc = CorpusRecord("d1", "moon text")
    chat = ScriptedChatBackend().add(
        extract_turns("moon text"), "ENTITY|earth|planet\nREL|moon|orbits|earth"
    )
    graph = extract_graph([doc], make_gateway(chat=chat), templates)
    assert graph.has_entity("moon")
    assert graph.get_entity("moon").description == ""
    assert all(graph.has_entity(head) and graph.has_entity(tail)
               for head, _, tail in graph.triplets)


def test_extract_graph_skips_unparseable_doc_with_warning(templates):
    docs = [CorpusRecord("good", "g"), CorpusRecord("bad", "b")]
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
    doc = CorpusRecord("d1", "flag text", image_ref="img/flag.png")
    chat = ScriptedChatBackend().add(
        extract_turns("flag text"), "ENTITY|flag|national symbol"
    )
    graph = extract_graph([doc], make_gateway(chat=chat), templates)
    assert graph.get_entity("flag").visual_location == "img/flag.png"


def test_extract_graph_gives_a_text_first_entity_its_first_image(templates):
    docs = [CorpusRecord("d1", "one"), CorpusRecord("d2", "two", image_ref="img/a.png"),
            CorpusRecord("d3", "three", image_ref="img/b.png")]
    chat = (
        ScriptedChatBackend()
        .add(extract_turns("one"), "ENTITY|flag|symbol")
        .add(extract_turns("two"), "ENTITY|Flag|banner")
        .add(extract_turns("three"), "ENTITY|FLAG|cloth")
    )
    graph = extract_graph(docs, make_gateway(chat=chat), templates)
    assert [(e.name, e.description, e.visual_location) for e in graph.entities] == [
        ("flag", "symbol", "img/a.png")]


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


@pytest.mark.parametrize("record, error", [
    ({"kind": "entity", "name": "Paris", "description": 7}, "TypeError"),
    ({"kind": "entity", "name": "Paris", "description": {"a": [1, 2]}}, "TypeError"),
    ({"kind": "entity", "name": "Paris", "description": "", "visual_location": 7}, "TypeError"),
    ({"kind": "entity", "name": "Paris", "visual_location": {"a": [1, 2]}}, "TypeError"),
    ({"kind": "node", "name": "Paris"}, "ValueError"),
], ids=["number_description", "object_description", "number_visual_location",
        "object_visual_location", "unknown_kind"])
def test_graph_load_names_the_file_and_line_of_a_bad_record(tmp_path, record, error):
    path = tmp_path / "graph.jsonl"
    graph = KnowledgeGraph()
    graph.add_entity("Sun", "star", visual_location="img/sun.png")
    graph.save(path)
    path.write_text(path.read_text(encoding="utf-8") + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^bad graph record at {re.escape(str(path))} line 2: "
                                         f"{error}") as exc_info:
        KnowledgeGraph.load(path)
    assert type(exc_info.value.__cause__).__name__ == error


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
    {"id": 5, "text": "t"},
    {"id": ["a"], "text": "t"},
])
def test_load_corpus_refuses_text_or_image_ref_that_is_not_a_string(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "ok", "text": "fine"}) + "\n" + json.dumps(line) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad corpus record at {re.escape(str(path))} line 2"):
        load_corpus(path)


def test_load_corpus_refuses_a_blank_text_record_without_image_naming_its_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "a", "text": "t"}) + "\n"
                    + json.dumps({"id": "b", "text": " \n\t ", "image_ref": ""}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad corpus record at {re.escape(str(path))} line 2: "
                                         ".*'b' has neither text"):
        load_corpus(path)


def test_load_corpus_refuses_a_repeated_id_naming_both_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps({"id": i, "text": "t"}) + "\n" for i in ("a", "b", "a")),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} line 3: .*'a' repeats "
                                         "the id of line 1"):
        load_corpus(path)


def test_load_corpus_reports_bad_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_corpus(path)


def _write_store(kind, path):
    """A good one-record store of `kind` at `path`, as `load` reads it."""
    if kind == "corpus":
        path.write_text(json.dumps({"id": "a", "text": "x"}) + "\n", encoding="utf-8")
    elif kind == "index":
        EmbeddingIndex(2, ["a"], ["x"], np.eye(1, 2)).save(path)
    else:
        graph = KnowledgeGraph()
        graph.add_entity("Sun", "star")
        graph.save(path)
    return {"corpus": load_corpus, "index": EmbeddingIndex.load, "graph": KnowledgeGraph.load}[kind]


@pytest.mark.parametrize("bad_line, error", [
    (DEEP_JSON.encode("utf-8"), "JSON nested too deeply to decode"),
    (b'{"id": "b", "text": "caf\xe9"}', "'utf-8' codec can't decode byte 0xe9 in position 24"),
], ids=["nested_too_deeply", "not_utf8"])
@pytest.mark.parametrize("kind", ["corpus", "index", "graph"])
def test_a_line_that_cannot_be_decoded_names_its_file_and_line(tmp_path, kind, bad_line, error):
    path = tmp_path / f"{kind}.jsonl"
    load = _write_store(kind, path)
    good = path.read_bytes()
    lineno = good.count(b"\n") + 1
    path.write_bytes(good + bad_line + b"\n")
    with pytest.raises(ValueError, match=f"bad {kind} record at {re.escape(str(path))} "
                                         f"line {lineno}: .*{error}"):
        load(path)


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


# per-document model calls run concurrently; the stores and warnings keep document order

def numbered_docs(n):
    """`n` one-chunk documents; every fourth one's extraction response has no parseable line."""
    docs = [CorpusRecord(f"d{i:02d}", f"document number {i}") for i in range(n)]
    responses = {
        TEMPLATES.render("extract_graph", text=doc.text):
            "no usable lines" if i % 4 == 3 else
            f"ENTITY|{'Node' if i % 2 else 'node'}{i % 5}|seen in {doc.id}\n"
            f"REL|node{i % 5}|precedes|Node{(i + 1) % 5}"
        for i, doc in enumerate(docs)}
    return docs, responses


class ReverseFirstWave:
    """Holds the first `wave` requests, one per slice, until all of them are in
    flight, then lets them answer from the highest key down; later requests pass
    straight through. `held` lists the keys held, `answered` every key in the
    order it answered."""

    def __init__(self, wave):
        self.wave = wave
        self.answered = []
        self.held = []
        self._cond = threading.Condition()

    def answer(self, key, respond):
        with self._cond:
            if len(self.held) < self.wave:
                self.held.append(key)
                self._cond.notify_all()
                assert self._cond.wait_for(lambda: len(self.held) == self.wave and all(
                    k in self.answered for k in self.held if k > key), timeout=10)
        value = respond()
        with self._cond:
            self.answered.append(key)
            self._cond.notify_all()
        return value


def test_stores_and_warnings_keep_document_order_when_later_documents_answer_first(
        tmp_path, monkeypatch):
    docs, responses = numbered_docs(20)
    index_of = {prompt: i for i, prompt in enumerate(responses)}
    embedding = HashingEmbeddingBackend(dim=8, seed=7)
    chat_order = ReverseFirstWave(gateway_mod.MAX_SLICES)
    embed_order = ReverseFirstWave(gateway_mod.MAX_SLICES)

    class ReorderedChat:
        def complete(self, turns, params):
            prompt = turns[0].content
            return chat_order.answer(index_of[prompt], lambda: responses[prompt])

    class ReorderedEmbedding:
        def embed(self, text):
            return embed_order.answer(int(text.split()[-1]), lambda: embedding.embed(text))

    def ingest(gateway, out):
        warnings = []
        out.mkdir()
        index, graph = build_stores(docs, gateway, TEMPLATES, DEFAULTS["chunking.size"],
                                    DEFAULTS["chunking.overlap"], warnings)
        index.save(out / "index.jsonl")
        graph.save(out / "graph.jsonl")
        return warnings

    warnings = ingest(make_gateway(chat=ReorderedChat(), embedding=ReorderedEmbedding()),
                      tmp_path / "concurrent")
    for order in (chat_order, embed_order):
        assert [key for key in order.answered if key in order.held] == sorted(order.held)[::-1]
    monkeypatch.setattr(gateway_mod, "MAX_SLICES", 1)  # one slice: a serial loop
    chat = ScriptedChatBackend()
    for prompt, response in responses.items():
        chat.add(user_turns(prompt), response)
    assert ingest(make_gateway(chat=chat, embedding=embedding), tmp_path / "serial") == warnings == [
        f"extraction produced no parseable lines for document 'd{i:02d}'; skipped"
        for i in range(3, 20, 4)]
    for name in ("index.jsonl", "graph.jsonl"):
        assert (tmp_path / "concurrent" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_extraction_keeps_more_than_one_and_at_most_max_slices_requests_in_flight():
    docs, responses = numbered_docs(20)
    cond = threading.Condition()
    in_flight, peak, held = 0, 0, 0

    class CountingChat:
        """Holds the first MAX_SLICES requests until that many are in flight."""

        def complete(self, turns, params):
            nonlocal in_flight, peak, held
            with cond:
                in_flight += 1
                peak = max(peak, in_flight)
                cond.notify_all()
                if held < gateway_mod.MAX_SLICES:
                    held += 1
                    assert cond.wait_for(lambda: peak >= gateway_mod.MAX_SLICES, timeout=10)
                in_flight -= 1
            return responses[turns[0].content]

    extract_graph(docs, make_gateway(chat=CountingChat()), TEMPLATES, [])
    assert 1 < peak <= gateway_mod.MAX_SLICES == 8


def test_extract_graph_raises_the_earliest_failure_and_starts_no_document_after_one(
        monkeypatch):
    """Every slice starts one document and waits there. Two of those documents fail,
    the later one first: the error raised is the earlier one's, and no slice starts
    another document once a slice has ended in a failure."""
    docs, responses = numbered_docs(20)
    index_of = {prompt: i for i, prompt in enumerate(responses)}
    slice_failed = threading.Event()
    run_in_threads = gateway_mod.run_in_threads

    def watched(calls, timeout=None):
        def watch(call):
            try:
                return call()
            except RuntimeError:
                slice_failed.set()
                raise
        return run_in_threads([lambda call=call: watch(call) for call in calls], timeout)

    monkeypatch.setattr(gateway_mod, "run_in_threads", watched)
    started = []  # (document, whether a slice had already failed when it started)
    wave = threading.Barrier(gateway_mod.MAX_SLICES, timeout=10)
    lock = threading.Lock()

    class FailingChat:
        def complete(self, turns, params):
            doc = index_of[turns[0].content]
            with lock:
                started.append((doc, slice_failed.is_set()))
            wave.wait()
            heads = sorted(d for d, _ in started[:gateway_mod.MAX_SLICES])
            if doc != heads[5]:  # heads[5] fails at once; the rest wait for its failure
                assert slice_failed.wait(10)
            if doc in (heads[3], heads[5]):
                raise RuntimeError(f"document {doc} failed")
            return responses[turns[0].content]

    with pytest.raises(RuntimeError) as failure:
        extract_graph(docs, make_gateway(chat=FailingChat()), TEMPLATES, [])
    heads = sorted(doc for doc, _ in started)
    assert str(failure.value) == f"document {heads[3]} failed"
    assert len(started) == gateway_mod.MAX_SLICES
    assert not any(after_failure for _, after_failure in started)
