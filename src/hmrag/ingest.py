"""Builds the two knowledge stores from a multimodal corpus.

Records carrying images get a caption that is refined against the
record's own text, then text and caption are fused into one document.
Fused documents feed an exact-search embedding index (token-window
chunks) and an entity/relation knowledge graph extracted by prompting
a chat model for a line-delimited triplet format.

Persistence is JSON-lines throughout and deterministic: rebuilding from
an identical corpus with scripted backends yields byte-identical files.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError, trace_warning
from .templates import TemplateSet

FUSION_SEPARATOR = "\n\n"


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    text: str = ""
    image_ref: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("corpus record needs an id")
        if not isinstance(self.text, str) or not isinstance(self.image_ref, (str, type(None))):
            raise ValueError(f"record {self.id!r}: text and image_ref must be strings")
        if not self.text and not self.image_ref:
            raise ValueError(f"record {self.id!r} has neither text nor image_ref")


@dataclass(frozen=True)
class FusedDocument:
    id: str
    fused_text: str
    caption: str | None = None
    image_ref: str | None = None

    def __post_init__(self):
        if not self.fused_text:
            raise ValueError(f"document {self.id!r} has empty fused_text")


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    text: str
    token_span: tuple[int, int]

    def __post_init__(self):
        start, end = self.token_span
        if end <= start:
            raise ValueError(f"chunk {self.chunk_id!r} has empty span {self.token_span}")
        if not self.text:
            raise ValueError(f"chunk {self.chunk_id!r} has empty text")


IndexRecord = namedtuple("IndexRecord", ["chunk_id", "text"])


def check_embedding(vector, dim: int) -> np.ndarray:
    """`vector` as float64; EmbeddingError unless its shape is `(dim,)`."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (dim,):
        raise EmbeddingError(f"embedding has shape {vector.shape}, expected ({dim},)")
    return vector


def check_vector_entries(values) -> list:
    """`values` if a non-empty list of int or float entries, else TypeError: numpy would
    read None as NaN and "1" or True as 1.0. Callers then check their float array is finite."""
    if type(values) is not list or not values or not set(map(type, values)) <= {int, float}:
        raise TypeError(f"vector is not a non-empty list of numbers: {values!r:.80}")
    return values


class EmbeddingIndex:
    """Immutable exact-search index: one (chunk_id, vector, text) per chunk."""

    def __init__(self, dim: int, chunk_ids: list[str], texts: list[str], matrix: np.ndarray):
        if dim < 1:
            raise ValueError("dim must be positive")
        if len(chunk_ids) != len(texts) or matrix.shape != (len(chunk_ids), dim):
            raise ValueError("index shape mismatch")
        if len(set(chunk_ids)) != len(chunk_ids):
            raise ValueError("chunk_ids must be unique")
        self.dim = dim
        self.chunk_ids = list(chunk_ids)
        self.texts = list(texts)
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float64)

    def __len__(self):
        return len(self.chunk_ids)

    def __eq__(self, other):
        if not isinstance(other, EmbeddingIndex):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.chunk_ids == other.chunk_ids
            and self.texts == other.texts
            and self.matrix.shape == other.matrix.shape
            and bool(np.all(self.matrix == other.matrix))
        )

    def record(self, i: int) -> IndexRecord:
        return IndexRecord(self.chunk_ids[i], self.texts[i])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            _write_line(fh, {"dim": self.dim, "count": len(self)})
            for chunk_id, row, text in zip(self.chunk_ids, self.matrix, self.texts):
                _write_line(fh, {"chunk_id": chunk_id, "vector": row.tolist(), "text": text})

    @classmethod
    def load(cls, path) -> "EmbeddingIndex":
        first_line_of = {}  # chunk_id -> the line that holds it
        header_read = False

        def parse(lineno, rec):
            nonlocal header_read
            if not header_read:  # the first non-blank line
                header_read = True
                dim, count = rec["dim"], rec["count"]
                if type(dim) is not int or type(count) is not int:  # a bool is no count
                    raise TypeError(f"header dim and count must be integers: {dim!r}, {count!r}")
                return dim, count
            chunk_id, text = rec["chunk_id"], rec["text"]
            if type(chunk_id) is not str or type(text) is not str:
                raise TypeError("chunk_id and text must be strings")
            if first_line_of.setdefault(chunk_id, lineno) != lineno:
                raise ValueError(f"chunk_id {chunk_id!r} repeats line {first_line_of[chunk_id]}")
            return chunk_id, text, check_vector_entries(rec["vector"]), lineno

        lines = _read_jsonl(path, "index record", parse)
        if not lines or lines[0][0] < 1:
            raise ValueError(f"{path} does not start with an index header of positive dim")
        (dim, count), records = lines[0], lines[1:]
        chunk_ids, texts, rows, linenos = zip(*records) if records else ((), (), (), ())
        for row, lineno in zip(rows, linenos):
            if len(row) != dim:
                raise ValueError(f"bad index record at {path} line {lineno}: "
                                 f"vector has {len(row)} entries, header dim is {dim}")
        if len(records) != count:
            raise ValueError(f"{path}: index header says {count} records, file has {len(records)}")
        try:
            matrix = np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)
        except OverflowError as exc:
            raise ValueError(f"bad index record in {path}: {exc}") from exc
        nonfinite = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
        if nonfinite.size:
            raise ValueError(
                f"bad index record at {path} line {linenos[nonfinite[0]]}: non-finite entry")
        return cls(dim, list(chunk_ids), list(texts), matrix)


@dataclass
class Entity:
    name: str
    description: str = ""
    visual_location: str | None = None


class KnowledgeGraph:
    """Entities plus (head, relation, tail) triplets.

    Entity names are deduplicated case-insensitively; the first-seen
    spelling is kept as canonical. Triplets referencing an undeclared
    entity auto-create it with an empty description, since extraction
    output is noisy by nature. Entities and triplets keep the order they
    were first added, which `save` writes and `load` restores, and
    equality compares in that order.
    """

    def __init__(self):
        self._entities: dict[str, Entity] = {}  # casefolded name -> Entity
        self._triplets: dict[tuple[str, str, str], tuple[str, str, str]] = {}

    def __len__(self):
        return len(self._entities)

    def __eq__(self, other):
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self.entities == other.entities and self.triplets == other.triplets

    @property
    def entities(self) -> list[Entity]:
        return list(self._entities.values())

    @property
    def triplets(self) -> list[tuple[str, str, str]]:
        return list(self._triplets.values())

    @property
    def triplet_count(self) -> int:
        return len(self._triplets)

    def has_entity(self, name: str) -> bool:
        return name.casefold() in self._entities

    def get_entity(self, name: str) -> Entity:
        return self._entities[name.casefold()]

    def add_entity(self, name: str, description: str = "", visual_location: str | None = None) -> Entity:
        if not name or not name.strip():
            raise ValueError("entity name must be non-empty")
        key = name.casefold()
        entity = self._entities.get(key)
        if entity is None:
            entity = Entity(name, description, visual_location)
            self._entities[key] = entity
        else:
            if not entity.description and description:
                entity.description = description
            if entity.visual_location is None and visual_location is not None:
                entity.visual_location = visual_location
        return entity

    def add_triplet(self, head: str, relation: str, tail: str) -> None:
        relation = relation.strip()
        if not head or not relation or not tail:
            raise ValueError("triplet fields must be non-empty")
        head_entity = self.add_entity(head)
        tail_entity = self.add_entity(tail)
        key = (head_entity.name.casefold(), relation.casefold(), tail_entity.name.casefold())
        if key in self._triplets:
            return
        self._triplets[key] = (head_entity.name, relation, tail_entity.name)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entity in self._entities.values():
                _write_line(fh, {"kind": "entity", "name": entity.name,
                                 "description": entity.description,
                                 "visual_location": entity.visual_location})
            for head, relation, tail in self._triplets.values():
                _write_line(fh, {"kind": "triplet", "head": head, "relation": relation,
                                 "tail": tail})

    @classmethod
    def load(cls, path) -> "KnowledgeGraph":
        graph = cls()

        def add(lineno, rec):
            if rec["kind"] == "entity":
                graph.add_entity(rec["name"], rec.get("description", ""), rec.get("visual_location"))
            elif rec["kind"] == "triplet":
                graph.add_triplet(rec["head"], rec["relation"], rec["tail"])
            else:
                raise ValueError(f"unknown graph record kind {rec['kind']!r}")

        _read_jsonl(path, "graph record", add)
        return graph


def _write_line(fh, record: dict) -> None:
    fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _read_jsonl(path, what: str, parse) -> list:
    """`parse(lineno, record)` for each non-blank JSON line of `path`, in order. A
    line that fails to parse is a ValueError naming the file and the line.

    The file is read as a stream and split only at line ends: the stores write
    U+2028, U+2029 and U+0085 raw inside strings, where `str.splitlines` would
    split too."""
    parsed = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    parsed.append(parse(lineno, json.loads(line)))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise ValueError(f"bad {what} at {path} line {lineno}: {exc!r}") from exc
    return parsed


def load_corpus(path) -> list[CorpusRecord]:
    return _read_jsonl(path, "corpus record", lambda lineno, raw: CorpusRecord(
        raw["id"], raw.get("text", "") or "", raw.get("image_ref")))


def caption_and_refine(record: CorpusRecord, gateway, templates: TemplateSet) -> FusedDocument:
    """Fuse a record's text with a context-refined image caption; an empty image_ref is none."""
    if not record.image_ref:
        return FusedDocument(record.id, record.text, caption=None, image_ref=None)
    raw_caption = gateway.caption_image(record.image_ref)
    prompt = templates.render("refine_caption", caption=raw_caption, text=record.text)
    refined = gateway.complete_chat(prompt, role="lightweight_chat")
    fused = record.text + FUSION_SEPARATOR + refined if record.text else refined
    return FusedDocument(record.id, fused, caption=refined, image_ref=record.image_ref)


def chunk_document(doc: FusedDocument, chunk_size: int = 512, overlap: int = 64) -> list[Chunk]:
    """Whitespace-token windows with stride chunk_size - overlap.

    The last window may be short; together the spans cover every token
    at least once.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if not 0 <= overlap < chunk_size:
        raise ValueError(f"overlap must satisfy 0 <= overlap < chunk_size, got {overlap}")
    tokens = doc.fused_text.split()
    if not tokens:
        raise ValueError(f"document {doc.id!r} has no tokens")
    stride = chunk_size - overlap
    chunks = []
    start = 0
    while True:
        end = min(start + chunk_size, len(tokens))
        chunks.append(Chunk(
            chunk_id=f"{doc.id}:{len(chunks):04d}",
            doc_id=doc.id,
            text=" ".join(tokens[start:end]),
            token_span=(start, end),
        ))
        if end == len(tokens):
            return chunks
        start += stride


def build_index(chunks: list[Chunk], gateway) -> EmbeddingIndex:
    if not chunks:
        raise ValueError("cannot build an index from zero chunks")
    ids = [c.chunk_id for c in chunks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate chunk_id in chunk list")
    vectors = [gateway.embed_text(chunk.text) for chunk in chunks]
    # the first row's length is the index dimension every row must have
    matrix = np.vstack([check_embedding(v, np.size(vectors[0])) for v in vectors])
    return EmbeddingIndex(matrix.shape[1], ids, [c.text for c in chunks], matrix)


def parse_extraction_response(response: str) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
    """Parse ENTITY|name|description and REL|head|relation|tail lines.

    Lines matching neither form are ignored; callers treat a response
    with no parseable lines as an unparseable document.
    """
    entities, triplets = [], []
    for line in response.splitlines():
        parts = [p.strip() for p in line.strip().split("|")]
        tag = parts[0].upper() if parts and parts[0] else ""
        if tag == "ENTITY" and len(parts) >= 3 and parts[1]:
            entities.append((parts[1], parts[2]))
        elif tag == "REL" and len(parts) >= 4 and parts[1] and parts[2] and parts[3]:
            triplets.append((parts[1], parts[2], parts[3]))
    return entities, triplets


def extract_graph(docs: list[FusedDocument], gateway, templates: TemplateSet,
                  warnings: list[str] | None = None) -> KnowledgeGraph:
    """One extraction chat call per document, merged into a single graph."""
    if not docs:
        raise ValueError("cannot extract a graph from zero documents")
    graph = KnowledgeGraph()
    for doc in docs:
        prompt = templates.render("extract_graph", text=doc.fused_text)
        response = gateway.complete_chat(prompt)
        entities, triplets = parse_extraction_response(response)
        if not entities and not triplets:
            trace_warning(warnings,
                          f"extraction produced no parseable lines for document {doc.id!r}; skipped")
            continue
        for name, description in entities:
            graph.add_entity(name, description, visual_location=doc.image_ref)
        for head, relation, tail in triplets:
            graph.add_triplet(head, relation, tail)
    return graph
