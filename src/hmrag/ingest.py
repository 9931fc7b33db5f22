"""Builds the two knowledge stores from a multimodal corpus.

Records carrying images get a caption that is refined against the
record's own text, then text and caption are fused into the record's
text. The fused records feed an exact-search embedding index
(token-window chunks) and an entity/relation knowledge graph extracted
by prompting a chat model for a line-delimited triplet format;
`build_stores` is that whole pass.

Persistence is JSON-lines throughout and deterministic: rebuilding from
an identical corpus with scripted backends yields byte-identical files.
An index line holds its vector as the base64 text of its little-endian
float64 bytes, so a round trip is bit-exact.
"""

from __future__ import annotations

import base64
import json
import logging
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError, trace_warning
from .gateway import check_vector_entries, map_in_threads, parse_json
from .templates import TemplateSet

logger = logging.getLogger(__name__)

FUSION_SEPARATOR = "\n\n"


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    text: str = ""
    image_ref: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"corpus record needs a non-empty string id, got {self.id!r}")
        if not isinstance(self.text, str) or not isinstance(self.image_ref, (str, type(None))):
            raise ValueError(f"record {self.id!r}: text and image_ref must be strings")
        if not self.text.strip() and not self.image_ref:  # blank text is no text
            raise ValueError(f"record {self.id!r} has neither text nor image_ref")


# one window of a document's tokens; also what a ranking returns for an index row
Chunk = namedtuple("Chunk", ["chunk_id", "text"])


def check_embedding(vector, dim: int) -> np.ndarray:
    """`vector` as float64; EmbeddingError unless its shape is `(dim,)`."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (dim,):
        raise EmbeddingError(f"embedding has shape {vector.shape}, expected ({dim},)")
    return vector


class EmbeddingIndex:
    """Immutable exact-search index: one (chunk_id, vector, text) per chunk.

    `id_rank[i]` is the place of `chunk_ids[i]` in ascending order, the
    tie-break of every ranking. Every entry must be finite, so that what
    saves also loads. Zero rows, which score 0 against any query, are
    logged once, here.
    """

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
        if not np.isfinite(self.matrix).all():
            raise ValueError("index matrix has a non-finite entry")
        self.id_rank = np.empty(len(chunk_ids), dtype=np.int64)
        self.id_rank[np.argsort(np.array(chunk_ids, dtype=object))] = np.arange(len(chunk_ids))
        zero_rows = int(np.count_nonzero(~self.matrix.any(axis=1)))
        if zero_rows:
            logger.warning("%d zero-norm index records will score 0", zero_rows)

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

    def record(self, i: int) -> Chunk:
        return Chunk(self.chunk_ids[i], self.texts[i])

    def save(self, path) -> None:
        """One header line, then per row `{"chunk_id", "vector", "text"}` with `vector` the
        base64 text of the row's little-endian float64 bytes."""
        with open(path, "w", encoding="utf-8") as fh:
            _write_line(fh, {"dim": self.dim, "count": len(self)})
            rows = self.matrix.astype("<f8", copy=False)
            for chunk_id, row, text in zip(self.chunk_ids, rows, self.texts):
                vector = base64.b64encode(row.tobytes()).decode("ascii")
                _write_line(fh, {"chunk_id": chunk_id, "vector": vector, "text": text})

    @classmethod
    def load(cls, path) -> "EmbeddingIndex":
        """The index `save` wrote; a `vector` that is a list of numbers, as older
        versions wrote it, loads too."""
        first_line_of = {}  # chunk_id -> the line that holds it, in file order
        texts = []
        rows = bytearray()  # every row's float64 bytes, in file order: one copy of the matrix
        dim = count = None  # from the header, the first non-blank line

        def parse(lineno, rec):
            nonlocal dim, count
            if dim is None:
                dim, count = rec["dim"], rec["count"]
                if type(dim) is not int or type(count) is not int:  # a bool is no count
                    raise TypeError(f"header dim and count must be integers: {dim!r}, {count!r}")
                return
            chunk_id, text, vector = rec["chunk_id"], rec["text"], rec["vector"]
            if type(chunk_id) is not str or type(text) is not str:
                raise TypeError("chunk_id and text must be strings")
            if first_line_of.setdefault(chunk_id, lineno) != lineno:
                raise ValueError(f"chunk_id {chunk_id!r} repeats line {first_line_of[chunk_id]}")
            if type(vector) is str:
                row = base64.b64decode(vector, validate=True)
                if len(row) != 8 * dim:
                    raise ValueError(f"vector has {len(row)} bytes, header dim {dim} needs {8 * dim}")
                if not np.isfinite(np.frombuffer(row, "<f8")).all():
                    raise ValueError("vector has a non-finite entry")
            else:
                entries = check_vector_entries(vector)
                if len(entries) != dim:
                    raise ValueError(f"vector has {len(entries)} entries, header dim is {dim}")
                row = entries.astype("<f8", copy=False).tobytes()
            texts.append(text)
            rows.extend(row)

        _read_jsonl(path, "index record", parse)
        if dim is None or dim < 1:
            raise ValueError(f"{path} does not start with an index header of positive dim")
        if len(texts) != count:
            raise ValueError(f"{path}: index header says {count} records, file has {len(texts)}")
        matrix = np.frombuffer(rows, "<f8").reshape(len(texts), dim)
        return cls(dim, list(first_line_of), texts, matrix)


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
        if not isinstance(description, str) or not isinstance(visual_location, (str, type(None))):
            raise TypeError(f"entity description must be text and visual location text or null, "
                            f"got {description!r:.80} and {visual_location!r:.80}")
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

    The file is read as a byte stream and split only at b"\n": the stores write
    U+2028, U+2029 and U+0085 raw inside strings, where `str.splitlines` would
    split too. Each line is decoded in its own handler, so a line that is not
    UTF-8 is reported like any other bad line."""
    parsed = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    parsed.append(parse(lineno, parse_json(line)))
            except UnicodeDecodeError as exc:  # its repr would hold the whole line
                raise ValueError(f"bad {what} at {path} line {lineno}: {exc}") from exc
            except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
                raise ValueError(f"bad {what} at {path} line {lineno}: {exc!r}") from exc
    return parsed


def load_corpus(path) -> list[CorpusRecord]:
    """The corpus records of `path`; a repeated id is refused at its second line."""
    first_lines: dict[str, int] = {}

    def parse(lineno, raw):
        record = CorpusRecord(raw["id"], raw.get("text", "") or "", raw.get("image_ref"))
        first = first_lines.setdefault(record.id, lineno)
        if first != lineno:
            raise ValueError(f"id {record.id!r} repeats the id of line {first}")
        return record
    return _read_jsonl(path, "corpus record", parse)


def caption_and_refine(record: CorpusRecord, gateway, templates: TemplateSet) -> CorpusRecord:
    """The record with its refined image caption fused into its text; an empty image_ref is none."""
    if not record.image_ref:
        return CorpusRecord(record.id, record.text)
    raw_caption = gateway.caption_image(record.image_ref)
    prompt = templates.render("refine_caption", caption=raw_caption, text=record.text)
    refined = gateway.complete_chat(prompt, role="lightweight_chat")
    fused = record.text + FUSION_SEPARATOR + refined if record.text else refined
    return CorpusRecord(record.id, fused, record.image_ref)


def check_chunking(chunk_size: int, overlap: int) -> None:
    """ValueError unless windows of `chunk_size` tokens can overlap by `overlap`."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if not 0 <= overlap < chunk_size:
        raise ValueError(f"overlap must satisfy 0 <= overlap < chunk_size, got {overlap}")


def chunk_document(doc: CorpusRecord, chunk_size: int, overlap: int) -> list[Chunk]:
    """Whitespace-token windows with stride chunk_size - overlap.

    The last window may be short; together the windows cover every token
    at least once.
    """
    check_chunking(chunk_size, overlap)
    tokens = doc.text.split()
    if not tokens:
        raise ValueError(f"document {doc.id!r} has no tokens")
    stride = chunk_size - overlap
    chunks = []
    start = 0
    while True:
        end = min(start + chunk_size, len(tokens))
        chunks.append(Chunk(f"{doc.id}:{len(chunks):04d}", " ".join(tokens[start:end])))
        if end == len(tokens):
            return chunks
        start += stride


def build_index(chunks: list[Chunk], gateway) -> EmbeddingIndex:
    if not chunks:
        raise ValueError("cannot build an index from zero chunks")
    ids = [c.chunk_id for c in chunks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate chunk_id in chunk list")
    matrix = None  # allocated once, at the length of the first embedding to arrive
    allocate = threading.Lock()

    def embed_row(i):
        nonlocal matrix
        vector = gateway.embed_text(chunks[i].text)
        with allocate:
            if matrix is None:
                matrix = np.empty((len(chunks), np.size(vector)))
        matrix[i] = check_embedding(vector, matrix.shape[1])  # every row has one length

    map_in_threads(embed_row, range(len(chunks)))
    return EmbeddingIndex(matrix.shape[1], ids, [c.text for c in chunks], matrix)


def parse_extraction_response(response: str) -> tuple[list[tuple[str, str]], list[tuple[str, str, str]]]:
    """Parse ENTITY|name|description and REL|head|relation|tail lines.

    A description is the rest of its line, so it may hold `|` itself.
    Lines matching neither form are ignored; callers treat a response
    with no parseable lines as an unparseable document.
    """
    entities, triplets = [], []
    for line in response.splitlines():
        tag = line.split("|", 1)[0].strip().upper()
        parts = [p.strip() for p in line.split("|", 2 if tag == "ENTITY" else -1)]
        if tag == "ENTITY" and len(parts) >= 3 and parts[1]:
            entities.append((parts[1], parts[2]))
        elif tag == "REL" and len(parts) >= 4 and parts[1] and parts[2] and parts[3]:
            triplets.append((parts[1], parts[2], parts[3]))
    return entities, triplets


def extract_graph(docs: list[CorpusRecord], gateway, templates: TemplateSet,
                  warnings: list[str] | None = None) -> KnowledgeGraph:
    """One extraction chat call per document, made concurrently; the responses
    are merged into a single graph in document order."""
    if not docs:
        raise ValueError("cannot extract a graph from zero documents")
    responses = map_in_threads(
        lambda doc: gateway.complete_chat(templates.render("extract_graph", text=doc.text)),
        docs)
    graph = KnowledgeGraph()
    for doc, response in zip(docs, responses):
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


def build_stores(records: list[CorpusRecord], gateway, templates: TemplateSet, chunk_size: int,
                 overlap: int, warnings: list[str] | None = None,
                 ) -> tuple[EmbeddingIndex, KnowledgeGraph]:
    """The embedding index and knowledge graph of `records`: each record captioned,
    then chunked and embedded, and its graph extracted. The chunking settings are
    checked before the first model call. A document whose captioned text is blank
    is skipped with a warning."""
    check_chunking(chunk_size, overlap)
    docs = []
    for doc in map_in_threads(lambda record: caption_and_refine(record, gateway, templates),
                              records):
        if doc.text.strip():
            docs.append(doc)
        else:
            trace_warning(warnings, f"refined caption of document {doc.id!r} is blank; skipped")
    chunks = [chunk for doc in docs for chunk in chunk_document(doc, chunk_size, overlap)]
    return build_index(chunks, gateway), extract_graph(docs, gateway, templates, warnings)
