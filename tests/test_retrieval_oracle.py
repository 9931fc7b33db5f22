"""Differential retrieval oracle at scale.

From a fixed seed and with no model call, this builds an index of about
20 000 rows and a graph of about 20 000 entities and 10 000 triplets, so
that graph scoring spans several row blocks and ends in a ragged one. The
inputs hold on purpose names that share tokens, duplicated rows (exact
ties), zero rows, rows whose norms leave `kernels._SAFE_NORMS`, and rows
built to score within rounding of `tau`.

`top_k_by_vector`, `score_all`, `retrieve_subgraph` and `expand_one_hop`
are compared with references written here: cosine from `math.fsum`, a
full sort by `(-score, chunk_id)` and one pass over every triplet. Ids and
order must agree exactly, except where the reference's score lies within
`EPS` of `tau` or of the k-th score. Those cases are listed (run with `-s`
to see them), and each test checks that they are the ones the inputs build.
"""

import math

import numpy as np
import pytest

from hmrag.config import DEFAULTS
from hmrag.graph_agent import expand_one_hop, make_keyword_set, retrieve_subgraph
from hmrag.ingest import EmbeddingIndex, KnowledgeGraph
from hmrag.vector_agent import score_all, top_k_by_vector

DIM = 64
EPS = 1e-12  # far above the rounding of a 64-term dot product, far below any other score gap
TAU = DEFAULTS["graph.tau"]
K = 10
INDEX_ROWS = 20_000
ENTITIES = 20_000
TRIPLETS = 10_000
HUGE, TINY = 2.0 ** 600, 2.0 ** -600  # scales that push a row's norm out of _SAFE_NORMS


def exact_scale(matrix):
    """Each row times a power of two (exact) that puts its largest entry near 1."""
    return np.ldexp(matrix, -np.frexp(np.abs(matrix).max(axis=-1, keepdims=True))[1])


def fsum_norms(matrix):
    scaled = exact_scale(matrix)
    return [math.sqrt(math.fsum(row)) for row in (scaled * scaled).tolist()]


def fsum_cosine(query, matrix, norms):
    """Reference cosine of `query` against each row; `norms` are `fsum_norms(matrix)`."""
    query = exact_scale(query)
    query_norm = math.sqrt(math.fsum((query * query).tolist()))
    dots = [math.fsum(row) for row in (exact_scale(matrix) * query).tolist()]
    return [dot / (query_norm * norm) if norm else 0.0 for dot, norm in zip(dots, norms)]


def near(scores, threshold, labels):
    return sorted(label for label, score in zip(labels, scores) if abs(score - threshold) <= EPS)


def near_tau_row(rng, keyword):
    """A row whose cosine with `keyword` is TAU up to rounding."""
    unit = keyword / np.linalg.norm(keyword)
    other = rng.standard_normal(DIM)
    other -= (other @ unit) * unit
    return TAU * unit + math.sqrt(1 - TAU * TAU) * other / np.linalg.norm(other)


# --- vector index ----------------------------------------------------------

@pytest.fixture(scope="module")
def index_case():
    rng = np.random.default_rng(30)
    matrix = rng.standard_normal((INDEX_ROWS, DIM))
    matrix[rng.choice(INDEX_ROWS, 50, replace=False)] = 0.0
    matrix[rng.choice(INDEX_ROWS, 30, replace=False)] *= HUGE
    matrix[rng.choice(INDEX_ROWS, 30, replace=False)] *= TINY
    # exact ties: one row copied to four places, and two copies at other scales
    origin = 123
    copies = rng.choice(np.setdiff1d(np.arange(INDEX_ROWS), [origin]), 6, replace=False)
    matrix[copies[:4]] = matrix[origin]
    matrix[copies[4]] = matrix[origin] * HUGE
    matrix[copies[5]] = matrix[origin] * TINY
    ids = [f"c{j:05d}" for j in rng.permutation(INDEX_ROWS)]
    index = EmbeddingIndex(DIM, ids, [f"text {j}" for j in range(INDEX_ROWS)], matrix)
    queries = {  # name: (query, k)
        "duplicated row": (matrix[origin].copy(), K),
        "duplicated row, k-th among its copies": (matrix[origin].copy(), 4),
        "random": (rng.standard_normal(DIM), K),
        "huge random": (rng.standard_normal(DIM) * HUGE, K),
        "tiny random": (rng.standard_normal(DIM) * TINY, K),
    }
    return index, queries, fsum_norms(matrix), {origin, *copies.tolist()}


def test_score_all_and_top_k_match_the_fsum_reference(index_case):
    index, queries, norms, duplicates = index_case
    listed, references = {}, {}
    for name, (query, k) in queries.items():
        if query.tobytes() not in references:
            reference = fsum_cosine(query, index.matrix, norms)
            scored = score_all(query, index)
            assert [s.chunk.chunk_id for s in scored] == index.chunk_ids
            assert max(abs(s.score - r) for s, r in zip(scored, reference)) <= EPS
            references[query.tobytes()] = reference
        reference = references[query.tobytes()]

        order = sorted(range(len(index)), key=lambda i: (-reference[i], index.chunk_ids[i]))
        kth = reference[order[k - 1]]
        boundary = set(near(reference, kth, range(len(index))))
        expected = [index.chunk_ids[i] for i in order[:k] if i not in boundary]
        top = [s.chunk.chunk_id for s in top_k_by_vector(name, query, index, k).top]
        assert [c for c in top if index.chunk_ids.index(c) not in boundary] == expected, name
        assert len(top) == k
        listed[name] = sorted(index.chunk_ids[i] for i in boundary)
    print("\nrows within EPS of the k-th score:", listed)
    # only the exact ties the index was built with sit on a k-th score other than its own
    tied = listed.pop("duplicated row, k-th among its copies")
    assert tied == sorted(index.chunk_ids[i] for i in duplicates)
    assert all(len(ids) == 1 for ids in listed.values())


# --- knowledge graph --------------------------------------------------------

@pytest.fixture(scope="module")
def graph_case():
    rng = np.random.default_rng(31)
    tokens = rng.standard_normal((300, DIM))

    def phrases(count, vocabulary, noise):
        """`count` names of two distinct tokens from `vocabulary`, with their vectors."""
        first = rng.integers(len(vocabulary), size=count)
        second = (first + rng.integers(1, len(vocabulary), size=count)) % len(vocabulary)
        first, second = vocabulary[first], vocabulary[second]
        matrix = tokens[first] + tokens[second] + noise * rng.standard_normal((count, DIM))
        return [f"w{a:03d} w{b:03d}" for a, b in zip(first, second)], list(matrix)

    local = ["w001 w002", "w003"]
    global_ = ["w250 w251", "w260"]
    vectors = {k: tokens[[int(t[1:]) for t in k.split()]].sum(axis=0) for k in local + global_}

    names, rows = phrases(ENTITIES, np.arange(200), 0.8)
    names = [f"{name} e{i}" for i, name in enumerate(names)]
    # entities built to score TAU against the first local keyword, one of them
    # in the ragged last block of 2048-row blocks
    near_names = [names[i] for i in (5, 2047, 2048, 9000, ENTITIES - 1)]
    for i in (5, 2047, 2048, 9000, ENTITIES - 1):
        rows[i] = near_tau_row(rng, vectors[local[0]])
    for i in range(0, ENTITIES, 997):
        rows[i] = np.zeros(DIM)
    for i in range(1, ENTITIES, 1009):
        rows[i] = rows[i] * (HUGE if i % 2 else TINY)
    # the first local keyword's own direction, at two scales: an exact tie
    rows[7] = vectors[local[0]] * HUGE
    rows[8] = vectors[local[0]].copy()
    vectors.update(zip(names, rows))
    graph = KnowledgeGraph()
    for name in names:
        graph.add_entity(name)

    relation_names, relation_rows = phrases(150, np.arange(200, 300), 0.3)
    vectors.update(zip(relation_names, relation_rows))
    near_relation = "near tau relation"
    vectors[near_relation] = near_tau_row(rng, vectors[global_[0]])
    vectors["zero relation"] = np.zeros(DIM)
    heads = rng.integers(ENTITIES, size=2 * TRIPLETS)
    tails = (heads + rng.integers(1, ENTITIES, size=2 * TRIPLETS)) % ENTITIES
    picks = rng.integers(len(relation_names), size=2 * TRIPLETS)
    for n, (head, tail, pick) in enumerate(zip(heads, tails, picks)):
        if graph.triplet_count == TRIPLETS:
            break
        relation = ("near tau relation" if n % 1500 == 7 else
                    "zero relation" if n % 2500 == 11 else relation_names[pick])
        graph.add_triplet(names[head], relation, names[tail])
    return graph, vectors, local, global_, near_names, near_relation


def reference_subgraph(graph, seeds, relation_hit):
    """Entity-incident triplets first, then relation matches, in one pass each."""
    incident = [t for t in graph.triplets if t[0] in seeds or t[2] in seeds]
    return tuple(dict.fromkeys(incident + [t for t in graph.triplets if relation_hit(t)]))


def test_graph_spans_several_blocks_with_a_ragged_last_one(graph_case):
    graph = graph_case[0]
    step = 2048  # rows of DIM float64 entries in a 1 MiB scoring block
    for rows in (len(graph), graph.triplet_count):
        assert rows // step >= 4 and rows % step


def test_retrieve_subgraph_and_expand_match_the_reference(graph_case):
    graph, vectors, local, global_, near_names, near_relation = graph_case
    keywords = make_keyword_set(local, global_)
    sub = retrieve_subgraph(keywords, graph, TAU, vectors.__getitem__)

    names = [e.name for e in graph.entities]
    matrix = np.array([vectors[name] for name in names])
    norms = fsum_norms(matrix)
    entity_scores = [max(pair) for pair in
                     zip(*(fsum_cosine(vectors[k], matrix, norms) for k in local))]
    relation_names = sorted({t[1] for t in graph.triplets})
    relation_matrix = np.array([vectors[r] for r in relation_names])
    relation_norms = fsum_norms(relation_matrix)
    relation_score = dict(zip(relation_names, (max(pair) for pair in zip(
        *(fsum_cosine(vectors[k], relation_matrix, relation_norms) for k in global_)))))

    near_entities = set(near(entity_scores, TAU, names))
    near_relations = set(near(relation_score.values(), TAU, relation_score))
    print("\nentities within EPS of tau:", sorted(near_entities))
    print("relations within EPS of tau:", sorted(near_relations))
    assert near_entities == set(near_names)
    assert near_relations == {near_relation}

    reference_seeds = {n for n, s in zip(names, entity_scores) if s > TAU}
    assert sub.seed_entities ^ reference_seeds <= near_entities
    assert len(reference_seeds) > 100

    # a near-tau relation's triplets go whichever way the code put them
    def relation_hit(triplet):
        if triplet[1] in near_relations:
            return triplet in sub.triplets
        return relation_score[triplet[1]] > TAU

    expected = reference_subgraph(graph, sub.seed_entities, relation_hit)
    assert sub.triplets == expected
    assert sum(relation_score[t[1]] > TAU and t[1] not in near_relations
               for t in expected) > 100
    assert sub.expanded_entities == sub.seed_entities | {x for t in expected for x in (t[0], t[2])}

    expanded = expand_one_hop(sub, graph)
    base = sub.expanded_entities
    entities, triplets = set(base), dict.fromkeys(sub.triplets)
    for head, relation, tail in graph.triplets:
        if head in base or tail in base:
            entities.update((head, tail))
            triplets.setdefault((head, relation, tail), None)
    assert expanded.triplets == tuple(triplets)
    assert expanded.expanded_entities == entities
    assert expanded.seed_entities == sub.seed_entities
