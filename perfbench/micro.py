"""Fixed-size timings of the kernels, vector top-k and index persistence.

Each timing calls the public dispatching function, whichever kernel path
it takes, and checks the result against a plain reference computed here.
Inputs are seeded, so every run times the same work.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

import hmrag
import hmrag.kernels

DIM = 64
ROWS = {"1k": 1_000, "20k": 20_000, "100k": 100_000}
LCS_LENGTHS = (64, 256, 1024)
TOP_K = 5


def _median_ms(fn, repeat: int) -> tuple[float, object]:
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times), result


def _cosine_reference(query, matrix):
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    return np.where(norms == 0.0, 0.0, matrix @ query / (safe * np.linalg.norm(query)))


def _lcs_reference(a, b) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b):
            row.append(prev[j] + 1 if x == y else max(prev[j + 1], row[j]))
        prev = row
    return prev[-1]


def run(seed: int, scratch: Path) -> tuple[dict, list[str]]:
    """The micro metrics and a list of mismatches against the references.

    ``scratch`` is an empty directory the index round trip may write to.
    """
    kernels = hmrag.kernels
    top_k_by_vector = hmrag.vector_agent.top_k_by_vector
    rng = np.random.default_rng(seed)
    metrics: dict[str, float] = {}
    errors: list[str] = []
    query = rng.standard_normal(DIM)
    for label, rows in ROWS.items():
        matrix = rng.standard_normal((rows, DIM))
        repeat = 3 if rows >= 100_000 else 7
        ms, scores = _median_ms(lambda: kernels.cosine_scores(query, matrix), repeat)
        metrics[f"kernels.cosine_scores.rows_{label}_ms"] = ms
        reference = _cosine_reference(query, matrix)
        if not np.allclose(scores, reference, rtol=1e-9, atol=1e-12):
            errors.append(f"cosine_scores differs from the reference at {rows} rows")

        ids = [f"c{i:06d}" for i in range(rows)]
        index = hmrag.EmbeddingIndex(DIM, ids, ["text"] * rows, matrix)
        ms, result = _median_ms(lambda: top_k_by_vector("query", query, index, TOP_K), repeat)
        metrics[f"vector_agent.top_k.rows_{label}_ms"] = ms
        expected = [ids[i] for i in np.lexsort((np.arange(rows), -reference))[:TOP_K]]
        if [s.chunk.chunk_id for s in result.top] != expected:
            errors.append(f"top_k_by_vector differs from the reference at {rows} rows")

    for length in LCS_LENGTHS:
        a = rng.integers(0, 40, length)
        b = rng.integers(0, 40, length)
        ms, got = _median_ms(lambda: kernels.lcs_length(a, b), 5)
        metrics[f"kernels.lcs_length.len_{length}_ms"] = ms
        if got != _lcs_reference(a.tolist(), b.tolist()):
            errors.append(f"lcs_length differs from the reference at length {length}")

    rows = ROWS["100k"]
    index = hmrag.EmbeddingIndex(DIM, [f"c{i:06d}" for i in range(rows)], ["text"] * rows,
                                 rng.standard_normal((rows, DIM)))
    path = scratch / "micro-index.jsonl"
    started = time.perf_counter()
    index.save(path)
    metrics["ingest.index_save.rows_100k_s"] = time.perf_counter() - started
    started = time.perf_counter()
    loaded = hmrag.EmbeddingIndex.load(path)
    metrics["ingest.index_load.rows_100k_s"] = time.perf_counter() - started
    if loaded != index:
        errors.append("EmbeddingIndex load does not return the saved index")
    return metrics, errors
