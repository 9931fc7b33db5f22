"""Numeric kernels behind retrieval scoring and answer-overlap metrics.

The two loops that dominate compute at eval time live here: cosine
similarity of a query vector against every stored embedding, and the
longest-common-subsequence table used by the consistency metric. Both
are plain numpy; ``perfbench/run.py --trace 1`` times them at fixed
sizes against independent references.
"""

from __future__ import annotations

import numpy as np


def cosine_scores(query, matrix) -> np.ndarray:
    """Cosine similarity of `query` against every row of `matrix`.

    Rows with zero norm score 0.0. A zero-norm query also yields all
    zeros; callers that consider that an error must check beforehand.
    """
    query = np.ascontiguousarray(query, dtype=np.float64)
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if query.ndim != 1 or matrix.ndim != 2:
        raise ValueError("expected a 1-d query and a 2-d matrix")
    if matrix.shape[0] > 0 and matrix.shape[1] != query.shape[0]:
        raise ValueError(
            f"dimension mismatch: query has {query.shape[0]}, matrix rows have {matrix.shape[1]}"
        )
    query_norm = float(np.linalg.norm(query))
    if matrix.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    if query_norm == 0.0:
        return np.zeros(matrix.shape[0], dtype=np.float64)
    row_norms = np.linalg.norm(matrix, axis=1)
    dots = matrix @ query
    safe = np.where(row_norms == 0.0, 1.0, row_norms)
    scores = dots / (query_norm * safe)
    scores[row_norms == 0.0] = 0.0
    return scores


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of two id sequences.

    A row-vectorized DP sweep: each DP row is non-decreasing, so the
    running maximum absorbs the within-row dependency.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return 0
    prev = np.zeros(b.size + 1, dtype=np.int64)
    for token in a:
        candidate = np.maximum(prev[1:], prev[:-1] + (b == token))
        prev = np.concatenate(([0], np.maximum.accumulate(candidate)))
    return int(prev[-1])
