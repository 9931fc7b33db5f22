"""Numeric kernels behind retrieval scoring and answer-overlap metrics.

The two loops that dominate compute at eval time live here: cosine
similarity of a query vector against every stored embedding (numpy),
and the longest-common-subsequence length used by the consistency
metric (exact integer arithmetic on Python ints). Scoring works in row
blocks of `BLOCK_BYTES`, so its scratch memory does not grow with the
number of rows. ``perfbench/run.py
--trace 1`` times them at fixed sizes against independent references.
"""

from __future__ import annotations

import numpy as np

_SAFE_NORMS = (2.0 ** -500, 2.0 ** 500)  # norms whose squares and pairwise products stay normal
BLOCK_BYTES = 1 << 20  # float64 rows one scoring step holds at once


def block_rows(dim: int) -> int:
    """Rows of `dim` float64 entries that fit in `BLOCK_BYTES`, at least one."""
    return max(1, BLOCK_BYTES // (8 * max(dim, 1)))


def _rescaled(vectors: np.ndarray) -> np.ndarray:
    """Each vector times the power of two that puts its largest absolute entry in [0.5, 1)."""
    return np.ldexp(vectors, -np.frexp(np.abs(vectors).max(axis=-1, keepdims=True))[1])


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(matrix, axis=1)` one block of rows at a time. Each row's
    norm depends on that row alone, so the bits are the same."""
    norms = np.empty(matrix.shape[0], dtype=np.float64)
    step = block_rows(matrix.shape[1])
    for start in range(0, matrix.shape[0], step):
        norms[start:start + step] = np.linalg.norm(matrix[start:start + step], axis=1)
    return norms


def cosine_scores(query, matrix) -> np.ndarray:
    """Cosine similarity of `query` against every row of `matrix`.

    Rows with zero norm score 0.0. A zero query also yields all zeros;
    callers that consider that an error must check beforehand. A vector
    whose norm leaves `_SAFE_NORMS` is rescaled first, so no norm or dot
    product overflows or underflows. With every norm in range, the scores
    are bit-for-bit the unscaled formula's.
    """
    query = np.ascontiguousarray(query, dtype=np.float64)
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if query.ndim != 1 or matrix.ndim != 2:
        raise ValueError("expected a 1-d query and a 2-d matrix")
    if matrix.shape[0] > 0 and matrix.shape[1] != query.shape[0]:
        raise ValueError(
            f"dimension mismatch: query has {query.shape[0]}, matrix rows have {matrix.shape[1]}"
        )
    if matrix.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    if not query.any():
        return np.zeros(matrix.shape[0], dtype=np.float64)
    low, high = _SAFE_NORMS
    with np.errstate(over="ignore", invalid="ignore"):  # out-of-range vectors are redone
        query_norm = float(np.linalg.norm(query))
        if not low <= query_norm <= high:
            query = _rescaled(query)
            query_norm = float(np.linalg.norm(query))
        row_norms = _row_norms(matrix)
        dots = matrix @ query
    unsafe = np.flatnonzero(~((row_norms >= low) & (row_norms <= high)))
    if unsafe.size:
        rows = _rescaled(matrix[unsafe])
        row_norms[unsafe] = np.linalg.norm(rows, axis=1)
        dots[unsafe] = rows @ query
    return np.divide(dots, query_norm * row_norms, out=np.zeros_like(dots), where=row_norms != 0.0)


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of two sequences of hashable items,
    in exact bit-parallel integer arithmetic (Allison and Dix 1986; Hyyrö 2004):
    bit j of `row` is 0 where the DP row steps up at column j of `b`.
    """
    masks: dict = {}
    for j, item in enumerate(b):
        masks[item] = masks.get(item, 0) | (1 << j)
    full = (1 << len(b)) - 1
    row = full
    for item in a:
        matched = row & masks.get(item, 0)
        row = ((row + matched) | (row - matched)) & full
    return len(b) - row.bit_count()
