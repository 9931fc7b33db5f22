import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmrag import kernels

from conftest import traced_peak


def lcs_reference(a, b):
    # textbook full-table DP, independent of the shipped kernels
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


seq = st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=20)


@given(seq, seq)
@settings(max_examples=200, deadline=None)
def test_lcs_numpy_matches_reference(a, b):
    arr_a = np.array(a, dtype=np.int64)
    arr_b = np.array(b, dtype=np.int64)
    assert kernels.lcs_length(arr_a, arr_b) == lcs_reference(a, b)


# lengths up to 200 cross the 64- and 128-bit word boundaries of the bit-parallel rows
token_lists = st.integers(0, 200).flatmap(
    lambda n: st.lists(st.sampled_from(["granite", "is", "a", "rock"]), min_size=n, max_size=n))


@given(token_lists, token_lists)
@settings(max_examples=150, deadline=None)
def test_lcs_tokens_match_reference(a, b):
    assert kernels.lcs_length(a, b) == lcs_reference(a, b)


def test_lcs_empty_inputs():
    empty = np.empty(0, dtype=np.int64)
    other = np.array([1, 2], dtype=np.int64)
    assert kernels.lcs_length(empty, other) == 0
    assert kernels.lcs_length(other, empty) == 0


def test_cosine_matches_manual_fixture():
    for scale in (1.0, 1e200, 1e-200):  # no norm or dot product may overflow or underflow
        q = np.array([1.0, 0.0]) * scale
        m = np.array([[1.0, 0.0], [0.0, 1.0], [0.7071, 0.7071]]) * scale
        scores = kernels.cosine_scores(q, m)
        assert scores[0] == pytest.approx(1.0, abs=1e-9)
        assert scores[1] == pytest.approx(0.0, abs=1e-9)
        assert scores[2] == pytest.approx(np.sqrt(0.5), abs=1e-9)


def test_cosine_zero_rows_score_zero():
    q = np.array([1.0, 1.0])
    m = np.array([[0.0, 0.0], [1.0, 1.0]])
    scores = kernels.cosine_scores(q, m)
    assert scores[0] == 0.0
    assert scores[1] == pytest.approx(1.0)


def test_cosine_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        kernels.cosine_scores(np.ones(3), np.ones((2, 8)))


ROWS_PER_BLOCK = kernels.block_rows(64)


@pytest.mark.parametrize("rows", [1, ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1,
                                  5 * ROWS_PER_BLOCK + 3])
def test_blocked_row_norms_equal_one_norm_over_the_matrix(rows):
    matrix = np.random.default_rng(rows).standard_normal((rows, 64))
    matrix[3::7] = 0.0
    matrix[1::11] *= 2.0 ** 600  # norms outside _SAFE_NORMS, up to overflow
    matrix[2::13] *= 2.0 ** -600
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
        assert np.array_equal(kernels._row_norms(matrix), norms)
    # rows in range score bit for bit as the unblocked formula does
    safe = (norms >= kernels._SAFE_NORMS[0]) & (norms <= kernels._SAFE_NORMS[1])
    query = np.random.default_rng(0).standard_normal(64)
    whole = (matrix @ query)[safe] / (np.linalg.norm(query) * norms[safe])
    assert np.array_equal(kernels.cosine_scores(query, matrix)[safe], whole)


@pytest.mark.parametrize("rows", [2_000, 20_000, 100_000])
def test_cosine_scratch_is_one_block_plus_a_few_floats_per_row(rows):
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((rows, 64))
    peak = traced_peak(kernels.cosine_scores, rng.standard_normal(64), matrix)
    assert peak < kernels.BLOCK_BYTES + 48 * rows, peak / matrix.nbytes
