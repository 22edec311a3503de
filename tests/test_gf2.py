"""Bit-packed GF(2) linear algebra against naive per-bit oracles."""

import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qproduct import classical, gf2
from qproduct.gf2 import BitMatrix, GF2Error

from helpers import (ErrorPattern, from_numpy, int_to_bits, pattern_from_columns, row_bits,
                     to_lists, to_numpy, unvec, vec, vector_from_support)

STEANE_H = [[1, 0, 0, 1, 0, 1, 1],
            [0, 1, 0, 1, 1, 0, 1],
            [0, 0, 1, 1, 1, 1, 0]]


def naive_mul(a, b):
    """Per-bit triple-loop product oracle."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc ^= a[i][k] & b[k][j]
            out[i][j] = acc
    return out


def random_matrix(rng, rows, cols):
    return [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]


def test_mul_identity():
    h = BitMatrix.from_rows(STEANE_H)
    assert gf2.mul(BitMatrix.identity(3), h) == h


def test_mul_steane_column():
    h = BitMatrix.from_rows(STEANE_H)
    e4 = vector_from_support([3], 7)
    res = gf2.mul(h, e4.transpose())
    assert to_lists(res) == [[1], [1], [1]]


@pytest.mark.parametrize("seed", range(30))
def test_mul_matches_naive_oracle(seed):
    rng = random.Random(seed)
    r, k, c = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
    a = random_matrix(rng, r, k)
    b = random_matrix(rng, k, c)
    got = gf2.mul(BitMatrix.from_rows(a), BitMatrix.from_rows(b))
    assert to_lists(got) == naive_mul(a, b)


def test_mul_shape_mismatch():
    with pytest.raises(GF2Error, match="5x8.*3x3"):
        gf2.mul(BitMatrix.zeros(5, 8), BitMatrix.zeros(3, 3))


def test_kron_identity_scalar():
    m = BitMatrix.from_rows(STEANE_H)
    assert gf2.kron(BitMatrix.from_rows([[1]]), m) == m


def test_kron_row_weights_multiply():
    a = BitMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, 0]])
    b = BitMatrix.from_rows(STEANE_H)
    k = gf2.kron(a, b)
    assert k.rows == a.rows * b.rows and k.cols == a.cols * b.cols
    expected = [wa * wb for wa in a.row_weights() for wb in b.row_weights()]
    assert k.row_weights() == expected


def test_kron_mixed_product_property():
    rng = random.Random(5)
    a = BitMatrix.from_rows(random_matrix(rng, 2, 3))
    b = BitMatrix.from_rows(random_matrix(rng, 3, 2))
    c = BitMatrix.from_rows(random_matrix(rng, 3, 4))
    d = BitMatrix.from_rows(random_matrix(rng, 2, 3))
    lhs = gf2.mul(gf2.kron(a, b), gf2.kron(c, d))
    rhs = gf2.kron(gf2.mul(a, c), gf2.mul(b, d))
    assert lhs == rhs


def test_rref_zero_matrix():
    red, rank, pivots = gf2.rref(BitMatrix.zeros(3, 5))
    assert red == BitMatrix.zeros(3, 5) and rank == 0 and pivots == []


def test_rref_idempotent_and_rank_transpose():
    rng = random.Random(11)
    for _ in range(25):
        m = BitMatrix.from_rows(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))
        red, r, _ = gf2.rref(m)
        red2, r2, _ = gf2.rref(red)
        assert red2 == red and r2 == r
        assert gf2.rank(m) == gf2.rank(m.transpose())


def test_rank_steane_by_span_enumeration():
    h = BitMatrix.from_rows(STEANE_H)
    span = {0}
    for row in h.row_data:
        span |= {s ^ row for s in span}
    # rank = log2 of the row span size
    assert gf2.rank(h) == (len(span) - 1).bit_length() == 3


def test_nullspace_steane():
    h = BitMatrix.from_rows(STEANE_H)
    ns = gf2.nullspace(h)
    assert ns.rows == 4
    assert gf2.mul(h, ns.transpose()).is_zero()


def test_nullspace_identity_empty():
    ns = gf2.nullspace(BitMatrix.identity(5))
    assert ns.rows == 0 and ns.cols == 5


def test_nullspace_hamming_weights():
    # all 2^4 codewords of the [7,4] Hamming code have weight 0 or >= 3
    from qproduct import classical
    code = classical.hamming(3)
    ns = gf2.nullspace(code.H)
    for mask in range(1, 1 << ns.rows):
        acc = 0
        mm = mask
        while mm:
            low = mm & -mm
            acc ^= ns.row_data[low.bit_length() - 1]
            mm ^= low
        assert acc.bit_count() >= 3


def test_vec_definition():
    m = BitMatrix.from_rows([[1, 0], [0, 1]])
    assert row_bits(vec(m), 0) == [1, 0, 0, 1]


def test_unvec_roundtrip():
    rng = random.Random(3)
    m = BitMatrix.from_rows(random_matrix(rng, 7, 15))
    assert unvec(vec(m), 7, 15) == m


def test_vec_kron_identity_exhaustive_small():
    # (H_C kron H_Q) vec(eps) == vec(H_Q eps H_C^T) for all weight<=2 eps
    rng = random.Random(9)
    hc = BitMatrix.from_rows(random_matrix(rng, 3, 4))
    hq = BitMatrix.from_rows(random_matrix(rng, 2, 3))
    k = gf2.kron(hc, hq)
    cells = hq.cols * hc.cols
    import itertools
    patterns = [0] + [1 << i for i in range(cells)]
    patterns += [(1 << i) | (1 << j) for i, j in itertools.combinations(range(cells), 2)]
    for bits in patterns:
        v = BitMatrix([bits], cells)
        eps = unvec(v, hq.cols, hc.cols)
        lhs = gf2.mul(k, v.transpose()).transpose()
        rhs = vec(gf2.mul(gf2.mul(hq, eps), hc.transpose()))
        assert lhs == rhs


@pytest.mark.parametrize("seed", range(20))
def test_vec_kron_identity_random(seed):
    rng = random.Random(seed)
    nq, lq = rng.randint(1, 6), rng.randint(1, 6)
    hc = BitMatrix.from_rows(random_matrix(rng, rng.randint(1, 5), lq))
    hq = BitMatrix.from_rows(random_matrix(rng, rng.randint(1, 5), nq))
    eps = BitMatrix.from_rows(random_matrix(rng, nq, lq))
    lhs = gf2.mul(gf2.kron(hc, hq), vec(eps).transpose()).transpose()
    rhs = vec(gf2.mul(gf2.mul(hq, eps), hc.transpose()))
    assert lhs == rhs


def test_text_format_roundtrip():
    m = BitMatrix.from_rows(STEANE_H)
    text = gf2.to_text(m)
    assert text.splitlines()[0] == "3 7"
    assert gf2.from_text(text) == m


def test_text_format_rejects_bad_rows():
    with pytest.raises(GF2Error):
        gf2.from_text("2 3\n101\n10\n")
    with pytest.raises(GF2Error):
        gf2.from_text("1 3\n1a1\n")


def test_numpy_roundtrip():
    arr = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    m = from_numpy(arr)
    assert np.array_equal(to_numpy(m), arr)


def test_bitstring_helpers():
    assert gf2.bitstring_to_int("101") == 0b101
    assert gf2.int_to_bitstring(0b101, 3) == "101"
    assert gf2.bits_to_int([0, 1, 1]) == 6
    assert int_to_bits(6, 3) == [0, 1, 1]


def test_hstack_vstack():
    a = BitMatrix.from_rows([[1, 0], [0, 1]])
    b = BitMatrix.from_rows([[1, 1], [0, 0]])
    assert to_lists(a.hstack(b)) == [[1, 0, 1, 1], [0, 1, 0, 0]]
    assert a.vstack(b).rows == 4


def test_zero_sized_matrices_valid():
    z = BitMatrix.zeros(0, 4)
    assert z.rows == 0
    assert z.vstack(BitMatrix.from_rows([[1, 1, 0, 0]])).rows == 1


@st.composite
def matrix_and_indices(draw):
    """A matrix (0xN and Nx0 included) and row/column index lists."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    row_idx = draw(st.lists(st.integers(0, rows - 1), max_size=6)) if rows else []
    col_idx = draw(st.lists(st.integers(0, cols - 1), max_size=6)) if cols else []
    return BitMatrix(data, cols), row_idx, col_idx


@given(matrix_and_indices())
@example((BitMatrix([], 4), [], [3, 0, 3]))
@example((BitMatrix([0b1, 0b0, 0b1], 0), [2, 0], []))
def test_reshapes_match_per_bit_reference(case):
    """vec, unvec, submatrix, ErrorPattern.column and
    pattern_from_columns against the per-bit definitions they reproduce."""
    m, row_idx, col_idx = case
    ref_vec = 0
    for c in range(m.cols):
        for r in range(m.rows):
            ref_vec |= m.get(r, c) << (c * m.rows + r)
    assert vec(m) == BitMatrix([ref_vec], m.rows * m.cols)
    ref_unvec = [0] * m.rows
    for idx in range(m.rows * m.cols):
        ref_unvec[idx % m.rows] |= ((ref_vec >> idx) & 1) << (idx // m.rows)
    assert unvec(vec(m), m.rows, m.cols) == BitMatrix(ref_unvec, m.cols) == m
    assert m.submatrix(row_idx, col_idx) == BitMatrix.from_rows(
        [[m.get(i, j) for j in col_idx] for i in row_idx], len(col_idx))
    ref_cols = [sum(m.get(i, j) << i for i in range(m.rows)) for j in range(m.cols)]
    e = ErrorPattern(m)
    assert list(e.matrix.transpose().row_data) == ref_cols
    assert pattern_from_columns(ref_cols, m.rows, "X") == e


def naive_xor_bits(values, packed):
    """XOR of values[i] over every i whose bit is set, one index at a time."""
    acc = 0
    for i, v in enumerate(values):
        if (packed >> i) & 1:
            acc ^= v
    return acc


@st.composite
def values_and_packed(draw):
    """Values up to 130 bits wide and a packed int over their indices."""
    width = draw(st.integers(1, 130))
    values = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=140))
    return values, draw(st.integers(0, (1 << len(values)) - 1))


@given(values_and_packed())
@example(([], 0))
@example(([5, 7, 9], 0))
@example(([1, 0, 1, 1], 0b1101))
@example(([(1 << 110) - 1, 1 << 64, 3], 0b111))
@example(([1] * 140, (1 << 140) - 1))
def test_xor_bits_matches_naive_loop(case):
    values, packed = case
    assert gf2.xor_bits(values, packed) == naive_xor_bits(values, packed)


BCH1023_SYNDROMES = classical.bch(10, 11).odd_syndromes  # 1,023 entries, 110 bits wide


@given(st.one_of(st.integers(0, (1 << 1023) - 1),
                 st.sets(st.integers(0, 1022), max_size=12).map(
                     lambda supp: sum(1 << i for i in supp))))
@example(0)
@example(1 << 1022)
def test_xor_bits_matches_naive_loop_on_bch1023_syndromes(word):
    assert gf2.xor_bits(BCH1023_SYNDROMES, word) == naive_xor_bits(BCH1023_SYNDROMES, word)
