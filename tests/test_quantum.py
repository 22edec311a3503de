"""CSS code constructors, syndromes, normalizers, coset tables."""

import collections
import itertools
import random

import pytest

from qproduct import classical, gf2, quantum
from qproduct.gf2 import BitMatrix, GF2Error
from qproduct.quantum import PauliOp, pauli_from_string

from helpers import q_syndrome, row_bits, stabilizer_span, to_lists


ALL_CODES = [quantum.rep3, quantum.steane, quantum.color17, quantum.golay_css]


@pytest.mark.parametrize("ctor", ALL_CODES)
def test_css_validity_and_rank(ctor):
    q = ctor()
    if q.hx.rows and q.hz.rows:
        assert gf2.mul(q.hx, q.hz.transpose()).is_zero()
    if q.kind == "rep3":
        assert gf2.rank(q.hz) == q.n - q.k
    else:
        assert gf2.rank(q.hx) + gf2.rank(q.hz) == q.n - q.k


def test_rep3_matrices():
    q = quantum.rep3()
    assert to_lists(q.hz) == [[1, 1, 0], [1, 0, 1]]
    assert q.hx.rows == 0


def test_steane_first_row():
    q = quantum.steane()
    assert row_bits(q.hx, 0) == [1, 0, 0, 1, 0, 1, 1]
    assert q.hx == q.hz


def test_color17_row_weights():
    q = quantum.color17()
    weights = q.hx.row_weights()
    assert sorted(weights) == [4] * 7 + [8]
    assert q.hx.rows == 8 and q.hx.cols == 17


def test_golay_css_parameters():
    q = quantum.golay_css()
    assert (q.n, q.k, q.d) == (23, 1, 7)
    assert q.hx.rows == 11  # 2*12 - 23 = 1 logical qubit


@pytest.mark.parametrize("ctor", ALL_CODES)
def test_distance_by_bounded_weight_search(ctor):
    """No nondetectable same-type pattern of weight < d exists, and one of
    weight exactly d does (kernel of the check minus the stabilizer span)."""
    q = ctor()
    check = q.check_matrix("X")
    stab = stabilizer_span(q, "X")
    col_syn = [gf2.bits_to_int([check.get(i, j) for i in range(check.rows)])
               for j in range(q.n)]
    limit = min(q.d, 4)  # golay's weight-7 witness is checked via its logical
    for w in range(1, limit):
        for supp in itertools.combinations(range(q.n), w):
            syn = 0
            pat = 0
            for i in supp:
                syn ^= col_syn[i]
                pat |= 1 << i
            assert not (syn == 0 and pat not in stab)
    logical = quantum.logical_matrix(q, "X")
    coset_min = min((row ^ s).bit_count()
                    for row in logical.row_data for s in stab)
    assert coset_min == q.d


@pytest.mark.parametrize("error_type", ["X", "Z"])
@pytest.mark.parametrize("ctor", ALL_CODES)
def test_class_check_kernel_is_the_stabilizer_span(ctor, error_type):
    """class_check maps a same-type pattern to 0 iff the enumerated span
    holds it: every vector up to n = 17; on golay every span element, every
    span element times the logical, and 200,000 random vectors."""
    q = ctor()
    cols = q.class_check(error_type).transpose().row_data
    span = stabilizer_span(q, error_type)
    if q.n <= 17:
        vectors = range(1 << q.n)
    else:
        logical = quantum.logical_matrix(q, error_type).row_data[0]
        rng = random.Random(f"golay-{error_type}")
        vectors = ([*span] + [s ^ logical for s in span]
                   + [rng.getrandbits(q.n) for _ in range(200_000)])
    assert [v for v in vectors if (gf2.xor_bits(cols, v) == 0) != (v in span)] == []


def test_q_syndrome_identity_zero():
    q = quantum.steane()
    sx, sz = q_syndrome(q, PauliOp(n=7))
    assert sx.is_zero() and sz.is_zero()


def test_q_syndrome_steane_x6():
    q = quantum.steane()
    sx, _ = q_syndrome(q, pauli_from_string("X6", 7))
    assert row_bits(sx, 0) == [1, 0, 1]


def test_q_syndrome_color17_x1x3_row_reduced():
    q = quantum.color17()
    red, r, _ = gf2.rref(q.check_matrix("X"))
    rr = BitMatrix(red.row_data[:r], red.cols)
    e = pauli_from_string("X1X3", 17)
    syn = gf2.mul(rr, BitMatrix([e.x], 17).transpose()).transpose()
    assert "".join(map(str, row_bits(syn, 0))) == "10100000"


def test_q_syndrome_length_mismatch():
    with pytest.raises(GF2Error, match="length"):
        q_syndrome(quantum.steane(), PauliOp(n=5))


def test_weight_le_t_detectable():
    for ctor in ALL_CODES:
        q = ctor()
        check = q.check_matrix("X")
        for supp in itertools.combinations(range(q.n), 1):
            v = BitMatrix([sum(1 << i for i in supp)], q.n)
            assert not gf2.mul(check, v.transpose()).is_zero()


def test_steane_normalizer_includes_table_generators():
    q = quantum.steane()
    gens = {g.x for g in quantum.normalizer_generators(q, "X")}
    for row in q.hx.row_data:
        assert row in gens
    # the weight-3 generator X2X3X5 commutes with the code yet is not a
    # stabilizer, and differs from the recorded logical by a stabilizer
    op = pauli_from_string("X2X3X5", 7)
    sx, sz = q_syndrome(q, op)
    assert sx.is_zero() and sz.is_zero()
    stab = stabilizer_span(q, "X")
    assert op.x not in stab
    logical = quantum.logical_matrix(q, "X").row_data[0]
    assert (op.x ^ logical) in stab


def test_color17_normalizer_weight_d_logical():
    q = quantum.color17()
    gens = {g.x for g in quantum.normalizer_generators(q, "X")}
    assert quantum.pauli_from_string("X1X2X5X9X13", 17).x in gens


@pytest.mark.parametrize("ctor", ALL_CODES)
def test_normalizer_generators_zero_syndrome(ctor):
    q = ctor()
    for etype in ("X", "Z"):
        for op in quantum.normalizer_generators(q, etype):
            sx, sz = q_syndrome(q, op)
            assert sx.is_zero() and sz.is_zero()


def syndrome_groups(q, max_wt):
    """Every X pattern of weight 1..max_wt (packed int) under its syndrome,
    in weight-then-``combinations`` order."""
    col_syn = q.check_matrix("X").transpose().row_data
    groups = collections.defaultdict(list)
    for w in range(1, max_wt + 1):
        for supp in itertools.combinations(range(q.n), w):
            pattern = sum(1 << i for i in supp)
            groups[gf2.xor_bits(col_syn, pattern)].append(pattern)
    return groups


def test_coset_table_color17_counts():
    groups = syndrome_groups(quantum.color17(), 2)
    assert sum(map(len, groups.values())) == 17 + 17 * 16 // 2  # all weight-1 and 2
    assert len(groups) == 115  # degenerate cosets collapse


def test_coset_table_steane_weight1():
    groups = syndrome_groups(quantum.steane(), 1)
    assert sum(map(len, groups.values())) == 7
    assert len(groups) == 7


def test_coset_table_degenerate_coset_members():
    q = quantum.color17()
    x1x3 = pauli_from_string("X1X3", 17).x
    key = gf2.xor_bits(q.check_matrix("X").transpose().row_data, x1x3)
    members = syndrome_groups(q, 2)[key]
    assert {str(PauliOp(n=17, x=m)) for m in members} == {
        "X1X3", "X2X4", "X5X6", "X9X10", "X13X14"}
    # the member products are stabilizer elements
    stab = stabilizer_span(q, "X")
    for a, b in itertools.combinations(members, 2):
        assert (a ^ b) in stab


def test_coset_table_corrections_return_to_codespace():
    q = quantum.steane()
    leaders = classical.build_standard_array(q.check_matrix("X"))
    stab = stabilizer_span(q, "X")
    for key, members in syndrome_groups(q, 1).items():
        for m in members:
            assert (leaders[key] ^ m) in stab


def test_coset_table_conflict_detected():
    """Past steane's radius two weight-<=2 patterns share a syndrome but do
    not differ by a stabilizer element."""
    stab = stabilizer_span(quantum.steane(), "X")
    conflicts = [(a, b) for members in syndrome_groups(quantum.steane(), 2).values()
                 for a, b in itertools.combinations(members, 2) if a ^ b not in stab]
    assert conflicts


# rep3 Z is left out: rep3 has no X-type checks, so every Z error has
# syndrome 0 and d_Z = 1; no weight-1 Z pattern is correctable.
LEADER_CASES = [(quantum.rep3, "X")] + [
    (ctor, error_type) for ctor in (quantum.steane, quantum.color17, quantum.golay_css)
    for error_type in "XZ"]


@pytest.mark.parametrize("ctor,error_type", LEADER_CASES,
                         ids=[f"{c.__name__}-{e}" for c, e in LEADER_CASES])
def test_standard_array_leader_is_stabilizer_equivalent_within_t(ctor, error_type):
    """Below half the distance a pattern and the classical coset leader of
    its H_Q syndrome differ by a stabilizer element (Gottesman,
    quant-ph/9705052), and the leader is no heavier: the standard array of
    H_Q is a per-column quantum correction."""
    q = ctor()
    check = q.check_matrix(error_type)
    leaders = classical.build_standard_array(check)
    col_syn = check.transpose().row_data
    col_class = q.class_check(error_type).transpose().row_data
    for w in range(1, q.t + 1):
        for supp in itertools.combinations(range(q.n), w):
            pattern = sum(1 << i for i in supp)
            leader = leaders[gf2.xor_bits(col_syn, pattern)]
            assert gf2.xor_bits(col_class, pattern ^ leader) == 0, supp
            assert leader.bit_count() <= w


def test_pauli_string_roundtrip():
    op = pauli_from_string("X1Z3Y5", 7)
    assert str(op) == "X1Z3Y5"
    assert (op.x | op.z).bit_count() == 3
    with pytest.raises(GF2Error):
        pauli_from_string("X9", 7)
    with pytest.raises(GF2Error):
        pauli_from_string("Q1", 7)
