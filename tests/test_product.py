"""Product parity checks, syndrome keys, normalizers, lookup tables and table files."""

import functools
import hashlib
import itertools
import operator
import random

import numpy as np
import pytest

from qproduct import classical, gf2, product, quantum
from qproduct.gf2 import BitMatrix, GF2Error
from qproduct.product import ProductCode

from helpers import (ErrorPattern, count_class_evaluations, differs_by_stabilizers, entries,
                     extract_syndrome, is_normalizer_element, normalizer_generators,
                     pattern_from_columns, pattern_from_packed, stabilizer_span, syndrome,
                     syndrome_from_key, syndrome_key, table_from_entries, vec)


def desk_instance():
    """[7,4,3] Hamming parity-transpose with the 3-qubit repetition code."""
    return ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt")


def pattern(pc, bits):
    return pattern_from_packed(bits, pc.q.n, pc.L)


def test_dimensions_pt_and_full():
    pc = desk_instance()
    assert (pc.L, pc.R, pc.N) == (4, 3, 12)
    assert pc.key_bits("X") == 6
    full = ProductCode(classical.hamming(3), quantum.rep3())
    assert (full.L, full.R, full.N) == (7, 3, 21)


def test_product_parity_check_is_kron():
    pc = desk_instance()
    h = product.product_parity_check(pc, "X")
    assert h == gf2.kron(pc.c.pt, pc.q.hz)
    assert (h.rows, h.cols) == (6, 12)


def test_distance_ordering_enforced():
    with pytest.raises(GF2Error, match="distance"):
        ProductCode(classical.hamming(3), quantum.golay_css())


def test_t_src_bounds():
    with pytest.raises(GF2Error, match="t_src"):
        ProductCode(classical.bch(4, 3), quantum.steane(), t_src=4)


@pytest.mark.parametrize("seed", range(10))
def test_extract_syndrome_matches_flattened_product(seed):
    """Xi = H_Q eps H_C^T agrees with (H_C kron H_Q) vec(eps) bit for bit."""
    pc = desk_instance()
    rng = random.Random(seed)
    bits = rng.randrange(1 << pc.N)
    e = pattern(pc, bits)
    xi = extract_syndrome(pc, e)
    h = product.product_parity_check(pc, "X")
    flat = gf2.mul(h, BitMatrix([bits], pc.N).transpose()).transpose()
    assert vec(xi.matrix) == flat
    # the lookup key uses the transposed (stabilizer-major) packing
    assert syndrome_key(xi) == vec(xi.matrix.transpose()).row_data[0]


def test_extract_syndrome_shape_check():
    pc = desk_instance()
    with pytest.raises(GF2Error, match="shape"):
        extract_syndrome(pc, ErrorPattern(BitMatrix.zeros(3, 5)))


def test_syndrome_key_layout_and_roundtrip():
    pc = desk_instance()
    xi = extract_syndrome(pc, pattern(pc, 0b10))  # qubit 2
    key = syndrome_key(xi)
    # bits [i*R, (i+1)*R) of the key hold row i of Xi
    for i in range(xi.matrix.rows):
        assert (key >> (i * pc.R)) & ((1 << pc.R) - 1) == xi.matrix.row_data[i]
    back = syndrome_from_key(key, xi.matrix.rows, pc.R)
    assert back.matrix == xi.matrix


KEY_MAP_CODES = {  # the desk, bch:15:3 x steane, rep:5 x color17, hamming:3 x steane pairs
    "hamming3-rep3": (lambda: classical.hamming(3), quantum.rep3),
    "bch15-steane": (lambda: classical.bch(4, 3), quantum.steane),
    "rep5-color17": (lambda: classical.repetition(5), quantum.color17),
    "hamming3-steane": (lambda: classical.hamming(3), quantum.steane),
}


@pytest.mark.parametrize("error_type", ["X", "Z"])
@pytest.mark.parametrize("hc_mode", ["full", "pt"])
@pytest.mark.parametrize("codes", KEY_MAP_CODES.values(), ids=list(KEY_MAP_CODES))
def test_key_map_matches_extract_syndrome(codes, hc_mode, error_type):
    """Each vec bit's entry, and the XOR of the entries of random patterns,
    is extract_syndrome's key for that pattern."""
    make_c, make_q = codes
    pc = ProductCode(make_c(), make_q(), hc_mode=hc_mode)
    bit_keys = product.key_map(pc.q.check_matrix(error_type), pc.h_c)
    assert len(bit_keys) == pc.N

    def key(bits):
        e = pattern_from_packed(bits, pc.q.n, pc.L, error_type)
        return syndrome_key(extract_syndrome(pc, e))

    assert bit_keys == [key(1 << bit) for bit in range(pc.N)]
    rng = random.Random(pc.N)
    for _ in range(50):
        bits = rng.getrandbits(pc.N)
        want = 0
        for bit in range(pc.N):
            if (bits >> bit) & 1:
                want ^= bit_keys[bit]
        assert want == key(bits)


def test_key_map_wide_keys():
    """bch(7,6) P^T x color17: 336-bit keys, past any int64 packing."""
    pc = ProductCode(classical.bch(7, 6), quantum.color17(), hc_mode="pt")
    assert pc.key_bits("X") == 336
    bit_keys = product.key_map(pc.q.check_matrix("X"), pc.h_c)
    assert len(bit_keys) == pc.N == 1445
    bits = random.Random(85).sample(range(pc.N), 100)
    for bit in bits:
        e = pattern_from_packed(1 << bit, pc.q.n, pc.L)
        assert bit_keys[bit] == syndrome_key(extract_syndrome(pc, e))
    assert max(bit_keys).bit_length() > 300


def test_column_helpers():
    pc = desk_instance()
    e = pattern(pc, 0b101 << 3)  # qubits 4 and 6 (column 1)
    assert e.column_weights() == [0, 2, 0, 0]
    assert sum(1 for w in e.column_weights() if w) == 1
    assert e.matrix.transpose().row_data[1] == 0b101
    assert pattern_from_packed(e.packed(), 3, 4).matrix == e.matrix


@pytest.mark.parametrize("make", [
    desk_instance,
    lambda: ProductCode(classical.hamming(3), quantum.rep3()),
    lambda: ProductCode(classical.bch(4, 3), quantum.steane(), t_c=2),
])
def test_normalizer_generators_have_zero_syndrome(make):
    pc = make()
    gens = normalizer_generators(pc, "X")
    assert gens
    for g in gens:
        assert is_normalizer_element(pc, g)


def test_normalizer_row_generator_weight():
    """A weight-3 classical codeword paired with one qubit gives a weight-3
    undetectable pattern in full mode; per-column weight stays at 1."""
    pc = ProductCode(classical.hamming(3), quantum.rep3())
    cw_basis = gf2.nullspace(pc.c.H)
    g = min(cw_basis.row_data, key=int.bit_count)
    assert g.bit_count() == 3
    cols = [(1 << 0) if (g >> ell) & 1 else 0 for ell in range(pc.L)]
    e = pattern_from_columns(cols, 3, "X")
    assert is_normalizer_element(pc, e)
    assert e.packed().bit_count() == 3
    assert max(e.column_weights()) == 1


def test_lookup_table_desk_instance():
    pc = desk_instance()
    table = product.build_lookup_table(pc)
    # zero plus every single-qubit pattern; all 12 keys distinct
    assert len(table.keys) == 13
    assert product.class_E_size(pc) == 13
    assert entries(table)[0] == 0


def test_lookup_table_roundtrips_single_errors():
    pc = desk_instance()
    stored = entries(product.build_lookup_table(pc))
    for qubit in range(pc.N):
        e = pattern(pc, 1 << qubit)
        got = stored.get(syndrome_key(extract_syndrome(pc, e)))
        assert got is not None and got == e.packed()


def test_lookup_table_degenerate_alias():
    """Qubit 7 and the pair {1, 10} share a syndrome; their difference is a
    classical-codeword normalizer element, and the table returns qubit 7."""
    pc = desk_instance()
    table = product.build_lookup_table(pc)
    x7 = pattern(pc, 1 << 6)
    alias = pattern(pc, (1 << 0) | (1 << 9))
    k7 = syndrome_key(extract_syndrome(pc, x7))
    assert syndrome_key(extract_syndrome(pc, alias)) == k7
    assert is_normalizer_element(pc, pattern(pc, x7.packed() ^ alias.packed()))
    assert entries(table)[k7] == x7.packed()


def test_lookup_table_full_steane_bch_count():
    """[15,5,7] x Steane at t_C=2: the whole class keys injectively."""
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), t_c=2)
    table = product.build_lookup_table(pc)
    assert product.class_E_size(pc) == 1 + 15 * 7 + 105 * 49 == 5251
    assert len(table.keys) == 5251  # no degenerate collapse, no conflicts


def test_lookup_table_max_cols_cap():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), t_c=2, t_src=1)
    table = product.build_lookup_table(pc, max_cols=pc.t_src)
    assert len(table.keys) == 1 + 15 * 7 == 106
    assert table.max_cols == 1


@pytest.mark.parametrize("max_cols", [-2, -1, 2])
def test_lookup_table_max_cols_outside_column_budget(max_cols):
    """The table file loader's rule: 0 <= max_cols <= t_C."""
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt", t_c=1)
    with pytest.raises(GF2Error, match="max_cols"):
        product.build_lookup_table(pc, max_cols=max_cols)


def test_lookup_table_conflict_aborts():
    # pushing t_Q past the Steane radius mixes X7 with X1X2
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), t_c=1, t_q=2)
    with pytest.raises(GF2Error, match="conflict"):
        product.build_lookup_table(pc)


def test_lookup_table_size_guard():
    pc = ProductCode(classical.bch(7, 6), quantum.golay_css())
    with pytest.raises(GF2Error, match="entries"):
        product.build_lookup_table(pc)


def reference_build(pc, error_type="X", max_cols=None):
    """The one-pattern-at-a-time build the numpy blocks replaced: entries in
    enumeration order, first representative kept, conflicts raised."""
    max_cols = pc.t_c if max_cols is None else max_cols
    n = pc.q.n
    span = stabilizer_span(pc.q, error_type)
    hq, hc = pc.q.check_matrix(error_type), pc.h_c
    bit_keys = product.key_map(hq, hc)
    supports = [supp for w in range(1, pc.t_q + 1)
                for supp in itertools.combinations(range(n), w)]
    patterns = [sum(1 << i for i in supp) for supp in supports]
    contribs = [[functools.reduce(operator.xor, (bit_keys[ell * n + i] for i in supp))
                 for supp in supports] for ell in range(hc.cols)]
    entries = {0: 0}
    for c in range(1, max_cols + 1):
        for cols in itertools.combinations(range(hc.cols), c):
            for choice in itertools.product(range(len(patterns)), repeat=c):
                packed = key = 0
                for ell, pi in zip(cols, choice):
                    packed |= patterns[pi] << (ell * n)
                    key ^= contribs[ell][pi]
                if key in entries:
                    other = entries[key]
                    if not differs_by_stabilizers(other ^ packed, n, span):
                        raise GF2Error(
                            f"syndrome conflict: patterns {other:#x} and "
                            f"{packed:#x} share key {key:#x} but are not "
                            f"stabilizer-equivalent"
                        )
                else:
                    entries[key] = packed
    return table_from_entries(pc=pc, error_type=error_type,
                              key_bits=hq.rows * hc.rows, entries=entries,
                              max_cols=max_cols)


def paper_scale_t_src_1():
    """bch(7,6)pt x color17 (L = 85): 336-bit keys, 1,445-bit corrections."""
    return ProductCode(classical.bch(7, 6), quantum.color17(), hc_mode="pt", t_src=1)


BUILD_CASES = {
    "desk": (desk_instance, "X", None),
    # t_C = 3, one column: a wider build aborts on a syndrome conflict
    "hamming3pt-rep3-tc3": (lambda: ProductCode(classical.hamming(3), quantum.rep3(),
                                                hc_mode="pt", t_c=3), "X", 1),
    "bch15:3-steane": (lambda: ProductCode(classical.bch(4, 3), quantum.steane()), "X", None),
    "bch15:3pt-steane-t_src1": (lambda: ProductCode(classical.bch(4, 3), quantum.steane(),
                                                    hc_mode="pt", t_src=1), "X", 1),
    "color17-rep5pt": (lambda: ProductCode(classical.repetition(5), quantum.color17(),
                                           hc_mode="pt"), "X", None),
    "color17-rep5pt-Z": (lambda: ProductCode(classical.repetition(5), quantum.color17(),
                                             hc_mode="pt"), "Z", None),
    "steane-hamming3-full": (lambda: ProductCode(classical.hamming(3), quantum.steane()),
                             "X", None),
    "bch127:6pt-color17-t_src1": (paper_scale_t_src_1, "X", 1),
    # no per-column pattern: the zero pattern alone
    "desk-t_q0": (lambda: ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt",
                                      t_q=0), "X", None),
}


def same_table(a, b) -> bool:
    """Same code, error type, key width, column cap, key words and
    correction words, row for row."""
    return ((a.pc, a.error_type, a.key_bits, a.max_cols) == (b.pc, b.error_type, b.key_bits,
                                                            b.max_cols)
            and np.array_equal(a.keys, b.keys) and np.array_equal(a.fixes, b.fixes))


@pytest.mark.parametrize("case", list(BUILD_CASES))
def test_build_matches_reference_loop(case):
    """Same entries, representatives, key_bits and column cap as the
    per-pattern loop, with the keys sorted once into words."""
    make, error_type, max_cols = BUILD_CASES[case]
    pc = make()
    got = product.build_lookup_table(pc, error_type, max_cols=max_cols)
    want = reference_build(pc, error_type, max_cols)
    assert same_table(got, want)


def test_build_blocks_split_inside_a_column_combination(monkeypatch):
    """Blocks of 5 and 1 patterns cut through the 49 patterns of each column
    pair; the table and its order do not change."""
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), t_c=2)
    want = reference_build(pc)
    for block in (5, 1):
        monkeypatch.setattr(product, "TABLE_BLOCK", block)
        got = product.build_lookup_table(pc)
        assert list(entries(got).items()) == list(entries(want).items())


@pytest.mark.parametrize("make,max_cols", [
    (lambda: ProductCode(classical.bch(4, 3), quantum.steane(), t_c=1, t_q=2), None),
    (lambda: ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt", t_c=3), None),
])
def test_build_conflict_text_matches_reference_loop(make, max_cols):
    pc = make()
    with pytest.raises(GF2Error, match="conflict") as want:
        reference_build(pc, max_cols=max_cols)
    with pytest.raises(GF2Error) as got:
        product.build_lookup_table(pc, max_cols=max_cols)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("make,max_cols,patterns,keys", [
    (lambda: ProductCode(classical.bch(4, 3), quantum.steane()), None, 161316, 161316),
    (paper_scale_t_src_1, 1, 13006, 9776),
])
def test_build_tests_stabilizer_equivalence_only_on_collisions(monkeypatch, make, max_cols,
                                                               patterns, keys):
    """The stabilizer-equivalence class is evaluated once per pattern whose
    key is already stored, the zero pattern included in the count, and the
    class map is built only at the first such collision.  class_E_size
    counts the keys, not the patterns."""
    pc = make()
    counts = count_class_evaluations(monkeypatch, product)
    table = product.build_lookup_table(pc, max_cols=max_cols)
    assert product.class_E_size(pc, max_cols) == len(table.keys) == keys
    assert counts == {"maps": int(patterns > keys), "evaluations": patterns - keys}


def reference_save(table, path):
    """The writer chunked records replaced: every line held as a string,
    each field zero-padded to its fixed width."""
    header = product._table_header(table.pc, table.error_type, table.max_cols,
                                   len(table.keys))
    kd, fd = -(-table.key_bits // 4), -(-table.pc.N // 4)
    lines = ["qproduct-lut2 " + " ".join(f"{k}={v}" for k, v in header.items())]
    for key, fix in entries(table).items():
        lines.append(f"{key:0{kd}x} {fix:0{fd}x}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("which", ["paper-scale", "zero-only", "many-chunks"])
def test_writer_bytes_match_reference_writer(tmp_path, monkeypatch, which):
    """Byte-identical files, and a lossless round trip: 336-bit keys with
    1,445-bit corrections, the one-record table, and a table of 5,251
    records written in chunks of 100 (the last one partial)."""
    if which == "paper-scale":
        pc = paper_scale_t_src_1()
        table = product.build_lookup_table(pc, max_cols=1)
        assert (table.key_bits, pc.N) == (336, 1445)
    elif which == "zero-only":
        pc = desk_instance()
        table = table_from_entries(pc=pc, error_type="X", key_bits=6, entries={0: 0},
                                   max_cols=1)
    else:
        pc = ProductCode(classical.bch(4, 3), quantum.steane(), t_c=2)
        table = product.build_lookup_table(pc)
        monkeypatch.setattr(product, "TABLE_CHUNK", 100)
        assert len(table.keys) == 5251
    product.save_lookup_table(table, str(tmp_path / "got.lut"))
    reference_save(table, str(tmp_path / "want.lut"))
    assert (tmp_path / "got.lut").read_bytes() == (tmp_path / "want.lut").read_bytes()
    assert same_table(product.load_lookup_table(str(tmp_path / "got.lut"), pc), table)


def test_save_load_roundtrip(tmp_path):
    pc = desk_instance()
    table = product.build_lookup_table(pc)
    path = str(tmp_path / "desk.lut")
    product.save_lookup_table(table, path)
    with open(path, "rb") as fh:
        assert len(hashlib.sha256(fh.read()).hexdigest()) == 64
    loaded = product.load_lookup_table(path, pc)
    assert entries(loaded) == entries(table)
    assert loaded.error_type == "X" and loaded.key_bits == 6
    assert loaded.max_cols == table.max_cols


def test_constructed_table_saves_and_reloads(tmp_path):
    """A table made without build_lookup_table names its column cap: the
    cap had a default of -1, saved as mc=-1, which the loader refused."""
    pc = desk_instance()
    table = table_from_entries(pc=pc, error_type="X", key_bits=6,
                               entries={0: 0, 0b000101: 0b10}, max_cols=1)
    with pytest.raises(TypeError, match="max_cols"):
        product.LookupTable(pc=pc, error_type="X", key_bits=6, keys=table.keys,
                            fixes=table.fixes)
    path = str(tmp_path / "t.lut")
    product.save_lookup_table(table, path)
    assert same_table(product.load_lookup_table(path, pc), table)


@pytest.mark.parametrize("make,count", [
    (desk_instance, 13),
    (lambda: ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt", t_src=1), 36),
], ids=["desk", "bch15-steane-t_src1"])
def test_entries_length_is_the_class_E_size(tmp_path, make, count):
    """perfbench's Monte Carlo set-up check and its traced table hook read
    ``len(table.entries)``: it is the key count and class_E_size, on a table
    built as perfbench builds it (capped at t_src columns when t_src > 0)
    and on the same table saved and loaded."""
    pc = make()
    max_cols = pc.t_src or pc.t_c
    built = product.build_lookup_table(pc, max_cols=max_cols)
    path = str(tmp_path / "t.lut")
    product.save_lookup_table(built, path)
    for table in (built, product.load_lookup_table(path, pc)):
        assert len(table.entries) == len(table.keys) == product.class_E_size(pc, max_cols) == count


def test_load_rejects_wrong_product(tmp_path):
    pc = desk_instance()
    path = str(tmp_path / "desk.lut")
    product.save_lookup_table(product.build_lookup_table(pc), path)
    other = ProductCode(classical.bch(4, 3), quantum.steane(), t_c=2)
    with pytest.raises(GF2Error, match="key length"):
        product.load_lookup_table(path, other)
    with pytest.raises(GF2Error, match="not a lookup-table"):
        (tmp_path / "junk.lut").write_text("garbage\n")
        product.load_lookup_table(str(tmp_path / "junk.lut"), pc)


@pytest.mark.parametrize("mc", ["-2", "-1", "2"])
def test_load_rejects_column_budget_outside_range(tmp_path, mc):
    """The loader keeps the builder's rule 0 <= mc <= t_C (desk t_C = 1)."""
    pc = desk_instance()
    path = tmp_path / "desk.lut"
    product.save_lookup_table(product.build_lookup_table(pc), str(path))
    path.write_text(path.read_text().replace(" mc=1 ", f" mc={mc} ", 1))
    with pytest.raises(GF2Error, match=f"mc={mc} outside"):
        product.load_lookup_table(str(path), pc)


def test_stabilizer_equivalent():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), t_c=2)
    a = pattern(pc, 0b0001001)           # X1 X4 in column 0
    b = pattern(pc, 0b0110010)           # X2 X5 X6 ... build from stabilizer
    s = pc.q.hx.row_data[0]              # X1 X4 X6 X7
    b = pattern(pc, a.packed() ^ s)
    classes = product.class_map(pc.q, "X", pc.L)
    span = stabilizer_span(pc.q, "X")
    for diff, equivalent in ((a.packed() ^ b.packed(), True), (s << (5 * pc.q.n), True),
                             (1, False), (s | 1 << pc.q.n, False)):
        assert (gf2.xor_bits(classes, diff) == 0) == equivalent
        assert differs_by_stabilizers(diff, pc.q.n, span) == equivalent


@pytest.mark.parametrize("error_type", ["X", "Z"])
@pytest.mark.parametrize("make", [
    desk_instance,
    lambda: ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt"),
], ids=["desk", "bch15pt-steane"])
def test_class_map_matches_columnwise_span_test(make, error_type):
    """Random n*L-bit differences, each column a span element with
    probability 0.8 and a random column otherwise, classified by class_map
    and by the column-wise span oracle."""
    pc = make()
    n, L = pc.q.n, pc.L
    classes = product.class_map(pc.q, error_type, L)
    span = stabilizer_span(pc.q, error_type)
    members = sorted(span)
    rng = random.Random(f"{pc.c.kind}-{pc.q.kind}-{error_type}")
    outcomes = set()
    for _ in range(20_000):
        diff = sum((rng.choice(members) if rng.random() < 0.8 else rng.getrandbits(n))
                   << (ell * n) for ell in range(L))
        equivalent = differs_by_stabilizers(diff, n, span)
        assert (gf2.xor_bits(classes, diff) == 0) == equivalent
        outcomes.add(equivalent)
    assert outcomes == {True, False}


# -- channel coding ----------------------------------------------------------

def channel_setup():
    pc = desk_instance()
    g1 = classical.single_parity_check(pc.R + 1)       # protects rows of Xi
    g2 = classical.single_parity_check(3)              # protects columns
    return pc, g1, g2


def test_channel_encode_shape_and_identity():
    pc, g1, g2 = channel_setup()
    h = product.channel_encode(pc, g1, g2)
    assert (h.rows, h.cols) == (g1.n * g2.n, pc.N)
    rng = random.Random(1)
    for _ in range(10):
        bits = rng.randrange(1 << pc.N)
        e = pattern(pc, bits)
        xi = extract_syndrome(pc, e).matrix
        coded = gf2.mul(gf2.mul(g2.G.transpose(), xi), g1.G)
        lhs = gf2.mul(h, BitMatrix([bits], pc.N).transpose()).transpose()
        assert lhs == vec(coded)


def test_channel_block_rows_and_columns_are_codewords():
    pc, g1, g2 = channel_setup()
    e = pattern(pc, 0b10)
    xi = extract_syndrome(pc, e)
    block = product.channel_block(xi, g1, g2)
    assert (block.rows, block.cols) == (g2.n, g1.n)
    for i in range(block.rows):
        assert syndrome(g1, block.row(i)).is_zero()
    bt = block.transpose()
    for j in range(bt.rows):
        assert syndrome(g2, bt.row(j)).is_zero()
    # data block sits bottom-right
    data = block.submatrix(range(g2.n - g2.k, g2.n), range(g1.n - g1.k, g1.n))
    assert data == xi.matrix


def test_channel_encode_dimension_checks():
    pc, g1, g2 = channel_setup()
    with pytest.raises(GF2Error, match="g1.k"):
        product.channel_encode(pc, g2, g2)
    with pytest.raises(GF2Error, match="g2.k"):
        product.channel_encode(pc, g1, g1)
    xi = extract_syndrome(pc, pattern(pc, 1))
    with pytest.raises(GF2Error, match="g1.k"):
        product.channel_block(xi, g2, g2)
