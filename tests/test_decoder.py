"""Nearest-key table decoding and logical-qubit localization."""

import itertools
import random

import numpy as np
import pytest

from qproduct import classical, decoder, gf2, product, quantum
from qproduct.decoder import LocalizationError, LocalizationResult
from qproduct.gf2 import BitMatrix, GF2Error
from qproduct.product import ProductCode, ProductSyndrome

from helpers import (brute_nearest, entries, extract_syndrome, nearest, pattern_from_columns,
                     pattern_from_packed, syndrome, syndrome_key, table_from_entries,
                     vector_from_support)


def pattern(pc, bits):
    return pattern_from_packed(bits, pc.q.n, pc.L)


def key_table(keys, key_bits):
    """Each key stored as its own correction, so a wrong match shows."""
    pc = ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt")
    return table_from_entries(pc=pc, error_type="X", key_bits=key_bits,
                              entries={k: k for k in keys}, max_cols=1)


# -- the nearest-key kernel against a linear scan ---------------------------------

def linear_scan(keys, key, radius):
    """nearest_key's answer on a key_table from the (key, distance) pairs
    within the radius."""
    within = [(k, (k ^ key).bit_count()) for k in keys if (k ^ key).bit_count() <= radius]
    if not within:
        return ("not_found", -1, -1)
    best = min(d for _, d in within)
    ties = [k for k, d in within if d == best]
    return ("ok", best, ties[0]) if len(ties) == 1 else ("ambiguous", best, -1)


@pytest.mark.parametrize("seed", range(5))
def test_nearest_key_matches_linear_scan(seed):
    rng = random.Random(seed)
    keys = rng.sample(range(1 << 16), 2000)
    table = key_table(keys, 16)
    for _ in range(100):
        probe = rng.randrange(1 << 16)
        radius = rng.randint(0, 3)
        assert nearest(table, [probe], radius) == [linear_scan(keys, probe, radius)]


def test_nearest_key_empty_table():
    table = key_table([], 16)
    for radius in (0, 5):
        assert nearest(table, [123, 0], radius) == [("not_found", -1, -1)] * 2
    assert nearest(table, [], 5) == []


@pytest.mark.parametrize("key_bits", [64, 70, 130])
def test_nearest_key_wide_keys_match_brute_force(key_bits):
    """Keys of one word and more: random keys and probes near them."""
    rng = random.Random(key_bits)
    keys = sorted({rng.getrandbits(key_bits) for _ in range(300)})
    table = key_table(keys, key_bits)
    probes = [k ^ sum(1 << rng.randrange(key_bits) for _ in range(rng.randint(0, 4)))
              for k in rng.sample(keys, 100)]
    probes += [rng.getrandbits(key_bits) for _ in range(20)] + [keys[0] ^ keys[1]]
    for radius in (1, 3, key_bits // 2):
        assert nearest(table, probes, radius) == brute_nearest(entries(table), probes, radius)


def test_nearest_key_paper_scale_keys_match_brute_force():
    """bch(7,6)pt x color17, t_src=1: 336-bit keys, sampled flips of up to
    radius + 1 bits on sampled stored keys."""
    pc = ProductCode(classical.bch(7, 6), quantum.color17(), hc_mode="pt", t_src=1)
    table = product.build_lookup_table(pc, max_cols=pc.t_src)
    assert table.key_bits == 336
    radius = pc.t_c - pc.t_src
    rng = random.Random(336)
    probes = [k ^ sum(1 << i for i in rng.sample(range(336), rng.randint(0, radius + 1)))
              for k in rng.sample(sorted(entries(table)), 40)]
    got = nearest(table, probes, radius)
    assert got == brute_nearest(entries(table), probes, radius)
    assert {status for status, _, _ in got} >= {"ok"}


def test_nearest_key_batch_straddles_the_block_cap():
    """A batch spanning several distance blocks, the last one partial,
    answers as the keys would one by one."""
    rng = random.Random(11)
    keys = rng.sample(range(1 << 20), 1500)
    table = key_table(keys, 20)
    per_block = decoder.BLOCK_ELEMENTS // len(keys)
    probes = [rng.randrange(1 << 20) for _ in range(2 * per_block + 7)]
    probes += [k ^ 1 for k in keys[:50]]
    assert nearest(table, probes, 3) == brute_nearest(entries(table), probes, 3)


# -- exact and nearest-key decoding ------------------------------------------

def desk_table():
    pc = ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt")
    return pc, product.build_lookup_table(pc)


def test_lookup_decode_roundtrip_and_miss():
    pc, table = desk_table()
    e = pattern(pc, 1 << 1)
    key = syndrome_key(extract_syndrome(pc, e))
    assert nearest(table, [key], 0) == [("ok", 0, e.packed())]
    stored = entries(table)
    absent = next(k for k in range(1 << 6) if k not in stored)
    assert nearest(table, [absent], 0) == [("not_found", -1, -1)]


def noisy_table():
    """[15,5,7] P^T with Steane: 36 keys separated by d_C - 2 t_src = 5."""
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt", t_src=1)
    return pc, product.build_lookup_table(pc, max_cols=pc.t_src)


def test_min_distance_decode_exact_and_corrupted():
    pc, table = noisy_table()
    assert len(table.keys) == 36
    stored = entries(table)
    keys = sorted(stored)
    bits = table.key_bits
    radius = pc.t_c - pc.t_src
    assert nearest(table, keys, radius) == [("ok", 0, stored[key]) for key in keys]
    # every 1-bit and a stride of 2-bit corruptions return the true key's correction
    for key in keys[::5]:
        ones = nearest(table, [key ^ (1 << i) for i in range(bits)], radius)
        assert ones == [("ok", 1, stored[key])] * bits
        twos = [key ^ (1 << i) ^ (1 << j) for i, j in itertools.combinations(range(bits), 2)]
        assert nearest(table, twos, radius) == [("ok", 2, stored[key])] * len(twos)


def test_min_distance_decode_not_found():
    pc, table = noisy_table()
    far = (1 << table.key_bits) - 1  # all-ones is nowhere near a sparse key
    assert nearest(table, [far], pc.t_c - pc.t_src) == [("not_found", -1, -1)]


def test_min_distance_decode_ambiguous_tie():
    pc, _ = desk_table()
    table = table_from_entries(pc=pc, error_type="X", key_bits=6,
                               entries={0b0011: 1, 0b0101: 2}, max_cols=1)
    # a tie names no key, so there is no correction to read
    assert nearest(table, [0b0001], 1) == [("ambiguous", 1, -1)]


def test_min_distance_default_radius_is_corruption_budget():
    pc, table = noisy_table()
    assert pc.t_c - pc.t_src == 2
    key = sorted(entries(table))[1]
    flips = [0, 1, 2]
    corrupted = key
    for i in flips:
        corrupted ^= 1 << i
    # three flips exceed the default budget of two
    [(status, distance, _)] = nearest(table, [corrupted], pc.t_c - pc.t_src)
    assert status in ("not_found", "ambiguous") or distance <= 2


def assert_nearest_matches_brute(table, keys, radius):
    assert nearest(table, keys, radius) == brute_nearest(entries(table), keys, radius)


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_nearest_key_exhaustive_on_desk_and_tie_tables(radius):
    pc, table = desk_table()
    tie = table_from_entries(pc=pc, error_type="X", key_bits=6,
                             entries={0b01: 0b01, 0b10: 0b10}, max_cols=1)
    for t in (table, tie):
        assert_nearest_matches_brute(t, list(range(1 << 6)), radius)


def test_nearest_key_near_every_stored_key():
    """Every key within radius + 1 of a stored key of bch:15:3pt x steane."""
    pc, table = noisy_table()
    radius = pc.t_c - pc.t_src
    masks = [sum(1 << i for i in flips) for w in range(radius + 2)
             for flips in itertools.combinations(range(table.key_bits), w)]
    keys = sorted({k ^ m for k in entries(table) for m in masks})
    assert_nearest_matches_brute(table, keys, radius)


def test_nearest_key_radius_zero_searches_the_sorted_keys(monkeypatch):
    """The table is its sorted key words and their corrections, nothing
    more; exact lookup is one binary search over those words, a positive
    radius scans the same words, and an exact hit there is the unique
    nearest key."""
    pc, table = noisy_table()
    assert set(vars(table)) == {"pc", "error_type", "key_bits", "max_cols", "keys", "fixes"}
    assert table.keys.shape == (36, 1) and table.fixes.shape == (36, 1)
    stored = table.keys[:, 0].tolist()
    assert stored == sorted(set(stored)) == list(entries(table))
    key = stored[3]
    hit = ("ok", 0, table.fixes[3, 0].item())
    searches = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a: searches.append(a) or searchsorted(*a))
    assert nearest(table, [key, key ^ 1], 0) == [hit, ("not_found", -1, -1)]
    assert len(searches) == 1
    assert nearest(table, [key], -1) == [("not_found", -1, -1)]
    assert nearest(table, [key], 2) == [hit]
    assert len(searches) == 1


# -- built and loaded tables -------------------------------------------------------

def dict_exact_lookup(entries: dict, keys) -> list[tuple[str, int, int]]:
    """The exact lookup the sorted words replaced: ``entries.get`` per key."""
    found = [entries.get(k, -1) for k in keys]
    return [("ok", 0, v) if v >= 0 else ("not_found", -1, -1) for v in found]


LOADED_CASES = {  # (product code, max_cols, how many stored keys get every <=2-bit corruption)
    "desk": (lambda: ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt"), 1, None),
    "bch15:3pt-steane-t_src1": (lambda: ProductCode(classical.bch(4, 3), quantum.steane(),
                                                    hc_mode="pt", t_src=1), 1, None),
    # 1,726 entries, 80-bit keys (two words), 255-bit corrections (four words)
    "bch15:3-color17-one-column": (lambda: ProductCode(classical.bch(4, 3), quantum.color17()),
                                   1, 3),
}


@pytest.mark.parametrize("case", list(LOADED_CASES))
def test_loaded_table_decodes_as_the_built_one(tmp_path, case):
    """save -> load gives back the build's key and correction words, and
    nearest_key answers the same on the built and the loaded table at
    radius 0 and at t_C - t_src, for every stored key and every <=2-bit
    corruption of stored keys (of 3 sampled keys on the wide table, whose
    2-bit corruptions number 3,160 per key); at radius 0 both agree with a
    dict's exact lookup."""
    make, max_cols, sampled = LOADED_CASES[case]
    pc = make()
    built = product.build_lookup_table(pc, max_cols=max_cols)
    path = str(tmp_path / "t.lut")
    product.save_lookup_table(built, path)
    loaded = product.load_lookup_table(path, pc)
    assert np.array_equal(built.keys, loaded.keys) and np.array_equal(built.fixes, loaded.fixes)
    assert (loaded.key_bits, loaded.max_cols, loaded.error_type) == (
        built.key_bits, built.max_cols, built.error_type)
    fixes = entries(built)
    stored = list(fixes)
    masks = [sum(1 << i for i in flips) for w in (1, 2)
             for flips in itertools.combinations(range(built.key_bits), w)]
    corrupted = random.Random(case).sample(stored, sampled) if sampled else stored
    keys = stored + [k ^ m for k in corrupted for m in masks]
    assert len(fixes) == len(stored) == len(built.keys)
    for radius in (0, pc.t_c - pc.t_src):
        assert nearest(built, keys, radius) == nearest(loaded, keys, radius)
    assert nearest(loaded, keys, 0) == dict_exact_lookup(fixes, keys)


# -- localization -------------------------------------------------------------

def test_localization_result_union_invariant():
    with pytest.raises(GF2Error, match="union"):
        LocalizationResult(logical_indices=frozenset({1}),
                           per_row_supports=(frozenset({2}),))


def full_instance():
    return ProductCode(classical.bch(4, 3), quantum.steane())


def test_localize_rows_three_columns():
    pc = full_instance()
    cols = [0] * pc.L
    cols[4], cols[9], cols[14] = 0b1, 0b11, 0b10  # weights 1, 2, 1 < d_Q
    e = pattern_from_columns(cols, 7, "X")
    xi = extract_syndrome(pc, e)
    res = decoder.localize_bm(pc, xi)
    assert res.logical_indices == frozenset({4, 9, 14})
    assert res.confidence == "exact"
    # each row's support must match the nonzero entries of H_Q eps
    m = gf2.mul(pc.q.hz, e.matrix)
    for i, supp in enumerate(res.per_row_supports):
        assert supp == frozenset(j for j in range(pc.L) if m.get(i, j))


def test_localize_rows_exhaustive_single_column():
    pc = full_instance()
    for ell in range(pc.L):
        for col in range(1, 1 << 3):  # any weight <= 2 pattern on 3 qubits? use <=2
            if col.bit_count() > 2:
                continue
            cols = [0] * pc.L
            cols[ell] = col
            e = pattern_from_columns(cols, 7, "X")
            res = decoder.localize_bm(pc, extract_syndrome(pc, e))
            assert res.logical_indices <= frozenset({ell})


def test_localize_rows_weight_guard():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), t_c=1)
    cols = [0] * pc.L
    cols[0] = cols[1] = 0b1  # two columns hit, t_c = 1
    e = pattern_from_columns(cols, 7, "X")
    with pytest.raises(LocalizationError, match="exceeds"):
        decoder.localize_bm(pc, extract_syndrome(pc, e))


def test_localize_rows_uncovered_syndrome():
    pc = full_instance()
    covered = set()
    code = pc.c
    for w in range(code.t + 1):
        for supp in itertools.combinations(range(code.n), w):
            v = vector_from_support(supp, code.n)
            covered.add(syndrome(code, v).row_data[0])
    bad = next(s for s in range(1 << code.r) if s not in covered)
    rows = [bad] + [0] * (pc.q.hz.rows - 1)
    with pytest.raises(LocalizationError, match="coset leader") as exc:
        decoder.localize_bm(pc, ProductSyndrome(BitMatrix(rows, pc.R)))
    assert exc.value.row == 0


def test_localize_bm_full_mode():
    """A full-H code goes through the one localizer: positions are logical
    indices from 0 and no row reports a syndrome flip."""
    pc = full_instance()
    cols = [0] * pc.L
    cols[0], cols[14] = 0b100, 0b1
    res = decoder.localize_bm(pc, extract_syndrome(
        pc, pattern_from_columns(cols, 7, "X")))
    assert res.logical_indices == frozenset({0, 14})
    assert res.syndrome_flips == (frozenset(),) * 3


def test_localize_rows_standard_array_path():
    """Non-BCH classical codes fall back to the cached standard array."""
    pc = ProductCode(classical.hamming(3), quantum.rep3())
    cols = [0] * pc.L
    cols[3] = 0b1
    e = pattern_from_columns(cols, 3, "X")
    res = decoder.localize_bm(pc, extract_syndrome(pc, e))
    assert res.logical_indices == frozenset({3})


def pt_instance():
    return ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt",
                       t_src=1)


def test_localize_bm_clean_rows():
    pc = pt_instance()
    cols = [0] * pc.L
    cols[2] = 0b1
    e = pattern_from_columns(cols, 7, "X")
    res = decoder.localize_bm(pc, extract_syndrome(pc, e))
    assert res.logical_indices == frozenset({2})
    assert all(f == frozenset() for f in res.syndrome_flips)


def test_localize_bm_with_syndrome_flips():
    """Two measurement flips in one row plus one in another are repaired as
    long as flips + hit columns stay within the classical radius."""
    pc = pt_instance()
    cols = [0] * pc.L
    cols[2] = 0b1
    e = pattern_from_columns(cols, 7, "X")
    xi = extract_syndrome(pc, e)
    rows = list(xi.matrix.row_data)
    rows[0] ^= 0b101       # flip syndrome bits 0 and 2 of row 0
    rows[1] ^= 0b1000      # flip bit 3 of row 1
    res = decoder.localize_bm(pc, ProductSyndrome(BitMatrix(rows, pc.R)))
    assert res.logical_indices == frozenset({2})
    assert res.syndrome_flips[0] == frozenset({0, 2})
    assert res.syndrome_flips[1] == frozenset({3})
    assert res.syndrome_flips[2] == frozenset()


@pytest.mark.parametrize("c,q", [(classical.hamming(3), quantum.rep3()),
                                 (classical.repetition(5), quantum.steane())],
                         ids=["hamming3pt-rep3", "rep5pt-steane"])
def test_localize_bm_standard_array_pt_mode(c, q):
    """Non-BCH P^T codes decode [row | 0] through the standard array (the
    repetition code's H is not [I | P^T]): every single hit column and every
    single syndrome flip is recovered."""
    pc = ProductCode(c, q, hc_mode="pt")
    n_q, stab = q.n, q.check_matrix("X")
    for ell in range(pc.L):
        for col in range(1, 1 << n_q):
            if col.bit_count() > q.t:
                continue
            cols = [0] * pc.L
            cols[ell] = col
            e = pattern_from_columns(cols, n_q, "X")
            res = decoder.localize_bm(pc, extract_syndrome(pc, e))
            m = gf2.mul(stab, e.matrix)
            hit = [m.get(i, ell) for i in range(stab.rows)]
            assert res.per_row_supports == tuple(frozenset({ell} if h else ())
                                                 for h in hit)
            assert res.syndrome_flips == (frozenset(),) * stab.rows
    for i in range(stab.rows):
        for p in range(pc.R):
            rows = [0] * stab.rows
            rows[i] = 1 << p
            res = decoder.localize_bm(pc, ProductSyndrome(BitMatrix(rows, pc.R)))
            assert res.logical_indices == frozenset()
            assert res.syndrome_flips[i] == frozenset({p})


@pytest.mark.parametrize("rows,cols", [(3, 9), (3, 7), (2, 8), (4, 8), (1, 10)])
def test_localize_bm_rejects_a_wrong_shape(rows, cols):
    """Xi must have one row per stabilizer of H_Q and R columns (3 x 8 here)."""
    pc = ProductCode(classical.bch(4, 2), quantum.steane(), hc_mode="pt")
    assert (pc.q.hz.rows, pc.R) == (3, 8)
    with pytest.raises(GF2Error, match=f"Xi is {rows}x{cols}.*3x8"):
        decoder.localize_bm(pc, ProductSyndrome(BitMatrix([1] * rows, cols)))


@pytest.mark.parametrize("rows,cols", [(3, 11), (2, 10), (1, 10)])
def test_localize_rows_rejects_a_wrong_shape(rows, cols):
    pc = full_instance()
    assert (pc.q.hz.rows, pc.R) == (3, 10)
    with pytest.raises(GF2Error, match=f"Xi is {rows}x{cols}.*3x10"):
        decoder.localize_bm(pc, ProductSyndrome(BitMatrix([0] * rows, cols)))


# The two localizers that localize_bm replaces, as they stood: full-H mode
# decoded each row as a syndrome, P^T mode each row as a noisy parity part.

def _reference_leader_support(code, syn):
    if code.kind == "bch":
        return classical.bm_locate(code, syn)
    leader = code.standard_array.get(syn)
    if leader is None:
        return None
    return gf2.support(BitMatrix([leader], code.n))


def _reference_localize_rows(pc, xi):
    supports = []
    for i in range(xi.matrix.rows):
        supp = _reference_leader_support(pc.c, xi.matrix.row_data[i])
        if supp is None:
            raise LocalizationError(i, "no coset leader within the decoding radius")
        if len(supp) > pc.t_c:
            raise LocalizationError(i, f"row weight {len(supp)} exceeds t_C={pc.t_c}")
        supports.append(frozenset(supp))
    return LocalizationResult(logical_indices=frozenset().union(*supports),
                              per_row_supports=tuple(supports))


def _reference_localize_pt(pc, xi):
    r = pc.R
    supports, flips = [], []
    for i, row in enumerate(xi.matrix.row_data):
        locs = classical.bm_locate(pc.c, row) if row else []
        if locs is None:
            raise LocalizationError(i, "decoding budget exceeded")
        supports.append(frozenset(p - r for p in locs if p >= r))
        flips.append(frozenset(p for p in locs if p < r))
    return LocalizationResult(logical_indices=frozenset().union(*supports),
                              per_row_supports=tuple(supports),
                              syndrome_flips=tuple(flips))


def _outcome(localize, pc, xi):
    try:
        res = localize(pc, xi)
    except LocalizationError as exc:
        return "raised", exc.row
    return res.logical_indices, res.per_row_supports, res.syndrome_flips


@pytest.mark.parametrize("c,q,mode,t_c", [
    (classical.bch(4, 3), quantum.steane(), "full", -1),
    (classical.bch(4, 2), quantum.steane(), "full", -1),
    (classical.hamming(3), quantum.rep3(), "full", -1),
    (classical.golay23(), quantum.steane(), "full", -1),
    (classical.bch(4, 3), quantum.color17(), "full", -1),
    (classical.bch(4, 3), quantum.steane(), "full", 1),
    (classical.bch(4, 3), quantum.steane(), "pt", -1),
    (classical.bch(4, 2), quantum.steane(), "pt", -1),
    (classical.bch(5, 3), quantum.steane(), "pt", -1),
], ids=["bch15-3", "bch15-2", "hamming3-rep3", "golay23", "bch15-3-color17",
        "bch15-3-tc1", "bch15-3pt", "bch15-2pt", "bch31-3pt"])
def test_localize_bm_matches_both_former_localizers(monkeypatch, c, q, mode, t_c):
    """Every value of the first and of the last row of Xi, the other rows
    zero, gives the former localizer's supports (and P^T-mode flips) or
    raises on the same row; full-H mode reports no flips."""
    pc = ProductCode(c, q, hc_mode=mode, t_c=t_c)
    monkeypatch.setattr(ProductCode, "R", pc.R)  # each read re-derives H_C
    reference = _reference_localize_pt if mode == "pt" else _reference_localize_rows
    stab_rows = q.check_matrix("X").rows
    no_flips = (frozenset(),) * stab_rows
    for i in (0, stab_rows - 1):
        for value in range(1 << pc.R):
            rows = [0] * stab_rows
            rows[i] = value
            xi = ProductSyndrome(BitMatrix(rows, pc.R))
            got, want = _outcome(decoder.localize_bm, pc, xi), _outcome(reference, pc, xi)
            if mode == "full" and got[0] != "raised":
                assert got[2] == no_flips
                got, want = got[:2], want[:2]
            assert got == want, (i, value)


def test_localize_bm_reads_a_syndrome_built_from_rows():
    """perfbench's localize-paper passes ProductSyndrome(BitMatrix(rows, pc.R))
    on bch(7,6)pt x color17: a nonzero Xi built so, with a flipped syndrome
    bit in one row, localizes the columns hit and reports the flip."""
    pc = ProductCode(classical.bch(7, 6), quantum.color17(), hc_mode="pt")
    hit = {3, 40, 84}
    cols = [0b101 if ell in hit else 0 for ell in range(pc.L)]
    rows = list(extract_syndrome(pc, pattern_from_columns(cols, 17, "X")).matrix.row_data)
    assert any(rows)
    rows[0] ^= 1 << 5
    res = decoder.localize_bm(pc, product.ProductSyndrome(gf2.BitMatrix(rows, pc.R)))
    assert res.logical_indices == hit
    assert res.syndrome_flips[0] == {5} and not any(res.syndrome_flips[1:])


def test_localize_bm_builds_no_matrix_per_row(monkeypatch):
    """One decode builds only the matrices of its one pc.R read, and runs a
    Chien search for each nonzero row and none for an all-zero Xi."""
    pc = ProductCode(classical.bch(7, 6), quantum.color17(), hc_mode="pt")
    rng = random.Random(9)
    rows = [1 << rng.randrange(pc.R) for _ in range(pc.q.hz.rows)]  # one flip per row
    noisy = ProductSyndrome(BitMatrix(rows, pc.R))
    zero = ProductSyndrome(BitMatrix([0] * len(rows), pc.R))
    counts = {"built": 0, "chien": 0}
    init, chien = BitMatrix.__init__, classical._chien_roots

    def counting_init(self, *args):
        counts["built"] += 1
        init(self, *args)

    def counting_chien(*args):
        counts["chien"] += 1
        return chien(*args)

    monkeypatch.setattr(BitMatrix, "__init__", counting_init)
    monkeypatch.setattr(classical, "_chien_roots", counting_chien)
    pc.R
    per_read = counts["built"]
    for xi, searches in ((noisy, len(rows)), (zero, 0), (noisy, len(rows))):
        counts.update(built=0, chien=0)
        res = decoder.localize_bm(pc, xi)
        assert counts == {"built": per_read, "chien": searches}
        assert res.syndrome_flips == tuple(frozenset(gf2.support(BitMatrix([r], pc.R)))
                                           for r in xi.matrix.row_data)
