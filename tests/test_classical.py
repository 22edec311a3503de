"""Classical code constructors and decoders against brute-force oracles."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproduct import classical, gf2
from qproduct.gf2 import BitMatrix, GF2Error

from helpers import encode, row_bits, syndrome, to_lists, vector_from_support


def brute_force_decode(code, received, radius):
    """All codewords within the radius of the received word."""
    word = received if isinstance(received, int) else received.row_data[0]
    hits = []
    for mask in range(1 << code.k):
        acc = 0
        mm = mask
        while mm:
            low = mm & -mm
            acc ^= code.G.row_data[low.bit_length() - 1]
            mm ^= low
        d = (acc ^ word).bit_count()
        if d <= radius:
            hits.append((acc, d))
    return hits


@pytest.mark.parametrize("ctor,args,params", [
    (classical.hamming, (3,), (7, 4, 3)),
    (classical.hamming, (4,), (15, 11, 3)),
    (classical.bch, (4, 3), (15, 5, 7)),
    (classical.bch, (4, 1), (15, 11, 3)),
    (classical.golay23, (), (23, 12, 7)),
    (classical.repetition, (3,), (3, 1, 3)),
    (classical.single_parity_check, (4,), (4, 3, 2)),
])
def test_constructor_parameters_and_validity(ctor, args, params):
    code = ctor(*args)
    assert (code.n, code.k, code.d) == params
    assert gf2.mul(code.G, code.H.transpose()).is_zero()
    assert gf2.rank(code.G) == code.k
    assert gf2.rank(code.H) == code.n - code.k


@pytest.mark.parametrize("ctor,args", [
    (classical.hamming, (3,)),
    (classical.bch, (4, 3)),
    (classical.golay23, ()),
    (classical.repetition, (5,)),
])
def test_minimum_distance_brute_force(ctor, args):
    code = ctor(*args)
    assert classical.minimum_distance(code.G) == code.d


def test_bch_127_85_13():
    code = classical.bch(7, 6)
    assert (code.n, code.k, code.d) == (127, 85, 13)
    assert code.k >= code.n - 7 * 6  # BCH bound on the generator degree


def test_bch_63_36_11_generator_degree():
    # the asymptotic formula t*m = 30 overestimates; the true degree is 27
    code = classical.bch(6, 5)
    assert (code.n, code.k, code.d) == (63, 36, 11)


def test_bch_t_too_large():
    with pytest.raises(GF2Error):
        classical.bch(3, 4)


def test_bch_without_a_primitive_polynomial():
    with pytest.raises(GF2Error, match="no default primitive polynomial"):
        classical.bch(11, 1)


def reference_minimal_polynomial(gf, i):
    """Minimal polynomial of alpha^i over GF(2) as a bit mask: the product
    of (x + alpha^j) over the cyclotomic coset of i."""
    poly = [1]
    for j in gf.cyclotomic_coset(i):
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] ^= c
            nxt[d] ^= gf.mul(c, gf.exp[j])
        poly = nxt
    assert set(poly) <= {0, 1}
    return sum(c << d for d, c in enumerate(poly))


def polymul2(a, b):
    """Product of two GF(2) polynomials packed as bit masks."""
    return functools.reduce(lambda acc, e: acc ^ (a << e) if (b >> e) & 1 else acc,
                            range(b.bit_length()), 0)


def reference_generator(m, t):
    """lcm of the minimal polynomials of alpha, alpha^3, ..., alpha^(2t-1)."""
    gf = classical.GaloisField(m)
    reps = {min(gf.cyclotomic_coset(i)) for i in range(1, 2 * t, 2)}
    return functools.reduce(polymul2, (reference_minimal_polynomial(gf, i) for i in reps), 1)


GENERATOR_CASES = ([(m, range(1, 1 << (m - 1))) for m in range(2, 9)]  # every t
                   + [(9, range(1, 13)), (10, range(1, 13)), (9, range(20, 21))])


@pytest.mark.parametrize("m,ts", GENERATOR_CASES,
                         ids=[f"m{m}-t{ts[0]}-{ts[-1]}" for m, ts in GENERATOR_CASES])
def test_bch_generator_is_the_lcm_of_minimal_polynomials(m, ts):
    for t in ts:
        code = classical.bch(m, t)
        assert code.gen_poly == reference_generator(m, t), (m, t)
        assert code.r == code.gen_poly.bit_length() - 1


def test_hamming3_pinned_pt_columns():
    code = classical.hamming(3)
    pt = code.pt
    cols = [[pt.get(i, j) for i in range(3)] for j in range(4)]
    assert cols == [[1, 0, 1], [1, 1, 1], [1, 1, 0], [0, 1, 1]]


def test_repetition3_matches_stabilizer_layout():
    code = classical.repetition(3)
    assert to_lists(code.G) == [[1, 1, 1]]
    assert to_lists(code.H) == [[1, 1, 0], [1, 0, 1]]


def test_spc_detects_weight_one():
    code = classical.single_parity_check(4)
    assert to_lists(code.H) == [[1, 1, 1, 1]]
    for j in range(4):
        syn = syndrome(code, vector_from_support([j], 4))
        assert row_bits(syn, 0) == [1]


def test_golay_dual_containing():
    code = classical.golay23()
    for i in range(code.H.rows):
        assert syndrome(code, code.H.row(i)).is_zero()


def test_syndrome_of_codeword_is_zero():
    code = classical.bch(4, 3)
    for mask in (0, 1, 0b10110):
        msg = BitMatrix([mask], code.k)
        cw = encode(code, msg)
        assert syndrome(code, cw).is_zero()


def test_syndrome_unit_vector_is_column():
    code = classical.hamming(3)
    for j in range(code.n):
        syn = syndrome(code, vector_from_support([j], code.n))
        assert row_bits(syn, 0) == [code.H.get(i, j) for i in range(code.r)]


def test_syndrome_injective_within_radius():
    code = classical.golay23()
    seen = {}
    for w in range(code.t + 1):
        for supp in itertools.combinations(range(code.n), w):
            v = vector_from_support(supp, code.n)
            key = syndrome(code, v).row_data[0]
            assert key not in seen or seen[key] == supp
            seen[key] = supp


def test_encode_systematic_layout():
    code = classical.hamming(3)
    assert encode(code, BitMatrix([0], 4)).is_zero()
    cw = encode(code, BitMatrix.from_rows([[0, 0, 1, 0]]))
    assert row_bits(cw, 0)[:3] == [1, 1, 0]  # parity part of the worked example


def test_encode_distance_property():
    code = classical.bch(4, 3)
    words = [encode(code, BitMatrix([m], code.k)).row_data[0]
             for m in range(1 << code.k)]
    for a, b in itertools.combinations(range(0, 1 << code.k, 7), 2):
        assert (words[a] ^ words[b]).bit_count() >= code.d


def test_standard_array_hamming():
    code = classical.hamming(3)
    arr = classical.build_standard_array(code.H)
    assert len(arr) == 8
    weights = sorted(v.bit_count() for v in arr.values())
    assert weights == [0, 1, 1, 1, 1, 1, 1, 1]


def test_standard_array_repetition():
    arr = classical.build_standard_array(classical.repetition(3).H)
    assert sorted(arr.values()) == [0b000, 0b001, 0b010, 0b100]


def test_standard_array_weight_t_unique_leaders():
    code = classical.bch(4, 3)
    arr = classical.build_standard_array(code.H)
    for w in range(code.t + 1):
        for supp in itertools.combinations(range(code.n), w):
            v = sum(1 << i for i in supp)
            syn = syndrome(code, BitMatrix([v], code.n)).row_data[0]
            assert arr[syn] == v


def test_standard_array_size_guard():
    with pytest.raises(GF2Error, match="entries"):
        classical.build_standard_array(classical.bch(7, 6).H)


def test_standard_array_leaders_minimum_weight():
    code = classical.repetition(4)
    arr = classical.build_standard_array(code.H)
    for syn, leader in arr.items():
        # no lighter vector shares the coset
        for other in range(1 << code.n):
            s = syndrome(code, BitMatrix([other], code.n)).row_data[0]
            if s == syn:
                assert other.bit_count() >= leader.bit_count()


def reference_standard_array(code):
    """Leaders by an explicit sort of each weight's vectors by their bit
    tuple (b_0, ..., b_{n-1}); the first vector seen per syndrome wins."""
    col_syn = code.H.transpose().row_data
    leaders = {0: 0}
    for w in range(1, code.n + 1):
        if len(leaders) == 1 << code.r:
            break
        vectors = sorted((sum(1 << i for i in supp)
                          for supp in itertools.combinations(range(code.n), w)),
                         key=lambda v: tuple((v >> i) & 1 for i in range(code.n)))
        for v in vectors:
            s = 0
            for i in range(code.n):
                if v >> i & 1:
                    s ^= col_syn[i]
            leaders.setdefault(s, v)
    return leaders


TIE_BREAK_CODES = {
    **{f"hamming{m}": functools.partial(classical.hamming, m) for m in (2, 3, 4)},
    "golay23": classical.golay23,
    **{f"rep{n}": functools.partial(classical.repetition, n) for n in (2, 3, 5, 7)},
    **{f"spc{n}": functools.partial(classical.single_parity_check, n) for n in (2, 5, 9)},
    **{f"bch{m}_{t}": functools.partial(classical.bch, m, t)
       for m, t in [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 2)]},
}


@pytest.mark.parametrize("name", TIE_BREAK_CODES)
def test_standard_array_tie_breaks_match_bit_tuple_sort(name):
    """Every leader, tied cosets above weight t included, is the one the
    bit-tuple sort picks."""
    code = TIE_BREAK_CODES[name]()
    assert classical.build_standard_array(code.H) == reference_standard_array(code)
    assert code.standard_array is code.standard_array


def test_bm_decode_zero_word():
    code = classical.bch(4, 3)
    assert classical.bm_locate(code, 0) == []


def test_bm_decode_exhaustive_15_5_7():
    """Every codeword + every weight<=3 error recovers the exact support."""
    code = classical.bch(4, 3)
    words = [encode(code, BitMatrix([m], code.k)).row_data[0]
             for m in range(1 << code.k)]
    supports = [()]
    for w in range(1, 4):
        supports.extend(itertools.combinations(range(15), w))
    for cw in words[::3]:  # stride keeps runtime modest; all errors covered
        for supp in supports:
            err = sum(1 << i for i in supp)
            got = classical.bm_locate(code, cw ^ err)
            assert got is not None and tuple(sorted(got)) == tuple(sorted(supp))


def test_bm_decode_beyond_radius_never_silently_wrong():
    """Weight-4 corruptions either fail or match the brute-force decoder."""
    code = classical.bch(4, 3)
    rng = random.Random(17)
    for _ in range(200):
        msg = rng.randrange(1 << code.k)
        cw = encode(code, BitMatrix([msg], code.k)).row_data[0]
        supp = rng.sample(range(15), 4)
        word = cw ^ sum(1 << i for i in supp)
        got = classical.bm_locate(code, word)
        hits = brute_force_decode(code, word, code.t)
        if got is None:
            assert hits == []  # failure only when no codeword is in range
        else:
            corrected = word ^ sum(1 << i for i in got)
            assert (corrected, len(got)) in hits


@pytest.mark.parametrize("seed", range(4))
def test_bm_decode_random_127_85_13(seed):
    code = classical.bch(7, 6)
    rng = random.Random(seed)
    for _ in range(50):
        msg = rng.randrange(1 << 30)  # sparse message is fine
        cw = encode(code, BitMatrix([msg], code.k)).row_data[0]
        w = rng.randint(0, code.t)
        supp = rng.sample(range(127), w)
        word = cw ^ sum(1 << i for i in supp)
        got = classical.bm_locate(code, word)
        assert got is not None and sorted(got) == sorted(supp)


def test_bm_decode_requires_bch():
    with pytest.raises(GF2Error, match="BCH"):
        classical.bm_locate(classical.hamming(3), 0)


def test_galois_field_tables():
    gf = classical.GaloisField(4)
    assert gf.exp[gf.order] == 1  # alpha^(2^m - 1) = 1, read from the doubled table
    for a in range(1, 16):
        assert gf.mul(a, gf.inv(a)) == 1
        assert gf.exp[gf.log[a]] == a


# -- one BCH core: bm_locate against the scalar decoder it replaced ------------

def reference_syndromes(code, word):
    """S_1..S_2t of a packed word, one power of alpha per set bit and j."""
    gf = code.gf
    positions = [i for i in range(word.bit_length()) if (word >> i) & 1]
    return [functools.reduce(lambda s, i: s ^ gf.exp[i * j % gf.order], positions, 0)
            for j in range(1, 2 * code.t + 1)]


def reference_bm_decode(code, word):
    """The decoder bm_locate replaced: per-position syndromes, the same
    Berlekamp-Massey recursion, and a scalar Chien search."""
    gf, t = code.gf, code.t
    syn = reference_syndromes(code, word)
    if not any(syn):
        return []
    sigma, prev, L, shift, b = [1], [1], 0, 1, 1
    for idx in range(2 * t):
        delta = syn[idx]
        for j in range(1, L + 1):
            if j < len(sigma):
                delta ^= gf.mul(sigma[j], syn[idx - j])
        if delta == 0:
            shift += 1
            continue
        coef = gf.mul(delta, gf.inv(b))
        candidate = sigma[:]
        scaled = [gf.mul(coef, c) for c in prev]
        candidate += [0] * max(0, len(scaled) + shift - len(candidate))
        for j, c in enumerate(scaled):
            candidate[j + shift] ^= c
        if 2 * L <= idx:
            prev, b, L, shift = sigma, delta, idx + 1 - L, 1
        else:
            shift += 1
        sigma = candidate
    while sigma and sigma[-1] == 0:
        sigma.pop()
    deg = len(sigma) - 1
    if deg > t:
        return None
    locations = []
    for i in range(code.n):
        acc = 0
        for d, c in enumerate(sigma):
            if c:
                acc ^= gf.mul(c, gf.exp[(-i * d) % gf.order])
        if acc == 0:
            locations.append(i)
    if len(locations) != deg:
        return None
    corrected = word ^ sum(1 << i for i in locations)
    return None if any(reference_syndromes(code, corrected)) else locations


@pytest.mark.parametrize("m,t", [(4, 2), (5, 3)])
def test_bm_locate_matches_reference_on_every_light_word(m, t):
    """Every word of weight <= t+1, inside and just beyond the radius."""
    code = classical.bch(m, t)
    for w in range(t + 2):
        for supp in itertools.combinations(range(code.n), w):
            word = sum(1 << i for i in supp)
            assert classical.bm_locate(code, word) == reference_bm_decode(code, word), supp


@pytest.mark.parametrize("m,t", [(3, 1), (4, 3)])
def test_bm_locate_register_length_test_on_every_word(m, t):
    """The L == deg sigma test decides every word as the corrected-word
    syndrome re-check of the reference does."""
    code = classical.bch(m, t)
    for word in range(1 << code.n):
        assert classical.bm_locate(code, word) == reference_bm_decode(code, word), word


BIG_CODES = {127: classical.bch(7, 6), 1023: classical.bch(10, 11)}


def random_codeword(code, rng):
    return functools.reduce(lambda acc, row: acc ^ row,
                            (row for row in code.G.row_data if rng.getrandbits(1)), 0)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from(sorted(BIG_CODES)), seed=st.integers(0, 2 ** 32),
       within=st.booleans(), data=st.data())
def test_bm_locate_matches_reference_at_paper_scale(n, seed, within, data):
    """Random words, and codewords plus at most t errors, at n=127 and 1023."""
    code = BIG_CODES[n]
    rng = random.Random(seed)
    if within:
        errors = data.draw(st.sets(st.integers(0, n - 1), max_size=code.t))
        word = random_codeword(code, rng) ^ sum(1 << i for i in errors)
    else:
        word = rng.getrandbits(n)
    got = classical.bm_locate(code, word)
    assert got == reference_bm_decode(code, word)
    if within:
        assert got == sorted(errors)


def test_bm_locate_requires_bch():
    with pytest.raises(GF2Error, match="BCH"):
        classical.bm_locate(classical.golay23(), 1)


# -- shift-register encoder against the polynomial-division construction -------

def reference_cyclic_rows(n, genpoly):
    """G and H rows of the systematic cyclic code, one division per row."""
    def polymod2(a, g):
        while a.bit_length() >= g.bit_length():
            a ^= g << (a.bit_length() - g.bit_length())
        return a
    r = genpoly.bit_length() - 1
    parities = [polymod2(1 << (r + j), genpoly) for j in range(n - r)]
    g_rows = [p | (1 << (r + j)) for j, p in enumerate(parities)]
    h_rows = [(1 << i) | (sum(((p >> i) & 1) << j for j, p in enumerate(parities)) << r)
              for i in range(r)]
    return g_rows, h_rows


def test_cyclic_encoder_matches_polynomial_division():
    """Every distinct BCH generator for m <= 8, paper-scale BCH codes, Golay."""
    codes = [classical.golay23(), classical.bch(7, 6), classical.bch(9, 20),
             classical.bch(10, 11)]
    for m in range(2, 9):
        gens = set()
        for t in range(1, 1 << (m - 1)):
            try:
                code = classical.bch(m, t)
            except GF2Error:
                break
            if code.gen_poly not in gens:
                gens.add(code.gen_poly)
                codes.append(code)
    assert len(codes) > 60
    for code in codes:
        g_rows, h_rows = reference_cyclic_rows(code.n, code.gen_poly)
        assert list(code.G.row_data) == g_rows and list(code.H.row_data) == h_rows, (code.n, code.k)
