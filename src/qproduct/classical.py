"""Classical binary linear block codes.

Constructors for the Hamming, BCH, Golay, repetition and single-parity-check
families, standard arrays (coset-leader tables), and an algebraic BCH decoder
(Berlekamp-Massey plus Chien search) over GF(2^m).

All cyclic constructions emit systematic matrices G = [P | I_k] and
H = [I_{n-k} | P^T], so codewords carry the parity part first and the
message last.  The BCH generator is g(x) = prod (x + alpha^j) over the
root set C, the union of the cyclotomic cosets of 1, 3, ..., 2t-1, so
deg g = |C| = R <= m t.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gf2
from .gf2 import BitMatrix, GF2Error

# Standard minimal-weight primitive polynomials, as integer bit masks
# (bit i = coefficient of x^i).  These fix the codeword bit patterns of
# the BCH constructions; the code parameters do not depend on the choice.
PRIMITIVE_POLYS = {
    2: 0b111,              # x^2 + x + 1
    3: 0b1011,             # x^3 + x + 1
    4: 0b10011,            # x^4 + x + 1
    5: 0b100101,           # x^5 + x^2 + 1
    6: 0b1000011,          # x^6 + x + 1
    7: 0b10001001,         # x^7 + x^3 + 1
    8: 0b100011101,        # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,       # x^9 + x^4 + 1
    10: 0b10000001001,     # x^10 + x^3 + 1
}

GOLAY23_GENPOLY = (1 << 11) | (1 << 10) | (1 << 6) | (1 << 5) | (1 << 4) | (1 << 2) | 1


class GaloisField:
    """GF(2^m) with exp/log tables over the primitive polynomial PRIMITIVE_POLYS[m]."""

    def __init__(self, m: int):
        if m not in PRIMITIVE_POLYS:
            raise GF2Error(f"no default primitive polynomial for m={m}")
        poly = PRIMITIVE_POLYS[m]
        self.m = m
        self.order = (1 << m) - 1
        self.exp = [0] * (2 * self.order)
        self.log = [0] * (1 << m)
        x = 1
        for i in range(self.order):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x >> m:
                x ^= poly
        if x != 1:
            raise GF2Error(f"polynomial {poly:#b} is not primitive for m={m}")
        for i in range(self.order, 2 * self.order):
            self.exp[i] = self.exp[i - self.order]
        self.exp_array = np.array(self.exp[:self.order])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        return self.exp[self.order - self.log[a]]

    def cyclotomic_coset(self, i: int) -> list[int]:
        coset = []
        j = i % self.order
        while j not in coset:
            coset.append(j)
            j = (2 * j) % self.order
        return coset


@dataclass(frozen=True)
class ClassicalCode:
    """[n, k, d] binary linear block code with systematic matrices where possible."""

    n: int
    k: int
    d: int  # design distance
    G: BitMatrix
    H: BitMatrix
    kind: str
    gf: GaloisField | None = field(default=None, compare=False, repr=False)
    gen_poly: int = 0

    @property
    def t(self) -> int:
        return (self.d - 1) // 2

    @property
    def r(self) -> int:
        return self.n - self.k

    def is_systematic(self) -> bool:
        """True when G = [P | I_k]."""
        ident = gf2.BitMatrix.identity(self.k)
        tail = self.G.submatrix(range(self.k), range(self.r, self.n))
        return tail == ident

    @property
    def P(self) -> BitMatrix:
        """The k x (n-k) parity block of G = [P | I_k]."""
        if not self.is_systematic():
            raise GF2Error("generator is not in systematic [P | I] form")
        return self.G.submatrix(range(self.k), range(self.r))

    @property
    def pt(self) -> BitMatrix:
        """P^T, the (n-k) x k parity block used as H_C in noisy-syndrome mode."""
        return self.P.transpose()

    @cached_property
    def odd_syndromes(self) -> list[int]:
        """BCH syndrome table for ``bm_locate``: entry i packs alpha^(i j) for
        j = 1, 3, ..., 2t-1 into m-bit fields, lowest j first, so a word's
        odd syndromes are the XOR of the entries of its set bits."""
        if self.kind != "bch" or self.gf is None:
            raise GF2Error(f"BCH syndromes require a BCH code, got kind={self.kind!r}")
        gf = self.gf
        m, order = gf.m, gf.order
        return [sum(gf.exp[i * j % order] << (f * m)
                    for f, j in enumerate(range(1, 2 * self.t, 2)))
                for i in range(self.n)]

    @cached_property
    def standard_array(self) -> dict[int, int]:
        """Coset leader of each syndrome, built on first use and kept with
        this code."""
        return build_standard_array(self.H)


def _cyclic_systematic(n: int, genpoly: int, d: int, kind: str,
                       gf: GaloisField | None = None) -> ClassicalCode:
    """Systematic code from a cyclic generator polynomial.

    Row j of G is x^(r+j) + (x^(r+j) mod g): parity bits in coordinates
    0..r-1, message bit at coordinate r+j.
    """
    r = genpoly.bit_length() - 1
    k = n - r
    parities = []
    parity = genpoly ^ (1 << r)  # x^r mod g
    for _ in range(k):
        parities.append(parity)
        parity <<= 1  # shift register: x^(r+j+1) mod g from x^(r+j) mod g
        if parity >> r:
            parity ^= genpoly
    G = BitMatrix([p | (1 << (r + j)) for j, p in enumerate(parities)], n)
    pt_rows = BitMatrix(parities, r).transpose().row_data
    H = BitMatrix([(1 << i) | (pt_rows[i] << r) for i in range(r)], n)
    return ClassicalCode(n=n, k=k, d=d, G=G, H=H, kind=kind, gf=gf, gen_poly=genpoly)


def hamming(m: int) -> ClassicalCode:
    """[2^m - 1, 2^m - 1 - m, 3] Hamming code in systematic form."""
    if m < 2:
        raise GF2Error(f"hamming requires m >= 2, got {m}")
    n = (1 << m) - 1
    k = n - m
    if m == 3:
        # Column order fixed by the worked bit-flip example: the P^T columns
        # for logical qubits 1..4 are [1,0,1], [1,1,1], [1,1,0], [0,1,1].
        pt_cols = [(1, 0, 1), (1, 1, 1), (1, 1, 0), (0, 1, 1)]
    else:
        cols = [v for v in range(1, 1 << m) if v.bit_count() >= 2]
        cols.sort()
        pt_cols = [tuple((v >> i) & 1 for i in range(m)) for v in cols]
    pt = BitMatrix.from_rows([[c[i] for c in pt_cols] for i in range(m)], k)
    H = BitMatrix.identity(m).hstack(pt)
    G = pt.transpose().hstack(BitMatrix.identity(k))
    return ClassicalCode(n=n, k=k, d=3, G=G, H=H, kind="hamming")


def bch(m: int, t: int) -> ClassicalCode:
    """Narrow-sense binary BCH code of length 2^m - 1 and design distance 2t+1."""
    n = (1 << m) - 1
    if 2 * t + 1 > n:
        raise GF2Error(f"bch design distance 2*{t}+1 exceeds length {n}")
    gf = GaloisField(m)
    roots = sorted({j for i in range(1, 2 * t, 2) for j in gf.cyclotomic_coset(i)})
    coeffs = [1]  # g(x) over GF(2^m), low degree first
    for j in roots:  # times (x + alpha^j)
        coeffs = [hi ^ (gf.exp[gf.log[lo] + j] if lo else 0)
                  for hi, lo in zip([0] + coeffs, coeffs + [0])]
    if any(c > 1 for c in coeffs):
        raise GF2Error("bch generator has a non-binary coefficient")
    genpoly = sum(c << e for e, c in enumerate(coeffs))
    return _cyclic_systematic(n, genpoly, 2 * t + 1, "bch", gf=gf)


def golay23() -> ClassicalCode:
    """[23, 12, 7] binary Golay code."""
    return _cyclic_systematic(23, GOLAY23_GENPOLY, 7, "golay")


def repetition(n: int) -> ClassicalCode:
    """[n, 1, n] repetition code; H rows match the ZZI/ZIZ stabilizer layout."""
    if n < 2:
        raise GF2Error(f"repetition requires n >= 2, got {n}")
    G = BitMatrix([(1 << n) - 1], n)
    H = BitMatrix([1 | (1 << (r + 1)) for r in range(n - 1)], n)
    return ClassicalCode(n=n, k=1, d=n, G=G, H=H, kind="repetition")


def single_parity_check(n: int) -> ClassicalCode:
    """[n, n-1, 2] single-parity-check code."""
    if n < 2:
        raise GF2Error(f"spc requires n >= 2, got {n}")
    H = BitMatrix([(1 << n) - 1], n)
    ones = BitMatrix([1] * (n - 1), 1)
    G = ones.hstack(BitMatrix.identity(n - 1))
    return ClassicalCode(n=n, k=n - 1, d=2, G=G, H=H, kind="spc")


def minimum_distance(G: BitMatrix) -> int:
    """Minimum codeword weight by exhaustive span enumeration (2^k words)."""
    if G.rows == 0:
        return 0
    best = G.cols + 1
    for mask in range(1, 1 << G.rows):
        w = gf2.xor_bits(G.row_data, mask).bit_count()
        if w and w < best:
            best = w
    return best


STANDARD_ARRAY_LIMIT = 1 << 24  # most syndromes build_standard_array enumerates


def build_standard_array(h: BitMatrix) -> dict[int, int]:
    """Coset leader (packed int) of each of the 2^r syndromes (packed int)
    of a full-rank r x n check matrix h: minimum weight, ties broken by the
    smallest bit string (b_0, b_1, ..., b_{n-1}).

    Equal-weight supports first differ at the smallest element of their
    symmetric difference, which lies in the lexicographically first one,
    so reversed ``combinations`` order is ascending bit-string order.
    """
    total = 1 << h.rows
    if total > STANDARD_ARRAY_LIMIT:
        raise GF2Error(
            f"standard array would need {total} entries (limit {STANDARD_ARRAY_LIMIT})"
        )
    col_syn = h.transpose().row_data
    leaders: dict[int, int] = {0: 0}
    for w in range(1, h.cols + 1):
        if len(leaders) == total:
            break
        for support_ in reversed(list(itertools.combinations(range(h.cols), w))):
            pattern = sum(1 << i for i in support_)
            leaders.setdefault(gf2.xor_bits(col_syn, pattern), pattern)
    if len(leaders) != total:
        raise GF2Error("standard array incomplete; H is rank deficient")
    return leaders


# -- Berlekamp-Massey decoding ---------------------------------------------

def bm_locate(code: ClassicalCode, word: int) -> list[int] | None:
    """Error support of a received word of a BCH code, packed into an n-bit
    int, in ascending order.

    Returns the error locations when a codeword lies within Hamming
    distance t, otherwise None.  A None return is the normal
    beyond-radius outcome, not a fault.

    The register length L of the Berlekamp-Massey LFSR sigma decides
    this without re-checking the corrected word (Massey, IEEE Trans. IT
    1969).  If word + error is a codeword with e <= t errors, their
    locator has length e and generates S_1..S_2t; the shortest LFSR is
    unique when 2L <= 2t, so L = deg sigma = e.  Conversely, if
    L = deg sigma <= t and sigma has deg distinct roots X_l, then
    S_j = sum Y_l X_l^j; S_2j = S_j^2 gives a Vandermonde system in the
    X_l^2 that forces every Y_l into {0, 1}, and the minimality of L
    rules out 0, so flipping the deg roots leaves a codeword.
    """
    packed = gf2.xor_bits(code.odd_syndromes, word)
    if not packed:
        return []
    gf = code.gf
    m, t, mask = gf.m, code.t, gf.order  # order = 2^m - 1, one field
    syn = [0] * (2 * t)  # syn[j - 1] = S_j; S_2j = S_j^2 over GF(2)
    for j in range(t):
        syn[2 * j] = (packed >> (j * m)) & mask
    exp, log = gf.exp, gf.log
    for j in range(1, t + 1):
        s = syn[j - 1]
        syn[2 * j - 1] = exp[2 * log[s]] if s else 0

    # Berlekamp-Massey: error-locator polynomial sigma (low degree first)
    sigma = [1]
    prev = [1]
    L = 0
    shift = 1
    b = 1
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
        need = len(scaled) + shift
        if need > len(candidate):
            candidate += [0] * (need - len(candidate))
        for j, c in enumerate(scaled):
            candidate[j + shift] ^= c
        if 2 * L <= idx:
            prev = sigma
            b = delta
            L = idx + 1 - L
            shift = 1
        else:
            shift += 1
        sigma = candidate
    while sigma and sigma[-1] == 0:
        sigma.pop()
    deg = len(sigma) - 1
    if deg > t or L != deg:
        return None
    locations = _chien_roots(gf, sigma, code.n)
    return locations if len(locations) == deg else None


def _chien_roots(gf: GaloisField, sigma: list[int], n: int) -> list[int]:
    """Positions i < n with sigma(alpha^-i) = 0, all n at once: the term
    c_d alpha^(-i d) is exp[(log c_d - i d) mod (2^m - 1)]."""
    d = np.array([j for j, c in enumerate(sigma) if c])
    logs = np.array([gf.log[sigma[j]] for j in d.tolist()])
    exps = (logs[:, None] - d[:, None] * np.arange(n)) % gf.order
    values = np.bitwise_xor.reduce(gf.exp_array[exps], axis=0)
    return np.flatnonzero(values == 0).tolist()
