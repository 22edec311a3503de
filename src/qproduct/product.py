"""Kronecker product of a classical parity check with a CSS code.

Builds the product parity check H_C (x) H_Q and the map from each error
bit to its packed syndrome key, counts and constructs the syndrome lookup
table of the uniquely decodable class, reads and writes table files, and
channel-encodes measured syndromes with a two-dimensional product code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .classical import ClassicalCode
from .gf2 import BitMatrix, GF2Error
from .quantum import CssCode

TABLE_SIZE_GUARD = 10 ** 8
TABLE_BLOCK = 1 << 14  # patterns keyed per numpy block of a table build
TABLE_CHUNK = 1 << 14  # records formatted per write of a table file


@dataclass(frozen=True)
class ProductCode:
    """A (ClassicalCode, CssCode) pair with correction radii.

    ``hc_mode`` selects the classical matrix used as H_C:
      * "full": H_C = c.H, so L = c.n logical qubits;
      * "pt":   H_C = P^T of a systematic code, so L = c.k and the rows
        of Xi are themselves parity parts of codewords — the layout that
        tolerates syndrome measurement noise.
    """

    c: ClassicalCode
    q: CssCode
    hc_mode: str = "full"
    t_c: int = -1  # -1 means "use the classical code's radius"
    t_q: int = -1
    t_src: int = 0

    def __post_init__(self):
        if self.hc_mode not in ("full", "pt"):
            raise GF2Error(f"hc_mode must be 'full' or 'pt', got {self.hc_mode!r}")
        if self.hc_mode == "pt" and not self.c.is_systematic():
            raise GF2Error("pt mode requires a systematic classical code")
        if self.t_c < 0:
            object.__setattr__(self, "t_c", self.c.t)
        if self.t_q < 0:
            object.__setattr__(self, "t_q", self.q.t)
        if self.c.d < self.q.d:
            raise GF2Error(
                f"classical distance {self.c.d} < quantum distance {self.q.d}"
            )
        if not 0 <= self.t_src <= self.t_c:
            raise GF2Error(f"t_src={self.t_src} outside [0, t_c={self.t_c}]")

    @property
    def h_c(self) -> BitMatrix:
        return self.c.pt if self.hc_mode == "pt" else self.c.H

    @property
    def L(self) -> int:
        """Logical-qubit block length (columns of H_C)."""
        return self.h_c.cols

    @property
    def R(self) -> int:
        """Classical parity rows (rows of H_C)."""
        return self.h_c.rows

    @property
    def N(self) -> int:
        """Physical qubits in the block."""
        return self.q.n * self.L

    def key_bits(self, error_type: str = "X") -> int:
        return self.q.check_matrix(error_type).rows * self.R


@dataclass(frozen=True)
class ProductSyndrome:
    """Xi = H_Q eps H_C^T: row i is the classical syndrome measured against
    stabilizer i of H_Q, one bit per row of H_C."""

    matrix: BitMatrix  # stabilizer rows x R


def product_parity_check(pc: ProductCode, error_type: str = "X") -> BitMatrix:
    """H_C (x) H_Q for the requested error type."""
    return gf2.kron(pc.h_c, pc.q.check_matrix(error_type))


def key_map(hq: BitMatrix, hc: BitMatrix) -> list[int]:
    """Packed key of each vec bit l*n + q: column l of H_C placed at bits
    [i*R, (i+1)*R) for every row i of H_Q that checks qubit q."""
    r = hc.rows
    # one bit at i*R per checking row; times a column < 2^R, these never carry
    spread = [sum(1 << (i * r) for i in range(hq.rows) if (checks >> i) & 1)
              for checks in hq.transpose().row_data]
    return [col * s for col in hc.transpose().row_data for s in spread]


def class_map(q: CssCode, error_type: str, L: int) -> list[int]:
    """Class of each vec bit l*n + q, ``key_map`` of ``q.class_check`` over
    L columns: two n x L corrections are stabilizer-equivalent column by
    column iff ``gf2.xor_bits`` of this over their difference is 0."""
    return key_map(q.class_check(error_type), BitMatrix.identity(L))


def _column_patterns(n: int, t_q: int) -> list[int]:
    """The nonzero n-bit column patterns of weight <= t_Q, by weight then support."""
    return [sum(1 << i for i in supp) for w in range(1, t_q + 1)
            for supp in itertools.combinations(range(n), w)]


def class_E_size(pc: ProductCode, max_cols: int | None = None) -> int:
    """Keys of the X-error lookup table: the zero key and one per choice of c <= max_cols
    columns (default t_C) and of a nonzero syndrome of weight <= t_Q patterns in each."""
    max_cols = pc.t_c if max_cols is None else max_cols
    columns = pc.q.check_matrix("X").transpose().row_data
    classes = len({gf2.xor_bits(columns, p) for p in _column_patterns(pc.q.n, pc.t_q)} - {0})
    return sum(math.comb(pc.L, c) * classes ** c for c in range(max_cols + 1))


def n_words(bits: int) -> int:
    """uint64 words that hold a value of ``bits`` bits (at least one)."""
    return max(1, -(-bits // 64))


def as_words(values, w: int) -> np.ndarray:
    """(len(values), w) uint64 words of nonnegative ints, most significant first."""
    blob = b"".join(int(v).to_bytes(8 * w, "big") for v in values)
    return np.frombuffer(blob, dtype=">u8").astype(np.uint64).reshape(-1, w)


def from_words(words: np.ndarray) -> list[int]:
    """The Python ints of ``as_words`` rows."""
    blob, step = words.astype(">u8").tobytes(), 8 * words.shape[1]
    return [int.from_bytes(blob[i:i + step], "big") for i in range(0, len(blob), step)]


def _sortable(words: np.ndarray) -> np.ndarray:
    """Word rows as values that order as their ints do: the one word, or
    the words' big-endian bytes."""
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words, dtype=">u8").view(f"S{8 * words.shape[1]}")[:, 0]


@dataclass(frozen=True, eq=False)
class LookupTable:
    """Product syndrome key -> packed correction pattern, as sorted words:
    the one representation of built and loaded tables.

    Row i of the read-only ``keys`` holds a packed syndrome key (the XOR of
    ``key_map`` entries) as ``as_words`` words, in strictly ascending order;
    row i of ``fixes`` its correction, with bit l*n + q for qubit q of
    column l.
    """

    pc: ProductCode
    error_type: str
    key_bits: int
    max_cols: int  # cap on columns hit the table was built with
    keys: np.ndarray
    fixes: np.ndarray

    def __post_init__(self):
        self.keys.flags.writeable = self.fixes.flags.writeable = False

    @property
    def entries(self) -> np.ndarray:
        """``keys``, kept only for perfbench's ``len(table.entries)``."""
        return self.keys

    def rows(self, words: np.ndarray) -> np.ndarray:
        """Row of each query key (as words) in ``keys`` by binary search, or -1."""
        stored, want = _sortable(self.keys), _sortable(words)
        if not len(stored):
            return np.full(len(want), -1)
        at = np.searchsorted(stored, want)
        return np.where(stored.take(at, mode="clip") == want, at, -1)


def build_lookup_table(pc: ProductCode, error_type: str = "X",
                       max_cols: int | None = None) -> LookupTable:
    """Enumerate the uniquely decodable class and key it by syndrome.

    Enumeration order is by number of columns hit, then column combination,
    then per-column pattern.  Each column count is keyed in numpy blocks of
    at most TABLE_BLOCK patterns: a pattern's key is the XOR of its columns'
    key words and its correction the OR of theirs.  One stable sort of all
    keys then gives the table's rows, each holding its key's first-enumerated
    pattern.  Patterns sharing a syndrome must differ column-wise by quantum
    stabilizer elements (degeneracy): ``class_map``, built only if two
    patterns share a key, must send their difference to 0, or the build
    aborts with the first such pair enumerated and the shared key.

    ``max_cols`` caps the number of columns hit (default t_C).  Noisy
    syndrome decoding passes t_src here, so the keys keep the pairwise
    separation d_C - 2 t_src that nearest-neighbor queries rely on.
    """
    if max_cols is None:
        max_cols = pc.t_c
    if not 0 <= max_cols <= pc.t_c:
        raise GF2Error(f"max_cols={max_cols} outside [0, t_c={pc.t_c}]")
    n = pc.q.n
    hq, hc = pc.q.check_matrix(error_type), pc.h_c
    # per-column patterns of weight 1..t_q; row ell * len(patterns) + pi of
    # key_of and fix_of is the key and the correction of pattern pi in column ell
    patterns = _column_patterns(n, pc.t_q)
    # the patterns enumerated, from this H_C: each read of pc.h_c rebuilds it
    size = sum(math.comb(hc.cols, c) * len(patterns) ** c for c in range(max_cols + 1))
    if size > TABLE_SIZE_GUARD:
        raise GF2Error(
            f"lookup table would hold {size} entries (limit {TABLE_SIZE_GUARD})"
        )
    bit_keys = key_map(hq, hc)
    key_bits = hq.rows * hc.rows
    columns = [bit_keys[ell * n:(ell + 1) * n] for ell in range(hc.cols)]
    key_of = as_words([gf2.xor_bits(col, pat) for col in columns for pat in patterns],
                      n_words(key_bits))
    fix_of = as_words([pat << (ell * n) for ell in range(hc.cols) for pat in patterns],
                      n_words(n * hc.cols))

    keys = [np.zeros((1, key_of.shape[1]), dtype=np.uint64)]  # the zero pattern
    fixes = [np.zeros((1, fix_of.shape[1]), dtype=np.uint64)]
    for c in range(1, max_cols + 1):
        combos = np.array(list(itertools.combinations(range(hc.cols), c)),
                          dtype=np.intp).reshape(-1, c)
        per_combo = len(patterns) ** c
        total = len(combos) * per_combo
        for start in range(0, total, TABLE_BLOCK):
            combo, choice = np.divmod(np.arange(start, min(start + TABLE_BLOCK, total)), per_combo)
            key, fix = 0, 0
            for j in reversed(range(c)):  # the last column's pattern varies fastest
                choice, pi = np.divmod(choice, len(patterns))
                at = combos[combo, j] * len(patterns) + pi
                key, fix = key ^ key_of[at], fix | fix_of[at]
            keys.append(key)
            fixes.append(fix)
    keys, fixes = np.concatenate(keys), np.concatenate(fixes)
    order = np.lexsort(keys.T[::-1])  # stable: enumeration order within a key
    keys, fixes = keys[order], fixes[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    clash = np.flatnonzero(~new)
    if len(clash):  # the class map is built only if two patterns share a key
        lead = np.flatnonzero(new)[np.cumsum(new) - 1]  # row of each key's first pattern
        classes = class_map(pc.q, error_type, hc.cols)
        bad = [i for i, diff in zip(clash, from_words(fixes[clash] ^ fixes[lead[clash]]))
               if gf2.xor_bits(classes, diff)]
        if bad:
            i = min(bad, key=order.__getitem__)  # the first conflict enumerated
            other, packed, key = from_words(fixes[[lead[i], i]]) + from_words(keys[[i]])
            raise GF2Error(f"syndrome conflict: patterns {other:#x} and {packed:#x} share "
                           f"key {key:#x} but are not stabilizer-equivalent")
    return LookupTable(pc, error_type, key_bits, max_cols, keys[new], fixes[new])


# -- lookup-table file format ----------------------------------------------
# An ASCII header line, TABLE_MAGIC then name=value fields, then exactly
# `entries` records in strictly ascending key order, all of one width: the
# key as ceil(key_bits/4) and the correction as ceil(n*L/4) zero-padded
# lowercase hex digits, a space between them and a newline after.  The writer
# formats TABLE_CHUNK records per write, so it never holds the whole file as
# text.  The loader reads the records as one byte array and checks them all
# at once; the fixed width lets it turn each field into words TABLE_CHUNK
# records at a time, with no per-record parse.

TABLE_MAGIC = "qproduct-lut2"
OLD_MAGIC = "qproduct-lut"  # variable-width records "%x %x"
TABLE_FIELDS = ("c", "q", "mode", "type", "tc", "tq", "mc", "key_bits", "n", "L",
                "entries")
HEX_DIGITS = b"0123456789abcdef"


def _code_fields(pc: ProductCode, error_type: str) -> dict[str, str]:
    """The header fields naming a table's code and error type, in file order."""
    return {"c": f"{pc.c.kind}:{pc.c.n}:{pc.c.k}", "q": pc.q.kind, "mode": pc.hc_mode,
            "type": error_type, "tc": str(pc.t_c), "tq": str(pc.t_q)}


def _table_header(pc: ProductCode, error_type: str, max_cols: int,
                  entries: int) -> dict[str, str]:
    """Header fields of a table file for this code, in file order."""
    rest = (max_cols, pc.key_bits(error_type), pc.q.n, pc.L, entries)
    return _code_fields(pc, error_type) | {name: str(v) for name, v in zip(TABLE_FIELDS[6:], rest)}


def check_table(table: LookupTable, pc: ProductCode, error_type: str, key_bits: int) -> None:
    """Refuse a table built for another code or error type: the header fields
    c, q, mode, type, tc, tq and key_bits of its file must match.  The caller
    passes the code's key_bits, since each read of ``pc.h_c`` rebuilds H_C."""
    mine = _code_fields(table.pc, table.error_type) | {"key_bits": str(table.key_bits)}
    for name, want in (_code_fields(pc, error_type) | {"key_bits": str(key_bits)}).items():
        if mine[name] != want:
            raise GF2Error(f"table built for {name}={mine[name]}, not {want}")


def _hex_field(words: np.ndarray, digits: int) -> np.ndarray:
    """(rows, digits) ASCII hex digits of word rows; refuses a wider value."""
    text = np.frombuffer(words.astype(">u8").tobytes().hex().encode(), dtype=np.uint8)
    text = text.reshape(len(words), -1)
    if (text[:, :-digits] != ord("0")).any():
        raise GF2Error(f"a table value does not fit {digits} hex digits")
    return text[:, -digits:]


def _field_words(field: np.ndarray) -> np.ndarray:
    """``as_words`` rows of (rows, d) ASCII hex digits, TABLE_CHUNK rows at a time."""
    words = np.empty((len(field), n_words(4 * field.shape[1])), dtype=np.uint64)
    for start in range(0, len(field), TABLE_CHUNK):
        part = field[start:start + TABLE_CHUNK]
        padded = np.full((len(part), 16 * words.shape[1]), ord("0"), dtype=np.uint8)
        padded[:, padded.shape[1] - part.shape[1]:] = part
        words[start:start + len(part)] = np.frombuffer(
            bytes.fromhex(padded.tobytes().decode()), dtype=">u8").reshape(len(part), -1)
    return words


def save_lookup_table(table: LookupTable, path: str) -> None:
    header = _table_header(table.pc, table.error_type, table.max_cols, len(table.keys))
    kd, fd = -(-table.key_bits // 4), -(-table.pc.q.n * int(header["L"]) // 4)
    with open(path, "wb") as fh:
        fh.write(" ".join([TABLE_MAGIC, *(f"{k}={v}" for k, v in header.items())]).encode()
                 + b"\n")
        for start in range(0, len(table.keys), TABLE_CHUNK):
            chunk = slice(start, start + TABLE_CHUNK)
            records = np.full((len(table.keys[chunk]), kd + fd + 2), ord(" "), dtype=np.uint8)
            records[:, :kd] = _hex_field(table.keys[chunk], kd)
            records[:, kd + 1:-1] = _hex_field(table.fixes[chunk], fd)
            records[:, -1] = ord("\n")
            fh.write(records.tobytes())


def load_lookup_table(path: str, pc: ProductCode) -> LookupTable:
    """Read a table file, refusing one built for another code or one whose
    records depart from the format."""
    with open(path, "rb") as fh:
        head, body = fh.readline(), fh.read()
    try:
        header = head.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise GF2Error(f"{path}: {exc}") from None
    if header[:1] == [OLD_MAGIC]:
        raise GF2Error(f"{path} holds variable-width records, a format this version "
                       f"does not read; rebuild it with qproduct product build-table")
    if header[:1] != [TABLE_MAGIC]:
        raise GF2Error(f"{path} is not a lookup-table file")
    fields = dict(tok.partition("=")[::2] for tok in header[1:])
    missing = [name for name in TABLE_FIELDS if name not in fields]
    if missing:
        raise GF2Error(f"{path}: header lacks {', '.join(missing)}")
    try:
        max_cols, count = int(fields["mc"]), int(fields["entries"])
    except ValueError as exc:
        raise GF2Error(f"{path}: malformed table file ({exc})") from None
    expected = _table_header(pc, fields["type"], max_cols, count)
    if fields["key_bits"] != expected["key_bits"]:
        raise GF2Error(
            f"{path}: key length {fields['key_bits']} does not match "
            f"product code ({expected['key_bits']})"
        )
    for name, want in expected.items():
        if fields[name] != want:
            raise GF2Error(f"{path}: header {name}={fields[name]} does not match {want}")
    if not 0 <= max_cols <= pc.t_c:
        raise GF2Error(f"{path}: mc={max_cols} outside [0, t_c={pc.t_c}]")
    key_bits, fix_bits = int(expected["key_bits"]), pc.q.n * int(expected["L"])
    kd, fd = -(-key_bits // 4), -(-fix_bits // 4)
    if len(body) != count * (kd + fd + 2):
        raise GF2Error(f"{path}: malformed table file ({len(body)} bytes of records, not "
                       f"the {count} records of {kd + fd + 2} bytes its header declares)")
    lines = np.frombuffer(body, dtype=np.uint8).reshape(count, kd + fd + 2)
    # every byte but one space and one newline per record is a lowercase hex digit
    if (body.translate(None, HEX_DIGITS) != b" \n" * count
            or (lines[:, kd] != ord(" ")).any() or (lines[:, -1] != ord("\n")).any()):
        raise GF2Error(f"{path}: malformed table file (a record is not {kd} lowercase "
                       f"hex digits, a space, {fd} digits and a newline)")
    for name, field, bits in (("key", lines[:, :kd], key_bits),
                              ("correction", lines[:, kd + 1:-1], fix_bits)):
        top = HEX_DIGITS[(1 << (bits + 4 - 4 * field.shape[1])) - 1]  # largest leading digit
        if count and field[:, 0].max() > top:
            raise GF2Error(f"{path}: a record's {name} is outside [0, 2^{bits})")
    keys = _field_words(lines[:, :kd])
    order = _sortable(keys)
    if (order[1:] <= order[:-1]).any():
        repeats = np.count_nonzero(order[1:] == order[:-1])
        raise GF2Error(f"{path}: {repeats} repeated key(s)" if repeats else f"{path}: keys "
                       f"out of order at record {(order[1:] < order[:-1]).argmax() + 2}")
    return LookupTable(pc, fields["type"], key_bits, max_cols, keys,
                       _field_words(lines[:, kd + 1:-1]))


# -- channel coding of the measured syndrome --------------------------------

def channel_encode(pc: ProductCode, g1: ClassicalCode, g2: ClassicalCode,
                   error_type: str = "X") -> BitMatrix:
    """Channel-coded parity check G1^T H_C (x) G2^T H_Q.

    g1 protects the R-bit rows of Xi and g2 the per-stabilizer columns;
    measuring the rows of the result yields an already-encoded syndrome.
    """
    hq = pc.q.check_matrix(error_type)
    if g1.k != pc.R:
        raise GF2Error(f"g1.k={g1.k} must equal R={pc.R}")
    if g2.k != hq.rows:
        raise GF2Error(f"g2.k={g2.k} must equal stabilizer count {hq.rows}")
    left = gf2.mul(g1.G.transpose(), pc.h_c)
    right = gf2.mul(g2.G.transpose(), hq)
    return gf2.kron(left, right)


def channel_block(xi: ProductSyndrome, g1: ClassicalCode, g2: ClassicalCode) -> BitMatrix:
    """Two-dimensional systematic layout of a measured syndrome.

    Returns the n2 x n1 array [[P2^T Xi P1, P2^T Xi], [Xi P1, Xi]]: data
    block bottom-right, row/column parities alongside, and the corner
    block holding parities of parities (the check-on-checks).
    """
    m = xi.matrix
    if g1.k != m.cols:
        raise GF2Error(f"g1.k={g1.k} must equal Xi columns {m.cols}")
    if g2.k != m.rows:
        raise GF2Error(f"g2.k={g2.k} must equal Xi rows {m.rows}")
    p1 = g1.P  # k1 x (n1-k1)
    p2 = g2.P
    row_par = gf2.mul(m, p1)                     # k2 x (n1-k1)
    col_par = gf2.mul(p2.transpose(), m)         # (n2-k2) x k1
    corner = gf2.mul(p2.transpose(), row_par)    # (n2-k2) x (n1-k1)
    top = corner.hstack(col_par)
    bottom = row_par.hstack(m)
    return top.vstack(bottom)
