"""Test-side conversions and brute-force references shared by the test modules.

Nothing in the package calls these; they build inputs and read results in
the forms the tests compare against (lists, numpy arrays, supports, dicts),
and hold the slow reference layouts (``ErrorPattern``, ``extract_syndrome``,
``normalizer_generators``) the package's packed paths are checked against.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from qproduct import decoder, gf2, quantum
from qproduct.classical import ClassicalCode
from qproduct.gf2 import BitMatrix, GF2Error
from qproduct.product import (LookupTable, ProductCode, ProductSyndrome, as_words, from_words,
                              n_words)
from qproduct.quantum import CssCode, PauliOp


def from_numpy(arr) -> BitMatrix:
    arr = np.atleast_2d(np.asarray(arr, dtype=np.uint8) & 1)
    return BitMatrix.from_rows(arr.tolist())


def to_lists(m: BitMatrix) -> list[list[int]]:
    return [row_bits(m, i) for i in range(m.rows)]


def to_numpy(m: BitMatrix) -> np.ndarray:
    return np.array(to_lists(m), dtype=np.uint8).reshape(m.rows, m.cols)


def vector_from_support(support: Iterable[int], n: int) -> BitMatrix:
    acc = 0
    for i in support:
        if not 0 <= i < n:
            raise GF2Error(f"support index {i} out of range for length {n}")
        acc |= 1 << i
    return BitMatrix([acc], n)


def int_to_bits(value: int, n: int) -> list[int]:
    return [(value >> i) & 1 for i in range(n)]


def row_bits(m: BitMatrix, i: int) -> list[int]:
    return int_to_bits(m.row_data[i], m.cols)


def vec(m: BitMatrix) -> BitMatrix:
    """Column-stacking vectorization: entry (r, c) maps to index c*rows + r."""
    acc = 0
    for c, col in enumerate(m.transpose().row_data):
        acc |= col << (c * m.rows)
    return BitMatrix([acc], m.rows * m.cols)


def unvec(v: BitMatrix, rows: int, cols: int) -> BitMatrix:
    """The inverse of vec."""
    if v.rows != 1 or v.cols != rows * cols:
        raise GF2Error(
            f"unvec length mismatch: {v.rows}x{v.cols} vs {rows}*{cols}"
        )
    bits = v.row_data[0]
    return BitMatrix([bits >> (c * rows) for c in range(cols)], rows).transpose()


def syndrome(code: ClassicalCode, v: BitMatrix) -> BitMatrix:
    """H v^T as a 1 x (n-k) row vector."""
    if v.rows != 1 or v.cols != code.n:
        raise GF2Error(f"expected a 1x{code.n} vector, got {v.rows}x{v.cols}")
    return gf2.mul(code.H, v.transpose()).transpose()


def encode(code: ClassicalCode, msg: BitMatrix) -> BitMatrix:
    """Systematic encoding m -> [m P | m]."""
    if msg.rows != 1 or msg.cols != code.k:
        raise GF2Error(f"expected a 1x{code.k} message, got {msg.rows}x{msg.cols}")
    return gf2.mul(msg, code.P).hstack(msg)


def q_syndrome(q: CssCode, e: PauliOp) -> tuple[BitMatrix, BitMatrix]:
    """(Sigma_X, Sigma_Z) = (HZ u^T, HX v^T) for the error [u | v]."""
    if e.n != q.n:
        raise GF2Error(f"operator length {e.n} != code length {q.n}")
    u = BitMatrix([e.x], q.n)
    v = BitMatrix([e.z], q.n)
    sx = gf2.mul(q.hz, u.transpose()).transpose() if q.hz.rows else BitMatrix.zeros(1, 0)
    sz = gf2.mul(q.hx, v.transpose()).transpose() if q.hx.rows else BitMatrix.zeros(1, 0)
    return sx, sz


def stabilizer_span(q: CssCode, error_type: str) -> frozenset[int]:
    """Every same-type stabilizer element, as a packed n-bit int: the
    enumerated reference for ``CssCode.class_check``."""
    red, r, _ = gf2.rref(q.stabilizer_matrix(error_type))
    space = {0}
    for b in red.row_data[:r]:
        space |= {s ^ b for s in space}
    return frozenset(space)


def differs_by_stabilizers(diff: int, n: int, span: frozenset[int]) -> bool:
    """True when every n-bit column of a packed difference lies in ``span``:
    the column-wise reference for ``product.class_map``.

    ``diff`` is the XOR of two n x L patterns packed column after column
    (``ErrorPattern.packed``); one n-bit pattern is the L = 1 case.
    """
    mask = (1 << n) - 1
    while diff:
        if (diff & mask) not in span:
            return False
        diff >>= n
    return True


def count_class_evaluations(monkeypatch, module) -> dict[str, int]:
    """Patch ``module.class_map`` and ``gf2.xor_bits`` to count the class
    maps the module builds ("maps") and the xor_bits calls over one of them
    ("evaluations"); returns the live counts."""
    counts = {"maps": 0, "evaluations": 0}
    built = []
    class_map, xor_bits = module.class_map, gf2.xor_bits

    def counting_class_map(*args):
        counts["maps"] += 1
        built.append(class_map(*args))
        return built[-1]

    def counting_xor_bits(values, packed):
        counts["evaluations"] += any(values is m for m in built)
        return xor_bits(values, packed)

    monkeypatch.setattr(module, "class_map", counting_class_map)
    monkeypatch.setattr(gf2, "xor_bits", counting_xor_bits)
    return counts


@dataclass(frozen=True)
class ErrorPattern:
    """n_Q x L error pattern, one column per logical qubit."""

    matrix: BitMatrix
    error_type: str = "X"

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def L(self) -> int:
        return self.matrix.cols

    def column_weights(self) -> list[int]:
        return self.matrix.transpose().row_weights()

    def packed(self) -> int:
        """vec() packing: bit L*n_q + q holds entry (q, L)."""
        return vec(self.matrix).row_data[0]


def extract_syndrome(pc: ProductCode, e: ErrorPattern) -> ProductSyndrome:
    """Xi = H_Q eps H_C^T; equals the reshaped (H_C (x) H_Q) vec(eps)."""
    if (e.n, e.L) != (pc.q.n, pc.L):
        raise GF2Error(
            f"pattern shape {e.n}x{e.L} does not match product {pc.q.n}x{pc.L}"
        )
    hq = pc.q.check_matrix(e.error_type)
    xi = gf2.mul(gf2.mul(hq, e.matrix), pc.h_c.transpose())
    return ProductSyndrome(xi)


def syndrome_key(xi: ProductSyndrome) -> int:
    """The packed key vec(Xi^T) of a syndrome, stabilizer-major: bits
    [i*R, (i+1)*R) hold row i of Xi, as in ``product.key_map``."""
    r = xi.matrix.cols
    acc = 0
    for i, row in enumerate(xi.matrix.row_data):
        acc |= row << (i * r)
    return acc


def normalizer_generators(pc: ProductCode, error_type: str = "X") -> list[ErrorPattern]:
    """Column generators e_l (x) eta and row generators g (x) E_q.

    eta ranges over the quantum code's same-type stabilizers and logical
    operators; g over a basis of the classical code ker(H_C); E_q over
    single-qubit errors.  Every generator has zero product syndrome.
    """
    q = pc.q
    etas = [op.x if error_type == "X" else op.z
            for op in quantum.normalizer_generators(q, error_type)]
    gens = []
    for ell in range(pc.L):
        for eta in etas:
            cols = [0] * pc.L
            cols[ell] = eta
            gens.append(pattern_from_columns(cols, q.n, error_type))
    codeword_basis = gf2.nullspace(pc.h_c)
    for m in range(codeword_basis.rows):
        g = codeword_basis.row_data[m]
        for qi in range(q.n):
            cols = [(1 << qi) if (g >> ell) & 1 else 0 for ell in range(pc.L)]
            gens.append(pattern_from_columns(cols, q.n, error_type))
    return gens


def pattern_from_columns(cols: list[int], n: int, error_type: str) -> ErrorPattern:
    return ErrorPattern(BitMatrix(cols, n).transpose(), error_type)


def pattern_from_packed(value: int, n: int, L: int, error_type: str = "X") -> ErrorPattern:
    """The inverse of ErrorPattern.packed()."""
    return ErrorPattern(unvec(BitMatrix([value], n * L), n, L), error_type)


def is_normalizer_element(pc: ProductCode, e: ErrorPattern) -> bool:
    """True iff the pattern commutes with every product stabilizer (Xi = 0)."""
    return extract_syndrome(pc, e).matrix.is_zero()


def syndrome_from_key(key: int, stab_rows: int, r: int) -> ProductSyndrome:
    """The inverse of syndrome_key."""
    mask = (1 << r) - 1
    return ProductSyndrome(BitMatrix([(key >> (i * r)) & mask for i in range(stab_rows)], r))


def verification_matrix(n: int) -> BitMatrix:
    """Cat-state end-pair check: a single row [1, 0, ..., 0, 1]."""
    if n < 2:
        raise GF2Error(f"verification vector needs n >= 2, got {n}")
    return BitMatrix([1 | (1 << (n - 1))], n)


def table_from_entries(pc: ProductCode, error_type: str, key_bits: int,
                       entries: dict[int, int], max_cols: int) -> LookupTable:
    """A LookupTable holding a {key: correction} dict, for tables no build
    makes (ties, stabilizer shifts, keys stored as their own corrections).
    Corrections take the words of n*L bits, or more if one is wider."""
    keys = sorted(entries)
    fixes = [entries[k] for k in keys]
    width = max(pc.N, max(fixes, default=0).bit_length())
    return LookupTable(pc, error_type, key_bits, max_cols, as_words(keys, n_words(key_bits)),
                       as_words(fixes, n_words(width)))


def entries(table: LookupTable) -> dict[int, int]:
    """A table's {key: correction} dict, in key order."""
    return dict(zip(from_words(table.keys), from_words(table.fixes)))


def brute_nearest(entries, keys, radius: int) -> list[tuple[str, int, int]]:
    """decoder.nearest_key's answers, one (status, distance, correction)
    tuple per key, from the distance of each key to every stored key."""
    out = []
    for key in keys:
        dist = [((k ^ key).bit_count(), k) for k in entries]
        best = min((d for d, _ in dist), default=radius + 1)
        nearest = [k for d, k in dist if d == best]
        out.append(("not_found", -1, -1) if best > radius
                   else ("ok", best, entries[nearest[0]]) if len(nearest) == 1
                   else ("ambiguous", best, -1))
    return out


def nearest(table: LookupTable, keys, radius: int) -> list[tuple[str, int, int]]:
    """decoder.nearest_key's answer for int keys, one (status, distance,
    correction) tuple per key: the keys go in as the table's key words, and
    each row comes back as its stored correction, -1 for row -1."""
    status, distance, rows = decoder.nearest_key(table, as_words(keys, table.keys.shape[1]),
                                                 radius)
    fixes = np.full(len(rows), -1, dtype=object)
    fixes[rows >= 0] = from_words(table.fixes[rows[rows >= 0]])
    return list(zip(status.tolist(), distance.tolist(), fixes.tolist()))
