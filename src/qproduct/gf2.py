"""Bit-packed GF(2) matrices and the linear algebra used by every other module.

Rows are stored as Python integers (bit ``j`` of ``rows[i]`` is entry
``(i, j)``), so a row is a packed machine-word array with arbitrary width
and XOR / popcount are single operations.  Matrices are treated as
immutable after construction; all functions return new objects.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class GF2Error(ValueError):
    """Raised on dimension mismatches and rank violations."""


class BitMatrix:
    """Dense GF(2) matrix with one packed integer per row.

    Bits beyond ``cols`` are kept at zero, so equality and hashing work
    on the raw row integers.  A 0xN or Nx0 matrix is valid.
    """

    __slots__ = ("rows", "cols", "row_data")

    def __init__(self, row_data: Sequence[int], cols: int):
        if cols < 0:
            raise GF2Error(f"negative column count {cols}")
        mask = (1 << cols) - 1
        self.row_data = tuple(r & mask for r in row_data)
        self.rows = len(self.row_data)
        self.cols = cols

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls([0] * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "BitMatrix":
        data = []
        width = cols
        for row in rows:
            bits = list(row)
            if width is None:
                width = len(bits)
            elif len(bits) != width:
                raise GF2Error(f"ragged rows: expected {width} columns, got {len(bits)}")
            data.append(bits_to_int(bits))
        return cls(data, width if width is not None else 0)

    # -- element access ----------------------------------------------

    def get(self, i: int, j: int) -> int:
        return (self.row_data[i] >> j) & 1

    def row(self, i: int) -> "BitMatrix":
        return BitMatrix([self.row_data[i]], self.cols)

    # -- basic algebra -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.cols == other.cols
            and self.row_data == other.row_data
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.row_data))

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise GF2Error(
                f"xor shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return BitMatrix([a ^ b for a, b in zip(self.row_data, other.row_data)], self.cols)

    def is_zero(self) -> bool:
        return not any(self.row_data)

    def row_weights(self) -> list[int]:
        return [r.bit_count() for r in self.row_data]

    def transpose(self) -> "BitMatrix":
        data = [0] * self.cols
        for i, r in enumerate(self.row_data):
            bit = 1 << i
            while r:
                j = r.bit_length() - 1
                data[j] |= bit
                r ^= 1 << j
        return BitMatrix(data, self.rows)

    def hstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.rows != other.rows:
            raise GF2Error(f"hstack row mismatch: {self.rows} vs {other.rows}")
        data = [a | (b << self.cols) for a, b in zip(self.row_data, other.row_data)]
        return BitMatrix(data, self.cols + other.cols)

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise GF2Error(f"vstack column mismatch: {self.cols} vs {other.cols}")
        return BitMatrix(list(self.row_data) + list(other.row_data), self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "BitMatrix":
        cols = BitMatrix([self.row_data[i] for i in row_idx], self.cols).transpose().row_data
        return BitMatrix([cols[j] for j in col_idx], len(row_idx)).transpose()

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        return "\n".join(int_to_bitstring(r, self.cols) for r in self.row_data)


# BitVector is a 1xN BitMatrix; these helpers keep call sites readable.

def support(v: BitMatrix) -> list[int]:
    if v.rows != 1:
        raise GF2Error(f"expected a row vector, got {v.rows}x{v.cols}")
    out = []
    r = v.row_data[0]
    while r:
        low = r & -r
        out.append(low.bit_length() - 1)
        r ^= low
    return out


def xor_bits(values: Sequence[int], packed: int) -> int:
    """XOR of ``values[i]`` over the set bits i of ``packed``."""
    acc = 0
    while packed:
        low = packed & -packed
        acc ^= values[low.bit_length() - 1]
        packed ^= low
    return acc


def mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise GF2Error(
            f"mul shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}"
        )
    return BitMatrix([xor_bits(b.row_data, r) for r in a.row_data], b.cols)


def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Kronecker product over GF(2)."""
    data = []
    for i in range(a.rows):
        for k in range(b.rows):
            acc = 0
            r = a.row_data[i]
            while r:
                low = r & -r
                j = low.bit_length() - 1
                acc |= b.row_data[k] << (j * b.cols)
                r ^= low
            data.append(acc)
    return BitMatrix(data, a.cols * b.cols)


def rref(m: BitMatrix) -> tuple[BitMatrix, int, list[int]]:
    """Reduced row-echelon form. Returns (rref, rank, pivot column indices)."""
    data = list(m.row_data)
    pivots: list[int] = []
    pivot_row = 0
    for col in range(m.cols):
        sel = -1
        for i in range(pivot_row, m.rows):
            if (data[i] >> col) & 1:
                sel = i
                break
        if sel < 0:
            continue
        data[pivot_row], data[sel] = data[sel], data[pivot_row]
        for i in range(m.rows):
            if i != pivot_row and (data[i] >> col) & 1:
                data[i] ^= data[pivot_row]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    return BitMatrix(data, m.cols), len(pivots), pivots


def rank(m: BitMatrix) -> int:
    return rref(m)[1]


def nullspace(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel {x : m x^T = 0}, one basis vector per row."""
    red, r, pivots = rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    data = []
    for f in free:
        v = 1 << f
        for i, p in enumerate(pivots):
            if (red.row_data[i] >> f) & 1:
                v |= 1 << p
        data.append(v)
    return BitMatrix(data, m.cols)


# -- text parity-check-matrix format --------------------------------------
# First line "rows cols", then one line of '0'/'1' characters per row.

def to_text(m: BitMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(int_to_bitstring(r, m.cols) for r in m.row_data)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> BitMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GF2Error("empty matrix text")
    try:
        rows, cols = map(int, lines[0].split())
    except ValueError as exc:
        raise GF2Error(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != rows:
        raise GF2Error(f"expected {rows} rows, found {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise GF2Error(f"bad matrix row {ln!r}")
        data.append(int(ln[::-1], 2) if ln else 0)
    return BitMatrix(data, cols)


# -- packed-bit helpers shared by lookup tables and CLI --------------------

def bits_to_int(bits: Iterable[int]) -> int:
    acc = 0
    for i, b in enumerate(bits):
        if b & 1:
            acc |= 1 << i
    return acc


def bitstring_to_int(s: str) -> int:
    if set(s) - {"0", "1"}:
        raise GF2Error(f"bad bit string {s!r}")
    return int(s[::-1], 2) if s else 0


def int_to_bitstring(value: int, n: int) -> str:
    """Bits 0..n-1 of value, least significant first."""
    return bin((value & ((1 << n) - 1)) | (1 << n))[3:][::-1]
