"""CSS stabilizer codes as binary data.

Constructors for the three-qubit bit-flip, Steane, [[17,1,5]] color and
[[23,1,7]] Golay codes, binary syndrome extraction and normalizer
generators.  A pattern is a same-type stabilizer element iff
``CssCode.class_check`` (the check over the opposite-type logicals) maps it
to zero, so degeneracy is one linear test.  Coset leaders of a check come
from ``classical.build_standard_array``: below half the distance every
pattern is stabilizer-equivalent to its leader.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import classical, gf2
from .gf2 import BitMatrix, GF2Error


@dataclass(frozen=True)
class PauliOp:
    """Single-type Pauli operator in binary form [x_part | z_part]."""

    n: int
    x: int = 0  # packed support of the X part
    z: int = 0

    def __str__(self) -> str:
        if self.x == 0 and self.z == 0:
            return "I"
        parts = []
        for i in range(self.n):
            xb = (self.x >> i) & 1
            zb = (self.z >> i) & 1
            if xb and zb:
                parts.append(f"Y{i + 1}")
            elif xb:
                parts.append(f"X{i + 1}")
            elif zb:
                parts.append(f"Z{i + 1}")
        return "".join(parts)


def pauli_from_string(s: str, n: int) -> PauliOp:
    """Parse Pauli strings in the 1-indexed 'X1X4X6X7' convention."""
    x = z = 0
    i = 0
    s = s.strip()
    if s in ("", "I"):
        return PauliOp(n=n)
    while i < len(s):
        kind = s[i]
        if kind not in "XYZ":
            raise GF2Error(f"bad Pauli string {s!r}")
        i += 1
        j = i
        while j < len(s) and s[j].isdigit():
            j += 1
        idx = int(s[i:j]) - 1
        if not 0 <= idx < n:
            raise GF2Error(f"qubit index {idx + 1} out of range in {s!r}")
        if kind in "XY":
            x |= 1 << idx
        if kind in "ZY":
            z |= 1 << idx
        i = j
    return PauliOp(n=n, x=x, z=z)


@dataclass(frozen=True)
class CssCode:
    """[[n, k, d]] CSS code as a pair of GF(2) parity-check matrices."""

    n: int
    k: int
    d: int
    hx: BitMatrix  # X-type stabilizers (detect Z errors)
    hz: BitMatrix  # Z-type stabilizers (detect X errors)
    kind: str
    logical_x: BitMatrix = field(default=None)  # type: ignore[assignment]
    logical_z: BitMatrix = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.hx.rows and self.hz.rows:
            if not gf2.mul(self.hx, self.hz.transpose()).is_zero():
                raise GF2Error("HX HZ^T != 0: stabilizers do not commute")

    @property
    def t(self) -> int:
        return (self.d - 1) // 2

    def check_matrix(self, error_type: str) -> BitMatrix:
        """The parity check that detects the given error type."""
        if error_type == "X":
            return self.hz
        if error_type == "Z":
            return self.hx
        raise GF2Error(f"error_type must be 'X' or 'Z', got {error_type!r}")

    def stabilizer_matrix(self, error_type: str) -> BitMatrix:
        """Binary stabilizer generators of the same type as the error."""
        return self.hx if error_type == "X" else self.hz

    def class_check(self, error_type: str) -> BitMatrix:
        """The check over the opposite-type logicals: a pattern of the given
        type is a same-type stabilizer element iff this maps it to zero
        (Gottesman, quant-ph/9705052)."""
        return self.check_matrix(error_type).vstack(
            logical_matrix(self, "Z" if error_type == "X" else "X"))

    def stabilizer_weights(self) -> list[int]:
        return self.hx.row_weights() + self.hz.row_weights()


def _compute_logicals(stab_same: BitMatrix, check: BitMatrix, n: int, k: int) -> BitMatrix:
    """k logical operators: kernel of the check modulo the same-type stabilizers."""
    kern = gf2.nullspace(check) if check.rows else BitMatrix.identity(n)
    base = stab_same if stab_same.rows else BitMatrix.zeros(0, n)
    out = []
    cur = base
    for i in range(kern.rows):
        cand = cur.vstack(kern.row(i))
        if gf2.rank(cand) > gf2.rank(cur):
            out.append(kern.row_data[i])
            cur = cand
        if len(out) == k:
            break
    if len(out) != k:
        raise GF2Error(f"found only {len(out)} of {k} logical operators")
    return BitMatrix(out, n)


def rep3() -> CssCode:
    """Three-qubit bit-flip code: Z-type checks only."""
    hz = BitMatrix.from_rows([[1, 1, 0], [1, 0, 1]])
    hx = BitMatrix.zeros(0, 3)
    return CssCode(
        n=3, k=1, d=3, hx=hx, hz=hz, kind="rep3",
        logical_x=BitMatrix.from_rows([[1, 1, 1]]),
        logical_z=BitMatrix.from_rows([[1, 0, 0]]),
    )


STEANE_H = [
    [1, 0, 0, 1, 0, 1, 1],
    [0, 1, 0, 1, 1, 0, 1],
    [0, 0, 1, 1, 1, 1, 0],
]

# A minimal-weight (weight-3) logical representative.
STEANE_LOGICALS = ["X2X3X5"]


def steane() -> CssCode:
    h = BitMatrix.from_rows(STEANE_H)
    logical = BitMatrix([pauli_from_string(s, 7).x for s in STEANE_LOGICALS], 7)
    return CssCode(n=7, k=1, d=3, hx=h, hz=h, kind="steane",
                   logical_x=logical, logical_z=logical)


COLOR17_H = [
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1],
    [0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0],
]

COLOR17_LOGICALS = ["X1X2X5X9X13"]


def color17() -> CssCode:
    h = BitMatrix.from_rows(COLOR17_H)
    logical = BitMatrix([pauli_from_string(s, 17).x for s in COLOR17_LOGICALS], 17)
    return CssCode(n=17, k=1, d=5, hx=h, hz=h, kind="color17",
                   logical_x=logical, logical_z=logical)


def golay_css() -> CssCode:
    """[[23, 1, 7]] CSS code from the self-dual-containing Golay code."""
    h = classical.golay23().H
    logical = _compute_logicals(h, h, 23, 1)
    return CssCode(n=23, k=1, d=7, hx=h, hz=h, kind="golay",
                   logical_x=logical, logical_z=logical)


def logical_matrix(q: CssCode, error_type: str) -> BitMatrix:
    mat = q.logical_x if error_type == "X" else q.logical_z
    if mat is None:
        raise GF2Error(f"{q.kind} has no recorded logical operators")
    return mat


def normalizer_generators(q: CssCode, error_type: str = "X") -> list[PauliOp]:
    """Same-type normalizer generators: stabilizers plus logical operators."""
    stab = q.stabilizer_matrix(error_type)
    logicals = logical_matrix(q, error_type)
    rows = list(stab.row_data) + list(logicals.row_data)
    if error_type == "X":
        return [PauliOp(n=q.n, x=r) for r in rows]
    return [PauliOp(n=q.n, z=r) for r in rows]
