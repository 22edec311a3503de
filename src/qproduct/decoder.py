"""Decoding paths over product-code lookup tables.

Exact key lookup, BK-tree nearest-neighbor decoding of noisy syndromes,
and logical-qubit localization from the rows of the product syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classical, gf2
from .gf2 import BitMatrix, GF2Error
from .product import LookupTable, ProductCode, ProductSyndrome


class LocalizationError(GF2Error):
    """A syndrome row failed to decode; carries the failing row index."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class BKTree:
    """Burkhard-Keller tree over integer keys under Hamming distance.

    Children are keyed by their distance to the parent, so a radius query
    only descends into edges within [d - radius, d + radius] (triangle
    inequality).  ``last_visit_count`` records nodes touched by the most
    recent query, for pruning diagnostics.
    """

    __slots__ = ("_root", "size", "last_visit_count")

    def __init__(self, keys=()):
        self._root: list | None = None  # [key, {distance: child}]
        self.size = 0
        self.last_visit_count = 0
        for key in keys:
            self.add(key)

    def add(self, key: int) -> None:
        if self._root is None:
            self._root = [key, {}]
            self.size = 1
            return
        node = self._root
        while True:
            d = (key ^ node[0]).bit_count()
            if d == 0:
                raise GF2Error(f"duplicate key {key:#x}")
            child = node[1].get(d)
            if child is None:
                node[1][d] = [key, {}]
                self.size += 1
                return
            node = child

    def query(self, key: int, radius: int) -> list[tuple[int, int]]:
        """All (stored key, distance) pairs within the Hamming radius."""
        out: list[tuple[int, int]] = []
        self.last_visit_count = 0
        if self._root is None:
            return out
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.last_visit_count += 1
            d = (key ^ node[0]).bit_count()
            if d <= radius:
                out.append((node[0], d))
            for edge, child in node[1].items():
                if d - radius <= edge <= d + radius:
                    stack.append(child)
        return out


def nearest_key(table: LookupTable, key: int, radius: int) -> tuple[str, int, int]:
    """Table decode: (status, distance, matched key) of the unique stored
    key nearest to ``key`` within the Hamming ``radius``; the correction is
    ``table.entries[matched key]``.

    Status is 'ok', 'not_found' or 'ambiguous'; equal-distance ties are
    surfaced, never broken.  Keys are distinct, so an exact hit is the
    unique nearest key and needs no tree query; radius 0 is exact lookup.
    """
    if radius >= 0 and key in table.entries:
        return "ok", 0, key
    if radius <= 0:
        return "not_found", -1, -1
    if table.bk_index is None:
        table.bk_index = BKTree(sorted(table.entries))
    matches = table.bk_index.query(key, radius)
    if not matches:
        return "not_found", -1, -1
    best = min(d for _, d in matches)
    nearest = [k for k, d in matches if d == best]
    if len(nearest) > 1:
        return "ambiguous", best, -1
    return "ok", best, nearest[0]


@dataclass(frozen=True)
class LocalizationResult:
    """Index set of logical qubits with errors, with per-row evidence."""

    logical_indices: frozenset[int]
    per_row_supports: tuple[frozenset[int], ...]
    confidence: str = "exact"  # 'exact' or 'nearest'
    syndrome_flips: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        union = frozenset().union(*self.per_row_supports) if self.per_row_supports else frozenset()
        if union != self.logical_indices:
            raise GF2Error("logical index set must be the union of row supports")


def _coset_leader_support(code: classical.ClassicalCode, syn: int) -> list[int] | None:
    """Support of the minimum-weight error with the given syndrome.

    Uses Berlekamp-Massey for BCH codes (on the [syndrome | zeros]
    received word, valid because H = [I | P^T]) and the standard array
    otherwise.  None means no explanation within the decoding radius.
    """
    if code.kind == "bch":
        return classical.bm_locate(code, syn)  # parity coordinates come first
    leader = code.standard_array.leaders.get(syn)
    if leader is None:
        return None
    return gf2.support(BitMatrix([leader], code.n))


def _check_shape(pc: ProductCode, xi: ProductSyndrome, r: int) -> None:
    """Xi of X errors has one row per row of H_Q and R columns."""
    want = (pc.q.check_matrix("X").rows, r)
    if (xi.matrix.rows, xi.matrix.cols) != want:
        raise GF2Error(f"Xi is {xi.matrix.rows}x{xi.matrix.cols}, "
                       f"the product code's is {want[0]}x{want[1]}")


def localize_rows(pc: ProductCode, xi: ProductSyndrome) -> LocalizationResult:
    """Decode each row of Xi with the classical code; union the supports.

    Requires full-H mode, where row i of Xi is the classical syndrome of
    row i of H_Q eps (a length-L word supported on the hit columns).
    """
    if pc.hc_mode != "full":
        raise GF2Error("localize_rows requires full-H mode; use localize_bm for P^T mode")
    _check_shape(pc, xi, pc.R)
    supports = []
    for i in range(xi.matrix.rows):
        supp = _coset_leader_support(pc.c, xi.matrix.row_data[i])
        if supp is None:
            raise LocalizationError(i, "no coset leader within the decoding radius")
        if len(supp) > pc.t_c:
            raise LocalizationError(i, f"row weight {len(supp)} exceeds t_C={pc.t_c}")
        supports.append(frozenset(supp))
    union = frozenset().union(*supports) if supports else frozenset()
    return LocalizationResult(logical_indices=union,
                              per_row_supports=tuple(supports))


def localize_bm(pc: ProductCode, xi_noisy: ProductSyndrome) -> LocalizationResult:
    """Localization from noisy syndrome rows via Berlekamp-Massey.

    P^T-mode only: row i of a clean Xi is the parity part m_i P of the
    codeword [m_i P | m_i], so appending a zero message to the measured
    row gives a word within distance wt(T_i) + |support(m_i)| of that
    codeword.  Decoded error positions below R are syndrome-bit flips;
    positions >= R map to logical indices p - R.
    """
    if pc.hc_mode != "pt":
        raise GF2Error("localize_bm requires P^T mode")
    if pc.c.kind != "bch":
        raise GF2Error("localize_bm requires a BCH classical code")
    r = pc.R
    _check_shape(pc, xi_noisy, r)
    empty = frozenset()
    supports = []
    flips = []
    for i, row in enumerate(xi_noisy.matrix.row_data):
        if not row:
            supports.append(empty)
            flips.append(empty)
            continue
        locs = classical.bm_locate(pc.c, row)  # the row with a zero message
        if locs is None:
            raise LocalizationError(
                i, f"decoding budget wt(T) + |L| <= {pc.c.t} exceeded")
        supports.append(frozenset(p - r for p in locs if p >= r))
        flips.append(frozenset(p for p in locs if p < r))
    union = frozenset().union(*supports)
    return LocalizationResult(logical_indices=union,
                              per_row_supports=tuple(supports),
                              syndrome_flips=tuple(flips))
