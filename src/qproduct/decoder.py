"""Decoding paths over product-code lookup tables.

Exact key lookup, BK-tree nearest-neighbor decoding of noisy syndromes,
and logical-qubit localization from the rows of the product syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classical
from .gf2 import GF2Error
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


def localize_bm(pc: ProductCode, xi: ProductSyndrome) -> LocalizationResult:
    """Locate the logical qubits with errors from the rows of Xi.

    Row i of Xi is decoded as the received word [row | 0] of the classical
    code, whose syndrome under H = [I | P^T] is the row itself: with
    Berlekamp-Massey for BCH codes, with the standard array otherwise.
    In full-H mode (H_C = H, L = n) every decoded position is a logical
    index.  In P^T mode (H_C = P^T, L = k) a clean row is the parity part
    m_i P of the codeword [m_i P | m_i], so positions p >= R are logical
    indices p - R and positions below R are syndrome-bit flips (always
    empty in full-H mode).  A row with no decode, or with more than t_C
    logical positions, raises LocalizationError.
    """
    r = pc.R
    want = (pc.q.check_matrix("X").rows, r)
    if (xi.matrix.rows, xi.matrix.cols) != want:
        raise GF2Error(f"Xi is {xi.matrix.rows}x{xi.matrix.cols}, "
                       f"the product code's is {want[0]}x{want[1]}")
    code = pc.c
    offset = r if pc.hc_mode == "pt" else 0
    empty = frozenset()
    supports = []
    flips = []
    for i, row in enumerate(xi.matrix.row_data):
        if not row:
            supports.append(empty)
            flips.append(empty)
            continue
        if code.kind == "bch":
            locs = classical.bm_locate(code, row)
        else:  # the complete array is keyed by H-syndromes: [row | 0]'s in P^T mode
            syn = row if not offset else sum(((h & row).bit_count() & 1) << j
                                             for j, h in enumerate(code.H.row_data))
            leader = code.standard_array.leaders[syn]
            locs = [p for p in range(code.n) if leader >> p & 1]
        if locs is None:
            raise LocalizationError(i, f"no coset leader within the decoding radius t={code.t}")
        logical = frozenset(p - offset for p in locs if p >= offset)
        if len(logical) > pc.t_c:
            raise LocalizationError(i, f"row weight {len(logical)} exceeds t_C={pc.t_c}")
        supports.append(logical)
        flips.append(frozenset(p for p in locs if p < offset))
    union = frozenset().union(*supports)
    return LocalizationResult(logical_indices=union,
                              per_row_supports=tuple(supports),
                              syndrome_flips=tuple(flips))
