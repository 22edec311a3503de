"""Decoding paths over product-code lookup tables.

Exact and nearest-key lookup of key word rows, answered as table rows (one
numpy distance scan over the table's key words for noisy syndromes), and
logical-qubit localization from the rows of the product syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classical
from .gf2 import GF2Error
from .product import LookupTable, ProductCode, ProductSyndrome


class LocalizationError(GF2Error):
    """A syndrome row failed to decode; carries the failing row index."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


BLOCK_ELEMENTS = 1 << 18  # cap on the (queries, keys, words) elements of one distance block
_STATUS = np.array(["ok", "ambiguous", "not_found"])


def nearest_key(table: LookupTable, queries: np.ndarray, radius: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Table decode of a batch of key word rows: (status, distance, row)
    arrays, one entry per query, from the unique stored key nearest to each
    within the Hamming ``radius``.

    Status is 'ok', 'not_found' or 'ambiguous'; equal-distance ties are
    surfaced, never broken.  The distance is -1 where no stored key lies
    within the radius, the row -1 unless the status is 'ok'.  Radius 0 is
    exact lookup, a binary search of the table's sorted key words
    (``LookupTable.rows``); a negative radius finds nothing.  A positive
    radius XORs the queries against the same words, counts the set bits and
    takes each query's minimum, tie count and argmin, in blocks of at most
    BLOCK_ELEMENTS elements (or one query).
    """
    words = table.keys
    if radius <= 0 or not len(words):  # an empty table finds nothing
        pos = table.rows(queries) if radius == 0 else np.full(len(queries), -1)
        hit = pos >= 0
        return np.where(hit, "ok", "not_found"), np.where(hit, 0, -1), pos
    best = np.empty(len(queries), dtype=np.intp)
    ties = np.empty(len(queries), dtype=np.intp)
    pos = np.empty(len(queries), dtype=np.intp)
    step = max(1, BLOCK_ELEMENTS // words.size)
    for lo in range(0, len(queries), step):
        dist = np.bitwise_count(queries[lo:lo + step, None] ^ words).sum(axis=2,
                                                                         dtype=np.intp)
        best[lo:lo + step] = low = dist.min(axis=1)
        ties[lo:lo + step] = (dist == low[:, None]).sum(axis=1)
        pos[lo:lo + step] = dist.argmin(axis=1)
    code = np.where(best > radius, 2, np.where(ties > 1, 1, 0))
    return _STATUS[code], np.where(code < 2, best, -1), np.where(code == 0, pos, -1)


@dataclass(frozen=True)
class LocalizationResult:
    """Index set of logical qubits with errors, with per-row evidence."""

    logical_indices: frozenset[int]
    per_row_supports: tuple[frozenset[int], ...]
    confidence: str = "exact"  # always 'exact'; `localize` prints it
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
            leader = code.standard_array[syn]
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
