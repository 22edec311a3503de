"""Monte Carlo validation of the analytic failure model.

Samples independent Bernoulli error patterns (and optionally syndrome
measurement noise), runs the table decoders, and reports empirical failure
rates with Wilson 95% intervals against the closed-form prediction.

Each batch packs its error patterns and syndrome flips into ``product.as_words``
rows of any width (BATCH shots while both fit one word, fewer past it, so a
draw stays under 2^21 uniforms) and triages only the nonzero shots: column
weights from per-column word masks, keys from per-byte tables of key words;
all-zero shots share one outcome, decided once per call.  One
``decoder.nearest_key`` call per batch finds the table rows: at radius 0,
exact lookup, in lookup mode, and within the corruption budget t_C - t_src
in min-distance mode.  A stored correction that differs from the truth as
words is a degenerate hit iff ``product.class_map``, built only for a batch
that has such a shot, sends the difference, made a Python int, to 0.

Randomness comes from numpy's Philox counter-based generator, so streams
are reproducible bit-exactly from the 64-bit seed on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytics, decoder, gf2
from .gf2 import BitMatrix, GF2Error
from .product import (LookupTable, ProductCode, as_words, build_lookup_table, check_table,
                      class_map, from_words, key_map, n_words)

BATCH = 1 << 15


@dataclass(frozen=True)
class TrialConfig:
    pc: ProductCode
    p: float
    shots: int
    seed: int
    error_type: str = "X"
    syndrome_noise: bool = False
    p_e: float = 0.0
    decode_mode: str = "lookup"  # 'lookup' | 'min_distance'

    def __post_init__(self):
        if self.shots < 1:
            raise GF2Error(f"shots must be >= 1, got {self.shots}")
        if self.seed < 0:
            raise GF2Error(f"seed must be >= 0, got {self.seed}")
        for name in ("p", "p_e"):
            analytics.check_probability(name, getattr(self, name))
        if self.p_e > 0.0 and not self.syndrome_noise:
            raise GF2Error(f"p_e={self.p_e} needs syndrome_noise, or it is ignored")
        if self.decode_mode not in ("lookup", "min_distance"):
            raise GF2Error(f"unknown decode_mode {self.decode_mode!r}")
        if self.syndrome_noise and self.decode_mode == "lookup":
            raise GF2Error("syndrome noise requires min_distance decoding")


@dataclass(frozen=True)
class TrialReport:
    shots: int
    failures: int
    empirical_rate: float
    wilson_95_interval: tuple[float, float]
    analytic_rate: float
    breakdown: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.failures > self.shots:
            raise GF2Error("failures exceed shots")


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of a (shots, width) 0/1 array as ``as_words`` rows, column j at bit j."""
    shots, width = bits.shape
    rows = np.zeros((shots, 64 * n_words(width)), dtype=bool)  # one flat pack beats a per-row pack
    rows[:, :width] = bits
    return np.packbits(rows, bitorder="little").view("<u8").reshape(shots, -1)[:, ::-1]


_BYTE_BITS = (np.arange(256) >> np.arange(8)[:, None] & 1).astype(np.uint64)  # [i, v]: bit i of v


def _key_tables(bit_keys: list[int], w: int) -> np.ndarray:
    """(bytes, 256, w) tables: [j, v] is the key words of the vec bits set in
    value v of byte j, from ``product.key_map``'s key of each vec bit."""
    keys = as_words(bit_keys + [0] * (-len(bit_keys) % 8), w)  # whole bytes
    return np.bitwise_xor.reduce(keys.reshape(-1, 8, 1, w) * _BYTE_BITS[..., None], axis=1)


def _noise_probs(hq: BitMatrix, hc: BitMatrix, p_e: float) -> np.ndarray:
    """Per-key-bit flip probability from the gate count feeding each ancilla,
    computed once per distinct count."""
    gates = np.outer(hq.row_weights(), hc.row_weights()).ravel()
    counts, at = np.unique(gates, return_inverse=True)
    return np.array([analytics.syndrome_error_prob(int(g), p_e) for g in counts])[at]


def run_trials(cfg: TrialConfig, table: LookupTable | None = None) -> TrialReport:
    pc = cfg.pc
    if table is None:
        # noisy-syndrome decoding keys only source-budget patterns so the
        # d_C - 2 t_src key separation covers the nearest-neighbor radius
        max_cols = pc.t_src if cfg.decode_mode == "min_distance" else pc.t_c
        table = build_lookup_table(pc, cfg.error_type, max_cols=max_cols)
    hq, hc = pc.q.check_matrix(cfg.error_type), pc.h_c
    check_table(table, pc, cfg.error_type, hq.rows * hc.rows)
    n, L = hq.cols, hc.cols
    w, kw = n_words(n * L), n_words(table.key_bits)
    batch = BATCH * 64 // max(64, n * L, table.key_bits)  # BATCH while both fit one word
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    key_tables = _key_tables(key_map(hq, hc), kw)
    col_masks = as_words([((1 << n) - 1) << (ell * n) for ell in range(L)], w)
    radius = pc.t_c - pc.t_src if cfg.decode_mode == "min_distance" else 0  # 0: exact lookup
    noise_probs = _noise_probs(hq, hc, cfg.p_e) if cfg.syndrome_noise else None

    def charge(truths, flips, counts):
        """Add the outcomes of shots with truth and flip word rows to counts."""
        weights = np.bitwise_count(truths[:, None] & col_masks).sum(axis=2)
        hit = np.count_nonzero(weights, axis=1)
        live = (weights <= pc.t_q).all(axis=1) & (hit <= pc.t_c)
        counts["class_misses"] += len(truths) - int(live.sum())
        if cfg.syndrome_noise:
            over = live & ~((hit <= pc.t_src) & (np.bitwise_count(flips).sum(axis=1) <= radius))
            counts["noise_over_budget"] += int(over.sum())
            live &= ~over
        truths, keys = truths[live], flips[live]
        data = np.ascontiguousarray(truths[:, ::-1], dtype="<u8").view(np.uint8)  # [:, j]: byte j
        for j, key_table in enumerate(key_tables):
            keys ^= key_table[data[:, j]]
        status, _, rows = decoder.nearest_key(table, keys, radius)
        counts["ambiguities"] += int(np.count_nonzero(status == "ambiguous"))
        counts["decode_errors"] += int(np.count_nonzero(status == "not_found"))
        # one classification of stored against true correction, both modes
        diffs = table.fixes[rows[rows >= 0]] ^ truths[rows >= 0]
        wrong = diffs.any(axis=1)
        if wrong.any():  # the class map is built only for a batch that needs it
            classes = class_map(pc.q, cfg.error_type, L)
            for diff in from_words(diffs[wrong]):
                counts["decode_errors" if gf2.xor_bits(classes, diff) else "degenerate_hits"] += 1

    breakdown = {"class_misses": 0, "decode_errors": 0, "ambiguities": 0,
                 "noise_over_budget": 0, "degenerate_hits": 0}
    zero = dict.fromkeys(breakdown, 0)  # the outcome every all-zero shot has
    charge(np.zeros((1, w), dtype=np.uint64), np.zeros((1, kw), dtype=np.uint64), zero)
    zeros = done = 0
    while done < cfg.shots:
        b = min(batch, cfg.shots - done)
        done += b
        truths = _pack(rng.random((b, n * L)) < cfg.p)
        flips = (_pack(rng.random((b, table.key_bits)) < noise_probs)
                 if cfg.syndrome_noise else np.zeros((b, kw), dtype=np.uint64))
        nonzero = np.flatnonzero(truths.any(axis=1) | flips.any(axis=1))
        zeros += b - len(nonzero)
        charge(truths[nonzero], flips[nonzero], breakdown)
    breakdown = {cause: v + zero[cause] * zeros for cause, v in breakdown.items()}
    failures = sum(v for cause, v in breakdown.items() if cause != "degenerate_hits")
    return TrialReport(
        shots=cfg.shots,
        failures=failures,
        empirical_rate=failures / cfg.shots,
        wilson_95_interval=wilson_interval(failures, cfg.shots),
        analytic_rate=analytics.failure_probability(cfg.p, pc),
        breakdown=breakdown,
    )
