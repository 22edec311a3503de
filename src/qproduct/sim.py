"""Monte Carlo validation of the analytic failure model.

Samples independent Bernoulli error patterns (and optionally syndrome
measurement noise), runs the table decoders, and reports empirical failure
rates with Wilson 95% intervals against the closed-form prediction.

Shots are triaged per batch in numpy: class misses, noise over the budget
and shots whose truth and (noisy) key are both zero against a table storing
0 -> 0 are counted as arrays, so only the remaining shots reach the Python
loop that calls the decoder's packed nearest-key core.

Randomness comes from numpy's Philox counter-based generator, so streams
are reproducible bit-exactly from the 64-bit seed on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytics, decoder, quantum
from .gf2 import BitMatrix, GF2Error
from .product import LookupTable, ProductCode, build_lookup_table

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
        if not 0.0 <= self.p <= 1.0:
            raise GF2Error(f"p={self.p} outside [0, 1]")
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


def _key_matrix(hq: BitMatrix, hc: BitMatrix) -> np.ndarray:
    """(n*L) x key_bits map from vec(eps) bits to flattened syndrome bits.

    vec bit l*n + q feeds key bit i*R + r exactly when H_Q[i, q] and
    H_C[r, l] are both 1 (the Kronecker structure, reindexed to match the
    stabilizer-major key packing).
    """
    m = np.einsum("iq,rl->lqir", hq.to_numpy(), hc.to_numpy())
    return m.reshape(hq.cols * hc.cols, hq.rows * hc.rows).astype(np.uint8)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack rows of a (shots, width) bit array into int64 values."""
    width = bits.shape[1]
    if width > 62:
        raise GF2Error(f"packed width {width} exceeds int64 range")
    powers = (np.int64(1) << np.arange(width, dtype=np.int64))
    return bits.astype(np.int64) @ powers


def _noise_probs(hq: BitMatrix, hc: BitMatrix, p_e: float) -> np.ndarray:
    """Per-key-bit flip probability from the gate count feeding each ancilla."""
    hc_w = hc.row_weights()
    return np.array([analytics.syndrome_error_prob(wq * wc, p_e)
                     for wq in hq.row_weights() for wc in hc_w])


def run_trials(cfg: TrialConfig, table: LookupTable | None = None) -> TrialReport:
    pc = cfg.pc
    if table is None:
        # noisy-syndrome decoding keys only source-budget patterns so the
        # d_C - 2 t_src key separation covers the nearest-neighbor radius
        max_cols = pc.t_src if cfg.decode_mode == "min_distance" else pc.t_c
        table = build_lookup_table(pc, cfg.error_type, max_cols=max_cols)
    hq, hc = pc.q.check_matrix(cfg.error_type), pc.h_c
    n, L = hq.cols, hc.cols
    if n * L > 62 or table.key_bits > 62:
        raise GF2Error("simulation fast path limited to 62-bit patterns/keys")
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    key_mat = _key_matrix(hq, hc)
    span = pc.q.stabilizer_span(cfg.error_type)
    lookup = cfg.decode_mode == "lookup"
    entries = table.entries
    # a shot with zero truth and zero (noisy) key decodes to the zero
    # correction whenever the table stores it there: no decoder call needed
    skip_zero = entries.get(0) == 0
    radius = pc.t_c - pc.t_src
    noise_probs = _noise_probs(hq, hc, cfg.p_e) if cfg.syndrome_noise else None

    breakdown = {"class_misses": 0, "decode_errors": 0, "ambiguities": 0,
                 "noise_over_budget": 0, "degenerate_hits": 0}
    done = 0
    while done < cfg.shots:
        b = min(BATCH, cfg.shots - done)
        done += b
        bits = (rng.random((b, n * L)) < cfg.p).astype(np.uint8)
        keys = _pack((bits @ key_mat) & 1)
        truths = _pack(bits)
        colw = bits.reshape(b, L, n).sum(axis=2)
        cols_hit = (colw > 0).sum(axis=1)
        live = (colw <= pc.t_q).all(axis=1) & (cols_hit <= pc.t_c)
        breakdown["class_misses"] += b - int(live.sum())
        if cfg.syndrome_noise:
            flips = (rng.random((b, table.key_bits)) < noise_probs).astype(np.uint8)
            over = live & ~((cols_hit <= pc.t_src) & (flips.sum(axis=1) <= radius))
            breakdown["noise_over_budget"] += int(over.sum())
            live &= ~over
            keys ^= _pack(flips)
        if skip_zero:
            live &= (truths != 0) | (keys != 0)
        idx = np.flatnonzero(live)
        for truth, key in zip(truths[idx].tolist(), keys[idx].tolist()):
            cause = "decode_errors"
            if lookup:
                stored = entries.get(key)
            else:
                status, _, matched = decoder.nearest_key(table, key, radius)
                stored = entries[matched] if status == "ok" else None
                if status == "ambiguous":
                    cause = "ambiguities"
            # one classification of stored against true correction, both modes
            if stored == truth:
                continue
            if stored is not None and quantum.differs_by_stabilizers(stored ^ truth, n, span):
                breakdown["degenerate_hits"] += 1
            else:
                breakdown[cause] += 1
    failures = sum(v for cause, v in breakdown.items() if cause != "degenerate_hits")
    rate = failures / cfg.shots
    return TrialReport(
        shots=cfg.shots,
        failures=failures,
        empirical_rate=rate,
        wilson_95_interval=wilson_interval(failures, cfg.shots),
        analytic_rate=analytics.failure_probability(cfg.p, pc),
        breakdown=breakdown,
    )
