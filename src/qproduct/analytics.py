"""Closed-form failure probabilities, overhead counts and entropy bounds.

Binomial tail models for per-logical-qubit and block-level error weights,
the BCH selection criterion, syndrome-qubit overhead accounting (plain and
Shor-style fault-tolerant), the odd-parity syndrome bit-flip probability,
Poisson-binomial tails, and Shannon/hashing bound margins.  Every model
takes plain float probabilities, each guarded by ``check_probability``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import classical
from .classical import ClassicalCode
from .gf2 import GF2Error
from .product import ProductCode
from .quantum import CssCode

# Probabilities smaller than double-precision machine epsilon are reported
# at this floor: below it the value 1 + eps is numerically 1.
EPS_FLOOR = 1e-16


def check_probability(name: str, value: float) -> None:
    """Raise GF2Error unless value is a probability in [0, 1] (NaN is not)."""
    if not 0.0 <= value <= 1.0:
        raise GF2Error(f"{name}={value} outside [0, 1]")


def binomial_tail(p: float, n: int, t: int) -> float:
    """P(X > t) for X ~ Binomial(n, p), summed directly; terms after p ** tau hits 0.0 are 0.0."""
    if p <= 0.0:
        return 0.0
    taus = itertools.takewhile(lambda tau: p ** tau > 0.0, range(t + 1, n + 1))
    return math.fsum(math.comb(n, tau) * p ** tau * (1.0 - p) ** (n - tau) for tau in taus)


def p_logical(p: float, n: int) -> float:
    """Probability of at least one error among a logical qubit's n qubits."""
    return 1.0 - (1.0 - p) ** n


def _column_tail(p: float, n: int, t: int, d: int, mode: str) -> float:
    """Per-column over-budget probability of a logical qubit's n qubits:
    P(wt > t) in 'correct' mode, P(wt >= d) in 'localize' mode (heavier
    columns are still detected, lighter ones undetectable)."""
    if mode == "correct":
        return binomial_tail(p, n, t)
    if mode == "localize":
        return binomial_tail(p, n, d - 1)
    raise GF2Error(f"mode must be 'correct' or 'localize', got {mode!r}")


def failure_probability(p: float, pc: ProductCode, mode: str = "correct") -> float:
    """P_F = L P1 + P2 - L P1 P2 for one error type.

    P1 is the per-column over-budget probability (radius t_Q in 'correct'
    mode, distance d_Q in 'localize' mode, where heavier columns are still
    detected) and P2 the probability of more than t_C columns hit.
    """
    check_probability("p", p)
    n = pc.q.n
    L = pc.L  # each read rebuilds P^T
    p1 = _column_tail(p, n, pc.t_q, pc.q.d, mode)
    p2 = binomial_tail(p_logical(p, n), L, pc.t_c)
    return L * p1 + p2 - L * p1 * p2


def floor_eps(value: float) -> float:
    """Clamp positive probabilities below machine epsilon to the 1e-16 floor."""
    return max(value, EPS_FLOOR)


TABLE1_CODES = (("[[7,1,3]]", 7, 1, 3), ("[[17,1,5]]", 17, 2, 5),
                ("[[23,1,7]]", 23, 3, 7))
TABLE1_PROBS = (1e-3, 1e-4, 1e-5)


def table1_values() -> dict[tuple[str, float], tuple[float, float]]:
    """(code label, p) -> (P(wt > t), P(wt >= d)), machine-epsilon floored."""
    out = {}
    for label, n, t, d in TABLE1_CODES:
        for p in TABLE1_PROBS:
            out[(label, p)] = (floor_eps(binomial_tail(p, n, t)),
                               floor_eps(binomial_tail(p, n, d - 1)))
    return out


def format_table1() -> str:
    """High-weight error probabilities per code and physical error rate."""
    vals = table1_values()
    header = "code        " + "  ".join(f"p={p:g}".ljust(16) for p in TABLE1_PROBS)
    lines = [header]
    for label, _, _, _ in TABLE1_CODES:
        cells = []
        for p in TABLE1_PROBS:
            a, b = vals[(label, p)]
            cells.append(f"{a:.0e} ({b:.0e})".ljust(16))
        lines.append(label.ljust(12) + "  ".join(cells))
    return "\n".join(lines)


def choose_bch(L: int, p: float, q: CssCode) -> ClassicalCode:
    """Smallest-t_C BCH of length L whose block tail fits the column budget.

    The budget is L times the per-column over-budget probability; t_C is
    the smallest radius with P(more than t_C columns hit) <= budget, so
    neither term dominates the failure probability.
    """
    m = L.bit_length()
    if m < 2 or (1 << m) - 1 != L:
        raise GF2Error(f"L={L} is not a BCH length 2^m - 1")
    check_probability("p", p)
    budget = L * binomial_tail(p, q.n, q.t)
    p_l = p_logical(p, q.n)
    for t_c in range(1, (L - 1) // 2 + 1):
        if binomial_tail(p_l, L, t_c) <= budget:
            return classical.bch(m, t_c)
    raise GF2Error(f"no feasible t_C <= {(L - 1) // 2} for L={L}, p={p}")


def overhead(pc: ProductCode, mode: str = "plain") -> int:
    """Syndrome qubits for the product scheme, both error types summed.

    Plain mode uses one ancilla per product stabilizer: R per classical
    row times the quantum stabilizer count.  Shor-style fault-tolerant
    mode replaces each ancilla with a block as large as its stabilizer's
    weight, so the count is R times the summed stabilizer weights.
    """
    q = pc.q
    if mode == "plain":
        return pc.R * (q.hx.rows + q.hz.rows)
    if mode == "shor_ft":
        weights = q.stabilizer_weights()
        if not weights:
            raise GF2Error(f"{q.kind} has no recorded stabilizer weights")
        return pc.R * sum(weights)
    raise GF2Error(f"mode must be 'plain' or 'shor_ft', got {mode!r}")


def canonical_overhead(L: int, q: CssCode) -> int:
    """Baseline: one ancilla per stabilizer per logical qubit, both types."""
    return L * (q.hx.rows + q.hz.rows)


def syndrome_error_prob(delta: int, p_e: float) -> float:
    """Probability an odd number of delta independent p_e faults flip a bit."""
    if delta < 0:
        raise GF2Error(f"delta must be nonnegative, got {delta}")
    return math.fsum(
        math.comb(delta, a) * p_e ** a * (1.0 - p_e) ** (delta - a)
        for a in range(1, delta + 1, 2)
    )


def poisson_binomial_tail(probs: list[float], threshold: int) -> float:
    """P(sum of independent Bernoulli(p_i) > threshold) by DP convolution."""
    for i, p in enumerate(probs):
        check_probability(f"probs[{i}]", p)
    dist = [1.0]
    for p in probs:
        nxt = [0.0] * (len(dist) + 1)
        for c, mass in enumerate(dist):
            nxt[c] += mass * (1.0 - p)
            nxt[c + 1] += mass * p
        dist = nxt
    return math.fsum(dist[threshold + 1:]) if threshold + 1 < len(dist) else 0.0


def binary_entropy(p: float) -> float:
    check_probability("p", p)
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class ShannonReport:
    """Hashing-bound and channel-rate margins; negative margin = violation."""

    h2_p: float
    source_margin: float  # (n - k) - n H2(p) per quantum code block
    h2_pm: float = 0.0
    channel_rate: float = -1.0
    channel_margin: float = 0.0

    @property
    def source_ok(self) -> bool:
        return self.source_margin > 0.0

    @property
    def channel_ok(self) -> bool:
        return self.channel_rate < 0.0 or self.channel_margin > 0.0


def shannon_bounds(p: float, pc: ProductCode, g1: ClassicalCode | None = None,
                   g2: ClassicalCode | None = None, p_m: float = 0.0) -> ShannonReport:
    """Hashing-bound margin n - k > n H2(p), and, when channel codes are
    given, the coded-syndrome rate margin R(n-k)/(n1 n2) < 1 - H2(p_m), with
    p_m the measurement-channel bit-flip probability."""
    check_probability("p_m", p_m)
    q = pc.q
    h2 = binary_entropy(p)
    source_margin = (q.n - q.k) - q.n * h2
    if g1 is None or g2 is None:
        return ShannonReport(h2_p=h2, source_margin=source_margin)
    rate = pc.key_bits("X") / (g1.n * g2.n)
    h2m = binary_entropy(p_m)
    return ShannonReport(h2_p=h2, source_margin=source_margin, h2_pm=h2m,
                         channel_rate=rate,
                         channel_margin=(1.0 - h2m) - rate)
