"""Closed-form probability models against enumeration oracles and anchors."""

import itertools
import math
import random

import pytest

from qproduct import analytics, classical, quantum
from qproduct.gf2 import GF2Error
from qproduct.product import ProductCode


def test_check_probability():
    for p in (0.0, 0.5, 1.0):
        analytics.check_probability("p", p)
    for p in (-0.01, 1.5, float("nan"), float("inf")):
        with pytest.raises(GF2Error, match=r"p_e=.* outside \[0, 1\]"):
            analytics.check_probability("p_e", p)


@pytest.mark.parametrize("p,n,t", [
    (0.3, 10, 2), (0.01, 23, 3), (1e-4, 17, 2), (0.5, 8, 4), (0.0, 5, 1),
])
def test_binomial_tail_complements_cdf(p, n, t):
    head = math.fsum(math.comb(n, w) * p ** w * (1 - p) ** (n - w)
                     for w in range(t + 1))
    assert analytics.binomial_tail(p, n, t) == pytest.approx(1.0 - head, abs=1e-14)


def test_binomial_tail_edge_cases():
    assert analytics.binomial_tail(0.2, 5, 5) == 0.0
    assert analytics.binomial_tail(1.0, 5, 4) == pytest.approx(1.0)


def test_binomial_tail_equals_full_sum():
    """Stopping at the first underflowed p ** tau leaves the sum bit-identical."""
    def full_sum(p, n, t):
        return math.fsum(math.comb(n, tau) * p ** tau * (1.0 - p) ** (n - tau)
                         for tau in range(t + 1, n + 1))

    for p in (1.0, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-9, 1e-30, 1e-200, 5e-324):
        for n in (1, 7, 17, 23, 127, 255, 1023):
            for t in sorted({0, 1, 2, 3, 11, n // 2, n - 1, n}):
                if t <= n:
                    assert analytics.binomial_tail(p, n, t) == full_sum(p, n, t), (p, n, t)


def test_p_logical_complement_identity():
    assert analytics.p_logical(0.1, 3) == pytest.approx(1 - 0.9 ** 3)
    assert analytics.p_logical(0.0, 7) == 0.0


def test_table1_pinned_values():
    """All 18 probability strings for the three small codes at three rates."""
    vals = analytics.table1_values()
    expect = {
        ("[[7,1,3]]", 1e-3): ("2e-05", "3e-08"),
        ("[[7,1,3]]", 1e-4): ("2e-07", "3e-11"),
        ("[[7,1,3]]", 1e-5): ("2e-09", "3e-14"),
        ("[[17,1,5]]", 1e-3): ("7e-07", "6e-12"),
        ("[[17,1,5]]", 1e-4): ("7e-10", "1e-16"),
        ("[[17,1,5]]", 1e-5): ("7e-13", "1e-16"),
        ("[[23,1,7]]", 1e-3): ("9e-09", "2e-16"),
        ("[[23,1,7]]", 1e-4): ("9e-13", "1e-16"),
        ("[[23,1,7]]", 1e-5): ("1e-16", "1e-16"),
    }
    for key, (a, b) in expect.items():
        got = vals[key]
        assert f"{got[0]:.0e}" == f"{float(a):.0e}"
        assert f"{got[1]:.0e}" == f"{float(b):.0e}"


def test_format_table1_contains_floored_entry():
    text = analytics.format_table1()
    assert "1e-16 (1e-16)" in text  # the floor keeps values above epsilon
    assert text.count("\n") == 3


def test_failure_probability_formula():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")
    p = 1e-3
    p1 = analytics.binomial_tail(p, 7, 1)
    p2 = analytics.binomial_tail(1 - (1 - p) ** 7, 5, 3)
    expect = 5 * p1 + p2 - 5 * p1 * p2
    assert analytics.failure_probability(p, pc) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, -0.5, float("nan")])
def test_failure_probability_rejects_non_probability(p):
    """p = 2.0 used to give -2988.0 on this code."""
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")
    with pytest.raises(GF2Error, match=r"p=.* outside \[0, 1\]"):
        analytics.failure_probability(p, pc)


def test_failure_probability_localize_mode_smaller():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")
    correct = analytics.failure_probability(1e-3, pc, "correct")
    localize = analytics.failure_probability(1e-3, pc, "localize")
    assert localize < correct  # detection tolerates weight up to d_Q - 1
    with pytest.raises(GF2Error, match="mode"):
        analytics.failure_probability(1e-3, pc, "bogus")


def test_failure_probability_color17_anchor():
    """127 color-code logical qubits at p = 1e-4 land at a few 1e-8."""
    pc = ProductCode(classical.bch(7, 6), quantum.color17(), hc_mode="pt")
    pf = analytics.failure_probability(1e-4, pc)
    assert pf == pytest.approx(5.79e-8, rel=0.01)


def test_choose_bch_anchors():
    q = quantum.color17()
    code = analytics.choose_bch(127, 1e-4, q)
    assert (code.n, code.t) == (127, 6)
    assert code.n - code.k == 42
    with pytest.raises(GF2Error, match="BCH length"):
        analytics.choose_bch(100, 1e-4, q)


def test_choose_bch_monotone_in_p():
    q = quantum.color17()
    t_small = analytics.choose_bch(127, 1e-5, q).t
    t_large = analytics.choose_bch(127, 1e-3, q).t
    assert t_small <= 6 <= t_large


def test_overhead_anchors():
    q = quantum.color17()
    c127 = analytics.choose_bch(127, 1e-4, q)
    pc = ProductCode(c127, q, hc_mode="pt")
    assert analytics.overhead(pc) == 672
    c1023 = analytics.choose_bch(1023, 1e-4, q)
    assert analytics.overhead(ProductCode(c1023, q, hc_mode="pt")) == 1760
    assert analytics.canonical_overhead(127, q) == 2032


def test_overhead_shor_ft_weights():
    steane_pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")
    assert analytics.overhead(steane_pc, "shor_ft") == steane_pc.R * 24  # six weight-4 stabilizers
    color_pc = ProductCode(classical.bch(7, 6), quantum.color17(), hc_mode="pt")
    assert analytics.overhead(color_pc, "shor_ft") == \
        color_pc.R * 72  # fourteen weight-4 plus two weight-8 stabilizers


def test_overhead_returns_the_syndrome_qubit_count():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")
    count = analytics.overhead(pc)
    assert type(count) is int and count == pc.R * 6  # six stabilizers
    with pytest.raises(GF2Error, match="mode"):
        analytics.overhead(pc, "bogus")


def syndrome_error_prob_closed(delta: int, p_e: float) -> float:
    """Closed form (1 - (1 - 2 p_e)^delta) / 2 of the odd-parity series."""
    return (1.0 - (1.0 - 2.0 * p_e) ** delta) / 2.0


def test_syndrome_error_prob_matches_closed_form():
    for delta in range(0, 12):
        for p_e in (0.0, 1e-3, 0.1, 0.5):
            series = analytics.syndrome_error_prob(delta, p_e)
            closed = syndrome_error_prob_closed(delta, p_e)
            assert series == pytest.approx(closed, abs=1e-14)
    with pytest.raises(GF2Error, match="nonneg"):
        analytics.syndrome_error_prob(-1, 0.1)


def test_poisson_binomial_against_enumeration():
    rng = random.Random(3)
    for n in (1, 4, 8, 12):
        probs = [rng.random() for _ in range(n)]
        for threshold in (0, n // 2, n - 1):
            exact = 0.0
            for bits in itertools.product((0, 1), repeat=n):
                if sum(bits) > threshold:
                    mass = 1.0
                    for b, p in zip(bits, probs):
                        mass *= p if b else 1 - p
                    exact += mass
            got = analytics.poisson_binomial_tail(probs, threshold)
            assert got == pytest.approx(exact, abs=1e-12)


def test_poisson_binomial_reduces_to_binomial():
    got = analytics.poisson_binomial_tail([0.02] * 23, 3)
    assert got == pytest.approx(analytics.binomial_tail(0.02, 23, 3), rel=1e-12)
    with pytest.raises(GF2Error):
        analytics.poisson_binomial_tail([1.2], 0)


def test_binary_entropy():
    assert analytics.binary_entropy(0.5) == 1.0
    assert analytics.binary_entropy(0.0) == 0.0
    assert analytics.binary_entropy(0.11) == pytest.approx(0.499916, abs=1e-5)
    with pytest.raises(GF2Error):
        analytics.binary_entropy(1.1)


def test_shannon_bounds_source_margin():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")
    rep = analytics.shannon_bounds(1e-3, pc)
    assert rep.source_ok
    assert rep.source_margin == pytest.approx(
        6 - 7 * analytics.binary_entropy(1e-3))
    # near-maximal noise violates the hashing bound
    assert not analytics.shannon_bounds(0.5, pc).source_ok


def test_shannon_bounds_channel_margin():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")
    g1 = classical.bch(4, 3)
    g2 = classical.repetition(5)
    rep = analytics.shannon_bounds(1e-3, pc, g1, g2, p_m=1e-2)
    assert rep.channel_rate == pytest.approx(pc.key_bits("X") / (15 * 5))
    assert rep.h2_pm == pytest.approx(analytics.binary_entropy(1e-2))
    assert rep.channel_ok


def test_shannon_bounds_rejects_non_probability():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")
    g1, g2 = classical.bch(4, 3), classical.repetition(5)
    for args in ((pc, g1, g2), (pc,)):  # p_m is checked with or without channel codes
        with pytest.raises(GF2Error, match=r"p_m=1.5 outside \[0, 1\]"):
            analytics.shannon_bounds(1e-3, *args, p_m=1.5)
    with pytest.raises(GF2Error, match=r"p=1.5 outside \[0, 1\]"):
        analytics.shannon_bounds(1.5, pc)


def test_floor_eps():
    assert analytics.floor_eps(1e-20) == 1e-16
    assert analytics.floor_eps(1e-3) == 1e-3
