"""Monte Carlo harness: interval math, sampling, and decode bookkeeping."""

import dataclasses
import functools
import math
import random

import numpy as np
import pytest

from qproduct import analytics, classical, decoder, product, quantum, sim
from qproduct.gf2 import BitMatrix, GF2Error
from qproduct.product import ProductCode
from qproduct.sim import TrialConfig

from helpers import (brute_nearest, count_class_evaluations, differs_by_stabilizers, entries,
                     extract_syndrome, pattern_from_packed, stabilizer_span, syndrome_key,
                     table_from_entries, to_numpy)


def desk_instance():
    return ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt")


def test_trial_config_validation():
    pc = desk_instance()
    with pytest.raises(GF2Error, match="shots"):
        TrialConfig(pc=pc, p=0.01, shots=0, seed=1)
    with pytest.raises(GF2Error, match="p="):
        TrialConfig(pc=pc, p=1.5, shots=10, seed=1)
    with pytest.raises(GF2Error, match="decode_mode"):
        TrialConfig(pc=pc, p=0.1, shots=10, seed=1, decode_mode="magic")
    with pytest.raises(GF2Error, match="min_distance"):
        TrialConfig(pc=pc, p=0.1, shots=10, seed=1, syndrome_noise=True)
    with pytest.raises(GF2Error, match="seed"):
        TrialConfig(pc=pc, p=0.1, shots=10, seed=-1)
    for p_e in (1.5, -0.5, float("nan")):
        with pytest.raises(GF2Error, match="p_e="):
            TrialConfig(pc=pc, p=0.1, shots=10, seed=1, p_e=p_e,
                        decode_mode="min_distance", syndrome_noise=True)
    # p_e only drives syndrome noise, so without it a nonzero p_e would be ignored
    for mode in ("lookup", "min_distance"):
        with pytest.raises(GF2Error, match="p_e=0.05 needs syndrome_noise"):
            TrialConfig(pc=pc, p=0.1, shots=10, seed=1, p_e=0.05, decode_mode=mode)
    TrialConfig(pc=pc, p=0.1, shots=10, seed=1, p_e=0.0)


def test_wilson_interval_known_values():
    lo, hi = sim.wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.0370, abs=1e-3)
    lo, hi = sim.wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=1e-3)
    assert hi == pytest.approx(0.5962, abs=1e-3)
    assert sim.wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_covers_true_rate():
    """Coverage oracle: ~95% of seeded binomial draws trap the true p."""
    rng = random.Random(0)
    p, trials, runs = 0.05, 400, 300
    covered = 0
    for _ in range(runs):
        hits = sum(rng.random() < p for _ in range(trials))
        lo, hi = sim.wilson_interval(hits, trials)
        covered += lo <= p <= hi
    assert covered / runs > 0.9


def color17_rep5():
    return ProductCode(classical.repetition(5), quantum.color17(), hc_mode="pt")


def steane_hamming_full():
    return ProductCode(classical.hamming(3), quantum.steane(), hc_mode="full")


def color17_bch_full():
    """bch:15:3 x color17, t_src=1: 255-bit patterns, 80-bit keys."""
    return ProductCode(classical.bch(4, 3), quantum.color17(), t_src=1)


def test_key_tables_match_extract_syndrome():
    """The key words of every single-bit pattern, and of random multi-bit
    patterns read through the byte tables, are extract_syndrome's key, on
    one-word keys and on 80-bit keys of 255-bit patterns."""
    rng = random.Random(8)
    for pc in (desk_instance(), bch_steane(), color17_rep5(), steane_hamming_full(),
               color17_bch_full()):
        w = product.n_words(pc.key_bits())
        tables = sim._key_tables(product.key_map(pc.q.check_matrix("X"), pc.h_c), w)
        assert tables.shape == (-(-pc.N // 8), 256, w)
        assert not tables[:, 0].any()
        for bit in range(pc.N):
            e = pattern_from_packed(1 << bit, pc.q.n, pc.L)
            (key,) = product.from_words(tables[bit // 8, [1 << (bit % 8)]])
            assert key == syndrome_key(extract_syndrome(pc, e))
        for _ in range(50):
            packed = rng.getrandbits(pc.N)
            e = pattern_from_packed(packed, pc.q.n, pc.L)
            key = np.zeros(w, dtype=np.uint64)
            for j, table in enumerate(tables):
                key ^= table[(packed >> (8 * j)) & 255]
            assert product.from_words(key[None]) == [syndrome_key(extract_syndrome(pc, e))]


def python_ints(bits):
    """Each row of a (shots, width) 0/1 array as a Python int, column j at bit j."""
    return [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in bits]


def test_pack_matches_python_ints():
    """Word rows of any width, one word and several, hold the Python-int
    packing of each row in ``product.as_words``' layout."""
    rng = np.random.default_rng(0)
    for width in (1, 12, 62, 63, 64, 65, 105, 255, 1445):
        bits = rng.random((40, width)) < 0.5
        bits[0], bits[1] = 0, 1  # all zeros and all ones
        got = sim._pack(bits)
        assert got.shape == (40, product.n_words(width))
        assert np.array_equal(got, product.as_words(python_ints(bits), got.shape[1]))


def test_noise_probs_closed_form():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt",
                     t_src=1)
    probs = sim._noise_probs(pc.q.check_matrix("X"), pc.h_c, 1e-3)
    assert probs.shape == (3 * pc.R,)
    hq_w = pc.q.hz.row_weights()
    hc_w = pc.c.pt.row_weights()
    for i in (0, 2):
        for r in (0, pc.R - 1):
            expect = (1 - (1 - 2e-3) ** (hq_w[i] * hc_w[r])) / 2
            assert probs[i * pc.R + r] == pytest.approx(expect, rel=1e-9)


def test_run_trials_zero_noise_never_fails():
    cfg = TrialConfig(pc=desk_instance(), p=0.0, shots=500, seed=3)
    rep = sim.run_trials(cfg)
    assert rep.failures == 0 and rep.empirical_rate == 0.0
    assert rep.analytic_rate == 0.0


def test_run_trials_reproducible():
    cfg = TrialConfig(pc=desk_instance(), p=0.05, shots=4000, seed=11)
    a = sim.run_trials(cfg)
    b = sim.run_trials(cfg)
    assert (a.failures, a.breakdown) == (b.failures, b.breakdown)
    assert sim.run_trials(TrialConfig(pc=desk_instance(), p=0.05, shots=4000,
                                      seed=12)).failures != a.failures


def test_run_trials_failure_equals_class_escape():
    """With an injective table every failure is a pattern outside the
    uniquely decodable class; no decode errors occur."""
    cfg = TrialConfig(pc=desk_instance(), p=0.03, shots=20000, seed=5)
    rep = sim.run_trials(cfg)
    assert rep.breakdown["decode_errors"] == 0
    assert rep.failures == rep.breakdown["class_misses"]
    # at p = 0.03 the union-bound model is only approximate; it should
    # still land within a few percent of the measurement
    assert rep.analytic_rate == pytest.approx(rep.empirical_rate, rel=0.15)


def test_run_trials_matches_exhaustive_rate():
    """Empirical rate approaches the exact P(pattern outside class) computed
    by enumerating the binomial weight distribution."""
    pc = desk_instance()
    p = 0.04
    # exact P(in class): each column independently has weight 0 or 1, and
    # at most one column is nonzero (t_q = t_c = 1)
    p0 = (1 - p) ** 3
    p1 = 3 * p * (1 - p) ** 2
    exact_ok = p0 ** 4 + 4 * p1 * p0 ** 3
    cfg = TrialConfig(pc=pc, p=p, shots=60000, seed=9)
    rep = sim.run_trials(cfg)
    lo, hi = rep.wilson_95_interval
    assert lo <= 1 - exact_ok <= hi


def test_run_trials_min_distance_clean():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt",
                     t_src=1)
    cfg = TrialConfig(pc=pc, p=1e-3, shots=5000, seed=21,
                      decode_mode="min_distance")
    rep = sim.run_trials(cfg)
    assert rep.breakdown["decode_errors"] == 0
    assert rep.breakdown["ambiguities"] == 0


def test_run_trials_with_syndrome_noise():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt",
                     t_src=1)
    cfg = TrialConfig(pc=pc, p=1e-3, shots=5000, seed=22,
                      decode_mode="min_distance", syndrome_noise=True,
                      p_e=1e-3)
    rep = sim.run_trials(cfg)
    # flips within the radius budget must never corrupt a decode
    assert rep.breakdown["decode_errors"] == 0
    assert rep.failures == (rep.breakdown["class_misses"]
                            + rep.breakdown["noise_over_budget"]
                            + rep.breakdown["ambiguities"])


@pytest.mark.parametrize("mode", ["lookup", "min_distance"])
def test_run_trials_stabilizer_shifted_table_hits_are_degenerate(monkeypatch, mode):
    """Every stored correction shifted by a stabilizer in the last column:
    each in-class shot decodes to a degenerate hit, never to a failure.
    The class map is built once for the all-zero outcome and once for the
    one batch, and evaluated once per classified shot."""
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt",
                     t_src=1)
    table = product.build_lookup_table(pc)
    shift = pc.q.hx.row_data[0] << ((pc.L - 1) * pc.q.n)
    table = table_from_entries(pc, "X", table.key_bits,
                               {k: v ^ shift for k, v in entries(table).items()}, table.max_cols)
    counts = count_class_evaluations(monkeypatch, sim)
    rep = sim.run_trials(TrialConfig(pc=pc, p=0.02, shots=2000, seed=3,
                                     decode_mode=mode), table)
    assert rep.failures == rep.breakdown["class_misses"]
    assert rep.breakdown["degenerate_hits"] == rep.shots - rep.failures
    assert counts["maps"] == 2
    assert 0 < counts["evaluations"] <= rep.breakdown["degenerate_hits"]


def test_run_trials_ties_charged_as_ambiguities():
    """Against a table whose two keys sit at distance 1 from the zero key,
    every shot fails and the zero-syndrome shots (most of them) are ties."""
    pc = desk_instance()
    table = table_from_entries(pc=pc, error_type="X", key_bits=6,
                               entries={0b01: 0, 0b10: 0}, max_cols=1)
    rep = sim.run_trials(TrialConfig(pc=pc, p=0.01, shots=1000, seed=4,
                                     decode_mode="min_distance"), table)
    causes = ("class_misses", "decode_errors", "ambiguities")
    assert rep.failures == rep.shots == sum(rep.breakdown[c] for c in causes)
    assert rep.breakdown["ambiguities"] > rep.shots // 2


def test_run_trials_report_invariants():
    with pytest.raises(GF2Error, match="exceed"):
        sim.TrialReport(shots=5, failures=6, empirical_rate=1.2,
                        wilson_95_interval=(0, 1), analytic_rate=0.1)


# -- batch triage against the per-shot loop -------------------------------------

def _key_matrix(hq, hc):
    """(n*L) x key_bits 0/1 map from vec(eps) bits to flattened syndrome bits."""
    m = np.einsum("iq,rl->lqir", to_numpy(hq), to_numpy(hc))
    return m.reshape(hq.cols * hc.cols, hq.rows * hc.rows).astype(np.uint8)


def reference_run_trials(cfg, table):
    """The per-shot loop that preceded the batch triage: every shot visits
    Python as Python ints, and min_distance mode decodes each in-class shot
    by brute force."""
    pc = cfg.pc
    hq, hc = pc.q.check_matrix(cfg.error_type), pc.h_c
    n, L = pc.q.n, pc.L
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    key_mat = _key_matrix(hq, hc)
    span = stabilizer_span(pc.q, cfg.error_type)
    lookup = cfg.decode_mode == "lookup"
    fixes = entries(table)
    skip_zero = lookup and fixes.get(0) == 0
    radius = pc.t_c - pc.t_src
    nearest = functools.cache(lambda key: brute_nearest(fixes, [key], radius)[0])
    noise_probs = sim._noise_probs(hq, hc, cfg.p_e) if cfg.syndrome_noise else None
    # BATCH shots a draw while patterns and keys fit one word, fewer past it
    width = max(n * L, table.key_bits)
    per_batch = sim.BATCH if width <= 64 else sim.BATCH * 64 // width
    breakdown = {"class_misses": 0, "decode_errors": 0, "ambiguities": 0,
                 "noise_over_budget": 0, "degenerate_hits": 0}
    failures = 0
    done = 0
    while done < cfg.shots:
        b = min(per_batch, cfg.shots - done)
        done += b
        bits = (rng.random((b, n * L)) < cfg.p).astype(np.uint8)
        keys = python_ints((bits @ key_mat) & 1)
        truths = python_ints(bits)
        colw = bits.reshape(b, L, n).sum(axis=2)
        in_e = ((colw <= pc.t_q).all(axis=1)
                & ((colw > 0).sum(axis=1) <= pc.t_c))
        if cfg.syndrome_noise:
            flips = python_ints(rng.random((b, table.key_bits)) < noise_probs)
            in_budget = (colw > 0).sum(axis=1) <= pc.t_src
        for shot in range(b):
            if not in_e[shot]:
                failures += 1
                breakdown["class_misses"] += 1
                continue
            truth = truths[shot]
            key = keys[shot]
            if truth == 0 and skip_zero:
                continue
            cause = "decode_errors"
            if lookup:
                stored = fixes.get(key)
            else:
                flip = flips[shot] if cfg.syndrome_noise else 0
                if cfg.syndrome_noise and not (in_budget[shot]
                                               and flip.bit_count() <= radius):
                    failures += 1
                    breakdown["noise_over_budget"] += 1
                    continue
                status, _, correction = nearest(key ^ flip)
                stored = correction if status == "ok" else None
                if status == "ambiguous":
                    cause = "ambiguities"
            if stored == truth:
                continue
            if stored is not None and differs_by_stabilizers(stored ^ truth, n, span):
                breakdown["degenerate_hits"] += 1
            else:
                failures += 1
                breakdown[cause] += 1
    return sim.TrialReport(
        shots=cfg.shots, failures=failures, empirical_rate=failures / cfg.shots,
        wilson_95_interval=sim.wilson_interval(failures, cfg.shots),
        analytic_rate=analytics.failure_probability(cfg.p, pc), breakdown=breakdown)


def bch_steane():
    return ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt", t_src=1)


def _shifted_table():
    pc = bch_steane()
    table = product.build_lookup_table(pc)
    shift = pc.q.hx.row_data[0] << ((pc.L - 1) * pc.q.n)
    return table_from_entries(pc, "X", table.key_bits,
                              {k: v ^ shift for k, v in entries(table).items()}, table.max_cols)


def _desk_t_c_3_case():
    """The desk code at t_C = 3 with its one-column table, which holds the
    desk table's entries: a build over two or more columns aborts on a
    syndrome conflict."""
    pc = ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt", t_c=3)
    return pc, {"p": 0.1}, product.build_lookup_table(pc, max_cols=1)


def _tie_table():
    return table_from_entries(pc=desk_instance(), error_type="X", key_bits=6,
                              entries={0b01: 0, 0b10: 0}, max_cols=1)


TRIAGE_CASES = {
    "desk-lookup-0.01": lambda: (desk_instance(), {"p": 0.01}, None),
    "desk-lookup-0.05": lambda: (desk_instance(), {"p": 0.05}, None),
    "desk-lookup-0.2": lambda: (desk_instance(), {"p": 0.2}, None),
    "bch-min-distance": lambda: (bch_steane(), {"p": 0.01, "decode_mode": "min_distance"},
                                 None),
    "bch-min-distance-noisy": lambda: (
        bch_steane(), {"p": 0.01, "decode_mode": "min_distance", "syndrome_noise": True,
                       "p_e": 0.003}, None),
    "shifted-lookup": lambda: (bch_steane(), {"p": 0.02}, _shifted_table()),
    "shifted-min-distance": lambda: (bch_steane(), {"p": 0.02, "decode_mode": "min_distance"},
                                     _shifted_table()),
    "tie-table": lambda: (desk_instance(), {"p": 0.01, "decode_mode": "min_distance"},
                          _tie_table()),
    "tie-table-noisy": lambda: (desk_instance(), {"p": 0.01, "decode_mode": "min_distance",
                                                  "syndrome_noise": True, "p_e": 0.01},
                                _tie_table()),
    # 17-bit columns straddle bytes; degenerate hits at this rate
    "color17-rep5-lookup": lambda: (color17_rep5(), {"p": 0.02}, None),
    # N = 49: seven bytes of pattern per shot
    "steane-hamming-full-lookup": lambda: (steane_hamming_full(), {"p": 0.01}, None),
    "empty-table-lookup": lambda: (
        desk_instance(), {"p": 0.05},
        table_from_entries(pc=desk_instance(), error_type="X", key_bits=6, entries={},
                           max_cols=1)),
    # t_C = 3 admits three-column normalizer elements: nonzero truth, zero key
    "desk-normalizers-in-class": _desk_t_c_3_case,
    # wide shots: 105-bit patterns (two words), 30-bit keys, the 161,316-entry table
    "bch-steane-full-lookup": lambda: (ProductCode(classical.bch(4, 3), quantum.steane()),
                                       {"p": 0.01}, None),
    # 255-bit patterns (four words), 80-bit keys (two words)
    "color17-bch-min-distance": lambda: (color17_bch_full(),
                                         {"p": 0.003, "decode_mode": "min_distance"}, None),
    "color17-bch-min-distance-noisy": lambda: (
        color17_bch_full(), {"p": 0.003, "decode_mode": "min_distance", "syndrome_noise": True,
                             "p_e": 1e-4}, None),
}
SLOW_REFERENCE = ("color17-bch-min-distance", "color17-bch-min-distance-noisy")  # 4-8 s at 40k


NOISY_CASES = [case for case in TRIAGE_CASES if TRIAGE_CASES[case]()[1].get("syndrome_noise")]


@pytest.mark.parametrize("case", NOISY_CASES + ["paper-scale"])
def test_noise_probs_match_per_bit_list(case):
    """One syndrome_error_prob call per distinct gate count gives the same
    array as one call per key bit, here and at 336 key bits (L = 85)."""
    if case == "paper-scale":
        pc = ProductCode(classical.bch(7, 6), quantum.color17(), hc_mode="pt", t_src=1)
        p_e = 1e-3
    else:
        pc, kwargs, _ = TRIAGE_CASES[case]()
        p_e = kwargs["p_e"]
    hq, hc = pc.q.check_matrix("X"), pc.h_c
    want = np.array([analytics.syndrome_error_prob(wq * wc, p_e)
                     for wq in hq.row_weights() for wc in hc.row_weights()])
    got = sim._noise_probs(hq, hc, p_e)
    assert got.dtype == want.dtype and len(got) == hq.rows * hc.rows
    assert np.array_equal(got, want)


@pytest.mark.parametrize("case,shots", [(case, shots) for case in TRIAGE_CASES
                                        for shots in (1, 1000, 40000)
                                        if shots < 40000 or case not in SLOW_REFERENCE])
def test_run_trials_triage_matches_per_shot_loop(case, shots):
    """Same report, breakdown included, as the per-shot loop; 40 000 shots
    span two batches of sim.BATCH, and three of the 19,972 shots a batch
    holds at 105 bits a pattern."""
    pc, kwargs, table = TRIAGE_CASES[case]()
    if table is None:
        max_cols = pc.t_src if kwargs.get("decode_mode") == "min_distance" else pc.t_c
        table = product.build_lookup_table(pc, max_cols=max_cols)
    cfg = TrialConfig(pc=pc, shots=shots, seed=shots + 17, **kwargs)
    assert sim.run_trials(cfg, table) == reference_run_trials(cfg, table)


def test_min_distance_cost_does_not_grow_with_shots(monkeypatch):
    """Per-shot work stays packed: the BitMatrix count does not grow with the
    shots, one nearest_key call decodes a whole batch, and ProductCode
    derived matrices are read a fixed number of times per call."""
    pc = bch_steane()
    table = product.build_lookup_table(pc, max_cols=pc.t_src)
    counts = {"matrices": 0, "nearest_key": 0, "h_c": 0}
    init, nearest_key, h_c = BitMatrix.__init__, decoder.nearest_key, ProductCode.h_c.fget

    def counting_init(self, *args, **kwargs):
        counts["matrices"] += 1
        init(self, *args, **kwargs)

    def counting_nearest_key(*args):
        counts["nearest_key"] += 1
        return nearest_key(*args)

    def counting_h_c(self):
        counts["h_c"] += 1
        return h_c(self)

    monkeypatch.setattr(BitMatrix, "__init__", counting_init)
    monkeypatch.setattr(decoder, "nearest_key", counting_nearest_key)
    monkeypatch.setattr(ProductCode, "h_c", property(counting_h_c))
    seen = []
    for shots in (2000, 20000):
        counts.update(matrices=0, nearest_key=0, h_c=0)
        sim.run_trials(TrialConfig(pc=pc, p=1e-3, shots=shots, seed=5,
                                   decode_mode="min_distance", syndrome_noise=True,
                                   p_e=1e-3), table)
        seen.append(dict(counts))
    # one call for the all-zero outcome and one for the single batch
    assert seen[0] == seen[1] and seen[0]["nearest_key"] == 2


@pytest.mark.parametrize("make,max_cols,build_reads,cfg", [
    (desk_instance, None, 4, {}),
    (bch_steane, None, 6, {}),
    (bch_steane, 1, 4, {"decode_mode": "min_distance", "syndrome_noise": True, "p_e": 1e-2}),
])
def test_h_c_reads_per_call(monkeypatch, make, max_cols, build_reads, cfg):
    """In pt mode each ProductCode.h_c read rebuilds P^T: a table build reads
    it at most build_reads times and a run_trials call given a table twice."""
    pc = make()
    reads = [0]
    h_c = ProductCode.h_c.fget

    def counting_h_c(self):
        reads[0] += 1
        return h_c(self)

    monkeypatch.setattr(ProductCode, "h_c", property(counting_h_c))
    table = product.build_lookup_table(pc, max_cols=max_cols)
    assert reads[0] <= build_reads
    reads[0] = 0
    sim.run_trials(TrialConfig(pc=pc, p=0.01, shots=3000, seed=3, **cfg), table)
    assert reads[0] <= 2
    reads[0] = 0
    sim.run_trials(TrialConfig(pc=pc, p=0.01, shots=3000, seed=3, **cfg))
    assert reads[0] <= build_reads + 2


def test_lookup_mode_runs_no_per_shot_decoder_calls(monkeypatch):
    """Lookup mode reads the table with one exact (radius 0) nearest_key
    call per batch and one for the all-zero outcome, and
    only shots whose stored correction differs from the truth reach the
    stabilizer-equivalence class, whose map is built at most once per
    batch."""
    calls = {"nearest_key": 0}
    nearest_key = decoder.nearest_key

    def counting_nearest_key(table, keys, radius):
        calls["nearest_key"] += 1
        assert radius == 0
        return nearest_key(table, keys, radius)

    monkeypatch.setattr(decoder, "nearest_key", counting_nearest_key)
    pc = desk_instance()
    table = product.build_lookup_table(pc)
    counts = count_class_evaluations(monkeypatch, sim)
    for shots in (2000, 20000, 2 * sim.BATCH + 1):
        calls.update(nearest_key=0)
        counts.update(maps=0, evaluations=0)
        rep = sim.run_trials(TrialConfig(pc=pc, p=0.05, shots=shots, seed=7), table)
        assert rep.breakdown["class_misses"] > 0
        assert calls["nearest_key"] == 1 + -(-shots // sim.BATCH)
        # with the desk table every in-class key is stored, so a failure
        # with a stored entry is a decode error
        assert counts["evaluations"] == (rep.breakdown["degenerate_hits"]
                                         + rep.breakdown["decode_errors"])
        assert counts["maps"] <= min(counts["evaluations"], -(-shots // sim.BATCH))


@pytest.mark.parametrize("mode", ["lookup", "min_distance"])
@pytest.mark.parametrize("route", ["assign", "replace"])
def test_table_indexes_follow_the_entries(mode, route):
    """A table's sorted words are its only state, and nothing derived from
    them outlives a run: a frozen table refuses new arrays, its arrays refuse
    in-place writes, and one emptied with dataclasses.replace after a run
    decodes as a fresh empty table does."""
    pc = bch_steane()
    table = product.build_lookup_table(pc, max_cols=pc.t_src if mode == "min_distance"
                                       else pc.t_c)
    cfg = TrialConfig(pc=pc, p=0.05, shots=2000, seed=1, decode_mode=mode)
    before = sim.run_trials(cfg, table)
    assert set(vars(table)) == {"pc", "error_type", "key_bits", "max_cols", "keys", "fixes"}
    if route == "assign":
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.keys = table.keys[:0]
        for words in (table.keys, table.fixes):
            with pytest.raises(ValueError, match="read-only"):
                words[0] = 0
        assert sim.run_trials(cfg, table) == before
        return
    table = dataclasses.replace(table, keys=table.keys[:0], fixes=table.fixes[:0])
    fresh = table_from_entries(pc=pc, error_type="X", key_bits=table.key_bits,
                               entries={}, max_cols=table.max_cols)
    report = sim.run_trials(cfg, table)
    assert report == sim.run_trials(cfg, fresh)
    assert report.breakdown["decode_errors"] > 1000


@pytest.mark.parametrize("mode", ["lookup", "min_distance"])
def test_run_trials_refuses_a_table_of_another_code(mode):
    """A bch:15:3pt x steane table against a hamming3pt x rep3 config used
    to decode silently (2,188 decode errors at this seed)."""
    pc = bch_steane()
    table = product.build_lookup_table(pc, max_cols=pc.t_src)
    cfg = TrialConfig(pc=desk_instance(), p=1e-2, shots=20000, seed=1, decode_mode=mode)
    with pytest.raises(GF2Error, match="table built for c=bch:15:5, not hamming:7:4"):
        sim.run_trials(cfg, table)


@pytest.mark.parametrize("field,value,match", [
    ("pc", ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt", t_c=2),
     "tc=2, not 3"),
    ("pc", ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt", t_q=0),
     "tq=0, not 1"),
    ("pc", ProductCode(classical.bch(4, 3), quantum.color17(), hc_mode="pt"),
     "q=color17, not steane"),
    ("pc", ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="full"),
     "mode=full, not pt"),
    ("error_type", "Z", "type=Z, not X"),
    ("key_bits", 29, "key_bits=29, not 30"),
])
def test_run_trials_table_mismatch_names_the_field(field, value, match):
    """Each code field a table file pins, and the error type, is checked
    and named."""
    pc = bch_steane()
    table = dataclasses.replace(product.build_lookup_table(pc, max_cols=1), **{field: value})
    with pytest.raises(GF2Error, match=match):
        sim.run_trials(TrialConfig(pc=pc, p=1e-2, shots=100, seed=1), table)
