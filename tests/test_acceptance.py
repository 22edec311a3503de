"""Acceptance gate: eleven end-to-end criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines; each criterion is also an ordinary assertion.
"""

import itertools
import math
import random
import time

import pytest

from qproduct import (analytics, circuit, classical, decoder, gf2, product,
                      quantum, sim)
from qproduct.circuit import PauliFrame
from qproduct.gf2 import BitMatrix
from qproduct.product import ProductCode, ProductSyndrome

from helpers import (encode, entries, extract_syndrome, nearest, normalizer_generators,
                     pattern_from_columns, table_from_entries, vec)


def report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def desk_instance():
    return ProductCode(classical.hamming(3), quantum.rep3(), hc_mode="pt")


def test_criterion_01_probability_table():
    start = time.perf_counter()
    vals = analytics.table1_values()
    expect = {
        ("[[7,1,3]]", 1e-3): (2e-05, 3e-08),
        ("[[7,1,3]]", 1e-4): (2e-07, 3e-11),
        ("[[7,1,3]]", 1e-5): (2e-09, 3e-14),
        ("[[17,1,5]]", 1e-3): (7e-07, 6e-12),
        ("[[17,1,5]]", 1e-4): (7e-10, 1e-16),
        ("[[17,1,5]]", 1e-5): (7e-13, 1e-16),
        ("[[23,1,7]]", 1e-3): (9e-09, 2e-16),
        ("[[23,1,7]]", 1e-4): (9e-13, 1e-16),
        ("[[23,1,7]]", 1e-5): (1e-16, 1e-16),
    }
    ok = all(
        f"{vals[k][0]:.0e}" == f"{a:.0e}" and f"{vals[k][1]:.0e}" == f"{b:.0e}"
        for k, (a, b) in expect.items()
    )
    elapsed = time.perf_counter() - start
    report(1, f"18/18 high-weight probability values match ({elapsed:.2f}s)",
           ok and elapsed < 1.0)


def test_criterion_02_overhead_anchors():
    start = time.perf_counter()
    q = quantum.color17()
    c127 = analytics.choose_bch(127, 1e-4, q)
    c1023 = analytics.choose_bch(1023, 1e-4, q)
    o127 = analytics.overhead(ProductCode(c127, q, hc_mode="pt"))
    o1023 = analytics.overhead(ProductCode(c1023, q, hc_mode="pt"))
    canonical = analytics.canonical_overhead(127, q)
    elapsed = time.perf_counter() - start
    ok = (c127.t, c1023.t) == (6, 11) and \
        (o127, o1023, canonical) == (672, 1760, 2032)
    report(2, f"overhead 672/1760 vs canonical 2032 at t_C=6/11 ({elapsed:.1f}s)",
           ok and elapsed < 10.0)


def test_criterion_03_failure_rate_anchor():
    q = quantum.color17()
    c = analytics.choose_bch(127, 1e-4, q)
    pf = analytics.failure_probability(1e-4, ProductCode(c, q, hc_mode="pt"))
    ratio = 1e-7 / pf if pf < 1e-7 else pf / 1e-7
    report(3, f"L=85 (BCH(127,6) pt) failure probability {pf:.2e} within 3x of 1e-7",
           ratio < 3.0)


def _fast_colwts(bits: int, n: int, L: int) -> list[int]:
    mask = (1 << n) - 1
    return [((bits >> (ell * n)) & mask).bit_count() for ell in range(L)]


def _fast_in_E(bits: int, pc: ProductCode) -> bool:
    wts = _fast_colwts(bits, pc.q.n, pc.L)
    return max(wts) <= pc.t_q and sum(1 for w in wts if w) <= pc.t_c


def test_criterion_04_exhaustive_table_construction():
    start = time.perf_counter()
    desk = desk_instance()
    desk_table = product.build_lookup_table(desk)
    steane_pc = ProductCode(classical.bch(4, 3), quantum.steane(), t_c=2)
    steane_table = product.build_lookup_table(steane_pc)
    counts_ok = (len(desk_table.keys) - 1 == 12
                 and len(steane_table.keys) == product.class_E_size(steane_pc)
                 == 5251)
    # adding any nonzero normalizer generator pushes every pattern out of
    # the uniquely decodable class, so stored corrections are coset leaders
    leaders_ok = True
    for pc, table in ((desk, desk_table), (steane_pc, steane_table)):
        gens = [g.packed() for g in normalizer_generators(pc, "X")]
        for e in entries(table).values():
            for g in gens:
                if g and _fast_in_E(e ^ g, pc):
                    leaders_ok = False
    elapsed = time.perf_counter() - start
    report(4, f"tables build conflict-free (13 and 5251 entries) and all "
              f"stored corrections are coset leaders ({elapsed:.1f}s)",
           counts_ok and leaders_ok and elapsed < 30.0)


def test_criterion_05_worked_circuit_example():
    pc = desk_instance()
    c = circuit.build_circuit(product.product_parity_check(pc, "X"))
    s = pc.q.hz.rows

    def stabilizer_block(bits, i):
        out, _ = circuit.propagate(c, PauliFrame(x=bits))
        return [out[r * s + i] for r in range(pc.R)]

    x2 = stabilizer_block(1 << 1, 0)
    x7 = stabilizer_block(1 << 6, 0)
    alias = stabilizer_block((1 << 0) | (1 << 9), 0)
    ok = x2 == [1, 0, 1] and x7 == [1, 1, 0] and alias == [1, 1, 0]
    report(5, "first-stabilizer blocks: X2->[1,0,1], X7->[1,1,0], "
              "X1X10->[1,1,0]", ok)


def test_criterion_06_noisy_syndrome_sweep():
    start = time.perf_counter()
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt",
                     t_src=1)
    table = product.build_lookup_table(pc, max_cols=pc.t_src)
    bits = table.key_bits
    bad = 0
    total = 0
    flips = [1 << i for i in range(bits)]
    flips += [(1 << i) | (1 << j)
              for i, j in itertools.combinations(range(bits), 2)]
    for key, value in entries(table).items():
        answers = nearest(table, [key ^ f for f in flips], pc.t_c - pc.t_src)
        total += len(flips)
        bad += sum(status != "ok" or fix != value for status, _, fix in answers)
    elapsed = time.perf_counter() - start
    report(6, f"all {total} <=2-bit key corruptions over {len(table.keys)} "
              f"keys decode to the original entry ({elapsed:.1f}s)",
           bad == 0 and elapsed < 300.0)


def test_criterion_07_localization():
    # row decoding of the weight-5 detectable pattern on columns {4, 9, 14}
    pc = ProductCode(classical.bch(4, 3), quantum.steane())
    cols = [0] * pc.L
    cols[4], cols[9], cols[14] = 0b10, 0b100001, 0b1001
    e = pattern_from_columns(cols, 7, "X")
    res = decoder.localize_bm(pc, extract_syndrome(pc, e))
    rows_ok = (res.logical_indices == frozenset({4, 9, 14})
               and res.per_row_supports == (frozenset(), frozenset({4, 14}),
                                            frozenset({9, 14})))
    # noisy-syndrome localization: one flip per row, exhaustive over
    # positions, for single-column source patterns
    ppc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt",
                      t_src=1)
    bad = 0
    total = 0
    for ell in range(ppc.L):
        for qubit in range(3):
            cols = [0] * ppc.L
            cols[ell] = 1 << qubit
            src = pattern_from_columns(cols, 7, "X")
            clean = extract_syndrome(ppc, src).matrix
            expect = frozenset(
                j for j in range(ppc.L)
                if gf2.mul(ppc.q.hz, src.matrix).get(0, j)
                or gf2.mul(ppc.q.hz, src.matrix).get(1, j)
                or gf2.mul(ppc.q.hz, src.matrix).get(2, j))
            for f0 in range(ppc.R):
                for f1 in range(ppc.R):
                    for f2 in range(0, ppc.R, 3):
                        rows = [clean.row_data[0] ^ (1 << f0),
                                clean.row_data[1] ^ (1 << f1),
                                clean.row_data[2] ^ (1 << f2)]
                        got = decoder.localize_bm(
                            ppc, ProductSyndrome(BitMatrix(rows, ppc.R)))
                        total += 1
                        if got.logical_indices != expect or \
                                got.syndrome_flips != (frozenset({f0}),
                                                       frozenset({f1}),
                                                       frozenset({f2})):
                            bad += 1
    report(7, f"row localization yields {{4,9,14}} and {total} noisy "
              f"single-flip-per-row cases recover the source exactly",
           rows_ok and bad == 0)


def test_criterion_08_circuit_matrix_equivalence():
    bad = 0
    for pc in (desk_instance(),
               ProductCode(classical.hamming(4), quantum.steane())):
        h = product.product_parity_check(pc, "X")
        c = circuit.build_circuit(h)
        frames = [1 << i for i in range(pc.N)]
        frames += [(1 << i) | (1 << j)
                   for i, j in itertools.combinations(range(pc.N), 2)]
        for bits in frames:
            out, _ = circuit.propagate(c, PauliFrame(x=bits))
            flat = gf2.mul(h, BitMatrix([bits], pc.N).transpose())
            if out != [flat.get(i, 0) for i in range(h.rows)]:
                bad += 1
    report(8, "circuit propagation equals matrix syndrome for all weight<=2 "
              "frames on both instances", bad == 0)


def test_criterion_09_fault_tolerance():
    pc = ProductCode(classical.bch(4, 3), quantum.steane(), hc_mode="pt")
    ft = circuit.build_shor_ft_circuit(pc, 0)
    worst = 0
    for k in range(len(ft.gates) + 1):
        for q in range(ft.total_qubits):
            for fx, fz in ((1, 0), (0, 1), (1, 1)):
                rest = circuit.SyndromeCircuit(
                    data_qubits=ft.data_qubits,
                    ancilla_blocks=ft.ancilla_blocks,
                    gates=ft.gates[k:], measurements=ft.measurements)
                _, fin = circuit.propagate(
                    rest, PauliFrame(x=fx << q, z=fz << q))
                data = circuit.data_frame(ft, fin)
                for bits in (data.x, data.z):
                    worst = max(worst, max(_fast_colwts(bits, 7, pc.L)))
    # bare circuit: one mid-row ancilla Y fault spreads multi-qubit Z
    bare = circuit.build_circuit(product.product_parity_check(pc, "X"))
    anc = bare.data_qubits
    k = [i for i, (_, a) in enumerate(bare.gates) if a == anc][2]
    rest = circuit.SyndromeCircuit(
        data_qubits=bare.data_qubits, ancilla_blocks=bare.ancilla_blocks,
        gates=bare.gates[k:], measurements=bare.measurements)
    _, fin = circuit.propagate(rest, PauliFrame(x=1 << anc, z=1 << anc))
    bare_worst = max(_fast_colwts(circuit.data_frame(bare, fin).z, 7, pc.L))
    report(9, f"Shor-mode single faults leave weight <= {worst} per logical "
              f"qubit; bare Y fault spreads weight {bare_worst}",
           worst <= 1 and bare_worst >= 2)


def test_criterion_10_monte_carlo():
    start = time.perf_counter()
    ok = True
    details = []
    for p in (1e-2, 3e-3):
        cfg = sim.TrialConfig(pc=desk_instance(), p=p, shots=10 ** 6, seed=42)
        rep = sim.run_trials(cfg)
        lo, hi = rep.wilson_95_interval
        inside = lo <= rep.analytic_rate <= hi
        ok = ok and inside
        details.append(f"p={p:g}: {rep.empirical_rate:.3e} in "
                       f"[{lo:.3e},{hi:.3e}] vs {rep.analytic_rate:.3e}")
    elapsed = time.perf_counter() - start
    report(10, "; ".join(details) + f" ({elapsed:.1f}s)",
           ok and elapsed < 300.0)


def test_criterion_11_oracle_suites():
    rng = random.Random(2024)
    # Berlekamp-Massey vs brute-force nearest codeword, all 2^15 words
    code = classical.bch(4, 3)
    words = [encode(code, BitMatrix([m], code.k)).row_data[0]
             for m in range(1 << code.k)]
    bm_ok = True
    for received in range(1 << code.n):
        dmin, best = min(((received ^ w).bit_count(), w) for w in words)
        got = classical.bm_locate(code, received)
        if dmin <= code.t:
            if got is None or received ^ sum(1 << i for i in got) != best:
                bm_ok = False
        elif got is not None:
            bm_ok = False
    # nearest-key scan vs linear scan; each key is stored as its own correction
    keys = rng.sample(range(1 << 20), 10 ** 4)
    table = table_from_entries(pc=desk_instance(), error_type="X", key_bits=20,
                               entries={k: k for k in keys}, max_cols=1)
    nk_ok = True
    for _ in range(100):
        probe = rng.randrange(1 << 20)
        radius = rng.randint(0, 3)
        within = sorted(((k ^ probe).bit_count(), k) for k in keys
                        if (k ^ probe).bit_count() <= radius)
        ties = [k for d, k in within if d == within[0][0]]
        expect = (("not_found", -1, -1) if not within
                  else ("ok", within[0][0], ties[0]) if len(ties) == 1
                  else ("ambiguous", within[0][0], -1))
        if nearest(table, [probe], radius) != [expect]:
            nk_ok = False
    # Poisson-binomial DP vs 2^n enumeration at n = 20
    probs = [rng.random() for _ in range(20)]
    threshold = 8
    exact = 0.0
    for bits in range(1 << 20):
        if bits.bit_count() > threshold:
            mass = 1.0
            for i, p in enumerate(probs):
                mass *= p if (bits >> i) & 1 else 1 - p
            exact += mass
    pb_ok = math.isclose(analytics.poisson_binomial_tail(probs, threshold),
                         exact, rel_tol=1e-9)
    # Kronecker flattening identity on 10^3 random instances
    vec_ok = True
    for _ in range(10 ** 3):
        nq, lq = rng.randint(1, 6), rng.randint(1, 6)
        hc = BitMatrix([rng.randrange(1 << lq)
                        for _ in range(rng.randint(1, 5))], lq)
        hq = BitMatrix([rng.randrange(1 << nq)
                        for _ in range(rng.randint(1, 5))], nq)
        eps = BitMatrix([rng.randrange(1 << lq) for _ in range(nq)], lq)
        lhs = gf2.mul(gf2.kron(hc, hq), vec(eps).transpose()).transpose()
        rhs = vec(gf2.mul(gf2.mul(hq, eps), hc.transpose()))
        if lhs != rhs:
            vec_ok = False
    report(11, f"oracles: BM={bm_ok}, nearest-key={nk_ok}, "
               f"Poisson-binomial={pb_ok}, flattening={vec_ok}",
           bm_ok and nk_ok and pb_ok and vec_ok)
