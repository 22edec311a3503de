"""Smoke sizes of every workload, and each oracle rejecting a corrupted answer.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import qproduct  # noqa: E402
import qproduct.cli  # noqa: E402,F401
import oracle  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    wl = workloads.WORKLOADS[name](qproduct, str(tmp_path), smoke=True)
    result = workloads.untraced_run(wl, seed=3, seconds=0.0)
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0 and result["attempted"] == wl.prefix
    assert list(result["metrics"]) == [m for m, _ in workloads.END_TO_END]
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    original = qproduct.sim.run_trials
    wl = workloads.WORKLOADS[name](qproduct, str(tmp_path), smoke=True)
    spans_path = str(tmp_path / "spans.npz")
    result = workloads.traced_run(wl, 3, qproduct, spans_path)
    assert result["correct"], result["detail"]
    assert list(result["metrics"]) == [m for m, _ in workloads.PER_LAYER]
    assert result["metrics"]["trace.spans"] > 0
    assert os.path.getsize(spans_path) > 0
    assert qproduct.sim.run_trials is original  # patches removed


def test_traced_counts_land_in_their_layers(tmp_path):
    wl = workloads.WORKLOADS["mc-noisy"](qproduct, str(tmp_path), smoke=True)
    m = workloads.traced_run(wl, 5, qproduct, str(tmp_path / "s.npz"))["metrics"]
    shots = wl.prefix * wl.shots + wl.warmup_shots
    # at most one nearest-key query per shot, set-up warm-up included
    assert 0 < m["decoder.min_distance_decode.calls"] <= shots
    assert m["product.from_packed.calls"] == m["decoder.min_distance_decode.calls"]
    assert m["product.table_entries"] == 36
    assert m["sim.run_trials.self_s"] > 0 and m["gf2.self_s"] > 0


def test_logical_fail_rate_repeats_for_a_seed(tmp_path):
    runs = []
    for _ in range(2):
        wl = workloads.WORKLOADS["mc-noisy"](qproduct, str(tmp_path), smoke=True)
        detail = workloads.untraced_run(wl, seed=11, seconds=0.0)["detail"]
        runs.append((detail["logical_fail_rate"], detail["breakdown"]))
    assert runs[0] == runs[1]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-lookup",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- each oracle rejects a corrupted answer ------------------------------------

def _report(failures, breakdown, shots=100):
    return SimpleNamespace(shots=shots, failures=failures, breakdown=breakdown)


def test_report_oracle_rejects_uncharged_failures():
    good = {"class_misses": 3, "decode_errors": 0, "degenerate_hits": 5}
    assert oracle.check_report(_report(3, good), 100, lookup_mode=True) == []
    assert oracle.check_report(_report(4, good), 100, lookup_mode=True)
    assert oracle.check_report(_report(3, good, shots=99), 100, lookup_mode=True)
    inside = {"class_misses": 2, "decode_errors": 1}
    assert oracle.check_report(_report(3, inside), 100, lookup_mode=False) == []
    assert oracle.check_report(_report(3, inside), 100, lookup_mode=True)


def test_rate_oracle_rejects_a_rate_off_the_model():
    p = oracle.class_e_failure(1e-2, 3, 4, 1, 1)
    shots = 1 << 16
    assert oracle.check_rate(round(p * shots), shots, p) == []
    assert oracle.check_rate(round(2 * p * shots), shots, p)


def _localization_input(seed=7):
    code = oracle.BchCode(7, 6)
    rng = workloads.np.random.default_rng(seed)
    while True:
        m_rows, flips, xi = workloads.sample_localization(rng, code, 3e-3, 3e-3)
        if any(m_rows) and any(flips) and oracle.within_radius(m_rows, flips, code.t):
            return code, m_rows, flips, xi


def test_localization_oracle_rejects_a_wrong_support():
    _, m_rows, flips, _ = _localization_input()
    supports = [oracle.support(m) for m in m_rows]
    flip_sets = [oracle.support(f) for f in flips]
    assert oracle.check_localization(m_rows, flips, supports, flip_sets) == []
    row = next(i for i, m in enumerate(m_rows) if m)
    bad = [list(s) for s in supports]
    bad[row] = sorted(set(bad[row]) ^ {0})
    assert oracle.check_localization(m_rows, flips, bad, flip_sets)
    frow = next(i for i, f in enumerate(flips) if f)
    bad_flips = [list(s) for s in flip_sets]
    bad_flips[frow] = []
    assert oracle.check_localization(m_rows, flips, supports, bad_flips)


def test_localize_workload_rejects_a_corrupted_result(tmp_path):
    wl = workloads.LocalizePaper(qproduct, str(tmp_path), smoke=True)
    pc = wl.setup()
    _, m_rows, flips, xi = _localization_input(seed=9)
    op = workloads.Op("localize_bm", xi, (m_rows, flips))
    res = wl.call(pc, wl.prepare(pc, op))
    assert wl.check(pc, op, res, None).problems == []
    supports = list(res.per_row_supports)
    row = next(i for i, s in enumerate(supports) if s)
    supports[row] = frozenset()
    corrupted = SimpleNamespace(per_row_supports=supports,
                                syndrome_flips=res.syndrome_flips,
                                logical_indices=res.logical_indices)
    assert wl.check(pc, op, corrupted, None).problems
    raised = qproduct.decoder.LocalizationError(0, "beyond radius")
    assert wl.check(pc, op, None, raised).problems  # inside the radius: a fault


def _decode_case():
    code = oracle.BchCode(4, 3)
    hc = code.hc_columns("full")
    columns = [0] * code.n
    columns[2], columns[9] = 1 << 3, 1 << 6
    key = oracle.flatten_key(oracle.product_rows(oracle.STEANE_H, hc, columns)[1], code.r)
    return code, hc, columns, key


def _decode_answer(columns):
    value = 0
    for ell, c in enumerate(columns):
        value |= c << (ell * 7)
    return json.dumps({"status": "ok", "distance": 0,
                       "correction": oracle.bits_to_str(value, 7 * len(columns))})


def test_decode_oracle_rejects_a_wrong_correction():
    code, hc, columns, key = _decode_case()
    stabs = oracle.rowspace(oracle.STEANE_H)

    def check(answer):
        return oracle.check_decode(answer, key, columns, oracle.STEANE_H, stabs, hc, 7, code.r)

    assert check(_decode_answer(columns)) == []
    equivalent = list(columns)
    equivalent[2] ^= oracle.STEANE_H[0]  # differs by a stabilizer
    assert check(_decode_answer(equivalent)) == []
    wrong_syndrome = list(columns)
    wrong_syndrome[4] = 1
    assert check(_decode_answer(wrong_syndrome))
    logical = list(columns)
    logical[2] ^= 0b10110  # X2X3X5: zero syndrome, not a stabilizer
    assert check(_decode_answer(logical))
    assert check(json.dumps({"status": "not_found", "distance": -1}))


def test_decode_oracle_agrees_with_the_program(tmp_path):
    wl = workloads.CliMix(qproduct, str(tmp_path), smoke=True)
    state = wl.setup()
    assert wl.check_setup(state) == []
    stream = wl.ops(workloads.np.random.default_rng(2))
    op = next(o for o in stream if o.kind == "decode" and o.expect[0])
    assert wl.check(state, op, wl.call(state, wl.prepare(state, op)), None).problems == []


def test_build_and_analyze_oracles_reject_wrong_numbers(tmp_path):
    path = tmp_path / "t.lut"
    path.write_text("qproduct-lut entries=2\n0 0\n1 1\n", encoding="ascii")
    good = json.dumps({"entries": 2, "key_bits": 6})
    assert oracle.check_build(good, str(path), 2, 6) == []
    assert oracle.check_build(json.dumps({"entries": 3, "key_bits": 6}), str(path), 2, 6)
    assert oracle.check_build(good, str(path), 3, 6)

    pf = oracle.pf_closed_form(1e-4, 17, 2, 913, 11)
    expect = workloads.CliMix.ANALYZE_EXPECT
    answer = dict(expect, failure_prob=pf)
    assert oracle.check_analyze(json.dumps(answer), expect, pf) == []
    assert oracle.check_analyze(json.dumps(dict(answer, failure_prob=pf * 1.01)), expect, pf)
    assert oracle.check_analyze(json.dumps(dict(answer, t_c=10)), expect, pf)


def test_oracle_codes_match_the_published_anchors():
    assert (oracle.BchCode(7, 6).k, oracle.BchCode(7, 6).r) == (85, 42)
    assert (oracle.BchCode(10, 11).k, oracle.BchCode(10, 11).r) == (913, 110)
    assert oracle.class_e_size(7, 15, 1, 3) == 161316
