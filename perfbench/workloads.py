"""The qproduct benchmark workloads and the measurement loop that drives them.

Every workload is a closed loop: one caller in one process issues the next
operation only after the previous one returned.  Inputs come from the
benchmark's seeded generator and are prepared outside the timed region;
every answer is checked by ``oracle`` after the clock stops.

A run has a fixed *prefix* of operations that always executes in full, so
``logical_fail_rate`` and the failure-cause counts repeat exactly for a
seed; untraced runs then continue until ``--seconds`` have passed.  Traced
runs execute the prefix twice, untraced and then traced, and report the
per-layer numbers of the traced pass with its overhead against the
untraced one.  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracle
import spans

# End-to-end metrics with a regression bound in BENCHMARK.json.  Call
# latency (median and tail) is reported in the detail line only: on a shared
# two-core virtual machine its run-to-run spread exceeds the largest bound a
# metric may carry.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
FAILURE_CAUSES = ("class_misses", "decode_errors", "ambiguities", "noise_over_budget")
CLI_COMMANDS = ("build-table", "decode", "localize", "analyze")
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in spans.TRACED_MODULES),
    ("gf2.bitmatrix_built", "count/op"),
    ("classical.pt.calls", "count"),
    ("classical.pt.self_s", "s"),
    ("classical.pt.incl_s", "s"),
    ("classical.bm_decode.calls", "count"),
    ("classical.bm_decode.self_s", "s"),
    ("classical.bm_decode.none_frac", "fraction"),
    ("classical.bch.self_s", "s"),
    ("product.ProductCode.init_s", "s"),
    ("product.h_c.calls", "count"),
    ("product.build_lookup_table.self_s", "s"),
    ("product.table_entries", "count"),
    ("product.save_lookup_table.self_s", "s"),
    ("product.load_lookup_table.self_s", "s"),
    ("product.table_file_bytes", "bytes"),
    ("product.from_packed.calls", "count"),
    ("decoder.min_distance_decode.calls", "count"),
    ("decoder.min_distance_decode.self_s", "s"),
    ("decoder.min_distance_decode.ok_frac", "fraction"),
    ("decoder.bk_nodes_per_query", "nodes/query"),
    ("decoder.bk_index_build_s", "s"),
    ("decoder.localize_bm.calls", "count"),
    ("decoder.localize_bm.self_s", "s"),
    ("decoder.localize_bm.fail_frac", "fraction"),
    ("decoder.lookup_decode.calls", "count"),
    ("analytics.choose_bch.self_s", "s"),
    ("analytics.failure_probability.self_s", "s"),
    ("sim.run_trials.self_s", "s"),
    *((f"sim.breakdown.{cause}", "count") for cause in FAILURE_CAUSES),
    *((f"cli.{cmd}.p50_ms", "ms") for cmd in CLI_COMMANDS),
    ("cli.exit_nonzero", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
)


@dataclass
class Op:
    """One closed-loop request: what the program gets and what the oracle knows."""

    kind: str
    arg: object
    expect: object = None
    work: int = 1


@dataclass
class Outcome:
    kind: str
    seconds: float
    work: int
    problems: list[str]
    lost: int = 0   # shots or inputs not restored
    tried: int = 0  # shots or inputs counted by logical_fail_rate
    breakdown: dict = field(default_factory=dict)
    rc: int = 0
    analytic_rate: float = 0.0  # the program's own model, from its report


class Workload:
    name = ""
    unit = ""          # what throughput counts: shots, decodes or commands
    prefix = 1         # operations every run executes in full
    cycle = 1          # runs stop only at a multiple of this many operations
    setup_repeats = 15  # setup_s is the median over this many set-ups

    def __init__(self, qp, workdir: str, smoke: bool = False):
        self.qp = qp
        self.workdir = workdir

    def properties(self) -> dict:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def check_setup(self, state) -> list[str]:
        return []

    def ops(self, rng: np.random.Generator):
        raise NotImplementedError

    def prepare(self, state, op: Op):
        """Turn an op into the program's input, outside the timed region."""
        return op.arg

    def call(self, state, arg):
        raise NotImplementedError

    def check(self, state, op: Op, result, exc) -> Outcome:
        raise NotImplementedError


# -- Monte Carlo ------------------------------------------------------------------

class MonteCarlo(Workload):
    unit = "shots"
    p = 0.0
    p_e = 0.0
    mode = "lookup"
    noise = False

    def code(self):
        raise NotImplementedError

    def setup(self):
        qp = self.qp
        pc = self.code()
        max_cols = pc.t_src if self.mode == "min_distance" else None
        table = qp.product.build_lookup_table(pc, "X", max_cols=max_cols)
        # warm-up; in min_distance mode this also builds the BK index
        qp.sim.run_trials(self.config(pc, self.warmup_shots, 1), table)
        return pc, table

    def check_setup(self, state) -> list[str]:
        _, table = state
        want = oracle.class_e_size(self.n, self.L, self.t_q, self.max_cols)
        if len(table.entries) != want:
            return [f"table holds {len(table.entries)} entries, class E has {want}"]
        return []

    def config(self, pc, shots: int, seed: int):
        return self.qp.sim.TrialConfig(
            pc=pc, p=self.p, shots=shots, seed=seed, syndrome_noise=self.noise,
            p_e=self.p_e, decode_mode=self.mode)

    def properties(self) -> dict:
        N = self.n * self.L
        return {"L": self.L, "R": self.R, "N": N, "key_bits": self.stabs * self.R,
                "table_entries": oracle.class_e_size(self.n, self.L, self.t_q, self.max_cols),
                "p": self.p, "p_e": self.p_e, "decode_mode": self.mode,
                "shots_per_call": self.shots, "zero_error_share_model": (1 - self.p) ** N}

    def ops(self, rng):
        while True:
            yield Op("run_trials", int(rng.integers(1 << 62)), work=self.shots)

    def call(self, state, seed):
        pc, table = state
        return self.qp.sim.run_trials(self.config(pc, self.shots, seed), table)

    def check(self, state, op, report, exc):
        if exc is not None:
            return Outcome(op.kind, 0.0, op.work, [f"raised {exc!r}"], op.work, op.work)
        problems = oracle.check_report(report, self.shots, self.mode == "lookup")
        if self.mode == "lookup":
            problems += oracle.check_rate(report.failures, report.shots, self.model_rate())
        return Outcome(op.kind, 0.0, op.work, problems, report.failures, report.shots,
                       breakdown=dict(report.breakdown), analytic_rate=report.analytic_rate)

    def model_rate(self) -> float:
        return oracle.class_e_failure(self.p, self.n, self.L, self.t_q, self.t_c)


class McLookup(MonteCarlo):
    """Desk instance hamming3pt x rep3, exact lookup decoding."""

    name = "mc-lookup"
    p = 1e-2
    n, L, R, stabs, t_q, t_c = 3, 4, 3, 2, 1, 1
    max_cols = 1
    warmup_shots = 4096

    def __init__(self, qp, workdir, smoke=False):
        super().__init__(qp, workdir, smoke)
        self.shots = 4096 if smoke else 1 << 16
        self.prefix = 2 if smoke else 16

    def code(self):
        qp = self.qp
        return qp.product.ProductCode(qp.classical.hamming(3), qp.quantum.rep3(),
                                      hc_mode="pt")


class McNoisy(MonteCarlo):
    """bch:15:3pt x steane, t_src=1, nearest-key decoding of noisy syndromes."""

    name = "mc-noisy"
    p = 1e-3
    p_e = 1e-3
    mode = "min_distance"
    noise = True
    n, L, R, stabs, t_q, t_c = 7, 5, 10, 3, 1, 3
    max_cols = 1  # t_src
    warmup_shots = 256

    def __init__(self, qp, workdir, smoke=False):
        super().__init__(qp, workdir, smoke)
        self.shots = 256 if smoke else 2048
        self.prefix = 2 if smoke else 32

    def code(self):
        qp = self.qp
        return qp.product.ProductCode(qp.classical.bch(4, 3), qp.quantum.steane(),
                                      hc_mode="pt", t_src=1)


# -- BM localization at paper scale ------------------------------------------------

def _columns(bits: np.ndarray) -> list[int]:
    """(n, L) 0/1 array -> one n-bit int per column."""
    weights = np.int64(1) << np.arange(bits.shape[0], dtype=np.int64)
    return (weights @ bits.astype(np.int64)).tolist()


def _row_ints(bits: np.ndarray) -> list[int]:
    weights = np.int64(1) << np.arange(bits.shape[1], dtype=np.int64)
    return (bits.astype(np.int64) @ weights).tolist()


def sample_localization(rng, code: oracle.BchCode, p: float, q: float):
    """I.i.d. X errors at rate p on every qubit of code (pt) x color17, and
    syndrome-bit flips at rate q.  Returns (m_rows, flip_rows, noisy Xi rows).
    """
    check = oracle.COLOR17_H
    columns = _columns(rng.random((17, code.k)) < p)
    flips = _row_ints(rng.random((len(check), code.r)) < q)
    m_rows, xi = oracle.product_rows(check, code.hc_columns("pt"), columns)
    return m_rows, flips, [x ^ f for x, f in zip(xi, flips)]


class LocalizePaper(Workload):
    """decoder.localize_bm on bch(7,6)pt x color17 (L=85, R=42)."""

    name = "localize-paper"
    unit = "decodes"
    p = q = 1e-3

    def __init__(self, qp, workdir, smoke=False):
        super().__init__(qp, workdir, smoke)
        self.prefix = 20 if smoke else 1000
        self.code = oracle.BchCode(7, 6)
        self.warmup = []
        warm = np.random.default_rng(0)
        while len(self.warmup) < 4:  # nonzero inputs inside the decoding radius
            m_rows, flips, xi = sample_localization(warm, self.code, 3e-3, 3e-3)
            if any(xi) and oracle.within_radius(m_rows, flips, self.code.t):
                self.warmup.append(xi)
        self.zero_inputs = 0

    def properties(self) -> dict:
        N = 17 * self.code.k
        return {"L": self.code.k, "R": self.code.r, "N": N,
                "key_bits": 8 * self.code.r, "table_entries": 0, "t_c": self.code.t,
                "p": self.p, "flip_p": self.q,
                "zero_error_share_model": (1 - self.p) ** N,
                "zero_input_share_model": (1 - self.p) ** N * (1 - self.q) ** (8 * self.code.r)}

    def _syndrome(self, rows):
        qp = self.qp
        return qp.product.ProductSyndrome(qp.gf2.BitMatrix(rows, self.code.r))

    def setup(self):
        qp = self.qp
        pc = qp.product.ProductCode(qp.classical.bch(7, 6), qp.quantum.color17(),
                                    hc_mode="pt")
        for rows in self.warmup:
            qp.decoder.localize_bm(pc, self._syndrome(rows))
        return pc

    def ops(self, rng):
        while True:
            m_rows, flips, xi = sample_localization(rng, self.code, self.p, self.q)
            self.zero_inputs += not any(xi)
            yield Op("localize_bm", xi, (m_rows, flips))

    def prepare(self, state, op):
        return self._syndrome(op.arg)

    def call(self, pc, xi):
        return self.qp.decoder.localize_bm(pc, xi)

    def check(self, state, op, res, exc):
        m_rows, flips = op.expect
        inside = oracle.within_radius(m_rows, flips, self.code.t)
        if exc is not None:
            expected = isinstance(exc, self.qp.decoder.LocalizationError) and not inside
            return Outcome(op.kind, 0.0, 1, [] if expected else [f"raised {exc!r}"], 1, 1)
        problems = oracle.check_localization(m_rows, flips, res.per_row_supports,
                                             res.syndrome_flips)
        union = set().union(*(oracle.support(m) for m in m_rows))
        if set(res.logical_indices) != union:
            problems.append(f"logical indices {sorted(res.logical_indices)} != {sorted(union)}")
        restored = not problems
        return Outcome(op.kind, 0.0, 1, problems if inside else [], int(not restored), 1)


# -- command-line traffic ------------------------------------------------------------

class CliMix(Workload):
    """A fixed script of in-process `qproduct` commands (see README.md)."""

    name = "cli-mix"
    unit = "commands"
    setup_repeats = 5
    TABLE_CODE = ("bch:15:3", "steane")
    LOCALIZE_CODE = ("bch:1023:11pt", "color17")
    LOCALIZE_P = 1e-4
    # build 1, decode 10, localize 4, analyze 1: at the seed commit no
    # command type takes more than about a third of a cycle's wall time
    SCRIPT = ("build-table", "decode", "decode", "decode", "localize",
              "decode", "decode", "localize", "analyze", "decode", "decode",
              "decode", "localize", "decode", "decode", "localize")
    ANALYZE_EXPECT = {"L": 1023, "p": 1e-4, "t_c": 11, "syndrome_qubits": 1760,
                      "canonical": 1023 * 16}

    def __init__(self, qp, workdir, smoke=False):
        super().__init__(qp, workdir, smoke)
        self.script = CLI_COMMANDS if smoke else self.SCRIPT
        self.cycle = self.prefix = len(self.script)
        if smoke:
            self.setup_repeats = 1
        self.table_path = os.path.join(workdir, "table.lut")
        self.xi_path = os.path.join(workdir, "xi.txt")
        self.table_code = oracle.BchCode(4, 3)
        self.hc_full = self.table_code.hc_columns("full")
        self.loc_code = oracle.BchCode(10, 11)
        self.entries = oracle.class_e_size(7, self.table_code.n, 1, self.table_code.t)
        self.pf = oracle.pf_closed_form(1e-4, 17, 2, self.loc_code.k, self.loc_code.t)
        self.stab_space = oracle.rowspace(oracle.STEANE_H)
        self.zero_queries = 0

    def properties(self) -> dict:
        return {"table_L": self.table_code.n, "table_R": self.table_code.r,
                "table_N": 7 * self.table_code.n, "table_key_bits": 3 * self.table_code.r,
                "table_entries": self.entries,
                "localize_L": self.loc_code.k, "localize_R": self.loc_code.r,
                "localize_N": 17 * self.loc_code.k, "localize_p": self.LOCALIZE_P,
                "script": list(self.script)}

    def _build_argv(self):
        c, q = self.TABLE_CODE
        return ["product", "build-table", "--c", c, "--q", q, "--out", self.table_path]

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.qp.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def setup(self):
        return self.run_cli(self._build_argv())

    def check_setup(self, state) -> list[str]:
        rc, out, err = state
        if rc != 0:
            return [f"build-table exited {rc}: {err.strip()}"]
        return oracle.check_build(out, self.table_path, self.entries, 3 * self.table_code.r)

    def ops(self, rng):
        c, q = self.TABLE_CODE
        while True:
            for kind in self.script:
                if kind == "build-table":
                    yield Op(kind, self._build_argv())
                elif kind == "decode":
                    columns = [0] * self.table_code.n
                    hit = rng.choice(self.table_code.n, int(rng.integers(0, 4)), replace=False)
                    for ell in hit.tolist():
                        columns[ell] = 1 << int(rng.integers(7))
                    _, xi = oracle.product_rows(oracle.STEANE_H, self.hc_full, columns)
                    key = oracle.flatten_key(xi, self.table_code.r)
                    self.zero_queries += key == 0
                    syndrome = oracle.bits_to_str(key, 3 * self.table_code.r)
                    yield Op(kind, ["decode", "--table", self.table_path, "--c", c,
                                    "--q", q, "--syndrome", syndrome], (key, columns))
                elif kind == "localize":
                    lc, lq = self.LOCALIZE_CODE
                    m_rows, flips, xi = sample_localization(
                        rng, self.loc_code, self.LOCALIZE_P, self.LOCALIZE_P)
                    yield Op(kind, ["localize", "--c", lc, "--q", lq, "--xi", self.xi_path],
                             (m_rows, flips, xi))
                else:
                    yield Op(kind, ["analyze", "overhead", "--L", "1023"])

    def prepare(self, state, op):
        if op.kind == "localize":
            with open(self.xi_path, "w", encoding="ascii") as fh:
                fh.write(oracle.matrix_text(op.expect[2], self.loc_code.r))
        return op.arg

    def call(self, state, argv):
        return self.run_cli(argv)

    def check(self, state, op, result, exc):
        if exc is not None:
            return Outcome(op.kind, 0.0, 1, [f"raised {exc!r}"], rc=1)
        rc, out, err = result
        inside = True
        if op.kind == "localize":
            inside = oracle.within_radius(op.expect[0], op.expect[1], self.loc_code.t)
        if rc != 0:
            problems = [] if not inside and err.startswith("error:") else \
                [f"{op.kind} exited {rc}: {err.strip()}"]
            return Outcome(op.kind, 0.0, 1, problems, rc=rc)
        try:
            problems = self._check_output(op, out, inside)
        except (ValueError, KeyError) as err:  # output that is not the documented JSON
            problems = [f"malformed {op.kind} output {out[:80]!r}: {err!r}"]
        return Outcome(op.kind, 0.0, 1, problems)

    def _check_output(self, op, out: str, inside: bool) -> list[str]:
        if op.kind == "build-table":
            return oracle.check_build(out, self.table_path, self.entries,
                                      3 * self.table_code.r)
        if op.kind == "decode":
            key, columns = op.expect
            return oracle.check_decode(out, key, columns, oracle.STEANE_H, self.stab_space,
                                       self.hc_full, 7, self.table_code.r)
        if op.kind == "localize":
            if not inside:
                return []
            supports = json.loads(out)["per_row_supports"]
            return oracle.check_localization(op.expect[0], op.expect[1], supports)
        return oracle.check_analyze(out, self.ANALYZE_EXPECT, self.pf)


WORKLOADS = {w.name: w for w in (McLookup, McNoisy, LocalizePaper, CliMix)}


# -- measurement ---------------------------------------------------------------------

def timed_setup(wl: Workload, repeats: int, tracer=None):
    times = []
    state = None
    for _ in range(repeats):
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        state = wl.setup()
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
    return state, times, wl.check_setup(state)


def run_phase(wl: Workload, state, seed: int, seconds: float, tracer=None) -> list[Outcome]:
    """The closed loop: the prefix in full, then whole cycles until `seconds`."""
    stream = wl.ops(np.random.default_rng(seed))
    outcomes: list[Outcome] = []
    deadline = perf_counter() + seconds
    i = 0
    while i < wl.prefix or i % wl.cycle or perf_counter() < deadline:
        op = next(stream)
        arg = wl.prepare(state, op)
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        t0 = perf_counter()
        try:
            result, exc = wl.call(state, arg), None
        except Exception as err:  # an operation that raises is a failed operation
            result, exc = None, err
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        outcome = wl.check(state, op, result, exc)
        outcome.seconds = elapsed
        outcomes.append(outcome)
        i += 1
    return outcomes


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, or the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summary(wl: Workload, outcomes: list[Outcome]) -> dict:
    prefix = outcomes[:wl.prefix]
    tried = sum(o.tried for o in prefix)
    failed = sum(1 for o in outcomes if o.problems)
    breakdown = {c: sum(o.breakdown.get(c, 0) for o in prefix) for c in FAILURE_CAUSES}
    return {
        "calls": len(outcomes),
        "work": sum(o.work for o in outcomes),
        "failed_calls": failed,
        "op_fail_frac": failed / len(outcomes),
        "logical_fail_rate": (sum(o.lost for o in prefix) / tried) if tried else None,
        "logical_prefix": {"calls": len(prefix), wl.unit: tried},
        "breakdown": breakdown if isinstance(wl, MonteCarlo) else None,
        "problems": [p for o in outcomes for p in o.problems][:10],
    }


def untraced_run(wl: Workload, seed: int, seconds: float) -> dict:
    state, setup_times, setup_problems = timed_setup(wl, wl.setup_repeats)
    outcomes = run_phase(wl, state, seed, seconds)
    busy = sum(o.seconds for o in outcomes)
    work = sum(o.work for o in outcomes)
    latencies = [o.seconds * 1e3 for o in outcomes]
    tail_ms, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": work / busy,
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = _summary(wl, outcomes)
    detail = {
        **summary,
        f"{wl.unit}_per_s": metrics["throughput_per_s"],
        "call_p50_ms": statistics.median(latencies), "call_tail_ms": tail_ms,
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "setup_samples_s": setup_times, "setup_problems": setup_problems,
    }
    if isinstance(wl, MonteCarlo):
        rate, analytic = summary["logical_fail_rate"], outcomes[0].analytic_rate
        detail.update(class_e_model_rate=wl.model_rate(),
                      empirical_over_class_e_model=_ratio(rate, wl.model_rate()),
                      report_analytic_rate=analytic,
                      empirical_over_report_analytic=_ratio(rate, analytic))
    if isinstance(wl, LocalizePaper):
        detail["decode_p50_ms"] = detail["call_p50_ms"]
        detail["decode_tail_ms"] = detail["call_tail_ms"]
        detail["zero_input_share"] = wl.zero_inputs / len(outcomes)
    if isinstance(wl, CliMix):
        detail["zero_query_share"] = wl.zero_queries / max(
            1, sum(o.kind == "decode" for o in outcomes))
        detail["per_command_p50_ms"] = _per_command_p50(outcomes)
    correct = not setup_problems and summary["failed_calls"] == 0
    return {"correct": correct, "attempted": len(outcomes),
            "failed": summary["failed_calls"], "metrics": metrics, "detail": detail}


def _per_command_p50(outcomes: list[Outcome]) -> dict:
    out = {}
    for cmd in CLI_COMMANDS:
        times = [o.seconds * 1e3 for o in outcomes if o.kind == cmd]
        out[cmd] = statistics.median(times) if times else 0.0
    return out


def _install_hooks(tracer: spans.Tracer) -> None:
    def bm(args, result, exc):
        if exc is None and result is None:
            tracer.count("bm_none")

    def md(args, result, exc):
        if exc is None and result.status == "ok":
            tracer.count("md_ok")

    def query(args, result, exc):
        tracer.count("bk_nodes", args[0].last_visit_count)

    def localize(args, result, exc):
        if exc is not None:
            tracer.count("localize_raised")

    def table(args, result, exc):
        if exc is None:
            tracer.counts["table_entries"] = len(result.entries)

    def saved(args, result, exc):
        if exc is None:
            tracer.counts["table_file_bytes"] = os.path.getsize(args[1])

    tracer.hooks.update({
        "classical.bm_decode": bm, "decoder.min_distance_decode": md,
        "decoder.BKTree.query": query, "decoder.localize_bm": localize,
        "product.build_lookup_table": table, "product.load_lookup_table": table,
        "product.save_lookup_table": saved,
    })


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: spans.Tracer, work: int, built_in_setup: float,
                  traced: list[Outcome], reference: list[Outcome], overhead: float) -> dict:
    m = {f"{layer}.self_s": tr.layer_self(layer) for layer in spans.TRACED_MODULES}
    m["gf2.bitmatrix_built"] = (tr.counts.get("gf2.bitmatrix_built", 0) - built_in_setup) / work
    pt_calls, pt_self, pt_incl = tr.group("classical.pt")
    m.update({"classical.pt.calls": pt_calls, "classical.pt.self_s": pt_self,
              "classical.pt.incl_s": pt_incl})
    bm_calls, bm_self = tr.stat("classical.bm_decode")
    m.update({"classical.bm_decode.calls": bm_calls, "classical.bm_decode.self_s": bm_self,
              "classical.bm_decode.none_frac": _ratio(tr.counts.get("bm_none", 0), bm_calls)})
    m["classical.bch.self_s"] = tr.stat("classical.bch")[1]
    m["product.ProductCode.init_s"] = tr.group("product.ProductCode.init")[2]
    m["product.h_c.calls"] = tr.group("product.h_c")[0]
    for fn in ("build_lookup_table", "save_lookup_table", "load_lookup_table"):
        m[f"product.{fn}.self_s"] = tr.stat(f"product.{fn}")[1]
    m["product.table_entries"] = tr.counts.get("table_entries", 0)
    m["product.table_file_bytes"] = tr.counts.get("table_file_bytes", 0)
    m["product.from_packed.calls"] = tr.stat("product.ErrorPattern.from_packed")[0]
    md_calls, md_self = tr.stat("decoder.min_distance_decode")
    queries = tr.stat("decoder.BKTree.query")[0]
    m.update({
        "decoder.min_distance_decode.calls": md_calls,
        "decoder.min_distance_decode.self_s": md_self,
        "decoder.min_distance_decode.ok_frac": _ratio(tr.counts.get("md_ok", 0), md_calls),
        "decoder.bk_nodes_per_query": _ratio(tr.counts.get("bk_nodes", 0), queries),
        "decoder.bk_index_build_s": tr.group("decoder.bk_index")[2],
    })
    loc_calls, loc_self = tr.stat("decoder.localize_bm")
    m.update({"decoder.localize_bm.calls": loc_calls, "decoder.localize_bm.self_s": loc_self,
              "decoder.localize_bm.fail_frac": _ratio(tr.counts.get("localize_raised", 0),
                                                      loc_calls)})
    m["decoder.lookup_decode.calls"] = tr.stat("decoder.lookup_decode")[0]
    for fn in ("choose_bch", "failure_probability"):
        m[f"analytics.{fn}.self_s"] = tr.stat(f"analytics.{fn}")[1]
    m["sim.run_trials.self_s"] = tr.stat("sim.run_trials")[1]
    for cause in FAILURE_CAUSES:
        m[f"sim.breakdown.{cause}"] = sum(o.breakdown.get(cause, 0) for o in traced)
    # per-command latency comes from the untraced pass: tracing inflates it
    for cmd, p50 in _per_command_p50(reference).items():
        m[f"cli.{cmd}.p50_ms"] = p50
    m["cli.exit_nonzero"] = sum(1 for o in traced if o.rc != 0)
    m["trace.overhead_frac"] = overhead
    m["trace.spans"] = len(tr.span_start)
    return {name: m[name] for name, _ in PER_LAYER}


def traced_run(wl: Workload, seed: int, package, spans_path: str) -> dict:
    """Prefix untraced, then the same prefix traced; per-layer metrics."""
    ref_state, ref_setup, problems = timed_setup(wl, 1)
    reference = run_phase(wl, ref_state, seed, 0.0)
    del ref_state
    tracer = spans.Tracer()
    _install_hooks(tracer)
    tracer.install(package)
    try:
        state, setup_times, traced_problems = timed_setup(wl, 1, tracer)
        built_in_setup = tracer.counts.get("gf2.bitmatrix_built", 0)
        traced = run_phase(wl, state, seed, 0.0, tracer)
    finally:
        tracer.uninstall()
    ref_time = ref_setup[0] + sum(o.seconds for o in reference)
    traced_time = setup_times[0] + sum(o.seconds for o in traced)
    overhead = traced_time / ref_time - 1.0
    metrics = layer_metrics(tracer, sum(o.work for o in traced), built_in_setup,
                            traced, reference, overhead)
    tracer.save(spans_path)
    repeat = [(o.lost, o.breakdown) for o in reference] == [(o.lost, o.breakdown) for o in traced]
    outcomes = reference + traced
    failed = sum(1 for o in outcomes if o.problems)
    detail = {
        "untraced_s": ref_time, "traced_s": traced_time,
        "repeats_exactly": repeat, "spans_file": os.path.basename(spans_path),
        "setup_problems": problems + traced_problems,
        "problems": [p for o in outcomes for p in o.problems][:10],
        "logical_fail_rate": _summary(wl, traced)["logical_fail_rate"],
    }
    correct = repeat and failed == 0 and not problems and not traced_problems
    return {"correct": correct, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics, "detail": detail}
