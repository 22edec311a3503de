"""Run the qproduct benchmark.

    python3 perfbench/run.py --workload mc-noisy --seed 3 --seconds 20 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it, prefixed ``detail:``, records the
workload's properties, the environment, op_fail_frac, logical_fail_rate
and the oracle's complaints.

    python3 perfbench/run.py            # --workload all

runs every workload, each in a fresh process, prints every metric with its
unit and exits nonzero if any oracle rejected an answer.

The package is imported from ``src/`` of the checkout holding this file;
without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

# one thread per process: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 600


def import_package():
    """qproduct from this checkout's src/; exits with an error line otherwise."""
    if not os.path.isfile(os.path.join(SRC, "qproduct", "__init__.py")):
        sys.exit(f"error: no qproduct sources under {SRC}")
    sys.path.insert(0, SRC)
    import qproduct
    import qproduct.cli  # noqa: F401  (not imported by the package itself)
    if not os.path.abspath(qproduct.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported qproduct from {qproduct.__file__}, not {SRC}")
    return qproduct


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {"seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": git_commit()}


def run_one(args) -> int:
    qproduct = import_package()
    import workloads

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](qproduct, workdir)
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{args.workload}.npz")
            result = workloads.traced_run(wl, args.seed, qproduct, spans_path)
            units = dict(workloads.PER_LAYER)
        else:
            result = workloads.untraced_run(wl, args.seed, args.seconds)
            units = dict(workloads.END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": wl.name, "unit": wl.unit, "trace": args.trace,
              "seconds": args.seconds, "properties": wl.properties(),
              "environment": environment(args.seed), **result["detail"]}
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(f"{wl.name}: seed {args.seed}, {result['attempted']} calls, "
          f"{result['failed']} rejected")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print_detail_metrics(detail)
    for problem in detail["problems"] + detail["setup_problems"]:
        print(f"  oracle: {problem}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def print_detail_metrics(detail: dict) -> None:
    """The end-to-end figures that carry no regression bound."""
    alias = f"{detail['unit']}_per_s"
    rows = [(alias, detail[alias], "1/s"),
            ("call_p50_ms", detail["call_p50_ms"], "ms"),
            (f"call_tail_ms (p{detail['tail_percentile']:.4g}, "
             f"{detail['tail_samples_beyond']} beyond)", detail["call_tail_ms"], "ms"),
            ("op_fail_frac", detail["op_fail_frac"], "fraction")]
    if detail["logical_fail_rate"] is not None:
        rows.append(("logical_fail_rate", detail["logical_fail_rate"], "fraction"))
    for name, value, unit in rows:
        print(f"  {name:40s} {value:>16.6g} {unit}")


def run_all(args) -> int:
    import_package()  # fail early, before starting any child
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            correct = json.loads(lines[-1])["correct"] is True
        except (IndexError, KeyError, TypeError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        print("\n".join(ln for ln in lines[:-1] if not ln.startswith("detail: ")))
        ok &= proc.returncode == 0 and correct
    print("all oracles passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import workloads
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: all, {', '.join(workloads.WORKLOADS)})")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
