#!/usr/bin/env python3
"""stlopt benchmark: one single-process, single-threaded, closed-loop runner.

    python3 perfbench/run.py --workload eq2-sweep --seed 0 --seconds 25 --trace 0

Run from the repository root.  The workloads are described in workloads.py.
The runner sets up the inputs SETUP_REPEATS times, warms up, then runs whole
rounds of operations until one more round would pass --seconds.  Every
operation's outputs are checked against perfbench/reference.json, and once
per run the space and Boolean semantics are cross-checked against the
brute-force oracle in tests/oracle.py.

End-to-end metrics (--trace 0):
  setup_s       median set-up: CLI process start (`stlopt bench eq2
                --dump-task`) plus writing the workload's inputs
  wall_s        median wall time of one operation
  evals_per_s   evaluations completed per second of operation time
                (objective calls on eq2, verdicts + semantics on monitor-long)
  step_ms_p50   median time between consecutive evaluation completions,
  step_ms_p95   and its 95th percentile, taken by the benchmark's wrapper
  time_to_sat_s median over operations of the time from the operation's start
                to the first evaluation the Boolean oracle accepts; an
                operation with none is censored at its last evaluation
  peak_rss_mb   peak resident memory of the benchmark process
  ok_ratio      1 - failed_ratio, failed_ratio being (errors + output
                mismatches) / attempts; the report also prints failed_ratio

Per-layer metrics (--trace 1) come from a separate pass over a fixed list of
operations with wrappers installed on the program's module attributes (see
tracer.py).  That list runs once untraced and twice traced: the difference
of the first two is the tracing overhead, and the work counts of the two
traced passes must be equal.  Spans are written to .perfbench_out/ at exit.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
BLAS_THREADS = 1  # single-threaded runner; at or below nproc on any machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("eq2-bo", "eq2-sweep", "monitor-long")

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "time_to_sat_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def cli_start() -> str | None:
    """Start the CLI once; returns a problem description or None."""
    proc = subprocess.run(
        [sys.executable, "-m", "stlopt", "bench", "eq2", "--dump-task"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0 or "regions" not in json.loads(proc.stdout or "{}"):
        return f"CLI start failed with exit code {proc.returncode}: {proc.stderr.strip()}"
    return None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "tests" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def run_ops(workload, ops) -> list:
    return [workload.run_op(op) for op in ops]


def timed_loop(workload, seconds: float) -> list:
    """Whole rounds, closed loop, until one more round would pass `seconds`."""
    results = []
    begin = perf_counter()
    while True:
        round_start = perf_counter()
        results += run_ops(workload, workload.next_round())
        last_round = perf_counter() - round_start
        if perf_counter() - begin + last_round > seconds:
            return results


def end_to_end(results, setup_times, failed, attempted) -> dict:
    walls = [r.wall for r in results]
    steps_ms = [1e3 * s for r in results for s in r.steps]
    evals = sum(len(r.completions) for r in results)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "evals_per_s": evals / sum(walls),
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_p95": statistics.quantiles(steps_ms, n=20, method="inclusive")[-1],
        "time_to_sat_s": statistics.median(r.time_to_sat for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/stlopt/__init__.py", "tests/oracle.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: program files missing under {ROOT}: {missing}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, reference)
    try:
        return measure(args, workload, workloads, tracing)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workload, workloads, tracing) -> int:
    prov = provenance(args)
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    checks: list[str | None] = []  # one entry per check: None or the problem

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        checks.append(cli_start())
        workload.setup()
        setup_times.append(perf_counter() - start)
    workloads.warm_up()

    if args.trace:
        ops = workload.trace_ops()
        untraced = run_ops(workload, ops)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = run_ops(workload, ops)
            counts, spans = tracer.work_counts(), list(tracer.spans)
            layers = tracing.layer_metrics(tracer, sum(r.wall for r in traced))
            tracer.reset()
            again = run_ops(workload, ops)
            repeat, spans_again = tracer.work_counts(), list(tracer.spans)
        finally:
            tracer.uninstall()
        differing = sorted(k for k in counts.keys() | repeat.keys() if counts.get(k) != repeat.get(k))
        checks.append(f"work counts differ between two traced passes: {differing}" if differing else None)
        overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in untraced)
        results = untraced + traced + again
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"provenance": prov, "fields": ["id", "name", "start", "end", "parent"],
                       "passes": [spans, spans_again]}, fh)
    else:
        results = timed_loop(workload, args.seconds)

    oracle_problems = workload.oracle_check(load_oracle())
    checks.append("; ".join(f"oracle: {p}" for p in oracle_problems) or None)
    problems = [f"operation {i}: {r.error}" for i, r in enumerate(results) if r.error]
    problems += [c for c in checks if c]
    attempted = len(results) + len(checks)
    failed = len(problems)
    if not args.trace:
        values = end_to_end(results, setup_times, failed, attempted)
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}

    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"# {len(results)} operations + {len(checks)} checks attempted, {failed} failed:"
          f" failed_ratio {failed / attempted!r} ratio")
    if not args.trace:
        n_sat = sum(r.first_sat is not None for r in results)
        print(f"# time_to_sat_s over {len(results)} operations, {n_sat} reached a satisfying evaluation")
    for name, m in metrics.items():
        print(f"#   {name:40s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
