#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the repository root on the commit whose outputs are the reference.
Writes perfbench/reference.json: the SHA-256 of runs.csv and summary.json for
every eq2 operation the workloads can run, and every monitor-long value
(verdicts and the seven semantics) for every bank trace.  Takes a few
minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    from run import BLAS_THREADS, BLAS_VARS

    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(HERE.parent / "src"))
    import stlopt
    import workloads as w

    eq2_ops = [("bo", k, s) for k in w.BO_METRICS for s in w.BO_SEEDS]
    eq2_ops += [
        (m, k, s)
        for s in range(w.SWEEP_SEED_POOL)
        for m in w.SWEEP_METHODS
        for k in w.SWEEP_METRICS
    ]
    reference: dict = {"eq2": {}, "monitor": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for method, metric, seed in eq2_ops:
            cfg = stlopt.ExperimentConfig(method, stlopt.MetricConfig(metric), w.EQ2_BUDGET, [seed])
            paths = stlopt.emit_results(stlopt.run_experiment(cfg), os.path.join(tmp, "out"))
            reference["eq2"][w.eq2_key(method, metric, seed)] = {
                name: w.digest(paths[name]) for name in ("runs", "summary")
            }
        formulas = [(stlopt.parse_formula(text), ok) for text, ok in w.MONITOR_FORMULAS]
        for index in range(w.MONITOR_BANK):
            path = os.path.join(tmp, "trace.csv")
            stlopt.save_trace_csv(w.bank_trace(index), path)
            values = w.monitor_values(stlopt.load_trace_csv(path), formulas)
            reference["monitor"][str(index)] = values
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
