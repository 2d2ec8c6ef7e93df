#!/usr/bin/env python3
"""Metric x optimizer sweep on the three-region reaching benchmark.

Prints an SR/TS overview table (the desk-scale analog of a metric
comparison study) and optionally writes the per-run artifacts.

Example:
    python scripts/run_metric_sweep.py --budget 60 --seeds 5 --methods bo cmaes
"""

import argparse
import os
import sys

from stlopt.cli import BENCH_METRICS
from stlopt.harness import ExperimentConfig, emit_results, run_experiment
from stlopt.optim.driver import METHODS
from stlopt.semantics import MetricConfig


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=positive_int, default=60)
    ap.add_argument("--seeds", type=positive_int, default=5,
                    help="runs per configuration (seeds 0..n-1)")
    ap.add_argument("--methods", nargs="+", default=sorted(METHODS), choices=sorted(METHODS))
    ap.add_argument("--metrics", nargs="+", default=list(BENCH_METRICS), choices=BENCH_METRICS)
    ap.add_argument("--k", type=float, default=10.0)
    ap.add_argument("--nu", type=float, default=2.0)
    ap.add_argument("--out", default=None, help="directory for per-config result files")
    args = ap.parse_args()

    seeds = list(range(args.seeds))
    print(f"benchmark eq2, budget {args.budget}, seeds {seeds}")
    print(f"{'method':8s} {'metric':8s} {'mean SR %':>10s} {'median TS':>10s}  per-seed TS")
    for method in args.methods:
        for metric in args.metrics:
            cfg = ExperimentConfig(
                method=method,
                metric=MetricConfig(metric, k=args.k, nu=args.nu),
                budget=args.budget,
                seeds=seeds,
                task="eq2",
            )
            result = run_experiment(cfg)
            ts = [s.ts if s.ts is not None else "Fail" for s in result.per_seed]
            med = "Fail" if result.median_ts is None else f"{result.median_ts:.0f}"
            print(f"{method:8s} {metric:8s} {result.mean_sr:10.2f} {med:>10s}  {ts}")
            if args.out:
                emit_results(result, os.path.join(args.out, f"{method}_{metric}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
