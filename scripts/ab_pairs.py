#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two trees of this repository.

    python3 scripts/ab_pairs.py PARENT_TREE CHANGE_TREE --label walker-dispatch \\
        --workload eq2-sweep --workload monitor-long --pairs 10 \\
        --first-seed 601 --claim eq2-sweep:wall_s \\
        --change "what the change does" --parent-commit 013dfaa

Each tree is a copy of the repository (for example from `git archive`).  For
every workload, pair i runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each tree, both with seed S = first seed +
(workload position x pairs) + i; the parent runs first in even pairs and the
change in odd ones.  The script writes BENCH_<label>.json to --out: per
end-to-end metric each side's median and inclusive quartiles, the pairs the
change wins (ties count for neither), the relative change of the medians
and the parent's interquartile range, plus every run's values.  Each run's
minor page faults (the growth of getrusage(RUSAGE_CHILDREN).ru_minflt
around it, which counts the runner and the CLI processes it starts) are
kept beside the metrics, as each side's median and quartiles; they are
never a claim metric.  Start-up alone faults a few thousand times, and that
count moves with the source text and the checkout's path, not with the
work.  So before the pairs each tree runs each workload once with
--seconds 0.01; its faults are that side's startup_faults, and
minor_faults_net is each run's count less them.  A claimed metric is met
when there are at least ten pairs, the change wins at least nine tenths of
them and its median beats the parent's by more than the parent's
interquartile range.  The run length T and the direction in which
each metric is better come from the parent tree's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

STARTUP_SECONDS = 0.01  # start-up and one round of operations


def quartiles(values) -> dict:
    """Median and inclusive first and third quartiles."""
    values = list(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent, change, better: str) -> dict:
    """Both sides of one metric over the same pairs, in pair order."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on both sides")
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    base = p["median"]
    return {
        "parent": {k: round(v, 6) for k, v in p.items()},
        "change": {k: round(v, 6) for k, v in c.items()},
        "change_wins": wins,
        "rel_change": round((c["median"] - base) / base, 4) if base else None,
        "parent_iqr": round(p["q3"] - p["q1"], 6),
        "median_gap": round(sign * (base - c["median"]), 6),
    }


def claim_met(summary: dict, pairs: int) -> bool:
    """At least ten pairs, 9 in 10 won, and a median gap wider than the parent IQR."""
    return (pairs >= 10 and 10 * summary["change_wins"] >= 9 * pairs
            and summary["median_gap"] > summary["parent_iqr"])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "values": values, "minor_faults": faults}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--change", dest="change_text", default="", help="what the change does")
    ap.add_argument("--parent-commit", default="unknown")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    # checked before the first run, so a typo cannot cost a whole series
    if args.claim:
        claimed, _, metric = args.claim.partition(":")
        if claimed not in args.workload or metric not in better:
            ap.error(f"--claim {args.claim!r} must be WORKLOAD:METRIC with WORKLOAD one of "
                     f"{args.workload} and METRIC one of {sorted(better)}")
    args.out.mkdir(parents=True, exist_ok=True)
    report = {
        "label": args.label,
        "change": args.change_text,
        "parent_commit": args.parent_commit,
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python "
                   f"{platform.python_version()}, numpy {version('numpy')}, scipy "
                   f"{version('scipy')}; wall-clock of the benchmark processes only",
        "method": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                  f"--trace 0 in each tree; {args.pairs} pairs per workload, one seed per pair, "
                  "the side that runs first alternating (scripts/ab_pairs.py). Each entry: median "
                  "and inclusive quartiles over the runs per side, change_wins = pairs the change "
                  "wins (ties count for neither), rel_change = (change median - parent median) / "
                  "parent median, median_gap = the change's improvement of the median. minor_faults: "
                  "each run's growth of getrusage(RUSAGE_CHILDREN).ru_minflt, the runner and its "
                  "CLI processes together; median and quartiles per side, never a claim metric. "
                  "startup_faults: the faults of one --seconds 0.01 run of each tree, made before "
                  "the pairs; minor_faults_net: each run's count less its side's startup_faults.",
    }
    workloads = {}
    sides = ("parent", "change")
    for j, workload in enumerate(args.workload):
        startup = {s: run_once(getattr(args, s), workload, args.first_seed + j * args.pairs,
                               STARTUP_SECONDS)["minor_faults"] for s in sides}
        runs = []
        for i in range(args.pairs):
            seed = args.first_seed + j * args.pairs + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(getattr(args, side), workload, seed, seconds)
            print(f"{workload} seed {seed}: wall_s parent {run['parent']['values']['wall_s']:.6f}"
                  f" change {run['change']['values']['wall_s']:.6f}", file=sys.stderr)
            runs.append(run)
        entry = {
            "seeds": [r["seed"] for r in runs],
            "pairs": len(runs),
            "correct": all(r[s]["correct"] for r in runs for s in sides),
        }
        for name in runs[0]["parent"]["values"]:
            entry[name] = summarize([r["parent"]["values"][name] for r in runs],
                                    [r["change"]["values"][name] for r in runs],
                                    better.get(name, "lower"))
        entry["startup_faults"] = startup
        entry["minor_faults"] = {s: quartiles([r[s]["minor_faults"] for r in runs]) for s in sides}
        entry["minor_faults_net"] = {
            s: quartiles([r[s]["minor_faults"] - startup[s] for r in runs]) for s in sides}
        entry["runs"] = [{"seed": r["seed"], "first": r["first"],
                          "parent": r["parent"]["values"], "change": r["change"]["values"],
                          "minor_faults": {s: r[s]["minor_faults"] for s in sides}}
                         for r in runs]
        workloads[workload] = entry
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        s = workloads[workload][metric]
        report["claim"] = {
            "workload": workload,
            "metric": metric,
            "parent_median": s["parent"]["median"],
            "change_median": s["change"]["median"],
            "change_wins": s["change_wins"],
            "pairs": workloads[workload]["pairs"],
            "median_gap": s["median_gap"],
            "parent_iqr": s["parent_iqr"],
            "met": claim_met(s, workloads[workload]["pairs"]),
        }
    report["workloads"] = workloads
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
