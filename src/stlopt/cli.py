"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 evaluation error,
3 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exceptions import StlError
from .harness import ExperimentConfig, emit_results, load_task, run_experiment, summary_dict
from .parser import parse_formula
from .optim.driver import METHODS
from .semantics import METRIC_KINDS, MetricConfig, check_hyperparameters_read, evaluate, satisfies
from .task import task_to_json
from .trace import load_trace_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVAL = 2
EXIT_PROPERTIES = 3

# the semantics `bench` can optimize: every kind but time robustness
BENCH_METRICS = tuple(k for k in METRIC_KINDS if k != "time")
# largest N that `bench --seeds N` expands to the seeds 0..N-1
MAX_SEED_COUNT = 10**4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="stlopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a formula on a trace")
    p_eval.add_argument("--formula", required=True, help="formula text or a file containing it")
    p_eval.add_argument("--trace", required=True, help="trace CSV (time,<ch1>,...)")
    p_eval.add_argument("--metric", required=True, choices=METRIC_KINDS)
    p_eval.add_argument("--time", type=float, required=True, help="evaluation time in seconds")
    p_eval.add_argument("--k", type=float, default=10.0)
    p_eval.add_argument("--nu", type=float, default=2.0)
    p_eval.add_argument("--agm-scales", default=None, help="JSON map channel -> scale")

    p_opt = sub.add_parser("optimize", help="run an experiment from a config file")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="run a built-in benchmark")
    p_bench.add_argument("task", choices=["eq2"])
    p_bench.add_argument("--method", choices=sorted(METHODS), default="bo")
    p_bench.add_argument("--metric", choices=BENCH_METRICS, default="new")
    p_bench.add_argument("--budget", type=int, default=60)
    p_bench.add_argument("--seeds", default="1", help="seed count N (0..N-1) or comma list")
    p_bench.add_argument("--k", type=float, default=10.0)
    p_bench.add_argument("--nu", type=float, default=2.0)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--dump-task", action="store_true", help="print the task JSON and exit")

    p_props = sub.add_parser("check-properties", help="run the metric property suite")
    p_props.add_argument("--samples", type=int, default=500)
    p_props.add_argument("--seed", type=int, default=42)
    return parser


def _parse_seeds(text: str) -> list[int]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) == 1 and "," not in text:
        count = int(parts[0])
        if count < 1:
            raise ValueError("--seeds: a seed count must be at least 1")
        if count > MAX_SEED_COUNT:
            raise ValueError(f"--seeds: a seed count above {MAX_SEED_COUNT} is not supported")
        return list(range(count))
    return [int(p) for p in parts]


def _cmd_eval(args) -> int:
    source = args.formula
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            source = fh.read()
    formula = parse_formula(source)
    trace = load_trace_csv(args.trace)
    scales = json.loads(args.agm_scales) if args.agm_scales else None
    cfg = MetricConfig(args.metric, k=args.k, nu=args.nu, agm_scales=scales)
    check_hyperparameters_read(cfg, "--")
    value = evaluate(cfg, formula, trace, args.time).value
    result = {
        "metric": args.metric,
        "time": args.time,
        "value": value,
        "satisfied": satisfies(formula, trace, args.time),
    }
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _run_and_emit(cfg: ExperimentConfig, out_dir: str | None) -> int:
    if out_dir:
        cfg.output_dir = out_dir
    result = run_experiment(cfg)
    if out_dir:
        paths = emit_results(result, out_dir)
        print(f"wrote {paths['runs']}, {paths['summary']}, {paths['trace_best']}")
    print(json.dumps(summary_dict(result), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cfg = ExperimentConfig.from_json(data)
    return _run_and_emit(cfg, args.out or cfg.output_dir)


def _cmd_bench(args) -> int:
    if args.dump_task:
        print(json.dumps(task_to_json(load_task(args.task)), indent=2, sort_keys=True))
        return EXIT_OK
    metric = MetricConfig(args.metric, k=args.k, nu=args.nu)
    check_hyperparameters_read(metric, "--")
    cfg = ExperimentConfig(
        method=args.method,
        metric=metric,
        budget=args.budget,
        seeds=_parse_seeds(args.seeds),
        task=args.task,
    )
    return _run_and_emit(cfg, args.out)


def _cmd_check_properties(args) -> int:
    from .properties import run_property_suite  # here: only this command needs it
    report = run_property_suite(samples=args.samples, seed=args.seed)
    print(report.text())
    return EXIT_OK if report.passed else EXIT_PROPERTIES


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_check_properties(args)
    except StlError as exc:
        print(f"stlopt: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except (ValueError, OverflowError, OSError) as exc:
        print(f"stlopt: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
