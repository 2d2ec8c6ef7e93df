"""Experiment orchestration: metric x optimizer runs, SR/TS statistics and
machine-readable result files."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .formula import channels
from .jsonfields import integer, json_field, known_fields, list_of, number, optional_text, text
from .optim.driver import METHODS, RunRecord, optimize
from .semantics import MetricConfig, check_hyperparameters_read
from .task import (
    PARAM_NAMES,
    TRAJECTORY_CHANNELS,
    TaskSpec,
    evaluation_trace,
    load_task,
    objective_detail,
)
from .trace import CSV_BLOCK_ROWS, save_trace_csv

FAIL = "Fail"


@dataclass
class ExperimentConfig:
    method: str
    metric: MetricConfig
    budget: int = 60
    seeds: list[int] = field(default_factory=lambda: [0])
    task: str = "eq2"
    output_dir: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        seen: set[int] = set()
        for s in self.seeds:
            if s < 0:
                raise ValueError(f"seeds: {s} is negative")
            if s in seen:
                raise ValueError(f"seeds: {s} appears twice")
            seen.add(s)

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        known_fields(data, ("method", "metric", "budget", "seeds", "task", "output_dir"))
        known_fields(json_field(data, "metric", default=None), ("kind", "k", "nu", "agm_scales"),
                     "metric")
        metric = MetricConfig(
            kind=json_field(data, "metric.kind", text),
            k=json_field(data, "metric.k", number, 10.0),
            nu=json_field(data, "metric.nu", number, 2.0),
            agm_scales=json_field(data, "metric.agm_scales", default=None),
        )
        check_hyperparameters_read(metric)
        return cls(
            method=json_field(data, "method", text),
            metric=metric,
            budget=json_field(data, "budget", integer, 60),
            seeds=json_field(data, "seeds", list_of(integer)),
            task=json_field(data, "task", text, "eq2"),
            output_dir=json_field(data, "output_dir", optional_text, None),
        )

    def to_json(self) -> dict:
        metric: dict = {"kind": self.metric.kind, "k": self.metric.k, "nu": self.metric.nu}
        if self.metric.agm_scales is not None:
            metric["agm_scales"] = dict(sorted(self.metric.agm_scales.items()))
        return {
            "method": self.method,
            "metric": metric,
            "budget": self.budget,
            "seeds": list(self.seeds),
            "task": self.task,
            "output_dir": self.output_dir,
        }


@dataclass
class SeedResult:
    seed: int
    records: list[RunRecord]
    sr: float  # percentage of evaluations satisfying the Boolean oracle
    ts: int | None  # first satisfying evaluation index, None if never


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    task: TaskSpec  # the task the runs scored, as loaded from config.task
    per_seed: list[SeedResult]
    mean_sr: float
    median_ts: float | None  # over satisfying seeds only


def _with_default_agm_scales(metric: MetricConfig) -> MetricConfig:
    if metric.kind != "agm" or metric.agm_scales:
        return metric
    # the unit workspace makes 1.0 a safe half-range
    scales = {ch: 1.0 for ch in TRAJECTORY_CHANNELS}
    return MetricConfig(metric.kind, metric.k, metric.nu, scales)


def run_experiment(cfg: ExperimentConfig, on_record=None) -> ExperimentResult:
    """One optimize() run per seed; the satisfied flag always comes from the
    Boolean oracle so SR/TS are comparable across metrics.  `on_record`, if
    given, is called with each record once its flag is set, in evaluation
    order, seed after seed."""
    task = load_task(cfg.task)
    metric = _with_default_agm_scales(cfg.metric)
    if metric.kind == "agm":
        missing = sorted(channels(task.formula) - set(metric.agm_scales))
        if missing:
            raise ValueError(f"metric.agm_scales: missing agm scale for channel {missing[0]!r}")
    sat = False  # the oracle flag of the point just evaluated

    def scored(p):
        nonlocal sat
        value, sat, _ = objective_detail(task, metric, p)
        return value

    def observed(record):
        record.satisfied = sat
        if on_record is not None:
            on_record(record)

    per_seed = []
    for seed in cfg.seeds:
        records = optimize(scored, task.bounds, cfg.budget, cfg.method, seed, observed)
        n_sat = sum(r.satisfied for r in records)
        ts = next((r.index for r in records if r.satisfied), None)
        per_seed.append(SeedResult(seed, records, 100.0 * n_sat / cfg.budget, ts))
    mean_sr = float(np.mean([s.sr for s in per_seed]))
    ts_values = [s.ts for s in per_seed if s.ts is not None]
    median_ts = float(np.median(ts_values)) if ts_values else None
    return ExperimentResult(cfg, task, per_seed, mean_sr, median_ts)


def summary_dict(result: ExperimentResult) -> dict:
    return {
        "config": result.config.to_json(),
        "per_seed": [
            {
                "seed": s.seed,
                "sr": s.sr,
                "ts": s.ts if s.ts is not None else FAIL,
            }
            for s in result.per_seed
        ],
        "mean_sr": result.mean_sr,
        "median_ts": result.median_ts if result.median_ts is not None else FAIL,
    }


def emit_results(result: ExperimentResult, out_dir: str) -> dict[str, str]:
    """Write runs.csv, summary.json and trace_best.csv (the best parameters'
    scored trace, held at the final pose through the formula horizon);
    returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "runs": os.path.join(out_dir, "runs.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
        "trace_best": os.path.join(out_dir, "trace_best.csv"),
    }

    with open(paths["runs"], "w", encoding="utf-8") as fh:
        names = ",".join(PARAM_NAMES)
        fh.write(f"seed,eval,{names},robustness,satisfied,best_so_far\n")
        row = "%d,%d," + "%r," * len(PARAM_NAMES) + "%r,%s,%r\n"
        for s in result.per_seed:
            for lo in range(0, len(s.records), CSV_BLOCK_ROWS):
                fh.write("".join([
                    row % (s.seed, r.index, *r.params.tolist(), r.value,
                           "true" if r.satisfied else "false", r.best_so_far)
                    for r in s.records[lo : lo + CSV_BLOCK_ROWS]
                ]))

    with open(paths["summary"], "w", encoding="utf-8") as fh:
        json.dump(summary_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")

    best_record = max(
        (r for s in result.per_seed for r in s.records), key=lambda r: r.value
    )
    best_trace = evaluation_trace(result.task, best_record.params)
    save_trace_csv(best_trace, paths["trace_best"])
    return paths
