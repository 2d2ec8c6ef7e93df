import json
import re

import numpy as np
import pytest

import stlopt.harness
from stlopt import ExperimentConfig, MetricConfig, RunRecord, emit_results, run_experiment
from stlopt.harness import (
    ExperimentResult,
    SeedResult,
    _with_default_agm_scales,
    load_task,
    summary_dict,
)
from stlopt.optim.driver import METHODS
from stlopt.semantics import METRIC_KINDS
from stlopt.task import (
    PARAM_NAMES,
    TRAJECTORY_CHANNELS,
    benchmark_eq2,
    build_trajectory,
    evaluation_trace,
    objective_detail,
    task_to_json,
)
from stlopt.trace import CSV_BLOCK_ROWS, load_trace_csv
from oracle import ref_runs_csv, ref_trace_csv


def small_config(**overrides):
    defaults = dict(
        method="random",
        metric=MetricConfig("space"),
        budget=8,
        seeds=[0, 1],
        task="eq2",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        small_config(method="sgd")
    with pytest.raises(ValueError, match="budget"):
        small_config(budget=0)
    with pytest.raises(ValueError, match="seeds"):
        small_config(seeds=[])
    with pytest.raises(ValueError, match="^seeds: -1 is negative$"):
        small_config(seeds=[2, -1])
    with pytest.raises(ValueError, match="^seeds: 0 appears twice$"):
        small_config(seeds=[0, 1, 0])


def test_default_agm_scales_cover_the_trajectory_channels():
    scales = _with_default_agm_scales(MetricConfig("agm")).agm_scales
    assert scales == {ch: 1.0 for ch in TRAJECTORY_CHANNELS}


def test_config_json_roundtrip():
    # every kind's default k and nu pass the check that a kind reads them
    agm = MetricConfig("agm", agm_scales={"x": 1.0, "y": 2.0})
    for metric in (agm, *map(MetricConfig, METRIC_KINDS)):
        cfg = small_config(metric=metric)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again.to_json() == cfg.to_json()


@pytest.mark.parametrize(
    "metric, message",
    [
        ({"kind": "new", "k": 500}, "metric.k: 500 is not read by the new semantics"),
        ({"kind": "space", "k": 0.5}, "metric.k: 0.5 is not read by the space semantics"),
        ({"kind": "lse", "nu": 3}, "metric.nu: 3 is not read by the lse semantics"),
        ({"kind": "agm", "nu": 1e300}, "metric.nu: 1e+300 is not read by the agm semantics"),
    ],
)
def test_config_rejects_a_hyperparameter_its_kind_does_not_read(metric, message):
    data = {"method": "random", "metric": metric, "budget": 5, "seeds": [0]}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_json(data)


def test_config_accepts_each_hyperparameter_its_kind_reads():
    # agm_scales stays accepted for every kind
    for metric in ({"kind": "lse", "k": 500}, {"kind": "smooth", "k": 0.5},
                   {"kind": "new", "nu": 3}, {"kind": "space", "k": 10, "nu": 2.0},
                   {"kind": "space", "agm_scales": {"x": 2.0}}):
        data = {"method": "random", "metric": metric, "budget": 5, "seeds": [0]}
        assert ExperimentConfig.from_json(data).metric.kind == metric["kind"]


def test_config_missing_field():
    with pytest.raises(ValueError, match="missing config field"):
        ExperimentConfig.from_json({"method": "bo"})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(metric="new"), "metric must be a JSON object"),
        (lambda d: d["metric"].update(k="10"), "metric.k: expected a finite number"),
        (lambda d: d.update(budget=2.5), "budget: expected an integer"),
        (lambda d: d.update(seeds=[0, "1"]), "seeds: item 1: expected an integer"),
        (lambda d: d.update(task=None), "task: expected a string"),
    ],
)
def test_config_json_names_the_failing_field(edit, message):
    data = small_config().to_json()
    edit(data)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(data)


def test_load_task_unknown():
    with pytest.raises(ValueError, match="unknown task"):
        load_task("nonexistent-task")


def test_sr_and_ts_arithmetic():
    result = run_experiment(small_config(budget=10, seeds=[3]))
    seed_result = result.per_seed[0]
    n_sat = sum(1 for r in seed_result.records if r.satisfied)
    assert seed_result.sr == pytest.approx(100.0 * n_sat / 10)
    if n_sat:
        assert seed_result.ts == next(r.index for r in seed_result.records if r.satisfied)
    else:
        assert seed_result.ts is None
        assert summary_dict(result)["per_seed"][0]["ts"] == "Fail"


def test_oracle_alignment_for_space_metric():
    result = run_experiment(small_config(budget=20, seeds=[0]))
    for record in result.per_seed[0].records:
        if abs(record.value) > 1e-9:
            assert (record.value > 0) == record.satisfied


def test_emit_results_files(tmp_path):
    cfg = small_config(budget=6, seeds=[0])
    result = run_experiment(cfg)
    paths = emit_results(result, str(tmp_path))

    lines = (tmp_path / "runs.csv").read_text().splitlines()
    assert len(lines) == 6 + 1  # budget rows plus header
    header = lines[0].split(",")
    assert header[:2] == ["seed", "eval"]
    assert header[2:11] == list(PARAM_NAMES)

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["per_seed"][0]["sr"] == result.per_seed[0].sr

    trace_lines = (tmp_path / "trace_best.csv").read_text().splitlines()
    best = max(result.per_seed[0].records, key=lambda r: r.value)
    expected = evaluation_trace(load_task("eq2"), best.params).n_samples
    assert len(trace_lines) == expected + 1


@pytest.mark.parametrize("method", ["bo", "cmaes", "random"])
def test_result_csvs_match_the_per_row_reference(tmp_path, method):
    result = run_experiment(small_config(method=method, budget=12, metric=MetricConfig("new")))
    emit_results(result, str(tmp_path))
    assert (tmp_path / "runs.csv").read_bytes() == ref_runs_csv(result).encode("utf-8")
    best = max((r for s in result.per_seed for r in s.records), key=lambda r: r.value)
    scored = evaluation_trace(result.task, best.params)
    assert (tmp_path / "trace_best.csv").read_bytes() == ref_trace_csv(scored).encode("utf-8")


def test_runs_csv_one_row_past_a_block_matches_the_per_row_reference(tmp_path):
    cfg = small_config(budget=CSV_BLOCK_ROWS + 1, seeds=[3, 0])
    task = load_task("eq2")
    params = (task.bounds.lower + task.bounds.upper) / 3
    awkward = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, 1e300, -1e300]
    records = [
        RunRecord(i + 1, params, awkward[i % 7], (None, True, False)[i % 3], awkward[-i % 7])
        for i in range(cfg.budget)
    ]
    per_seed = [SeedResult(seed, records, 0.0, None) for seed in cfg.seeds]
    result = ExperimentResult(cfg, task, per_seed, 0.0, None)
    emit_results(result, str(tmp_path))
    assert (tmp_path / "runs.csv").read_bytes() == ref_runs_csv(result).encode("utf-8")


def test_trace_best_is_the_scored_trace(tmp_path):
    # seed 1's best parameters total under the 15 s horizon, so the scored
    # trace is the built one held at its final pose
    result = run_experiment(small_config(budget=6, seeds=[1]))
    emit_results(result, str(tmp_path))
    best = max(result.per_seed[0].records, key=lambda r: r.value)
    task = result.task
    built = build_trajectory(best.params, task.sample_rate, task.home)
    value, _, scored = objective_detail(task, result.config.metric, best.params)
    assert value == best.value
    assert scored.n_samples > built.n_samples
    written = load_trace_csv(str(tmp_path / "trace_best.csv"))
    assert written.n_samples == scored.n_samples
    np.testing.assert_array_equal(written.samples, scored.samples)


def test_summary_recomputable_from_runs_csv(tmp_path):
    cfg = small_config(budget=12, seeds=[0, 1])
    result = run_experiment(cfg)
    emit_results(result, str(tmp_path))
    rows = (tmp_path / "runs.csv").read_text().splitlines()[1:]
    per_seed = {}
    for row in rows:
        cells = row.split(",")
        seed, idx = int(cells[0]), int(cells[1])
        sat = cells[-2] == "true"
        per_seed.setdefault(seed, []).append((idx, sat))
    summary = json.loads((tmp_path / "summary.json").read_text())
    for entry in summary["per_seed"]:
        recs = per_seed[entry["seed"]]
        sr = 100.0 * sum(s for _, s in recs) / len(recs)
        ts = next((i for i, s in recs if s), "Fail")
        assert entry["sr"] == pytest.approx(sr)
        assert entry["ts"] == ts


def test_end_to_end_determinism(tmp_path):
    cfg = small_config(budget=10, seeds=[0, 1], method="random")
    out = tmp_path / "out"
    emit_results(run_experiment(cfg), str(out))
    first_runs = (out / "runs.csv").read_bytes()
    first_summary = (out / "summary.json").read_bytes()
    emit_results(run_experiment(cfg), str(out))
    assert (out / "runs.csv").read_bytes() == first_runs
    assert (out / "summary.json").read_bytes() == first_summary


def test_agm_metric_gets_default_scales():
    cfg = small_config(metric=MetricConfig("agm"), budget=4, seeds=[0])
    result = run_experiment(cfg)  # must not raise MissingAgmScaleError
    assert len(result.per_seed[0].records) == 4


def test_avg_metric_runs_on_eq2():
    cfg = small_config(metric=MetricConfig("avg"), budget=4, seeds=[0])
    result = run_experiment(cfg)
    assert len(result.per_seed[0].records) == 4


def test_mean_sr_and_median_ts():
    result = run_experiment(small_config(budget=10, seeds=[0, 1, 2]))
    srs = [s.sr for s in result.per_seed]
    assert result.mean_sr == pytest.approx(float(np.mean(srs)))
    ts_vals = [s.ts for s in result.per_seed if s.ts is not None]
    if ts_vals:
        assert result.median_ts == pytest.approx(float(np.median(ts_vals)))
    else:
        assert result.median_ts is None


def _half_satisfiable_task(tmp_path):
    """eq2's document with a formula that a fair share of the box satisfies."""
    data = task_to_json(benchmark_eq2())
    data["formula"] = "F[0,3](x > 0.5)"
    path = tmp_path / "task.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_run_experiment_hands_each_flagged_record_to_on_record(tmp_path, monkeypatch, method):
    # budget 25 ends each CMA-ES run (lambda = 10) in a partial generation
    cfg = small_config(method=method, budget=25, seeds=[0, 1], task=_half_satisfiable_task(tmp_path))
    events = []
    scored = stlopt.harness.objective_detail

    def counted(spec, metric, p):
        events.append("objective")
        return scored(spec, metric, p)

    monkeypatch.setattr(stlopt.harness, "objective_detail", counted)
    result = run_experiment(cfg, on_record=lambda r: events.append((r, r.satisfied)))
    assert events[0::2] == ["objective"] * 50 and len(events) == 100
    seen = events[1::2]
    records = [r for s in result.per_seed for r in s.records]
    assert all(r is got for r, (got, _) in zip(records, seen))
    assert [r.index for r, _ in seen] == list(range(1, 26)) * 2
    # the flag was set before the callback ran, from the Boolean oracle
    task = load_task(cfg.task)
    flags = [sat for _, sat in seen]
    assert flags == [scored(task, cfg.metric, r.params)[1] for r in records]
    assert True in flags and False in flags
    assert [s.sr for s in result.per_seed] == [4.0 * sum(flags[:25]), 4.0 * sum(flags[25:])]


def test_run_experiment_rejects_agm_scales_missing_a_formula_channel(monkeypatch):
    runs = []
    monkeypatch.setattr(stlopt.harness, "optimize", lambda *args: runs.append(args))
    cfg = small_config(metric=MetricConfig("agm", agm_scales={"x": 1.0}))
    with pytest.raises(ValueError, match="^metric.agm_scales: missing agm scale for channel 'y'$"):
        run_experiment(cfg)
    assert not runs
