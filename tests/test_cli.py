import json
import subprocess
import sys

import pytest

from stlopt.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "stlopt", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def trace_csv(tmp_path):
    p = tmp_path / "trace.csv"
    rows = ["time,x,y"] + [f"{i*0.5},{0.1*i},{1.0 - 0.1*i}" for i in range(8)]
    p.write_text("\n".join(rows) + "\n")
    return str(p)


def test_eval_command(trace_csv, capsys):
    code = main(
        ["eval", "--formula", "F[0,2](x > 0.3)", "--trace", trace_csv,
         "--metric", "space", "--time", "0"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx(0.1)
    assert out["satisfied"] is True


def test_eval_formula_from_file(tmp_path, trace_csv, capsys):
    f = tmp_path / "formula.stl"
    f.write_text("G[0,1](y > 0.2)\n")
    assert main(["eval", "--formula", str(f), "--trace", trace_csv,
                 "--metric", "space", "--time", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["satisfied"] is True


def test_eval_agm_scales(trace_csv, capsys):
    code = main(
        ["eval", "--formula", "x > 0", "--trace", trace_csv, "--metric", "agm",
         "--time", "0", "--agm-scales", '{"x": 2.0, "y": 2.0}']
    )
    assert code == 0


def test_eval_parse_error_exit_2(trace_csv, capsys):
    assert main(["eval", "--formula", "G[2,1](x > 0)", "--trace", trace_csv,
                 "--metric", "space", "--time", "0"]) == 2


def test_eval_horizon_error_exit_2(trace_csv):
    assert main(["eval", "--formula", "G[0,100](x > 0)", "--trace", trace_csv,
                 "--metric", "space", "--time", "0"]) == 2


@pytest.mark.parametrize("samples", [("0.1", "nan", "0.3"), ("nan", "0.1", "0.3")])
def test_eval_non_finite_trace_exit_2(tmp_path, capsys, samples):
    p = tmp_path / "nan.csv"
    p.write_text("time,x\n" + "".join(f"{i}.0,{v}\n" for i, v in enumerate(samples)))
    assert main(["eval", "--formula", "F[0,2](x > 0.2)", "--trace", str(p),
                 "--metric", "space", "--time", "0"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_eval_trace_without_rows_exit_2(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("time,x\n")
    code, _, err = run_cli("eval", "--formula", "x > 0", "--trace", str(p),
                           "--metric", "space", "--time", "0")
    assert code == 2
    assert err == f"stlopt: {p}: no data rows\n"


def test_eval_trace_with_a_duplicate_channel_exit_2(tmp_path):
    # the first x column used to be scored: value 1.0, exit 0
    p = tmp_path / "dup.csv"
    p.write_text("time,x,x\n0.0,1.0,-5.0\n")
    code, out, err = run_cli("eval", "--formula", "x > 0", "--trace", str(p),
                             "--metric", "space", "--time", "0")
    assert (code, out) == (2, "")
    assert err == f"stlopt: {p}: duplicate channel 'x' in header\n"


def test_eval_trace_row_wider_than_its_header_exit_2(tmp_path):
    p = tmp_path / "wide.csv"
    p.write_text("time,x\n0.0,1.0,2.0\n0.1,1.0,2.0\n")
    code, out, err = run_cli("eval", "--formula", "x > 0", "--trace", str(p),
                             "--metric", "space", "--time", "0")
    assert (code, out) == (2, "")
    assert err == f"stlopt: {p}: row width does not match header\n"


def test_eval_threshold_that_is_not_finite_exit_2(trace_csv, capsys):
    # x > 1e999 once scored -1.0 under agm and exited 0
    assert main(["eval", "--formula", "x > 1e999", "--trace", trace_csv,
                 "--metric", "agm", "--time", "0"]) == 2
    assert capsys.readouterr().err == "stlopt: 1:5: predicate threshold inf is not finite\n"


@pytest.mark.parametrize("time", ["inf", "-inf", "nan"])
def test_eval_non_finite_time_exit_2(trace_csv, capsys, time):
    # inf once ended in an OverflowError traceback, NaN in exit 1
    assert main(["eval", "--formula", "F[0,2](x > 0.3)", "--trace", trace_csv,
                 "--metric", "space", f"--time={time}"]) == 2
    err = capsys.readouterr().err
    assert err == f"stlopt: time {float(time)} is not finite\n"


@pytest.mark.parametrize(
    "formula,time,error",
    [
        ("x > 0", "1e308", "time 1e+308 outside the sampled range [0.0, 3.5]"),
        ("G[0,1e308](x > 0)", "0", "insufficient horizon: window [0.0, 1e+308] "
         "extends past the last sample at 3.5"),
        ("F[0,1e999](x > 0)", "0", "insufficient horizon: window [0.0, inf] "
         "extends past the last sample at 3.5"),
    ],
)
@pytest.mark.parametrize("metric", ["space", "time"])
def test_eval_time_or_window_past_the_grid_exit_2(trace_csv, capsys, formula, time, error, metric):
    # each of these once overflowed in round, ceil or floor; the time ended
    # in exit 1 with "cannot convert float infinity to integer"
    assert main(["eval", "--formula", formula, "--trace", trace_csv,
                 "--metric", metric, "--time", time]) == 2
    assert capsys.readouterr() == ("", f"stlopt: {error}\n")


def test_eval_time_on_an_interval_off_the_grid(tmp_path, capsys):
    # the scan stopped where t + horizon passed the end: value 0.0.  dt is
    # read from the decimal times as exactly 0.1, not one ulp below
    p = tmp_path / "offgrid.csv"
    p.write_text("time,x\n0.0,0.1\n0.1,0.5\n0.2,0.2\n0.3,0.3\n")
    assert main(["eval", "--formula", "F[0,0.25](x > 0)", "--trace", str(p),
                 "--metric", "time", "--time", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.1


def test_eval_trace_whose_time_span_overflows_exit_2(tmp_path, capsys):
    # numpy's overflow warnings, then exit 1 with "cannot convert float NaN
    # to integer"
    p = tmp_path / "span.csv"
    p.write_text("time,x\n-1e308,1.0\n1e308,2.0\n")
    assert main(["eval", "--formula", "F[0,1](x > 0)", "--trace", str(p),
                 "--metric", "space", "--time=-1e308"]) == 2
    assert capsys.readouterr() == ("", f"stlopt: {p}: time column span is not finite\n")


def test_usage_error_exit_1():
    code, _, err = run_cli("eval", "--formula", "x > 0")
    assert code == 1


def test_unknown_metric_exit_1(trace_csv):
    code, _, _ = run_cli("eval", "--formula", "x > 0", "--trace", trace_csv,
                         "--metric", "best", "--time", "0")
    assert code == 1


def test_bench_dump_task(capsys):
    assert main(["bench", "eq2", "--dump-task"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in data["regions"]} == {"A", "B", "C"}
    assert data["sample_rate"] == 10.0
    assert "F[3,4]" in data["formula"]


def test_bench_small_run(tmp_path, capsys):
    code = main(["bench", "eq2", "--method", "random", "--metric", "space",
                 "--budget", "5", "--seeds", "2", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "runs.csv").exists()
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "trace_best.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [s["seed"] for s in summary["per_seed"]] == [0, 1]


def test_bench_seed_list(capsys):
    code = main(["bench", "eq2", "--method", "random", "--metric", "space",
                 "--budget", "3", "--seeds", "5,9"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert [s["seed"] for s in summary["per_seed"]] == [5, 9]


def test_optimize_from_config(tmp_path, capsys):
    cfg = {
        "method": "random",
        "metric": {"kind": "new", "nu": 2.0},
        "budget": 4,
        "seeds": [0],
        "task": "eq2",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "results"
    assert main(["optimize", "--config", str(path), "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.json").exists()


def test_optimize_bad_config_exit_1(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"method": "bo"}))
    assert main(["optimize", "--config", str(path)]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--metric", "space", "--k", "nan"],
        ["--metric", "space", "--nu", "inf"],
        ["--metric", "agm", "--agm-scales", "[1]"],
    ],
)
def test_eval_bad_metric_parameter_exit_1(trace_csv, capsys, flags):
    code = main(["eval", "--formula", "x > 0", "--trace", trace_csv, "--time", "0", *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("stlopt: config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, message",
    [
        (["eval", "--metric", "space", "--k", "500"], "--k: 500 is not read by the space semantics"),
        (["eval", "--metric", "lse", "--nu", "3"], "--nu: 3 is not read by the lse semantics"),
        (["bench", "eq2", "--metric", "new", "--k", "500"], "--k: 500 is not read by the new semantics"),
        (["bench", "eq2", "--metric", "smooth", "--nu", "1"], "--nu: 1 is not read by the smooth semantics"),
    ],
)
def test_a_flag_the_metric_does_not_read_exit_1(trace_csv, capsys, command, message):
    flags = ["--formula", "x > 0", "--trace", trace_csv, "--time", "0"] if command[0] == "eval" else []
    assert main([*command, *flags]) == 1
    assert capsys.readouterr().err == f"stlopt: config error: {message}\n"


def test_optimize_hyperparameter_the_metric_does_not_read_exit_1(tmp_path, capsys):
    cfg = {"method": "random", "metric": {"kind": "new", "k": 500}, "budget": 5, "seeds": [0]}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert err == "stlopt: config error: metric.k: 500 is not read by the new semantics\n"


def _optimize_exit_and_error(tmp_path, capsys, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = main(["optimize", "--config", str(path)])
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return code, err


def test_optimize_metric_not_an_object_exit_1(tmp_path, capsys):
    cfg = {"method": "random", "metric": "new", "budget": 2, "seeds": [0]}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert "metric must be a JSON object" in err


def test_optimize_boolean_agm_scale_exit_1(tmp_path, capsys):
    # a JSON true is an int to Python; it is not a scale factor
    cfg = {"method": "random", "metric": {"kind": "agm", "agm_scales": {"x": True, "y": 1}},
           "budget": 2, "seeds": [0]}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert "agm scale for 'x' must be positive and finite, got True" in err


def test_optimize_task_without_bounds_exit_1(tmp_path, capsys):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    del task["bounds"]
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 2, "seeds": [0],
           "task": str(task_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert "missing config field: bounds" in err


@pytest.mark.parametrize("which", ["missing", "directory"])
def test_eval_unreadable_trace_exit_2(tmp_path, capsys, which):
    path = tmp_path / "nope.csv"
    if which == "directory":
        path.mkdir()
    code = main(["eval", "--formula", "x > 0", "--trace", str(path),
                 "--metric", "space", "--time", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"stlopt: {path}: cannot read trace:") and err.count("\n") == 1


def test_eval_formula_directory_exit_1(tmp_path, trace_csv, capsys):
    code = main(["eval", "--formula", str(tmp_path), "--trace", trace_csv,
                 "--metric", "space", "--time", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("stlopt: config error:") and "Is a directory" in err
    assert err.count("\n") == 1


def test_optimize_task_directory_exit_1(tmp_path, capsys):
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 2, "seeds": [0],
           "task": str(tmp_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert err.startswith("stlopt: config error:") and "Is a directory" in err


def test_optimize_overflowing_sample_rate_exit_1(tmp_path, capsys):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    task["sample_rate"] = 1e308  # finite, but sample_rate x duration is not
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 2, "seeds": [0],
           "task": str(task_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert err.startswith("stlopt: config error:")


def test_optimize_task_formula_parse_error_exit_1(tmp_path, capsys):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    task["formula"] = "F[0,1](x >"
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 2, "seeds": [0],
           "task": str(task_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert err.startswith(f"stlopt: config error: task file {task_path}: formula: 1:11:")


def test_bench_seed_count_overflow_exit_1(capsys):
    assert main(["bench", "eq2", "--seeds", str(10**20)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stlopt: config error:") and err.count("\n") == 1


def test_bench_seed_count_above_the_cap_exit_1(capsys):
    from stlopt.cli import MAX_SEED_COUNT

    assert main(["bench", "eq2", "--seeds", str(MAX_SEED_COUNT + 1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stlopt: config error: --seeds:") and err.count("\n") == 1


@pytest.mark.parametrize("count", ["0", "-1"])
def test_bench_seed_count_below_one_exit_1(capsys, count):
    assert main(["bench", "eq2", f"--seeds={count}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "stlopt: config error: --seeds: a seed count must be at least 1\n"


def test_bench_results_that_cannot_be_written_exit_1(tmp_path, capsys):
    # runs.csv is a directory; then an --out below a regular file
    (tmp_path / "runs.csv").mkdir()
    (tmp_path / "file").write_text("")
    for out_dir in (tmp_path, tmp_path / "file" / "out"):
        code = main(["bench", "eq2", "--method", "random", "--budget", "2",
                     "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("stlopt: config error: [Errno") and err.count("\n") == 1


def _no_runs(monkeypatch):
    import stlopt.harness

    runs = []
    monkeypatch.setattr(stlopt.harness, "optimize", lambda *args: runs.append(args))
    return runs


def test_bench_negative_seed_exit_1_before_any_run(monkeypatch, capsys):
    runs = _no_runs(monkeypatch)
    assert main(["bench", "eq2", "--method", "random", "--seeds=2,-1"]) == 1
    out, err = capsys.readouterr()
    assert not runs and out == ""
    assert err == "stlopt: config error: seeds: -1 is negative\n"


def test_optimize_negative_seed_exit_1_before_any_run(monkeypatch, tmp_path, capsys):
    runs = _no_runs(monkeypatch)
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 2, "seeds": [0, -5]}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1 and not runs
    assert err == "stlopt: config error: seeds: -5 is negative\n"


def test_bench_repeated_seed_exit_1_before_any_run(monkeypatch, capsys):
    runs = _no_runs(monkeypatch)
    assert main(["bench", "eq2", "--method", "random", "--budget", "2", "--seeds", "0,0"]) == 1
    out, err = capsys.readouterr()
    assert not runs and out == ""
    assert err == "stlopt: config error: seeds: 0 appears twice\n"


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"method": "random", "metric": {"kind": "lse", "K": 50}, "budjet": 3, "seeds": [0]},
         "unknown config field: budjet"),
        ({"method": "random", "metric": {"kind": "lse", "K": 50}, "budget": 3, "seeds": [0]},
         "unknown config field: metric.K"),
        ({"method": "random", "metric": {"kind": "space"}, "budget": 2, "seeds": [3, 0, 3]},
         "seeds: 3 appears twice"),
        ({"method": "random", "metric": {"kind": "agm", "agm_scales": {"x": 1.0}}, "budget": 2,
          "seeds": [0]},
         "metric.agm_scales: missing agm scale for channel 'y'"),
    ],
    ids=["unknown-top-level", "unknown-metric", "repeated-seed", "agm-scale-missing"],
)
def test_optimize_config_rejected_before_any_run_exit_1(monkeypatch, tmp_path, capsys, cfg,
                                                        message):
    runs = _no_runs(monkeypatch)
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1 and not runs
    assert err == f"stlopt: config error: {message}\n"


def test_optimize_task_formula_channel_outside_the_trajectory_exit_1(tmp_path, capsys):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    task["formula"] = "F[0,15](z > 0)"
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 2, "seeds": [0],
           "task": str(task_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert err == (
        f"stlopt: config error: task file {task_path}: formula reads channel 'z'; "
        "a task trajectory has only ['x', 'y']\n"
    )


def test_optimize_task_trace_above_the_sample_cap_exit_1(tmp_path, capsys):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    task["bounds"]["duration"] = [1, 1e12]
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 2, "seeds": [0],
           "task": str(task_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert err.startswith(f"stlopt: config error: task file {task_path}: bounds.duration and sample_rate")


@pytest.mark.parametrize("lower", [-1, 0])
def test_optimize_task_duration_lower_bound_not_positive_exit_1(tmp_path, capsys, lower):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    task["bounds"]["duration"] = [lower, 10]
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 20, "seeds": [0],
           "task": str(task_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert err.startswith(f"stlopt: config error: task file {task_path}: bounds.duration ")


@pytest.mark.parametrize("field, pair", [("duration", [5, 1]), ("workspace", [0.8, 0.2])])
def test_optimize_task_reversed_bounds_pair_exit_1(tmp_path, capsys, field, pair):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    task["bounds"][field] = pair
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 20, "seeds": [0],
           "task": str(task_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert err == (
        f"stlopt: config error: task file {task_path}: bounds.{field}: "
        f"upper bound {pair[1]:g} must exceed lower bound {pair[0]:g}\n"
    )


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda t: t["bounds"].update(workspace=[0, 2]), "bounds.workspace"),
        (lambda t: t["bounds"].update(workspace=[-0.5, 1]), "bounds.workspace"),
        (lambda t: t.update(home=[1.5, 0.1]), "home"),
    ],
    ids=["workspace-above", "workspace-below", "home"],
)
def test_optimize_task_outside_the_unit_workspace_exit_1(tmp_path, capsys, edit, field):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    edit(task)
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 20, "seeds": [0],
           "task": str(task_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    assert code == 1
    assert err.startswith(f"stlopt: config error: task file {task_path}: {field} ")
    assert err.count("\n") == 1


def test_check_properties_exit_0(capsys):
    assert main(["check-properties", "--samples", "80", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "soundness/lse-negative-control" in out


def test_check_properties_exit_3_without_witness(capsys):
    # a handful of instances cannot produce the LSE sign-disagreement witness,
    # and the suite must report that as a failure
    assert main(["check-properties", "--samples", "2", "--seed", "42"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_check_properties_deterministic(capsys):
    main(["check-properties", "--samples", "40", "--seed", "7"])
    first = capsys.readouterr().out
    main(["check-properties", "--samples", "40", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_console_script_entrypoint():
    code, out, _ = run_cli("check-properties", "--samples", "80", "--seed", "42")
    assert code == 0
    assert "overall" in out


def _optimize_task_exit_and_error(tmp_path, capsys, edit):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    edit(task)
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = {"method": "random", "metric": {"kind": "space"}, "budget": 2, "seeds": [0],
           "task": str(task_path)}
    code, err = _optimize_exit_and_error(tmp_path, capsys, cfg)
    return code, err.removeprefix(f"stlopt: config error: task file {task_path}: ")


def _no_formula(task, regions):
    del task["formula"]
    task["regions"] = task["regions"][:regions]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: _no_formula(t, 0), "regions: a task without a formula needs at least one region"),
        (lambda t: t["regions"][0].update(box=[0.3, 0.3, 0.6, 0.7]), "regions: item 0: region 'A' box is degenerate"),
        (
            lambda t: (t["bounds"].update(duration=[1, 2]), t.update(formula="F[0,10](x > 0)")),
            "formula horizon exceeds the longest possible trajectory",
        ),
        (lambda t: t.update(formula="F[0,15](x > 1e999)"), "formula: 1:13: predicate threshold inf is not finite"),
        (lambda t: t.update(sample_rat=20.0), "unknown config field: sample_rat"),
        (lambda t: t["bounds"].update(durations=[1, 2]), "unknown config field: bounds.durations"),
        (lambda t: t["regions"][1].update(windw=[8, 10]), "regions: item 1: unknown config field: windw"),
    ],
    ids=["no-formula-no-region", "degenerate-box", "horizon-too-long", "infinite-threshold",
         "unknown-field", "unknown-bounds-field", "unknown-region-field"],
)
def test_optimize_task_rejected_when_it_loads_exit_1(monkeypatch, tmp_path, capsys, edit, message):
    runs = _no_runs(monkeypatch)
    code, err = _optimize_task_exit_and_error(tmp_path, capsys, edit)
    assert code == 1 and not runs
    assert err == message + "\n"


def test_optimize_task_without_a_formula_scores_its_one_region(tmp_path, capsys):
    from stlopt.task import benchmark_eq2, task_to_json

    task = task_to_json(benchmark_eq2())
    _no_formula(task, 1)
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(task))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"method": "random", "metric": {"kind": "space"}, "budget": 3,
                               "seeds": [0], "task": str(task_path)}))
    assert main(["optimize", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["task"] == str(task_path)
