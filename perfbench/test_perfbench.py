"""Tests of the benchmark itself, at the smallest size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stlopt  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def smallest(monkeypatch):
    """One operation per round, one set-up."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "BO_METRICS", ("space",))
    monkeypatch.setattr(workloads, "BO_SEEDS", (0,))
    monkeypatch.setattr(workloads, "SWEEP_METHODS", ("random",))
    monkeypatch.setattr(workloads, "SWEEP_METRICS", ("space",))
    monkeypatch.setattr(workloads, "MONITOR_FILES", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(smallest, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    report = "\n".join(lines[:-1])
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f"{m['name']} " in report and f" {m['unit']}" in report
    assert "failed_ratio" in report and '"git_sha"' in report and '"seed": 0' in report


def written_inputs(seed, work: Path) -> list[bytes]:
    work.mkdir()
    workloads.MonitorLong(seed, str(work), {}).setup()
    return [p.read_bytes() for p in sorted(work.iterdir())]


def test_changing_the_seed_changes_the_generated_inputs(tmp_path):
    first = written_inputs(0, tmp_path / "a")
    assert written_inputs(1, tmp_path / "b") != first
    assert written_inputs(0, tmp_path / "c") == first

    def rounds(cls, seed):
        w = cls(seed, str(tmp_path), {})
        try:
            return [w.next_round() for _ in range(3)]
        finally:
            w.close()

    assert rounds(workloads.Eq2Sweep, 0) != rounds(workloads.Eq2Sweep, 1)
    assert rounds(workloads.Eq2Sweep, 0) == rounds(workloads.Eq2Sweep, 0)
    assert len({str(rounds(workloads.Eq2Bo, s)) for s in range(8)}) > 1


@pytest.mark.parametrize("method", ["bo", "cmaes", "random"])
def test_traced_run_leaves_results_byte_identical(tmp_path, method):
    cfg = stlopt.ExperimentConfig(method, stlopt.MetricConfig("new"), 60, [0])
    stlopt.emit_results(stlopt.run_experiment(cfg), str(tmp_path / "plain"))
    t = tracing.Tracer()
    tracing.install(t)
    try:
        stlopt.emit_results(stlopt.run_experiment(cfg), str(tmp_path / "traced"))
    finally:
        t.uninstall()
    assert t.calls["task.objective_detail"] == 60
    for name in ("runs.csv", "summary.json"):
        assert filecmp.cmp(tmp_path / "plain" / name, tmp_path / "traced" / name, shallow=False)


def test_self_time_excludes_wrapped_children():
    def inner(n):
        return sum(range(n))

    mod = types.SimpleNamespace(inner=inner)
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    t = tracing.Tracer()
    t.wrap(mod, "outer", "outer")
    t.wrap(mod, "inner", "inner", span=False)
    mod.outer(200_000)
    t.uninstall()
    assert t.calls == {"outer": 1, "inner": 2}
    assert t.self_s["outer"] == pytest.approx(t.total_s["outer"] - t.total_s["inner"])
    assert [s[1] for s in t.spans] == ["outer"] and t.spans[0][4] is None
    assert mod.outer(3) == 6 and mod.inner is inner


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eq2-bo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
