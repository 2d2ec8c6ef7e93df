"""The summary arithmetic of scripts/ab_pairs.py on synthetic numbers.

Nothing here runs the benchmark: the quartiles, the pair count, the
relative change and the claim rule are checked, and the command line with a
stub in place of each benchmark run.  The page-fault count is checked on a
stand-in runner script.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def test_quartiles_are_inclusive():
    assert ab_pairs.quartiles([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4}
    assert ab_pairs.quartiles([1, 2, 3, 4]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert ab_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_of_a_lower_is_better_metric():
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 1.05, 0.95, 1.0, 1.1, 1.0]
    change = [0.7, 0.8, 0.9, 0.75, 0.7, 0.8, 0.72, 0.78, 0.74, 0.76]
    s = ab_pairs.summarize(parent, change, "lower")
    assert s["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0875}
    assert s["change"]["median"] == pytest.approx(0.755)
    assert s["change_wins"] == 9  # pair 3 is a tie, which counts for neither
    assert s["rel_change"] == -0.245
    assert s["parent_iqr"] == 0.0875
    assert s["median_gap"] == pytest.approx(0.245)
    assert ab_pairs.claim_met(s, 10)


def test_summary_of_a_higher_is_better_metric():
    s = ab_pairs.summarize([100.0, 110.0, 90.0], [120.0, 130.0, 80.0], "higher")
    assert s["change_wins"] == 2
    assert s["rel_change"] == 0.2
    assert s["median_gap"] == 20.0
    assert not ab_pairs.claim_met(s, 3)  # 2 of 3 is below nine tenths


def test_claim_needs_nine_tenths_and_a_gap_wider_than_the_parent_iqr():
    parent = [float(v) for v in range(10, 20)]  # median 14.5, IQR 4.5
    all_won_small_gap = ab_pairs.summarize(parent, [v - 1 for v in parent], "lower")
    assert all_won_small_gap["change_wins"] == 10
    assert not ab_pairs.claim_met(all_won_small_gap, 10)
    eight_won = [v - 10 for v in parent[:8]] + parent[8:]
    s = ab_pairs.summarize(parent, eight_won, "lower")
    assert s["change_wins"] == 8 and s["median_gap"] > s["parent_iqr"]
    assert not ab_pairs.claim_met(s, 10)
    nine_won = [v - 10 for v in parent[:9]] + [parent[9] + 1]
    assert ab_pairs.claim_met(ab_pairs.summarize(parent, nine_won, "lower"), 10)
    worse = ab_pairs.summarize(parent, [v + 10 for v in parent], "lower")
    assert worse["median_gap"] < 0 and not ab_pairs.claim_met(worse, 10)


def test_claim_needs_at_least_ten_pairs():
    one = ab_pairs.summarize([1.0], [0.5], "lower")
    assert one["change_wins"] == 1 and one["median_gap"] > one["parent_iqr"]
    assert not ab_pairs.claim_met(one, 1)
    parent = [float(v) for v in range(10, 19)]
    nine = ab_pairs.summarize(parent, [v - 10 for v in parent], "lower")
    assert nine["change_wins"] == 9 and nine["median_gap"] > nine["parent_iqr"]
    assert not ab_pairs.claim_met(nine, 9)
    ten = ab_pairs.summarize(parent + [19.0], [v - 10 for v in parent + [19.0]], "lower")
    assert ab_pairs.claim_met(ten, 10)


def test_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        ab_pairs.summarize([], [], "lower")


@pytest.fixture
def counted_runs(monkeypatch):
    """Replaces run_once by a stub that records each call."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree, workload, seed))
        return {"correct": True, "values": {"wall_s": 1.0, "evals_per_s": 10.0},
                "minor_faults": 100 * len(calls)}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    return calls


def trees(tmp_path):
    spec = (_PATH.parent.parent / "BENCHMARK.json").read_text()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(spec)
    return [str(tmp_path / "parent"), str(tmp_path / "change"), "--label", "t",
            "--first-seed", "1", "--pairs", "1", "--workload", "eq2-sweep"]


@pytest.mark.parametrize("claim", ["eq2-sweep", "eq2-sweep:", "eq2-sweep:wall",
                                   "monitor-long:wall_s", "eq2-sweep:wall_s:x",
                                   "eq2-sweep:minor_faults"])
def test_a_bad_claim_stops_before_the_first_run(tmp_path, counted_runs, capsys, claim):
    with pytest.raises(SystemExit):
        ab_pairs.main(trees(tmp_path) + ["--claim", claim, "--out", str(tmp_path)])
    assert counted_runs == []
    assert "--claim" in capsys.readouterr().err


def test_out_is_created_before_the_first_run(tmp_path, counted_runs):
    out = tmp_path / "new" / "dir"
    args = trees(tmp_path) + ["--claim", "eq2-sweep:wall_s", "--out", str(out)]
    assert ab_pairs.main(args) == 0
    assert len(counted_runs) == 2
    claim = json.loads((out / "BENCH_t.json").read_text())["claim"]
    assert (claim["workload"], claim["metric"], claim["met"]) == ("eq2-sweep", "wall_s", False)


def test_minor_faults_are_kept_per_run_and_summarized_per_side(tmp_path, counted_runs):
    args = trees(tmp_path) + ["--pairs", "2", "--out", str(tmp_path)]
    assert ab_pairs.main(args) == 0
    entry = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["eq2-sweep"]
    # pair 0 runs the parent first (100, then 200), pair 1 the change (300, then 400)
    assert [r["minor_faults"] for r in entry["runs"]] == [
        {"parent": 100, "change": 200}, {"parent": 400, "change": 300}]
    assert entry["minor_faults"] == {"parent": {"median": 250, "q1": 175, "q3": 325},
                                     "change": {"median": 250, "q1": 225, "q3": 275}}
    assert "minor_faults" not in entry["runs"][0]["parent"]  # not an end-to-end metric


def test_run_once_counts_the_minor_faults_of_the_benchmark_process(tmp_path):
    def tree(name, body):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(
            body + '\nprint(\'{"correct": true, "metrics": {"wall_s": {"value": 0.5}}}\')\n')
        return tmp_path / name

    idle = ab_pairs.run_once(tree("idle", "pass"), "w", 0, 1.0)
    # 64 MB written: 16384 faults on 4 KB pages, 32 even on 2 MB pages
    busy = ab_pairs.run_once(tree("busy", "block = b'x' * (64 << 20)"), "w", 0, 1.0)
    assert idle["values"] == busy["values"] == {"wall_s": 0.5}
    assert busy["minor_faults"] - idle["minor_faults"] >= 32
