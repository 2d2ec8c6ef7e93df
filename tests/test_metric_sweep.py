"""The command line of scripts/run_metric_sweep.py: a count below one is an
argparse usage error, reported before any run."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "run_metric_sweep.py"
_spec = importlib.util.spec_from_file_location("run_metric_sweep", _PATH)
run_metric_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_metric_sweep)


@pytest.mark.parametrize("flag", ["--seeds", "--budget"])
def test_a_count_below_one_is_one_usage_error(monkeypatch, capsys, flag):
    runs = []
    monkeypatch.setattr(run_metric_sweep, "run_experiment", runs.append)
    monkeypatch.setattr(sys, "argv", ["run_metric_sweep.py", flag, "0"])
    with pytest.raises(SystemExit) as exit_info:
        run_metric_sweep.main()
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and not runs and out == ""
    assert err.startswith("usage: ")
    assert err.endswith(f"error: argument {flag}: must be at least 1, got 0\n")
    assert "Traceback" not in err
