"""The traced benchmark run wraps program attributes by name; keep them there.

perfbench/tracer.py lists every (module, attribute) it wraps in LAYERS and
looks each one up with getattr when `perfbench/run.py --trace 1` starts.
This test imports that list read-only, so renaming or dropping one of those
attributes fails here instead of only in a traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for target, attr, *_ in tracer.LAYERS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{target}.{attr}")
    assert not missing, f"attributes the benchmark tracer wraps are gone: {missing}"
