"""Fuzz the command line in-process with malformed config, task, trace and
flag inputs.  Every run must end in exit code 0, 1 or 2, or in argparse's
SystemExit(1) for a flag it cannot parse; no other exception may escape.

Mutated numbers come from a fixed list of small, zero, negative, large,
non-finite and overflowing values.  Seed counts, segment durations and
sample rates also take large finite values: the caps on the seed count and
on the trace length reject those at once.  Large budgets are left out on
purpose, since the budget is not capped: a valid run with a large budget
does not fail, it runs for minutes.  Every valid run keeps budget <= 2.
"""

import copy
import json
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlopt.cli import BENCH_METRICS, MAX_SEED_COUNT, main
from stlopt.semantics import METRIC_KINDS
from stlopt.task import benchmark_eq2, task_to_json

FUZZ = settings(derandomize=True, deadline=None, max_examples=40)

LARGE = [1e6, 1e9, 1e12, 1e300]  # floats: an integer field rejects them
NUMBERS = [-1, 0, 1, 2, 0.5, -0.5, *LARGE, 1e308, -1e308, float("nan"), float("inf"),
           float("-inf")]
NUMBER_TEXT = ["0", "0.5", "1", "2", "-1", "1e308", "nan", "inf", "-inf", "abc", ""]
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(NUMBERS),
    st.text(max_size=4),
    st.lists(st.sampled_from(NUMBERS), max_size=3),
    st.dictionaries(st.text(max_size=2), st.sampled_from(NUMBERS), max_size=2),
)
FORMULAS = ["x > 0", "F[0,1](x > 0.2)", "G[0,2](x < 1) & F[0,1](y > 0)", "(x > 0) U[0,1] (y > 0.5)"]

BASE_CONFIG = {
    "method": "random",
    "metric": {"kind": "space", "k": 10.0, "nu": 2.0, "agm_scales": {"x": 1.0, "y": 1.0}},
    "budget": 2,
    "seeds": [0],
    "task": "eq2",
}


def _paths(doc, prefix=()):
    """Every path into doc through dict keys and list indices, root first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one to three fields replaced by junk or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(JUNK)
        if not path:
            doc = value
            continue
        parent = reduce(getitem, path[:-1], doc)
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@st.composite
def trace_csv(draw):
    """A uniformly sampled two-channel CSV with some cells, the header or the
    row widths broken, or free text from the CSV alphabet."""
    if draw(st.booleans()):
        return draw(st.text(alphabet="time,xy0123456789.-e\nnaif ", max_size=60))
    header = draw(st.sampled_from(["time,x,y", "time,x", "x,time", "time", "", "time,,y"]))
    rows = [[f"{0.5 * i}", f"{0.1 * i}", f"{1 - 0.1 * i}"] for i in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, len(row) - 1))
        if draw(st.booleans()):
            row[i] = draw(st.sampled_from(NUMBER_TEXT + ["x", " "]))
        else:
            row.insert(i, draw(st.sampled_from(NUMBER_TEXT)))
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def run(argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected a flag
        assert exc.code == 1, argv
        return
    assert code in (0, 1, 2), argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(config=mutated(BASE_CONFIG))
def test_optimize_with_mutated_config(workdir, config):
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    run(["optimize", "--config", str(path), "--out", str(workdir / "out")])


@FUZZ
@given(task=mutated(task_to_json(benchmark_eq2())), kind=st.sampled_from(BENCH_METRICS))
def test_optimize_with_mutated_task(workdir, task, kind):
    task_path = workdir / "task.json"
    task_path.write_text(json.dumps(task))
    config = dict(BASE_CONFIG, metric={"kind": kind}, task=str(task_path))
    path = workdir / "task-config.json"
    path.write_text(json.dumps(config))
    run(["optimize", "--config", str(path), "--out", str(workdir / "out")])


@FUZZ
@given(duration=st.sampled_from(LARGE), sample_rate=st.sampled_from([0.5, 10.0, *LARGE]))
def test_optimize_with_large_trace_sizes(workdir, duration, sample_rate):
    task = task_to_json(benchmark_eq2())
    task["bounds"]["duration"][1] = duration
    task["sample_rate"] = sample_rate
    task_path = workdir / "large-task.json"
    task_path.write_text(json.dumps(task))
    path = workdir / "large-config.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, task=str(task_path))))
    assert main(["optimize", "--config", str(path), "--out", str(workdir / "out")]) == 1


@FUZZ
@given(
    text=trace_csv(),
    formula=st.one_of(st.sampled_from(FORMULAS), st.text(max_size=8)),
    metric=st.sampled_from(METRIC_KINDS),
    time=st.sampled_from(NUMBER_TEXT),
    k=st.sampled_from(NUMBER_TEXT),
    nu=st.sampled_from(NUMBER_TEXT),
    scales=st.sampled_from(
        [None, '{"x": 1, "y": 2}', '{"x": 0}', '{"y": 1}', '{"x": "a"}', '{"x": 1e308}',
         "[1]", "null", "{"]
    ),
)
def test_eval_with_mutated_trace_and_flags(workdir, text, formula, metric, time, k, nu, scales):
    path = workdir / "trace.csv"
    path.write_text(text)
    argv = ["eval", f"--formula={formula}", "--trace", str(path), "--metric", metric,
            f"--time={time}", f"--k={k}", f"--nu={nu}"]
    if scales is not None:
        argv.append(f"--agm-scales={scales}")
    run(argv)


@FUZZ
@given(
    method=st.sampled_from(["random", "cmaes", "bo"]),
    metric=st.sampled_from(BENCH_METRICS),
    budget=st.sampled_from(["-1", "0", "1", "2", "x", "1.5", ""]),
    seeds=st.sampled_from(
        ["0", "1", "2", "-1", "", ",", "0,1", "a", "1,,2", "2,x", " ", "0,-3",
         str(MAX_SEED_COUNT + 1), str(10**9), str(10**20)]
    ),
    k=st.sampled_from(NUMBER_TEXT),
    nu=st.sampled_from(NUMBER_TEXT),
)
def test_bench_with_mutated_flags(method, metric, budget, seeds, k, nu):
    run(["bench", "eq2", "--method", method, "--metric", metric, f"--budget={budget}",
         f"--seeds={seeds}", f"--k={k}", f"--nu={nu}"])
