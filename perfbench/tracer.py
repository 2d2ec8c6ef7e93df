"""In-memory span recorder for the traced benchmark run.

Wrappers go on the module attributes through which the program looks a
function up (for example ``stlopt.optim.bayes.fit_gp_grid``), so the program
itself is not modified and an untraced run executes none of this code.

A wrapped call is either a *span* (name, start, end, parent, kept in memory
and written out when the run ends) or, for the innermost and most frequent
calls, a *counter* that only accumulates calls and time.  Both kinds add
their duration to the enclosing call, so every layer's self time (duration
minus the time covered by wrapped calls inside it) is exact.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter
from time import perf_counter

from workloads import KINDS

# The fixed 10 x 10 x 10 hyperparameter grid that fit_gp_grid sweeps with one
# Cholesky factorization per point; `optim.gp.cholesky_computed` is fits x this.
GP_GRID_POINTS = 1000

AGGREGATORS = (
    "softmax_lse",
    "softmin_lse",
    "smooth_min",
    "smooth_max",
    "agm_and",
    "agm_or",
    "new_and",
    "new_or",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()  # work counts reported by the hooks
        self._stack: list[list] = []  # [span id, name, time covered by children]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # installation ---------------------------------------------------------

    def wrap(self, owner, attr: str, name, span: bool = True, hook=None) -> None:
        """Replace owner.attr by a recording wrapper.

        `name` is a metric prefix or a function of the call arguments that
        returns one.  `hook(tracer, args, result)` adds work counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            return tracer._call(label, span, hook, original, args, kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        for c in (self.calls, self.total_s, self.self_s, self.counts):
            c.clear()

    def _call(self, name, span, hook, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent[1] == name and not span:
            # a counter re-entered through itself (softmin_lse -> softmax_lse):
            # count the outermost call only
            return fn(*args, **kwargs)
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            if span:
                self.spans.append((frame[0], name, start, end, parent[0] if parent else None))
        if hook is not None:
            hook(self, args, result)
        return result

    # results --------------------------------------------------------------

    def work_counts(self) -> dict:
        """Counts that must repeat exactly when the same inputs run again."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))


def _evaluate_name(args) -> str:
    return f"semantics.evaluate.{args[0].kind}"


def _window_samples(tracer, args, result):
    tracer.counts["trace.window_indices.samples"] += len(result)


def _aggregator_inputs(tracer, args, result):
    tracer.counts["aggregators.inputs"] += len(args[0])


def _penalty(tracer, args, result):
    tracer.counts["task.objective_detail.penalized"] += result[2] is None


def _csv_bytes(tracer, args, result):
    tracer.counts["trace.load_trace_csv.bytes"] += os.path.getsize(args[0])


def _emit_bytes(tracer, args, result):
    tracer.counts["harness.emit_results.bytes"] += sum(
        os.path.getsize(p) for p in result.values()
    )


# (module[:class], attribute, metric prefix, span?, hook)
LAYERS = [
    ("stlopt", "run_experiment", "harness.run_experiment", True, None),
    ("stlopt", "emit_results", "harness.emit_results", True, _emit_bytes),
    ("stlopt.optim.bayes", "fit_gp_grid", "optim.gp.fit_gp_grid", True, None),
    ("stlopt.optim.bayes", "gp_predict", "optim.gp.gp_predict", True, None),
    ("stlopt.optim.bayes", "expected_improvement", "optim.gp.expected_improvement", False, None),
    ("stlopt.optim.bayes:BayesOpt", "ask", "optim.bayes.ask", True, None),
    ("stlopt.optim.bayes:BayesOpt", "tell", "optim.bayes.tell", True, None),
    ("stlopt.optim.cmaes:CmaEs", "ask", "optim.cmaes.ask", True, None),
    ("stlopt.optim.cmaes:CmaEs", "tell", "optim.cmaes.tell", True, None),
    ("stlopt.optim.random_search:RandomSearch", "ask", "optim.random.ask", True, None),
    ("stlopt.optim.random_search:RandomSearch", "tell", "optim.random.tell", True, None),
    ("stlopt.harness", "objective_detail", "task.objective_detail", True, _penalty),
    ("stlopt.task", "evaluation_trace", "task.evaluation_trace", True, None),
    ("stlopt.task", "evaluate", _evaluate_name, True, None),
    ("stlopt.task", "satisfies", "semantics.satisfies", True, None),
    ("stlopt.task", "horizon", "formula.horizon", False, None),
    ("stlopt.task", "parse_formula", "parser.parse_formula", True, None),
    ("stlopt", "load_trace_csv", "trace.load_trace_csv", True, _csv_bytes),
    ("stlopt", "parse_formula", "parser.parse_formula", True, None),
    ("stlopt", "horizon", "formula.horizon", False, None),
    ("stlopt", "evaluate", _evaluate_name, True, None),
    ("stlopt", "satisfies", "semantics.satisfies", True, None),
    ("stlopt.semantics", "time_robustness_plus", "semantics.time_robustness_plus", True, None),
    ("stlopt.semantics", "horizon", "formula.horizon", False, None),
    ("stlopt.semantics", "window_indices", "trace.window_indices", False, _window_samples),
] + [
    ("stlopt.aggregators", name, "aggregators", False, _aggregator_inputs)
    for name in AGGREGATORS
]


def install(tracer: Tracer) -> None:
    for target, attr, name, span, hook in LAYERS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name, span, hook)


# Self time is grouped by layer to show where a workload spends its time.
SHARE_GROUPS = {
    "optim.gp": ("optim.gp.",),
    "optim.ask_tell": ("optim.bayes.", "optim.cmaes.", "optim.random."),
    "task": ("task.",),
    "semantics": ("semantics.",),
    "trace": ("trace.",),
    "aggregators": ("aggregators",),
    "parse_horizon": ("parser.", "formula."),
    "harness": ("harness.",),
}


# Which end-to-end metric each layer metric should move, and where:
#   optim.gp.*                      wall_s, step_ms_p95, time_to_sat_s on eq2-bo;
#                                   no change on eq2-sweep and monitor-long
#   optim.*.ask/tell                step_ms_p50 on eq2-bo and eq2-sweep
#   task.*                          evals_per_s on eq2-sweep
#   semantics.*, trace.window_indices.*, aggregators.*
#                                   evals_per_s on monitor-long and eq2-sweep
#   trace.load_trace_csv.*, parser.*, formula.horizon.*
#                                   wall_s on monitor-long, setup_s
#   harness.*                       wall_s on eq2-sweep
def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit); absent layers read 0."""
    calls, total, self_s, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def timed(prefix, with_calls=True):
        if with_calls:
            m[f"{prefix}.calls"] = (calls[prefix], "count")
        m[f"{prefix}.s"] = (total[prefix], "s")

    for fn in ("fit_gp_grid", "gp_predict", "expected_improvement"):
        timed(f"optim.gp.{fn}")
    m["optim.gp.cholesky_computed"] = (calls["optim.gp.fit_gp_grid"] * GP_GRID_POINTS, "count")
    for opt in ("bayes", "cmaes", "random"):
        for step in ("ask", "tell"):
            timed(f"optim.{opt}.{step}", with_calls=False)
    timed("task.evaluation_trace")
    m["task.objective_detail.self_s"] = (self_s["task.objective_detail"], "s")
    n_obj = calls["task.objective_detail"]
    penalized = counts["task.objective_detail.penalized"]
    m["task.penalty_ratio"] = (penalized / n_obj if n_obj else 0.0, "ratio")
    for kind in KINDS:
        timed(f"semantics.evaluate.{kind}")
    timed("semantics.satisfies")
    timed("semantics.time_robustness_plus", with_calls=False)
    m["trace.window_indices.calls"] = (calls["trace.window_indices"], "count")
    m["trace.window_indices.samples"] = (counts["trace.window_indices.samples"], "count")
    m["aggregators.calls"] = (calls["aggregators"], "count")
    m["aggregators.inputs"] = (counts["aggregators.inputs"], "count")
    m["aggregators.s"] = (total["aggregators"], "s")
    timed("trace.load_trace_csv", with_calls=False)
    m["trace.load_trace_csv.bytes"] = (counts["trace.load_trace_csv.bytes"], "B")
    timed("parser.parse_formula")
    timed("formula.horizon")
    timed("harness.run_experiment", with_calls=False)
    timed("harness.emit_results", with_calls=False)
    m["harness.emit_results.bytes"] = (counts["harness.emit_results.bytes"], "B")
    for group, prefixes in SHARE_GROUPS.items():
        busy = sum(v for k, v in self_s.items() if k.startswith(prefixes))
        m[f"share.{group}.self"] = (busy / traced_wall_s if traced_wall_s > 0 else 0.0, "ratio")
    return m
