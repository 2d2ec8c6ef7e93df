"""The three benchmark workloads.

Each workload makes its inputs from the workload seed, runs one operation at
a time through the program's public calls, and checks the outputs of every
operation against references recorded from the program (see record.py).

* eq2-bo: `bo` on eq2, metrics new and space, budget 60, optimizer seeds 0
  and 1.  Bound by the GP hyperparameter fit; the objective is a few percent.
* eq2-sweep: cmaes and random x the six bench metrics, budget 60, one
  optimizer seed per round drawn from a pool of 32.  Bound by the objective
  (trajectory build + semantics); never calls the GP.  Writes results.
* monitor-long: 3001-sample, 2-channel traces written as CSV in set-up; each
  operation loads one, parses the formula set and evaluates the Boolean
  verdicts and all seven semantics at three late grid times.  Windows span
  26 to 501 samples, 10-100x the 11-21 of eq2, so sliding-window algorithms
  show here.  Reads traces where eq2-sweep writes them.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import stlopt
import stlopt.harness
from stlopt.exceptions import AvgSemanticsError

EQ2_BUDGET = 60
BO_METRICS = ("new", "space")
BO_SEEDS = (0, 1)
SWEEP_METHODS = ("cmaes", "random")
SWEEP_METRICS = ("space", "lse", "smooth", "agm", "avg", "new")
SWEEP_SEED_POOL = 32

MONITOR_BANK = 24  # traces with recorded reference values
MONITOR_FILES = 16  # traces one run writes and cycles through
MONITOR_SAMPLES = 3001
MONITOR_DT = 0.01
# (formula, accepted by the avg semantics)
MONITOR_FORMULAS = (
    ("G[0,4](x < 1.5 & y > -1.5)", True),  # range check; holds on every bank trace
    ("F[0,4](x > 0.4 & y > 0)", True),
    ("G[0,2](F[0,0.25](x > 0.2))", False),
    ("F[0,2](G[0,0.25](y < -0.2))", False),
    ("(x > -0.5 U[0,1.5] y > 0.4)", False),
    ("G[0,5](x < 0.7 | y > -0.7)", True),
)
# Evaluation times, in samples before the last time at which the formula's
# horizon still fits in the trace.  Late times bound the forward scan of time
# robustness (until the verdict changes or the trace ends), whose cost would
# otherwise depend on the trace more than all other semantics together.
MONITOR_STEPS = (0, 25, 50)
KINDS = ("space", "time", "lse", "smooth", "agm", "avg", "new")
EXACT_KINDS = ("space", "time", "avg")
REL_TOL = 1e-12


def metric_config(kind: str) -> stlopt.MetricConfig:
    return stlopt.MetricConfig(kind, agm_scales={"x": 1.0, "y": 1.0})


@dataclass
class OpResult:
    start: float
    wall: float
    completions: list[float]  # perf_counter() after each evaluation
    first_sat: float | None  # perf_counter() when the Boolean oracle first accepted
    error: str | None = None  # exception or output mismatch

    @property
    def steps(self) -> list[float]:
        marks = [self.start] + self.completions
        return [b - a for a, b in zip(marks, marks[1:])]

    @property
    def time_to_sat(self) -> float:
        """Time to the first accepted evaluation, censored at the last one."""
        end = self.first_sat if self.first_sat is not None else self.completions[-1]
        return end - self.start


@dataclass
class Workload:
    seed: int
    work_dir: str
    reference: dict
    rng: np.random.Generator = field(init=False)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def setup(self) -> None:
        """Write the inputs; called several times, each must leave them whole."""

    def next_round(self) -> list:
        """The operations of the next round of the timed loop."""
        raise NotImplementedError

    def trace_ops(self) -> list:
        """The fixed operations of the traced run."""
        raise NotImplementedError

    def run_op(self, op) -> OpResult:
        raise NotImplementedError

    def oracle_check(self, oracle) -> list[str]:
        """Cross-check space and Boolean against the brute-force oracle."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# eq2 workloads ----------------------------------------------------------------


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def eq2_key(method: str, metric: str, opt_seed: int) -> str:
    return f"{method}/{metric}/{opt_seed}"


class Eq2Workload(Workload):
    """One operation is `stlopt bench eq2` for one method, metric and
    optimizer seed: run_experiment + emit_results into a fresh directory."""

    def __post_init__(self):
        super().__post_init__()
        self._events: list[tuple[float, bool]] = []
        self.last_result = None
        self._original = original = stlopt.harness.objective_detail

        def recorded(spec, cfg, p):
            out = original(spec, cfg, p)
            self._events.append((perf_counter(), out[1]))
            return out

        stlopt.harness.objective_detail = recorded

    def close(self) -> None:
        stlopt.harness.objective_detail = self._original

    def run_op(self, op) -> OpResult:
        method, metric, opt_seed = op
        out_dir = tempfile.mkdtemp(prefix="op-", dir=self.work_dir)
        cfg = stlopt.ExperimentConfig(method, stlopt.MetricConfig(metric), EQ2_BUDGET, [opt_seed])
        self._events.clear()
        start = perf_counter()
        try:
            result = stlopt.run_experiment(cfg)
            paths = stlopt.emit_results(result, out_dir)
            wall = perf_counter() - start
            error = None
            want = self.reference["eq2"][eq2_key(*op)]
            for name in ("runs", "summary"):
                if digest(paths[name]) != want[name]:
                    error = f"{os.path.basename(paths[name])} differs from the reference"
            self.last_result = result
        except Exception as exc:  # one failed operation must not end the run
            wall = perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        first_sat = next((t for t, sat in self._events if sat), None)
        return OpResult(start, wall, [t for t, _ in self._events], first_sat, error)

    def oracle_check(self, oracle) -> list[str]:
        if self.last_result is None:
            return ["no operation completed"]
        task = stlopt.benchmark_eq2()
        records = [r for s in self.last_result.per_seed for r in s.records]
        space = metric_config("space")
        problems = []
        for r in sorted(records, key=lambda r: r.value, reverse=True)[:3]:
            got, sat, x = stlopt.objective_detail(task, space, r.params)
            if x is None:  # penalty branch: no trace was scored
                continue
            want = oracle.brute_space(task.formula, x, 0.0)
            if got != want:
                problems.append(f"eval {r.index}: space {got!r} != oracle {want!r}")
            if not sat == bool(r.satisfied) == oracle.brute_sat(task.formula, x, 0.0):
                problems.append(f"eval {r.index}: satisfied flag disagrees with the oracle")
        return problems


class Eq2Bo(Eq2Workload):
    def next_round(self) -> list:
        ops = [("bo", metric, s) for metric in BO_METRICS for s in BO_SEEDS]
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def trace_ops(self) -> list:
        return self.next_round()[:2]


class Eq2Sweep(Eq2Workload):
    def __post_init__(self):
        super().__post_init__()
        self._seed_order = self.rng.permutation(SWEEP_SEED_POOL)
        self._round = 0

    def next_round(self) -> list:
        opt_seed = int(self._seed_order[self._round % SWEEP_SEED_POOL])
        self._round += 1
        ops = [(m, k, opt_seed) for m in SWEEP_METHODS for k in SWEEP_METRICS]
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def trace_ops(self) -> list:
        return self.next_round() + self.next_round()


# monitor-long -------------------------------------------------------------------


def bank_trace(index: int) -> stlopt.Trace:
    """Reference trace `index`: per channel three sinusoids of 0.2-1 Hz with
    Dirichlet weights plus small noise, rounded to 6 decimals so the samples
    do not depend on the last bit of the platform's sin."""
    rng = np.random.default_rng([2110, index])
    t = np.arange(MONITOR_SAMPLES) * MONITOR_DT
    columns = []
    for _ in range(2):
        freq = rng.uniform(0.2, 1.0, 3)
        weight = rng.dirichlet(np.ones(3))
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        wave = weight @ np.sin(2.0 * np.pi * freq[:, None] * t + phase[:, None])
        columns.append(np.round(wave + 0.03 * rng.standard_normal(t.size), 6))
    return stlopt.Trace(("x", "y"), 0.0, MONITOR_DT, np.column_stack(columns))


def grid_times(f, x: stlopt.Trace) -> list[float]:
    last = x.n_samples - 1 - round(stlopt.horizon(f) / x.dt)
    return [x.t0 + (last - step) * x.dt for step in MONITOR_STEPS]


def monitor_values(x: stlopt.Trace, formulas, on_eval=None):
    """Verdicts first (formula order, then time), then every semantics the
    formula admits.  Returns per formula, per time, {"sat": .., kind: ..}."""
    times = [grid_times(f, x) for f, _ in formulas]
    out = [[{} for _ in ts] for ts in times]
    for (f, _), ts, rows in zip(formulas, times, out):
        for t, row in zip(ts, rows):
            row["sat"] = stlopt.satisfies(f, x, t)
            if on_eval:
                on_eval(row["sat"])
    for (f, avg_ok), ts, rows in zip(formulas, times, out):
        for t, row in zip(ts, rows):
            for kind in KINDS:
                if kind == "avg" and not avg_ok:
                    continue
                row[kind] = stlopt.evaluate(metric_config(kind), f, x, t).value
                if on_eval:
                    on_eval(None)
    return out


def compare_values(got, want) -> str | None:
    if [len(rows) for rows in got] != [len(rows) for rows in want]:
        return "shape differs from the reference"
    for i, (g_rows, w_rows) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(g_rows, w_rows)):
            if g.keys() != w.keys():
                return f"formula {i} time {j}: semantics {sorted(g)} != {sorted(w)}"
            for kind, value in w.items():
                exact = kind == "sat" or kind in EXACT_KINDS
                if exact and g[kind] != value:
                    return f"formula {i} time {j}: {kind} {g[kind]!r} != {value!r}"
                if not exact and abs(g[kind] - value) > REL_TOL * max(abs(value), 1e-300):
                    return f"formula {i} time {j}: {kind} {g[kind]!r} != {value!r}"
    return None


class MonitorLong(Workload):
    """One operation: load_trace_csv + parse_formula + verdicts + every
    semantics at three grid times for each formula."""

    def __post_init__(self):
        super().__post_init__()
        self.bank = [int(i) for i in self.rng.permutation(MONITOR_BANK)[:MONITOR_FILES]]
        self._next = 0
        self.last_op = None

    def path(self, index: int) -> str:
        return os.path.join(self.work_dir, f"trace-{index:02d}.csv")

    def setup(self) -> None:
        for index in self.bank:
            stlopt.save_trace_csv(bank_trace(index), self.path(index))

    def next_round(self) -> list:
        index = self.bank[self._next % len(self.bank)]
        self._next += 1
        return [index]

    def trace_ops(self) -> list:
        return self.bank[:2]

    def run_op(self, index) -> OpResult:
        completions: list[float] = []
        first_sat = None

        def on_eval(sat):
            nonlocal first_sat
            now = perf_counter()
            completions.append(now)
            if sat and first_sat is None:
                first_sat = now

        start = perf_counter()
        try:
            x = stlopt.load_trace_csv(self.path(index))
            formulas = [(stlopt.parse_formula(text), ok) for text, ok in MONITOR_FORMULAS]
            got = monitor_values(x, formulas, on_eval)
            wall = perf_counter() - start
            error = compare_values(got, self.reference["monitor"][str(index)])
            self.last_op = (index, x, formulas)
        except Exception as exc:  # one failed operation must not end the run
            wall = perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
        return OpResult(start, wall, completions or [start + wall], first_sat, error)

    def oracle_check(self, oracle) -> list[str]:
        if self.last_op is None:
            return ["no operation completed"]
        index, x, formulas = self.last_op
        problems = []
        space = metric_config("space")
        avg = metric_config("avg")
        for i, (f, avg_ok) in enumerate(formulas):
            for t in grid_times(f, x)[:: len(MONITOR_STEPS) - 1]:
                # f reads nothing before t, and at these late times the suffix
                # from t is little more than f's windows: the brute force stays small
                k0 = x.time_index(t)
                sub = stlopt.Trace(x.channels, t, x.dt, x.samples[k0:])
                got = stlopt.evaluate(space, f, sub, t).value
                want = oracle.brute_space(f, sub, t)
                if got != want:
                    problems.append(f"trace {index} formula {i} t={t}: space {got!r} != {want!r}")
                if stlopt.satisfies(f, sub, t) != oracle.brute_sat(f, sub, t):
                    problems.append(f"trace {index} formula {i} t={t}: verdict differs")
            if not avg_ok:
                try:
                    stlopt.evaluate(avg, f, x, grid_times(f, x)[0])
                    problems.append(f"formula {i}: avg accepted a formula it must reject")
                except AvgSemanticsError:
                    pass
        return problems


WORKLOADS = {"eq2-bo": Eq2Bo, "eq2-sweep": Eq2Sweep, "monitor-long": MonitorLong}


def warm_up() -> None:
    """Load lazily imported modules and fill caches before timing."""
    stlopt.run_experiment(stlopt.ExperimentConfig("bo", stlopt.MetricConfig("space"), 12, [0]))
    x = bank_trace(0)
    short = stlopt.Trace(x.channels, x.t0, x.dt, x.samples[:801])
    formulas = [(stlopt.parse_formula(text), ok) for text, ok in MONITOR_FORMULAS]
    monitor_values(short, formulas)
