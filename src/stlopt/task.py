"""Planar reaching benchmark: 9 parameters (3 segment durations, 3 waypoints)
drive a piecewise-linear end-effector trace that is scored against a
three-region eventually specification.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ParseError
from .formula import (And, Eventually, Formula, Globally, Interval, Pred, Until, channels,
                      children, format_formula, horizon)
from .jsonfields import json_field, known_fields, list_of, number, optional_text, text
from .optim.bounds import Bounds
from .parser import parse_formula
from .semantics import MetricConfig, evaluate, satisfies
from .trace import GRID_TOL, Trace

PARAM_NAMES = ("d1", "d2", "d3", "x1", "y1", "x2", "y2", "x3", "y3")
# the channels of every trajectory, so the only channels a task formula reads
TRAJECTORY_CHANNELS = ("x", "y")

WORKSPACE_LO = 0.0
WORKSPACE_HI = 1.0


@dataclass(frozen=True)
class Region:
    name: str
    x_lb: float
    x_ub: float
    y_lb: float
    y_ub: float
    window: Interval

    def __post_init__(self):
        if self.x_ub <= self.x_lb or self.y_ub <= self.y_lb:
            raise ValueError(f"region {self.name!r} box is degenerate")

    def formula(self) -> Formula:
        """F[window](the point lies strictly inside the box)."""
        box = (Pred("x", ">", self.x_lb), Pred("x", "<", self.x_ub),
               Pred("y", ">", self.y_lb), Pred("y", "<", self.y_ub))
        return Eventually(self.window, And(box))


# Longest trajectory a task may ask for, in samples (3 x the longest segment
# duration x sample_rate); eq2 asks for 300.
MAX_TRACE_SAMPLES = 10**6


@dataclass(frozen=True)
class TaskSpec:
    """A task document's fields; duration and workspace are the (lower,
    upper) bounds of every segment duration and waypoint coordinate."""

    formula: Formula
    regions: tuple[Region, ...]
    home: tuple[float, float]
    duration: tuple[float, float]
    workspace: tuple[float, float]
    sample_rate: float
    # derived once instead of per evaluation: the 9-parameter search box and
    # two folds of the formula
    bounds: Bounds = field(init=False, repr=False, compare=False)
    formula_horizon: float = field(init=False, repr=False, compare=False)
    min_coverage: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.duration[0] <= 0:
            raise ValueError(
                f"bounds.duration lower bound {self.duration[0]:g} must be positive"
            )
        lo, hi = self.workspace
        if lo < WORKSPACE_LO or hi > WORKSPACE_HI:
            raise ValueError(f"bounds.workspace [{lo:g}, {hi:g}] leaves the unit box")
        if not all(WORKSPACE_LO <= c <= WORKSPACE_HI for c in self.home):
            raise ValueError(f"home {list(self.home)} lies outside the unit workspace")
        samples = 3 * self.duration[1] * self.sample_rate
        if samples > MAX_TRACE_SAMPLES:
            raise ValueError(
                f"bounds.duration and sample_rate allow traces of {samples:.3g} samples "
                f"(3 x {self.duration[1]:g} s x {self.sample_rate:g} Hz), "
                f"above the cap of {MAX_TRACE_SAMPLES:g}"
            )
        unknown = sorted(channels(self.formula) - set(TRAJECTORY_CHANNELS))
        if unknown:
            raise ValueError(
                f"formula reads channel {unknown[0]!r}; a task trajectory has only "
                f"{list(TRAJECTORY_CHANNELS)}"
            )
        bounds = Bounds(np.array([self.duration[0]] * 3 + [lo] * 6),
                        np.array([self.duration[1]] * 3 + [hi] * 6))
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "formula_horizon", horizon(self.formula))
        object.__setattr__(self, "min_coverage", _min_coverage(self.formula))
        if self.formula_horizon > 3 * self.duration[1] + GRID_TOL:
            raise ValueError("formula horizon exceeds the longest possible trajectory")


def _trajectory(p, sample_rate: float, home, hold_until: float) -> Trace:
    p = np.asarray(p, dtype=float)
    if p.shape != (9,):
        raise ValueError(f"expected a 9-vector, got shape {p.shape}")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    durations = p[:3]
    if np.any(durations <= 0):
        raise ValueError(f"duration below minimum: {durations.tolist()}")
    points = np.vstack([np.asarray(home, dtype=float), p[3:].reshape(3, 2)])
    if np.any(points < WORKSPACE_LO) or np.any(points > WORKSPACE_HI):
        raise ValueError("waypoint outside the unit workspace")

    total = float(durations.sum())
    dt = 1.0 / sample_rate
    steps = int(round(total * sample_rate))
    n = steps + 1
    # samples past the path's end that hold its final pose through hold_until
    held = max(0, int(np.ceil((hold_until - GRID_TOL - steps * dt) / dt)))
    # grid end rarely matches the nominal duration sum exactly; stretch time
    # proportionally (at most half a sample period) so the path closes on w3
    time_scale = total / (steps * dt) if steps > 0 else 0.0
    cumulative = np.concatenate([[0.0], np.cumsum(durations)])

    u = np.arange(n) * dt * time_scale
    # cumulative[0] = 0 <= u, so seg >= 1; only the last u can reach the end
    # of the last segment, and that sample is set to w3 below
    seg = np.minimum(np.searchsorted(cumulative, u, side="right"), 3)
    frac = (u - cumulative[seg - 1]) / durations[seg - 1]
    samples = np.empty((n + held, 2))
    samples[:n] = points[seg - 1] + frac[:, None] * (points[seg] - points[seg - 1])
    if n > 1:
        samples[n - 1] = points[3]
    samples[n:] = samples[n - 1]
    return Trace(TRAJECTORY_CHANNELS, 0.0, dt, samples)


def build_trajectory(p, sample_rate: float, home) -> Trace:
    """Constant-speed straight segments home -> w1 -> w2 -> w3, sampled at
    1/sample_rate; the final sample is placed exactly on the last waypoint.
    p is the 9-vector (d1, d2, d3, x1, y1, x2, y2, x3, y3) of PARAM_NAMES."""
    return _trajectory(p, sample_rate, home, 0.0)


def evaluation_trace(spec: TaskSpec, p) -> Trace:
    """The trace the objective scores: p's trajectory, held at the final pose
    through the formula horizon."""
    return _trajectory(p, spec.sample_rate, spec.home, spec.formula_horizon)


def _min_coverage(f: Formula) -> float:
    """Shortest trace duration for which every temporal window still holds a
    sample; the horizon fold with each window's lower bound instead of its
    upper one."""
    own = f.interval.a if isinstance(f, (Globally, Eventually, Until)) else 0.0
    return own + max(map(_min_coverage, children(f)), default=0.0)


def objective_detail(
    spec: TaskSpec, cfg: MetricConfig, p
) -> tuple[float, bool, Trace | None]:
    """(robustness value, Boolean-oracle satisfaction, scored trace).

    Parameter vectors whose total duration cannot place a sample in every
    window are not scored; they get the penalty -(horizon - total) - 1 and
    count as unsatisfied, which keeps the objective finite on the whole box
    and pushes optimizers toward feasible durations.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (9,):
        raise ValueError(f"expected a 9-vector, got shape {p.shape}")
    if not spec.bounds.contains(p, tol=GRID_TOL):
        raise ValueError(f"parameters outside the task bounds: {p.tolist()}")
    total = float(sum(p[:3]))
    if total + GRID_TOL < spec.min_coverage:
        return -(spec.formula_horizon - total) - 1.0, False, None
    trace = evaluation_trace(spec, p)
    value = evaluate(cfg, spec.formula, trace, 0.0).value
    return value, satisfies(spec.formula, trace, 0.0), trace


# task documents ----------------------------------------------------------

# the built-in three-region benchmark, as `stlopt bench eq2 --dump-task` prints it
_EQ2 = {
    "regions": [
        {"name": "A", "box": [0.2, 0.3, 0.6, 0.7], "window": [3.0, 4.0]},
        {"name": "B", "box": [0.55, 0.65, 0.55, 0.65], "window": [8.0, 10.0]},
        {"name": "C", "box": [0.7, 0.8, 0.15, 0.25], "window": [13.0, 15.0]},
    ],
    "home": [0.1, 0.1],
    "bounds": {"duration": [1.0, 10.0], "workspace": [0.0, 1.0]},
    "sample_rate": 10.0,
    "formula": (
        "F[3,4](x > 0.2 & x < 0.3 & y > 0.6 & y < 0.7) & "
        "F[8,10](x > 0.55 & x < 0.65 & y > 0.55 & y < 0.65) & "
        "F[13,15](x > 0.7 & x < 0.8 & y > 0.15 & y < 0.25)"
    ),
}


def benchmark_eq2() -> TaskSpec:
    """Built-in three-region reaching benchmark."""
    return task_from_json(_EQ2)


def task_to_json(spec: TaskSpec) -> dict:
    return {
        "regions": [
            {
                "name": r.name,
                "box": [r.x_lb, r.x_ub, r.y_lb, r.y_ub],
                "window": [r.window.a, r.window.b],
            }
            for r in spec.regions
        ],
        "home": list(spec.home),
        "bounds": {"duration": list(spec.duration), "workspace": list(spec.workspace)},
        "sample_rate": spec.sample_rate,
        "formula": format_formula(spec.formula),
    }


def _region_from_json(data) -> Region:
    known_fields(data, ("name", "box", "window"))
    return Region(
        json_field(data, "name", text),
        *json_field(data, "box", list_of(number, 4)),
        Interval(*json_field(data, "window", list_of(number, 2))),
    )


def _interval(value) -> tuple[float, float]:
    lo, hi = list_of(number, 2)(value)
    if not hi > lo:
        raise ValueError(f"upper bound {hi:g} must exceed lower bound {lo:g}")
    return lo, hi


def task_from_json(data: dict) -> TaskSpec:
    known_fields(data, ("regions", "home", "bounds", "sample_rate", "formula"))
    known_fields(json_field(data, "bounds", default=None), ("duration", "workspace"), "bounds")
    regions = tuple(json_field(data, "regions", list_of(_region_from_json)))
    formula_text = json_field(data, "formula", optional_text, None)
    if formula_text:
        try:
            formula = parse_formula(formula_text)
        except ParseError as exc:
            raise ValueError(f"formula: {exc}") from None
    elif not regions:
        raise ValueError("regions: a task without a formula needs at least one region")
    else:
        parts = tuple(r.formula() for r in regions)
        formula = parts[0] if len(parts) == 1 else And(parts)
    return TaskSpec(
        formula=formula,
        regions=regions,
        home=tuple(json_field(data, "home", list_of(number, 2))),
        duration=json_field(data, "bounds.duration", _interval),
        workspace=json_field(data, "bounds.workspace", _interval, (WORKSPACE_LO, WORKSPACE_HI)),
        sample_rate=json_field(data, "sample_rate", number),
    )


def load_task(name_or_path: str) -> TaskSpec:
    """The built-in task `eq2`, or the task document at a file path."""
    if name_or_path == "eq2":
        return benchmark_eq2()
    if not os.path.exists(name_or_path):
        raise ValueError(f"unknown task {name_or_path!r} (built-ins: eq2)")
    with open(name_or_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return task_from_json(data)
    except ValueError as exc:
        raise ValueError(f"task file {name_or_path}: {exc}") from None
