"""Planar reaching benchmark: 9 parameters (3 segment durations, 3 waypoints)
drive a piecewise-linear end-effector trace that is scored against a
three-region eventually specification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ParseError
from .formula import Eventually, Formula, Globally, Interval, Until, channels, children, horizon
from .jsonfields import json_field, list_of, number, optional_text, text
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


# Longest trajectory a task may ask for, in samples (3 x the longest segment
# duration x sample_rate); eq2 asks for 300.
MAX_TRACE_SAMPLES = 10**6


@dataclass(frozen=True)
class TaskSpec:
    formula: Formula
    bounds: Bounds
    regions: tuple[Region, ...]
    home: tuple[float, float]
    sample_rate: float
    # folds of the formula, computed once instead of per evaluation
    formula_horizon: float = field(init=False, repr=False)
    min_coverage: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.duration_range[0] <= 0:
            raise ValueError(
                f"bounds.duration lower bound {self.duration_range[0]:g} must be positive"
            )
        lo, hi = self.bounds.lower[3:].min(), self.bounds.upper[3:].max()
        if lo < WORKSPACE_LO or hi > WORKSPACE_HI:
            raise ValueError(f"bounds.workspace [{lo:g}, {hi:g}] leaves the unit box")
        if not all(WORKSPACE_LO <= c <= WORKSPACE_HI for c in self.home):
            raise ValueError(f"home {list(self.home)} lies outside the unit workspace")
        samples = 3 * self.duration_range[1] * self.sample_rate
        if samples > MAX_TRACE_SAMPLES:
            raise ValueError(
                f"bounds.duration and sample_rate allow traces of {samples:.3g} samples "
                f"(3 x {self.duration_range[1]:g} s x {self.sample_rate:g} Hz), "
                f"above the cap of {MAX_TRACE_SAMPLES:g}"
            )
        unknown = sorted(channels(self.formula) - set(TRAJECTORY_CHANNELS))
        if unknown:
            raise ValueError(
                f"formula reads channel {unknown[0]!r}; a task trajectory has only "
                f"{list(TRAJECTORY_CHANNELS)}"
            )
        object.__setattr__(self, "formula_horizon", horizon(self.formula))
        object.__setattr__(self, "min_coverage", _min_coverage(self.formula))
        if self.formula_horizon > 3 * self.duration_range[1] + GRID_TOL:
            raise ValueError("formula horizon exceeds the longest possible trajectory")

    @property
    def duration_range(self) -> tuple[float, float]:
        """The (lower, upper) bound of every segment duration."""
        return float(self.bounds.lower[0]), float(self.bounds.upper[0])


def build_trajectory(p, sample_rate: float, home) -> Trace:
    """Constant-speed straight segments home -> w1 -> w2 -> w3, sampled at
    1/sample_rate; the final sample is placed exactly on the last waypoint.
    p is the 9-vector (d1, d2, d3, x1, y1, x2, y2, x3, y3) of PARAM_NAMES."""
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
    # grid end rarely matches the nominal duration sum exactly; stretch time
    # proportionally (at most half a sample period) so the path closes on w3
    time_scale = total / (steps * dt) if steps > 0 else 0.0
    cumulative = np.concatenate([[0.0], np.cumsum(durations)])

    u = np.arange(n) * dt * time_scale
    # cumulative[0] = 0 <= u, so seg >= 1; only the last u can reach the end
    # of the last segment, and that sample is set to w3 below
    seg = np.minimum(np.searchsorted(cumulative, u, side="right"), 3)
    frac = (u - cumulative[seg - 1]) / durations[seg - 1]
    samples = points[seg - 1] + frac[:, None] * (points[seg] - points[seg - 1])
    if n > 1:
        samples[-1] = points[3]
    return Trace(TRAJECTORY_CHANNELS, 0.0, dt, samples)


def region_formula_text(region: Region) -> str:
    box = (
        f"x > {region.x_lb} & x < {region.x_ub} & "
        f"y > {region.y_lb} & y < {region.y_ub}"
    )
    return f"F[{region.window.a:g},{region.window.b:g}]({box})"


DEFAULT_REGIONS = (
    Region("A", 0.20, 0.30, 0.60, 0.70, Interval(3.0, 4.0)),
    Region("B", 0.55, 0.65, 0.55, 0.65, Interval(8.0, 10.0)),
    Region("C", 0.70, 0.80, 0.15, 0.25, Interval(13.0, 15.0)),
)
DEFAULT_HOME = (0.1, 0.1)
DEFAULT_DURATION_RANGE = (1.0, 10.0)
DEFAULT_SAMPLE_RATE = 10.0


def _make_bounds(duration_range, lo=WORKSPACE_LO, hi=WORKSPACE_HI) -> Bounds:
    lower = [duration_range[0]] * 3 + [lo] * 6
    upper = [duration_range[1]] * 3 + [hi] * 6
    return Bounds(np.array(lower), np.array(upper))


def benchmark_eq2() -> TaskSpec:
    """Built-in three-region reaching benchmark."""
    text = " & ".join(region_formula_text(r) for r in DEFAULT_REGIONS)
    return TaskSpec(
        formula=parse_formula(text),
        bounds=_make_bounds(DEFAULT_DURATION_RANGE),
        regions=DEFAULT_REGIONS,
        home=DEFAULT_HOME,
        sample_rate=DEFAULT_SAMPLE_RATE,
    )


def _min_coverage(f: Formula) -> float:
    """Shortest trace duration for which every temporal window still holds a
    sample; the horizon fold with each window's lower bound instead of its
    upper one."""
    own = f.interval.a if isinstance(f, (Globally, Eventually, Until)) else 0.0
    return own + max(map(_min_coverage, children(f)), default=0.0)


def _pad_to_horizon(trace: Trace, needed_end: float) -> Trace:
    """Hold the final pose so the trace covers the formula horizon."""
    if trace.end_time >= needed_end - GRID_TOL:
        return trace
    extra = int(np.ceil((needed_end - GRID_TOL - trace.end_time) / trace.dt))
    pad = np.repeat(trace.samples[-1:, :], extra, axis=0)
    return Trace(trace.channels, trace.t0, trace.dt, np.vstack([trace.samples, pad]))


def evaluation_trace(spec: TaskSpec, p) -> Trace:
    """The trace the objective scores: p's trajectory, held at the final pose
    through the formula horizon."""
    trace = build_trajectory(p, spec.sample_rate, spec.home)
    return _pad_to_horizon(trace, spec.formula_horizon)


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


# task config file ----------------------------------------------------------


def task_to_json(spec: TaskSpec) -> dict:
    from .formula import format_formula

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
        "bounds": {
            "duration": list(spec.duration_range),
            "workspace": [float(spec.bounds.lower[3]), float(spec.bounds.upper[3])],
        },
        "sample_rate": spec.sample_rate,
        "formula": format_formula(spec.formula),
    }


def _region_from_json(data) -> Region:
    return Region(
        json_field(data, "name", text),
        *json_field(data, "box", list_of(number, 4)),
        Interval(*json_field(data, "window", list_of(number, 2))),
    )


def _interval(value) -> list[float]:
    lo, hi = list_of(number, 2)(value)
    if not hi > lo:
        raise ValueError(f"upper bound {hi:g} must exceed lower bound {lo:g}")
    return [lo, hi]


def task_from_json(data: dict) -> TaskSpec:
    regions = tuple(json_field(data, "regions", list_of(_region_from_json)))
    duration_range = json_field(data, "bounds.duration", _interval)
    workspace = json_field(data, "bounds.workspace", _interval, [WORKSPACE_LO, WORKSPACE_HI])
    formula_text = json_field(data, "formula", optional_text, None)
    if formula_text:
        try:
            formula = parse_formula(formula_text)
        except ParseError as exc:
            raise ValueError(f"formula: {exc}") from None
    else:
        formula = parse_formula(" & ".join(region_formula_text(r) for r in regions))
    return TaskSpec(
        formula=formula,
        bounds=_make_bounds(duration_range, *workspace),
        regions=regions,
        home=tuple(json_field(data, "home", list_of(number, 2))),
        sample_rate=json_field(data, "sample_rate", number),
    )


def load_task_file(path: str) -> TaskSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return task_from_json(data)
    except ValueError as exc:
        raise ValueError(f"task file {path}: {exc}") from None
