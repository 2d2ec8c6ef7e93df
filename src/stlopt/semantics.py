"""Boolean satisfaction and the seven quantitative robustness semantics.

One bottom-up walker evaluates every semantics.  Asked for a node over a
contiguous range of sample indices, it returns the node's value at each of
them and asks each child only for the range that node needs, as in Donzé,
Ferrère & Maler, "Efficient Robust Monitoring for STL" (CAV 2013).
Predicates read a column slice, And/Or stack their children along a last
axis and reduce it, G and F reduce a sliding window over the child's
values, and Until takes one sliding window over its left operand as long
as its widest prefix and pairs each window offset's prefix of that view
with its right operand.  When the node's conjunction is the exact min (or
the exact max, under negation), every prefix comes from one running
extremum along the view (np.minimum.accumulate), as in Donzé, Ferrère &
Maler; that serves space, the Boolean oracle and time robustness's scan,
and the values are those of separate reductions because min and max are
exact.  The smoothed semantics reduce each prefix whole, one call per
window offset: a running or segmented sum groups a prefix's terms
differently from numpy's pairwise sum over it, so the value would move in
the last bits.  Window offsets come from window_indices once per temporal
node: on a uniform grid they are the same at every index.  The walk runs
once per node on windows of 11-21 samples in the eq2 task, where numpy's
Python-level wrappers cost more than the arithmetic, so it builds strided
views and calls ufunc methods directly.
A semantics is a predicate map plus a conjunction/disjunction pair that
reduces the last axis of an array; the Boolean oracle is the same walk over
+-1 predicate values with min/max.

The walk is also the only check that the trace is long enough.  Each
temporal node asks window_indices for the window at the last index of its
range, which raises InsufficientHorizonError when that window runs past
the trace end, and every sample a predicate reads is t itself (checked by
Trace.time_index) or lies in a window an ancestor has checked.  So a trace
is accepted exactly when it holds every sample f reads at t, which off the
grid can end before t + horizon(f); time robustness scans to the last such t.

Negation is threaded through as a polarity flag: predicates negate their
margin and the aggregator roles swap.  For min/max, LSE, AGM and the
scale-invariant weighted-average aggregators this is identical to the
rule r(!phi) = -r(phi) because each disjunction aggregator is the exact dual
of its conjunction partner.  The smooth pair is deliberately not dual (both
members under-approximate), and the polarity trick is what keeps the smooth
value below the space value on every formula, negations included.  The
averaging semantics negates the value instead: its temporal steps have no
dual.

The four smoothed semantics differ only in that pair: one table row per kind
names its two kernels in stlopt.aggregators, looked up there when evaluate
builds the hooks, and the MetricConfig field that scales both.  Every finite
trace value, threshold and hyperparameter is accepted: evaluate and satisfies
run the whole walk under one np.errstate that ignores overflow, division by
zero and invalid values, so an overflowing exponential term has zero weight,
and a value that is not finite at the end is an EvaluationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from . import aggregators as agg
from .exceptions import AvgSemanticsError, EvaluationError, MissingAgmScaleError
from .formula import (
    And,
    Eventually,
    Formula,
    Globally,
    Not,
    Or,
    Pred,
    Until,
    channels,
    children,
    horizon,  # unused here; perfbench's tracer wraps stlopt.semantics.horizon
)
from .trace import Trace, window_indices

METRIC_KINDS = ("space", "time", "lse", "smooth", "agm", "avg", "new")


@dataclass(frozen=True)
class MetricConfig:
    """Selected robustness semantics plus its hyperparameters.

    k scales the lse and smooth aggregators, nu the scale-invariant weighted
    average, and agm_scales maps channel names to positive half-ranges used
    to normalize predicate margins into [-1, 1].
    """

    kind: str
    k: float = 10.0
    nu: float = 2.0
    agm_scales: Mapping[str, float] | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"metric kind must be one of {METRIC_KINDS}")
        _check_positive_finite("scale factor k", self.k)
        _check_positive_finite("scale factor nu", self.nu)
        if self.agm_scales is not None:
            if not isinstance(self.agm_scales, Mapping):
                raise ValueError("agm scales must map channel names to numbers")
            object.__setattr__(self, "agm_scales", MappingProxyType(dict(self.agm_scales)))
            for name, scale in self.agm_scales.items():
                _check_positive_finite(f"agm scale for {name!r}", scale)


# per smoothed kind: its conj and disj kernels in stlopt.aggregators and the field scaling both
_SMOOTHED = {
    "lse": ("_lse_min", "_lse_max", "k"),  # log-sum-exp smoothing of space; smooth but not sound
    "smooth": ("_lse_min", "_smooth_max", "k"),  # under-approximating: never exceeds space
    "new": ("_new_and", "_new_or", "nu"),  # scale-invariant weighted average; sign matches space
    "agm": ("_agm_and", "_agm_or", None),  # margins normalized to [-1, 1] per channel
}
# the kinds that read each scalar hyperparameter
_READ_BY = {f: tuple(kind for kind, row in _SMOOTHED.items() if row[2] == f) for f in ("k", "nu")}


def check_hyperparameters_read(cfg: MetricConfig, prefix: str = "metric.") -> None:
    """Reject a k or nu off its default under a kind that never reads it, so
    a config or flag cannot be echoed as if it counted.  MetricConfig itself
    accepts every field for every kind: the metric sweep, the property suite
    and the benchmark pass one set of hyperparameters to all kinds."""
    for name, kinds in _READ_BY.items():
        value = getattr(cfg, name)
        if cfg.kind not in kinds and value != MetricConfig.__dataclass_fields__[name].default:
            shown = repr(value).removesuffix(".0")
            raise ValueError(f"{prefix}{name}: {shown} is not read by the {cfg.kind} semantics")


def _check_positive_finite(what: str, value) -> None:
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value < math.inf):
        raise ValueError(f"{what} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class RobustnessValue:
    value: float


# The walker -----------------------------------------------------------------


@dataclass(frozen=True)
class _Semantics:
    """What one semantics does at each node; the walker does the rest.

    pred maps a predicate and a slice of its channel to values; conj and
    disj reduce the last axis of an array.  always and eventually, when set,
    reduce the windows of G and F instead of conj and disj, and polar=False
    negates values instead of using the polarity flag.
    """

    pred: Callable[[Pred, np.ndarray], np.ndarray]
    conj: Callable[[np.ndarray], np.ndarray]
    disj: Callable[[np.ndarray], np.ndarray]
    always: Callable[[np.ndarray], np.ndarray] | None = None
    eventually: Callable[[np.ndarray], np.ndarray] | None = None
    polar: bool = True


def _windows(v: np.ndarray, width: int) -> np.ndarray:
    """Read-only view whose row i is v[i : i + width], as sliding_window_view."""
    v = np.ascontiguousarray(v)
    s = v.itemsize
    windows = np.ndarray((len(v) - width + 1, width), v.dtype, v, 0, (s, s))
    windows.setflags(write=False)
    return windows


def _stack(cols) -> np.ndarray:
    """np.stack(cols, axis=-1) for equal-length 1-D columns, C-ordered like it."""
    return np.array(cols).T.copy()


def _offsets(f: Formula, x: Trace, k: int) -> tuple[int, int]:
    """(da, db): the first and last index of temporal f's window at k, less k."""
    win = window_indices(x, x.t0 + k * x.dt, f.interval)
    return int(win[0]) - k, int(win[-1]) - k


def _reach(f: Formula, x: Trace, k: int) -> int:
    """How many samples past k the walk of f over a range ending at k reads."""
    db = _offsets(f, x, k)[1] if isinstance(f, (Globally, Eventually, Until)) else 0
    return db + max((_reach(g, x, k + db) for g in children(f)), default=0)


def _walk(f: Formula, x: Trace, lo: int, hi: int, sem: _Semantics, positive=True) -> np.ndarray:
    """Values of f (negated when not positive) at sample indices lo..hi."""
    if isinstance(f, Pred):
        v = sem.pred(f, x.column(f.channel)[lo : hi + 1])
        return v if positive else -v
    if isinstance(f, Not):
        if sem.polar:
            return _walk(f.child, x, lo, hi, sem, not positive)
        return -_walk(f.child, x, lo, hi, sem, positive)
    conj, disj = (sem.conj, sem.disj) if positive else (sem.disj, sem.conj)
    if isinstance(f, (And, Or)):
        block = _stack([_walk(a, x, lo, hi, sem, positive) for a in f.args])
        return conj(block) if isinstance(f, And) else disj(block)
    if not isinstance(f, (Globally, Eventually, Until)):
        raise TypeError(f"not a formula node: {f!r}")
    # offsets are the same at every index; the last index's window is the
    # first to run past the trace end, so it is the one that must raise
    da, db = _offsets(f, x, hi)
    if isinstance(f, Until):
        lhs = _walk(f.lhs, x, lo, hi + db, sem, positive)
        rhs = _walk(f.rhs, x, lo + da, hi + db, sem, positive)
        # spans[i] is lhs over lo+i .. lo+i+db (lhs covers lo..hi+db, so n
        # rows); prefix[i, d - da] reduces its first d + 1 columns
        spans = _windows(lhs, db + 1)
        running = _RUNNING.get(conj)
        if running is not None:
            prefix = running.accumulate(spans, axis=-1)[:, da:]
        else:
            prefix = _stack([conj(spans[:, : d + 1]) for d in range(da, db + 1)])
        pairs = np.stack([_windows(rhs, db - da + 1), prefix], axis=-1)
        return disj(conj(pairs))
    windows = _windows(_walk(f.child, x, lo + da, hi + db, sem, positive), db - da + 1)
    if isinstance(f, Globally):
        return (sem.always or conj)(windows)
    return (sem.eventually or disj)(windows)


def _value(f: Formula, x: Trace, t: float, sem: _Semantics) -> float:
    k0 = x.time_index(t)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(_walk(f, x, k0, k0, sem)[0])


_min = partial(np.minimum.reduce, axis=-1)
_max = partial(np.maximum.reduce, axis=-1)
_RUNNING = {_min: np.minimum, _max: np.maximum}  # Until's prefixes in one pass
_BOOLEAN = _Semantics(lambda p, column: np.where(p.holds(column), 1.0, -1.0), _min, _max)
_SPACE = _Semantics(Pred.margin, _min, _max)


# Boolean oracle ---------------------------------------------------------


def satisfies(f: Formula, x: Trace, t: float) -> bool:
    """Classical discrete-time STL satisfaction at grid time t."""
    return _value(f, x, t, _BOOLEAN) > 0


# Averaging semantics ------------------------------------------------------


def _validate_avg(f: Formula, inside_temporal: bool = False) -> None:
    if isinstance(f, Until):
        raise AvgSemanticsError("until unsupported by avg semantics")
    temporal = isinstance(f, (Globally, Eventually))
    if temporal and inside_temporal:
        raise AvgSemanticsError("nested temporal unsupported by avg semantics")
    for child in children(f):
        _validate_avg(child, inside_temporal or temporal)


def _avg_eventually(windows: np.ndarray) -> np.ndarray:
    """Per window: mean of the positive values, or the maximum if none is."""
    return np.array([np.mean(w[w > 0]) if np.any(w > 0) else w.max() for w in windows])


def _avg_always(windows: np.ndarray) -> np.ndarray:
    """Per window: mean of the non-positive values, or the minimum if none is."""
    return np.array([np.mean(w[w <= 0]) if np.any(w <= 0) else w.min() for w in windows])


# eventualities report the mean of the satisfying part
_AVG = _Semantics(Pred.margin, _min, _max, _avg_always, _avg_eventually, polar=False)


# Time robustness ----------------------------------------------------------


def time_robustness_plus(f: Formula, x: Trace, t: float) -> float:
    """Largest forward shift (in seconds) over which the verdict at t persists,
    negated when f is violated at t.

    The scan ends at the last shift whose walk the trace holds; _reach asks
    for the windows the walk at t asks for, so it raises as that walk would.
    """
    k0 = x.time_index(t)
    last = x.n_samples - 1 - k0 - _reach(f, x, k0)
    verdicts = _walk(f, x, k0, k0 + last, _BOOLEAN) > 0
    changed = np.flatnonzero(verdicts != verdicts[0])
    d_max = (last if changed.size == 0 else int(changed[0]) - 1) * x.dt
    return d_max if verdicts[0] else -d_max


# Dispatch -----------------------------------------------------------------


def _semantics(cfg: MetricConfig, f: Formula) -> _Semantics:
    """The walker hooks of every semantics but time, once f is checked for it."""
    if cfg.kind == "space":  # classical min/max; sign certifies Boolean satisfaction
        return _SPACE
    if cfg.kind == "avg":  # temporal operators wrap only Boolean combinations
        _validate_avg(f)
        return _AVG
    conj, disj, field = _SMOOTHED[cfg.kind]
    conj, disj = getattr(agg, conj), getattr(agg, disj)
    if field is not None:
        scale = {field: getattr(cfg, field)}
        return _Semantics(Pred.margin, partial(conj, **scale), partial(disj, **scale))
    scales = cfg.agm_scales or {}
    missing = sorted(c for c in channels(f) if c not in scales)
    if missing:
        raise MissingAgmScaleError(f"missing agm scale for channel {missing[0]!r}")

    def pred(p: Pred, column: np.ndarray) -> np.ndarray:
        return np.clip(p.margin(column) / scales[p.channel], -1.0, 1.0)

    return _Semantics(pred, conj, disj)


def evaluate(cfg: MetricConfig, f: Formula, x: Trace, t: float) -> RobustnessValue:
    """Evaluate f on x at time t under the configured semantics."""
    if cfg.kind == "time":
        value = time_robustness_plus(f, x, t)
    else:
        value = _value(f, x, t, _semantics(cfg, f))
    if not math.isfinite(value):
        raise EvaluationError(f"{cfg.kind} robustness is not finite: {value}")
    return RobustnessValue(float(value))
