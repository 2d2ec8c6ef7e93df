"""Smooth and averaging replacements for min/max over robustness values.

Every aggregator reduces the last axis of its input: a non-empty 1-D
sequence gives a float, and a stacked block of rows gives the array of
per-row results, each equal to what the row alone would give.  Every
exponential is max-shifted, so a term that overflows has zero weight and
the value stays right.  evaluate accepts every finite input and every
positive finite scale factor: it runs the whole walk under one np.errstate
that ignores overflow, division by zero and invalid values, and rejects a
value that is itself not finite (the weighted mean of 1e308 and 1e308,
say) as EvaluationError.  The walker calls an aggregator per node on rows
of 11-21 samples in the eq2 task, so sums, means and clips go straight to
the ufunc methods numpy's wrappers call, in the same order and with
bit-identical results.

The public functions check their input, and agm_and and new_and silence
the warnings their own arithmetic expects: log1p(-1) in agm's violation
branch and new's division by a zero minimum.  The walk calls the agm and
new kernels (_agm_and, _new_and and their duals) instead: array in, array
out, no check and no errstate of their own.  The agm kernel keeps the clip
but not agm_and's [-1, 1] domain check, which cannot fire in the walk: the
agm predicate map clips to [-1, 1], and agm outputs stay in [-1, 1].
"""

from __future__ import annotations

import numpy as np

from .exceptions import AgmDomainError

_AGM_TOL = 1e-9


def _as_array(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.size == 0:
        raise ValueError("aggregator input must be a non-empty sequence or block of rows")
    return v


def _result(r):
    return float(r) if np.ndim(r) == 0 else r


def softmax_lse(values, k: float):
    """(1/k) * ln sum_i exp(k*v_i); over-approximates max by at most ln(m)/k."""
    v = _as_array(values)
    shift = v.max(axis=-1, keepdims=True)
    return _result(shift[..., 0] + np.log(np.add.reduce(np.exp(k * (v - shift)), axis=-1)) / k)


def softmin_lse(values, k: float):
    """Dual of softmax_lse: under-approximates min by at most ln(m)/k."""
    return -softmax_lse(-_as_array(values), k)


def smooth_min(values, k: float):
    """-(1/k) * ln sum_i exp(-k*v_i); always <= min(values)."""
    return softmin_lse(values, k)


def smooth_max(values, k: float):
    """Softmax-weighted mean sum v_i exp(k*v_i) / sum exp(k*v_i); always <= max(values)."""
    v = _as_array(values)
    w = np.exp(k * (v - v.max(axis=-1, keepdims=True)))
    return _result(np.add.reduce(v * w, axis=-1) / np.add.reduce(w, axis=-1))


def agm_and(values):
    """Geometric mean of (1+v_i) minus 1 when all v_i > 0, else mean of the violations.

    Inputs must already be normalized to [-1, 1].  A zero argument counts as
    not strictly positive and routes to the violation branch.
    """
    v = _as_array(values)
    # fmin/fmax skip NaN, so a NaN never hides an out-of-range value and an
    # all-NaN input passes, as under np.any(v < lo) or np.any(v > hi)
    lo, hi = np.fmin.reduce(v, axis=None), np.fmax.reduce(v, axis=None)
    if lo < -1 - _AGM_TOL or hi > 1 + _AGM_TOL:
        raise AgmDomainError(f"agm input out of [-1, 1]: {v[np.abs(v) > 1].tolist()}")
    with np.errstate(divide="ignore"):  # log1p(-1) only in rows of the violation branch
        return _result(_agm_and(v))


def agm_or(values):
    """Dual: -agm_and(-v)."""
    return -agm_and(-_as_array(values))


def _agm_and(v: np.ndarray) -> np.ndarray:
    """agm_and's arithmetic after its domain check: clip, then reduce the last axis."""
    v = np.minimum(np.maximum(v, -1.0), 1.0)
    m = v.shape[-1]  # a mean is the sum over the count, as np.mean computes it
    geometric = np.expm1(np.add.reduce(np.log1p(v), axis=-1) / m)
    violation = np.add.reduce(np.minimum(v, 0.0), axis=-1) / m
    return np.where(np.logical_and.reduce(v > 0, axis=-1), geometric, violation)


def _agm_or(v: np.ndarray) -> np.ndarray:
    return -_agm_and(-v)


def new_and(values, nu: float):
    """Scale-invariant weighted mean that tends to min(values) as nu grows.

    With r_min = min(v) and r~_i = v_i / r_min the weights are
    exp((1+nu) * r~_i) when r_min < 0 and exp(-nu * r~_i) when r_min > 0;
    the result is sum v_i w_i / sum w_i, and exactly 0 when r_min == 0.
    """
    v = _as_array(values)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _result(_new_and(v, nu))


def new_or(values, nu: float):
    """Dual: -new_and(-v, nu)."""
    return -new_and(-_as_array(values), nu)


def _new_and(v: np.ndarray, nu: float) -> np.ndarray:
    """new_and's arithmetic on an array: reduce the last axis."""
    r_min = v.min(axis=-1, keepdims=True)
    # rows with r_min == 0 divide by zero here; their result is replaced below
    r_tilde = v / r_min
    exponents = np.where(r_min < 0, (1.0 + nu) * r_tilde, -nu * r_tilde)
    w = np.exp(exponents - exponents.max(axis=-1, keepdims=True))
    weighted = np.add.reduce(v * w, axis=-1) / np.add.reduce(w, axis=-1)
    return np.where(r_min[..., 0] == 0.0, 0.0, weighted)


def _new_or(v: np.ndarray, nu: float) -> np.ndarray:
    return -_new_and(-v, nu)
