"""Smooth and averaging replacements for min/max over robustness values.

Every aggregator reduces the last axis of its input: a non-empty 1-D
sequence gives a float, and a stacked block of rows gives the array of
per-row results, each equal to what the row alone would give.  Every
exponential is max-shifted so that inputs up to |v| = 1e6 with scale
factors up to 1e3 neither overflow nor collapse to NaN.  The walker calls
an aggregator per node on rows of 11-21 samples in the eq2 task, so sums,
means and clips go straight to the ufunc methods numpy's wrappers call,
in the same order and with bit-identical results.
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
    v = np.minimum(np.maximum(v, -1.0), 1.0)
    m = v.shape[-1]  # a mean is the sum over the count, as np.mean computes it
    with np.errstate(divide="ignore"):  # log1p(-1) only in rows of the violation branch
        geometric = np.expm1(np.add.reduce(np.log1p(v), axis=-1) / m)
    violation = np.add.reduce(np.minimum(v, 0.0), axis=-1) / m
    return _result(np.where(np.logical_and.reduce(v > 0, axis=-1), geometric, violation))


def agm_or(values):
    """Dual: -agm_and(-v)."""
    return -agm_and(-_as_array(values))


def new_and(values, nu: float):
    """Scale-invariant weighted mean that tends to min(values) as nu grows.

    With r_min = min(v) and r~_i = v_i / r_min the weights are
    exp((1+nu) * r~_i) when r_min < 0 and exp(-nu * r~_i) when r_min > 0;
    the result is sum v_i w_i / sum w_i, and exactly 0 when r_min == 0.
    """
    v = _as_array(values)
    r_min = v.min(axis=-1, keepdims=True)
    # rows with r_min == 0 divide by zero here; their result is replaced below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r_tilde = v / r_min
        exponents = np.where(r_min < 0, (1.0 + nu) * r_tilde, -nu * r_tilde)
        w = np.exp(exponents - exponents.max(axis=-1, keepdims=True))
        weighted = np.add.reduce(v * w, axis=-1) / np.add.reduce(w, axis=-1)
    return _result(np.where(r_min[..., 0] == 0.0, 0.0, weighted))


def new_or(values, nu: float):
    """Dual: -new_and(-v, nu)."""
    return -new_and(-_as_array(values), nu)
