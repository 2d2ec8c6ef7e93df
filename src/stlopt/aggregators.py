"""Smooth and averaging replacements for min/max over robustness values.

Each aggregator is written once, as a kernel that reduces the last axis of
an array (_lse_max, _smooth_max, _agm_and, _new_and), and each dual once, as
-kernel(-v) (_lse_min, _agm_or, _new_or).  A block of rows gives the array
of per-row results, each equal to what the row alone would give.  Every
exponential is max-shifted, so a term that overflows has zero weight.  The
walker calls the kernels on rows of 11-21 samples in the eq2 task, so sums,
means and clips call the ufunc methods numpy's wrappers call, in the same
order and with bit-identical results.  A kernel checks nothing and opens no
np.errstate: evaluate runs the whole walk under one and rejects a value that
is not finite.  The eight public functions are the kernels behind one check:
a non-empty float input, agm's in [-1, 1] (the walk's agm predicate map
clips), the walk's errstate, and a float for a 1-D input.
"""

from __future__ import annotations

import numpy as np

from .exceptions import AgmDomainError

_AGM_TOL = 1e-9


def _checked(kernel, values, *args, unit_domain: bool = False):
    """kernel on values as the public functions take and return them."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.size == 0:
        raise ValueError("aggregator input must be a non-empty sequence or block of rows")
    if unit_domain:
        # fmin/fmax skip NaN, so a NaN never hides an out-of-range value and
        # an all-NaN input passes, as under np.any(v < lo) or np.any(v > hi)
        lo, hi = np.fmin.reduce(v, axis=None), np.fmax.reduce(v, axis=None)
        if lo < -1 - _AGM_TOL or hi > 1 + _AGM_TOL:
            raise AgmDomainError(f"agm input out of [-1, 1]: {v[np.abs(v) > 1].tolist()}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = kernel(v, *args)
    return float(r) if np.ndim(r) == 0 else r


def softmax_lse(values, k: float):
    """(1/k) * ln sum_i exp(k*v_i); over-approximates max by at most ln(m)/k."""
    return _checked(_lse_max, values, k)


def softmin_lse(values, k: float):
    """Dual of softmax_lse: under-approximates min by at most ln(m)/k."""
    return _checked(_lse_min, values, k)


def smooth_min(values, k: float):
    """-(1/k) * ln sum_i exp(-k*v_i); always <= min(values)."""
    return _checked(_lse_min, values, k)


def smooth_max(values, k: float):
    """Softmax-weighted mean sum v_i exp(k*v_i) / sum exp(k*v_i); always <= max(values)."""
    return _checked(_smooth_max, values, k)


def agm_and(values):
    """Geometric mean of (1+v_i) minus 1 when all v_i > 0, else mean of the violations.

    Inputs must already be normalized to [-1, 1].  A zero argument counts as
    not strictly positive and routes to the violation branch.
    """
    return _checked(_agm_and, values, unit_domain=True)


def agm_or(values):
    """Dual: -agm_and(-v)."""
    return _checked(_agm_or, values, unit_domain=True)


def new_and(values, nu: float):
    """Scale-invariant weighted mean that tends to min(values) as nu grows.

    With r_min = min(v) and r~_i = v_i / r_min the weights are
    exp((1+nu) * r~_i) when r_min < 0 and exp(-nu * r~_i) when r_min > 0;
    the result is sum v_i w_i / sum w_i, and exactly 0 when r_min == 0.
    """
    return _checked(_new_and, values, nu)


def new_or(values, nu: float):
    """Dual: -new_and(-v, nu)."""
    return _checked(_new_or, values, nu)


def _lse_max(v: np.ndarray, k: float) -> np.ndarray:
    shift = v.max(axis=-1, keepdims=True)
    return shift[..., 0] + np.log(np.add.reduce(np.exp(k * (v - shift)), axis=-1)) / k


def _lse_min(v: np.ndarray, k: float) -> np.ndarray:
    return -_lse_max(-v, k)


def _smooth_max(v: np.ndarray, k: float) -> np.ndarray:
    w = np.exp(k * (v - v.max(axis=-1, keepdims=True)))
    return np.add.reduce(v * w, axis=-1) / np.add.reduce(w, axis=-1)


def _agm_and(v: np.ndarray) -> np.ndarray:
    v = np.minimum(np.maximum(v, -1.0), 1.0)
    m = v.shape[-1]  # a mean is the sum over the count, as np.mean computes it
    # log1p(-1) is -inf only in rows of the violation branch
    geometric = np.expm1(np.add.reduce(np.log1p(v), axis=-1) / m)
    violation = np.add.reduce(np.minimum(v, 0.0), axis=-1) / m
    return np.where(np.logical_and.reduce(v > 0, axis=-1), geometric, violation)


def _agm_or(v: np.ndarray) -> np.ndarray:
    return -_agm_and(-v)


def _new_and(v: np.ndarray, nu: float) -> np.ndarray:
    r_min = v.min(axis=-1, keepdims=True)
    # rows with r_min == 0 divide by zero here; their result is replaced below
    r_tilde = v / r_min
    exponents = np.where(r_min < 0, (1.0 + nu) * r_tilde, -nu * r_tilde)
    w = np.exp(exponents - exponents.max(axis=-1, keepdims=True))
    weighted = np.add.reduce(v * w, axis=-1) / np.add.reduce(w, axis=-1)
    return np.where(r_min[..., 0] == 0.0, 0.0, weighted)


def _new_or(v: np.ndarray, nu: float) -> np.ndarray:
    return -_new_and(-v, nu)
