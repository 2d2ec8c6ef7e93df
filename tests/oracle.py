"""Independent STL evaluators used as test oracles.

brute_space and brute_sat are deliberately naive: enumerate every sample
time by scanning the whole grid, recompute margins inline, and use Python's
min/max directly.  They share no code with the library, so the two can
disagree.  The ref_* functions below are the per-sample reference for all
the library's semantics and aggregators, for the GP hyperparameter grid and
posterior, and for the eq2 trajectory builder.
"""

import math

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from stlopt.exceptions import AgmDomainError
from stlopt.formula import And, Eventually, Globally, Not, Or, Pred, Until, children
from stlopt.optim import gp
from stlopt.task import WORKSPACE_HI, WORKSPACE_LO
from stlopt.trace import Trace, window_indices

EPS = 1e-9


# Aggregators ------------------------------------------------------------
#
# The aggregators as first written, through numpy's reduction wrappers
# (np.sum, np.mean, np.clip, np.any, np.all).  stlopt.aggregators calls the
# ufunc methods behind them and must reproduce these bit for bit.

_AGM_TOL = 1e-9


def _ref_as_array(values):
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.size == 0:
        raise ValueError("aggregator input must be a non-empty sequence or block of rows")
    return v


def _ref_result(r):
    return float(r) if np.ndim(r) == 0 else r


def ref_softmax_lse(values, k):
    v = _ref_as_array(values)
    shift = v.max(axis=-1, keepdims=True)
    return _ref_result(shift[..., 0] + np.log(np.sum(np.exp(k * (v - shift)), axis=-1)) / k)


def ref_softmin_lse(values, k):
    return -ref_softmax_lse(-_ref_as_array(values), k)


ref_smooth_min = ref_softmin_lse


def ref_smooth_max(values, k):
    v = _ref_as_array(values)
    w = np.exp(k * (v - v.max(axis=-1, keepdims=True)))
    return _ref_result(np.sum(v * w, axis=-1) / np.sum(w, axis=-1))


def ref_agm_and(values):
    v = _ref_as_array(values)
    if np.any(v < -1 - _AGM_TOL) or np.any(v > 1 + _AGM_TOL):
        raise AgmDomainError(f"agm input out of [-1, 1]: {v[np.abs(v) > 1].tolist()}")
    v = np.clip(v, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        geometric = np.expm1(np.mean(np.log1p(v), axis=-1))
    violation = np.mean(np.minimum(v, 0.0), axis=-1)
    return _ref_result(np.where(np.all(v > 0, axis=-1), geometric, violation))


def ref_agm_or(values):
    return -ref_agm_and(-_ref_as_array(values))


def ref_new_and(values, nu):
    v = _ref_as_array(values)
    r_min = v.min(axis=-1, keepdims=True)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r_tilde = v / r_min
        exponents = np.where(r_min < 0, (1.0 + nu) * r_tilde, -nu * r_tilde)
        w = np.exp(exponents - exponents.max(axis=-1, keepdims=True))
        weighted = np.sum(v * w, axis=-1) / np.sum(w, axis=-1)
    return _ref_result(np.where(r_min[..., 0] == 0.0, 0.0, weighted))


def ref_new_or(values, nu):
    return -ref_new_and(-_ref_as_array(values), nu)


def _index_of(trace, t):
    for k in range(trace.n_samples):
        if abs(trace.t0 + k * trace.dt - t) <= EPS:
            return k
    raise AssertionError(f"time {t} not on grid")


def _window(trace, t, interval):
    lo, hi = t + interval.a, t + interval.b
    return [
        k
        for k in range(trace.n_samples)
        if lo - EPS <= trace.t0 + k * trace.dt <= hi + EPS
    ]


def _margin(pred, trace, k):
    v = trace.samples[k][trace.channels.index(pred.channel)]
    if pred.comparison in (">", ">="):
        return float(v) - pred.threshold
    return pred.threshold - float(v)


def brute_space(f, trace, t):
    k0 = _index_of(trace, t)
    return _space_at(f, trace, k0)


def _space_at(f, trace, k):
    t = trace.t0 + k * trace.dt
    if isinstance(f, Pred):
        return _margin(f, trace, k)
    if isinstance(f, Not):
        return -_space_at(f.child, trace, k)
    if isinstance(f, And):
        return min(_space_at(a, trace, k) for a in f.args)
    if isinstance(f, Or):
        return max(_space_at(a, trace, k) for a in f.args)
    if isinstance(f, Globally):
        return min(_space_at(f.child, trace, j) for j in _window(trace, t, f.interval))
    if isinstance(f, Eventually):
        return max(_space_at(f.child, trace, j) for j in _window(trace, t, f.interval))
    if isinstance(f, Until):
        best = None
        for j in _window(trace, t, f.interval):
            prefix = min(_space_at(f.lhs, trace, i) for i in range(k, j + 1))
            cand = min(_space_at(f.rhs, trace, j), prefix)
            best = cand if best is None else max(best, cand)
        return best
    raise TypeError(f)


def brute_sat(f, trace, t):
    k0 = _index_of(trace, t)
    return _sat_at(f, trace, k0)


def _sat_at(f, trace, k):
    t = trace.t0 + k * trace.dt
    if isinstance(f, Pred):
        v = float(trace.samples[k][trace.channels.index(f.channel)])
        return {
            "<": v < f.threshold,
            "<=": v <= f.threshold,
            ">": v > f.threshold,
            ">=": v >= f.threshold,
        }[f.comparison]
    if isinstance(f, Not):
        return not _sat_at(f.child, trace, k)
    if isinstance(f, And):
        return all(_sat_at(a, trace, k) for a in f.args)
    if isinstance(f, Or):
        return any(_sat_at(a, trace, k) for a in f.args)
    if isinstance(f, Globally):
        return all(_sat_at(f.child, trace, j) for j in _window(trace, t, f.interval))
    if isinstance(f, Eventually):
        return any(_sat_at(f.child, trace, j) for j in _window(trace, t, f.interval))
    if isinstance(f, Until):
        for j in _window(trace, t, f.interval):
            if _sat_at(f.rhs, trace, j) and all(
                _sat_at(f.lhs, trace, i) for i in range(k, j + 1)
            ):
                return True
        return False
    raise TypeError(f)


# Per-sample reference for the library's semantics -------------------------
#
# The library evaluates every semantics with one bottom-up walker over index
# ranges.  This is the recursion it replaced: one sample index at a time,
# aggregators called on Python lists, time robustness as one Boolean
# evaluation per shift.  The walker must reproduce it bit for bit.


def _win(x, k, interval):
    return [int(j) for j in window_indices(x, x.t0 + k * x.dt, interval)]


def _ref_sat(f, x, k):
    if isinstance(f, Pred):
        return f.holds(float(x.column(f.channel)[k]))
    if isinstance(f, Not):
        return not _ref_sat(f.child, x, k)
    if isinstance(f, And):
        return all(_ref_sat(a, x, k) for a in f.args)
    if isinstance(f, Or):
        return any(_ref_sat(a, x, k) for a in f.args)
    if isinstance(f, Globally):
        return all(_ref_sat(f.child, x, j) for j in _win(x, k, f.interval))
    if isinstance(f, Eventually):
        return any(_ref_sat(f.child, x, j) for j in _win(x, k, f.interval))
    if isinstance(f, Until):
        return any(
            _ref_sat(f.rhs, x, j) and all(_ref_sat(f.lhs, x, i) for i in range(k, j + 1))
            for j in _win(x, k, f.interval)
        )
    raise TypeError(f)


def _ref_rho(f, x, k, and_agg, or_agg, pred_value, positive):
    if isinstance(f, Pred):
        v = pred_value(f, x, k)
        return v if positive else -v
    if isinstance(f, Not):
        return _ref_rho(f.child, x, k, and_agg, or_agg, pred_value, not positive)
    conj = and_agg if positive else or_agg
    disj = or_agg if positive else and_agg

    def rho(g, i):
        return _ref_rho(g, x, i, and_agg, or_agg, pred_value, positive)

    if isinstance(f, And):
        return conj([rho(a, k) for a in f.args])
    if isinstance(f, Or):
        return disj([rho(a, k) for a in f.args])
    if isinstance(f, Globally):
        return conj([rho(f.child, j) for j in _win(x, k, f.interval)])
    if isinstance(f, Eventually):
        return disj([rho(f.child, j) for j in _win(x, k, f.interval)])
    if isinstance(f, Until):
        outer = []
        for j in _win(x, k, f.interval):
            prefix = conj([rho(f.lhs, i) for i in range(k, j + 1)])
            outer.append(conj([rho(f.rhs, j), prefix]))
        return disj(outer)
    raise TypeError(f)


def _ref_avg(f, x, k):
    if isinstance(f, Pred):
        return f.margin(float(x.column(f.channel)[k]))
    if isinstance(f, Not):
        return -_ref_avg(f.child, x, k)
    if isinstance(f, And):
        return min(_ref_avg(a, x, k) for a in f.args)
    if isinstance(f, Or):
        return max(_ref_avg(a, x, k) for a in f.args)
    w = [_ref_avg(f.child, x, j) for j in _win(x, k, f.interval)]
    if isinstance(f, Eventually):
        positive = [v for v in w if v > 0]
        return float(np.mean(positive)) if positive else max(w)
    if isinstance(f, Globally):
        violations = [v for v in w if v <= 0]
        return float(np.mean(violations)) if violations else min(w)
    raise TypeError(f)


def ref_satisfies(f, x, t):
    return _ref_sat(f, x, x.time_index(t))


def last_read(f, x, k):
    """The last sample index the per-sample definition reads for f at k.

    Windows are enumerated on the grid continued past the trace end, so the
    result exceeds n_samples - 1 exactly when the trace lacks a sample f
    reads at k."""
    if isinstance(f, (Globally, Eventually, Until)):
        t, j = x.t0 + k * x.dt, k  # a >= 0: the window starts at k or later
        while x.t0 + (j + 1) * x.dt <= t + f.interval.b + EPS:
            j += 1
        k = j
    return max((last_read(g, x, k) for g in children(f)), default=k)


def ref_time(f, x, t):
    """(value, chi) of the right time robustness, shift by shift: a shift j
    is scanned while the trace holds every sample f reads at t + j dt."""
    k0 = x.time_index(t)
    base = _ref_sat(f, x, k0)
    chi = 1 if base else -1
    d_max = 0.0
    j = 1
    while last_read(f, x, k0 + j) < x.n_samples:
        if _ref_sat(f, x, k0 + j) != base:
            break
        d_max = j * x.dt
        j += 1
    return chi * d_max, chi


def ref_robustness(kind, f, x, t, k=10.0, nu=2.0, scales=None):
    """Value of one quantitative semantics other than time at grid time t."""
    k0 = x.time_index(t)
    if kind == "avg":
        return _ref_avg(f, x, k0)

    def margin(p, x_, i):
        return p.margin(float(x_.column(p.channel)[i]))

    def agm_margin(p, x_, i):
        return float(np.clip(margin(p, x_, i) / scales[p.channel], -1.0, 1.0))

    and_agg, or_agg, pred = {
        "space": (min, max, margin),
        "lse": (lambda v: ref_softmin_lse(v, k), lambda v: ref_softmax_lse(v, k), margin),
        "smooth": (lambda v: ref_smooth_min(v, k), lambda v: ref_smooth_max(v, k), margin),
        "agm": (ref_agm_and, ref_agm_or, agm_margin),
        "new": (lambda v: ref_new_and(v, nu), lambda v: ref_new_or(v, nu), margin),
    }[kind]
    return _ref_rho(f, x, k0, and_agg, or_agg, pred, True)


def ref_sq_dists(a, b):
    """Squared distances as one broadcast difference block and one sum;
    gp._sq_dists must reproduce it bit for bit."""
    d = a[:, None, :] - b[None, :, :]
    return np.sum(d * d, axis=-1)


def ref_gp_grid_lml(X, y):
    """LML of every (lengthscale, sigma_f2, sigma_n2) cell of fit_gp_grid's
    grid from one Cholesky factorization per cell; -inf where it fails."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ys, _, _ = gp._standardize(np.asarray(y, dtype=float).ravel())
    d2 = ref_sq_dists(X, X)
    m = ys.size
    eye = np.eye(m)
    const = 0.5 * m * math.log(2 * math.pi)
    lml = np.full((gp._ELL_GRID.size, gp._SF2_GRID.size, gp._SN2_GRID.size), -np.inf)
    for i, ell in enumerate(gp._ELL_GRID):
        r = np.exp(-d2 / (2.0 * ell * ell))
        for j, sf2 in enumerate(gp._SF2_GRID):
            sr = sf2 * r
            for k, sn2 in enumerate(gp._SN2_GRID):
                try:
                    L = np.linalg.cholesky(sr + sn2 * eye)
                except np.linalg.LinAlgError:
                    continue
                alpha = cho_solve((L, True), ys, check_finite=False)
                lml[i, j, k] = (
                    -0.5 * float(ys @ alpha) - float(np.sum(np.log(np.diag(L)))) - const
                )
    return lml


def ref_gp_posterior(model, y, Xq):
    """(L, alpha, mean, variance) of the GP with model's inputs and
    hyperparameters, fitted to y and queried at Xq, through scipy's
    Cholesky solves: alpha = cho_solve(L, y_s) and the variance from
    solve_triangular(L, k_*^T)."""
    ys, y_mean, y_std = gp._standardize(np.asarray(y, dtype=float).ravel())
    scale = 2.0 * model.lengthscale * model.lengthscale
    K = model.sigma_f2 * np.exp(-ref_sq_dists(model.x, model.x) / scale)
    L = np.linalg.cholesky(K + model.sigma_n2 * np.eye(ys.size))
    alpha = cho_solve((L, True), ys, check_finite=False)
    k_star = model.sigma_f2 * np.exp(-ref_sq_dists(np.asarray(Xq, dtype=float), model.x) / scale)
    v = solve_triangular(L, k_star.T, lower=True, check_finite=False)
    var = np.maximum(model.sigma_f2 - np.sum(v * v, axis=0), 0.0)
    return L, alpha, y_mean + y_std * (k_star @ alpha), y_std**2 * var


def ref_build_trajectory(p, sample_rate, home):
    """build_trajectory of the 9-vector p as one searchsorted and one
    interpolation per sample; the array version must reproduce it bit for bit."""
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
    time_scale = total / (steps * dt) if steps > 0 else 0.0
    cumulative = np.concatenate([[0.0], np.cumsum(durations)])

    samples = np.empty((n, 2))
    for k in range(n):
        u = min(k * dt * time_scale, total)
        seg = min(int(np.searchsorted(cumulative, u, side="right")), 3)
        if seg == 0:
            samples[k] = points[0]
            continue
        frac = (u - cumulative[seg - 1]) / durations[seg - 1]
        samples[k] = points[seg - 1] + frac * (points[seg] - points[seg - 1])
    if n > 1:
        samples[-1] = points[3]
    return Trace(("x", "y"), 0.0, dt, samples)
