"""Gaussian-process regression with a squared-exponential kernel, plus
the expected-improvement acquisition.

Inputs are expected in the unit box; outputs are standardized internally.
Hyperparameters are chosen by log-marginal-likelihood (Rasmussen &
Williams, GPML eq. 5.8) over a fixed logarithmic grid, which keeps the fit
deterministic.  The ten lengthscales' correlation matrices are
eigendecomposed in one stacked call, R = Q diag(lam) Q^T for each, and
nothing else is factorized: K + sigma_n2 I = Q diag(e) Q^T with
e = sigma_f2 lam + sigma_n2 scores the whole grid and gives the chosen
cell's posterior (GPML section 2.2), alpha = Q (Q^T y / e)
and variance sigma_f2 - sum_j (k_* Q)_j^2 / e_j.  A fit with some e <= 0
raises np.linalg.LinAlgError; the noise is never raised.  numpy is the only
runtime dependency.

Squared distances are built one (q, m) input plane at a time and added in
place in the order of numpy's pairwise summation (`pairwise_sum` in
numpy/_core/src/umath/loops_utils.h.src), so they equal the broadcast
``np.sum(d * d, axis=-1)`` bit for bit without its (q, m, n) temporaries.

The grid is scored one lengthscale at a time, each a (sigma_f2, sigma_n2, m)
block of at most 48 KB (m <= 60), with the same elementwise operations and
the same per-cell sum as the whole (10, 10, 10, m) grid, so every LML is
bit-identical.  Whole-grid temporaries (240 KB at m = 30) sit above glibc's
128 KB mmap threshold, so each fit handed them back to the kernel and
faulted them in again: about 17 600 minor page faults per 60-evaluation BO
run on eq2, against at most 3 500 in a process's first run and 0-2 in
later ones once these blocks and the exploit arm's per-cloud means (see
bayes.py) keep every temporary below it and the heap pages are reused
(x86_64 Linux, glibc, numpy 2.4, one OpenBLAS thread).
The cross-covariance is built in place in its distance array for the same
reason: with three (256, m) temporaries alive at once, a heap whose top
held them still gave them back on each free (glibc's 128 KB trim
threshold), about 2 500 faults per BO run in one layout of the benchmark's
runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ELL_GRID = np.logspace(math.log10(0.01), math.log10(10.0), 10)
_SF2_GRID = np.logspace(math.log10(0.01), math.log10(100.0), 10)
_SN2_GRID = np.logspace(-8, -2, 10)


@dataclass
class GpModel:
    x: np.ndarray  # (m, n) unit-box inputs
    y_mean: float
    y_std: float
    lengthscale: float
    sigma_f2: float
    sigma_n2: float
    eigvecs: np.ndarray  # Q with K + sigma_n2 I = Q diag(eigvals) Q^T
    eigvals: np.ndarray  # e = sigma_f2 lam + sigma_n2, all > 0
    alpha: np.ndarray


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(q, m) squared distances between the rows of a (q, n) and b (m, n)."""
    # numpy's pairwise_sum of n terms: below 8 one after another; up to 128
    # in eight accumulators (every 8th term) combined as
    # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), the rest then added one by one;
    # above 128 split at n/2 rounded down to a multiple of 8.  Here each term
    # is a whole plane, so every entry sees the same additions in the same
    # order as in np.sum(d * d, axis=-1).
    return _sum_planes(a, b, 0, a.shape[1])


def _plane(a: np.ndarray, b: np.ndarray, j: int) -> np.ndarray:
    p = np.subtract.outer(a[:, j], b[:, j])
    p *= p
    return p


def _sum_planes(a: np.ndarray, b: np.ndarray, lo: int, n: int) -> np.ndarray:
    if n < 8:
        total = np.zeros((a.shape[0], b.shape[0]))
        for j in range(lo, lo + n):
            total += _plane(a, b, j)
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _sum_planes(a, b, lo, half)
        total += _sum_planes(a, b, lo + half, n - half)
        return total
    stop = lo + n - n % 8
    total = _accumulators(a, b, lo, 8, stop)
    for j in range(stop, lo + n):
        total += _plane(a, b, j)
    return total


def _accumulators(a: np.ndarray, b: np.ndarray, j: int, width: int, stop: int) -> np.ndarray:
    """Accumulators j .. j+width-1 combined pairwise; accumulator i sums the
    planes i, i+8, ... below stop."""
    if width > 1:
        total = _accumulators(a, b, j, width // 2, stop)
        total += _accumulators(a, b, j + width // 2, width // 2, stop)
        return total
    total = _plane(a, b, j)
    for i in range(j + 8, stop, 8):
        total += _plane(a, b, i)
    return total


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < 1e-12:
        y_std = 1.0
    return (y - y_mean) / y_std, y_mean, y_std


def _posterior(X, ys, y_mean, y_std, lengthscale, sigma_f2, sigma_n2, lam, Q) -> GpModel:
    """The GP on (X, y), with y standardized to ys = (y - y_mean) / y_std,
    whose correlation matrix is Q diag(lam) Q^T."""
    e = sigma_f2 * lam + sigma_n2
    if not np.all(e > 0.0):
        raise np.linalg.LinAlgError("kernel matrix not positive definite")
    alpha = Q @ ((Q.T @ ys) / e)
    return GpModel(X, y_mean, y_std, lengthscale, sigma_f2, sigma_n2, Q, e, alpha)


def _k_star(model: GpModel, Xq) -> np.ndarray:
    """sigma_f2 exp(-d2 / (2 ell^2)), each step in place in the distances."""
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    k = _sq_dists(Xq, model.x)
    np.negative(k, out=k)
    k /= 2.0 * model.lengthscale * model.lengthscale
    np.exp(k, out=k)
    k *= model.sigma_f2
    return k


def gp_mean(model: GpModel, Xq) -> np.ndarray:
    """Posterior mean (de-standardized) at query points, without the variance."""
    return model.y_mean + model.y_std * (_k_star(model, Xq) @ model.alpha)


def gp_predict(model: GpModel, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance (de-standardized) at query points."""
    k_star = _k_star(model, Xq)
    mean_s = k_star @ model.alpha
    v = k_star @ model.eigvecs
    var_s = model.sigma_f2 - np.sum(v * v / model.eigvals, axis=1)
    var_s = np.maximum(var_s, 0.0)
    return model.y_mean + model.y_std * mean_s, (model.y_std**2) * var_s


def fit_gp_grid(X, y) -> GpModel:
    """Pick (lengthscale, sigma_f2, sigma_n2) on a 10x10x10 log grid by LML.

    sigma_f2 is relative to the standardized outputs (unit variance), so the
    grid spans 0.01 to 100 times the observed output variance.

    The ten correlation matrices R, one per lengthscale, are stacked and
    eigendecomposed in one call, R = Q diag(lam) Q^T, so K = sigma_f2 R +
    sigma_n2 I has eigenvalues e = sigma_f2 lam + sigma_n2 and, with
    b = Q^T y, the LML (GPML eq. 5.8) of every (sigma_f2, sigma_n2) pair is
    -1/2 sum(b^2 / e) - 1/2 sum(log e) up to a constant.  A cell with some
    e <= 0 scores -inf.  The first maximum in (lengthscale, sigma_f2,
    sigma_n2) order wins and its posterior reuses its (lam, Q); with no
    finite cell, (0, 0, 0) raises LinAlgError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size or y.size < 1:
        raise ValueError("need one output per training input")
    ys, y_mean, y_std = _standardize(y)
    R = np.exp(-_sq_dists(X, X) / (2.0 * _ELL_GRID * _ELL_GRID)[:, None, None])  # (ell, m, m)
    lam, Q = np.linalg.eigh(R)
    b2 = (np.swapaxes(Q, -1, -2) @ ys) ** 2
    lml = np.empty((_ELL_GRID.size, _SF2_GRID.size, _SN2_GRID.size))
    for i in range(_ELL_GRID.size):
        e = _SF2_GRID[:, None, None] * lam[i] + _SN2_GRID[:, None]  # (sf2, sn2, m)
        with np.errstate(divide="ignore", invalid="ignore"):
            lml[i] = -0.5 * np.sum(b2[i] / e + np.log(e), axis=-1)
        lml[i][np.any(e <= 0.0, axis=-1)] = -np.inf
    i, j, k = np.unravel_index(np.argmax(lml), lml.shape)
    ell, sf2, sn2 = float(_ELL_GRID[i]), float(_SF2_GRID[j]), float(_SN2_GRID[k])
    return _posterior(X, ys, y_mean, y_std, ell, sf2, sn2, lam[i], Q[i])


def _norm_cdf(z: float) -> float:
    # standard library erf: well below the 1e-7 accuracy requirement
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def expected_improvement(mean: float, variance: float, best_so_far: float) -> float:
    """EI for maximization: (mu - f*) Phi(z) + sigma phi(z), z = (mu - f*)/sigma."""
    if variance < 0:
        raise ValueError("variance must be non-negative")
    improvement = mean - best_so_far
    sigma = math.sqrt(variance)
    if sigma == 0.0:
        return max(0.0, improvement)
    z = improvement / sigma
    return improvement * _norm_cdf(z) + sigma * _norm_pdf(z)
