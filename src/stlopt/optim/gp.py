"""Gaussian-process regression with a squared-exponential kernel, plus
the expected-improvement acquisition.

Inputs are expected in the unit box; outputs are standardized internally.
Hyperparameters are chosen by log-marginal-likelihood (Rasmussen &
Williams, GPML eq. 5.8) over a fixed logarithmic grid, which keeps the fit
deterministic.  Each lengthscale's correlation matrix is eigendecomposed
once, R = Q diag(lam) Q^T, and nothing else is factorized: K + sigma_n2 I =
Q diag(e) Q^T with e = sigma_f2 lam + sigma_n2 scores the whole grid and
gives the chosen cell's posterior (GPML section 2.2), alpha = Q (Q^T y / e)
and variance sigma_f2 - sum_j (k_* Q)_j^2 / e_j.  A fit with some e <= 0
raises np.linalg.LinAlgError; the noise is never raised.  numpy is the only
runtime dependency.

Squared distances are built one (q, m) input plane at a time and added in
place in the order of numpy's pairwise summation (`pairwise_sum` in
numpy/_core/src/umath/loops_utils.h.src), so they equal the broadcast
``np.sum(d * d, axis=-1)`` bit for bit without its (q, m, n) temporaries.
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


def _training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X as (m, n) rows and y as m outputs, m >= 1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size or y.size < 1:
        raise ValueError("need one output per training input")
    return X, y


def gp_fit(X, y, lengthscale: float, sigma_f2: float, sigma_n2: float) -> GpModel:
    """Fit with fixed hyperparameters from one eigh of the correlation matrix;
    the noise is never raised, so some e <= 0 raises np.linalg.LinAlgError."""
    X, y = _training_data(X, y)
    hyper = {"lengthscale": lengthscale, "sigma_f2": sigma_f2, "sigma_n2": sigma_n2}
    for name, value in hyper.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    lam, Q = np.linalg.eigh(np.exp(-_sq_dists(X, X) / (2.0 * lengthscale * lengthscale)))
    return _posterior(X, y, lengthscale, sigma_f2, sigma_n2, lam, Q)


def _posterior(X, y, lengthscale, sigma_f2, sigma_n2, lam, Q) -> GpModel:
    """The GP on (X, y) whose correlation matrix is Q diag(lam) Q^T."""
    e = sigma_f2 * lam + sigma_n2
    if not np.all(e > 0.0):
        raise np.linalg.LinAlgError("kernel matrix not positive definite")
    ys, y_mean, y_std = _standardize(y)
    alpha = Q @ ((Q.T @ ys) / e)
    return GpModel(X, y_mean, y_std, lengthscale, sigma_f2, sigma_n2, Q, e, alpha)


def _k_star(model: GpModel, Xq) -> np.ndarray:
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    d2 = _sq_dists(Xq, model.x)
    return model.sigma_f2 * np.exp(-d2 / (2.0 * model.lengthscale * model.lengthscale))


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

    Each lengthscale's correlation matrix R is eigendecomposed once,
    R = Q diag(lam) Q^T, so K = sigma_f2 R + sigma_n2 I has eigenvalues
    e = sigma_f2 lam + sigma_n2 and, with b = Q^T y, the LML (GPML eq. 5.8)
    of every (sigma_f2, sigma_n2) pair is -1/2 sum(b^2 / e) - 1/2 sum(log e)
    up to a constant.  A cell with some e <= 0 scores -inf.  The first
    maximum in (lengthscale, sigma_f2, sigma_n2) order wins and its posterior
    reuses (lam, Q); with no finite cell, (0, 0, 0) raises LinAlgError.
    """
    X, y = _training_data(X, y)
    ys, _, _ = _standardize(y)
    d2 = _sq_dists(X, X)
    lam = np.empty((_ELL_GRID.size, ys.size))
    b2 = np.empty_like(lam)
    Q = np.empty((_ELL_GRID.size, ys.size, ys.size))
    for i, ell in enumerate(_ELL_GRID):
        lam[i], Q[i] = np.linalg.eigh(np.exp(-d2 / (2.0 * ell * ell)))
        b2[i] = (Q[i].T @ ys) ** 2
    e = _SF2_GRID[:, None, None] * lam[:, None, None] + _SN2_GRID[:, None]  # (ell, sf2, sn2, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        lml = -0.5 * np.sum(b2[:, None, None] / e + np.log(e), axis=-1)
    lml[np.any(e <= 0.0, axis=-1)] = -np.inf
    i, j, k = np.unravel_index(np.argmax(lml), lml.shape)
    ell, sf2, sn2 = float(_ELL_GRID[i]), float(_SF2_GRID[j]), float(_SN2_GRID[k])
    return _posterior(X, y, ell, sf2, sn2, lam[i], Q[i])


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
