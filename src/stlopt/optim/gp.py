"""Gaussian-process regression with a squared-exponential kernel, plus
the expected-improvement acquisition.

Inputs are expected in the unit box; outputs are standardized internally.
Hyperparameters are chosen by log-marginal-likelihood over a fixed
logarithmic grid, which keeps the fit deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

_NOISE_CEILING = 1e-2

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
    chol_lower: np.ndarray  # L with L L^T = K + sigma_n2 I
    alpha: np.ndarray


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a[:, None, :] - b[None, :, :]
    return np.sum(d * d, axis=-1)


def _kernel(d2: np.ndarray, lengthscale: float, sigma_f2: float) -> np.ndarray:
    return sigma_f2 * np.exp(-d2 / (2.0 * lengthscale * lengthscale))


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < 1e-12:
        y_std = 1.0
    return (y - y_mean) / y_std, y_mean, y_std


def gp_fit(X, y, lengthscale: float, sigma_f2: float, sigma_n2: float) -> GpModel:
    """Fit with fixed hyperparameters; the noise floor escalates x10 (up to
    1e-2) if the Cholesky fails, so duplicate inputs are harmless."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size or y.size < 1:
        raise ValueError("need one output per training input")
    ys, y_mean, y_std = _standardize(y)

    d2 = _sq_dists(X, X)
    eye = np.eye(y.size)
    noise = sigma_n2
    while True:
        K = _kernel(d2, lengthscale, sigma_f2) + noise * eye
        try:
            L = np.linalg.cholesky(K)
            break
        except np.linalg.LinAlgError:
            if noise >= _NOISE_CEILING:
                raise np.linalg.LinAlgError(
                    "kernel matrix not positive definite even at noise 1e-2"
                ) from None
            noise = min(noise * 10.0, _NOISE_CEILING)
    alpha = cho_solve((L, True), ys, check_finite=False)
    return GpModel(X, y_mean, y_std, lengthscale, sigma_f2, noise, L, alpha)


def gp_predict(model: GpModel, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance (de-standardized) at query points."""
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    k_star = _kernel(_sq_dists(Xq, model.x), model.lengthscale, model.sigma_f2)
    mean_s = k_star @ model.alpha
    v = solve_triangular(model.chol_lower, k_star.T, lower=True, check_finite=False)
    var_s = model.sigma_f2 - np.sum(v * v, axis=0)
    var_s = np.maximum(var_s, 0.0)
    return model.y_mean + model.y_std * mean_s, (model.y_std**2) * var_s


def fit_gp_grid(X, y) -> GpModel:
    """Pick (lengthscale, sigma_f2, sigma_n2) on a 10x10x10 log grid by LML.

    sigma_f2 is relative to the standardized outputs (unit variance), so the
    grid spans 0.01 to 100 times the observed output variance.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    ys, _, _ = _standardize(y)
    d2 = _sq_dists(X, X)
    m = ys.size
    eye = np.eye(m)
    const = 0.5 * m * math.log(2 * math.pi)

    best_lml = -math.inf
    best = (float(_ELL_GRID[0]), float(_SF2_GRID[0]), float(_SN2_GRID[0]))
    for ell in _ELL_GRID:
        r = np.exp(-d2 / (2.0 * ell * ell))
        for sf2 in _SF2_GRID:
            sr = sf2 * r
            for sn2 in _SN2_GRID:
                try:
                    L = np.linalg.cholesky(sr + sn2 * eye)
                except np.linalg.LinAlgError:
                    continue
                alpha = cho_solve((L, True), ys, check_finite=False)
                lml = (
                    -0.5 * float(ys @ alpha)
                    - float(np.sum(np.log(np.diag(L))))
                    - const
                )
                if lml > best_lml:
                    best_lml = lml
                    best = (float(ell), float(sf2), float(sn2))
    return gp_fit(X, y, *best)


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
