"""CMA-ES over the unit cube, maximization convention.

Standard (mu/mu_w, lambda) covariance matrix adaptation with cumulative
step-size control and rank-one plus rank-mu updates.  The caller maps the
cube to its box.  All randomness flows from one explicitly seeded PCG64
generator, so runs are bit-reproducible across platforms.
"""

from __future__ import annotations

import math

import numpy as np

_RESAMPLE_LIMIT = 100
_EIG_FLOOR = 1e-12


class CmaEs:
    def __init__(self, n: int, seed: int = 0):
        self.lam = 4 + int(3 * math.log(n))
        self.mu = self.lam // 2
        raw = np.log((self.lam + 1) / 2) - np.log(np.arange(1, self.mu + 1))
        self.weights = raw / raw.sum()
        self.mueff = 1.0 / np.sum(self.weights**2)

        self.cc = (4 + self.mueff / n) / (n + 4 + 2 * self.mueff / n)
        self.cs = (self.mueff + 2) / (n + self.mueff + 5)
        self.c1 = 2 / ((n + 1.3) ** 2 + self.mueff)
        self.cmu = min(
            1 - self.c1,
            2 * (self.mueff - 2 + 1 / self.mueff) / ((n + 2) ** 2 + self.mueff),
        )
        self.damps = 1 + 2 * max(0.0, math.sqrt((self.mueff - 1) / (n + 1)) - 1) + self.cs
        self.chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))

        # dynamic state, all in unit-cube coordinates
        self.n = n
        self.mean = np.full(n, 0.5)
        self.sigma = 0.3  # initial step size
        self.cov = np.eye(n)
        self.p_sigma = np.zeros(n)
        self.p_c = np.zeros(n)
        self.generation = 0
        self.rng = np.random.default_rng(seed)
        self._decompose()

    def _decompose(self) -> None:
        self.cov = 0.5 * (self.cov + self.cov.T)
        eigvals, eigvecs = np.linalg.eigh(self.cov)
        eigvals = np.maximum(eigvals, _EIG_FLOOR)
        self.cov = (eigvecs * eigvals) @ eigvecs.T
        self._basis = eigvecs
        self._scales = np.sqrt(eigvals)
        self._inv_sqrt = (eigvecs / self._scales) @ eigvecs.T

    def ask(self) -> np.ndarray:
        """Sample lambda candidates; out-of-cube draws are retried then clamped."""
        out = np.empty((self.lam, self.n))
        for i in range(self.lam):
            for _ in range(_RESAMPLE_LIMIT):
                z = self.rng.standard_normal(self.n)
                u = self.mean + self.sigma * (self._basis @ (self._scales * z))
                if np.all(u >= 0.0) and np.all(u <= 1.0):
                    break
            else:
                u = np.clip(u, 0.0, 1.0)
            out[i] = u
        return out

    def tell(self, units, values) -> None:
        order = np.argsort(-np.asarray(values, dtype=float), kind="stable")
        us = units[order]

        # a trailing partial generation may carry fewer points than lambda
        mu = min(self.mu, len(units))
        w = self.weights[:mu]
        w = w / w.sum()
        mueff = 1.0 / np.sum(w**2)

        old_mean = self.mean
        y = (us[:mu] - old_mean) / self.sigma
        y_w = w @ y
        self.mean = old_mean + self.sigma * y_w

        self.p_sigma = (1 - self.cs) * self.p_sigma + math.sqrt(
            self.cs * (2 - self.cs) * mueff
        ) * (self._inv_sqrt @ y_w)
        self.generation += 1
        ps_norm = float(np.linalg.norm(self.p_sigma))
        denom = math.sqrt(1 - (1 - self.cs) ** (2 * self.generation))
        h_sigma = ps_norm / denom / self.chi_n < 1.4 + 2 / (self.n + 1)

        self.p_c = (1 - self.cc) * self.p_c + (
            math.sqrt(self.cc * (2 - self.cc) * mueff) * y_w if h_sigma else 0.0
        )

        rank_one = np.outer(self.p_c, self.p_c)
        rank_mu = (y.T * w) @ y
        c1a = self.c1 * (1 - (0 if h_sigma else 1) * self.cc * (2 - self.cc))
        self.cov = (
            (1 - c1a - self.cmu) * self.cov + self.c1 * rank_one + self.cmu * rank_mu
        )
        self.sigma *= math.exp((self.cs / self.damps) * (ps_norm / self.chi_n - 1))
        self._decompose()
