"""Bayesian optimization: GP surrogate with a two-scale acquisition.

The first ten proposals come from a coordinate-stratified (Latin hypercube)
design.  Afterwards each ask runs one of two arms, both deterministic given
the seed:

* exploitation (default): a GP fitted to the incumbent's nearest history
  points scores probe clouds at 0.5%/2%/6% box width around the incumbent;
  the posterior-mean argmax is proposed.  Plain EI over uniform probes
  random-walks in this 9-dimensional box (the satisfying region occupies
  ~1e-4 of it), so local model-guided refinement carries the budget.
* exploration (after 8 non-improving evaluations): expected improvement
  over 2048 uniform probes plus 64 probes within +-1% box width of the
  incumbent, scored by a GP fitted to the whole history when this arm runs.

The search runs in the unit cube; the caller maps it to its box.  No GP
outlives the ask that fitted it.

The exploit arm reads the posterior mean one 256-probe cloud at a time and
takes the first maximum of the concatenated means, the pick of one call on
all 768 probes bit for bit.  Each cloud's (256, m) arrays stay under glibc's
128 KB mmap threshold (61 KB at m = 30; 184 KB for 768 probes), so the
allocator reuses heap pages instead of faulting fresh ones in on every ask.
"""

from __future__ import annotations

import numpy as np

from .gp import expected_improvement, fit_gp_grid, gp_mean, gp_predict

INIT_DESIGN = 10
N_PROBES = 2048
N_LOCAL = 64
LOCAL_FRAC = 0.01
EXPLOIT_RADII = (0.005, 0.02, 0.06)
EXPLOIT_PROBES = 256
EXPLOIT_NEIGHBORS = 30
STALL_LIMIT = 8


class BayesOpt:
    def __init__(self, n: int, seed: int = 0):
        self.n = n
        self.rng = np.random.default_rng(seed)
        self._design = self._stratified_design(INIT_DESIGN)
        self._asked = 0
        self._stall = 0
        self.x: list[np.ndarray] = []
        self.y: list[float] = []

    def _stratified_design(self, m: int) -> np.ndarray:
        # each coordinate visits every stratum exactly once, in shuffled order
        design = np.empty((m, self.n))
        for j in range(self.n):
            strata = self.rng.permutation(m)
            design[:, j] = (strata + self.rng.uniform(size=m)) / m
        return design

    def _incumbent(self) -> np.ndarray:
        return self.x[int(np.argmax(self.y))]

    def _explore(self) -> np.ndarray:
        gp = fit_gp_grid(np.array(self.x), np.array(self.y))
        incumbent = self._incumbent()
        local = incumbent + self.rng.uniform(
            -LOCAL_FRAC, LOCAL_FRAC, size=(N_LOCAL, self.n)
        )
        candidates = np.vstack(
            [self.rng.uniform(size=(N_PROBES, self.n)), np.clip(local, 0.0, 1.0)]
        )
        mean, var = gp_predict(gp, candidates)
        best = max(self.y)
        ei = np.array(
            [expected_improvement(float(m), float(v), best) for m, v in zip(mean, var)]
        )
        return candidates[int(np.argmax(ei))]

    def _exploit(self) -> np.ndarray:
        xs = np.array(self.x)
        ys = np.array(self.y)
        incumbent = self._incumbent()
        dist = np.linalg.norm(xs - incumbent, axis=1)
        nearest = np.argsort(dist, kind="stable")[:EXPLOIT_NEIGHBORS]
        local_gp = fit_gp_grid(xs[nearest], ys[nearest])
        clouds = [
            np.clip(
                incumbent
                + self.rng.uniform(-r, r, size=(EXPLOIT_PROBES, self.n)),
                0.0,
                1.0,
            )
            for r in EXPLOIT_RADII
        ]
        means = np.concatenate([gp_mean(local_gp, cloud) for cloud in clouds])
        return np.vstack(clouds)[int(np.argmax(means))]

    def ask(self) -> np.ndarray:
        if self._asked < len(self._design):
            z = self._design[self._asked]
        elif self._stall >= STALL_LIMIT:
            self._stall = 0
            z = self._explore()
        else:
            z = self._exploit()
        self._asked += 1
        return z[None, :]

    def tell(self, units, values) -> None:
        for z, v in zip(units, values):
            if self.y and v <= max(self.y):
                self._stall += 1
            else:
                self._stall = 0
            self.x.append(z)
            self.y.append(v)
