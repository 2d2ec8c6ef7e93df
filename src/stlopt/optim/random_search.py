"""Uniform-random baseline behind the same ask/tell interface."""

from __future__ import annotations

import numpy as np

BLOCK = 10  # draws per ask; C-order fill makes a block ten size-n draws


class RandomSearch:
    def __init__(self, n: int, seed: int = 0):
        self.n = n
        self.rng = np.random.default_rng(seed)

    def ask(self) -> np.ndarray:
        return self.rng.uniform(size=(BLOCK, self.n))

    def tell(self, units, values) -> None:
        pass
