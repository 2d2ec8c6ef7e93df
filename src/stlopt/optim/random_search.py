"""Uniform-random baseline behind the same ask/tell interface."""

from __future__ import annotations

import numpy as np

from .bounds import Bounds


class RandomSearch:
    def __init__(self, bounds: Bounds, seed: int = 0):
        self.bounds = bounds
        self.rng = np.random.default_rng(seed)

    def ask(self) -> list[np.ndarray]:
        return [self.bounds.sample(self.rng)]

    def tell(self, points, values) -> None:
        if len(points) != len(values):
            raise ValueError(f"got {len(points)} points but {len(values)} values")
        for v in values:
            if not np.isfinite(v):
                raise ValueError("objective values must be finite")
