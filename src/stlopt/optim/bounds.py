"""Box constraints for the search space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Bounds:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.ascontiguousarray(self.lower, dtype=float)
        hi = np.ascontiguousarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size < 1:
            raise ValueError("bounds must be two equal-length 1-D arrays")
        if not np.all(hi > lo):
            raise ValueError("every upper bound must exceed its lower bound")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def to_unit(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.lower) / self.width

    def from_unit(self, z) -> np.ndarray:
        return self.lower + np.asarray(z, dtype=float) * self.width

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.from_unit(rng.uniform(size=self.n))
