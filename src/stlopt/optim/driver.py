"""Budget-driven ask/tell loop shared by all optimizers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import EvaluationError
from .bayes import BayesOpt
from .bounds import Bounds
from .cmaes import CmaEs
from .random_search import RandomSearch

METHODS = ("cmaes", "bo", "random")


@dataclass
class RunRecord:
    """One objective evaluation; indices are 1-based and in evaluation order."""

    index: int
    params: np.ndarray
    value: float
    satisfied: bool | None = None
    best_so_far: float = float("-inf")


def make_optimizer(method: str, bounds: Bounds, seed: int):
    if method == "cmaes":
        return CmaEs(bounds, seed=seed)
    if method == "bo":
        return BayesOpt(bounds, seed=seed)
    if method == "random":
        return RandomSearch(bounds, seed=seed)
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def optimize(
    objective,
    bounds: Bounds,
    budget: int,
    method: str = "cmaes",
    seed: int = 0,
) -> list[RunRecord]:
    """Run exactly `budget` objective evaluations and return the history.

    A trailing partial CMA-ES generation is still evaluated and told, so the
    budget is honored exactly.  Larger objective values are better.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    state = make_optimizer(method, bounds, seed)
    records: list[RunRecord] = []
    best = float("-inf")
    while len(records) < budget:
        points = state.ask()[: budget - len(records)]
        values = []
        for p in points:
            v = float(objective(p))
            if not np.isfinite(v):
                raise EvaluationError(
                    f"objective returned non-finite value {v} at parameters "
                    f"{np.asarray(p).tolist()}"
                )
            best = max(best, v)
            values.append(v)
            records.append(RunRecord(len(records) + 1, np.asarray(p, float), v, None, best))
        state.tell(points, values)
    return records
