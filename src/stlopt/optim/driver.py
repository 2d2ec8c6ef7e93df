"""Budget-driven ask/tell loop shared by all optimizers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import EvaluationError
from .bayes import BayesOpt
from .bounds import Bounds
from .cmaes import CmaEs
from .random_search import RandomSearch

METHODS = {"cmaes": CmaEs, "bo": BayesOpt, "random": RandomSearch}


@dataclass
class RunRecord:
    """One objective evaluation; indices are 1-based and in evaluation order."""

    index: int
    params: np.ndarray
    value: float
    satisfied: bool | None = None
    best_so_far: float = float("-inf")


def optimize(
    objective,
    bounds: Bounds,
    budget: int,
    method: str = "cmaes",
    seed: int = 0,
    on_record=None,
) -> list[RunRecord]:
    """Run exactly `budget` objective evaluations and return the history.

    Every optimizer searches the unit cube: each asked block is mapped to
    `bounds` in one step, and a trailing partial block (such as a CMA-ES
    generation cut by the budget) is still evaluated and told, so the budget
    is honored exactly.  Larger objective values are better.  `on_record`,
    if given, is called with each record right after it is appended and
    before the next objective call; `optimize` never sets `satisfied`.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if method not in METHODS:
        raise ValueError(f"method must be one of {tuple(METHODS)}, got {method!r}")
    state = METHODS[method](bounds.n, seed=seed)
    records: list[RunRecord] = []
    best = float("-inf")
    while len(records) < budget:
        points = bounds.from_unit(state.ask()[: budget - len(records)])
        values = []
        for p in points:
            v = float(objective(p))
            if not np.isfinite(v):
                raise EvaluationError(
                    f"objective returned non-finite value {v} at parameters {p.tolist()}"
                )
            best = max(best, v)
            values.append(v)
            records.append(RunRecord(len(records) + 1, p, v, None, best))
            if on_record is not None:
                on_record(records[-1])
        # tell the cube coordinates of the points actually evaluated:
        # to_unit(from_unit(z)) can differ from the asked z in the last bit,
        # and the recorded result digests come from learning these; telling
        # z would move every later ask
        state.tell(bounds.to_unit(points), values)
    return records
