from .bounds import Bounds
from .cmaes import CmaEs
from .gp import GpModel, expected_improvement, fit_gp_grid, gp_predict
from .bayes import BayesOpt
from .random_search import RandomSearch
from .driver import RunRecord, optimize

__all__ = [
    "BayesOpt",
    "Bounds",
    "CmaEs",
    "GpModel",
    "RandomSearch",
    "RunRecord",
    "expected_improvement",
    "fit_gp_grid",
    "gp_predict",
    "optimize",
]
