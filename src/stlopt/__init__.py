"""stlopt: STL robustness semantics as cost functions for black-box
optimization of trajectory parameters."""

from .exceptions import (
    AgmDomainError,
    AvgSemanticsError,
    EmptyWindowError,
    EvaluationError,
    InsufficientHorizonError,
    MissingAgmScaleError,
    ParseError,
    StlError,
    TraceError,
    UnalignedTimeError,
    UnknownChannelError,
)
from .formula import (
    And,
    Eventually,
    Formula,
    Globally,
    Interval,
    Not,
    Or,
    Pred,
    Until,
    channels,
    format_formula,
    horizon,
)
from .parser import parse_formula
from .trace import Trace, load_trace_csv, save_trace_csv, window_indices
from .semantics import MetricConfig, RobustnessValue, evaluate, satisfies
from .aggregators import (
    agm_and,
    agm_or,
    new_and,
    new_or,
    smooth_max,
    smooth_min,
    softmax_lse,
    softmin_lse,
)
from .optim import (
    BayesOpt,
    Bounds,
    CmaEs,
    RandomSearch,
    RunRecord,
    expected_improvement,
    gp_fit,
    gp_predict,
    optimize,
)
from .task import (
    TaskSpec,
    benchmark_eq2,
    build_trajectory,
    objective_detail,
)
from .harness import ExperimentConfig, ExperimentResult, emit_results, run_experiment
from .properties import run_property_suite

__version__ = "0.1.0"
