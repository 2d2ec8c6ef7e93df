"""Exception types shared across the library.

Evaluation errors are kept distinct so callers (and the CLI exit-code
mapping) can tell a malformed input from a trace that is simply too
short for the requested formula.
"""


class StlError(Exception):
    """Base class for all library errors."""


class ParseError(StlError):
    """Formula text does not conform to the grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class TraceError(StlError):
    """Trace file is malformed or non-uniformly sampled."""


class EvaluationError(StlError):
    """A semantic evaluation could not be carried out."""


class InsufficientHorizonError(EvaluationError):
    """Trace lacks a sample that the formula reads at the requested time."""


class UnknownChannelError(EvaluationError):
    """A predicate references a channel the trace does not carry."""


class UnalignedTimeError(EvaluationError):
    """Evaluation time does not sit on the sample grid."""


class EmptyWindowError(EvaluationError):
    """A temporal window contains no sample (sampling-rate/spec mismatch)."""


class AvgSemanticsError(EvaluationError):
    """Formula shape not supported by the averaging semantics."""


class MissingAgmScaleError(EvaluationError):
    """AGM evaluation requested without a normalization scale for a channel."""


class AgmDomainError(EvaluationError):
    """AGM aggregator input outside the normalized [-1, 1] domain."""
