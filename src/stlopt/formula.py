"""STL formula AST.

A formula is a tagged union of predicates, Boolean connectives and
interval-bounded temporal operators.  Nodes are frozen dataclasses, so
formulas are immutable, hashable and structurally comparable, and can be
shared freely across concurrent evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

COMPARISONS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class Interval:
    """Closed time window [a, b] in seconds, with b > a >= 0."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a >= 0:  # written so that NaN fails too
            raise ValueError("interval lower bound must be non-negative")
        if not self.b > self.a:
            raise ValueError("interval upper bound must exceed lower bound")


class Formula:
    """Base class for AST nodes; use the concrete node types below."""

    __slots__ = ()


@dataclass(frozen=True)
class Pred(Formula):
    """Atomic comparison of one signal channel against a threshold."""

    channel: str
    comparison: str
    threshold: float

    def __post_init__(self):
        if self.comparison not in COMPARISONS:
            raise ValueError(f"comparison must be one of {COMPARISONS}")
        if not math.isfinite(self.threshold):
            raise ValueError(f"predicate threshold {self.threshold} is not finite")

    def margin(self, value: float) -> float:
        """Signed satisfaction margin: positive iff the comparison holds strictly.

        Like holds, applies elementwise to an array of samples.
        """
        if self.comparison in (">", ">="):
            return value - self.threshold
        return self.threshold - value

    def holds(self, value: float) -> bool:
        if self.comparison == "<":
            return value < self.threshold
        if self.comparison == "<=":
            return value <= self.threshold
        if self.comparison == ">":
            return value > self.threshold
        return value >= self.threshold


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    args: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("And requires at least 2 arguments")


@dataclass(frozen=True)
class Or(Formula):
    args: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("Or requires at least 2 arguments")


@dataclass(frozen=True)
class Globally(Formula):
    interval: Interval
    child: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    interval: Interval
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    interval: Interval
    lhs: Formula
    rhs: Formula


def children(f: Formula) -> tuple[Formula, ...]:
    """Direct subformulas of f, left to right."""
    if isinstance(f, Pred):
        return ()
    if isinstance(f, (Not, Globally, Eventually)):
        return (f.child,)
    if isinstance(f, (And, Or)):
        return f.args
    if isinstance(f, Until):
        return (f.lhs, f.rhs)
    raise TypeError(f"not a formula node: {f!r}")


def horizon(f: Formula) -> float:
    """Minimal look-ahead H so that evaluating f at t needs samples only in [t, t+H]."""
    own = f.interval.b if isinstance(f, (Globally, Eventually, Until)) else 0.0
    return own + max(map(horizon, children(f)), default=0.0)


def channels(f: Formula) -> set[str]:
    """All channel names referenced by predicates in f."""
    if isinstance(f, Pred):
        return {f.channel}
    return set().union(*map(channels, children(f)))


def _num(v: float) -> str:
    # repr round-trips floats exactly; integers are printed bare for readability
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _ivl(i: Interval) -> str:
    return f"[{_num(i.a)},{_num(i.b)}]"


def format_formula(f: Formula) -> str:
    """Render f in the concrete grammar; parse_formula(format_formula(f)) == f."""
    return _fmt(f)


def _fmt(f: Formula) -> str:
    if isinstance(f, Pred):
        return f"{f.channel} {f.comparison} {_num(f.threshold)}"
    if isinstance(f, Not):
        return f"!({_fmt(f.child)})"
    if isinstance(f, And):
        # children that are themselves And/Or need parentheses to keep the tree shape
        parts = [
            f"({_fmt(a)})" if isinstance(a, (And, Or)) else _fmt(a) for a in f.args
        ]
        return " & ".join(parts)
    if isinstance(f, Or):
        parts = [f"({_fmt(a)})" if isinstance(a, Or) else _fmt(a) for a in f.args]
        return " | ".join(parts)
    if isinstance(f, Globally):
        return f"G{_ivl(f.interval)}({_fmt(f.child)})"
    if isinstance(f, Eventually):
        return f"F{_ivl(f.interval)}({_fmt(f.child)})"
    if isinstance(f, Until):
        return f"({_fmt(f.lhs)} U{_ivl(f.interval)} {_fmt(f.rhs)})"
    raise TypeError(f"not a formula node: {f!r}")
