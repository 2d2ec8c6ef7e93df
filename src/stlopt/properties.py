"""Numerical property suite for the robustness metrics.

Each check is a search for witnesses (counterexamples) on seeded random
instances: it passes when none is found and reports the first one
otherwise.  Negative controls (LSE soundness, AGM scale invariance, flat
min derivatives) pass when the expected counterexample is found.  Every
check reports on every run, and the report is deterministic for a fixed
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from . import aggregators as agg
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
    format_formula,
    horizon,
)
from .semantics import METRIC_KINDS, MetricConfig, evaluate, satisfies
from .trace import Trace

SIGN_TOL = 1e-9


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class PropertyReport:
    samples: int
    seed: int
    checks: list[PropertyCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def text(self) -> str:
        lines = [
            f"property suite: {self.samples} samples, seed {self.seed}",
        ]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: {c.detail}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


# random instances ---------------------------------------------------------

_CHANNELS = ("x", "y")
_DTS = (0.25, 0.5)


def random_formula(rng: np.random.Generator, depth: int, avg_safe: bool = False,
                   in_temporal: bool = False) -> Formula:
    """Random AST; avg_safe forbids until and nested temporal operators."""
    def pred() -> Pred:
        return Pred(
            str(rng.choice(_CHANNELS)),
            str(rng.choice(("<", "<=", ">", ">="))),
            float(np.round(rng.uniform(-0.8, 0.8), 3)),
        )

    if depth <= 0 or rng.random() < 0.3:
        return pred()
    temporal_ok = not (avg_safe and in_temporal)
    kinds = ["not", "and", "or"]
    if temporal_ok:
        kinds += ["G", "F"]
        if not avg_safe:
            kinds.append("U")
    kind = str(rng.choice(kinds))
    inner = in_temporal or kind in ("G", "F", "U")
    if kind == "not":
        return Not(random_formula(rng, depth - 1, avg_safe, in_temporal))
    if kind in ("and", "or"):
        n = int(rng.integers(2, 4))
        args = tuple(random_formula(rng, depth - 1, avg_safe, in_temporal) for _ in range(n))
        return And(args) if kind == "and" else Or(args)
    a = float(rng.choice((0.0, 0.5, 1.0)))
    b = a + float(rng.choice((0.5, 1.0, 2.0)))
    ivl = Interval(a, b)
    if kind == "G":
        return Globally(ivl, random_formula(rng, depth - 1, avg_safe, inner))
    if kind == "F":
        return Eventually(ivl, random_formula(rng, depth - 1, avg_safe, inner))
    return Until(
        ivl,
        random_formula(rng, depth - 1, avg_safe, inner),
        random_formula(rng, depth - 1, avg_safe, inner),
    )


def random_instance(rng: np.random.Generator, avg_safe: bool = False):
    """(formula, trace) pair with the trace long enough for the horizon."""
    f = random_formula(rng, int(rng.integers(1, 4)), avg_safe=avg_safe)
    dt = float(rng.choice(_DTS))
    n = int(math.ceil(horizon(f) / dt)) + 1 + int(rng.integers(1, 8))
    samples = rng.uniform(-1.0, 1.0, size=(n, len(_CHANNELS)))
    return f, Trace(_CHANNELS, 0.0, dt, samples)


_AGM_SCALES = {"x": 2.0, "y": 2.0}
# every semantics at its default hyperparameters, agm with the scales above
_CONFIGS = {kind: MetricConfig(kind, agm_scales=_AGM_SCALES) for kind in METRIC_KINDS}
_ALPHAS = (0.5, 2.0, 10.0)


def _result(name: str, witnesses: Iterable[str], absent: str,
            control: bool = False) -> PropertyCheck:
    """Pass when no witness is found (a negative control: when one is); the
    detail is the first witness, or the absent text when there is none."""
    witness = next(iter(witnesses), None)
    detail = absent if witness is None else witness
    return PropertyCheck(name, (witness is not None) == control, detail)


# witness searches ------------------------------------------------------------


def _scored(rng: np.random.Generator, samples: int, kinds, avg_safe: bool = False) -> list:
    """samples random instances as (formula, oracle verdict, {kind: value at 0})."""
    scored = []
    for _ in range(samples):
        f, x = random_instance(rng, avg_safe)
        values = {kind: evaluate(_CONFIGS[kind], f, x, 0.0).value for kind in kinds}
        scored.append((f, satisfies(f, x, 0.0), values))
    return scored


def _sign_errors(scored, kind: str, fmt: str = "{f} -> {v} vs oracle {sat}",
                 sound_only: bool = False) -> Iterator[str]:
    """Instances whose value's sign contradicts the oracle; sound_only lets a
    satisfied instance score negative, as an under-approximation may."""
    for f, sat, values in scored:
        v = values[kind]
        if (v > SIGN_TOL and not sat) or (v < -SIGN_TOL and sat and not sound_only):
            yield fmt.format(f=format_formula(f), v=v, sat=sat)


def _smooth_over_space(scored) -> Iterator[str]:
    for f, _, values in scored:
        if values["smooth"] > values["space"] + SIGN_TOL:
            yield format_formula(f)


def _lse_bound_violations(rng: np.random.Generator, samples: int) -> Iterator[str]:
    for _ in range(samples):
        m = int(rng.integers(1, 11))
        scale = 10.0 ** rng.uniform(-1, 2)
        v = rng.uniform(-scale, scale, size=m)
        for k in (1.0, 10.0, 100.0):
            bound = math.log(m) / k + 1e-12
            err_max = abs(agg.softmax_lse(v, k) - v.max())
            if err_max > bound or abs(agg.softmin_lse(v, k) - v.min()) > bound:
                yield f"violated on {v.tolist()} with k={k}"


def _separated_vector(rng: np.random.Generator, negative: bool) -> np.ndarray:
    """Vector whose r~ = v / min(v) values are pairwise separated by >= 0.05.

    The minimum element always has r~ = 1; the others sit at r~ = 1 + gaps
    when min(v) > 0 and at r~ = 1 - gaps when min(v) < 0.
    """
    m = int(rng.integers(2, 6))
    gaps = rng.uniform(0.05, 0.3, size=m - 1)
    scale = rng.uniform(0.5, 2.0)
    if negative:
        r_tilde = np.concatenate([[1.0], 1.0 - np.cumsum(gaps)])
        return -scale * r_tilde
    r_tilde = np.concatenate([[1.0], 1.0 + np.cumsum(gaps)])
    return scale * r_tilde


def _limit_misses(rng: np.random.Generator, n_vectors: int) -> Iterator[str]:
    for _ in range(n_vectors):
        for negative in (False, True):
            v = _separated_vector(rng, negative)
            if abs(agg.new_and(v, 200.0) - v.min()) > 1e-3:
                yield f"nu=200 limit off on {v.tolist()}"
        m = int(rng.integers(1, 11))
        v = rng.uniform(-3, 3, size=m)
        if abs(agg.softmin_lse(v, 1000.0) - v.min()) > math.log(m) / 1000.0 + 1e-12:
            yield f"lse k=1000 off on {v.tolist()}"


def _inhomogeneous(vectors, fn, rel: float, floor: float) -> Iterator[str]:
    """Where fn(alpha v) and alpha fn(v) differ by more than rel max(floor, |alpha fn(v)|)."""
    for v in vectors:
        if v.min() == 0.0:
            continue
        for alpha in _ALPHAS:
            lhs, rhs = fn(alpha * v), alpha * fn(v)
            if abs(lhs - rhs) > rel * max(floor, abs(rhs)):
                yield f"alpha={alpha}, v={v.tolist()}: {lhs} vs {rhs}"


def _central_fd(fn, v: np.ndarray, i: int, h: float) -> float:
    hi = v.copy()
    lo = v.copy()
    hi[i] += h
    lo[i] -= h
    return (fn(hi) - fn(lo)) / (2 * h)


def _distinct_band(rng: np.random.Generator, m: int, lo: float, hi: float) -> np.ndarray:
    while True:
        v = rng.uniform(lo, hi, size=m)
        if len(np.unique(np.round(v, 6))) == m:
            return v


def _flat_partials(rng: np.random.Generator, n_points: int, fn) -> Iterator[str]:
    for _ in range(n_points):
        m = int(rng.integers(2, 7))
        for lo, hi in ((-0.99, -0.75), (0.75, 0.99)):
            v = _distinct_band(rng, m, lo, hi)
            for i in range(m):
                d = _central_fd(fn, v, i, 1e-4)
                if d <= 0:
                    yield f"flat/decreasing coordinate {i} at {v.tolist()}: d={d}"


def _unstable_gradients(rng: np.random.Generator, n_points: int) -> Iterator[str]:
    fns = (
        ("softmax_lse", lambda v: agg.softmax_lse(v, 2.0)),
        ("smooth_min", lambda v: agg.smooth_min(v, 2.0)),
        ("smooth_max", lambda v: agg.smooth_max(v, 2.0)),
        ("new_and", lambda v: agg.new_and(v, 2.0)),
    )
    for _ in range(n_points):
        m = int(rng.integers(2, 6))
        v = rng.uniform(-2.0, 2.0, size=m)
        if abs(v.min()) < 0.05:
            v = v + np.sign(v.min() or 1.0) * 0.1
        tied = v.copy()
        tied[int(rng.integers(0, m))] = tied[int(np.argmin(tied))]
        for point in (v, tied):
            for name, fn in fns:
                for i in range(len(point)):
                    g4 = _central_fd(fn, point, i, 1e-4)
                    g5 = _central_fd(fn, point, i, 1e-5)
                    if abs(g4 - g5) > 1e-2 * max(abs(g4), abs(g5)) + 1e-8:
                        yield (f"{name} gradient unstable at {point.tolist()} "
                               f"coord {i}: {g4} vs {g5}")


def _idempotency_misses(rng: np.random.Generator, n_vectors: int) -> Iterator[str]:
    for _ in range(n_vectors):
        a = float(rng.uniform(-0.99, 0.99))
        m = int(rng.integers(2, 9))
        k = float(rng.choice((1.0, 10.0)))
        v = np.full(m, a)
        shifted = a - math.log(m) / k
        cases = (
            ("agm_and", agg.agm_and(v), a),
            ("new_and", agg.new_and(v, 2.0), a),
            ("min", float(np.min(v)), a),
            ("smooth_max", agg.smooth_max(v, k), a),
            ("softmin_lse", agg.softmin_lse(v, k), shifted),
            ("smooth_min", agg.smooth_min(v, k), shifted),
        )
        for name, got, want in cases:
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                yield f"{name}([{a}]*{m}, k={k}) = {got}, expected {want}"


def _nondeterminism(rng: np.random.Generator) -> Iterator[str]:
    for _ in range(20):
        f, x = random_instance(rng)
        for kind in ("space", "lse", "smooth", "new", "agm"):
            first = evaluate(_CONFIGS[kind], f, x, 0.0).value
            second = evaluate(_CONFIGS[kind], f, x, 0.0).value
            if first != second:
                yield f"{kind} on {format_formula(f)}: {first} != {second}"


# the table -------------------------------------------------------------------


def _checks(rng: np.random.Generator, samples: int) -> Iterator[PropertyCheck]:
    """Every check in report order, which also fixes what each draws from rng."""
    n_vectors = max(50, samples // 10)
    n_points = min(100, max(20, samples // 5))
    matches = f"sign matches oracle on {samples} instances"
    scored = _scored(rng, samples, ("space", "agm", "new", "smooth", "lse"))
    for kind in ("space", "agm", "new"):
        yield _result(f"soundness/{kind}", _sign_errors(scored, kind), matches)
    yield _result(
        "soundness/smooth",
        chain(_sign_errors(scored, "smooth", sound_only=True), _smooth_over_space(scored)),
        f"positive implies satisfied and smooth <= space on {samples} instances",
    )
    # avg runs on its own nesting-free instances
    avg = _scored(rng, samples, ("avg",), avg_safe=True)
    yield _result("soundness/avg", _sign_errors(avg, "avg", "{f} -> {v}"), matches)
    yield _result(
        "soundness/lse-negative-control",
        _sign_errors(scored, "lse", "{f} -> lse {v:.6f}, oracle {sat}"),
        "no sign disagreement found (expected at least one)",
        control=True,
    )
    yield _result(
        "lse/approximation-bound",
        _lse_bound_violations(rng, samples),
        f"|lse - exact| <= ln(m)/k on {samples} vectors",
    )
    yield _result(
        "limits/new-approaches-min",
        _limit_misses(rng, n_vectors),
        f"new_and(nu=200) within 1e-3 of min on {n_vectors} separated vectors; "
        "softmin(k=1000) within ln(m)/1000",
    )
    vectors = [rng.uniform(-2, 2, size=int(rng.integers(2, 7))) for _ in range(n_vectors)]
    yield _result(
        "scale-invariance/min",
        _inhomogeneous(vectors, lambda v: float(np.min(v)), 1e-12, 1.0),
        f"min(alpha v) == alpha min(v) on {n_vectors} vectors",
    )
    yield _result(
        "scale-invariance/new",
        _inhomogeneous(vectors, lambda v: agg.new_and(v, 2.0), 1e-7, 1e-9),
        f"new_and homogeneous to rel 1e-7 for alpha in {_ALPHAS}",
    )
    # the geometric-mean branch is not homogeneous
    v = np.array([0.2, 0.8])
    lhs, rhs = agg.agm_and(0.5 * v), 0.5 * agg.agm_and(v)
    text = f"agm_and(0.5*[0.2, 0.8]) = {lhs:.6f} != 0.5*agm_and([0.2, 0.8]) = {rhs:.6f}"
    found = [text] if abs(lhs - rhs) > 1e-6 else []
    yield _result("scale-invariance/agm-negative-control", found, text, control=True)
    for name, fn in (("agm", lambda v: agg.agm_and(v)), ("new", lambda v: agg.new_and(v, 2.0))):
        yield _result(
            f"shadow-lifting/{name}",
            _flat_partials(rng, n_points, fn),
            f"all partials positive at {n_points} points per regime",
        )
    flat = _central_fd(lambda v: float(np.min(v)), np.array([-0.9, -0.8, -0.77]), 2, 1e-4)
    text = f"plain min has zero derivative in a non-argmin coordinate (d={flat})"
    found = [text] if flat == 0.0 else []
    yield _result("shadow-lifting/min-negative-control", found, text, control=True)
    yield _result(
        "smoothness/finite-difference",
        _unstable_gradients(rng, n_points),
        f"fd gradients at steps 1e-4/1e-5 agree (rel 1e-2) at {n_points} points "
        "including tied coordinates",
    )
    yield _result(
        "idempotency/table",
        _idempotency_misses(rng, n_vectors),
        "agm/new/min/smooth_max map (a,...,a) to a; lse and smooth_min to a - ln(m)/k",
    )
    yield _result(
        "determinism/evaluate", _nondeterminism(rng), "repeated evaluations are bit-identical"
    )


def run_property_suite(samples: int = 500, seed: int = 42) -> PropertyReport:
    if samples < 1:
        raise ValueError("samples must be at least 1")
    return PropertyReport(samples, seed, list(_checks(np.random.default_rng(seed), samples)))
