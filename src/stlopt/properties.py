"""Numerical property suite for the robustness metrics.

Each check runs on seeded random instances and reports pass/fail plus a
witness on failure.  Negative controls (LSE soundness, AGM scale
invariance, flat min derivatives) pass when the expected counterexample is
found.  The report is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .semantics import (
    MetricConfig,
    avg_robustness,
    evaluate,
    satisfies,
    space_robustness,
)
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


# individual checks ---------------------------------------------------------


def _check_soundness(rng: np.random.Generator, samples: int) -> list[PropertyCheck]:
    checks = []
    mismatches = {"space": [], "agm": [], "new": [], "smooth": []}
    over = []  # smooth exceeding space
    lse_witness = None
    checked = 0
    for _ in range(samples):
        f, x = random_instance(rng)
        sat = satisfies(f, x, 0.0)
        v_space = space_robustness(f, x, 0.0)
        v_smooth = evaluate(MetricConfig("smooth", k=10.0), f, x, 0.0).value
        v_new = evaluate(MetricConfig("new", nu=2.0), f, x, 0.0).value
        v_agm = evaluate(MetricConfig("agm", agm_scales=_AGM_SCALES), f, x, 0.0).value
        v_lse = evaluate(MetricConfig("lse", k=10.0), f, x, 0.0).value
        checked += 1

        if v_smooth > v_space + SIGN_TOL:
            over.append(format_formula(f))
        for name, v in (("space", v_space), ("agm", v_agm), ("new", v_new)):
            if abs(v) > SIGN_TOL and (v > 0) != sat:
                mismatches[name].append(f"{format_formula(f)} -> {v} vs oracle {sat}")
        if v_smooth > SIGN_TOL and not sat:
            mismatches["smooth"].append(f"{format_formula(f)} -> {v_smooth} vs oracle False")
        if lse_witness is None and abs(v_lse) > SIGN_TOL and (v_lse > 0) != sat:
            lse_witness = f"{format_formula(f)} -> lse {v_lse:.6f}, oracle {sat}"

    for name in ("space", "agm", "new"):
        bad = mismatches[name]
        checks.append(
            PropertyCheck(
                f"soundness/{name}",
                not bad,
                bad[0] if bad else f"sign matches oracle on {checked} instances",
            )
        )
    smooth_ok = not mismatches["smooth"] and not over
    detail = (
        (mismatches["smooth"] or over)[0]
        if not smooth_ok
        else f"positive implies satisfied and smooth <= space on {checked} instances"
    )
    checks.append(PropertyCheck("soundness/smooth", smooth_ok, detail))

    # avg runs on its own nesting-free instances
    avg_bad = []
    avg_checked = 0
    for _ in range(samples):
        f, x = random_instance(rng, avg_safe=True)
        v = avg_robustness(f, x, 0.0)
        avg_checked += 1
        if abs(v) > SIGN_TOL and (v > 0) != satisfies(f, x, 0.0):
            avg_bad.append(f"{format_formula(f)} -> {v}")
    checks.append(
        PropertyCheck(
            "soundness/avg",
            not avg_bad,
            avg_bad[0] if avg_bad else f"sign matches oracle on {avg_checked} instances",
        )
    )

    checks.append(
        PropertyCheck(
            "soundness/lse-negative-control",
            lse_witness is not None,
            lse_witness or "no sign disagreement found (expected at least one)",
        )
    )
    return checks


def _check_lse_bound(rng: np.random.Generator, samples: int) -> PropertyCheck:
    worst = 0.0
    for _ in range(samples):
        m = int(rng.integers(1, 11))
        scale = 10.0 ** rng.uniform(-1, 2)
        v = rng.uniform(-scale, scale, size=m)
        for k in (1.0, 10.0, 100.0):
            bound = math.log(m) / k
            err_max = abs(agg.softmax_lse(v, k) - v.max())
            err_min = abs(agg.softmin_lse(v, k) - v.min())
            worst = max(worst, err_max - bound, err_min - bound)
            if err_max > bound + 1e-12 or err_min > bound + 1e-12:
                return PropertyCheck(
                    "lse/approximation-bound",
                    False,
                    f"violated on {v.tolist()} with k={k}",
                )
    return PropertyCheck(
        "lse/approximation-bound",
        True,
        f"|lse - exact| <= ln(m)/k on {samples} vectors",
    )


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


def _check_large_scale_limits(rng: np.random.Generator, samples: int) -> PropertyCheck:
    n_checks = max(50, samples // 10)
    for _ in range(n_checks):
        for regime in (False, True):
            v = _separated_vector(rng, negative=regime)
            if abs(agg.new_and(v, 200.0) - v.min()) > 1e-3:
                return PropertyCheck(
                    "limits/new-approaches-min",
                    False,
                    f"nu=200 limit off on {v.tolist()}",
                )
        m = int(rng.integers(1, 11))
        v = rng.uniform(-3, 3, size=m)
        if abs(agg.softmin_lse(v, 1000.0) - v.min()) > math.log(m) / 1000.0 + 1e-12:
            return PropertyCheck(
                "limits/new-approaches-min", False, f"lse k=1000 off on {v.tolist()}"
            )
    return PropertyCheck(
        "limits/new-approaches-min",
        True,
        f"new_and(nu=200) within 1e-3 of min on {n_checks} separated vectors; "
        "softmin(k=1000) within ln(m)/1000",
    )


def _check_scale_invariance(rng: np.random.Generator, samples: int) -> list[PropertyCheck]:
    n_checks = max(50, samples // 10)
    alphas = (0.5, 2.0, 10.0)
    for _ in range(n_checks):
        m = int(rng.integers(2, 7))
        v = rng.uniform(-2, 2, size=m)
        if v.min() == 0.0:
            continue
        for alpha in alphas:
            lhs = float(np.min(alpha * v))
            rhs = alpha * float(np.min(v))
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
                return [PropertyCheck("scale-invariance/min", False, f"{v.tolist()}")]
            lhs = agg.new_and(alpha * v, 2.0)
            rhs = alpha * agg.new_and(v, 2.0)
            if abs(lhs - rhs) > 1e-7 * max(1e-9, abs(rhs)):
                return [
                    PropertyCheck(
                        "scale-invariance/new",
                        False,
                        f"alpha={alpha}, v={v.tolist()}: {lhs} vs {rhs}",
                    )
                ]
    ok = [
        PropertyCheck(
            "scale-invariance/min",
            True,
            f"min(alpha v) == alpha min(v) on {n_checks} vectors",
        ),
        PropertyCheck(
            "scale-invariance/new",
            True,
            f"new_and homogeneous to rel 1e-7 for alpha in {alphas}",
        ),
    ]
    # negative control: the geometric-mean branch is not homogeneous
    v = np.array([0.2, 0.8])
    alpha = 0.5
    lhs = agg.agm_and(alpha * v)
    rhs = alpha * agg.agm_and(v)
    ok.append(
        PropertyCheck(
            "scale-invariance/agm-negative-control",
            abs(lhs - rhs) > 1e-6,
            f"agm_and(0.5*[0.2, 0.8]) = {lhs:.6f} != 0.5*agm_and([0.2, 0.8]) = {rhs:.6f}",
        )
    )
    return ok


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


def _check_shadow_lifting(rng: np.random.Generator, samples: int) -> list[PropertyCheck]:
    n_points = min(100, max(20, samples // 5))
    h = 1e-4
    for name, fn in (
        ("agm", lambda v: agg.agm_and(v)),
        ("new", lambda v: agg.new_and(v, 2.0)),
    ):
        for _ in range(n_points):
            m = int(rng.integers(2, 7))
            for lo, hi in ((-0.99, -0.75), (0.75, 0.99)):
                v = _distinct_band(rng, m, lo, hi)
                for i in range(m):
                    d = _central_fd(fn, v, i, h)
                    if d <= 0:
                        return [
                            PropertyCheck(
                                f"shadow-lifting/{name}",
                                False,
                                f"flat/decreasing coordinate {i} at {v.tolist()}: d={d}",
                            )
                        ]
    checks = [
        PropertyCheck(
            "shadow-lifting/agm",
            True,
            f"all partials positive at {n_points} points per regime",
        ),
        PropertyCheck(
            "shadow-lifting/new",
            True,
            f"all partials positive at {n_points} points per regime",
        ),
    ]
    v = np.array([-0.9, -0.8, -0.77])
    flat = _central_fd(lambda u: float(np.min(u)), v, 2, h)
    checks.append(
        PropertyCheck(
            "shadow-lifting/min-negative-control",
            flat == 0.0,
            f"plain min has zero derivative in a non-argmin coordinate (d={flat})",
        )
    )
    return checks


def _check_smoothness(rng: np.random.Generator, samples: int) -> PropertyCheck:
    n_points = min(100, max(20, samples // 5))
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
        points = [v]
        tied = v.copy()
        tied[int(rng.integers(0, m))] = tied[int(np.argmin(tied))]
        points.append(tied)
        for point in points:
            for name, fn in fns:
                for i in range(len(point)):
                    g4 = _central_fd(fn, point, i, 1e-4)
                    g5 = _central_fd(fn, point, i, 1e-5)
                    if abs(g4 - g5) > 1e-2 * max(abs(g4), abs(g5)) + 1e-8:
                        return PropertyCheck(
                            "smoothness/finite-difference",
                            False,
                            f"{name} gradient unstable at {point.tolist()} "
                            f"coord {i}: {g4} vs {g5}",
                        )
    return PropertyCheck(
        "smoothness/finite-difference",
        True,
        f"fd gradients at steps 1e-4/1e-5 agree (rel 1e-2) at {n_points} points "
        "including tied coordinates",
    )


def _check_idempotency(rng: np.random.Generator, samples: int) -> PropertyCheck:
    for _ in range(max(50, samples // 10)):
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
                return PropertyCheck(
                    "idempotency/table",
                    False,
                    f"{name}([{a}]*{m}, k={k}) = {got}, expected {want}",
                )
    return PropertyCheck(
        "idempotency/table",
        True,
        "agm/new/min/smooth_max map (a,...,a) to a; lse and smooth_min to a - ln(m)/k",
    )


def _check_determinism(rng: np.random.Generator) -> PropertyCheck:
    for _ in range(20):
        f, x = random_instance(rng)
        for kind in ("space", "lse", "smooth", "new", "agm"):
            cfg = MetricConfig(kind, agm_scales=_AGM_SCALES if kind == "agm" else None)
            first = evaluate(cfg, f, x, 0.0).value
            second = evaluate(cfg, f, x, 0.0).value
            if first != second:
                return PropertyCheck(
                    "determinism/evaluate",
                    False,
                    f"{kind} on {format_formula(f)}: {first} != {second}",
                )
    return PropertyCheck(
        "determinism/evaluate", True, "repeated evaluations are bit-identical"
    )


def run_property_suite(samples: int = 500, seed: int = 42) -> PropertyReport:
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    checks: list[PropertyCheck] = []
    checks.extend(_check_soundness(rng, samples))
    checks.append(_check_lse_bound(rng, samples))
    checks.append(_check_large_scale_limits(rng, samples))
    checks.extend(_check_scale_invariance(rng, samples))
    checks.extend(_check_shadow_lifting(rng, samples))
    checks.append(_check_smoothness(rng, samples))
    checks.append(_check_idempotency(rng, samples))
    checks.append(_check_determinism(rng))
    return PropertyReport(samples, seed, checks)
