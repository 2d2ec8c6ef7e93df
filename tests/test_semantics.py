import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlopt import (
    AvgSemanticsError,
    EmptyWindowError,
    EvaluationError,
    InsufficientHorizonError,
    MetricConfig,
    MissingAgmScaleError,
    Not,
    Trace,
    UnalignedTimeError,
    UnknownChannelError,
    evaluate,
    parse_formula,
    satisfies,
    semantics,
)
from stlopt.properties import random_instance
from stlopt.semantics import METRIC_KINDS

from conftest import make_trace
from oracle import brute_sat, brute_space, ref_robustness


def rho(kind, f, x, **hyper):
    """The robustness of f on x at time 0 under one configured semantics."""
    return evaluate(MetricConfig(kind, **hyper), f, x, 0.0).value


def test_satisfies_examples():
    assert satisfies(parse_formula("x > 0.4"), make_trace([0.5]), 0.0)
    g = parse_formula("G[0,2](x > 0.4)")
    assert satisfies(g, make_trace([0.5, 0.45, 0.6]), 0.0)
    assert not satisfies(g, make_trace([0.0, 0.45, 0.6]), 0.0)


def test_satisfies_preconditions():
    f = parse_formula("G[0,2](x > 0)")
    with pytest.raises(InsufficientHorizonError, match="insufficient horizon"):
        satisfies(f, make_trace([1.0, 1.0]), 0.0)
    with pytest.raises(UnalignedTimeError, match="unaligned"):
        satisfies(parse_formula("x > 0"), make_trace([1.0, 1.0]), 0.3)
    with pytest.raises(UnknownChannelError, match="unknown channel"):
        satisfies(parse_formula("q > 0"), make_trace([1.0]), 0.0)
    with pytest.raises(EmptyWindowError, match="empty window"):
        satisfies(parse_formula("G[1,2](x > 0)"), make_trace(np.ones(3), dt=5.0), 0.0)


def test_space_examples():
    assert rho("space", parse_formula("x > 0.4"), make_trace([0.5])) == pytest.approx(0.1)
    assert rho("space", parse_formula("!(x > 0.4)"), make_trace([0.5])) == pytest.approx(-0.1)
    tr = make_trace([0.5, 0.45, 0.6])
    assert rho("space", parse_formula("G[0,2](x > 0.4)"), tr) == pytest.approx(0.05)
    assert rho("space", parse_formula("F[0,2](x > 0.4)"), tr) == pytest.approx(0.2)


def test_space_until_example():
    tr = make_trace(np.array([[1, -1], [1, -1], [1, 1]], float), channels=("x", "y"))
    assert rho("space", parse_formula("(x > 0 U[0,2] y > 0)"), tr) == pytest.approx(1.0)


def test_lse_examples():
    tr1 = make_trace([0.5])
    f = parse_formula("x > 0.4")
    assert rho("lse", f, tr1, k=10.0) == pytest.approx(rho("space", f, tr1))
    tr = make_trace([0.5, 0.45, 0.6])
    g = parse_formula("G[0,2](x > 0.4)")
    assert abs(rho("lse", g, tr, k=100.0) - 0.05) <= math.log(3) / 100
    both = make_trace(np.array([[0.0, 0.0]]), channels=("x", "y"))
    conj = parse_formula("x > 0 & y > 0")
    assert rho("lse", conj, both, k=2.0) == pytest.approx(-math.log(2) / 2)


def test_smooth_examples():
    tr1 = make_trace([0.5])
    f = parse_formula("x > 0.4")
    assert rho("smooth", f, tr1, k=7.0) == pytest.approx(0.1)
    ones = make_trace(np.array([[1.0, 1.0]]), channels=("x", "y"))
    conj = parse_formula("x > 0 & y > 0")
    v = rho("smooth", conj, ones, k=1.0)
    assert v == pytest.approx(1 - math.log(2))
    assert 0 < v <= rho("space", conj, ones)


def test_smooth_never_exceeds_space_even_with_negation(rng):
    for _ in range(300):
        f, tr = random_instance(rng)
        assert rho("smooth", f, tr, k=10.0) <= rho("space", f, tr) + 1e-9


def test_agm_examples():
    tr = make_trace([0.5])
    assert rho("agm", parse_formula("x > 0.4"), tr, agm_scales={"x": 1.0}) == pytest.approx(0.1)
    up = make_trace([0.5, 0.5])
    assert rho("agm", parse_formula("G[0,1](x > 0)"), up, agm_scales={"x": 1.0}) == pytest.approx(0.5)
    mixed = make_trace([0.5, -0.5])
    assert rho("agm", parse_formula("G[0,1](x > 0)"), mixed, agm_scales={"x": 1.0}) == pytest.approx(-0.25)


def test_agm_missing_scale():
    with pytest.raises(MissingAgmScaleError, match="missing agm scale for channel 'y'"):
        rho("agm", parse_formula("x > 0 & y > 0"), make_trace(np.zeros((1, 2)), channels=("x", "y")), agm_scales={"x": 1.0})


def test_agm_clamps_margins():
    tr = make_trace([10.0])
    assert rho("agm", parse_formula("x > 0"), tr, agm_scales={"x": 1.0}) == pytest.approx(1.0)


def test_avg_examples():
    f = parse_formula("F[0,2](x > 0)")
    assert rho("avg", f, make_trace([-1, 0.5, 1.0])) == pytest.approx(0.75)
    assert rho("avg", parse_formula("F[0,1](x > 0)"), make_trace([-1, -2])) == pytest.approx(-1.0)
    assert rho("avg", parse_formula("G[0,1](x > 0)"), make_trace([0.5, 1.0])) == pytest.approx(0.5)


def test_avg_rejects_nesting_and_until():
    tr = make_trace(np.ones(10))
    with pytest.raises(AvgSemanticsError, match="nested temporal"):
        rho("avg", parse_formula("F[0,1](G[0,1](x > 0))"), tr)
    with pytest.raises(AvgSemanticsError, match="until unsupported"):
        rho("avg", parse_formula("(x > 0 U[0,1] x > 0)"), tr)
    # negation above a temporal operator stays legal
    assert rho("avg", parse_formula("!(F[0,1](x > 0))"), tr) == pytest.approx(-1.0)


def test_time_robustness_examples():
    # the value's sign (of -0.0 too) is the verdict at t
    # constant true across every probeable shift: saturates at the last one
    tr = make_trace(np.ones(6))
    r = rho("time", parse_formula("x > 0"), tr)
    assert (r, math.copysign(1, r)) == (5.0, 1)

    flip = make_trace([-1.0, 1.0, 1.0])
    r2 = rho("time", parse_formula("x > 0"), flip)
    assert (r2, math.copysign(1, r2)) == (0.0, -1)

    pat = make_trace([1.0, 1.0, -1.0, 1.0], dt=0.5)
    r3 = rho("time", parse_formula("x > 0"), pat)
    assert (r3, math.copysign(1, r3)) == (0.5, 1)


def test_evaluate_dispatch():
    tr = make_trace([0.5])
    out = evaluate(MetricConfig("space"), parse_formula("x > 0.4"), tr, 0.0)
    assert out.value == pytest.approx(0.1)


def test_evaluate_matches_direct_functions():
    tr = make_trace([0.5, -0.2, 0.8, 0.1], dt=0.5)
    f = parse_formula("F[0,1](x > 0)")
    assert evaluate(MetricConfig("avg"), f, tr, 0.0).value == ref_robustness("avg", f, tr, 0.0)
    time = semantics.time_robustness_plus(f, tr, 0.0)
    assert evaluate(MetricConfig("time"), f, tr, 0.0).value == time


def test_evaluate_is_the_one_quantitative_entry_point(monkeypatch):
    import stlopt

    wrappers = ("space_robustness", "avg_robustness", "TimeRobustness")
    assert not [name for name in wrappers if hasattr(semantics, name)]
    exported = wrappers + ("time_robustness_plus",)
    assert not [name for name in exported if hasattr(stlopt, name)]
    # evaluate reaches the time scan through the module global, so a wrapper
    # patched in by name sees every call
    calls = []
    scan = semantics.time_robustness_plus
    monkeypatch.setattr(
        semantics, "time_robustness_plus", lambda *a: calls.append(a) or scan(*a)
    )
    f, tr = parse_formula("x > 0"), make_trace([1.0, 1.0, -1.0])
    assert evaluate(MetricConfig("time"), f, tr, 0.0).value == 1.0
    assert calls == [(f, tr, 0.0)] and type(scan(f, tr, 0.0)) is float


def test_evaluate_avg_nested_error():
    with pytest.raises(AvgSemanticsError):
        evaluate(MetricConfig("avg"), parse_formula("F[0,1](G[0,1](x > 0))"), make_trace(np.ones(5)), 0.0)


def test_metric_config_validation():
    with pytest.raises(ValueError):
        MetricConfig("bogus")
    with pytest.raises(ValueError):
        MetricConfig("lse", k=0.0)
    with pytest.raises(ValueError):
        MetricConfig("new", nu=-1.0)
    with pytest.raises(ValueError):
        MetricConfig("agm", agm_scales={"x": 0.0})
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(k=nan),
        dict(k=inf),
        dict(nu=nan),
        dict(nu=-inf),
        dict(agm_scales={"x": nan}),
        dict(agm_scales={"x": inf}),
        dict(agm_scales={"x": "1"}),
        dict(agm_scales=[1.0]),
        dict(k=True),
        dict(nu=True),
        dict(agm_scales={"x": True, "y": 1}),
    ):
        with pytest.raises(ValueError):
            MetricConfig("agm", **bad)


def test_metric_config_keeps_the_scales_it_checked():
    scales = {"x": 1.0}
    cfg = MetricConfig("agm", agm_scales=scales)
    scales["x"] = 0.0
    with pytest.raises(TypeError):
        cfg.agm_scales["x"] = 0.0
    assert dict(cfg.agm_scales) == {"x": 1.0}
    again = dataclasses.replace(cfg, k=5.0)
    assert dict(again.agm_scales) == {"x": 1.0} and again.k == 5.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, True])
@pytest.mark.parametrize(
    "hyper",
    [
        lambda bad: dict(kind="lse", k=bad),
        lambda bad: dict(kind="smooth", k=bad),
        lambda bad: dict(kind="new", nu=bad),
        lambda bad: dict(kind="agm", agm_scales={"x": bad}),
    ],
    ids=["lse", "smooth", "new", "agm"],
)
def test_direct_semantics_reject_bad_scale(hyper, bad):
    # MetricConfig is the one place a semantics gets its hyperparameters, so
    # a bad scale never reaches the walker (where it used to yield nan)
    with pytest.raises(ValueError, match="must be positive and finite"):
        MetricConfig(**hyper(bad))


def test_de_morgan_boolean(rng):
    from stlopt import And, Or, Trace, horizon
    from stlopt.properties import random_formula

    for _ in range(200):
        p = random_formula(rng, depth=2)
        q = random_formula(rng, depth=2)
        dt = 0.5
        n = int(math.ceil(max(horizon(p), horizon(q)) / dt)) + 3
        tr = Trace(("x", "y"), 0.0, dt, rng.uniform(-1, 1, size=(n, 2)))
        lhs = Not(And((p, q)))
        rhs = Or((Not(p), Not(q)))
        assert satisfies(lhs, tr, 0.0) == satisfies(rhs, tr, 0.0)


def test_space_matches_bruteforce_oracle(rng):
    for _ in range(300):
        f, tr = random_instance(rng)
        assert rho("space", f, tr) == pytest.approx(
            brute_space(f, tr, 0.0), abs=1e-12
        )
        assert satisfies(f, tr, 0.0) == brute_sat(f, tr, 0.0)


def test_new_sign_matches_space(rng):
    for _ in range(300):
        f, tr = random_instance(rng)
        s = rho("space", f, tr)
        n = rho("new", f, tr, nu=2.0)
        if abs(s) > 1e-9 and abs(n) > 1e-9:
            assert np.sign(s) == np.sign(n)


_PROBES = {
    # a missing channel behind a disjunct that already holds
    "unknown-channel": ("x > 0 | q > 0", 1.0, UnknownChannelError),
    # a window the grid skips behind a disjunct that already holds
    "empty-window": ("x > 0 | G[1,2](x > 0)", 5.0, EmptyWindowError),
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
@pytest.mark.parametrize("kind", ["satisfies", *METRIC_KINDS])
def test_every_semantics_raises_the_same_error(kind, probe):
    text, dt, error = _PROBES[probe]
    f = parse_formula(text)
    tr = make_trace(np.ones(3), dt=dt)
    with pytest.raises(error):
        if kind == "satisfies":
            satisfies(f, tr, 0.0)
        else:
            evaluate(MetricConfig(kind, agm_scales={"x": 1.0, "q": 1.0}), f, tr, 0.0)


# Every finite input is accepted ---------------------------------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, max_value=math.inf, exclude_min=True, allow_infinity=False)
_EDGE_FORMULAS = (
    "G[0,0.2](x > {a})",
    "F[0,0.2](x < {a} | y >= {b})",
    "(x > {a} U[0,0.3] y <= {b})",
    "!(G[0,0.1](x < {a}) & F[0.1,0.2](y > {b}))",
    "G[0,0.1](F[0,0.1](x >= {a})) & !(y < {b} U[0.1,0.2] x > {a})",
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(_EDGE_FORMULAS), _FINITE, _FINITE,
       st.lists(_FINITE, min_size=10, max_size=10), _POSITIVE, _POSITIVE, _POSITIVE, _POSITIVE)
def test_every_finite_input_gives_a_finite_value_or_an_evaluation_error(
        text, a, b, samples, k, nu, scale_x, scale_y):
    """Values up to the float maximum, thresholds, k, nu and agm scales: the
    value is finite or an EvaluationError, and numpy warns of nothing."""
    f = parse_formula(text.format(a=repr(a), b=repr(b)))
    x = Trace(("x", "y"), 0.0, 0.1, np.array(samples).reshape(5, 2))
    assert satisfies(f, x, 0.0) in (True, False)
    for kind in METRIC_KINDS:
        cfg = MetricConfig(kind, k=k, nu=nu, agm_scales={"x": scale_x, "y": scale_y})
        try:
            value = evaluate(cfg, f, x, 0.0).value
        except EvaluationError:
            continue
        assert type(value) is float and math.isfinite(value), (kind, value)
