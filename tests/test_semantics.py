import dataclasses
import math

import numpy as np
import pytest

from stlopt import (
    AvgSemanticsError,
    EmptyWindowError,
    InsufficientHorizonError,
    MetricConfig,
    MissingAgmScaleError,
    Not,
    UnalignedTimeError,
    UnknownChannelError,
    avg_robustness,
    evaluate,
    parse_formula,
    satisfies,
    space_robustness,
    time_robustness_plus,
)
from stlopt.properties import random_instance
from stlopt.semantics import METRIC_KINDS

from conftest import make_trace
from oracle import brute_sat, brute_space


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
    assert space_robustness(parse_formula("x > 0.4"), make_trace([0.5]), 0.0) == pytest.approx(0.1)
    assert space_robustness(parse_formula("!(x > 0.4)"), make_trace([0.5]), 0.0) == pytest.approx(-0.1)
    tr = make_trace([0.5, 0.45, 0.6])
    assert space_robustness(parse_formula("G[0,2](x > 0.4)"), tr, 0.0) == pytest.approx(0.05)
    assert space_robustness(parse_formula("F[0,2](x > 0.4)"), tr, 0.0) == pytest.approx(0.2)


def test_space_until_example():
    tr = make_trace(np.array([[1, -1], [1, -1], [1, 1]], float), channels=("x", "y"))
    assert space_robustness(parse_formula("(x > 0 U[0,2] y > 0)"), tr, 0.0) == pytest.approx(1.0)


def test_lse_examples():
    tr1 = make_trace([0.5])
    f = parse_formula("x > 0.4")
    assert rho("lse", f, tr1, k=10.0) == pytest.approx(
        space_robustness(f, tr1, 0.0)
    )
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
    assert 0 < v <= space_robustness(conj, ones, 0.0)


def test_smooth_never_exceeds_space_even_with_negation(rng):
    for _ in range(300):
        f, tr = random_instance(rng)
        assert rho("smooth", f, tr, k=10.0) <= space_robustness(f, tr, 0.0) + 1e-9


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
    assert avg_robustness(f, make_trace([-1, 0.5, 1.0]), 0.0) == pytest.approx(0.75)
    assert avg_robustness(parse_formula("F[0,1](x > 0)"), make_trace([-1, -2]), 0.0) == pytest.approx(-1.0)
    assert avg_robustness(parse_formula("G[0,1](x > 0)"), make_trace([0.5, 1.0]), 0.0) == pytest.approx(0.5)


def test_avg_rejects_nesting_and_until():
    tr = make_trace(np.ones(10))
    with pytest.raises(AvgSemanticsError, match="nested temporal"):
        avg_robustness(parse_formula("F[0,1](G[0,1](x > 0))"), tr, 0.0)
    with pytest.raises(AvgSemanticsError, match="until unsupported"):
        avg_robustness(parse_formula("(x > 0 U[0,1] x > 0)"), tr, 0.0)
    # negation above a temporal operator stays legal
    assert avg_robustness(parse_formula("!(F[0,1](x > 0))"), tr, 0.0) == pytest.approx(-1.0)


def test_time_robustness_examples():
    # constant true across every probeable shift: saturates, flag set
    tr = make_trace(np.ones(6))
    r = time_robustness_plus(parse_formula("x > 0"), tr, 0.0)
    assert (r.value, r.chi, r.truncated) == (5.0, 1, True)

    flip = make_trace([-1.0, 1.0, 1.0])
    r2 = time_robustness_plus(parse_formula("x > 0"), flip, 0.0)
    assert (r2.value, r2.chi, r2.truncated) == (0.0, -1, False)

    pat = make_trace([1.0, 1.0, -1.0, 1.0], dt=0.5)
    r3 = time_robustness_plus(parse_formula("x > 0"), pat, 0.0)
    assert (r3.value, r3.chi, r3.truncated) == (0.5, 1, False)


def test_evaluate_dispatch():
    tr = make_trace([0.5])
    out = evaluate(MetricConfig("space"), parse_formula("x > 0.4"), tr, 0.0)
    assert out.value == pytest.approx(0.1)


def test_evaluate_matches_direct_functions():
    tr = make_trace([0.5, -0.2, 0.8, 0.1], dt=0.5)
    f = parse_formula("F[0,1](x > 0)")
    assert evaluate(MetricConfig("avg"), f, tr, 0.0).value == avg_robustness(f, tr, 0.0)
    assert evaluate(MetricConfig("time"), f, tr, 0.0).value == time_robustness_plus(f, tr, 0.0).value


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
        assert space_robustness(f, tr, 0.0) == pytest.approx(
            brute_space(f, tr, 0.0), abs=1e-12
        )
        assert satisfies(f, tr, 0.0) == brute_sat(f, tr, 0.0)


def test_new_sign_matches_space(rng):
    for _ in range(300):
        f, tr = random_instance(rng)
        s = space_robustness(f, tr, 0.0)
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
