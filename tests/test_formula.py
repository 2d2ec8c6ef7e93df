import pytest

from stlopt import (
    And,
    Eventually,
    Globally,
    Interval,
    Not,
    Or,
    Pred,
    Until,
    channels,
    format_formula,
    horizon,
    parse_formula,
)


def test_interval_rejects_bad_bounds():
    with pytest.raises(ValueError, match="upper bound must exceed"):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError, match="upper bound must exceed"):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        Interval(-1.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        Interval(float("nan"), 1.0)
    with pytest.raises(ValueError, match="upper bound must exceed"):
        Interval(0.0, float("nan"))


def test_and_or_need_two_args():
    p = Pred("x", ">", 0.0)
    with pytest.raises(ValueError):
        And((p,))
    with pytest.raises(ValueError):
        Or((p,))


def test_pred_rejects_bad_comparison():
    with pytest.raises(ValueError):
        Pred("x", "==", 0.0)


@pytest.mark.parametrize("threshold", [float("inf"), float("-inf"), float("nan")])
def test_pred_rejects_a_threshold_that_is_not_finite(threshold):
    with pytest.raises(ValueError, match="is not finite"):
        Pred("x", ">", threshold)


def test_pred_margin_direction():
    assert Pred("x", ">", 0.4).margin(0.5) == pytest.approx(0.1)
    assert Pred("x", "<", 0.4).margin(0.5) == pytest.approx(-0.1)
    assert Pred("x", ">=", 0.4).margin(0.5) == pytest.approx(0.1)
    assert Pred("x", "<=", 0.4).margin(0.5) == pytest.approx(-0.1)


def test_pred_holds_strictness():
    assert not Pred("x", ">", 0.4).holds(0.4)
    assert Pred("x", ">=", 0.4).holds(0.4)
    assert not Pred("x", "<", 0.4).holds(0.4)
    assert Pred("x", "<=", 0.4).holds(0.4)


def test_horizon_predicate_is_zero():
    assert horizon(Pred("x", ">", 0.0)) == 0.0


def test_horizon_eq2_shape():
    f = parse_formula("F[3,4](x > 0) & F[8,10](x > 0) & F[13,15](x > 0)")
    assert horizon(f) == 15.0


def test_horizon_nested():
    assert horizon(parse_formula("G[1,2](F[0,3](x > 0))")) == 5.0


def test_horizon_until():
    f = Until(Interval(0, 2), Pred("x", ">", 0), Globally(Interval(0, 1), Pred("y", ">", 0)))
    assert horizon(f) == 3.0


def test_horizon_monotone_under_globally():
    import numpy as np

    from stlopt.properties import random_formula

    rng = np.random.default_rng(3)
    for _ in range(200):
        g = random_formula(rng, depth=int(rng.integers(0, 4)))
        a = float(rng.uniform(0, 5))
        ivl = Interval(a, a + float(rng.uniform(0.1, 5)))
        assert horizon(Globally(ivl, g)) >= horizon(g)
        assert horizon(Eventually(ivl, g)) >= horizon(g)


def test_channels_collects_all():
    f = parse_formula("(x > 0 U[0,1] y < 2) & G[0,1](z >= 0)")
    assert channels(f) == {"x", "y", "z"}


def test_format_examples():
    assert format_formula(Pred("x", ">", 0.4)) == "x > 0.4"
    assert format_formula(Not(Pred("x", ">", 0.0))) == "!(x > 0)"


def test_format_keeps_tree_shape():
    a, b, c = (Pred(ch, ">", 0.0) for ch in "xyz")
    flat = And((a, b, c))
    nested = And((And((a, b)), c))
    assert parse_formula(format_formula(flat)) == flat
    assert parse_formula(format_formula(nested)) == nested
    assert flat != nested


def test_format_or_inside_and():
    f = parse_formula("(x > 0 | y > 0) & z > 0")
    assert parse_formula(format_formula(f)) == f
    g = parse_formula("x > 0 & y > 0 | z > 0")  # & binds tighter
    assert isinstance(g, Or)
    assert parse_formula(format_formula(g)) == g


def test_format_temporal_and_until():
    f = Eventually(Interval(3.0, 4.0), Pred("x", ">", 0.5))
    assert format_formula(f) == "F[3,4](x > 0.5)"
    u = Until(Interval(0.0, 2.5), Pred("x", ">", 0.0), Pred("y", "<=", -0.5))
    assert format_formula(u) == "(x > 0 U[0,2.5] y <= -0.5)"
    assert parse_formula(format_formula(u)) == u
