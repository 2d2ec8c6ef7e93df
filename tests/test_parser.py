import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlopt import (
    And,
    Eventually,
    Interval,
    Or,
    ParseError,
    Pred,
    format_formula,
    parse_formula,
)
from stlopt.properties import random_formula


def test_single_predicate():
    assert parse_formula("x > 0.4") == Pred("x", ">", 0.4)


def test_eq2_conjunct_shape():
    f = parse_formula("F[3,4](x > 0.5 & x < 0.6 & y > 0.2 & y < 0.4)")
    assert f == Eventually(
        Interval(3.0, 4.0),
        And(
            (
                Pred("x", ">", 0.5),
                Pred("x", "<", 0.6),
                Pred("y", ">", 0.2),
                Pred("y", "<", 0.4),
            )
        ),
    )


def test_interval_order_diagnostic():
    with pytest.raises(ParseError, match="upper bound must exceed lower bound"):
        parse_formula("G[2,1](x > 0)")


def test_interval_negative_lower_diagnostic():
    with pytest.raises(ParseError, match="non-negative"):
        parse_formula("F[-1,2](x > 0)")


def test_syntax_error_carries_position_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse_formula("x > 0.4 &")
    err = exc.value
    assert err.line == 1 and err.column == 10
    assert "expected" in err.message


def test_error_on_second_line():
    with pytest.raises(ParseError) as exc:
        parse_formula("x > 0 &\n y >")
    assert exc.value.line == 2


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError, match="end of input"):
        parse_formula("x > 0 y > 0")


def test_precedence_not_and_or():
    f = parse_formula("!x > 0 & y > 0 | z > 0")
    assert isinstance(f, Or)
    assert isinstance(f.args[0], And)


def test_channel_named_like_operator():
    # G/F/U only act as keywords when followed by '['
    f = parse_formula("G > 1 & F[0,1](U >= 2)")
    assert f.args[0] == Pred("G", ">", 1.0)
    assert f.args[1].child == Pred("U", ">=", 2.0)


def test_until_requires_parentheses():
    f = parse_formula("(x > 0 U[1,2] y > 0)")
    assert f.interval == Interval(1.0, 2.0)


def test_scientific_notation_thresholds():
    assert parse_formula("x > 1e-07").threshold == 1e-07
    assert parse_formula("x < -2.5e3").threshold == -2500.0


@pytest.mark.parametrize(
    "text, column",
    [("x > 1e999", 5), ("F[0,0.1](x > 1e999 | x < 3)", 14), ("y <= -1e999", 6)],
)
def test_threshold_that_is_not_finite_rejected_at_the_number(text, column):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert (exc.value.line, exc.value.column) == (1, column)
    assert exc.value.message.startswith("predicate threshold") and "is not finite" in exc.value.message


def test_whitespace_insensitive():
    assert parse_formula(" G[0, 1] ( x>0 ) ") == parse_formula("G[0,1](x > 0)")


# round-trip property ------------------------------------------------------

_channel = st.sampled_from(["x", "y", "G", "F", "U", "sig_1"])
_cmp = st.sampled_from(["<", "<=", ">", ">="])
_number = st.floats(allow_nan=False, allow_infinity=False, width=64)
_pred = st.builds(Pred, _channel, _cmp, _number)


def _interval():
    return st.builds(
        lambda a, w: Interval(a, a + w),
        st.floats(0.0, 50.0, allow_nan=False),
        st.floats(0.001, 10.0, allow_nan=False),
    )


def _extend(children):
    from stlopt import Globally, Not, Until

    return st.one_of(
        st.builds(Not, children),
        st.builds(lambda args: And(tuple(args)), st.lists(children, min_size=2, max_size=4)),
        st.builds(lambda args: Or(tuple(args)), st.lists(children, min_size=2, max_size=4)),
        st.builds(Globally, _interval(), children),
        st.builds(Eventually, _interval(), children),
        st.builds(Until, _interval(), children, children),
    )


_formula = st.recursive(_pred, _extend, max_leaves=12)


@settings(max_examples=200, derandomize=True)
@given(_formula)
def test_roundtrip_property(f):
    assert parse_formula(format_formula(f)) == f


def test_roundtrip_seeded_generator():
    rng = np.random.default_rng(7)
    for _ in range(200):
        f = random_formula(rng, depth=int(rng.integers(1, 6)))
        assert parse_formula(format_formula(f)) == f
