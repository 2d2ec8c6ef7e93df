import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlopt import (
    AgmDomainError,
    agm_and,
    agm_or,
    new_and,
    new_or,
    smooth_max,
    smooth_min,
    softmax_lse,
    softmin_lse,
)

_vec = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=10
).map(np.array)


def test_softmax_lse_closed_forms():
    assert softmax_lse([0.0], 5.0) == 0.0
    assert softmax_lse([0, 0], 2.0) == pytest.approx(math.log(2) / 2, abs=1e-12)
    assert softmax_lse([1, 2], 1.0) == pytest.approx(math.log(math.e + math.e**2), abs=1e-12)


def test_smooth_closed_forms():
    assert smooth_max([0, 0], 3.0) == pytest.approx(0.0, abs=1e-12)
    assert smooth_min([0, 0], 1.0) == pytest.approx(-math.log(2), abs=1e-12)
    e = math.e
    assert smooth_max([1, 3], 1.0) == pytest.approx((e + 3 * e**3) / (e + e**3), abs=1e-12)


def test_agm_closed_forms():
    assert agm_and([0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)
    assert agm_and([0.5, -0.5]) == pytest.approx(-0.25, abs=1e-12)
    assert agm_and([1, 0]) == 0.0


def test_agm_domain_error():
    with pytest.raises(AgmDomainError, match=r"out of \[-1, 1\]"):
        agm_and([1.5, 0.5])


def test_new_closed_forms():
    e = math.e
    assert new_and([-1, 1], 1.0) == pytest.approx(
        (-(e**2) + e**-2) / (e**2 + e**-2), abs=1e-12
    )
    assert new_and([0.0, 5.0], 2.0) == 0.0
    assert new_and([2.0, 2.0], 1.0) == pytest.approx(2.0, abs=1e-12)


_AGGREGATORS = (
    lambda v: softmax_lse(v, 3.0),
    lambda v: softmin_lse(v, 3.0),
    lambda v: smooth_min(v, 10.0),
    lambda v: smooth_max(v, 10.0),
    agm_and,
    agm_or,
    lambda v: new_and(v, 2.0),
    lambda v: new_or(v, 2.0),
)


@pytest.mark.parametrize("fn", _AGGREGATORS)
def test_block_rows_equal_single_rows(fn):
    rng = np.random.default_rng(3)
    for _ in range(50):
        block = rng.uniform(-1, 1, size=(int(rng.integers(1, 6)), int(rng.integers(1, 12))))
        block[rng.random(block.shape) < 0.1] = 0.0  # zero minima take new_and's exact-0 branch
        got = fn(block)
        assert isinstance(got, np.ndarray) and got.shape == block.shape[:1]
        assert got.tolist() == [fn(row) for row in block]
        assert all(isinstance(fn(row), float) for row in block)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        softmax_lse([], 1.0)


@settings(max_examples=300, derandomize=True)
@given(_vec, st.sampled_from([1.0, 10.0, 100.0]))
def test_lse_bound(v, k):
    m = len(v)
    ulp = 1e-12 * max(1.0, float(np.abs(v).max()))  # rounding allowance at large |v|
    assert abs(softmax_lse(v, k) - v.max()) <= math.log(m) / k + ulp
    assert abs(softmin_lse(v, k) - v.min()) <= math.log(m) / k + ulp


@settings(max_examples=200, derandomize=True)
@given(_vec, st.floats(0.5, 100.0))
def test_smooth_under_approximation(v, k):
    assert smooth_min(v, k) <= v.min() + 1e-9
    assert smooth_max(v, k) <= v.max() + 1e-9


@settings(max_examples=200, derandomize=True)
@given(_vec, st.floats(0.1, 50.0))
def test_duality(v, nu):
    assert new_or(v, nu) == pytest.approx(-new_and(-v, nu), rel=1e-12, abs=1e-12)
    assert softmin_lse(v, nu) == pytest.approx(-softmax_lse(-v, nu), rel=1e-12, abs=1e-12)


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.floats(-0.999, 0.999, allow_nan=False), min_size=1, max_size=8).map(np.array))
def test_agm_duality_and_range(v):
    assert agm_or(v) == pytest.approx(-agm_and(-v), rel=1e-12, abs=1e-12)
    assert -1.0 - 1e-12 <= agm_and(v) <= 1.0 + 1e-12


@settings(max_examples=200, derandomize=True)
@given(_vec, st.sampled_from([0.5, 2.0, 10.0]), st.floats(0.5, 20.0))
def test_new_scale_invariance(v, alpha, nu):
    lhs = new_and(alpha * v, nu)
    rhs = alpha * new_and(v, nu)
    assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)


def test_new_sign_matches_min():
    rng = np.random.default_rng(11)
    for _ in range(500):
        v = rng.uniform(-5, 5, size=rng.integers(1, 9))
        r = new_and(v, 2.0)
        if abs(v.min()) > 1e-9:
            assert np.sign(r) == np.sign(v.min())


def test_overflow_shielding():
    big = np.array([1e6, -1e6, 5e5])
    for k in (1.0, 1e3):
        assert np.isfinite(softmax_lse(big, k))
        assert np.isfinite(smooth_min(big, k))
        assert np.isfinite(smooth_max(big, k))
    assert np.isfinite(new_and(big, 1e3))
    assert np.isfinite(new_and(np.array([-1e-300, 1e6]), 2.0))
