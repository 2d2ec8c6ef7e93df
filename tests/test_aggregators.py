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
from stlopt import aggregators

import oracle

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


# Exactness against the wrapper-based references in oracle.py --------------

_EXACT = [
    (name, fn, getattr(oracle, f"ref_{name}"), arg)
    for name, fn, arg in (
        ("softmax_lse", softmax_lse, 3.0),
        ("softmin_lse", softmin_lse, 10.0),
        ("smooth_min", smooth_min, 10.0),
        ("smooth_max", smooth_max, 1e3),
        ("agm_and", agm_and, None),
        ("agm_or", agm_or, None),
        ("new_and", new_and, 2.0),
        ("new_or", new_or, 0.5),
    )
]


def _walk_kernel(fn):
    """A kernel of the walk, called as the walk calls it: on an array, under
    the walk's errstate; a 0-d result is returned as the public functions do."""

    def call(values, *arg):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            r = fn(np.asarray(values, dtype=float), *arg)
        return float(r) if np.ndim(r) == 0 else r

    return call


_EXACT += [
    (f"walk_{name}", _walk_kernel(getattr(aggregators, f"_{name}")), getattr(oracle, f"ref_{name}"),
     arg)
    for name, arg in (("agm_and", None), ("agm_or", None), ("new_and", 2.0), ("new_or", 0.5))
]
# numpy sums 8 terms at a time up to 128 and splits longer rows in halves
_LENGTHS = list(range(1, 21)) + [64, 127, 128, 129, 200]


def _rows(rng, m):
    """Rows of length m in [-1, 1] that take every branch of every aggregator."""
    plain = rng.uniform(-1, 1, m)
    zeros = plain.copy()
    zeros[rng.random(m) < 0.3] = 0.0
    zeros[rng.random(m) < 0.3] = -0.0
    min_zero = rng.uniform(0, 1, m)  # new_and's exact-0 branch, agm's zero argument
    min_zero[rng.integers(m)] = 0.0
    max_zero = -min_zero  # the same for the disjunctions, with -0.0
    positive = rng.uniform(0.01, 1, m)  # agm's geometric branch
    corners = rng.choice([-1.0, -0.0, 0.0, 1.0], m)
    tolerance = corners + rng.choice([-5e-10, 0.0, 5e-10], m)  # clipped, not rejected
    signed_zeros = [np.full(m, -0.0), rng.choice([-0.0, 0.0], m)]
    return [plain, zeros, min_zero, max_zero, positive, corners, tolerance, 1e3 * plain,
            *signed_zeros]


def _assert_identical(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _call(fn, arg, v):
    return fn(v) if arg is None else fn(v, arg)


@pytest.mark.parametrize("name,fn,ref,arg", _EXACT, ids=[e[0] for e in _EXACT])
def test_aggregators_equal_their_references_bit_for_bit(name, fn, ref, arg):
    rng = np.random.default_rng(len(name))
    for m in _LENGTHS:
        rows = _rows(rng, m)
        if "agm" in name:
            rows = [np.clip(r, -1 - 5e-10, 1 + 5e-10) for r in rows]
        for row in rows:
            _assert_identical(_call(fn, arg, row), _call(ref, arg, row))
            _assert_identical(_call(fn, arg, list(row)), _call(ref, arg, list(row)))
        block = np.array(rows)
        _assert_identical(_call(fn, arg, block), _call(ref, arg, block))
        _assert_identical(_call(fn, arg, block[:, None, :]), _call(ref, arg, block[:, None, :]))


@pytest.mark.parametrize("fn,ref", [(agm_and, oracle.ref_agm_and), (agm_or, oracle.ref_agm_or)])
def test_agm_domain_check_equals_its_reference(fn, ref):
    for row in ([1 + 2e-9, 0.5], [-1 - 2e-9, 0.5], [0.5, 1.5, -3.0],
                [np.nan, -3.0], [np.nan, 3.0], [[np.nan, 0.5], [0.2, 3.0]],
                [[0.5, -3.0], [0.1, np.nan]]):
        with pytest.raises(AgmDomainError) as got:
            fn(row)
        with pytest.raises(AgmDomainError) as want:
            ref(row)
        assert str(got.value) == str(want.value)
    for row in ([1 + 1e-9, -1 - 1e-9], [np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]):
        # at the tolerance, and NaN, pass the check in both
        got, want = fn(row), ref(row)
        assert np.array_equal(got, want, equal_nan=True)
