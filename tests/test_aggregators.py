import math
import warnings

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
from stlopt import aggregators, semantics

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
    with pytest.raises(AgmDomainError, match=r": \[1\.5\]$"):  # the values passed, not -v
        agm_or([1.5, 0.2])


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
    (f"walk{kernel}", _walk_kernel(getattr(aggregators, kernel)), getattr(oracle, ref), arg)
    for kernel, ref, arg in (
        ("_lse_min", "ref_softmin_lse", 10.0),
        ("_lse_max", "ref_softmax_lse", 3.0),
        ("_smooth_max", "ref_smooth_max", 1e3),
        ("_agm_and", "ref_agm_and", None),
        ("_agm_or", "ref_agm_or", None),
        ("_new_and", "ref_new_and", 2.0),
        ("_new_or", "ref_new_or", 0.5),
    )
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


# each public aggregator, its kernel and its scale (None: agm, which has none)
_KERNELS = {
    "softmax_lse": ("_lse_max", 10.0),
    "softmin_lse": ("_lse_min", 10.0),
    "smooth_min": ("_lse_min", 10.0),
    "smooth_max": ("_smooth_max", 10.0),
    "agm_and": ("_agm_and", None),
    "agm_or": ("_agm_or", None),
    "new_and": ("_new_and", 2.0),
    "new_or": ("_new_or", 2.0),
}


@pytest.mark.parametrize("name", _KERNELS)
def test_public_aggregators_take_the_float_range_without_a_warning(name):
    """At +-1e308 (agm: the same rows over 1e308, at +-1) every public name
    stays as silent as evaluate and gives its kernel's value in the walk."""
    kernel, arg = _KERNELS[name]
    fn, walk = getattr(aggregators, name), _walk_kernel(getattr(aggregators, kernel))
    block = np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308], [-1e308, -1e308],
                      [1e308, 0.0], [-1e308, 0.0]])
    if arg is None:
        block = block / 1e308
    for values in [*block, block]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _call(fn, arg, values)
        want = _call(walk, arg, values)
        assert type(got) is type(want)
        assert np.array_equal(got, want, equal_nan=True)


# Prefix forms ----------------------------------------------------------------


def _assert_same_bits(got, want):
    """Equal values and signs of zero; a NaN's sign follows the operand order
    the compiled loop picks, and no output shows it."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


def _reduce_each(terms, lengths):
    """The reference: np.add.reduce over each row's first L terms, copied."""
    rows = terms if terms.shape[-2] > 1 else np.repeat(terms, len(lengths), axis=-2)
    return np.stack([np.add.reduce(rows[..., i, :m].copy(), axis=-1)
                     for i, m in enumerate(lengths)], axis=-1)


def test_pairwise_sums_equal_np_add_reduce():
    """Lengths on both sides of numpy's pairwise boundaries (8, 128 and
    256), on one row per length and on one row that every length reads."""
    rng = np.random.default_rng(28)
    width = 399
    lengths = np.arange(1, width + 1)
    mixed = rng.standard_normal((3, width)) * 10.0 ** rng.integers(-8, 17, (3, width))
    extreme = rng.choice([1e308, -1e308, np.inf, -np.inf, np.nan, 1.0, -0.0], (3, width))
    for terms in (rng.uniform(-1, 1, (3, width)), mixed, extreme):
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_same_bits(aggregators._pairwise_sums(terms[:, None, :], lengths),
                              _reduce_each(terms[:, None, :], lengths))
            for _ in range(5):  # a block whose rows each have a length
                block_lengths = rng.integers(1, width + 1, int(rng.integers(1, 40)))
                block = rng.choice(terms.ravel(), (2, len(block_lengths), width))
                _assert_same_bits(aggregators._pairwise_sums(block, block_lengths),
                                  _reduce_each(block, block_lengths))


@pytest.mark.parametrize("width", [1, 5, 7, 8, 9, 16, 130, 300])
def test_pairwise_sums_of_negative_zeros_equal_np_add_reduce(width):
    """Only -0.0: the sign numpy gives, short rows and long ones alike."""
    terms = np.full((2, 1, width), -0.0)
    lengths = np.arange(1, width + 1)
    _assert_same_bits(aggregators._pairwise_sums(terms, lengths), _reduce_each(terms, lengths))


_PREFIX_FORMS = [
    ("_lse_max", "_lse_max_prefix"),
    ("_lse_min", "_lse_min_prefix"),
    ("_smooth_max", "_smooth_max_prefix"),
    ("_agm_and", "_agm_and_prefix"),
    ("_agm_or", "_agm_or_prefix"),
]


@pytest.mark.parametrize("kernel,form", _PREFIX_FORMS)
def test_prefix_forms_equal_a_kernel_call_per_prefix(kernel, form):
    """Column d - da of form(spans, da) == kernel(spans[:, : d + 1]), as the
    walk's Until reduced each window offset's prefix before."""
    kernel, form = getattr(aggregators, kernel), getattr(aggregators, form)
    scales = (None,) if "agm" in form.__name__ else (1e-3, 10.0, 1e3, 1e305)
    rng = np.random.default_rng(len(form.__name__))
    for case in range(24):
        width = int(rng.choice([1, 2, 7, 8, 9, 64, 129, 151, 257, 300]))
        n = int(rng.integers(1, 5))
        lhs = rng.uniform(-1.2, 1.2, n + width - 1) * 10.0 ** rng.integers(-3, 4)
        if case % 3 == 0:
            lhs[rng.random(len(lhs)) < 0.2] = rng.choice([1e308, -1e308])
        spans = semantics._windows(lhs, width)
        for da in sorted({0, int(rng.integers(width)), width - 1}):
            for k in scales:
                arg = () if k is None else (k,)
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    want = np.stack([kernel(spans[:, : d + 1], *arg) for d in range(da, width)], -1)
                    got = form(spans, da, *arg)
                _assert_same_bits(got, want)
