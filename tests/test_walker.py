"""The range walker against the per-sample reference in oracle.py.

Every semantics must give exactly (==) the value of the recursion it
replaced: Boolean, space, time (value and the sign of a zero), avg, lse,
smooth, agm and new, on random formulas, on eq2 evaluation traces and on
long traces with wide nested windows.
"""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from stlopt import (
    MetricConfig,
    Trace,
    benchmark_eq2,
    evaluate,
    horizon,
    parse_formula,
    satisfies,
    semantics,
)
from stlopt.properties import random_instance
from stlopt.task import _min_coverage, evaluation_trace

from oracle import ref_robustness, ref_satisfies, ref_time

K, NU = 10.0, 2.0


def assert_matches_reference(f, x, t, scales, avg_ok):
    assert satisfies(f, x, t) == ref_satisfies(f, x, t)
    r = evaluate(MetricConfig("time"), f, x, t).value
    assert (r, math.copysign(1, r)) == ref_time(f, x, t)[:2]
    got = {
        "space": evaluate(MetricConfig("space"), f, x, t).value,
        "lse": evaluate(MetricConfig("lse", k=K), f, x, t).value,
        "smooth": evaluate(MetricConfig("smooth", k=K), f, x, t).value,
        "agm": evaluate(MetricConfig("agm", agm_scales=scales), f, x, t).value,
        "new": evaluate(MetricConfig("new", nu=NU), f, x, t).value,
    }
    if avg_ok:
        got["avg"] = evaluate(MetricConfig("avg"), f, x, t).value
    for kind, value in got.items():
        assert value == ref_robustness(kind, f, x, t, K, NU, scales), kind


def late_times(f, x, count):
    """count grid times, the last one the latest at which f's horizon fits."""
    last = x.n_samples - 1 - round(horizon(f) / x.dt)
    return [x.t0 + k * x.dt for k in np.linspace(0, last, count).round().astype(int)]


@pytest.mark.parametrize("avg_safe", [False, True])
def test_random_instances(avg_safe):
    rng = np.random.default_rng(2013 + avg_safe)
    for _ in range(250):
        f, x = random_instance(rng, avg_safe=avg_safe)
        for t in late_times(f, x, 2):
            assert_matches_reference(f, x, t, {"x": 2.0, "y": 2.0}, avg_safe)


def test_eq2_evaluation_traces():
    task = benchmark_eq2()
    rng = np.random.default_rng(7)
    # near the region centres the verdicts and the branches of agm and new vary
    near = np.array([3.5, 5.5, 4.5, 0.25, 0.65, 0.6, 0.6, 0.75, 0.2])
    verdicts = []
    for i in range(60):
        p = task.bounds.sample(rng)
        if i % 2:
            spread = np.array([0.5] * 3 + [0.03] * 6)
            p = np.clip(near + spread * rng.standard_normal(9), task.bounds.lower, task.bounds.upper)
        if sum(p[:3]) < _min_coverage(task.formula):
            continue
        x = evaluation_trace(task, p)
        assert_matches_reference(task.formula, x, 0.0, {"x": 1.0, "y": 1.0}, True)
        verdicts.append(satisfies(task.formula, x, 0.0))
    assert len(verdicts) >= 40 and any(verdicts) and not all(verdicts)


LONG_FORMULAS = (
    ("G[0,1](F[0,0.25](x > 0.2))", False),
    ("F[0,1](G[0,0.25](y < -0.2))", False),
    ("(x > -0.5 U[0,0.6] y > 0.4)", False),
    ("!(G[0.1,0.5](x > 0) & (y > 0.1 U[0.25,0.5] !(x < -0.3)))", False),
    ("F[0,2](x > 0.4 & y > 0)", True),
    ("G[0,2](x < 0.7 | y > -0.7) & !(F[0.5,1.5](y < -0.6))", True),
    # Until with 101 and 151 window offsets, the first from da = 50; under G
    # the Until node is asked for several rows, as in the time scan
    ("(y > -0.6 U[0.5,1.5] x > 0.3)", False),
    ("(x > -0.9 U[0,1.5] y > 0.4)", False),
    ("G[0,0.05](!(y > -0.6 U[0.5,1.5] x > 0.3))", False),
)


def long_trace():
    """A 401-sample two-channel trace at dt = 0.01: noisy sines."""
    rng = np.random.default_rng(31)
    n, dt = 401, 0.01
    t = np.arange(n) * dt
    freq = rng.uniform(0.5, 2.0, size=(2, 1))
    samples = np.sin(2 * np.pi * freq * t + rng.uniform(0, 6, size=(2, 1))).T
    return Trace(("x", "y"), 0.0, dt, np.round(samples + 0.03 * rng.standard_normal((n, 2)), 6))


@pytest.mark.parametrize("text,avg_ok", LONG_FORMULAS)
def test_long_traces_with_wide_windows(text, avg_ok):
    f = parse_formula(text)
    x = long_trace()
    # late times keep the per-shift reference scan of time robustness short
    last = x.n_samples - 1 - round(horizon(f) / x.dt)
    for k in (last - 30, last - 12, last):
        assert_matches_reference(f, x, k * x.dt, {"x": 1.0, "y": 1.0}, avg_ok)


def test_until_takes_one_view_of_each_operand(monkeypatch):
    """One sliding window over the left operand serves every window offset."""
    widths = []
    windows = semantics._windows

    def counting_view(values, width):
        widths.append(width)
        return windows(values, width)

    monkeypatch.setattr(semantics, "_windows", counting_view)
    f = parse_formula("(y > -0.6 U[0.5,1.5] x > 0.3)")
    evaluate(MetricConfig("space"), f, long_trace(), 0.0)
    # the left operand's prefixes (up to 151 samples), the right operand's
    # 101 offsets
    assert sorted(widths) == [101, 151]


@pytest.mark.parametrize("width", [1, 2, 7, 21])
@pytest.mark.parametrize("contiguous", [True, False])
def test_windows_equal_sliding_window_view(width, contiguous):
    rng = np.random.default_rng(width)
    base = rng.uniform(-1, 1, size=(21, 2))
    v = np.ascontiguousarray(base[:, 1]) if contiguous else base[:, 1]
    assert v.flags.c_contiguous == contiguous
    for w in (width, len(v)):
        got = semantics._windows(v, w)
        want = sliding_window_view(v, w)
        assert got.shape == want.shape == (len(v) - w + 1, w)
        assert np.array_equal(got, want)
        assert not got.flags.writeable


@pytest.mark.parametrize("n_cols", [1, 2, 3, 8, 9, 21])
def test_stack_equals_np_stack_on_the_last_axis(n_cols):
    rng = np.random.default_rng(n_cols)
    for n_rows in (1, 5, 151):
        cols = [rng.uniform(-1, 1, n_rows) for _ in range(n_cols)]
        got = semantics._stack(cols)
        want = np.stack(cols, axis=-1)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)
        # same C-ordered block, so a last-axis reduction sums in the same order
        assert np.array_equal(np.add.reduce(got, axis=-1), np.sum(want, axis=-1))
