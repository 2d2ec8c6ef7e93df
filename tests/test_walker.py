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
    InsufficientHorizonError,
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
from stlopt.trace import GRID_TOL

from oracle import brute_sat, brute_space, last_read, ref_robustness, ref_satisfies, ref_time

K, NU = 10.0, 2.0


def assert_matches_reference(f, x, t, scales, avg_ok):
    assert satisfies(f, x, t) == ref_satisfies(f, x, t)
    r = evaluate(MetricConfig("time"), f, x, t).value
    assert (r, math.copysign(1, r)) == ref_time(f, x, t)
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
        p = task.bounds.from_unit(rng.uniform(size=9))
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


def test_until_under_min_max_takes_every_prefix_from_one_running_extremum(monkeypatch):
    """Space, the Boolean oracle and time reduce no prefix on its own; a
    smoothed semantics reduces each of the 151 and stacks them once."""
    columns = []
    stack = semantics._stack

    def counting_stack(cols):
        columns.append(len(cols))
        return stack(cols)

    monkeypatch.setattr(semantics, "_stack", counting_stack)
    x = long_trace()
    for text in ("(x > -0.9 U[0,1.5] y > 0.4)", "!(x > -0.9 U[0,1.5] y > 0.4)"):
        f = parse_formula(text)
        evaluate(MetricConfig("space"), f, x, 0.0)
        satisfies(f, x, 0.0)
        evaluate(MetricConfig("time"), f, x, 0.0)
    assert columns == []
    evaluate(MetricConfig("lse", k=K), parse_formula("(x > -0.9 U[0,1.5] y > 0.4)"), x, 0.0)
    assert columns == [151]


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


# The walk is the only coverage check ------------------------------------------

SCALES = {"x": 2.0, "y": 2.0}
WALKED = ("space", "lse", "smooth", "agm", "avg", "new")


def truncations(x):
    """x cut to its first n samples, for every n from 1 to its length."""
    return [Trace(x.channels, x.t0, x.dt, x.samples[:n]) for n in range(1, x.n_samples + 1)]


@pytest.mark.parametrize("avg_safe", [False, True])
def test_the_walk_raises_exactly_where_the_horizon_rule_did(avg_safe):
    """On grid intervals, every semantics raises InsufficientHorizonError
    exactly when t + horizon(f) > end_time + GRID_TOL, the rule that each
    evaluation once checked by folding horizon(f) before the walk, and
    otherwise gives the per-sample reference value."""
    rng = np.random.default_rng(1400 + avg_safe)
    kinds = [kind for kind in ("time",) + WALKED if avg_safe or kind != "avg"]
    raised = scored = 0
    for _ in range(200):
        f, full = random_instance(rng, avg_safe=avg_safe)
        for x in truncations(full):
            t = x.t0 + int(rng.integers(0, x.n_samples)) * x.dt
            if t + horizon(f) <= x.end_time + GRID_TOL:
                assert_matches_reference(f, x, t, SCALES, avg_safe)
                scored += 1
                continue
            raised += 1
            with pytest.raises(InsufficientHorizonError):
                satisfies(f, x, t)
            for kind in kinds:
                with pytest.raises(InsufficientHorizonError):
                    evaluate(MetricConfig(kind, agm_scales=SCALES), f, x, t)
    assert raised > 500 and scored > 500


def test_an_interval_off_the_grid_needs_only_the_samples_it_reads():
    # the horizon rule asked for samples to 0.25 s, one past the last read
    f = parse_formula("F[0,0.25](x > 0)")
    x = Trace(("x",), 0.0, 0.1, [[0.1], [0.5], [0.2]])
    assert evaluate(MetricConfig("space"), f, x, 0.0).value == 0.5 == brute_space(f, x, 0.0)
    assert satisfies(f, x, 0.0) and brute_sat(f, x, 0.0)
    # random formulas, whose intervals are multiples of 0.5 s, on a 0.3 s grid
    rng = np.random.default_rng(1401)
    rule_rejected = 0
    for _ in range(200):
        f, _ = random_instance(rng)
        n = math.ceil(horizon(f) / 0.3) + 1  # enough to hold every window whole
        full = Trace(("x", "y"), 0.0, 0.3, rng.uniform(-1.0, 1.0, size=(n, 2)))
        need = last_read(f, full, 0) + 1
        for x in truncations(full):
            if x.n_samples < need:
                with pytest.raises(InsufficientHorizonError):
                    satisfies(f, x, 0.0)
                with pytest.raises(InsufficientHorizonError):
                    evaluate(MetricConfig("space"), f, x, 0.0)
                continue
            assert satisfies(f, x, 0.0) == brute_sat(f, x, 0.0)
            assert evaluate(MetricConfig("space"), f, x, 0.0).value == brute_space(f, x, 0.0)
            rule_rejected += horizon(f) > x.end_time + GRID_TOL
    assert rule_rejected > 50


def test_time_robustness_scans_to_the_last_shift_the_trace_holds():
    # the horizon rule stopped the scan at t = 0 (value 0.0): t = 0.1 + 0.25
    # passes the end at 0.3, although the window there reads samples 1-3 only
    f = parse_formula("F[0,0.25](x > 0)")
    x = Trace(("x",), 0.0, 0.1, [[0.1], [0.5], [0.2], [0.3]])
    assert satisfies(f, x, 0.0) and satisfies(f, x, 0.1)
    r = evaluate(MetricConfig("time"), f, x, 0.0).value
    assert r == 0.1 and (r, 1.0) == ref_time(f, x, 0.0)


def test_off_the_grid_the_time_scan_ends_where_the_walk_does(monkeypatch):
    """Random formulas, whose intervals are multiples of 0.5 s, on a 0.3 s
    grid: the time value is the per-shift reference, and the scan covers
    exactly the indices at which satisfies does not raise."""
    ranges = []
    walk = semantics._walk

    def recording_walk(f, x, lo, hi, sem, positive=True):
        ranges.append((lo, hi))
        return walk(f, x, lo, hi, sem, positive)

    monkeypatch.setattr(semantics, "_walk", recording_walk)
    rng = np.random.default_rng(1601)
    scored = 0
    for _ in range(200):
        f, _ = random_instance(rng)
        n = math.ceil(horizon(f) / 0.3) + int(rng.integers(1, 6))
        x = Trace(("x", "y"), 0.0, 0.3, rng.uniform(-1.0, 1.0, size=(n, 2)))
        fits = []
        for k in range(n):
            try:
                satisfies(f, x, k * 0.3)
                fits.append(k)
            except InsufficientHorizonError:
                pass
        assert fits == list(range(len(fits)))  # a prefix of the grid
        for k0 in set(rng.integers(0, n, size=3).tolist()):
            if k0 not in fits:
                with pytest.raises(InsufficientHorizonError):
                    evaluate(MetricConfig("time"), f, x, k0 * 0.3)
                continue
            ranges.clear()
            r = evaluate(MetricConfig("time"), f, x, k0 * 0.3).value
            assert ranges[0] == (k0, fits[-1])  # the scan's own walk
            assert (r, math.copysign(1, r)) == ref_time(f, x, k0 * 0.3)
            scored += 1
    assert scored > 250


def test_a_formula_that_fits_node_by_node_but_not_whole_raises():
    # at t = 0 each window, [0, 1] s, fits in the 1.5 s trace; G's window at
    # 1 s then asks for F's window up to 2 s
    f = parse_formula("G[0,1](F[0,1](x > 0))")
    x = Trace(("x",), 0.0, 0.1, np.ones((16, 1)))
    for kind in ("time", "space"):
        with pytest.raises(InsufficientHorizonError, match="past the last sample at 1.5"):
            evaluate(MetricConfig(kind), f, x, 0.0)


def test_nothing_in_semantics_folds_the_horizon(monkeypatch):
    def refuse(f):
        raise AssertionError("horizon folded during an evaluation")

    monkeypatch.setattr(semantics, "horizon", refuse)
    f = parse_formula("G[0,1](x > -0.5) & F[0.5,1.5](y < 0.5)")
    x = long_trace()
    satisfies(f, x, 0.0)
    for kind in ("time",) + WALKED:
        evaluate(MetricConfig(kind, agm_scales=SCALES), f, x, 0.0)
