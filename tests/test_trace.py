import math
import warnings

import numpy as np
import pytest

from stlopt import (
    EmptyWindowError,
    Interval,
    InsufficientHorizonError,
    MetricConfig,
    Trace,
    TraceError,
    UnalignedTimeError,
    UnknownChannelError,
    evaluate,
    load_trace_csv,
    parse_formula,
    satisfies,
    save_trace_csv,
    window_indices,
)
from stlopt.semantics import METRIC_KINDS
from conftest import make_trace


def test_construction_invariants():
    with pytest.raises(ValueError, match="dt"):
        Trace(("x",), 0.0, 0.0, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="at least one"):
        Trace(("x",), 0.0, 1.0, np.zeros((0, 1)))
    with pytest.raises(ValueError, match="columns"):
        Trace(("x", "y"), 0.0, 1.0, np.zeros((3, 1)))


@pytest.mark.parametrize(
    "channels,error",
    [
        (("x", "x"), "duplicate channel 'x' in header"),
        (("x", "y", "x"), "duplicate channel 'x' in header"),
        (("",), "header column 2 has no channel name"),
        (("x", ""), "header column 3 has no channel name"),
    ],
)
def test_construction_rejects_a_duplicate_or_empty_channel_name(channels, error):
    # ("x", "x") once scored x > 0 from the first column only
    with pytest.raises(ValueError, match=f"^{error}$"):
        Trace(channels, 0.0, 1.0, np.ones((2, len(channels))))


@pytest.mark.parametrize(
    "t0,dt,n",
    [
        (math.nan, 0.1, 3),
        (math.inf, 0.1, 3),
        (-math.inf, 0.1, 1),
        (0.0, math.nan, 3),
        (0.0, math.nan, 1),  # NaN passes dt <= 0
        (0.0, math.inf, 2),
        (0.0, math.inf, 1),
        (1e308, 1e308, 3),  # finite t0 and dt whose end time overflows
    ],
)
def test_construction_rejects_a_grid_that_is_not_finite(t0, dt, n):
    with pytest.raises(ValueError, match="non-finite end time$"):
        Trace(("x",), t0, dt, np.zeros((n, 1)))


def test_construction_leaves_the_callers_array_writable():
    samples = np.zeros((3, 1))
    trace = Trace(("x",), 0.0, 1.0, samples)
    assert samples.flags.writeable
    samples[1, 0] = 5.0
    assert not trace.samples.flags.writeable and trace.samples[1, 0] == 0.0


def test_writing_the_callers_base_cannot_change_a_trace():
    base = np.zeros((4, 2))
    trace = Trace(("x", "y"), 0.0, 1.0, base[1:])  # a contiguous view of base
    base[2] = np.nan
    assert np.all(np.isfinite(trace.samples))


@pytest.mark.parametrize("values", [[0.1, np.nan, 0.3], [np.nan, 0.1, 0.3], [0.1, np.inf, 0.3]])
def test_construction_rejects_non_finite_samples(values):
    # NaN in the middle once gave F[0,2](x > 0.2) the value 0.1, satisfied
    with pytest.raises(ValueError, match="finite"):
        make_trace(values)


def test_samples_are_frozen():
    tr = make_trace([1.0, 2.0])
    with pytest.raises(ValueError):
        tr.samples[0, 0] = 5.0


def test_time_index_alignment():
    tr = make_trace([0.0, 1.0, 2.0], dt=0.5)
    assert tr.time_index(0.5) == 1
    assert tr.time_index(0.5 + 5e-10) == 1
    with pytest.raises(UnalignedTimeError, match="unaligned"):
        tr.time_index(0.25)
    with pytest.raises(UnalignedTimeError, match="outside"):
        tr.time_index(7.0)
    # at t = ±1e308, (t - t0) / dt overflows to inf, which round() once
    # turned into an OverflowError (exit 1 from the CLI)
    for t in (1e308, -1e308, 1e6, -0.5, 1.5):
        with pytest.raises(UnalignedTimeError, match=r"outside the sampled range \[0\.0, 1\.0\]"):
            tr.time_index(t)
    assert tr.time_index(1.0 + 5e-10) == 2 and tr.time_index(-5e-10) == 0


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_non_finite_time_rejected(t):
    # inf once overflowed in round() and NaN surfaced as a plain ValueError
    tr = make_trace([0.1, 0.2, 0.3], dt=0.5)
    f = parse_formula("F[0,0.5](x > 0.2)")
    with pytest.raises(UnalignedTimeError, match="not finite"):
        tr.time_index(t)
    with pytest.raises(UnalignedTimeError, match="not finite"):
        satisfies(f, tr, t)
    for kind in METRIC_KINDS:
        with pytest.raises(UnalignedTimeError, match="not finite"):
            evaluate(MetricConfig(kind, agm_scales={"x": 1.0}), f, tr, t)


def test_unknown_channel():
    tr = make_trace([0.0])
    with pytest.raises(UnknownChannelError, match="unknown channel"):
        tr.column("z")


def test_window_indices_examples():
    tr = make_trace(np.zeros(6), dt=1.0)
    assert window_indices(tr, 0.0, Interval(3, 4)).tolist() == [3, 4]

    tr2 = make_trace(np.zeros(8), dt=0.5)
    assert window_indices(tr2, 1.0, Interval(1, 2)).tolist() == [4, 5, 6]
    assert window_indices(tr2, -1e308, Interval(0, 1e308)).tolist() == [0]


def test_window_empty_when_grid_skips():
    tr = make_trace(np.zeros(5), dt=5.0)
    with pytest.raises(EmptyWindowError, match="empty window"):
        window_indices(tr, 0.0, Interval(1, 2))


def test_window_past_trace_end():
    tr = make_trace(np.zeros(3), dt=1.0)
    with pytest.raises(InsufficientHorizonError):
        window_indices(tr, 0.0, Interval(2, 5))


@pytest.mark.parametrize(
    "t,interval,error",
    [
        (0.0, Interval(0, 1e308), InsufficientHorizonError),
        (0.0, Interval(0, math.inf), InsufficientHorizonError),
        (0.0, Interval(1e308, math.inf), InsufficientHorizonError),
        (1e308, Interval(0, 1), InsufficientHorizonError),
        (-1e308, Interval(0, 1), EmptyWindowError),
    ],
)
def test_window_bounds_that_overflow_the_grid(t, interval, error):
    # ceil/floor of an infinite quotient once leaked an OverflowError
    tr = make_trace(np.zeros(3), dt=0.5)
    with pytest.raises(error):
        window_indices(tr, t, interval)


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "trace.csv")
    tr = make_trace(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), dt=0.1, channels=("x", "y"))
    save_trace_csv(tr, path)
    back = load_trace_csv(path)
    assert back.channels == ("x", "y")
    assert back.dt == pytest.approx(0.1, rel=1e-12)
    np.testing.assert_array_equal(back.samples, tr.samples)


def test_csv_rejects_non_uniform(tmp_path):
    path = str(tmp_path / "bad.csv")
    path_obj = tmp_path / "bad.csv"
    path_obj.write_text("time,x\n0.0,1\n1.0,2\n2.5,3\n")
    with pytest.raises(TraceError, match="non-uniform"):
        load_trace_csv(path)


def test_csv_rejects_decreasing_time(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,x\n0.0,1\n2.0,2\n1.0,3\n")
    with pytest.raises(TraceError, match="strictly increasing"):
        load_trace_csv(str(p))


def test_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,x\n0.0,1\n")
    with pytest.raises(TraceError, match="header"):
        load_trace_csv(str(p))


@pytest.mark.parametrize(
    "header,error",
    [
        ("time,x,x", "duplicate channel 'x' in header"),
        ("time,x,y,x", "duplicate channel 'x' in header"),
        ("time, y ,y", "duplicate channel 'y' in header"),
        ("time,x,", "header column 3 has no channel name"),
        ("time,,x", "header column 2 has no channel name"),
    ],
)
def test_csv_rejects_a_duplicate_or_empty_channel_name(tmp_path, header, error):
    # a repeated name would score only its first column
    p = tmp_path / "dup.csv"
    width = header.count(",")
    p.write_text(header + "\n" + "0.0" + ",1.0" * width + "\n")
    with pytest.raises(TraceError, match=rf"dup\.csv: {error}$"):
        load_trace_csv(str(p))


@pytest.mark.parametrize("body", ["", "\n\n"])
def test_csv_without_data_rows(tmp_path, body):
    p = tmp_path / "empty.csv"
    p.write_text("time,x\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's empty-input warning must not escape
        with pytest.raises(TraceError, match=r"empty\.csv: no data rows$"):
            load_trace_csv(str(p))


def test_csv_single_row(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("time,x\n0.0,1.5\n")
    tr = load_trace_csv(str(p))
    assert tr.n_samples == 1 and tr.samples[0, 0] == 1.5


@pytest.mark.parametrize("times", [("-1e308", "1e308"), ("1e308", "-1e308", "1e308")])
def test_csv_rejects_a_time_span_that_is_not_finite(tmp_path, times):
    # dt came out as inf, after numpy's overflow warnings from np.diff
    p = tmp_path / "span.csv"
    p.write_text("time,x\n" + "".join(f"{t},1.0\n" for t in times))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceError, match=r"span\.csv: time column span is not finite$"):
            load_trace_csv(str(p))


@pytest.mark.parametrize("cells", [("0.1", "nan", "0.3"), ("nan", "0.1", "0.3"), ("0.1", "-inf", "0.3")])
def test_csv_rejects_non_finite_samples(tmp_path, cells):
    p = tmp_path / "nan.csv"
    p.write_text("time,x\n" + "".join(f"{i}.0,{c}\n" for i, c in enumerate(cells)))
    with pytest.raises(TraceError, match="non-finite value in data row"):
        load_trace_csv(str(p))
