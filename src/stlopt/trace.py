"""Uniformly sampled multi-channel traces and window index arithmetic."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    EmptyWindowError,
    InsufficientHorizonError,
    TraceError,
    UnalignedTimeError,
    UnknownChannelError,
)
from .formula import Interval

GRID_TOL = 1e-9  # absolute tolerance (seconds) when matching times to the grid
CSV_BLOCK_ROWS = 4096  # rows formatted per write: a long trace never exists whole as text


@dataclass(frozen=True, eq=False)
class Trace:
    """Signal sampled at t0 + k*dt; one row per step, one column per channel.

    The channels are the header of the trace's CSV form 'time,<ch1>,...',
    so each needs a name of its own (column() reads the first match) that
    the CSV reads back as written: no comma, line break or outer whitespace.
    """

    channels: tuple[str, ...]
    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("sample period dt must be positive")
        # a private copy: the caller's array stays writable, and writing it
        # cannot put NaN into a trace that has passed the finiteness check
        samples = np.array(self.samples, dtype=float, order="C")
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-D array (steps x channels)")
        if samples.shape[0] < 1:
            raise ValueError("trace needs at least one sample")
        if samples.shape[1] != len(self.channels):
            raise ValueError(
                f"{samples.shape[1]} columns for {len(self.channels)} channels"
            )
        if not self.channels:
            raise ValueError("trace needs at least one channel")
        for i, name in enumerate(self.channels):
            if not name:
                raise ValueError(f"header column {i + 2} has no channel name")
            if name in self.channels[:i]:
                raise ValueError(f"duplicate channel {name!r} in header")
            if name != name.strip() or "," in name or "\n" in name or "\r" in name:
                raise ValueError(
                    f"channel name {name!r} has a comma, a line break or surrounding whitespace"
                )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (no NaN or infinity)")
        if not math.isfinite(float(self.t0) + (samples.shape[0] - 1) * float(self.dt)):
            raise ValueError(f"t0 {self.t0} and dt {self.dt} give a non-finite end time")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def end_time(self) -> float:
        return self.t0 + (self.n_samples - 1) * self.dt

    def column(self, channel: str) -> np.ndarray:
        try:
            j = self.channels.index(channel)
        except ValueError:
            raise UnknownChannelError(
                f"unknown channel {channel!r}; trace has {list(self.channels)}"
            ) from None
        return self.samples[:, j]

    def time_index(self, t: float) -> int:
        """Grid index of time t; raises if t is non-finite, off-grid or outside
        the trace."""
        if not math.isfinite(t):
            raise UnalignedTimeError(f"time {t} is not finite")
        # the range check comes before round(), which overflows on a quotient
        # of inf (t = 1e308, say); every s in it rounds to 0 .. n_samples - 1
        s = (t - self.t0) / self.dt
        if not -0.5 <= s < self.n_samples - 0.5:
            raise UnalignedTimeError(
                f"time {t} outside the sampled range [{self.t0}, {self.end_time}]"
            )
        k = round(s)
        if abs(t - (self.t0 + k * self.dt)) > GRID_TOL:
            raise UnalignedTimeError(
                f"unaligned time {t}: not within {GRID_TOL} s of the sample grid"
            )
        return k


def window_indices(x: Trace, t: float, interval: Interval) -> np.ndarray:
    """Sample indices k with t+a <= t0 + k*dt <= t+b (tolerance GRID_TOL).

    Raises EmptyWindowError when the grid skips the whole window and
    InsufficientHorizonError when the window reaches past the trace end.
    """
    # compared as quotients before ceil/floor, which overflow on inf: for an
    # integer k, floor(s) >= k exactly when s >= k
    s_lo = (t + interval.a - GRID_TOL - x.t0) / x.dt
    s_hi = (t + interval.b + GRID_TOL - x.t0) / x.dt
    if s_hi >= x.n_samples:
        raise InsufficientHorizonError(
            f"insufficient horizon: window [{t + interval.a}, {t + interval.b}] "
            f"extends past the last sample at {x.end_time}"
        )
    k_lo = math.ceil(max(s_lo, 0.0))
    if s_hi < k_lo:
        raise EmptyWindowError(
            f"empty window: no sample in [{t + interval.a}, {t + interval.b}] "
            f"with dt={x.dt} (sampling-rate/spec mismatch)"
        )
    return np.arange(k_lo, math.floor(s_hi) + 1)


def load_trace_csv(path: str) -> Trace:
    """Read a 'time,<ch1>,<ch2>,...' CSV; rejects non-uniform sampling."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise TraceError(f"{path}: cannot read trace: {exc.strerror}") from None
    with fh:
        header = fh.readline().strip()
        names = [c.strip() for c in header.split(",")]
        if not names or names[0] != "time" or len(names) < 2:
            raise TraceError(f"{path}: header must be 'time,<ch1>,...', got {header!r}")
        try:
            with warnings.catch_warnings():
                # loadtxt warns on an empty body; it is reported below instead
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise TraceError(f"{path}: {exc}") from None
    if data.shape[0] < 1:
        raise TraceError(f"{path}: no data rows")
    if data.shape[1] != len(names):
        raise TraceError(f"{path}: row width does not match header")
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise TraceError(f"{path}: non-finite value in data row {int(np.argmax(bad)) + 1}")
    times = data[:, 0]
    # finite times can span more than a float holds, where np.diff overflows
    if not math.isfinite(float(times.max()) - float(times.min())):
        raise TraceError(f"{path}: time column span is not finite")
    if data.shape[0] == 1:
        dt = 1.0  # single sample: period is irrelevant but must be positive
    else:
        diffs = np.diff(times)
        if np.any(diffs <= 0):
            raise TraceError(f"{path}: time column must be strictly increasing")
        # the decimals the file shows, divided exactly and rounded once (int /
        # int): times 0.0 .. 0.3 give 0.1, binary gives 0.09999999999999999
        from decimal import Decimal  # here: only a CSV load needs it

        (p, q), (p0, q0) = (Decimal(repr(v)).as_integer_ratio() for v in times[[-1, 0]].tolist())
        try:
            dt = (p * q0 - p0 * q) / (q * q0 * (len(times) - 1))
        except OverflowError:  # the decimals span past the float range, binary not
            raise TraceError(f"{path}: time column span is not finite") from None
        if np.any(np.abs(diffs - dt) > 1e-6 * dt):
            raise TraceError(
                f"{path}: non-uniform sampling (relative tolerance 1e-6 exceeded)"
            )
        dt = _written_step(times, dt)
    try:
        return Trace(tuple(names[1:]), float(times[0]), dt, data[:, 1:])
    except ValueError as exc:  # a channel name that is empty or repeated
        raise TraceError(f"{path}: {exc}") from None


def _written_step(times: np.ndarray, dt: float) -> float:
    """The step with which save_trace_csv would write exactly these times,
    times[0] + step * k: the shortest decimal rounding of the decimal dt that
    does, else times[1] - times[0] if it does.  Else, unless every time is a
    short decimal (at most 12 significant digits, which a written float time
    almost never is) as in a hand-made 0.7, 1.4, 2.1, the steps that write
    every time form an interval, since each written time grows with the
    step: it is bisected for between dt/2 and 2dt, and the shortest decimal
    inside it is taken, or its lower end.  A hand-made file, or one that no
    step writes, keeps the decimal dt."""
    k = np.arange(len(times))
    steps = [float(f"{dt:.{digits}g}") for digits in range(1, 18)] + [float(times[1] - times[0])]
    found = next((s for s in steps if np.array_equal(times[0] + s * k, times)), None)
    if found is not None:
        return found
    if all(float(f"{t:.12g}") == t for t in times.tolist()):
        return dt
    lo = _first_step(lambda s: np.all(times[0] + s * k >= times), dt / 2, 2 * dt)
    hi = _first_step(lambda s: not np.all(times[0] + s * k <= times), dt / 2, 2 * dt)
    if not np.array_equal(times[0] + lo * k, times):
        return dt
    from decimal import ROUND_CEILING, Context, Decimal  # here: only a fallback needs it

    for digits in range(1, 17):  # 17 digits name every float: lo itself
        short = float(Context(prec=digits, rounding=ROUND_CEILING).plus(Decimal(lo)))
        if short < hi:
            return short
    return lo


def _first_step(holds, lo: float, hi: float) -> float:
    """The least float s in [lo, hi] for which holds(s), or hi, given that
    holds is monotone in s.  Positive floats order as their bit patterns,
    whose midpoints are taken on Python ints: numpy's int64 sum of two of
    them overflows from 2.0 up."""
    a, b = (int(np.float64(x).view(np.int64)) for x in (lo, hi))
    while a < b:
        mid = (a + b) // 2
        if holds(float(np.int64(mid).view(np.float64))):
            b = mid
        else:
            a = mid + 1
    return float(np.int64(a).view(np.float64))


def save_trace_csv(trace: Trace, path: str) -> None:
    """Write the 'time,<ch1>,...' CSV that load_trace_csv reads; every value
    is the repr of its float, a block of CSV_BLOCK_ROWS rows per write."""
    row = ",".join(["%r"] * (1 + len(trace.channels))) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time," + ",".join(trace.channels) + "\n")
        for lo in range(0, trace.n_samples, CSV_BLOCK_ROWS):
            block = trace.samples[lo : lo + CSV_BLOCK_ROWS]
            times = trace.t0 + trace.dt * np.arange(lo, lo + len(block))
            cells = np.column_stack((times, block)).ravel().tolist()
            fh.write((row * len(block)) % tuple(cells))
