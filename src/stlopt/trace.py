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


@dataclass(frozen=True, eq=False)
class Trace:
    """Signal sampled at t0 + k*dt; one row per step, one column per channel.

    The channels are the header of the trace's CSV form 'time,<ch1>,...',
    so each needs a name of its own: column() reads the first match.
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
        for i, name in enumerate(self.channels):
            if not name:
                raise ValueError(f"header column {i + 2} has no channel name")
            if name in self.channels[:i]:
                raise ValueError(f"duplicate channel {name!r} in header")
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
        dt = float((times[-1] - times[0]) / (len(times) - 1))
        if np.any(np.abs(diffs - dt) > 1e-6 * dt):
            raise TraceError(
                f"{path}: non-uniform sampling (relative tolerance 1e-6 exceeded)"
            )
    try:
        return Trace(tuple(names[1:]), float(times[0]), dt, data[:, 1:])
    except ValueError as exc:  # a channel name that is empty or repeated
        raise TraceError(f"{path}: {exc}") from None


def save_trace_csv(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time," + ",".join(trace.channels) + "\n")
        for t, row in zip(trace.t0 + trace.dt * np.arange(trace.n_samples), trace.samples):
            cells = [repr(float(t))] + [repr(float(v)) for v in row]
            fh.write(",".join(cells) + "\n")
