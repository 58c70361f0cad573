"""Poisson arrival stream simulation and ground-truth type probabilities.

The rate functions' scan grid, piece lookup (`RateStack`) and expected
counts live in `model`."""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInstance
from .model import (
    GRID_DT_DEFAULT,
    ArrivalModel,
    RateFunction,
    RateStack,
    StationaryArrivals,
    scan_grid,
    substream,
)

__all__ = [
    "ArrivalSequence",
    "HourlyArrivals",
    "sample_stationary_stream",
    "sample_nonstationary_stream",
    "sample_stream",
    "type_probability_matrix",
    "rate_extrema",
]

_BLOCK = 1 << 16  # arrivals per block in a horizon-long pass that is not an output


def _blocks(stop: int, start: int = 0):
    """The [lo, hi) bounds that cut range(start, stop) into _BLOCK-long blocks."""
    for lo in range(start, stop, _BLOCK):
        yield lo, min(lo + _BLOCK, stop)


def _index_dtype(count: int) -> np.dtype:
    """The narrowest signed integer dtype that holds -1 through `count`.

    Per-arrival type and item indices take this dtype, with `count` the
    number of types or items: an index, the null item -1, and an item
    index plus one (a CSV's item column) all fit, so none of them wraps.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if count <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


class _Stream:
    """What every arrival stream has: per-arrival `types` and its length."""

    types: np.ndarray

    def __len__(self) -> int:
        return self.types.size

    def check_types(self, m: int) -> None:
        """Raise InvalidInstance unless every type is one of m types."""
        if self.types.size and (self.types.min() < 0 or self.types.max() >= m):
            raise InvalidInstance(f"arrival types must lie in [0, {m})")


@dataclass(frozen=True, eq=False)
class ArrivalSequence(_Stream):
    """Realized arrival stream: times in hours, 0-based type indices.

    The samplers give the types in `_index_dtype(m)` for m types (int8 up
    to 127 types). Types of any signed integer dtype are kept as given;
    others, unsigned ones included, are converted to int64, so sums with
    signed int64 keys stay int64.
    """

    times: np.ndarray
    types: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        types = np.asarray(self.types)
        if types.dtype.kind != "i":
            types = types.astype(np.int64)
        object.__setattr__(self, "types", types)
        if self.times.shape != self.types.shape:
            raise ValueError("times and types must have equal length")
        if self.times.size > 1 and np.any(self.times[1:] < self.times[:-1]):
            raise ValueError("arrival times must be non-decreasing")

    def slice(self, lo: int, hi: int) -> "ArrivalSequence":
        """Contiguous sub-stream [lo, hi)."""
        return ArrivalSequence(times=self.times[lo:hi], types=self.types[lo:hi])

    def hour_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The int64 hour floor(t) and arrival count of each nonempty hour,
        in order, read from the times one _BLOCK at a time."""
        times = self.times
        return _hour_runs(times[lo:hi] for lo, hi in _blocks(times.size))


@dataclass(frozen=True, eq=False)
class HourlyArrivals(_Stream):
    """Realized arrival stream without times: each nonempty hour floor(t)
    (int64, increasing) with its arrival count (int64, at least 1), and
    the per-arrival types in arrival order, as `ArrivalSequence` keeps
    them. It holds 16 bytes per nonempty hour where the times take 8 per
    arrival, and it is all the arrivals histogram reads.
    """

    hours: np.ndarray
    counts: np.ndarray
    types: np.ndarray

    def __post_init__(self):
        if int(self.counts.sum()) != self.types.size:
            raise ValueError("hour counts must sum to the number of types")

    def hour_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The stream's (hours, counts)."""
        return self.hours, self.counts


def _hour_runs(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The int64 hour floor(t) and arrival count of each nonempty hour of
    `blocks`, consecutive arrays of non-decreasing times, in order; an hour
    that spans a block edge is one run. The runs are appended to one
    growing buffer per column, which the returned arrays view, so no
    column is copied whole at the end."""
    hours, counts = array("q"), array("q")
    for block in blocks:
        floor = np.floor(block)
        starts = np.append(0, np.flatnonzero(floor[1:] != floor[:-1]) + 1)
        run_hours = floor[starts].astype(np.int64)
        run_counts = np.diff(np.append(starts, floor.size)).astype(np.int64)
        if hours and hours[-1] == run_hours[0]:
            counts[-1] += int(run_counts[0])
            run_hours, run_counts = run_hours[1:], run_counts[1:]
        hours.frombytes(run_hours.tobytes())
        counts.frombytes(run_counts.tobytes())
    return np.frombuffer(hours, np.int64), np.frombuffer(counts, np.int64)


def sample_stationary_stream(rates: np.ndarray, count: int, seed: int, *,
                             times: bool = True) -> ArrivalSequence | HourlyArrivals:
    """Draw exactly `count` arrivals from superposed stationary Poisson processes.

    Inter-arrival gaps are Exp(Σλ); each arrival's type is categorical with
    probability λ_j / Σλ, independent of the gaps. The gaps are drawn and
    summed into times one _BLOCK-long block at a time (`_stationary_times`),
    which gives the same times as summing one horizon-long draw and leaves
    the generator where that draw would. With `times` false the stream
    keeps no times: each block is reduced to its hour runs, and an
    `HourlyArrivals` is returned.

    A type is drawn by inverse CDF from one uniform u per
    arrival, as the number of CDF edges at or below u: with the CDF
    non-decreasing and u < 1.0 = cdf[-1], that is `searchsorted(cdf, u,
    side="right")`, counted one edge at a time into `types`, whose dtype is
    `_index_dtype(m)` for m types (int8 up to 127). That is m − 1 passes
    over the uniforms: for m = 10 types and 10⁶ arrivals, counted into
    int8, about 6 ms (10 ms into int64) against searchsorted's 28 ms on
    a 2-vCPU host, and at 127 types about 30 ms against 70 ms. The
    uniforms are drawn and counted one _BLOCK-long block at a time, so no
    horizon-long temporary is made; consecutive `random(k)` calls give the
    same values as one `random(count)`, so the stream does not depend on
    the block. A `count` past what one float64 array can hold raises
    InvalidInstance before anything is drawn.
    """
    rates = np.asarray(rates, dtype=float)
    total = rates.sum()
    if total <= 0.0:
        raise InvalidInstance("stationary rates sum to zero")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise InvalidInstance(
            f"stationary horizon T={count} is more arrivals than one array can hold")
    # the horizon-long arrays come first, so a horizon the host cannot hold
    # fails before any block is drawn
    types = np.zeros(count, dtype=_index_dtype(rates.size))
    arrival_times = np.empty(count) if times else None
    rng = substream(seed, "stream")
    blocks = _stationary_times(rng, 1.0 / total, count)
    if times:
        for (lo, hi), block in zip(_blocks(count), blocks):
            arrival_times[lo:hi] = block
    else:
        hours, counts = _hour_runs(blocks)
    # inverse-CDF type draw keeps the stream reproducible across numpy versions
    cdf = np.cumsum(rates / total)
    cdf[-1] = 1.0
    for lo, hi in _blocks(count):
        u = rng.random(hi - lo)
        block = types[lo:hi]
        for edge in cdf[:-1]:
            block += u >= edge
    if times:
        return ArrivalSequence(times=arrival_times, types=types)
    return HourlyArrivals(hours=hours, counts=counts, types=types)


def _stationary_times(rng: np.random.Generator, scale: float, count: int):
    """Yield the times of `count` arrivals with Exp(1/scale) gaps, one
    _BLOCK-long block at a time: each block's gaps are drawn in one call,
    the last time before it is added to its first gap, and the block is
    summed in place, in the order a running sum over all the gaps takes."""
    last = 0.0
    for lo, hi in _blocks(count):
        block = rng.exponential(scale, size=hi - lo)
        block[0] += last
        np.cumsum(block, out=block)
        last = block[-1]
        yield block


def _thin_one_type(fn: RateFunction, rng: np.random.Generator, grid_dt: float) -> np.ndarray:
    """Thinning sampler for one type, piece by piece.

    The proposal rate per piece is the grid maximum λ̄. Each proposal draws
    its gap, then its uniform u; a piece's proposals are accepted at once
    where u·λ̄ ≤ λ(t), so a rate marginally above the grid max still is.
    """
    exponential, uniform = rng.exponential, rng.random
    out = []
    for piece in fn.pieces:
        lam_bar = piece.grid_max(grid_dt)
        if lam_bar <= 0.0:
            continue
        gap, t_to = 1.0 / lam_bar, piece.t_to
        ts, us = array("d"), array("d")
        t = piece.t_from
        while True:
            t += exponential(gap)
            if t >= t_to:
                break
            ts.append(t)
            us.append(uniform())
        if ts:
            times = np.frombuffer(ts)
            out.append(times[np.frombuffer(us) * lam_bar <= piece.value(times)])
    return np.concatenate(out) if out else np.empty(0)


def sample_nonstationary_stream(
    rate_fns: tuple[RateFunction, ...],
    t0: float,
    t_end: float,
    seed: int,
    grid_dt: float = GRID_DT_DEFAULT,
) -> ArrivalSequence:
    """Sample a merged non-homogeneous Poisson stream over [t0, t_end].

    Each type is thinned against its own piecewise majorant on an independent
    substream keyed by (seed, type index), so adding or reordering other
    types never perturbs a given type's draws. The merged stream is sorted by
    time (ties broken by type index), its types in `_index_dtype(m)` for
    m types. A rate negative on the scan grid raises InvalidInstance.
    """
    index = _index_dtype(len(rate_fns))
    all_times = []
    all_types = []
    for j, fn in enumerate(rate_fns):
        if abs(fn.t0 - t0) > 1e-9 or abs(fn.t_end - t_end) > 1e-9:
            raise ValueError(f"rate function {j} does not cover [{t0}, {t_end}]")
        rng = substream(seed, "stream", j)
        tj = _thin_one_type(fn, rng, grid_dt)
        all_times.append(tj)
        all_types.append(np.full(tj.size, j, dtype=index))
    times = np.concatenate(all_times) if all_times else np.empty(0)
    types = np.concatenate(all_types) if all_types else np.empty(0, dtype=index)
    order = np.lexsort((types, times))
    return ArrivalSequence(times=times[order], types=types[order])


def sample_stream(model: ArrivalModel, count: int, seed: int,
                  grid_dt: float = GRID_DT_DEFAULT, *,
                  times: bool = True) -> ArrivalSequence | HourlyArrivals:
    """Sample from either arrival model; `count` only applies to stationary.

    With `times` false the stream is an `HourlyArrivals`: the stationary
    sampler keeps no times at all, and a thinned stream is reduced to its
    hour runs.
    """
    if isinstance(model, StationaryArrivals):
        return sample_stationary_stream(model.rates, count, seed, times=times)
    stream = sample_nonstationary_stream(
        model.rate_fns, model.t0, model.t_end, seed, grid_dt
    )
    if times:
        return stream
    return HourlyArrivals(*stream.hour_runs(), types=stream.types)


def type_probability_matrix(model: ArrivalModel, times: np.ndarray) -> np.ndarray:
    """Ground-truth type mix φ(t) = λ(t)/Σλ(t), one row per requested time."""
    times = np.asarray(times, dtype=float)
    if isinstance(model, StationaryArrivals):
        row = model.rates / model.rates.sum()
        return np.tile(row, (times.size, 1))
    # rows per time, contiguous, so each total sums its types in the
    # order a per-function stack did
    lam = np.ascontiguousarray(RateStack(model.rate_fns).values(times).T)
    totals = lam.sum(axis=1)
    if np.any(totals <= 0.0):
        t_bad = float(times[int(np.argmin(totals))])
        raise InvalidInstance(f"total rate is zero at t={t_bad}")
    return lam / totals[:, None]


def rate_extrema(
    rate_fn: RateFunction, window: tuple[float, float], grid_dt: float
) -> tuple[float, float]:
    """Grid-approximate (min, max) of the rate over [a, b], on `scan_grid`.

    Extrema between grid points are not seen; callers choose grid_dt
    accordingly.
    """
    a, b = window
    if not a < b:
        raise ValueError(f"window [{a}, {b}] is empty")
    vals = rate_fn.value(scan_grid((rate_fn,), a, b, grid_dt))
    return float(vals.min()), float(vals.max())

