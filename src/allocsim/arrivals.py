"""Poisson arrival stream simulation and ground-truth type probabilities.

The rate functions' scan grid (`scan_grid`, re-exported here), piece
lookup and expected counts live in `model`."""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroTotalRate
from .model import (
    GRID_DT_DEFAULT,
    ArrivalModel,
    RateFunction,
    StationaryArrivals,
    scan_grid,
    substream,
)

__all__ = [
    "ArrivalSequence",
    "sample_stationary_stream",
    "sample_nonstationary_stream",
    "sample_stream",
    "type_probability_matrix",
    "scan_grid",
    "rate_extrema",
]


@dataclass(frozen=True, eq=False)
class ArrivalSequence:
    """Realized arrival stream: times in hours, 0-based type indices."""

    times: np.ndarray
    types: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "types", np.asarray(self.types, dtype=np.int64))
        if self.times.shape != self.types.shape:
            raise ValueError("times and types must have equal length")
        if self.times.size > 1 and np.any(np.diff(self.times) < 0.0):
            raise ValueError("arrival times must be non-decreasing")

    def __len__(self) -> int:
        return self.times.size

    def check_types(self, m: int) -> None:
        """Raise DimensionMismatch unless every type is one of m types."""
        if self.types.size and (self.types.min() < 0 or self.types.max() >= m):
            raise DimensionMismatch(f"arrival types must lie in [0, {m})")

    def slice(self, lo: int, hi: int) -> "ArrivalSequence":
        """Contiguous sub-stream [lo, hi), keeping the originating seed."""
        return ArrivalSequence(
            times=self.times[lo:hi], types=self.types[lo:hi], seed=self.seed
        )


def sample_stationary_stream(rates: np.ndarray, count: int, seed: int) -> ArrivalSequence:
    """Draw exactly `count` arrivals from superposed stationary Poisson processes.

    Inter-arrival gaps are Exp(Σλ); each arrival's type is categorical with
    probability λ_j / Σλ, independent of the gaps.
    """
    rates = np.asarray(rates, dtype=float)
    total = rates.sum()
    if total <= 0.0:
        raise ZeroTotalRate("stationary rates sum to zero")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = substream(seed, "stream")
    times = np.cumsum(rng.exponential(1.0 / total, size=count))
    # inverse-CDF type draw keeps the stream reproducible across numpy versions
    cdf = np.cumsum(rates / total)
    cdf[-1] = 1.0
    types = np.searchsorted(cdf, rng.random(count), side="right")
    return ArrivalSequence(times=times, types=types, seed=int(seed))


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
    time (ties broken by type index). A rate negative on the scan grid
    raises NegativeRate.
    """
    all_times = []
    all_types = []
    for j, fn in enumerate(rate_fns):
        if abs(fn.t0 - t0) > 1e-9 or abs(fn.t_end - t_end) > 1e-9:
            raise ValueError(f"rate function {j} does not cover [{t0}, {t_end}]")
        rng = substream(seed, "stream", j)
        tj = _thin_one_type(fn, rng, grid_dt)
        all_times.append(tj)
        all_types.append(np.full(tj.size, j, dtype=np.int64))
    times = np.concatenate(all_times) if all_times else np.empty(0)
    types = np.concatenate(all_types) if all_types else np.empty(0, dtype=np.int64)
    order = np.lexsort((types, times))
    return ArrivalSequence(times=times[order], types=types[order], seed=int(seed))


def sample_stream(model: ArrivalModel, count: int, seed: int,
                  grid_dt: float = GRID_DT_DEFAULT) -> ArrivalSequence:
    """Sample from either arrival model; `count` only applies to stationary."""
    if isinstance(model, StationaryArrivals):
        return sample_stationary_stream(model.rates, count, seed)
    return sample_nonstationary_stream(
        model.rate_fns, model.t0, model.t_end, seed, grid_dt
    )


def type_probability_matrix(model: ArrivalModel, times: np.ndarray) -> np.ndarray:
    """Ground-truth type mix φ(t) = λ(t)/Σλ(t), one row per requested time."""
    times = np.asarray(times, dtype=float)
    if isinstance(model, StationaryArrivals):
        row = model.rates / model.rates.sum()
        return np.tile(row, (times.size, 1))
    lam = np.stack([fn.value(times) for fn in model.rate_fns], axis=1)
    totals = lam.sum(axis=1)
    if np.any(totals <= 0.0):
        t_bad = float(times[int(np.argmin(totals))])
        raise ZeroTotalRate(f"total rate is zero at t={t_bad}")
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

