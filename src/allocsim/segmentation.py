"""Horizon segmentation for time-varying arrival rates, and the driver
that runs the online loop segment by segment.

A greedy left-to-right pass cuts [t0, t_end] into segments. Wherever every
rate moves by at most epsilon over a window at least d long, that window
becomes a type-A segment and its rates are treated as constants. Otherwise
a variation threshold v is solved from the configured probability band
delta, and the window is cut where the per-type rate variation (and the
implied probability band) would exceed it: a type-B segment. Certification
re-derives both bounds from grid extrema over each finished segment.

The window scans and the certification step build their grids with
`model.scan_grid` (uniform grid_dt steps anchored at the segment start, plus
piece boundaries, plus the right endpoint): the scan puts every type's
boundaries on one grid, certification scans each type on its own. Rates are
looked up through `RateFunction.value`, and the driver takes each segment's
expected arrival count from `NonstationaryArrivals.expected_arrivals`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrivals import (
    rate_extrema,
    sample_nonstationary_stream,
    scan_grid,
    type_probability_matrix,
)
from .errors import DegenerateSegment, NoPositiveRoot, ZeroLowerSum
from .integrated import Trace, run_integrated
from .model import NonstationaryArrivals, SimConfig, substream

__all__ = [
    "Segment",
    "SegmentPlan",
    "solve_v_threshold",
    "bound_type_probability",
    "segment_time_span",
    "segment_weights",
    "certify_plan",
    "run_nonstationary",
]


# ============================================================
# Types
# ============================================================

@dataclass
class Segment:
    """One planned interval, in the rate functions' time unit (hours).

    Type A: rates vary by at most the configured epsilon inside; `t_tilde`
    is the sampled evaluation point once weights are assigned. Type B:
    `v` is the solved variation threshold, `upper`/`lower`/`delta_vec` the
    certified per-type probability band, and `raw_draws` the pre-
    normalization weight draws.
    """

    t_start: float
    t_end: float
    label: str
    epsilon_used: float | None = None
    v: float | None = None
    upper: np.ndarray | None = None
    lower: np.ndarray | None = None
    delta_vec: np.ndarray | None = None
    weights: np.ndarray | None = None
    t_tilde: float | None = None
    raw_draws: np.ndarray | None = None

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("segment must have positive length")
        if self.label not in ("A", "B"):
            raise ValueError(f"unknown segment label {self.label!r}")

    @property
    def length(self) -> float:
        return self.t_end - self.t_start


@dataclass
class SegmentPlan:
    """Ordered segments covering [t0, t_end], plus the knobs that built them."""

    segments: list[Segment]
    epsilon: float
    delta: float
    d: float
    grid_dt: float
    t0: float = field(init=False)
    t_end: float = field(init=False)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("plan needs at least one segment")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if prev.t_end != nxt.t_start:
                raise ValueError("segments must be contiguous")
        self.t0 = self.segments[0].t_start
        self.t_end = self.segments[-1].t_end

    def __len__(self) -> int:
        return len(self.segments)


# ============================================================
# Window scan
# ============================================================

def _scan_window(
    rate_fns,
    t: float,
    threshold: float,
    grid_dt: float,
    t_end: float,
    delta_cap: float | None = None,
):
    """Largest grid point t* such that every type's rate variation over
    [t, t*] stays within threshold (and, when delta_cap is given, the
    implied probability band stays within it). Returns t* and the per-type
    (min, max) extrema over [t, t*]. Advances at least one grid point.

    The rates are evaluated on a growing prefix of `scan_grid(t, t_end)`,
    built as the grid to one step past it: a window of 2 grid_dt that doubles
    until it holds a violation or reaches t_end. Running extrema over a
    prefix equal those over the whole grid, so the result is the full scan's.
    """
    width = 2.0 * grid_dt
    while True:
        pts = scan_grid(rate_fns, t, min(t + width + grid_dt, t_end), grid_dt)
        if pts.size < 2:
            raise DegenerateSegment(
                f"no grid point inside ({t}, {t_end}]; grid_dt={grid_dt} too coarse"
            )
        # the window holds the last grid point only when it reaches t_end
        stop = max(int(np.searchsorted(pts, t + width, side="right")), 2)
        window = pts[:stop]
        vals = np.stack([fn.value(window) for fn in rate_fns])
        cmax = np.maximum.accumulate(vals, axis=1)
        cmin = np.minimum.accumulate(vals, axis=1)
        ok = np.all(cmax - cmin <= threshold + 1e-12, axis=0)
        if delta_cap is not None:
            y = cmin.sum(axis=0)
            big = cmax.sum(axis=0)
            safe_y = np.where(y > 0.0, y, 1.0)
            dvec = cmax / safe_y - cmin / big
            ok &= (y > 0.0) & np.all(dvec <= delta_cap + 1e-12, axis=0)
        ok[0] = True
        bad = np.flatnonzero(~ok)
        if bad.size or stop == pts.size:
            break
        width *= 2.0
    k = int(bad[0]) - 1 if bad.size else stop - 1
    k = max(k, 1)
    extrema = [(float(cmin[j, k]), float(cmax[j, k])) for j in range(len(rate_fns))]
    return float(pts[k]), extrema


# ============================================================
# Bound algebra
# ============================================================

def solve_v_threshold(rates_at_t: np.ndarray, delta: float) -> float:
    """Positive root of m·v^2 + (y + m·min_rate − delta·m·y)·v − delta·y^2,
    where y is the total rate at the cursor.

    This is the largest per-type variation that keeps the probability band
    within delta when every rate may drift that far from its cursor value.
    """
    rates = np.asarray(rates_at_t, dtype=float)
    if np.any(rates <= 0.0):
        raise ValueError("all rates at the cursor must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    m = rates.size
    y = float(rates.sum())
    lam_min = float(rates.min())
    a = float(m)
    b = y + m * lam_min - delta * m * y
    c = -delta * y * y
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoPositiveRoot("discriminant negative")
    sq = float(np.sqrt(disc))
    v = -2.0 * c / (b + sq) if b >= 0.0 else (-b + sq) / (2.0 * a)
    if not v > 0.0:
        raise NoPositiveRoot(f"no positive root (v={v})")
    return v


def bound_type_probability(extrema_per_type):
    """Probability band per type from rate extrema over a window.

    U(j) = max_j / sum of minima, L(j) = min_j / sum of maxima, and the
    band width delta(j) = U(j) − L(j).
    """
    mins = np.array([e[0] for e in extrema_per_type], dtype=float)
    maxs = np.array([e[1] for e in extrema_per_type], dtype=float)
    y = float(mins.sum())
    if y <= 0.0:
        raise ZeroLowerSum("sum of rate minima is zero")
    big = float(maxs.sum())
    upper = maxs / y
    lower = mins / big
    return upper, lower, upper - lower


# ============================================================
# Plan construction and certification
# ============================================================

def segment_time_span(
    rate_fns,
    t0: float,
    t_end: float,
    epsilon: float,
    delta: float,
    d: float,
    grid_dt: float,
) -> SegmentPlan:
    """Greedy left-to-right segmentation of [t0, t_end].

    At each cursor: try an epsilon window; if it spans at least d, emit
    type A. Otherwise solve the variation threshold v from delta at the
    cursor rates and emit the type-B window, additionally cut where the
    running probability band would exceed delta so that certification is
    true by construction.
    """
    rate_fns = list(rate_fns)
    if not rate_fns:
        raise ValueError("need at least one rate function")
    for low, high in ((epsilon, "epsilon"), (delta, "delta"), (d, "d")):
        if not low > 0.0:
            raise ValueError(f"{high} must be positive")
    segments: list[Segment] = []
    t = float(t0)
    while t_end - t > 1e-9:
        t_eps, _ = _scan_window(rate_fns, t, epsilon, grid_dt, t_end)
        if t_eps - t >= d - 1e-12:
            segments.append(
                Segment(t_start=t, t_end=t_eps, label="A", epsilon_used=epsilon)
            )
            t = t_eps
            continue
        rates_t = np.array([fn.value(t) for fn in rate_fns])
        v = solve_v_threshold(rates_t, delta)
        t_v, extrema = _scan_window(rate_fns, t, v, grid_dt, t_end, delta_cap=delta)
        upper, lower, dvec = bound_type_probability(extrema)
        segments.append(
            Segment(
                t_start=t, t_end=t_v, label="B", v=v,
                upper=upper, lower=lower, delta_vec=dvec,
            )
        )
        t = t_v
    return SegmentPlan(
        segments=segments, epsilon=epsilon, delta=delta, d=d, grid_dt=grid_dt
    )


def certify_plan(plan: SegmentPlan, rate_fns, tol: float = 1e-9):
    """Re-derive every segment's bound from its own grid extrema.

    Returns a boolean array, one entry per segment: type A passes when all
    per-type variations are within epsilon + tol, type B when the
    recomputed probability band is within delta + tol.
    """
    results = np.zeros(len(plan), dtype=bool)
    for k, seg in enumerate(plan.segments):
        ext = [
            rate_extrema(fn, (seg.t_start, seg.t_end), plan.grid_dt)
            for fn in rate_fns
        ]
        if seg.label == "A":
            variation = max(mx - mn for mn, mx in ext)
            results[k] = variation <= plan.epsilon + tol
        else:
            _, _, dvec = bound_type_probability(ext)
            results[k] = bool(np.all(dvec <= plan.delta + tol))
    return results


def segment_weights(segment: Segment, rate_fns, rng: np.random.Generator) -> np.ndarray:
    """Type mix used inside one segment; records the draw on the segment.

    Type A evaluates the rates at one uniform point in the segment. Type B
    draws each weight uniformly inside its certified band and normalizes.
    """
    if segment.label == "A":
        t_tilde = segment.t_start + rng.random() * segment.length
        rates = np.array([fn.value(t_tilde) for fn in rate_fns])
        w = rates / rates.sum()
        segment.t_tilde = t_tilde
        segment.weights = w
        return w
    raw = segment.lower + rng.random(segment.lower.size) * (
        segment.upper - segment.lower
    )
    w = raw / raw.sum()
    segment.raw_draws = raw
    segment.weights = w
    return w


# ============================================================
# Non-stationary driver
# ============================================================

def run_nonstationary(
    config: SimConfig,
    *,
    backend: str | None = None,
) -> tuple[Trace, SegmentPlan]:
    """Plan segments, sample the stream once, and run the online loop
    segment by segment with shared state.

    The dual iterate, preference estimate, remaining budgets, and guard
    history carry across segment boundaries; each segment contributes its
    own weights and step-size horizon (its expected arrival count). The
    recorded dual values inside a segment use the true time-varying type
    probabilities at each arrival. Each segment's budget scale is also
    1/E[N_k], against budgets that cover the whole horizon, so its floors
    s·b_i are 8 to 110 times the horizon-wide b_i/T (15 segments of
    `extreme_budget` at T = 6e4), and the dual iterate rarely leaves zero.
    """
    model = config.arrivals
    if not isinstance(model, NonstationaryArrivals):
        raise ValueError("run_nonstationary needs non-stationary arrivals")
    params = config.params
    plan = segment_time_span(
        model.rate_fns, model.t0, model.t_end,
        params.epsilon, params.delta, params.d, params.grid_dt,
    )
    w_rng = substream(config.seed, "weights")
    for seg in plan.segments:
        segment_weights(seg, model.rate_fns, w_rng)

    stream = sample_nonstationary_stream(
        model.rate_fns, model.t0, model.t_end, config.seed, params.grid_dt
    )
    loop_rng = substream(config.seed, "loop")

    edges = np.array([seg.t_end for seg in plan.segments])
    cut = np.searchsorted(stream.times, edges[:-1], side="left")
    starts = np.concatenate([[0], cut])
    stops = np.concatenate([cut, [stream.times.size]])

    pieces: list[Trace] = []
    state = None
    for k, seg in enumerate(plan.segments):
        lo, hi = int(starts[k]), int(stops[k])
        if hi <= lo:
            continue
        batch = stream.slice(lo, hi)
        _, expected = model.expected_arrivals(seg.t_start, seg.t_end)
        phi = type_probability_matrix(model, batch.times)
        piece = run_integrated(
            config, batch, seg.weights,
            loop_state=state, rng=loop_rng,
            expected_count=expected, phi=phi,
            step_rule="fixed", backend=backend,
        )
        piece.segment[:] = k
        state = piece.carry
        pieces.append(piece)
    if not pieces:
        raise ValueError("stream contained no arrivals")
    return Trace.concat(pieces), plan

