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
piece boundaries, plus the right endpoint): both put every type's boundaries
on one grid, and a cursor's grid to the horizon's end holds the segment's
grid as its prefix, so certification sees each rate on the points the
search saw. At each cursor one `_Cursor` builds that grid once and keeps
the running rate extrema that the epsilon scan and the v scan share. Rates
are looked up for all types at once through `model.RateStack`, and the
driver takes each segment's expected arrival count from
`NonstationaryArrivals.expected_arrivals`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrivals import sample_nonstationary_stream, type_probability_matrix
from .errors import InvalidInstance
from .integrated import Trace, _loop_rng, run_integrated
from .model import NonstationaryArrivals, RateStack, SimConfig, scan_grid, substream

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

    Type A: rates vary by at most the plan's epsilon inside; `t_tilde`
    is the sampled evaluation point once weights are assigned. Type B:
    `v` is the solved variation threshold, `upper`/`lower`/`delta_vec` the
    certified per-type probability band, and `raw_draws` the pre-
    normalization weight draws.
    """

    t_start: float
    t_end: float
    label: str
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

# grid points in a cursor's first chunk; each later chunk doubles the span.
# A lookup of a few hundred points costs little more than one of four, and
# the scenarios' segments span a few thousand points.
_FIRST_CHUNK = 256


class _Cursor:
    """The window scans at one cursor t: every type's rate extrema over
    [t, t*] for the grid points t* of `scan_grid(t, t_end)`.

    The grid is built once, and its rates come from the plan's `RateStack`
    in chunks that double in length, only as far as a scan asks; the
    epsilon scan and the v scan share them. Each chunk end keeps the
    running extrema so far, and each chunk's maxima and minima continue the
    last end's. Max and min are exact, so every extremum equals that of one
    pass over the grid from t, however the grid is chunked.
    """

    def __init__(self, rates: RateStack, t: float, t_end: float, grid_dt: float):
        self.rates = rates
        self.pts = scan_grid(rates.rate_fns, t, t_end, grid_dt)
        if self.pts.size < 2:
            raise InvalidInstance(
                f"no grid point inside ({t}, {t_end}]; grid_dt={grid_dt} too coarse"
            )
        self.vals = np.empty((len(rates.rate_fns), self.pts.size))
        self.ends = [0]
        # running (max, min) per type over the grid up to each chunk end
        self.extrema: list[tuple[np.ndarray, np.ndarray]] = []

    def _chunk(self, i: int) -> tuple[int, int]:
        """The bounds [lo, hi) of chunk i, evaluating chunks up to it."""
        while len(self.extrema) <= i:
            lo = self.ends[-1]
            hi = min(max(2 * lo, _FIRST_CHUNK), self.pts.size)
            block = self.vals[:, lo:hi]
            block[...] = self.rates.values(self.pts[lo:hi])
            top, bottom = block.max(axis=1), block.min(axis=1)
            if self.extrema:
                np.maximum(top, self.extrema[-1][0], out=top)
                np.minimum(bottom, self.extrema[-1][1], out=bottom)
            self.extrema.append((top, bottom))
            self.ends.append(hi)
        return self.ends[i], self.ends[i + 1]

    def scan(self, threshold: float, delta_cap: float | None = None):
        """Largest grid point t* such that every type's rate variation over
        [t, t*] stays within threshold (and, when delta_cap is given, the
        implied probability band stays within it). Returns t* and the
        per-type (min, max) extrema over [t, t*]. Advances at least one grid
        point.

        With rates that are not negative on the grid (a config with a
        negative one is refused), the test can only turn false as t* grows:
        the maxima rise, the minima fall, and every rounded sum, quotient
        and difference made of them moves the same way. So the first grid
        point that fails lies in the first chunk whose end fails, and only
        that chunk's running extrema are taken point by point.
        """
        i = 0
        while True:
            lo, hi = self._chunk(i)
            top, bottom = self.extrema[i]
            if hi == self.pts.size or not _within(
                    top[:, None], bottom[:, None], threshold, delta_cap)[0]:
                break
            i += 1
        cmax = np.maximum.accumulate(self.vals[:, lo:hi], axis=1)
        cmin = np.minimum.accumulate(self.vals[:, lo:hi], axis=1)
        if i:
            np.maximum(cmax, self.extrema[i - 1][0][:, None], out=cmax)
            np.minimum(cmin, self.extrema[i - 1][1][:, None], out=cmin)
        ok = _within(cmax, cmin, threshold, delta_cap)
        if lo == 0:
            ok[0] = True
        bad = np.flatnonzero(~ok)
        k = max(int(bad[0]) - 1 if bad.size else hi - lo - 1, 1 - lo)
        top, bottom = (cmax[:, k], cmin[:, k]) if k >= 0 else self.extrema[i - 1]
        return float(self.pts[lo + k]), list(zip(bottom.tolist(), top.tolist()))


def _within(cmax, cmin, threshold: float, delta_cap: float | None):
    """Per grid point (column), whether the per-type running extrema keep
    every variation within threshold and, when delta_cap is given, the
    implied probability band within it."""
    ok = np.all(cmax - cmin <= threshold + 1e-12, axis=0)
    if delta_cap is not None:
        # summed type after type, whatever the columns' memory layout
        y = np.add.accumulate(cmin, axis=0)[-1]
        big = np.add.accumulate(cmax, axis=0)[-1]
        safe_y = np.where(y > 0.0, y, 1.0)
        dvec = cmax / safe_y - cmin / big
        ok &= (y > 0.0) & np.all(dvec <= delta_cap + 1e-12, axis=0)
    return ok


# ============================================================
# Bound algebra
# ============================================================

def solve_v_threshold(rates_at_t: np.ndarray, delta: float) -> float:
    """Positive root of m·v^2 + (y + m·min_rate − delta·m·y)·v − delta·y^2,
    where y is the total rate at the cursor.

    This is the largest per-type variation that keeps the probability band
    within delta when every rate may drift that far from its cursor value.
    A rate may be zero at the cursor, as a Poisson intensity may be at an
    instant: when y > 0 the constant term −delta·y² is negative, so the
    quadratic has exactly one positive root. A negative rate, or a total
    that is not positive, is refused.
    """
    rates = np.asarray(rates_at_t, dtype=float)
    if np.any(rates < 0.0) or not rates.sum() > 0.0:
        raise InvalidInstance(
            "rates at the cursor must be nonnegative with a positive total")
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
        raise InvalidInstance("discriminant negative")
    sq = float(np.sqrt(disc))
    v = -2.0 * c / (b + sq) if b >= 0.0 else (-b + sq) / (2.0 * a)
    if not v > 0.0:
        raise InvalidInstance(f"no positive root (v={v})")
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
        raise InvalidInstance("sum of rate minima is zero")
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
    true by construction, but for one case: a cursor always advances one
    grid point, even when that step alone breaks the bound. A type-B
    cursor whose rates admit no band (a total rate of 0, say) raises
    InvalidInstance naming its time.
    """
    rate_fns = list(rate_fns)
    if not rate_fns:
        raise ValueError("need at least one rate function")
    for low, high in ((epsilon, "epsilon"), (delta, "delta"), (d, "d")):
        if not low > 0.0:
            raise ValueError(f"{high} must be positive")
    rates = RateStack(rate_fns)
    segments: list[Segment] = []
    t = float(t0)
    while t_end - t > 1e-9:
        cursor = _Cursor(rates, t, t_end, grid_dt)
        t_eps, _ = cursor.scan(epsilon)
        if t_eps - t >= d - 1e-12:
            segments.append(Segment(t_start=t, t_end=t_eps, label="A"))
            t = t_eps
            continue
        try:
            v = solve_v_threshold(rates.values(t), delta)
            t_v, extrema = cursor.scan(v, delta_cap=delta)
            upper, lower, dvec = bound_type_probability(extrema)
        except InvalidInstance as exc:
            raise InvalidInstance(f"type-B cursor at t={t:.6g}: {exc}") from exc
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
    """Re-derive every segment's bound from rate extrema on the grid the
    search scanned: `scan_grid` over the segment, which holds every type's
    piece boundaries.

    Returns a boolean array, one entry per segment: type A passes when all
    per-type variations are within epsilon + tol, type B when the
    recomputed probability band is within delta + tol.
    """
    rates = RateStack(rate_fns)
    results = np.zeros(len(plan), dtype=bool)
    for k, seg in enumerate(plan.segments):
        vals = rates.values(scan_grid(rate_fns, seg.t_start, seg.t_end, plan.grid_dt))
        ext = list(zip(vals.min(axis=1).tolist(), vals.max(axis=1).tolist()))
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
        rates = RateStack(rate_fns).values(t_tilde)
        total = rates.sum()
        if not total > 0.0:
            raise InvalidInstance(
                f"type-A segment [{segment.t_start:.6g}, {segment.t_end:.6g}]: "
                f"total rate is 0 at its sampled point t_tilde={t_tilde:.6g}")
        w = rates / total
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

def run_nonstationary(config: SimConfig) -> tuple[Trace, SegmentPlan]:
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
        raise InvalidInstance("nonstationary needs a non-stationary config")
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
    loop_rng = _loop_rng(config.seed)

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
        )
        piece.segment[:] = k
        state = piece.carry
        pieces.append(piece)
    if not pieces:
        raise InvalidInstance("stream contained no arrivals")
    return Trace.concat(pieces), plan

