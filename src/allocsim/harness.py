"""Baselines, metrics, experiment orchestration, and report files.

The greedy baseline always consumes the same arrival stream as the online
run it is compared against. On a stationary run it also consumes the same
per-arrival purchase uniforms, so that revenue gap reflects policy, not
luck. A non-stationary run is not paired that way: its online loop draws
selection and purchase uniforms segment by segment from one stream, while
the greedy baseline skips one horizon-long selection block and then draws
one purchase block, so the two face different purchase draws. Regret always
benchmarks against the offline solve on ground-truth preferences with
expected type weights; a realized-count benchmark column is emitted
alongside for transparency.

The greedy baseline keeps nothing per arrival: it returns per-item
assignment and purchase counts, which are all its outputs read. A greedy
run samples its stream without times (`sample_stream(times=False)`): the
arrivals histogram needs only each nonempty hour's arrival count and the
per-arrival types, and it is counted from those hour runs in every mode.

Report files are CSV (one directory per run), and this module writes all
of them through one column encoder: a header line, then rows whose
integer fields read as `%d`, float fields as `%.9g` and labels as their
bytes, with a blank item for a null assignment. Each block of rows is
joined from per-column byte matrices, not formatted one row at a time.
Wall-clock time goes to runtime.txt, not the CSVs, so re-running a
configuration byte-identically reproduces every CSV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import arrivals as _arrivals
from .arrivals import ArrivalSequence, HourlyArrivals, _blocks, sample_stream
from .dual import (
    OfflineSolution,
    WeightedDualSpec,
    recover_primal,
    solve_offline,
)
from .errors import InvalidInstance, NonConvergence
from .integrated import (
    PHASE_NAMES,
    Trace,
    _item_counts,
    _loop_rng,
    run_integrated,
)
from .model import ProblemInstance, SimConfig, StationaryArrivals, config_hash
from .segmentation import SegmentPlan, run_nonstationary

__all__ = [
    "MetricsReport",
    "greedy_baseline",
    "compute_regret",
    "compute_revenue",
    "offline_revenue_bound",
    "expected_type_weights",
    "segment_regret",
    "run_experiment",
    "emit_report",
    "write_trace_csv",
    "write_lambda_csv",
    "write_checkpoint_csv",
    "write_plan_csv",
]

_CSV_BLOCK = 4096  # report rows encoded per write


# ============================================================
# Report container
# ============================================================

@dataclass
class MetricsReport:
    """Everything an experiment run produces, file-ready: the online
    `trace` of a loop mode, and in every mode but offline the arrival
    `stream` and the `greedy` baseline's counts on it."""

    mode: str
    seed: int
    config_hash: str
    arrivals: int = 0
    f_star: float = np.nan
    f_star_realized: float = np.nan
    online_dual_total: float = np.nan
    total_regret: float = np.nan
    average_regret: float = np.nan
    offline_revenue_bound: float = np.nan
    realized_revenue: float = np.nan
    greedy_revenue: float = np.nan
    runtime_seconds: float = np.nan
    lam_star: np.ndarray | None = None
    trace: Trace | None = None
    stream: ArrivalSequence | HourlyArrivals | None = None
    greedy: GreedyCounts | None = None
    plan: SegmentPlan | None = None

    SUMMARY_COLUMNS = (
        "mode", "seed", "config_hash", "arrivals", "f_star",
        "f_star_realized", "online_dual_total", "total_regret",
        "average_regret", "offline_revenue_bound", "realized_revenue",
        "greedy_revenue",
    )

    def summary_row(self) -> dict:
        out = {}
        for col in self.SUMMARY_COLUMNS:
            v = getattr(self, col)
            if isinstance(v, float) and np.isnan(v):
                out[col] = ""
            elif isinstance(v, float):
                out[col] = f"{v:.9g}"
            else:
                out[col] = str(v)
        return out


# ============================================================
# Baseline
# ============================================================

@dataclass(frozen=True)
class GreedyCounts:
    """The greedy baseline's outcome: per-item assignments and purchases
    (int64), and the stock left per item."""

    assigned: np.ndarray
    purchased: np.ndarray
    remaining: np.ndarray


def greedy_baseline(
    instance: ProblemInstance,
    arrivals: ArrivalSequence | HourlyArrivals,
    seed: int,
) -> GreedyCounts:
    """Assign every arrival the highest-reward item still in stock (ties to
    the lowest index); purchases simulated from ground truth.

    Stock is spent per offer and the policy ignores the customer type, so
    the assignment has a closed form: in reward order, each capped item
    takes the next floor(b_i) arrivals, the first uncapped item takes every
    arrival after that, and items ranked below it are never offered. With
    no uncapped item, arrivals past the total stock get the null (-1). An
    item's assignment count is the length of its run, and its purchase
    count is the number of purchases in that run, so nothing per arrival
    is kept: only the arrivals' types are read.

    Takes the purchase uniforms that a single stationary `run_integrated`
    call on the same seed takes, so against that run the two policies face
    identical purchase randomness per arrival. Against a non-stationary
    run, which draws per segment, the purchase draws do not line up. The
    purchase block is drawn one stock run at a time, and each run in
    pieces of `arrivals._BLOCK` // 8 arrivals, which gives the same
    uniforms as one horizon-long block; the null run at the end draws
    none, as nothing follows it.
    """
    n = instance.rewards.size
    prefs = instance.preferences
    arrivals.check_types(prefs.shape[0])
    T = len(arrivals)
    types = arrivals.types
    infinite = instance.infinite_items
    order = np.lexsort((np.arange(n), -instance.rewards))
    # rank of the first uncapped item, n when there is none
    k = int(np.argmax(infinite[order])) if infinite.any() else n
    # with no uncapped item this is one shorter than `lengths`, whose last
    # run, the nulls, then draws no uniforms
    items = order[:k + 1]
    stock_ends = np.minimum(np.cumsum(np.floor(instance.budgets[order[:k]])), T)
    lengths = np.diff(np.concatenate(([0], stock_ends, [T]))).astype(np.int64)

    rng = _loop_rng(seed, skip_selection=T)
    assigned = np.zeros(n, dtype=np.int64)
    purchased = np.zeros(n, dtype=np.int64)
    # The draws go through one set of piece buffers, the types widened into
    # `index` so that `take` copies no indices: the loop allocates nothing,
    # where a fresh allocation per piece costs page faults in a fresh
    # process. A piece is _BLOCK // 8 arrivals, so the set (1.5 MB at
    # _BLOCK) fits in memory the run has freed; at _BLOCK it raised a
    # 60,000-arrival non-stationary cell's peak RSS by 0.5 MB.
    piece = max(min(_arrivals._BLOCK // 8, T), 1)
    index, u, p = np.empty(piece, dtype=np.intp), np.empty(piece), np.empty(piece)
    bought = np.empty(piece, dtype=bool)
    start = 0
    for item, stop in zip(items.tolist(), np.cumsum(lengths).tolist()):
        pref = prefs[:, item]
        for lo in range(start, stop, piece):
            w = min(piece, stop - lo)
            index[:w] = types[lo:lo + w]
            pref.take(index[:w], out=p[:w])
            np.less(rng.random(out=u[:w]), p[:w], out=bought[:w])
            purchased[item] += np.count_nonzero(bought[:w])
        assigned[item] = stop - start
        start = stop

    remaining = instance.budgets.copy()
    remaining[order[:k]] -= lengths[:k]
    return GreedyCounts(assigned, purchased, remaining)


# ============================================================
# Metrics
# ============================================================

def compute_regret(trace: Trace, f_star: float) -> tuple[float, float]:
    """Total and average regret of the recorded dual values against the
    fixed offline benchmark value `f_star` (the solver's `value`)."""
    total = float(trace.f_vals.sum() - trace.f_vals.size * f_star)
    return total, total / trace.f_vals.size


def compute_revenue(trace: Trace, rewards: np.ndarray) -> float:
    """Realized revenue: sum of rewards over purchased assignments.

    Computed as the per-item purchase counts, counted block by block like
    `Trace.assignment_counts`, dotted with `rewards`, so no horizon-long
    mask or reward array is built. That sums in a different order from
    adding the gathered rewards one by one, so the last bits of the value
    can differ from such a sum; `summary.csv` prints it with `%.9g`.
    """
    rewards = np.asarray(rewards, dtype=float)
    return float(_item_counts(trace.assigned, rewards.size, trace.purchased) @ rewards)


def offline_revenue_bound(
    instance: ProblemInstance,
    lam_star: np.ndarray,
    counts_by_type: np.ndarray,
) -> float:
    """Expected revenue of the offline policy: type counts times the
    per-type expected reward of the recovered primal assignment."""
    x = recover_primal(instance.preferences, instance.rewards, instance.mu, lam_star)
    per_type = (x * instance.preferences * instance.rewards[None, :]).sum(axis=1)
    return float(np.asarray(counts_by_type, dtype=float) @ per_type)


def expected_type_weights(config: SimConfig) -> np.ndarray:
    """Ground-truth expected type mix over the whole horizon."""
    model = config.arrivals
    if isinstance(model, StationaryArrivals):
        return model.rates / model.rates.sum()
    totals, _ = model.expected_arrivals(model.t0, model.t_end)
    return totals / totals.sum()


def _benchmark(config: SimConfig, weights: np.ndarray, count: int) -> OfflineSolution:
    """The offline benchmark, solved: the dual on ground-truth preferences
    with type mix `weights` and budget scale 1/count. A solve that stalls
    raises NonConvergence."""
    inst, params = config.instance, config.params
    spec = WeightedDualSpec(
        weights=np.asarray(weights, dtype=float),
        budget_scale=1.0 / max(int(count), 1),
        preferences=inst.preferences,
        rewards=inst.rewards,
        budgets=inst.budgets,
        mu=inst.mu,
    )
    sol = solve_offline(
        spec, tol=params.offline_tol, max_iter=params.offline_max_iter,
        box_upper=config.lambda_max(),
    )
    if not sol.converged:
        raise NonConvergence(
            f"offline benchmark stalled at projected-gradient norm {sol.pg_norm:.3g}"
        )
    return sol


def segment_regret(
    trace: Trace,
    plan: SegmentPlan,
    config: SimConfig,
) -> tuple[float, float, float]:
    """Regret for a segmented run: each segment is benchmarked against its
    own offline solve (true expected mix inside the segment, budget scale
    from its expected arrival count); totals sum across segments.

    Returns (total, average, f_star_weighted) where f_star_weighted is the
    arrival-weighted mean of the per-segment benchmark values.
    """
    model = config.arrivals
    total = 0.0
    star_sum = 0.0
    n_arrivals = 0
    for k, seg in enumerate(plan.segments):
        mask = trace.segment == k
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        per_type, expected = model.expected_arrivals(seg.t_start, seg.t_end)
        sol = _benchmark(config, per_type / per_type.sum(), expected)
        total += float(trace.f_vals[mask].sum()) - cnt * sol.value
        star_sum += cnt * sol.value
        n_arrivals += cnt
    if n_arrivals == 0:
        raise InvalidInstance("trace has no arrivals tagged to plan segments")
    return total, total / n_arrivals, star_sum / n_arrivals


# ============================================================
# Orchestration
# ============================================================

MODES = ("offline", "stationary", "nonstationary", "greedy")


def run_experiment(
    config: SimConfig,
    mode: str,
    *,
    out_dir: str | Path | None = None,
    trace_flag: bool = False,
) -> MetricsReport:
    """Run one experiment cell and optionally write its report files.

    Deterministic per (config, seed): streams, weights, and loop draws all
    come from tagged substreams of the config seed.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected one of {MODES})")
    started = time.perf_counter()
    inst = config.instance
    report = MetricsReport(
        mode=mode, seed=config.seed, config_hash=config_hash(config)
    )

    model = config.arrivals
    weights = expected_type_weights(config)
    if mode == "offline":
        expected = (inst.horizon if isinstance(model, StationaryArrivals)
                    else model.expected_arrivals(model.t0, model.t_end)[1])
        sol = _benchmark(config, weights, expected)
        report.f_star = sol.value
        report.lam_star = sol.lam
        report.offline_revenue_bound = offline_revenue_bound(
            inst, sol.lam, weights * expected
        )
    else:
        trace = None
        if mode == "nonstationary":
            trace, report.plan = run_nonstationary(config)
            stream = ArrivalSequence(trace.times, trace.types)
        else:
            count = inst.horizon if isinstance(model, StationaryArrivals) else 0
            # greedy alone needs no arrival times, only the hour runs
            stream = sample_stream(model, count, config.seed, config.params.grid_dt,
                                   times=mode == "stationary")
            if mode == "stationary":
                trace = run_integrated(config, stream, weights)
        report.arrivals = len(stream)
        report.stream = stream
        report.greedy = greedy_baseline(inst, stream, config.seed)
        report.greedy_revenue = float(report.greedy.purchased @ inst.rewards)
        if trace is not None:
            _fill_online_metrics(report, config, trace, weights)

    report.runtime_seconds = time.perf_counter() - started
    if out_dir is not None:
        emit_report(report, out_dir, trace_flag=trace_flag)
    return report


def _fill_online_metrics(
    report: MetricsReport,
    config: SimConfig,
    trace: Trace,
    weights: np.ndarray,
) -> None:
    """The online run's figures; regret is per segment when there is a plan."""
    inst = config.instance
    report.trace = trace
    report.online_dual_total = float(trace.f_vals.sum())
    report.realized_revenue = compute_revenue(trace, inst.rewards)

    counts_realized = np.bincount(trace.types, minlength=weights.size).astype(float)
    sol_real = _benchmark(
        config, counts_realized / counts_realized.sum(), report.arrivals)
    report.f_star_realized = sol_real.value
    if report.plan is None:
        sol = _benchmark(config, weights, report.arrivals)
        report.f_star = sol.value
        report.lam_star = sol.lam
        report.total_regret, report.average_regret = compute_regret(trace, sol.value)
    else:
        report.total_regret, report.average_regret, report.f_star = segment_regret(
            trace, report.plan, config)
        # a segmented run has no single expected-mix price; use the realized one
        report.lam_star = sol_real.lam
    report.offline_revenue_bound = offline_revenue_bound(
        inst, report.lam_star, counts_realized
    )


# ============================================================
# Files
# ============================================================

def _write_csv(path, header: str, blocks) -> None:
    """Write `header`, then the rows of each block, encoded by `_encode_rows`.

    A block is a nonempty list of equal-length columns of at least one row;
    `_row_blocks` cuts whole columns into blocks of _CSV_BLOCK rows, which
    keeps the memory for encoded text to one block. The arrivals histogram
    hands over one chunk of up to `arrivals._BLOCK` rows at a time, so each
    range table serves a whole chunk.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for block in blocks:
            fh.write(_encode_rows(block))


def _row_blocks(columns):
    """Equal-length `columns` cut into blocks of _CSV_BLOCK rows."""
    rows = len(columns[0]) if columns else 0
    for lo in range(0, rows, _CSV_BLOCK):
        yield [col[lo:lo + _CSV_BLOCK] for col in columns]


def _encode_rows(columns) -> bytes:
    """The CSV rows of equal-length columns.

    Each column becomes a NUL-padded (rows, width) byte matrix. An integer
    or bool column holds each value's `%d` text from `_digit_matrix`; one
    whose value range is no longer than the column gathers its rows from
    the matrix of that range, so each value in it is divided once, not once
    per row. A float column holds each value's `%.9g` text as Python's `%`
    gives it, and a bytes column is its own matrix, so an empty label is a
    blank field. Any other dtype raises TypeError. The matrices and the
    separator columns are joined row by row, and dropping the NULs leaves
    the rows.
    """
    parts = []
    for col in columns:
        value = np.asarray(col)
        kind = value.dtype.kind
        if kind in "biu":
            wide = np.int64 if kind == "i" else np.uint64
            lo, hi = int(value.min()), int(value.max())
            if hi - lo < value.size:
                span = np.arange(hi - lo + 1, dtype=wide)
                span += wide(lo)
                table = np.ascontiguousarray(_digit_matrix(span).T)
                parts.append(table.take(np.subtract(value, lo, dtype=wide), axis=0))
            else:
                parts.append(_digit_matrix(value).T)
        elif kind in "fS":
            if kind == "f":
                value = np.array([b"%.9g" % x for x in value.tolist()])
            value = np.ascontiguousarray(value)
            parts.append(value.view(np.uint8).reshape(value.size, -1))
        else:
            raise TypeError(f"no CSV encoding for a column of dtype {value.dtype}")
        parts.append(np.full((value.size, 1), ord(","), np.uint8))
    parts[-1] = np.full_like(parts[-1], ord("\n"))
    block = np.concatenate(parts, axis=1)
    return block[block != 0].tobytes()


def _digit_matrix(value: np.ndarray) -> np.ndarray:
    """A (width, rows) uint8 matrix of each integer's `%d` text, one column
    per value, right-aligned, with NUL bytes left of its first character.

    The digits are filled from the last up by dividing the magnitudes by
    10; a digit whose quotient was already 0 is a NUL. The magnitudes are
    uint64, so int64's minimum does not overflow, and are divided as
    uint32, which is faster, when the largest fits. When a value is
    negative, row 0 holds the signs.
    """
    magnitude = value.astype(np.uint64)
    negative = value < 0
    signed = bool(negative.any())
    if signed:
        np.negative(magnitude, out=magnitude, where=negative)
    top = int(magnitude.max())
    if top <= np.iinfo(np.uint32).max:
        magnitude = magnitude.astype(np.uint32)
    ten = magnitude.dtype.type(10)
    digits = np.empty((signed + len(str(top)), value.size), np.uint8)
    if signed:
        np.multiply(negative, np.uint8(ord("-")), out=digits[0])
    for c in range(len(digits) - 1, signed - 1, -1):
        shown = magnitude != 0
        # floor division by a scalar is faster than np.divmod
        quotient = magnitude // ten
        digits[c] = magnitude - quotient * ten
        magnitude = quotient
        digits[c] += np.uint8(ord("0"))
        if c < len(digits) - 1:  # a zero keeps its last digit
            digits[c] *= shown
    return digits


def write_trace_csv(trace: Trace, path) -> None:
    """Per-arrival CSV: t,time,type,item,purchased,phase (item blank when null)."""
    items = np.array([b""] + [b"%d" % i for i in range(trace.lam_final.size)])
    first = trace.t_start_index + 1
    _write_csv(
        path, "t,time,type,item,purchased,phase",
        _row_blocks([range(first, first + len(trace)), trace.times, trace.types,
                     items[trace.assigned + 1], trace.purchased,
                     np.array(PHASE_NAMES, dtype="S")[trace.phase]]),
    )


def write_lambda_csv(trace: Trace, path) -> None:
    """Checkpoint snapshots of the dual iterate: t,lambda_1..lambda_n."""
    ck = trace.checkpoints
    n = trace.lam_final.size
    header = ",".join(["t"] + [f"lambda_{i + 1}" for i in range(n)])
    _write_csv(path, header, _row_blocks([ck.t, *ck.lam.T]))


def write_checkpoint_csv(checkpoints: np.ndarray, errors: np.ndarray, path) -> None:
    """Learning-curve CSV: checkpoint,frobenius_to_truth."""
    checkpoints = np.asarray(checkpoints)
    errors = np.asarray(errors, dtype=float)
    if checkpoints.size != errors.size:
        raise InvalidInstance("checkpoint and error series differ in length")
    _write_csv(path, "checkpoint,frobenius_to_truth",
               _row_blocks([checkpoints, errors]))


def write_plan_csv(plan: SegmentPlan, path) -> None:
    """Plan CSV: t_start,t_end,label,v_or_epsilon,delta_max,w_1..w_m."""
    segs = plan.segments
    m = segs[0].weights.size if segs[0].weights is not None else 0
    header = ",".join(["t_start", "t_end", "label", "v_or_epsilon", "delta_max"]
                      + [f"w_{j + 1}" for j in range(m)])
    columns = [
        np.array([seg.t_start for seg in segs], dtype=float),
        np.array([seg.t_end for seg in segs], dtype=float),
        np.array([seg.label for seg in segs], dtype="S"),
        np.array([plan.epsilon if seg.label == "A" else seg.v for seg in segs],
                 dtype=float),
        np.array([0.0 if seg.label == "A" else seg.delta_vec.max() for seg in segs],
                 dtype=float),
        *(np.array([seg.weights for seg in segs], dtype=float).T if m else ()),
    ]
    _write_csv(path, header, _row_blocks(columns))


def _arrival_histogram(stream: ArrivalSequence | HourlyArrivals):
    """Yield hour, type, count column blocks over the stream's nonempty
    (floor(time), type) cells, in sorted order.

    The cells are counted from the stream's hour runs in chunks of whole
    hours, so each cell falls in a single chunk. A chunk holds at most
    `arrivals._BLOCK` arrivals over at most _BLOCK // m hours (m types), or
    one hour that holds more arrivals, whose types are then counted block
    by block; so its count array stays near _BLOCK long however sparse the
    hours are, and its block of nonempty cells is at most max(_BLOCK, m)
    rows.
    """
    hours, counts = stream.hour_runs()
    types = stream.types
    m = int(types.max()) + 1
    chunk = _arrivals._BLOCK
    span = max(chunk // m, 1)
    r = lo = 0
    while r < hours.size:
        h0 = int(hours[r])
        # hours are distinct, so every run of the chunk is within `span`
        window = slice(r, r + span)
        stop = r + max(1, min(
            int(np.searchsorted(hours[window], h0 + span)),
            int(np.searchsorted(np.cumsum(counts[window]), chunk, side="right"))))
        hi = lo + int(counts[r:stop].sum())
        if stop == r + 1:  # one hour, perhaps of more than `chunk` arrivals
            count = np.zeros(m, dtype=np.int64)
            for a, b in _blocks(hi, lo):
                count += np.bincount(types[a:b], minlength=m)
        else:
            key = np.repeat(hours[r:stop] - h0, counts[r:stop])
            key *= m
            key += types[lo:hi]
            count = np.bincount(key)
        # only the nonempty cells are kept while the chunk is encoded
        key = np.flatnonzero(count != 0)
        count = count[key]
        hour = key // m
        key -= hour * m
        hour += h0
        yield [hour, key, count]
        r, lo = stop, hi


def emit_report(
    report: MetricsReport,
    out_dir: str | Path,
    *,
    trace_flag: bool = False,
) -> list[Path]:
    """Write the report's CSV files plus runtime.txt into out_dir.

    Selections come from the online trace, else the greedy counts, the
    learning curve from the online trace, and the arrivals histogram from
    the stream; without them each is a header only.
    On any failure every file this call created is removed before the
    error propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _path(name: str) -> Path:
        written.append(out / name)
        return written[-1]

    tr = report.trace
    try:
        row = report.summary_row()
        _write_csv(_path("summary.csv"), ",".join(row),
                   [[np.array([v.encode()]) for v in row.values()]])

        if tr is not None:
            counts = tr.assignment_counts
        else:
            counts = report.greedy.assigned if report.greedy is not None else []
        _write_csv(_path("selections.csv"), "item,count",
                   _row_blocks([range(len(counts)), counts]))

        ck = (tr.checkpoints.t, tr.checkpoints.pref_error) if tr is not None else ((), ())
        write_checkpoint_csv(*ck, _path("pref_error.csv"))

        stream = report.stream
        hist = _arrival_histogram(stream) if stream is not None and len(stream) else ()
        _write_csv(_path("arrivals_hist.csv"), "hour,type,count", hist)

        if report.plan is not None:
            write_plan_csv(report.plan, _path("plan.csv"))

        if trace_flag and report.trace is not None:
            write_trace_csv(report.trace, _path("trace.csv"))
            write_lambda_csv(report.trace, _path("lambda.csv"))

        _path("runtime.txt").write_text(f"{report.runtime_seconds:.3f} seconds\n")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written
