"""Baselines, metrics, experiment orchestration, and report files.

The greedy baseline always consumes the same arrival stream as the online
run it is compared against. On a stationary run it also consumes the same
per-arrival purchase uniforms, so that revenue gap reflects policy, not
luck. A non-stationary run is not paired that way: its online loop draws
selection and purchase uniforms segment by segment from one stream, while
the greedy baseline draws one horizon-long selection block and then one
purchase block, so the two face different purchase draws. Regret always
benchmarks against the offline solve on ground-truth preferences with
expected type weights; a realized-count benchmark column is emitted
alongside for transparency.

Report files are CSV (one directory per run), and this module writes all
of them through one block writer: a header line, then rows with `%.9g`
floats and a blank item for a null assignment. Wall-clock time goes to
runtime.txt, not the CSVs, so re-running a configuration byte-identically
reproduces every CSV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrivals import ArrivalSequence, sample_stream
from .dual import (
    OfflineSolution,
    WeightedDualSpec,
    recover_primal,
    solve_offline,
)
from .errors import DimensionMismatch, LengthMismatch, NonConvergence
from .integrated import (
    PHASE_NAMES,
    CheckpointLog,
    LoopState,
    Trace,
    run_integrated,
)
from .model import (
    ProblemInstance,
    SimConfig,
    StationaryArrivals,
    config_hash,
    substream,
)
from .segmentation import SegmentPlan, run_nonstationary

__all__ = [
    "MetricsReport",
    "greedy_baseline",
    "compute_regret",
    "compute_revenue",
    "offline_revenue_bound",
    "expected_type_weights",
    "benchmark_spec",
    "segment_regret",
    "run_experiment",
    "emit_report",
    "write_trace_csv",
    "write_lambda_csv",
    "write_checkpoint_csv",
    "write_plan_csv",
]

_CSV_BLOCK = 4096  # report rows formatted per write


# ============================================================
# Report container
# ============================================================

@dataclass
class MetricsReport:
    """Everything an experiment run produces, file-ready."""

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
    greedy_trace: Trace | None = None
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

def greedy_baseline(
    instance: ProblemInstance,
    arrivals: ArrivalSequence,
    seed: int,
) -> Trace:
    """Assign every arrival the highest-reward item still in stock (ties to
    the lowest index); purchases simulated from ground truth.

    Stock is spent per offer and the policy ignores the customer type, so
    the assignment has a closed form: in reward order, each capped item
    takes the next floor(b_i) arrivals, the first uncapped item takes every
    arrival after that, and items ranked below it are never offered. With
    no uncapped item, arrivals past the total stock get the null (-1).

    Draws its purchase uniforms as a single stationary `run_integrated`
    call on the same seed does (a discarded selection block of len(arrivals)
    draws, then the purchase block), so against that run the two policies
    face identical purchase randomness per arrival. Against a non-stationary
    run, which draws per segment, the purchase draws do not line up.
    """
    n = instance.rewards.size
    m = instance.preferences.shape[0]
    arrivals.check_types(m)
    T = len(arrivals)
    types = arrivals.types.astype(np.int64)
    infinite = instance.infinite_items
    order = np.lexsort((np.arange(n), -instance.rewards))
    # rank of the first uncapped item, n when there is none
    k = int(np.argmax(infinite[order])) if infinite.any() else n
    capped = order[:k]
    after_stock = order[k] if k < n else -1
    stock_ends = np.cumsum(np.floor(instance.budgets[capped]))
    slot = np.searchsorted(stock_ends, np.arange(T), side="right")
    assigned = np.append(capped, after_stock)[slot]

    rng = substream(seed, "loop")
    rng.random(T)  # discarded: keeps purchase draws aligned with run_integrated
    u_purchase = rng.random(T)
    offered = assigned >= 0
    bought = np.zeros(T, dtype=bool)
    bought[offered] = (
        u_purchase[offered] < instance.preferences[types[offered], assigned[offered]]
    )

    remaining = instance.budgets.copy()
    spent = np.bincount(assigned[offered], minlength=n)
    remaining[~infinite] -= spent[~infinite]
    st = LoopState.fresh(n, m, instance.budgets)
    st.remaining = remaining
    return Trace(
        times=arrivals.times.copy(),
        types=types,
        assigned=assigned,
        purchased=bought,
        phase=np.full(T, 2, dtype=np.uint8),
        f_vals=np.zeros(T),
        segment=np.zeros(T, dtype=np.int32),
        seed=seed,
        t_start_index=0,
        checkpoints=CheckpointLog.empty(n),
        lam_final=np.zeros(n),
        remaining_final=remaining.copy(),
        carry=st,
    )


# ============================================================
# Metrics
# ============================================================

def compute_regret(trace: Trace, f_star: float) -> tuple[float, float]:
    """Total and average regret of the recorded dual values against the
    fixed offline benchmark value `f_star` (the solver's `value`)."""
    total = float(trace.f_vals.sum() - trace.f_vals.size * f_star)
    return total, total / trace.f_vals.size


def compute_revenue(trace: Trace, rewards: np.ndarray) -> float:
    """Realized revenue: sum of rewards over purchased assignments."""
    rewards = np.asarray(rewards, dtype=float)
    mask = trace.purchased & (trace.assigned >= 0)
    return float(rewards[trace.assigned[mask]].sum())


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


def benchmark_spec(
    config: SimConfig,
    weights: np.ndarray,
    expected_count: int,
) -> WeightedDualSpec:
    """Offline benchmark dual: ground-truth preferences, given type mix,
    budget scale 1/T."""
    inst = config.instance
    return WeightedDualSpec(
        weights=np.asarray(weights, dtype=float),
        budget_scale=1.0 / max(int(expected_count), 1),
        preferences=inst.preferences,
        rewards=inst.rewards,
        budgets=inst.budgets,
        mu=inst.mu,
    )


def _solve_benchmark(config: SimConfig, spec: WeightedDualSpec) -> OfflineSolution:
    params = config.params
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
        spec = benchmark_spec(config, per_type / per_type.sum(), expected)
        sol = _solve_benchmark(config, spec)
        total += float(trace.f_vals[mask].sum()) - cnt * sol.value
        star_sum += cnt * sol.value
        n_arrivals += cnt
    if n_arrivals == 0:
        raise LengthMismatch("trace has no arrivals tagged to plan segments")
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
    backend: str | None = None,
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

    if mode == "offline":
        weights = expected_type_weights(config)
        model = config.arrivals
        expected = (inst.horizon if isinstance(model, StationaryArrivals)
                    else model.expected_arrivals(model.t0, model.t_end)[1])
        spec = benchmark_spec(config, weights, expected)
        sol = _solve_benchmark(config, spec)
        report.f_star = sol.value
        report.lam_star = sol.lam
        report.offline_revenue_bound = offline_revenue_bound(
            inst, sol.lam, weights * expected
        )
    elif mode == "greedy":
        stream = _sample_for(config)
        gtrace = greedy_baseline(inst, stream, config.seed)
        report.arrivals = len(stream)
        report.greedy_trace = gtrace
        report.greedy_revenue = compute_revenue(gtrace, inst.rewards)
    elif mode == "stationary":
        stream = _sample_for(config)
        weights = expected_type_weights(config)
        trace = run_integrated(config, stream, weights, backend=backend)
        gtrace = greedy_baseline(inst, stream, config.seed)
        _fill_online_metrics(report, config, trace, gtrace, weights, len(stream))
    else:
        trace, plan = run_nonstationary(config, backend=backend)
        stream = ArrivalSequence(trace.times, trace.types, config.seed)
        gtrace = greedy_baseline(inst, stream, config.seed)
        report.plan = plan
        _fill_online_metrics(
            report, config, trace, gtrace, expected_type_weights(config),
            len(stream), plan=plan,
        )

    report.runtime_seconds = time.perf_counter() - started
    if out_dir is not None:
        emit_report(report, out_dir, trace_flag=trace_flag)
    return report


def _sample_for(config: SimConfig) -> ArrivalSequence:
    model = config.arrivals
    count = config.instance.horizon if isinstance(model, StationaryArrivals) else 0
    return sample_stream(model, count, config.seed, config.params.grid_dt)


def _fill_online_metrics(
    report: MetricsReport,
    config: SimConfig,
    trace: Trace,
    gtrace: Trace,
    weights: np.ndarray,
    n_arrivals: int,
    plan: SegmentPlan | None = None,
) -> None:
    inst = config.instance
    report.arrivals = n_arrivals
    report.trace = trace
    report.greedy_trace = gtrace
    report.online_dual_total = float(trace.f_vals.sum())
    report.realized_revenue = compute_revenue(trace, inst.rewards)
    report.greedy_revenue = compute_revenue(gtrace, inst.rewards)

    counts_realized = np.bincount(trace.types, minlength=weights.size).astype(float)
    spec_real = benchmark_spec(
        config, counts_realized / counts_realized.sum(), n_arrivals
    )
    sol_real = _solve_benchmark(config, spec_real)
    report.f_star_realized = sol_real.value
    if plan is None:
        spec = benchmark_spec(config, weights, n_arrivals)
        sol = _solve_benchmark(config, spec)
        report.f_star = sol.value
        report.lam_star = sol.lam
        report.total_regret, report.average_regret = compute_regret(trace, sol.value)
    else:
        report.total_regret, report.average_regret, report.f_star = segment_regret(
            trace, plan, config)
        # a segmented run has no single expected-mix price; use the realized one
        report.lam_star = sol_real.lam
    report.offline_revenue_bound = offline_revenue_bound(
        inst, report.lam_star, counts_realized
    )


# ============================================================
# Files
# ============================================================

def _write_csv(path, header: str, row_format: str, columns) -> None:
    """Write `header`, then one `row_format` line per row of `columns`.

    `columns` are equal-length arrays or lists, one per %-field of
    `row_format`. Rows are formatted from Python scalars a block of
    _CSV_BLOCK rows at a time, which keeps the memory for formatted text
    to one block.
    """
    width = len(columns)
    rows = len(columns[0]) if width else 0
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, rows, _CSV_BLOCK):
            k = min(_CSV_BLOCK, rows - lo)
            values = [None] * (k * width)
            for i, col in enumerate(columns):
                block = col[lo:lo + k]
                values[i::width] = (
                    block.tolist() if isinstance(block, np.ndarray) else block)
            fh.write((row_format * k) % tuple(values))


def write_trace_csv(trace: Trace, path) -> None:
    """Per-arrival CSV: t,time,type,item,purchased,phase (item blank when null)."""
    items = trace.assigned.astype(object)
    items[trace.assigned < 0] = ""
    first = trace.t_start_index + 1
    _write_csv(
        path, "t,time,type,item,purchased,phase", "%d,%.9g,%d,%s,%d,%s\n",
        [range(first, first + len(trace)), trace.times, trace.types, items,
         trace.purchased, np.array(PHASE_NAMES, dtype=object)[trace.phase]],
    )


def write_lambda_csv(trace: Trace, path) -> None:
    """Checkpoint snapshots of the dual iterate: t,lambda_1..lambda_n."""
    ck = trace.checkpoints
    n = trace.lam_final.size
    header = ",".join(["t"] + [f"lambda_{i + 1}" for i in range(n)])
    _write_csv(path, header, "%d" + ",%.9g" * n + "\n", [ck.t, *ck.lam.T])


def write_checkpoint_csv(checkpoints: np.ndarray, errors: np.ndarray, path) -> None:
    """Learning-curve CSV: checkpoint,frobenius_to_truth."""
    checkpoints = np.asarray(checkpoints)
    errors = np.asarray(errors, dtype=float)
    if checkpoints.size != errors.size:
        raise DimensionMismatch("checkpoint and error series differ in length")
    _write_csv(path, "checkpoint,frobenius_to_truth", "%d,%.9g\n",
               [checkpoints, errors])


def write_plan_csv(plan: SegmentPlan, path) -> None:
    """Plan CSV: t_start,t_end,label,v_or_epsilon,delta_max,w_1..w_m."""
    segs = plan.segments
    m = segs[0].weights.size if segs[0].weights is not None else 0
    header = ",".join(["t_start", "t_end", "label", "v_or_epsilon", "delta_max"]
                      + [f"w_{j + 1}" for j in range(m)])
    rows = [
        (seg.t_start, seg.t_end, seg.label,
         seg.epsilon_used if seg.label == "A" else seg.v,
         0.0 if seg.label == "A" else float(seg.delta_vec.max()),
         *(seg.weights if m else ()))
        for seg in segs
    ]
    _write_csv(path, header, "%.9g,%.9g,%s,%.9g,%.9g" + ",%.9g" * m + "\n",
               list(zip(*rows)))


def _arrival_histogram(trace: Trace) -> list[np.ndarray]:
    """Columns hour, type, count over the trace's nonempty (floor(time), type)
    cells, in sorted order. The key arithmetic runs in place and only the
    nonzero counts are kept, which holds down peak memory on a long run."""
    key = np.floor(trace.times).astype(np.int64)
    h0 = int(key.min())
    m = int(trace.types.max()) + 1
    key -= h0
    key *= m
    key += trace.types
    count = np.bincount(key)
    key = np.flatnonzero(count)
    count = count[key]
    return [key // m + h0, key % m, count]


def emit_report(
    report: MetricsReport,
    out_dir: str | Path,
    *,
    trace_flag: bool = False,
) -> list[Path]:
    """Write the report's CSV files plus runtime.txt into out_dir.

    Selections, the learning curve and the arrivals histogram come from the
    online trace, else the greedy one; with neither they are headers only.
    On any failure every file this call created is removed before the
    error propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _path(name: str) -> Path:
        written.append(out / name)
        return written[-1]

    tr = report.trace if report.trace is not None else report.greedy_trace
    try:
        row = report.summary_row()
        _write_csv(_path("summary.csv"), ",".join(row), "%s\n",
                   [[",".join(row.values())]])

        counts = tr.assignment_counts if tr is not None else []
        _write_csv(_path("selections.csv"), "item,count", "%d,%d\n",
                   [range(len(counts)), counts])

        ck = tr.checkpoints if tr is not None else CheckpointLog.empty(0)
        write_checkpoint_csv(ck.t, ck.pref_error, _path("pref_error.csv"))

        hist = _arrival_histogram(tr) if tr is not None and len(tr) else [[]] * 3
        _write_csv(_path("arrivals_hist.csv"), "hour,type,count", "%d,%d,%d\n", hist)

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
