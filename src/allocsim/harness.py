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

Report files are CSV (one directory per run). Wall-clock time goes to
runtime.txt, not the CSVs, so re-running a configuration byte-identically
reproduces every CSV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .arrivals import ArrivalSequence, sample_stream, type_probability_matrix
from .bandit import PreferenceEstimate, write_checkpoint_csv
from .dual import (
    OfflineSolution,
    WeightedDualSpec,
    dual_objective,
    recover_primal,
    solve_offline,
)
from .errors import DimensionMismatch, LengthMismatch, NonConvergence
from .integrated import (
    CheckpointLog,
    LoopState,
    Trace,
    run_integrated,
    write_lambda_csv,
    write_trace_csv,
)
from .model import (
    NonstationaryArrivals,
    ProblemInstance,
    SimConfig,
    StationaryArrivals,
    config_hash,
    substream,
)
from .segmentation import SegmentPlan, run_nonstationary, write_plan_csv

__all__ = [
    "MetricsReport",
    "greedy_baseline",
    "compute_regret",
    "compute_revenue",
    "preference_error",
    "offline_revenue_bound",
    "expected_type_weights",
    "benchmark_spec",
    "segment_regret",
    "run_experiment",
    "emit_report",
]


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
    selection_counts: np.ndarray | None = None
    pref_error_t: np.ndarray | None = None
    pref_error: np.ndarray | None = None
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
    *,
    backend: str | None = None,
) -> Trace:
    """Assign every arrival the highest-reward item still in stock (ties to
    the lowest index); purchases simulated from ground truth.

    Draws its purchase uniforms as a single stationary `run_integrated`
    call on the same seed does (a discarded selection block of len(arrivals)
    draws, then the purchase block), so against that run the two policies
    face identical purchase randomness per arrival. Against a non-stationary
    run, which draws per segment, the purchase draws do not line up.
    """
    n = instance.rewards.size
    m = instance.preferences.shape[0]
    T = len(arrivals)
    order = np.lexsort((np.arange(n), -instance.rewards)).astype(np.int64)
    rng = np.random.default_rng(substream(seed, "loop"))
    rng.random(T)  # discarded: keeps purchase draws aligned with run_integrated
    u_purchase = rng.random(T)
    remaining = instance.budgets.copy()
    assigned, bought = _kernels.greedy_loop(
        arrivals.types.astype(np.int64), order, instance.preferences,
        instance.infinite_items, remaining, u_purchase, backend=backend,
    )
    st = LoopState.fresh(n, m, instance.budgets)
    st.remaining = remaining
    return Trace(
        times=arrivals.times.copy(),
        types=arrivals.types.astype(np.int64),
        assigned=assigned,
        purchased=bought.astype(bool),
        phase=np.full(T, 2, dtype=np.uint8),
        f_vals=np.zeros(T),
        segment=np.zeros(T, dtype=np.int32),
        seed=seed,
        t_start_index=0,
        checkpoints=CheckpointLog.empty(n),
        estimate=st.estimate(),
        lam_final=np.zeros(n),
        remaining_final=remaining.copy(),
        carry=st,
    )


# ============================================================
# Metrics
# ============================================================

def compute_regret(
    trace: Trace,
    benchmark: WeightedDualSpec,
    lam_star: np.ndarray,
    f_series: np.ndarray | None = None,
) -> tuple[float, float]:
    """Total and average regret of the recorded dual values against the
    fixed offline benchmark value."""
    f_series = trace.f_vals if f_series is None else np.asarray(f_series, dtype=float)
    if f_series.size != len(trace):
        raise LengthMismatch("f_series length != trace length")
    f_star = dual_objective(benchmark, lam_star)
    total = float(f_series.sum() - f_series.size * f_star)
    return total, total / f_series.size


def compute_revenue(trace: Trace, rewards: np.ndarray) -> float:
    """Realized revenue: sum of rewards over purchased assignments."""
    rewards = np.asarray(rewards, dtype=float)
    mask = trace.purchased & (trace.assigned >= 0)
    return float(rewards[trace.assigned[mask]].sum())


def preference_error(p_hat: np.ndarray, p_star: np.ndarray) -> float:
    """Frobenius distance between estimated and true preference matrices."""
    p_hat = np.asarray(p_hat, dtype=float)
    p_star = np.asarray(p_star, dtype=float)
    if p_hat.shape != p_star.shape:
        raise DimensionMismatch("preference matrices differ in shape")
    return float(np.linalg.norm(p_hat - p_star))


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
    totals = np.array(
        [fn.integral(model.t0, model.t_end) for fn in model.rate_fns]
    )
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
    lam_max = params.lambda_max if params.lambda_max is not None else config.instance.r_star
    sol = solve_offline(
        spec, tol=params.offline_tol, max_iter=params.offline_max_iter,
        box_upper=lam_max,
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
        per_type = np.array(
            [fn.integral(seg.t_start, seg.t_end) for fn in model.rate_fns]
        )
        expected = max(1, round(float(per_type.sum())))
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
        expected = _expected_total_arrivals(config)
        spec = benchmark_spec(config, weights, expected)
        sol = _solve_benchmark(config, spec)
        report.f_star = sol.value
        report.lam_star = sol.lam
        report.offline_revenue_bound = offline_revenue_bound(
            inst, sol.lam, weights * expected
        )
    elif mode == "greedy":
        stream = _sample_for(config)
        gtrace = greedy_baseline(inst, stream, config.seed, backend=backend)
        report.arrivals = len(stream)
        report.greedy_trace = gtrace
        report.greedy_revenue = compute_revenue(gtrace, inst.rewards)
        report.selection_counts = gtrace.assignment_counts
    elif mode == "stationary":
        stream = _sample_for(config)
        weights = expected_type_weights(config)
        trace = run_integrated(config, stream, weights, backend=backend)
        gtrace = greedy_baseline(inst, stream, config.seed, backend=backend)
        _fill_online_metrics(report, config, trace, gtrace, weights, len(stream))
    else:
        trace, plan = run_nonstationary(config, backend=backend)
        stream = ArrivalSequence(trace.times, trace.types, config.seed)
        gtrace = greedy_baseline(inst, stream, config.seed, backend=backend)
        report.plan = plan
        _fill_online_metrics(
            report, config, trace, gtrace, expected_type_weights(config),
            len(stream), plan=plan,
        )

    report.runtime_seconds = time.perf_counter() - started
    if out_dir is not None:
        emit_report(report, out_dir, trace_flag=trace_flag)
    return report


def _expected_total_arrivals(config: SimConfig) -> int:
    model = config.arrivals
    if isinstance(model, StationaryArrivals):
        return int(config.instance.horizon)
    total = sum(fn.integral(model.t0, model.t_end) for fn in model.rate_fns)
    return max(1, round(total))


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
    report.selection_counts = trace.assignment_counts
    report.pref_error_t = trace.checkpoints.t.copy()
    report.pref_error = trace.checkpoints.pref_error.copy()

    counts_realized = np.bincount(trace.types, minlength=weights.size).astype(float)
    if plan is None:
        spec = benchmark_spec(config, weights, n_arrivals)
        sol = _solve_benchmark(config, spec)
        report.f_star = sol.value
        report.lam_star = sol.lam
        total, avg = compute_regret(trace, spec, sol.lam)
        report.total_regret = total
        report.average_regret = avg
        spec_real = benchmark_spec(
            config, counts_realized / counts_realized.sum(), n_arrivals
        )
        sol_real = _solve_benchmark(config, spec_real)
        report.f_star_realized = sol_real.value
        report.offline_revenue_bound = offline_revenue_bound(
            inst, sol.lam, counts_realized
        )
    else:
        total, avg, f_star_w = segment_regret(trace, plan, config)
        report.total_regret = total
        report.average_regret = avg
        report.f_star = f_star_w
        spec_real = benchmark_spec(
            config, counts_realized / counts_realized.sum(), n_arrivals
        )
        sol_real = _solve_benchmark(config, spec_real)
        report.f_star_realized = sol_real.value
        report.lam_star = sol_real.lam
        report.offline_revenue_bound = offline_revenue_bound(
            inst, sol_real.lam, counts_realized
        )


# ============================================================
# Files
# ============================================================

def emit_report(
    report: MetricsReport,
    out_dir: str | Path,
    *,
    trace_flag: bool = False,
) -> list[Path]:
    """Write the report's CSV files plus runtime.txt into out_dir.

    On any failure every file this call created is removed before the
    error propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _open(name: str):
        path = out / name
        written.append(path)
        return open(path, "w", newline="")

    try:
        with _open("summary.csv") as fh:
            row = report.summary_row()
            fh.write(",".join(row.keys()) + "\n")
            fh.write(",".join(row.values()) + "\n")

        with _open("selections.csv") as fh:
            fh.write("item,count\n")
            if report.selection_counts is not None:
                for i, c in enumerate(report.selection_counts):
                    fh.write(f"{i},{int(c)}\n")

        path = out / "pref_error.csv"
        written.append(path)
        write_checkpoint_csv(
            report.pref_error_t if report.pref_error_t is not None else np.empty(0),
            report.pref_error if report.pref_error is not None else np.empty(0),
            path,
        )

        with _open("arrivals_hist.csv") as fh:
            fh.write("hour,type,count\n")
            tr = report.trace if report.trace is not None else report.greedy_trace
            if tr is not None and len(tr):
                hours = np.floor(tr.times).astype(np.int64)
                m = int(tr.types.max()) + 1
                key = hours * m + tr.types
                uniq, cnt = np.unique(key, return_counts=True)
                for k, c in zip(uniq, cnt):
                    fh.write(f"{int(k // m)},{int(k % m)},{int(c)}\n")

        if report.plan is not None:
            path = out / "plan.csv"
            written.append(path)
            write_plan_csv(report.plan, path)

        if trace_flag and report.trace is not None:
            path = out / "trace.csv"
            written.append(path)
            write_trace_csv(report.trace, path)
            path = out / "lambda.csv"
            written.append(path)
            write_lambda_csv(report.trace, path)

        with _open("runtime.txt") as fh:
            fh.write(f"{report.runtime_seconds:.3f} seconds\n")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written
