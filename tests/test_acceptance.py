"""End-to-end acceptance gate.

One test per criterion, each at its pinned tolerance, evaluated on seeds
1..5 (20 seeds where the criterion calls for sampler statistics). Every
test registers a PASS/FAIL line with its measured numbers; the terminal
summary prints the full scoreboard. Criteria that the implementation does
not currently meet are asserted as stated and allowed to fail with their
measured values on display, not weakened until they pass.
"""

import time

import numpy as np
import pytest

from allocsim import (
    bound_type_probability,
    dual_gradient,
    recover_primal,
    sample_nonstationary_stream,
    sample_stationary_stream,
    scenario_nonstationary,
    scenario_stationary,
    solve_offline,
    solve_v_threshold,
)
from allocsim.harness import run_experiment
from allocsim.segmentation import certify_plan, segment_time_span
from conftest import random_dual_spec
from test_dual import fd_gradient, grid_minimum_2x2

SEEDS = (1, 2, 3, 4, 5)

RESULTS = []


def record(num, name, ok, detail):
    RESULTS.append((num, name, bool(ok), detail))
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_gradient_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        spec = random_dual_spec(rng)
        lam = rng.uniform(0.0, spec.rewards.max(), size=spec.n)
        analytic = dual_gradient(spec, lam)
        numeric = fd_gradient(spec, lam, h=1e-6)
        scale = max(1.0, float(np.abs(numeric).max()))
        worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
    elapsed = time.perf_counter() - started
    record(
        1, "gradient vs finite differences",
        worst <= 1e-5 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_offline_solver_matches_grid_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        spec = random_dual_spec(rng, n=2, m=2)
        box = float(spec.rewards.max())
        sol = solve_offline(spec, box_upper=box)
        oracle, _ = grid_minimum_2x2(spec, box, step=0.01)
        worst = max(worst, abs(sol.value - oracle))
    elapsed = time.perf_counter() - started
    record(
        2, "offline minimum vs 2x2 grid scan",
        worst <= 1e-3 and elapsed < 30.0,
        f"max |f* - grid| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_primal_rows_are_distributions():
    rng = np.random.default_rng(303)
    worst_sum = 0.0
    for _ in range(100):
        spec = random_dual_spec(rng)
        lam = rng.uniform(0.0, spec.rewards.max(), size=spec.n)
        x = recover_primal(spec.preferences, spec.rewards, spec.mu, lam)
        worst_sum = max(worst_sum, float(np.abs(x.sum(axis=1) - 1.0).max()))
    # symmetric instance: identical rewards, flat preference rows
    x_sym = recover_primal(np.full((4, 5), 0.3), np.full(5, 0.8), 0.2, np.zeros(5))
    worst_uniform = float(np.abs(x_sym - 0.2).max())
    record(
        3, "primal recovery normalization",
        worst_sum <= 1e-12 and worst_uniform <= 1e-12,
        f"row-sum err {worst_sum:.1e}, symmetric err {worst_uniform:.1e}",
    )


def test_criterion_04_average_regret_falls_with_horizon(stationary_report):
    started = time.perf_counter()
    grids = {}
    for seed in SEEDS:
        grids[seed] = [
            stationary_report(T, seed).average_regret
            for T in (1_000, 10_000, 100_000)
        ]
    decreasing = sum(a > b > c for a, b, c in grids.values())
    at_final = max(g[-1] for g in grids.values())
    elapsed = time.perf_counter() - started
    rows = "; ".join(
        f"s{seed}: {a:+.4f}>{b:+.4f}>{c:+.4f}" for seed, (a, b, c) in grids.items()
    )
    record(
        4, "stationary regret trend",
        decreasing >= 4 and at_final < 0.15 and elapsed < 300.0,
        f"{decreasing}/5 strictly decreasing, worst avg at 1e5 "
        f"{at_final:+.5f}, {elapsed:.0f}s [{rows}]",
    )


def test_criterion_05a_integrated_beats_greedy(stationary_report):
    wins = {T: 0 for T in (10_000, 100_000)}
    margins = []
    for T in wins:
        for seed in SEEDS:
            rep = stationary_report(T, seed)
            wins[T] += rep.realized_revenue > rep.greedy_revenue
            margins.append(rep.realized_revenue / rep.greedy_revenue)
    record(
        5, "revenue dominance over greedy",
        all(w >= 4 for w in wins.values()),
        f"wins {wins[10_000]}/5 at 1e4, {wins[100_000]}/5 at 1e5, "
        f"ratio range {min(margins):.2f}-{max(margins):.2f}",
    )


def test_criterion_05b_revenue_near_offline_bound(stationary_report):
    ratios = []
    for seed in SEEDS:
        rep = stationary_report(100_000, seed)
        ratios.append(rep.realized_revenue / rep.offline_revenue_bound)
    good = sum(r >= 0.85 for r in ratios)
    record(
        5, "revenue vs offline bound (0.85 at 1e5)",
        good >= 4,
        f"{good}/5 seeds >= 0.85; ratios "
        + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_06_preference_error_halves_by_5000(stationary_report):
    ratios = []
    for seed in SEEDS:
        rep = stationary_report(100_000, seed)
        t = rep.trace.checkpoints.t
        e1000 = float(rep.trace.checkpoints.pref_error[t == 1_000][0])
        e5000 = float(rep.trace.checkpoints.pref_error[t == 5_000][0])
        ratios.append(e5000 / e1000)
    median = float(np.median(ratios))
    record(
        6, "learning curve halves by checkpoint 5000",
        median <= 0.50,
        f"median e(5000)/e(1000) = {median:.4f}; per-seed "
        + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_07_segmentation_certifies():
    started = time.perf_counter()
    all_ok = True
    details = []
    for kind in ("extreme_budget", "varying_reward"):
        config = scenario_nonstationary(kind, 60_000, 24.0, seed=1)
        model = config.arrivals
        p = config.params
        plan = segment_time_span(
            model.rate_fns, 0.0, 24.0, p.epsilon, p.delta, p.d, p.grid_dt
        )
        certified = certify_plan(plan, model.rate_fns)
        adjacent = all(
            a.t_end == b.t_start
            for a, b in zip(plan.segments, plan.segments[1:])
        )
        covers = plan.segments[0].t_start == 0.0 and plan.segments[-1].t_end == 24.0
        all_ok &= bool(np.all(certified)) and adjacent and covers
        details.append(f"{kind}: {len(plan)} segments, "
                       f"{int(certified.sum())}/{len(plan)} certified")
    elapsed = time.perf_counter() - started
    record(
        7, "segment plans certify and partition",
        all_ok and elapsed < 10.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_08_threshold_algebra():
    v = solve_v_threshold(np.array([1.0, 1.0]), 0.75)
    _, _, dvec = bound_type_probability([(1.0, 2.0), (1.0, 2.0)])
    ok = abs(v - 1.0) <= 1e-9 and np.all(np.abs(dvec - 0.75) <= 1e-9)
    record(
        8, "variation threshold and band algebra",
        ok,
        f"v = {v:.12f}, band width = {float(dvec[0]):.12f}",
    )


def test_criterion_09_nonstationary_regret_bound(nonstationary_report):
    started = time.perf_counter()
    # bound constant: m (mu log n + r*) with delta from the scenario knobs
    config = scenario_nonstationary("extreme_budget", 6_000, 24.0, seed=1)
    inst = config.instance
    R = inst.m * (inst.mu * np.log(inst.n) + inst.r_star)
    cap = 1.5 * R * config.params.delta
    decreasing = 0
    worst = -np.inf
    pairs = []
    for seed in SEEDS:
        small = nonstationary_report("extreme_budget", 6_000, 24.0, seed)
        large = nonstationary_report("extreme_budget", 60_000, 24.0, seed)
        decreasing += small.average_regret > large.average_regret
        worst = max(worst, small.average_regret, large.average_regret)
        pairs.append(f"s{seed}: {small.average_regret:.4f}>"
                     f"{large.average_regret:.4f}")
    elapsed = time.perf_counter() - started
    record(
        9, "extreme-budget regret trend and bound",
        decreasing >= 4 and worst <= cap and elapsed < 600.0,
        f"{decreasing}/5 decreasing, worst avg {worst:.4f} vs cap {cap:.4f}, "
        f"{elapsed:.0f}s [{'; '.join(pairs)}]",
    )


def test_criterion_10_only_uncapped_stock_survives(nonstationary_report):
    config = scenario_nonstationary("extreme_budget", 60_000, 24.0, seed=1)
    finite = ~np.isinf(config.instance.budgets)
    good = 0
    leftovers = []
    for seed in SEEDS:
        rep = nonstationary_report("extreme_budget", 60_000, 24.0, seed)
        remaining = rep.trace.remaining_final
        depleted = bool(np.all(remaining[finite] < 1.0))
        alive = bool(np.isinf(remaining[~finite]).all())
        good += depleted and alive
        leftovers.append(float(remaining[finite].max()))
    record(
        10, "extreme-budget depletion outcome",
        good >= 4,
        f"{good}/5 seeds depleted all finite stock "
        f"(max leftover {max(leftovers):.2f} units)",
    )


def test_criterion_11_sampler_statistics():
    T = 100_000
    rates = 0.1 * np.arange(1, 11)
    p = rates / rates.sum()
    worst_stat = 0.0
    for seed in range(1, 21):
        seq = sample_stationary_stream(rates, T, seed)
        freq = np.bincount(seq.types, minlength=10) / T
        z = np.abs(freq - p) / np.sqrt(p * (1.0 - p) / T)
        worst_stat = max(worst_stat, float(z.max()))

    config = scenario_nonstationary("extreme_budget", T, 24.0, seed=1)
    model = config.arrivals
    knobs = config.params
    plan = segment_time_span(
        model.rate_fns, 0.0, 24.0, knobs.epsilon, knobs.delta, knobs.d,
        knobs.grid_dt,
    )
    expected = np.array([
        sum(fn.integral(seg.t_start, seg.t_end) for fn in model.rate_fns)
        for seg in plan.segments
    ])
    edges = np.array([seg.t_end for seg in plan.segments])
    worst_seg = 0.0
    for seed in range(1, 21):
        seq = sample_nonstationary_stream(
            model.rate_fns, 0.0, 24.0, seed, knobs.grid_dt
        )
        idx = np.searchsorted(edges[:-1], seq.times, side="right")
        counts = np.bincount(idx, minlength=len(plan))
        z = np.abs(counts - expected) / np.sqrt(expected)
        worst_seg = max(worst_seg, float(z.max()))

    record(
        11, "sampler statistics within 4 sigma",
        worst_stat <= 4.0 and worst_seg <= 4.0,
        f"worst z: stationary {worst_stat:.2f}, "
        f"per-segment {worst_seg:.2f} ({len(plan)} segments, 20 seeds)",
    )


def test_criterion_12_reruns_are_byte_identical(tmp_path):
    cells = [
        ("stationary", scenario_stationary(2_000, 5), True),
        ("nonstationary", scenario_nonstationary("extreme_budget", 3_000, 24.0, 5), True),
        ("greedy", scenario_stationary(2_000, 5), False),
        ("offline", scenario_stationary(2_000, 5), False),
    ]
    mismatches = []
    checked = 0
    for mode, config, trace_flag in cells:
        dir_a = tmp_path / f"{mode}_a"
        dir_b = tmp_path / f"{mode}_b"
        run_experiment(config, mode, out_dir=dir_a, trace_flag=trace_flag)
        run_experiment(config, mode, out_dir=dir_b, trace_flag=trace_flag)
        for path in sorted(dir_a.iterdir()):
            if path.name == "runtime.txt":
                continue
            checked += 1
            if path.read_bytes() != (dir_b / path.name).read_bytes():
                mismatches.append(f"{mode}/{path.name}")
    record(
        12, "byte-identical reruns",
        not mismatches,
        f"{checked} files compared across 4 modes"
        + (f"; mismatched: {mismatches}" if mismatches else ""),
    )
