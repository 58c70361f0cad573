"""Baselines, metrics, report files, and the command-line interface."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import allocsim
import allocsim.harness as harness
from allocsim import (
    ArrivalSequence,
    HourlyArrivals,
    LoopState,
    ProblemInstance,
    StationaryArrivals,
    Trace,
    compute_regret,
    compute_revenue,
    emit_report,
    greedy_baseline,
    run_integrated,
    sample_stationary_stream,
    sample_stream,
    save_config,
    scenario_nonstationary,
    scenario_stationary,
)
from allocsim import _kernels, arrivals
from allocsim.arrivals import _BLOCK, _index_dtype
from allocsim._kernels import BACKENDS, available_backends
from allocsim.cli import COMMANDS, main
from allocsim.errors import InvalidInstance
from allocsim.harness import (
    _CSV_BLOCK,
    MetricsReport,
    _row_blocks,
    _write_csv,
    expected_type_weights,
    offline_revenue_bound,
    run_experiment,
    write_trace_csv,
)
from allocsim.integrated import _item_counts
from allocsim.model import (
    GRID_DT_DEFAULT,
    AlgoParams,
    RateFunction,
    RatePiece,
    SimConfig,
    config_document,
    config_from_document,
    substream,
)
from allocsim.segmentation import certify_plan, segment_time_span
from conftest import edge_assignments, loop_config


def tiny_instance(rewards, budgets, p=1.0):
    rewards = np.asarray(rewards, dtype=float)
    prefs = np.full((1, rewards.size), p)
    return ProblemInstance(
        rewards=rewards,
        budgets=np.asarray(budgets, dtype=float),
        mu=0.1,
        preferences=prefs,
        horizon=10,
    )


def greedy_reference(instance, arrivals, seed):
    """Per-arrival greedy: offer the highest-reward item with a unit in stock
    (ties to the lower index), take the unit, and buy on the arrival's
    purchase uniform, drawn after skipping len(arrivals) selection draws."""
    rewards = instance.rewards.tolist()
    order = sorted(range(len(rewards)), key=lambda i: (-rewards[i], i))
    rng = substream(seed, "loop")
    rng.bit_generator.advance(len(arrivals))
    u = rng.random(len(arrivals))
    remaining = instance.budgets.copy()
    assigned, purchased = [], []
    for t, j in enumerate(arrivals.types.tolist()):
        item = next((i for i in order if remaining[i] >= 1.0), -1)
        if item >= 0:
            remaining[item] -= 1.0
        assigned.append(item)
        purchased.append(item >= 0 and u[t] < instance.preferences[j, item])
    return np.array(assigned), np.array(purchased), remaining


def greedy_matches_reference(instance, arrivals, seed):
    """Run greedy_baseline and assert its per-item assignment and purchase
    counts and its remaining stock equal those of greedy_reference on the
    same stream; return its result and the reference's per-arrival items
    and purchases."""
    got = greedy_baseline(instance, arrivals, seed)
    assigned, purchased, remaining = greedy_reference(instance, arrivals, seed)
    n = instance.rewards.size
    offered = assigned >= 0
    assert got.assigned.dtype == got.purchased.dtype == np.int64
    np.testing.assert_array_equal(
        got.assigned, np.bincount(assigned[offered], minlength=n))
    np.testing.assert_array_equal(
        got.purchased, np.bincount(assigned[offered & purchased], minlength=n))
    assert got.remaining.tobytes() == remaining.tobytes()
    return got, assigned, purchased


def flat_loop_trace():
    """Three arrivals through the loop on two uncapped items of reward 0.5
    that every customer buys: each arrival is offered an item and buys it."""
    config = loop_config(n=2, rewards=[0.5, 0.5])
    trace = run_integrated(config, three_arrivals(), np.ones(1))
    assert np.all(trace.assigned >= 0) and np.all(trace.purchased)
    return config.instance, trace


def three_arrivals():
    return ArrivalSequence(
        times=np.array([0.1, 0.2, 0.3]), types=np.zeros(3, dtype=np.int64)
    )


class TestGreedyBaseline:
    def test_hand_trace(self):
        # item 0 pays 1 but stocks a single unit; everything after spills
        # onto the infinite item at 0.5
        inst = tiny_instance([1.0, 0.5], [1.0, np.inf])
        got, assigned, purchased = greedy_matches_reference(inst, three_arrivals(), 0)
        np.testing.assert_array_equal(assigned, [0, 1, 1])
        assert np.all(purchased)
        np.testing.assert_array_equal(got.assigned, [1, 2])
        np.testing.assert_array_equal(got.purchased, [1, 2])
        assert got.purchased @ inst.rewards == pytest.approx(2.0)

    def test_infinite_budgets_never_spill(self):
        inst = tiny_instance([0.3, 0.9, 0.6], [np.inf, np.inf, np.inf])
        stream = sample_stationary_stream(np.array([1.0]), 50, seed=1)
        got, assigned, _ = greedy_matches_reference(inst, stream, 1)
        assert np.all(assigned == 1)
        np.testing.assert_array_equal(got.assigned, [0, 50, 0])

    def test_never_buying_still_consumes_offers(self):
        inst = tiny_instance([1.0, 0.5], [1.0, 2.0], p=0.0)
        # a zero preference row is invalid, so dodge validation on purpose
        inst.preferences[:] = 0.0
        got, assigned, _ = greedy_matches_reference(inst, three_arrivals(), 0)
        assert got.purchased @ inst.rewards == 0.0
        # stock moves per offer, not per sale: one unit of item 0, then two
        # of item 1, regardless of whether anyone buys
        np.testing.assert_array_equal(assigned, [0, 1, 1])
        np.testing.assert_array_equal(got.assigned, [1, 2])
        np.testing.assert_array_equal(got.remaining, [0.0, 0.0])

    def test_reward_ties_break_low(self):
        inst = tiny_instance([0.8, 0.8], [np.inf, np.inf])
        got, assigned, _ = greedy_matches_reference(inst, three_arrivals(), 0)
        assert np.all(assigned == 0)
        np.testing.assert_array_equal(got.assigned, [3, 0])

    def test_fractional_budgets_then_nulls(self):
        # no uncapped item: in reward order each item serves floor(b_i)
        # arrivals, so 0.4 units never serve one, and the rest get the null
        inst = tiny_instance([1.0, 0.8, 0.5], [2.7, 0.4, 1.0])
        stream = ArrivalSequence(times=np.arange(1.0, 6.0) / 10,
                                 types=np.zeros(5, dtype=np.int64))
        got, assigned, purchased = greedy_matches_reference(inst, stream, 0)
        np.testing.assert_array_equal(assigned, [0, 0, 2, -1, -1])
        np.testing.assert_array_equal(purchased, [True] * 3 + [False] * 2)
        np.testing.assert_array_equal(got.assigned, [2, 0, 1])
        np.testing.assert_array_equal(got.purchased, [2, 0, 1])
        np.testing.assert_allclose(got.remaining, [0.7, 0.4, 0.0],
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["stationary", "extreme_budget"])
    def test_stock_ledger_counts_every_capped_assignment(self, kind):
        # an assignment of a capped item takes one unit of its stock, bought
        # or not, as in the loop
        config = (scenario_stationary(T=20_000, seed=2) if kind == "stationary"
                  else scenario_nonstationary(kind, 6000, 24.0, seed=1))
        stream = sample_stream(config.arrivals, config.instance.horizon,
                               config.seed)
        got, assigned, purchased = greedy_matches_reference(
            config.instance, stream, config.seed)
        capped = np.flatnonzero(~config.instance.infinite_items)
        spent = config.instance.budgets[capped] - got.remaining[capped]
        np.testing.assert_allclose(spent, got.assigned[capped], rtol=0.0, atol=1e-9)
        assert got.assigned[capped].sum() > 0
        assert (got.purchased[capped] < got.assigned[capped]).any()
        unbought = np.isin(assigned, capped) & ~purchased
        assert unbought.any()

    def test_purchase_draws_paired_with_stationary_run(self):
        # greedy skips the loop's selection block and reads its purchase
        # block, so wherever both policies offer an arrival the same item
        # they face the same uniform and make the same purchase
        config = scenario_stationary(T=20_000, seed=2)
        stream = sample_stream(config.arrivals, config.instance.horizon,
                               config.seed)
        online = run_integrated(config, stream, expected_type_weights(config))
        _, assigned, purchased = greedy_matches_reference(
            config.instance, stream, config.seed)
        same = (online.assigned == assigned) & (assigned >= 0)
        assert same.sum() > 1000
        assert not purchased[same].all()
        np.testing.assert_array_equal(online.purchased[same], purchased[same])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("uncapped", [True, False])
    def test_matches_per_arrival_reference(self, seed, uncapped):
        # random small instances: five rewards from three values, so ties
        # occur; fractional budgets, and a top-reward item below one unit (a
        # zero-length stock run); one bottom-reward uncapped item or none,
        # and then the arrivals past the stock get the null
        rng = np.random.default_rng(seed)
        n, m, T = 5, 3, 40
        rewards = rng.choice([0.3, 0.6, 0.9], n)
        budgets = rng.uniform(0.0, 8.0, n)
        small, free = rng.choice(n, 2, replace=False)
        rewards[small], budgets[small] = 0.9, rng.uniform(0.0, 1.0)
        if uncapped:
            rewards[free], budgets[free] = 0.3, np.inf
        inst = ProblemInstance(
            rewards=rewards, budgets=budgets, mu=0.1,
            preferences=rng.uniform(0.05, 1.0, (m, n)), horizon=T)
        stream = ArrivalSequence(np.sort(rng.uniform(0.0, 10.0, T)),
                                 rng.integers(0, m, T))
        _, assigned, purchased = greedy_matches_reference(inst, stream, seed)
        assert (-1 in assigned) != uncapped
        assert purchased.any() and not purchased[assigned >= 0].all()

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_purchase_blocks_match_one_draw(self, monkeypatch, block):
        # each stock run draws its uniforms in pieces of arrivals._BLOCK // 8
        # (at least 1: 1, 1 and 8 here); runs of 5 and 8 arrivals and an
        # uncapped tail of 27 cut at a piece edge or short of one, and
        # consecutive draws equal one horizon-long draw
        monkeypatch.setattr(arrivals, "_BLOCK", block)
        inst = tiny_instance([1.0, 0.8, 0.5], [5.0, 8.0, np.inf], p=0.5)
        stream = sample_stationary_stream(np.array([1.0]), 40, seed=3)
        _, _, purchased = greedy_matches_reference(inst, stream, 3)
        assert purchased.any() and not purchased.all()

    def test_items_behind_an_uncapped_item_never_offered(self):
        # reward order is item 1, item 2 (uncapped), item 0: item 0 keeps
        # its stock however long the stream runs
        inst = tiny_instance([0.5, 1.0, 0.9], [5.0, 1.0, np.inf])
        got, assigned, _ = greedy_matches_reference(inst, three_arrivals(), 0)
        np.testing.assert_array_equal(assigned, [1, 2, 2])
        np.testing.assert_array_equal(got.assigned, [0, 1, 2])
        np.testing.assert_array_equal(got.remaining, [5.0, 0.0, np.inf])


@pytest.mark.parametrize("bad_type", [10, -1])
@pytest.mark.parametrize("policy", ["integrated", "greedy"])
def test_arrival_type_outside_instance_rejected(policy, bad_type):
    # m = 10: type 10 used to hit a bare IndexError, and type -1 to run as
    # type 9; both are refused before the loop state moves
    config = scenario_stationary(T=100, seed=1)
    stream = ArrivalSequence(times=np.array([0.5]), types=np.array([bad_type]))
    with pytest.raises(InvalidInstance, match=r"arrival types must lie in \[0, 10\)"):
        if policy == "greedy":
            greedy_baseline(config.instance, stream, seed=1)
        else:
            state = LoopState.fresh(10, 10, config.instance.budgets)
            run_integrated(config, stream, expected_type_weights(config),
                           loop_state=state)
    if policy == "integrated":
        assert state.t_global == 0
        assert not state.counts.any() and not state.type_rounds.any()
        np.testing.assert_array_equal(state.remaining, config.instance.budgets)


# m and n on both sides of int8's edge: 127 items and their null fit int8,
# and so does the largest item index plus one; 128 needs int16
WIDTH_COUNTS = [1, 127, 128, 129, 300]


class TestIndexWidth:
    """Type and item indices in `_index_dtype` of m and n, checked against
    an int64 reference computation with m = n = count. The trace CSV's
    `assigned + 1` and the pinned run's `t * n + sel` must not wrap."""

    @pytest.mark.parametrize("count", WIDTH_COUNTS)
    def test_dtype_is_narrowest_holding_null_and_count(self, count):
        dtype = _index_dtype(count)
        assert dtype == (np.int8 if count <= 127 else np.int16)
        ends = np.array([-1, count], dtype=np.int64)
        np.testing.assert_array_equal(ends.astype(dtype), ends)

    @pytest.mark.parametrize("count", WIDTH_COUNTS)
    def test_sampled_types(self, count):
        rates = np.arange(1.0, count + 1)
        seq = sample_stationary_stream(rates, 5000, seed=4)
        rng = substream(4, "stream")
        rng.exponential(size=5000)
        cdf = np.cumsum(rates / rates.sum())
        cdf[-1] = 1.0
        want = np.searchsorted(cdf, rng.random(5000), side="right")
        assert seq.types.dtype == _index_dtype(count)
        np.testing.assert_array_equal(seq.types, want)
        assert want.max() == count - 1

        fn = RateFunction((RatePiece(0.0, 10.0, "constant", (3.0,)),))
        seq = arrivals.sample_nonstationary_stream((fn,) * count, 0.0, 10.0, seed=4)
        times = [arrivals._thin_one_type(fn, substream(4, "stream", j), GRID_DT_DEFAULT)
                 for j in range(count)]
        types = np.repeat(np.arange(count), [t.size for t in times])
        order = np.lexsort((types, np.concatenate(times)))
        assert seq.types.dtype == _index_dtype(count)
        np.testing.assert_array_equal(seq.types, types[order])
        assert types.max() == count - 1

    @staticmethod
    def _greedy(count):
        # item count - 1 pays most, every item holds one unit and the last
        # 20 arrivals get the null; arrival t has type t mod count; returns
        # greedy's per-arrival items and purchases, from the reference
        rng = np.random.default_rng(count)
        inst = ProblemInstance(
            rewards=np.linspace(0.1, 1.0, count), budgets=np.ones(count), mu=0.1,
            preferences=rng.uniform(0.05, 1.0, (count, count)), horizon=count)
        T = count + 20
        stream = ArrivalSequence(np.linspace(0.0, 5.0, T),
                                 (np.arange(T) % count).astype(_index_dtype(count)))
        _, assigned, purchased = greedy_matches_reference(inst, stream, 7)
        return stream, assigned, purchased

    @pytest.mark.parametrize("count", WIDTH_COUNTS)
    def test_greedy_assigned_and_counts(self, count):
        _, assigned, purchased = self._greedy(count)
        narrow = assigned.astype(_index_dtype(count))
        np.testing.assert_array_equal(narrow, assigned)
        assert assigned.max() == count - 1 and assigned.min() == -1
        offered = assigned >= 0
        np.testing.assert_array_equal(
            _item_counts(narrow, count),
            np.bincount(assigned[offered], minlength=count))
        np.testing.assert_array_equal(
            _item_counts(narrow, count, purchased),
            np.bincount(assigned[offered & purchased], minlength=count))

    @pytest.mark.parametrize("count", WIDTH_COUNTS)
    def test_trace_csv_and_histogram(self, tmp_path, count):
        # a loop trace over the stream, with greedy's items in their place
        stream, assigned, purchased = self._greedy(count)
        narrow = assigned.astype(_index_dtype(count))
        run = run_integrated(loop_config(n=count, m=count), stream,
                             np.full(count, 1.0 / count))
        trace = replace(run, assigned=narrow, purchased=purchased)
        assert trace.types.dtype == trace.assigned.dtype == _index_dtype(count)
        types = stream.types.astype(np.int64)
        write_trace_csv(trace, tmp_path / "trace.csv")
        rows = [line.split(",") for line in
                (tmp_path / "trace.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == [str(j) for j in types]
        assert [r[3] for r in rows] == ["" if i < 0 else str(i) for i in assigned]

        cells = Counter(zip(np.floor(stream.times).astype(np.int64).tolist(),
                            types.tolist()))
        want = [(h, j, c) for (h, j), c in sorted(cells.items())]
        hourly = HourlyArrivals(*stream.hour_runs(), types=stream.types)
        for runs in (stream, hourly):
            got = [tuple(row) for block in harness._arrival_histogram(runs)
                   for row in zip(*(col.tolist() for col in block))]
            assert got == want

    @pytest.mark.parametrize("count", WIDTH_COUNTS)
    def test_loop_matches_int64_types(self, count):
        # uncapped items keep lambda pinned, so arrivals go by pinned runs
        rng = np.random.default_rng(count)
        config = loop_config(n=count, m=count, p=rng.uniform(0.05, 1.0, (count, count)),
                             r_max=0)
        rates = np.arange(1.0, count + 1)
        stream = sample_stationary_stream(rates, 1000, seed=3)
        wide = ArrivalSequence(stream.times, stream.types.astype(np.int64))
        weights = rates / rates.sum()
        narrow, plain = (run_integrated(config, s, weights) for s in (stream, wide))
        assert narrow.types.dtype == narrow.assigned.dtype == _index_dtype(count)
        np.testing.assert_array_equal(narrow.assigned, plain.assigned)
        np.testing.assert_array_equal(narrow.purchased, plain.purchased)
        assert narrow.f_vals.tobytes() == plain.f_vals.tobytes()
        assert wide.types.max() == count - 1


class TestMetrics:
    def _benchmarked(self, T=400, seed=13):
        # f_star is the solver's dual objective at lam_star
        return run_experiment(scenario_stationary(T=T, seed=seed), "stationary")

    def test_regret_zero_at_benchmark(self):
        report = self._benchmarked()
        f_star = report.f_star
        report.trace.f_vals = np.full(len(report.trace), f_star)
        total, avg = compute_regret(report.trace, f_star)
        assert total == pytest.approx(0.0, abs=1e-9)
        assert avg == pytest.approx(0.0, abs=1e-12)

    def test_regret_is_linear_in_excess(self):
        report = self._benchmarked()
        f_star = report.f_star
        report.trace.f_vals = np.full(len(report.trace), f_star)
        report.trace.f_vals[7] += 0.2
        total, avg = compute_regret(report.trace, f_star)
        assert total == pytest.approx(0.2, abs=1e-9)
        assert avg == pytest.approx(0.2 / len(report.trace), abs=1e-12)

    def test_revenue_of_empty_and_flat_traces(self):
        inst, trace = flat_loop_trace()
        assert compute_revenue(trace, inst.rewards) == pytest.approx(1.5)
        trace.purchased[:] = False
        assert compute_revenue(trace, inst.rewards) == 0.0
        # greedy's revenue is its purchase counts dotted with the rewards
        got, _, _ = greedy_matches_reference(inst, three_arrivals(), 0)
        assert got.purchased @ inst.rewards == pytest.approx(1.5)
        inst.preferences[:] = 0.0
        got, _, _ = greedy_matches_reference(inst, three_arrivals(), 0)
        assert got.purchased @ inst.rewards == 0.0

    def test_item_past_the_last_is_refused(self):
        inst, trace = flat_loop_trace()
        trace.assigned[1] = 2
        with pytest.raises(ValueError):
            compute_revenue(trace, inst.rewards)
        with pytest.raises(ValueError):
            trace.assignment_counts

    @pytest.mark.parametrize("block", [8, 64])
    def test_revenue_across_block_edges(self, monkeypatch, block):
        # revenue is the per-item purchase counts, summed over blocks, dotted
        # with the rewards; it matches the exactly rounded sum of the
        # purchased rewards with nulls at every block edge and a full or
        # short last block (1000 is a multiple of 8, not of 64)
        monkeypatch.setattr(arrivals, "_BLOCK", block)
        T = 1000
        config = scenario_stationary(T=T, seed=3)
        inst = config.instance
        stream = sample_stationary_stream(config.arrivals.rates, T, seed=3)
        assigned, purchased = edge_assignments(inst.rewards.size, T, block, seed=block)
        trace = replace(run_integrated(config, stream, expected_type_weights(config)),
                        assigned=assigned, purchased=purchased)
        expected = math.fsum(inst.rewards[assigned[purchased & (assigned >= 0)]])
        assert compute_revenue(trace, inst.rewards) == pytest.approx(expected, rel=1e-12)

    def test_offline_revenue_bound_single_cell(self):
        inst = tiny_instance([1.0], [5.0])
        # one item, one type: the policy always offers it; revenue per
        # arrival is P* itself
        bound = offline_revenue_bound(inst, np.zeros(1), np.array([20.0]))
        assert bound == pytest.approx(20.0 * 1.0)

    def test_learning_curve_settles(self, stationary_report):
        # smoothed Frobenius error should trend down through the learning
        # phase; allow a hair of noise-floor chatter near the end
        for seed in (1, 2, 3, 4, 5):
            report = stationary_report(100_000, seed)
            mask = report.trace.checkpoints.t <= 20_000
            series = report.trace.checkpoints.pref_error[mask]
            smooth = np.convolve(series, np.ones(5) / 5, mode="valid")
            assert np.all(np.diff(smooth) <= 0.005)
            assert smooth[-1] < smooth[0]


class TestRunExperiment:
    def test_offline_mode_populates_bound(self):
        config = scenario_stationary(T=500, seed=2)
        report = run_experiment(config, "offline")
        assert np.isfinite(report.f_star)
        assert report.lam_star.size == 10
        assert report.offline_revenue_bound > 0.0

    def test_stationary_mode_fills_everything(self):
        config = scenario_stationary(T=600, seed=2)
        report = run_experiment(config, "stationary")
        for field in ("f_star", "online_dual_total", "total_regret",
                      "average_regret", "offline_revenue_bound",
                      "realized_revenue", "greedy_revenue"):
            assert np.isfinite(getattr(report, field)), field
        assert report.runtime_seconds > 0.0
        trace = report.trace
        assert trace.assignment_counts.sum() == (trace.assigned >= 0).sum()

    def test_unknown_mode_rejected(self):
        config = scenario_stationary(T=100, seed=1)
        with pytest.raises(ValueError):
            run_experiment(config, "warp")

    def test_greedy_mode(self):
        config = scenario_stationary(T=400, seed=6)
        report = run_experiment(config, "greedy")
        assert report.greedy_revenue > 0.0
        assert np.isnan(report.realized_revenue)

    @pytest.mark.parametrize("kind", ["stationary", "extreme_budget"])
    def test_greedy_mode_calls_the_traced_names(self, monkeypatch, kind):
        # the benchmark's tracer rebinds harness.sample_stream and
        # harness.greedy_baseline; a greedy run that went round either
        # would fail only in the benchmark
        calls = []

        def spy(name):
            original = getattr(harness, name)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                calls.append((name, args, out))
                return out

            return wrapper

        for name in ("sample_stream", "greedy_baseline"):
            monkeypatch.setattr(harness, name, spy(name))
        config = (scenario_stationary(T=500, seed=2) if kind == "stationary"
                  else scenario_nonstationary(kind, 2000, 24.0, seed=1))
        report = run_experiment(config, "greedy")
        assert [name for name, _, _ in calls] == ["sample_stream", "greedy_baseline"]
        (_, _, stream), (_, (_, arrivals, _), greedy) = calls
        assert isinstance(stream, HourlyArrivals) and arrivals is stream
        assert len(arrivals) == report.arrivals > 0
        if kind == "stationary":
            assert len(arrivals) == config.instance.horizon
        assert greedy is report.greedy

    def test_greedy_cell_peak_memory(self, tmp_path):
        # the greedy cell keeps the stream's types (1 byte per arrival, int8
        # for 10 types) and its hour runs (an int64 hour and count per
        # nonempty hour: 16 bytes per 5.5 arrivals here, 2.9 per arrival);
        # greedy keeps per-item counts only. The sampler's block and the
        # histogram's and encoder's chunk temporaries weigh more than both
        # at this T: it reads about 12.7 bytes per arrival. The bound leaves
        # 2.8 bytes (0.56 MB here) for block temporaries that differ between
        # numpy versions, so a horizon-long temporary of 4 bytes per arrival
        # or more takes it past
        T = 200_000
        config = scenario_stationary(T=T, seed=1)
        tracemalloc.start()
        try:
            run_experiment(config, "greedy", out_dir=tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / T <= 15.5

    def test_block_counts_peak_memory(self):
        # revenue and the selection counts go through a loop trace one block
        # at a time; a horizon-long mask, selection or reward array would
        # take either past 1 byte per arrival. The trace is a 1000-arrival
        # loop run repeated to T arrivals
        T = 1_000_000
        config = scenario_stationary(T=1000, seed=1)
        stream = sample_stationary_stream(config.arrivals.rates, 1000, seed=1)
        run = run_integrated(config, stream, expected_type_weights(config))
        trace = Trace.concat([run] * (T // len(run)))
        assert len(trace) == T and trace.purchased.any()
        for count in (lambda: compute_revenue(trace, config.instance.rewards),
                      lambda: trace.assignment_counts):
            tracemalloc.start()
            try:
                count()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak / T <= 1.0


def _percent_rows(columns) -> bytes:
    """The rows of `columns`, each value formatted with `%`: `%.9g` for a
    float column, `%s` for a bytes column and `%d` for any other."""
    rows = len(columns[0])
    fields = {"f": b"%.9g", "S": b"%s"}
    row_format = b",".join(fields.get(np.asarray(c).dtype.kind, b"%d")
                           for c in columns) + b"\n"
    values = [v for row in zip(*map(list, columns)) for v in row]
    return row_format * rows % tuple(values)


def _assert_percent_rows(tmp_path, columns, blocks=True):
    """`_write_csv` of `columns` reads as `%` formatting, given as one block
    of every row and, when `blocks`, as _CSV_BLOCK-row blocks."""
    header = ",".join("c" * len(columns))
    want = header.encode() + b"\n" + _percent_rows(columns)
    path = tmp_path / "t.csv"
    cuts = [[columns] if len(columns[0]) else []]
    if blocks:
        cuts.append(_row_blocks(columns))
    for cut in cuts:
        _write_csv(path, header, cut)
        assert path.read_bytes() == want


class TestEmitReport:
    def test_headers_only_when_empty(self, tmp_path):
        report = MetricsReport(mode="offline", seed=0, config_hash="abc")
        emit_report(report, tmp_path)
        assert (tmp_path / "summary.csv").read_text().count("\n") == 2
        for name in ("selections.csv", "pref_error.csv", "arrivals_hist.csv"):
            content = (tmp_path / name).read_text()
            assert content.count("\n") == 1, name

    def test_rerun_is_byte_identical(self, tmp_path):
        config = scenario_stationary(T=800, seed=4)
        run_experiment(config, "stationary", out_dir=tmp_path / "a",
                       trace_flag=True)
        run_experiment(config, "stationary", out_dir=tmp_path / "b",
                       trace_flag=True)
        names = [p.name for p in sorted((tmp_path / "a").iterdir())]
        assert "trace.csv" in names and "lambda.csv" in names
        for name in names:
            if name == "runtime.txt":
                continue  # wall time legitimately differs
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_selection_counts_match_trace(self, tmp_path):
        config = scenario_stationary(T=700, seed=5)
        run_experiment(config, "stationary", out_dir=tmp_path, trace_flag=True)
        sel = {}
        for line in (tmp_path / "selections.csv").read_text().splitlines()[1:]:
            item, count = line.split(",")
            sel[item] = int(count)
        assigned = 0
        for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]:
            if line.split(",")[3] != "":
                assigned += 1
        assert sum(sel.values()) == assigned

    def test_failure_cleans_partial_output(self, tmp_path, monkeypatch):
        report = MetricsReport(mode="offline", seed=0, config_hash="abc")
        import allocsim.harness as hmod

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(hmod, "write_checkpoint_csv", boom)
        with pytest.raises(OSError):
            emit_report(report, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["stationary", "greedy", "nonstationary",
                                      "negative-hours", "chunk-edges",
                                      "sparse-hours"])
    def test_arrivals_hist_matches_brute_force(self, tmp_path, monkeypatch, mode):
        # the histogram is counted in chunks cut at hour starts, of at most
        # arrivals._BLOCK arrivals over _BLOCK // m hours; small chunks and
        # blocks make every stream here span many of each, with hours of
        # more arrivals than a chunk
        monkeypatch.setattr(arrivals, "_BLOCK", 8)
        monkeypatch.setattr(harness, "_CSV_BLOCK", 3)
        if mode == "nonstationary":
            config = scenario_nonstationary("varying_reward", 1500, 24.0, seed=3)
        else:
            config = scenario_stationary(T=900, seed=3)
        rng = np.random.default_rng(3)
        if mode == "negative-hours":
            # a non-stationary horizon may start before zero
            times = np.sort(rng.uniform(-30.0, 40.0, 900))
        elif mode == "chunk-edges":
            # two types, so a chunk spans at most 4 hours: hours -3 and -1
            # fill the first chunk's 8 arrivals, so hour 0 starts exactly on
            # its cut (at 0.0), then holds 20 arrivals, more than a chunk;
            # hour 2 ends a chunk at the 4-hour limit
            hours = np.repeat([-3, -1, 0, 2, 7], [3, 5, 20, 1, 4])
            times = hours + np.sort(rng.uniform(0.0, 1.0, hours.size))
            times[8] = 0.0
        elif mode == "sparse-hours":
            # hours far apart: no count array may span the hours between
            times = np.sort(rng.uniform(-1e12, 1e12, 50))
        if mode in ("negative-hours", "chunk-edges", "sparse-hours"):
            m = 2 if mode == "chunk-edges" else 10
            stream = ArrivalSequence(times, rng.integers(0, m, times.size))
            report = MetricsReport(mode="greedy", seed=3, config_hash="x",
                                   stream=stream)
            emit_report(report, tmp_path)
        else:
            report = run_experiment(config, mode, out_dir=tmp_path)
            # greedy mode keeps no times: its cells are read off the same
            # stream sampled with them
            stream = (ArrivalSequence(report.trace.times, report.trace.types)
                      if report.trace is not None else
                      sample_stationary_stream(config.arrivals.rates, 900, seed=3))
        assert isinstance(report.stream, HourlyArrivals) == (mode == "greedy")
        cells = Counter(zip(np.floor(stream.times).astype(int).tolist(),
                            stream.types.tolist()))
        rows = (tmp_path / "arrivals_hist.csv").read_text().splitlines()
        assert rows[0] == "hour,type,count"
        assert rows[1:] == [f"{h},{j},{c}" for (h, j), c in sorted(cells.items())]
        # a block has at most _BLOCK rows, or m for an hour past a chunk
        blocks = [len(b[0]) for b in harness._arrival_histogram(report.stream)]
        assert len(blocks) > 1 and max(blocks) <= max(8, stream.types.max() + 1)
        if mode == "nonstationary":
            hours = {h for h, _ in cells}
            assert len(cells) < len(hours) * config.instance.preferences.shape[0]

    # an all-%d table is encoded as byte blocks; it must read exactly as
    # formatting each value with %d would, in _CSV_BLOCK-row blocks and in
    # one block as long as the arrivals histogram's (_BLOCK ± 1 rows)
    @pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK,
                                      _CSV_BLOCK + 1, _BLOCK - 1, _BLOCK,
                                      _BLOCK + 1])
    def test_matches_percent_format(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        i64 = np.iinfo(np.int64)
        # mixed widths per block, zeros, negatives and int64's extremes
        wide = rng.integers(-10**12, 10**12, rows) // 10**rng.integers(0, 13, rows)
        wide[::7] = 0
        wide[1::11] = i64.min
        wide[2::13] = i64.max
        columns = [wide, rng.integers(0, 3, rows).astype(np.uint8)]
        _assert_percent_rows(tmp_path, columns)

    def test_ranges_lists_and_unsigned(self, tmp_path):
        for rows in (_CSV_BLOCK + 5, _BLOCK - 1, _BLOCK, _BLOCK + 1):
            columns = [range(-3, rows - 3), [(-1) ** i * i for i in range(rows)],
                       np.full(rows, np.iinfo(np.uint64).max, dtype=np.uint64)]
            _assert_percent_rows(tmp_path, columns)

    def test_uint32_limit(self, tmp_path):
        # a column is divided as uint32 when its largest magnitude fits,
        # else as uint64; each column here sits on one side of that limit
        top = np.iinfo(np.uint32).max
        columns = [np.array([top, 0, 7, -top]), np.array([top + 1, 0, 7, 1]),
                   np.array([0, 5, 9, -top - 1])]
        for rows in (4, _BLOCK - 1, _BLOCK, _BLOCK + 1):
            _assert_percent_rows(tmp_path, [np.resize(c, rows) for c in columns])

    @pytest.mark.parametrize("kind", ["negative", "int64-min", "int64-max",
                                      "uint64-max", "bool", "uint8"])
    def test_range_table_either_side(self, tmp_path, monkeypatch, kind):
        # a column whose value range is no longer than the column is
        # gathered from a table of that range, a longer one divided row by
        # row; each column here sits on one side of that limit, or spans
        # int64's or uint64's whole range
        sizes = []

        def digit_matrix(value):
            sizes.append(value.size)
            return digit_matrix.original(value)

        digit_matrix.original = harness._digit_matrix
        monkeypatch.setattr(harness, "_digit_matrix", digit_matrix)
        rng = np.random.default_rng(9)
        i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
        for rows in (1, 2, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1):
            table = rng.permutation(rows)  # range rows - 1
            wider = table.copy()
            wider[table.argmax()] = rows  # range rows, past the limit
            for offsets in (table, wider):
                if kind == "negative":
                    column = -np.int64(rows) // 2 - 9 + offsets
                elif kind == "int64-min":
                    column = i64.min + offsets.astype(np.int64)
                elif kind == "int64-max":
                    column = i64.max - offsets.astype(np.int64)
                elif kind == "uint64-max":
                    column = u64.max - offsets.astype(np.uint64)
                elif kind == "bool":
                    column = offsets % 2 == 1
                else:
                    column = (offsets % 256).astype(np.uint8)
                sizes.clear()
                _assert_percent_rows(tmp_path, [column], blocks=False)
                lo, hi = int(column.min()), int(column.max())
                assert sizes == [hi - lo + 1 if hi - lo < rows else rows]
        if kind in ("int64-min", "uint64-max"):
            # the whole dtype range, beside one value
            full = (np.array([i64.min, i64.max, 0]) if kind == "int64-min"
                    else np.array([0, u64.max, 1], dtype=np.uint64))
            _assert_percent_rows(tmp_path, [full, np.resize(full[:1], 3)])

    @pytest.mark.parametrize("rows", [1, _CSV_BLOCK - 1, _CSV_BLOCK,
                                      _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 3])
    def test_float_columns_match_percent_format(self, tmp_path, rows):
        # a float column prints each value as `%.9g` does, beside integer
        # and strided bytes columns, with signed zeros, infinities, nan,
        # subnormals, extreme exponents and integral values of 9 digits
        # and more
        rng = np.random.default_rng(rows)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300,
                            1e300, 3.0, -7.0, 123456789.0, 1234567890.0, 2.0**60])
        exact = np.resize(special, rows)
        exact[::3] = rng.standard_normal(exact[::3].size) * 10.0 ** rng.integers(
            -12, 12, exact[::3].size)
        labels = np.array([b"", b"ucb", b"greedy", b"7"])[rng.integers(0, 4, 2 * rows)]
        columns = [exact, rng.integers(-5, 5, rows), labels[::2],
                   np.resize(special, rows)[::-1], rng.random(rows) < 0.5]
        _assert_percent_rows(tmp_path, columns)

    def test_empty_label_is_blank_field(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_csv(path, "a,b", [[np.array([b"", b"ab", b""]), np.arange(3)]])
        assert path.read_bytes() == b"a,b\n,0\nab,1\n,2\n"
        _write_csv(path, "a", [[np.array([b"", b""])]])
        assert path.read_bytes() == b"a\n\n\n"

    @pytest.mark.parametrize("column", [np.array(["1", 2], dtype=object),
                                        np.array(["ucb", "ogd"]),
                                        np.array([1j, 2.0])],
                             ids=["object", "unicode", "complex"])
    def test_other_dtypes_refused(self, tmp_path, column):
        with pytest.raises(TypeError, match=str(column.dtype)):
            _write_csv(tmp_path / "t.csv", "a,b",
                       _row_blocks([np.arange(2), column]))


class TestCli:
    def _write_config(self, tmp_path, config):
        path = tmp_path / "config.json"
        save_config(config, path)
        return str(path)

    def test_offline_exit_zero(self, tmp_path):
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        out = tmp_path / "out"
        assert main(["offline", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_stationary_with_trace(self, tmp_path):
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        out = tmp_path / "out"
        code = main(["stationary", "--config", cfg, "--out", str(out), "--trace"])
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "lambda.csv").exists()

    def test_seed_override(self, tmp_path):
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["greedy", "--config", cfg, "--out", str(out_a), "--seed", "9"])
        main(["greedy", "--config", cfg, "--out", str(out_b), "--seed", "9"])
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    @staticmethod
    def _refused(capsys, argv, code, prefix):
        """main(argv) exits `code` with one stderr line that starts with
        `prefix`; returns that line."""
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(prefix), err
        return err[0]

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        line = self._refused(capsys, ["offline", "--config", missing,
                                      "--out", str(tmp_path)], 2, "config error: ")
        assert line == f"config error: {missing} not found"

    def test_non_object_root_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        self._refused(capsys, ["offline", "--config", str(path), "--out",
                               str(tmp_path / "out")], 2, "config error: ")
        assert not (tmp_path / "out").exists()

    def test_config_directory_exits_4(self, tmp_path, capsys):
        self._refused(capsys, ["offline", "--config", str(tmp_path), "--out",
                               str(tmp_path / "out")], 4, "i/o error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe{}", b"[" * 200000],
                             ids=["not-json", "not-utf8", "too-deep"])
    def test_invalid_json_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["offline", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: invalid JSON")

    def test_missing_seed_exits_2(self, tmp_path):
        config = scenario_stationary(T=300, seed=1)
        doc = config_document(config)
        del doc["seed"]
        path = tmp_path / "seedless.json"
        path.write_text(json.dumps(doc))
        assert main(["offline", "--config", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("where, value", [
        (("params", "K"), None),
        (("params", "K"), "abc"),
        (("params", "R_max"), [1]),
        (("instance", "T"), "x"),
        (("instance", "rewards"), "abc"),
        (("instance", "budgets"), 5),
        (("arrivals", "stationary", "rates", 3), "fast"),
        (("seed",), "x"),
        (("instance", "preferences", "params"), "xy"),
        (("seed",), 1.7),
        (("instance", "T"), 300.9),
        (("params", "K"), 999.9),
        (("seed",), float("inf")),
        (("instance", "rewards", 2), float("nan")),
        (("instance", "budgets", 4, "value"), float("nan")),
        (("instance", "preferences"), [[0.1] * 10] * 9 + [[0.1] * 9 + [float("nan")]]),
        (("arrivals", "stationary", "rates", 3), float("nan")),
        (("instance", "rewards", 2), float("inf")),
        (("arrivals", "stationary", "rates", 3), float("inf")),
        (("instance", "T"), True),
        (("seed",), True),
        (("instance", "rewards", 0), True),
        (("instance", "budgets", 4, "value"), True),
        (("instance", "mu"), True),
        (("params", "epsilon"), False),
        (("instance", "budgets", 4, "infinite"), "no"),
        (("instance", "budgets", 4, "infinite"), [0]),
        (("instance", "budgets", 4, "infinite"), 1),
        # unknown keys, one per config object
        (("sed",), 1),
        (("instance", "mU"), 5),
        (("instance", "budgets", 4, "infinte"), True),
        (("arrivals", "stationry"), {"rates": [1.0] * 10}),
        (("arrivals", "stationary", "rate"), [1.0] * 10),
        (("arrivals", "nonstationary", "t_ned"), 24.0),
        (("arrivals", "nonstationary", "rate_fns", 2, 0, "knd"), "linear"),
        (("instance", "preferences", "seed"), 3),
        (("params", "R_mx"), 10),
        (("instance", "preferences", "params"), [2.0, 5.0, 1.0]),
        (("arrivals",), {"stationary": {"rates": [1.0] * 10}, "nonstationary": {}}),
        # a numeric string is not a number
        (("instance", "mu"), "0.5"),
        (("instance", "T"), "300"),
        (("instance", "rewards"), ["0.1"] * 10),
        (("params", "K"), "50"),
    ], ids=["K-null", "K-abc", "R_max-list", "T-x", "rewards-abc", "budgets-5",
            "rates-string", "seed-x", "generator-params-xy", "seed-fraction",
            "T-fraction", "K-fraction", "seed-inf", "reward-nan", "budget-nan",
            "preference-nan", "rate-nan", "reward-inf", "rate-inf", "T-true",
            "seed-true", "reward-true", "budget-value-true",
            "mu-true", "epsilon-false", "infinite-no", "infinite-list",
            "infinite-one", "unknown-root", "unknown-instance", "unknown-budget",
            "unknown-arrivals", "unknown-stationary", "unknown-nonstationary",
            "unknown-piece", "unknown-generator", "unknown-params",
            "generator-three-params", "both-arrival-kinds", "mu-string",
            "T-string", "reward-string", "K-string"])
    def test_malformed_value_exits_2(self, tmp_path, capsys, where, value):
        doc = config_document(scenario_stationary(T=300, seed=1))
        if where[:2] == ("arrivals", "nonstationary"):
            doc["arrivals"] = config_document(
                scenario_nonstationary("varying_reward", 300, 24.0, seed=1))["arrivals"]
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        # a vector's errors name the vector; a list of objects names the entry
        keys = where[:-1] if isinstance(where[-1], int) else where
        key_path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
        assert f"{key_path[1:]}: " in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["segment-plan", "nonstationary"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_rate_piece_exits_2(self, tmp_path, capsys, command, value):
        doc = config_document(scenario_nonstationary("varying_reward", 2000, 24.0, seed=2))
        doc["arrivals"]["nonstationary"]["rate_fns"][1][0]["params"][3] = value
        path = tmp_path / "rates.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: arrivals.nonstationary.rate_fns[1][0]: ")
        assert "finite" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key", [
        (5, "scenario"),
        ("x", "scenario"),
        ({"T": 300, "seed": 1}, "scenario.kind"),
        ({"kind": "extreme_budget", "T": 300, "seed": 1}, "scenario.horizon_hours"),
        ({"kind": "extreme_budget", "horizon_hours": "long"}, "scenario.horizon_hours"),
    ], ids=["int", "string", "no-kind", "no-horizon_hours", "horizon_hours-string"])
    def test_grid_malformed_scenario_exits_2(self, tmp_path, capsys, scenario, key):
        doc = config_document(scenario_stationary(T=300, seed=1))
        doc["scenario"] = scenario
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "grid"
        code = main(["greedy", "--config", str(path), "--out", str(out),
                     "--grid", "T=200"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert key in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, extra, named", [
        ("nonstationary", ("params", "grid_dt"), 1e-12, [],
         "grid_dt=1e-12 puts 2.4e+13 scan points"),
        ("segment-plan", ("scenario", "horizon_hours"), 1e9, ["--grid", "T=2000"],
         "grid_dt=0.001 puts 1e+12 scan points"),
    ], ids=["grid_dt", "grid-horizon_hours"])
    def test_scan_grid_too_fine_exits_2(self, tmp_path, capsys, command, key,
                                        value, extra, named):
        """A horizon holding more scan points than SCAN_POINTS_MAX is a config
        error, raised before any scan allocates its grid."""
        doc = config_document(scenario_nonstationary("varying_reward", 2000, 24.0, seed=2))
        doc[key[0]][key[1]] = value
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {named} ")
        assert not out.exists()

    def test_rate_touching_zero_runs_every_mode(self, tmp_path):
        # a rate that is 0 at an instant is a valid Poisson intensity: the
        # load check accepts it, and so does every mode, the type-B cursor
        # at t = 0, where the linear rate is 0, included
        doc = config_document(scenario_nonstationary("varying_reward", 300, 2.0, seed=1))
        doc["instance"]["m"] = 2
        del doc["scenario"]
        doc["arrivals"]["nonstationary"].update(t0=0.0, t_end=2.0, rate_fns=[
            [{"from": 0.0, "to": 2.0, "kind": "constant", "params": [50.0]}],
            [{"from": 0.0, "to": 2.0, "kind": "linear", "params": [200.0, 0.0]}]])
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
        config = config_from_document(doc)
        model, p = config.arrivals, config.params
        plan = segment_time_span(model.rate_fns, model.t0, model.t_end,
                                 p.epsilon, p.delta, p.d, p.grid_dt)
        assert plan.segments[0].label == "B"
        assert certify_plan(plan, model.rate_fns).all()
        rows = (tmp_path / "segment-plan" / "plan.csv").read_text().splitlines()
        assert len(rows) == len(plan) + 1

    def test_nonconvergence_exits_3(self, tmp_path, capsys):
        config = scenario_stationary(T=300, seed=1)
        doc = config_document(config)
        doc["params"]["offline_max_iter"] = 1
        path = tmp_path / "stall.json"
        path.write_text(json.dumps(doc))
        self._refused(capsys, ["offline", "--config", str(path), "--out",
                               str(tmp_path)], 3, "numerical error: ")

    def test_unwritable_out_exits_4(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        self._refused(capsys, ["offline", "--config", cfg, "--out",
                               str(blocker / "sub")], 4, "i/o error: ")

    def test_segment_plan_command(self, tmp_path):
        config = scenario_nonstationary("varying_reward", 2000, 24.0, seed=2)
        cfg = self._write_config(tmp_path, config)
        out = tmp_path / "plan"
        assert main(["segment-plan", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "plan.csv").read_text().splitlines()
        assert lines[0].startswith("t_start,t_end,label,v_or_epsilon,delta_max")
        assert len(lines) > 1

    def test_segment_plan_rejects_stationary_config(self, tmp_path):
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        assert main(["segment-plan", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_grid_reruns_scenario(self, tmp_path):
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        out = tmp_path / "grid"
        code = main(["greedy", "--config", cfg, "--out", str(out),
                     "--grid", "T=200,400"])
        assert code == 0
        assert (out / "T_200" / "summary.csv").exists()
        assert (out / "T_400" / "summary.csv").exists()

    def test_bad_grid_exits_2(self, tmp_path):
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        assert main(["greedy", "--config", cfg, "--out", str(tmp_path),
                     "--grid", "N=100"]) == 2

    @pytest.mark.parametrize("grid, made", [
        ("T=300.9", None),
        ("T=1e400", None),
        ("T=,", None),
        ("T= ", None),
        ("T=1e3", "T_1000"),
    ], ids=["fraction", "overflow", "empty", "blank", "exponent"])
    def test_grid_values_are_integers(self, tmp_path, capsys, grid, made):
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        out = tmp_path / "grid"
        code = main(["greedy", "--config", cfg, "--out", str(out), "--grid", grid])
        if made is None:
            assert code == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: ")
            assert not out.exists()
        else:
            assert code == 0
            assert [p.name for p in out.iterdir()] == [made]

    @pytest.mark.parametrize("where", ["grid", "config"])
    @pytest.mark.parametrize("horizon", [1e30, 2**60], ids=["1e30", "2**60"])
    def test_horizon_no_array_holds_exits_2(self, tmp_path, capsys, where, horizon):
        """A stationary horizon past what one float64 array can hold is a
        config error, raised before the sampler sizes an array. Neither
        value is one numpy would try to allocate."""
        doc = config_document(scenario_stationary(T=300, seed=1))
        extra = []
        if where == "grid":
            extra = ["--grid", f"T={horizon!r}"]
        else:
            doc["instance"]["T"] = horizon
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        line = self._refused(capsys, ["greedy", "--config", str(path), "--out",
                                      str(out), *extra], 2, "config error: ")
        assert "more arrivals than one array can hold" in line
        assert not out.exists()

    def test_each_backend_matches_default(self, tmp_path, capsys, monkeypatch):
        """With `_kernels.BACKEND` set to each name, every backend that can
        run here reproduces the default run's selections byte for byte (with
        numba present this is numba == numpy); one that cannot run exits 2
        with a one-line message naming it."""
        cfg = self._write_config(tmp_path, scenario_stationary(T=400, seed=3))
        out_default = tmp_path / "default"
        assert main(["stationary", "--config", cfg, "--out", str(out_default)]) == 0
        expected = (out_default / "selections.csv").read_bytes()
        capsys.readouterr()
        for backend in BACKENDS:
            monkeypatch.setattr(_kernels, "BACKEND", backend)
            out = tmp_path / backend
            code = main(["stationary", "--config", cfg, "--out", str(out)])
            err = capsys.readouterr().err
            if backend in available_backends():
                assert code == 0
                assert (out / "selections.csv").read_bytes() == expected
            else:
                assert code == 2
                assert backend in err
                assert len(err.strip().splitlines()) == 1
                assert not out.exists()

    @pytest.mark.parametrize("name", ["numba", "gpu"])
    def test_backend_env_checked_at_first_loop(self, tmp_path, name):
        """A bad ALLOCSIM_BACKEND leaves `import allocsim` working; the first
        loop call rejects it and the CLI exits 2 without a traceback."""
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        src = str(Path(allocsim.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, ALLOCSIM_BACKEND=name, PYTHONPATH=path)
        imported = subprocess.run([sys.executable, "-c", "import allocsim"],
                                  env=env, capture_output=True, text=True)
        assert imported.returncode == 0, imported.stderr
        run = subprocess.run(
            [sys.executable, "-m", "allocsim.cli", "stationary", "--config", cfg,
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        if name in available_backends():
            assert run.returncode == 0, run.stderr
        else:
            assert run.returncode == 2
            assert f"ALLOCSIM_BACKEND={name!r}" in run.stderr
            assert "Traceback" not in run.stderr
