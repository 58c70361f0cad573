"""Horizon segmentation: window search, bound algebra, plans, driver."""

import numpy as np
import pytest

from allocsim import (
    RateFunction,
    RatePiece,
    Segment,
    bound_type_probability,
    certify_plan,
    run_nonstationary,
    sample_stationary_stream,
    scenario_nonstationary,
    segment_time_span,
    segment_weights,
    solve_v_threshold,
    substream,
)
from allocsim.arrivals import scan_grid
from allocsim.errors import ZeroLowerSum
from allocsim.harness import write_plan_csv
from allocsim.integrated import run_integrated
from allocsim.model import (
    AlgoParams,
    ProblemInstance,
    NonstationaryArrivals,
    SimConfig,
    validate_instance,
)
from allocsim import segmentation
from allocsim.segmentation import _scan_window


def constant_fn(c, t0=0.0, t_end=10.0):
    return RateFunction((RatePiece(t0, t_end, "constant", (c,)),))


def linear_fn(slope, intercept, t0=0.0, t_end=10.0):
    return RateFunction((RatePiece(t0, t_end, "linear", (slope, intercept)),))


class TestFindSegmentEnd:
    """The window scan segment_time_span runs: the largest grid point t*
    with every rate's variation over [t, t*] within the threshold."""

    def test_constant_rates_reach_the_end(self):
        fns = (constant_fn(2.0), constant_fn(5.0))
        assert _scan_window(fns, 0.0, 0.5, 0.001, 10.0)[0] == 10.0

    def test_linear_growth_stops_at_threshold(self):
        fns = (linear_fn(2.0, 0.0, 0.0, 1.0),)
        t_star = _scan_window(fns, 0.0, 1.0, 0.0001, 1.0)[0]
        assert t_star == pytest.approx(0.5, abs=0.0002)

    def test_generous_threshold_never_binds(self):
        fns = (linear_fn(2.0, 0.0, 0.0, 1.0), constant_fn(1.0, 0.0, 1.0))
        assert _scan_window(fns, 0.0, 100.0, 0.001, 1.0)[0] == 1.0

    def test_always_advances(self):
        fns = (linear_fn(50.0, 1.0, 0.0, 1.0),)
        t_star = _scan_window(fns, 0.0, 1e-9, 0.01, 1.0)[0]
        assert t_star > 0.0


def full_horizon_scan(rate_fns, t, threshold, grid_dt, t_end, delta_cap=None):
    """Brute-force `_scan_window`: every rate on the whole grid to t_end at
    once, then the last point before the first violation (at least one
    point past t)."""
    pts = scan_grid(rate_fns, t, t_end, grid_dt)
    vals = np.stack([fn.value(pts) for fn in rate_fns])
    cmax = np.maximum.accumulate(vals, axis=1)
    cmin = np.minimum.accumulate(vals, axis=1)
    ok = np.all(cmax - cmin <= threshold + 1e-12, axis=0)
    if delta_cap is not None:
        y = cmin.sum(axis=0)
        big = cmax.sum(axis=0)
        dvec = cmax / np.where(y > 0.0, y, 1.0) - cmin / big
        ok &= (y > 0.0) & np.all(dvec <= delta_cap + 1e-12, axis=0)
    ok[0] = True
    bad = np.flatnonzero(~ok)
    k = max(int(bad[0]) - 1 if bad.size else pts.size - 1, 1)
    return float(pts[k]), [(float(cmin[j, k]), float(cmax[j, k]))
                           for j in range(len(rate_fns))]


class TestGrowingWindow:
    """The doubling window scan builds the same plans as a scan of the whole
    remaining horizon, bit for bit."""

    @staticmethod
    def _plans(monkeypatch, rate_fns, t0, t_end, *knobs):
        plan = segment_time_span(rate_fns, t0, t_end, *knobs)
        with monkeypatch.context() as patch:
            patch.setattr(segmentation, "_scan_window", full_horizon_scan)
            brute = segment_time_span(rate_fns, t0, t_end, *knobs)
        return plan, brute

    @staticmethod
    def _assert_same(plan, brute):
        assert len(plan) == len(brute)
        for seg, ref in zip(plan.segments, brute.segments):
            assert (seg.t_start, seg.t_end, seg.label, seg.v) == (
                ref.t_start, ref.t_end, ref.label, ref.v)
            for name in ("upper", "lower", "delta_vec"):
                a, b = getattr(seg, name), getattr(ref, name)
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["extreme_budget", "varying_reward"])
    def test_scenario_plans_match_full_scan(self, monkeypatch, kind, seed):
        config = scenario_nonstationary(kind, 60000, 24.0, seed=seed)
        model, p = config.arrivals, config.params
        plan, brute = self._plans(monkeypatch, model.rate_fns, model.t0,
                                  model.t_end, p.epsilon, p.delta, p.d, p.grid_dt)
        assert {seg.label for seg in brute.segments} == {"A", "B"}
        self._assert_same(plan, brute)
        assert np.all(certify_plan(plan, model.rate_fns))

    def test_piecewise_rates_match_full_scan(self, monkeypatch):
        # piece boundaries off the grid, and mostly type-B segments
        steep = RateFunction((RatePiece(0.0, 1.337, "linear", (5.0, 1.0)),
                              RatePiece(1.337, 4.0, "quadratic", (-0.5, 2.0, 3.0))))
        fns = (steep, constant_fn(1.0, 0.0, 4.0))
        plan, brute = self._plans(monkeypatch, fns, 0.0, 4.0, 0.001, 0.3, 2.0, 0.001)
        assert sum(seg.label == "B" for seg in brute.segments) > 1
        self._assert_same(plan, brute)


class TestVThreshold:
    def test_hand_solved_quadratic(self):
        # 2v^2 + v - 3 = 0 at rates [1,1], delta 3/4 -> v = 1
        assert solve_v_threshold(np.array([1.0, 1.0]), 0.75) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_vanishes_with_delta(self):
        rates = np.array([2.0, 3.0])
        vs = [solve_v_threshold(rates, d) for d in (0.1, 0.01, 0.001)]
        assert vs[0] > vs[1] > vs[2] > 0.0
        assert vs[2] < 0.01

    def test_degree_two_homogeneity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rates = rng.uniform(0.2, 5.0, size=rng.integers(1, 8))
            delta = float(rng.uniform(0.05, 0.9))
            v = solve_v_threshold(rates, delta)
            assert solve_v_threshold(2.0 * rates, delta) == pytest.approx(
                2.0 * v, rel=1e-12
            )

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            solve_v_threshold(np.array([0.0, 1.0]), 0.5)


class TestProbabilityBand:
    def test_constant_rates_collapse(self):
        u, l, d = bound_type_probability([(2.0, 2.0), (3.0, 3.0)])
        np.testing.assert_allclose(u, [0.4, 0.6])
        np.testing.assert_allclose(l, [0.4, 0.6])
        np.testing.assert_allclose(d, 0.0, atol=1e-15)

    def test_hand_evaluated_band(self):
        u, l, d = bound_type_probability([(1.0, 2.0), (1.0, 2.0)])
        np.testing.assert_allclose(u, 1.0)
        np.testing.assert_allclose(l, 0.25)
        np.testing.assert_allclose(d, 0.75, atol=1e-12)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            lo = rng.uniform(0.1, 2.0, size=m)
            hi = lo + rng.uniform(0.0, 2.0, size=m)
            u, l, _ = bound_type_probability(list(zip(lo, hi)))
            assert np.all(l <= u + 1e-15)

    def test_zero_minimum_sum_rejected(self):
        with pytest.raises(ZeroLowerSum):
            bound_type_probability([(0.0, 1.0), (0.0, 2.0)])

    def test_matches_v_threshold_on_its_own_band(self):
        # rates drifting by exactly v from the cursor hit the delta bound
        rates = np.array([1.0, 1.0])
        v = solve_v_threshold(rates, 0.75)
        ext = [(r, r + v) for r in rates]
        _, _, d = bound_type_probability(ext)
        np.testing.assert_allclose(d.max(), 0.75, atol=1e-12)


class TestPlans:
    def test_constant_rates_single_segment(self):
        fns = (constant_fn(1.0), constant_fn(2.0))
        plan = segment_time_span(fns, 0.0, 10.0, 0.5, 0.05, 1.0, 0.01)
        assert len(plan) == 1
        seg = plan.segments[0]
        assert seg.label == "A"
        assert (seg.t_start, seg.t_end) == (0.0, 10.0)

    def test_shared_linear_ramp_cuts_evenly(self):
        # every type's rate is t, so each unit-length window spans exactly
        # the epsilon=1 variation budget
        fns = (linear_fn(1.0, 0.0), linear_fn(1.0, 0.0))
        plan = segment_time_span(fns, 0.0, 10.0, 1.0, 0.05, 0.5, 0.001)
        assert len(plan) == 10
        for k, seg in enumerate(plan.segments):
            assert seg.label == "A"
            assert seg.t_start == pytest.approx(float(k), abs=0.002)
            assert seg.length == pytest.approx(1.0, abs=0.004)

    def test_steep_rates_fall_back_to_type_b(self):
        fns = (linear_fn(5.0, 1.0, 0.0, 4.0), constant_fn(1.0, 0.0, 4.0))
        plan = segment_time_span(fns, 0.0, 4.0, 0.001, 0.3, 2.0, 0.001)
        labels = {seg.label for seg in plan.segments}
        assert "B" in labels
        for seg in plan.segments:
            if seg.label == "B":
                assert np.all(seg.delta_vec <= 0.3 + 1e-9)
        assert np.all(certify_plan(plan, fns))

    def test_partition_is_exact(self):
        config = scenario_nonstationary("extreme_budget", 20000, 24.0, seed=1)
        model = config.arrivals
        p = config.params
        plan = segment_time_span(
            model.rate_fns, 0.0, 24.0, p.epsilon, p.delta, p.d, p.grid_dt
        )
        for prev, nxt in zip(plan.segments, plan.segments[1:]):
            assert prev.t_end == nxt.t_start
        total = sum(seg.length for seg in plan.segments)
        assert abs(total - 24.0) <= p.grid_dt * len(plan)
        assert plan.segments[0].t_start == 0.0
        assert plan.segments[-1].t_end == 24.0


class TestWeights:
    def test_type_a_constant_rates(self):
        seg = Segment(0.0, 2.0, "A", epsilon_used=0.5)
        w = segment_weights(seg, (constant_fn(1.0), constant_fn(3.0)),
                            substream(0, "w"))
        np.testing.assert_allclose(w, [0.25, 0.75])
        assert 0.0 <= seg.t_tilde <= 2.0

    def test_type_b_degenerate_band(self):
        seg = Segment(
            0.0, 1.0, "B", v=0.1,
            upper=np.array([0.25, 0.75]),
            lower=np.array([0.25, 0.75]),
            delta_vec=np.zeros(2),
        )
        w = segment_weights(seg, (), substream(1, "w"))
        np.testing.assert_allclose(w, [0.25, 0.75])

    def test_type_b_draws_stay_in_band(self):
        lower = np.array([0.1, 0.3, 0.2])
        upper = np.array([0.4, 0.6, 0.5])
        for seed in range(1000):
            seg = Segment(0.0, 1.0, "B", v=0.1, upper=upper.copy(),
                          lower=lower.copy(), delta_vec=upper - lower)
            w = segment_weights(seg, (), substream(seed, "w"))
            assert np.all(seg.raw_draws >= lower - 1e-15)
            assert np.all(seg.raw_draws <= upper + 1e-15)
            assert w.sum() == pytest.approx(1.0)


class TestDriver:
    def _constant_config(self, T=5000, seed=21):
        rates = np.array([1.0, 2.0, 3.0])
        h = T / rates.sum()
        fns = tuple(constant_fn(c, 0.0, h) for c in rates)
        prefs = substream(seed, "preferences").beta(2.0, 5.0, size=(3, 3))
        inst = validate_instance(
            ProblemInstance(
                rewards=np.array([0.5, 0.75, 1.0]),
                budgets=np.full(3, 0.5 * T),
                mu=0.1,
                preferences=prefs,
                horizon=T,
            )
        )
        params = AlgoParams(r_max=750, epsilon=0.5, delta=0.05, d=0.1)
        return SimConfig(
            instance=inst,
            arrivals=NonstationaryArrivals(fns, 0.0, h),
            seed=seed,
            params=params,
        ), rates, h

    def test_constant_rates_collapse_to_stationary(self):
        config, rates, h = self._constant_config()
        trace, plan = run_nonstationary(config)
        assert len(plan) == 1
        np.testing.assert_allclose(
            plan.segments[0].weights, rates / rates.sum()
        )

        # same instance driven by the stationary sampler: the assignment
        # mix should agree within sampling noise
        from allocsim.model import StationaryArrivals
        import dataclasses

        stat_config = dataclasses.replace(
            config, arrivals=StationaryArrivals(rates)
        )
        stream = sample_stationary_stream(rates, len(trace), seed=config.seed)
        stat = run_integrated(stat_config, stream, rates / rates.sum())

        share_a = trace.assignment_counts / max(len(trace), 1)
        share_b = stat.assignment_counts / len(stat)
        assert np.abs(share_a - share_b).max() <= 0.05

    def test_segment_bookkeeping(self):
        config = scenario_nonstationary("varying_reward", 4000, 24.0, seed=3)
        trace, plan = run_nonstationary(config)
        assert trace.segment.min() >= 0
        assert trace.segment.max() < len(plan)
        for k, seg in enumerate(plan.segments):
            inside = trace.times[trace.segment == k]
            if inside.size == 0:
                continue
            assert inside.min() >= seg.t_start - 1e-9
            assert inside.max() <= seg.t_end + 1e-9

    def test_extreme_budget_depletes_everything_finite(self):
        config = scenario_nonstationary("extreme_budget", 6000, 24.0, seed=1)
        trace, _ = run_nonstationary(config)
        finite = ~np.isinf(config.instance.budgets)
        assert np.all(trace.remaining_final[finite] < 1.0)
        assert np.isinf(trace.remaining_final[~finite]).all()

    def test_plan_csv_layout(self, tmp_path):
        config, _, h = self._constant_config(T=2000)
        _, plan = run_nonstationary(config)
        path = tmp_path / "plan.csv"
        write_plan_csv(plan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_start,t_end,label,v_or_epsilon,delta_max,w_1,w_2,w_3"
        assert len(lines) == len(plan) + 1
        fields = lines[1].split(",")
        assert fields[2] in ("A", "B")
        assert float(fields[0]) == 0.0

    @pytest.mark.parametrize("weighted", [False, True], ids=["no-weights", "weights"])
    def test_plan_csv_bytes(self, tmp_path, weighted):
        config = scenario_nonstationary("varying_reward", 3000, 24.0, seed=4)
        model, p = config.arrivals, config.params
        plan = segment_time_span(
            model.rate_fns, model.t0, model.t_end, p.epsilon, p.delta, p.d, p.grid_dt)
        if weighted:
            rng = substream(config.seed, "weights")
            for seg in plan.segments:
                segment_weights(seg, model.rate_fns, rng)
        path = tmp_path / "plan.csv"
        write_plan_csv(plan, path)
        m = len(model.rate_fns) if weighted else 0
        header = ",".join(["t_start,t_end,label,v_or_epsilon,delta_max"]
                          + [f"w_{j + 1}" for j in range(m)])
        rows = "".join(
            f"{seg.t_start:.9g},{seg.t_end:.9g},{seg.label},"
            f"{seg.epsilon_used if seg.label == 'A' else seg.v:.9g},"
            f"{0.0 if seg.label == 'A' else float(seg.delta_vec.max()):.9g}"
            + "".join(f",{w:.9g}" for w in (seg.weights if weighted else ()))
            + "\n"
            for seg in plan.segments
        )
        assert path.read_text() == header + "\n" + rows
        assert {seg.label for seg in plan.segments} == {"A", "B"}
