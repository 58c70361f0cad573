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
from allocsim.arrivals import rate_extrema
from allocsim.errors import InvalidInstance
from allocsim.harness import write_plan_csv
from allocsim.integrated import run_integrated
from allocsim.model import (
    AlgoParams,
    ProblemInstance,
    NonstationaryArrivals,
    RateStack,
    SimConfig,
    scan_grid,
)
from allocsim import segmentation
from allocsim.segmentation import SegmentPlan, _Cursor


def constant_fn(c, t0=0.0, t_end=10.0):
    return RateFunction((RatePiece(t0, t_end, "constant", (c,)),))


def linear_fn(slope, intercept, t0=0.0, t_end=10.0):
    return RateFunction((RatePiece(t0, t_end, "linear", (slope, intercept)),))


def scan_window(rate_fns, t, threshold, grid_dt, t_end, delta_cap=None):
    """One scan from a fresh cursor at t."""
    return _Cursor(RateStack(rate_fns), t, t_end, grid_dt).scan(threshold, delta_cap)


class TestFindSegmentEnd:
    """The window scan segment_time_span runs: the largest grid point t*
    with every rate's variation over [t, t*] within the threshold."""

    def test_constant_rates_reach_the_end(self):
        fns = (constant_fn(2.0), constant_fn(5.0))
        assert scan_window(fns, 0.0, 0.5, 0.001, 10.0)[0] == 10.0

    def test_linear_growth_stops_at_threshold(self):
        fns = (linear_fn(2.0, 0.0, 0.0, 1.0),)
        t_star = scan_window(fns, 0.0, 1.0, 0.0001, 1.0)[0]
        assert t_star == pytest.approx(0.5, abs=0.0002)

    def test_generous_threshold_never_binds(self):
        fns = (linear_fn(2.0, 0.0, 0.0, 1.0), constant_fn(1.0, 0.0, 1.0))
        assert scan_window(fns, 0.0, 100.0, 0.001, 1.0)[0] == 1.0

    def test_always_advances(self):
        fns = (linear_fn(50.0, 1.0, 0.0, 1.0),)
        t_star = scan_window(fns, 0.0, 1e-9, 0.01, 1.0)[0]
        assert t_star > 0.0

    def test_scan_grid_matches_sorted_union(self):
        # shared and on-grid boundaries, and windows with none inside
        a = RateFunction((RatePiece(0.0, 1.0, "constant", (1.0,)),
                          RatePiece(1.0, 2.5, "linear", (1.0, 0.0)),
                          RatePiece(2.5, 4.0, "constant", (2.0,))))
        b = RateFunction((RatePiece(0.0, 1.337, "constant", (1.0,)),
                          RatePiece(1.337, 4.0, "constant", (3.0,))))
        rng = np.random.default_rng(6)
        windows = [(0.0, 4.0), (1.0, 2.5), (1.1, 1.3)] + [
            tuple(np.sort(rng.uniform(0.0, 4.0, 2))) for _ in range(200)]
        for fns in ((a,), (b,), (a, b), ()):
            for lo, hi in windows:
                got = scan_grid(fns, lo, hi, 0.001)
                assert got.tobytes() == sorted_union_grid(fns, lo, hi, 0.001).tobytes()

    def test_window_grid_is_a_prefix_of_the_horizon_grid(self):
        # a cursor scans the grid to the horizon's end and certification
        # the grid to the segment's end; up to that end the two are equal
        steep = RateFunction((RatePiece(0.0, 1.337, "linear", (5.0, 1.0)),
                              RatePiece(1.337, 4.0, "quadratic", (-0.5, 2.0, 3.0))))
        fns, dt = (steep, constant_fn(1.0, 0.0, 4.0)), 0.001
        rng = np.random.default_rng(5)
        for t, width in zip(rng.uniform(0.0, 4.0, 300), rng.uniform(0.0, 2.0, 300)):
            full = scan_grid(fns, t, 4.0, dt)
            part = scan_grid(fns, t, min(t + width + dt, 4.0), dt)
            np.testing.assert_array_equal(part[part <= t + width],
                                          full[full <= t + width])


def sorted_union_grid(rate_fns, a, b, grid_dt):
    """Reference scan grid: every candidate point, sorted and deduplicated."""
    pts = np.arange(a, b, grid_dt)
    inner = [fn.boundaries[(fn.boundaries > a) & (fn.boundaries < b)]
             for fn in rate_fns]
    return np.unique(np.concatenate([pts[pts < b], *inner, [b]]))


def full_horizon_scan(rate_fns, t, threshold, grid_dt, t_end, delta_cap=None):
    """Brute-force window scan: every rate, looked up one function at a
    time, on the whole grid to t_end at once, then the last point before
    the first violation (at least one point past t)."""
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
    """The chunked cursor scan builds the same plans as a scan of the whole
    remaining horizon, bit for bit."""

    @staticmethod
    def _plans(monkeypatch, rate_fns, t0, t_end, *knobs):
        plan = segment_time_span(rate_fns, t0, t_end, *knobs)
        calls = []

        def brute_scan(cursor, threshold, delta_cap=None):
            # a cursor's grid runs from its t to the horizon's end
            calls.append(threshold)
            t, end = float(cursor.pts[0]), float(cursor.pts[-1])
            return full_horizon_scan(rate_fns, t, threshold, knobs[-1], end,
                                     delta_cap)

        with monkeypatch.context() as patch:
            patch.setattr(segmentation._Cursor, "scan", brute_scan)
            brute = segment_time_span(rate_fns, t0, t_end, *knobs)
        # one epsilon scan per segment, and one v scan per type-B segment
        assert len(calls) == len(brute) + sum(
            seg.label == "B" for seg in brute.segments)
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

    @pytest.mark.parametrize("delta_cap", [None, 0.05])
    def test_cursor_matches_full_scan_at_every_offset(self, monkeypatch, delta_cap):
        # with chunks ending at grid points 4, 8, 16, 32 and 64, a jump j
        # grid points past the cursor puts the first failing point on a
        # chunk's first point, inside a chunk and on its last; both scans
        # run on one cursor, as segment_time_span runs them
        monkeypatch.setattr(segmentation, "_FIRST_CHUNK", 4)
        dt = 0.001
        flat = constant_fn(2.0, 0.0, 1.0)
        for j in range(1, 70):
            jump = RateFunction((RatePiece(0.0, j * dt, "constant", (1.0,)),
                                 RatePiece(j * dt, 1.0, "linear", (5.0, 3.0))))
            cursor = _Cursor(RateStack((jump, flat)), 0.0, 1.0, dt)
            for threshold in (0.5, 2.5, 1e-9):
                want = full_horizon_scan((jump, flat), 0.0, threshold, dt, 1.0,
                                         delta_cap)
                assert cursor.scan(threshold, delta_cap) == want


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

    def test_zero_rate_has_one_positive_root(self):
        # 2v^2 + (1 + 0 - 1)v - 1/2 = 0 at rates [0,1], delta 1/2 -> v = 1/2
        assert solve_v_threshold(np.array([0.0, 1.0]), 0.5) == pytest.approx(
            0.5, abs=1e-12
        )

    @pytest.mark.parametrize("rates", [[-1e-12, 1.0], [0.0, 0.0], [np.nan, 1.0]],
                             ids=["negative", "zero-total", "nan"])
    def test_rejects_negative_rate_or_zero_total(self, rates):
        with pytest.raises(ValueError, match="nonnegative with a positive total"):
            solve_v_threshold(np.array(rates), 0.5)


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
        with pytest.raises(InvalidInstance, match="sum of rate minima is zero"):
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

    def test_certification_sees_other_types_boundaries(self):
        # Type 1's rate 500 + 100 sin(1000 pi t) is 500 on every point of
        # the 0.001 grid but 600 at t = 0.5005, a piece boundary of type 0
        # only. The search scans every type on one grid that holds that
        # point, so a type-A segment over [0, 1] with epsilon = 1 must fail
        # certification, although each type's own grid shows it within.
        fns = (
            RateFunction((RatePiece(0.0, 0.5005, "constant", (100.0,)),
                          RatePiece(0.5005, 1.0, "constant", (100.0,)))),
            RateFunction((RatePiece(0.0, 1.0, "sinusoid",
                                    (100.0, 1000 * np.pi, 0.0, 500.0)),)),
        )
        plan = SegmentPlan([Segment(0.0, 1.0, "A")], epsilon=1.0, delta=0.05,
                           d=0.5, grid_dt=0.001)
        own = [rate_extrema(fn, (0.0, 1.0), 0.001) for fn in fns]
        assert max(mx - mn for mn, mx in own) < 1e-6
        assert 0.5005 in scan_grid(fns, 0.0, 1.0, 0.001)
        assert not certify_plan(plan, fns)[0]

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
        seg = Segment(0.0, 2.0, "A")
        w = segment_weights(seg, (constant_fn(1.0), constant_fn(3.0)),
                            substream(0, "w"))
        np.testing.assert_allclose(w, [0.25, 0.75])
        assert 0.0 <= seg.t_tilde <= 2.0

    def test_type_a_zero_total_rate_refused(self):
        # a zero type mix has no weights: 0/0 would write NaN into plan.csv
        seg = Segment(0.0, 2.0, "A")
        with pytest.raises(InvalidInstance, match=r"total rate is 0 at its "
                           r"sampled point t_tilde=\d"):
            segment_weights(seg, (constant_fn(0.0), constant_fn(0.0)),
                            substream(0, "w"))
        assert seg.weights is None

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
        inst = ProblemInstance(
            rewards=np.array([0.5, 0.75, 1.0]),
            budgets=np.full(3, 0.5 * T),
            mu=0.1,
            preferences=prefs,
            horizon=T,
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
            f"{plan.epsilon if seg.label == 'A' else seg.v:.9g},"
            f"{0.0 if seg.label == 'A' else float(seg.delta_vec.max()):.9g}"
            + "".join(f",{w:.9g}" for w in (seg.weights if weighted else ()))
            + "\n"
            for seg in plan.segments
        )
        assert path.read_text() == header + "\n" + rows
        assert {seg.label for seg in plan.segments} == {"A", "B"}
