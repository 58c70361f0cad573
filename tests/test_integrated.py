"""Online loop: projection, gradient steps, dual-driven selection, full runs.

The backend-equivalence tests are the load-bearing ones here: the scalar
kernel (compiled where numba imports, else run as plain Python) and the
numpy twin must produce identical discrete decisions, since both consume the
same pre-drawn uniforms.
"""

import numpy as np
import pytest

from allocsim import (
    HAS_NUMBA,
    AlgoParams,
    DualState,
    ProblemInstance,
    SimConfig,
    StationaryArrivals,
    ogd_step,
    project_box,
    run_integrated,
    run_nonstationary,
    sample_stationary_stream,
    scenario_nonstationary,
    scenario_stationary,
    select_by_dual,
    substream,
    validate_instance,
)
from allocsim import _kernels
from allocsim.errors import LengthMismatch, NoAvailableItem
from allocsim.integrated import PHASE_NAMES, Trace, write_lambda_csv, write_trace_csv


def simple_config(n=1, m=1, T=50, budget=1e9, p=1.0, r_max=10, seed=0, **params):
    inst = validate_instance(
        ProblemInstance(
            rewards=np.linspace(1.0, 0.5, n)[::-1].copy() if n > 1 else np.array([1.0]),
            budgets=np.full(n, budget),
            mu=0.1,
            preferences=np.full((m, n), p),
            horizon=T,
        )
    )
    return SimConfig(
        instance=inst,
        arrivals=StationaryArrivals(np.ones(m)),
        seed=seed,
        params=AlgoParams(r_max=r_max, **params),
    )


class TestProjectBox:
    def test_clamps_both_sides(self):
        out = project_box(np.array([-0.5, 0.3, 2.0]), 1.0)
        np.testing.assert_allclose(out, [0.0, 0.3, 1.0])

    def test_identity_inside(self):
        y = np.array([0.2, 0.8])
        np.testing.assert_array_equal(project_box(y, 1.0), y)

    def test_non_expansive(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a = rng.uniform(-3, 3, size=4)
            b = rng.uniform(-3, 3, size=4)
            pa, pb = project_box(a, 1.0), project_box(b, 1.0)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(2), 0.0)


class TestOgdStep:
    def test_zero_gradient_is_identity(self):
        state = DualState(lam=np.array([0.3]), box_upper=1.0, grad_bound=1.0,
                          horizon=100)
        out = ogd_step(state, np.zeros(1), t=1)
        np.testing.assert_array_equal(out.lam, state.lam)

    def test_negative_gradient_raises_price(self):
        state = DualState(lam=np.array([0.0]), box_upper=1.0, grad_bound=1.0,
                          horizon=100)
        # eta = D/(G sqrt(T)) = 1/10 here
        out = ogd_step(state, np.array([-1.0]), t=1)
        np.testing.assert_allclose(out.lam, [0.1])

    def test_descends_a_quadratic(self):
        # distance to the box-interior minimizer of 0.5|lam - z|^2 shrinks
        z = np.array([0.4, 0.7, 0.2])
        state = DualState(lam=np.zeros(3), box_upper=1.0, grad_bound=2.0,
                          horizon=1000, step_rule="decay")
        prev = np.linalg.norm(state.lam - z)
        for t in range(1, 1001):
            state = ogd_step(state, state.lam - z, t)
            dist = np.linalg.norm(state.lam - z)
            assert dist <= prev + 1e-12
            prev = dist
        assert prev < 1e-3

    def test_length_mismatch(self):
        state = DualState(lam=np.zeros(2), box_upper=1.0, grad_bound=1.0,
                          horizon=10)
        with pytest.raises(LengthMismatch):
            ogd_step(state, np.zeros(3), t=1)


class TestSelectByDual:
    def test_single_available_is_forced(self):
        rng = substream(0, "t")
        pick = select_by_dual(
            np.zeros(3), np.full((1, 3), 0.5), 0,
            np.array([False, True, False]), rng,
            rewards=np.array([1.0, 0.2, 0.5]), mu=0.1,
        )
        assert pick == 1

    def test_symmetric_items_draw_uniformly(self):
        rng = substream(1, "t")
        n_draws = 10_000
        hits = np.zeros(2)
        for _ in range(n_draws):
            pick = select_by_dual(
                np.zeros(2), np.full((1, 2), 0.6), 0, np.ones(2, dtype=bool),
                rng, rewards=np.ones(2), mu=0.1,
            )
            hits[pick] += 1
        sigma = np.sqrt(0.25 * n_draws)
        assert abs(hits[0] - n_draws / 2) <= 4.0 * sigma

    def test_price_equal_reward_is_uniform(self):
        rng = substream(2, "t")
        r = np.array([1.0, 0.6, 0.3])
        n_draws = 9_000
        hits = np.zeros(3)
        for _ in range(n_draws):
            pick = select_by_dual(
                r.copy(), np.full((1, 3), 0.5), 0, np.ones(3, dtype=bool),
                rng, rewards=r, mu=0.1,
            )
            hits[pick] += 1
        p = 1.0 / 3.0
        sigma = np.sqrt(p * (1 - p) * n_draws)
        assert np.all(np.abs(hits - n_draws * p) <= 4.0 * sigma)

    def test_nothing_available(self):
        with pytest.raises(NoAvailableItem):
            select_by_dual(
                np.zeros(2), np.full((1, 2), 0.5), 0, np.zeros(2, dtype=bool),
                substream(3, "t"), rewards=np.ones(2), mu=0.1,
            )


class TestRunIntegrated:
    def test_sure_seller_takes_everything(self):
        T = 200
        config = simple_config(T=T)
        stream = sample_stationary_stream(np.array([1.0]), T, seed=0)
        trace = run_integrated(config, stream, np.array([1.0]))
        assert np.all(trace.assigned == 0)
        assert np.all(trace.purchased)
        assert float(trace.purchased.sum()) == T  # revenue at reward 1.0

    def test_rmax_zero_skips_learning_phase(self):
        T = 100
        config = simple_config(T=T, r_max=0)
        stream = sample_stationary_stream(np.array([1.0]), T, seed=1)
        trace = run_integrated(config, stream, np.array([1.0]))
        assert not np.any(trace.phase == PHASE_NAMES.index("ucb"))

    def test_learning_phase_respects_rmax(self):
        config = scenario_stationary(T=2000, seed=3)
        stream = sample_stationary_stream(config.arrivals.rates, 2000, seed=3)
        trace = run_integrated(
            config, stream, config.arrivals.rates / config.arrivals.rates.sum()
        )
        ucb_idx = PHASE_NAMES.index("ucb")
        learned = np.flatnonzero(trace.phase == ucb_idx)
        assert learned.size > 0
        assert learned.max() < config.params.r_max

    def test_prices_stay_in_box(self):
        config = scenario_stationary(T=3000, seed=5)
        stream = sample_stationary_stream(config.arrivals.rates, 3000, seed=5)
        trace = run_integrated(
            config, stream, config.arrivals.rates / config.arrivals.rates.sum()
        )
        box = config.instance.r_star
        assert np.all(trace.checkpoints.lam >= 0.0)
        assert np.all(trace.checkpoints.lam <= box + 1e-12)
        assert np.all(trace.lam_final >= 0.0)
        assert np.all(trace.lam_final <= box + 1e-12)

    def test_budget_ledger_balances(self):
        # stock moves one unit per assignment of a finite item, so initial
        # minus final remaining must equal the assignment counts
        config = scenario_stationary(T=4000, seed=7)
        stream = sample_stationary_stream(config.arrivals.rates, 4000, seed=7)
        trace = run_integrated(
            config, stream, config.arrivals.rates / config.arrivals.rates.sum()
        )
        spent = config.instance.budgets - trace.remaining_final
        np.testing.assert_allclose(spent, trace.assignment_counts)

    def test_null_only_when_everything_is_gone(self):
        config = simple_config(n=2, m=1, T=60, budget=10.0, p=1.0, r_max=0)
        stream = sample_stationary_stream(np.array([1.0]), 60, seed=2)
        trace = run_integrated(config, stream, np.array([1.0]))
        nulls = np.flatnonzero(trace.assigned < 0)
        assert nulls.size == 40  # 2 items x 10 units, then nothing left
        assert np.all(trace.assigned[:20] >= 0)
        assert nulls.min() == 20

    def test_empty_stream_rejected(self):
        config = simple_config(T=10)
        stream = sample_stationary_stream(np.array([1.0]), 10, seed=0)
        with pytest.raises(ValueError):
            run_integrated(config, stream.slice(0, 0), np.array([1.0]))

    def test_weights_must_normalize(self):
        config = simple_config(m=2, T=10)
        stream = sample_stationary_stream(np.ones(2), 10, seed=0)
        with pytest.raises(ValueError):
            run_integrated(config, stream, np.array([0.7, 0.7]))


def on_reference_backend(monkeypatch, run):
    """`run(backend)` on the scalar kernel: compiled where numba imports,
    else run as plain Python on run_integrated's own inputs (same state,
    steps and uniforms)."""
    if HAS_NUMBA:
        return run("numba")
    with monkeypatch.context() as patch:
        patch.setattr(
            _kernels, "integrated_loop",
            lambda *args, backend=None: _kernels._integrated_scalar(*args),
        )
        return run(None)


def assert_backends_agree(fast, plain):
    np.testing.assert_array_equal(fast.assigned, plain.assigned)
    np.testing.assert_array_equal(fast.purchased, plain.purchased)
    np.testing.assert_array_equal(fast.phase, plain.phase)
    np.testing.assert_allclose(fast.f_vals, plain.f_vals, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fast.lam_final, plain.lam_final,
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(fast.remaining_final, plain.remaining_final)


class TestBackendEquivalence:
    @pytest.mark.parametrize("T,seed", [(2000, 1), (5000, 4)])
    def test_discrete_outputs_identical(self, T, seed, monkeypatch):
        config = scenario_stationary(T=T, seed=seed)
        stream = sample_stationary_stream(config.arrivals.rates, T, seed=seed)
        w = config.arrivals.rates / config.arrivals.rates.sum()
        fast = on_reference_backend(
            monkeypatch, lambda b: run_integrated(config, stream, w, backend=b))
        plain = run_integrated(config, stream, w, backend="numpy")
        assert_backends_agree(fast, plain)

    def test_nonstationary_run_identical(self, monkeypatch):
        # Per-arrival phi rows, an uncapped item, state carried across
        # segments, and capped items selling out while arrivals remain.
        config = scenario_nonstationary("extreme_budget", 2000, 24.0, seed=3)
        fast, plan = on_reference_backend(
            monkeypatch, lambda b: run_nonstationary(config, backend=b))
        plain, _ = run_nonstationary(config, backend="numpy")
        assert len(plan) > 1
        assert np.unique(plain.segment).size > 1
        assert config.instance.infinite_items.any()
        capped = np.flatnonzero(~config.instance.infinite_items)
        sold_out = capped[plain.remaining_final[capped] < 1.0]
        assert sold_out.size > 0
        last_unit = max(np.flatnonzero(plain.assigned == i)[-1] for i in sold_out)
        assert last_unit < len(plain) - 100
        assert_backends_agree(fast, plain)

    def test_sold_out_item_dominating_the_row(self, monkeypatch):
        # With mu this small a sold-out item's exponent exceeds the uncapped
        # one's by thousands, so the unmasked row underflows on every
        # available item; the selection must still draw from what is left.
        inst = validate_instance(ProblemInstance(
            rewards=np.array([10.0, 1.0]), budgets=np.array([1.0, np.inf]),
            mu=1e-3, preferences=np.ones((1, 2)), horizon=20,
        ))
        config = SimConfig(instance=inst, arrivals=StationaryArrivals(np.ones(1)),
                           seed=0, params=AlgoParams(r_max=0))
        stream = sample_stationary_stream(np.array([1.0]), 20, seed=0)
        w = np.array([1.0])
        fast = on_reference_backend(
            monkeypatch, lambda b: run_integrated(config, stream, w, backend=b))
        plain = run_integrated(config, stream, w, backend="numpy")
        np.testing.assert_array_equal(plain.assigned, [0] + [1] * 19)
        assert_backends_agree(fast, plain)

    def test_unknown_backend_rejected(self):
        config = simple_config(T=10)
        stream = sample_stationary_stream(np.array([1.0]), 10, seed=0)
        with pytest.raises((ValueError, KeyError)):
            run_integrated(config, stream, np.array([1.0]), backend="gpu")


class TestCarryOver:
    def _split_run(self, config, stream, w, cut):
        T = len(stream)
        rng = np.random.default_rng(substream(config.seed, "loop"))
        first = run_integrated(config, stream.slice(0, cut), w,
                               rng=rng, expected_count=T)
        second = run_integrated(config, stream.slice(cut, T), w,
                                loop_state=first.carry, rng=rng,
                                expected_count=T)
        return first, second

    def test_state_threads_through_batches(self):
        T = 3000
        config = scenario_stationary(T=T, seed=9)
        stream = sample_stationary_stream(config.arrivals.rates, T, seed=9)
        w = config.arrivals.rates / config.arrivals.rates.sum()

        first, second = self._split_run(config, stream, w, 1200)
        # the second batch starts exactly where the first ended
        assert second.t_start_index == 1200
        assert second.carry.t_global == T
        spent = config.instance.budgets - second.remaining_final
        joined = np.concatenate([first.assigned, second.assigned])
        joined = joined[joined >= 0]
        np.testing.assert_allclose(spent, np.bincount(joined, minlength=10))
        # learning never resets: counts only grow across the boundary
        assert second.estimate.counts.sum() > first.estimate.counts.sum()

    def test_split_run_reproducible(self):
        T = 2000
        config = scenario_stationary(T=T, seed=11)
        stream = sample_stationary_stream(config.arrivals.rates, T, seed=11)
        w = config.arrivals.rates / config.arrivals.rates.sum()
        a1, a2 = self._split_run(config, stream, w, 700)
        b1, b2 = self._split_run(config, stream, w, 700)
        np.testing.assert_array_equal(a1.assigned, b1.assigned)
        np.testing.assert_array_equal(a2.assigned, b2.assigned)
        np.testing.assert_array_equal(a2.purchased, b2.purchased)

    def test_one_call_equals_chained_pieces(self):
        # A run cut into chained calls (as run_nonstationary and the
        # phase-splitting benchmark tracer do) must reproduce one call bit
        # for bit when every piece gets its slice of the same uniforms and
        # the whole batch's expected count.
        T = 3000
        config = scenario_stationary(T=T, seed=5)
        stream = sample_stationary_stream(config.arrivals.rates, T, seed=5)
        w = config.arrivals.rates / config.arrivals.rates.sum()
        whole = run_integrated(config, stream, w)

        learn_end = int(np.flatnonzero(whole.phase == 1)[0])
        cuts = [0, learn_end // 2 + 7, learn_end + (T - learn_end) // 2 + 3, T]
        assert whole.phase[cuts[1] - 1] == 0 and whole.phase[cuts[1]] == 0
        assert np.all(whole.phase[learn_end:] == 1)

        draws = SlicedDraws(np.random.default_rng(substream(config.seed, "loop")), T)
        state, pieces = None, []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            piece = run_integrated(config, stream.slice(lo, hi), w,
                                   loop_state=state, rng=draws, expected_count=T)
            state = piece.carry
            pieces.append(piece)
        chained = Trace.concat(pieces)

        for name in ("assigned", "purchased", "phase", "f_vals", "lam_final",
                     "remaining_final"):
            np.testing.assert_array_equal(getattr(chained, name), getattr(whole, name))
        for name in ("t", "pref_error", "change", "lam", "remaining"):
            np.testing.assert_array_equal(getattr(chained.checkpoints, name),
                                          getattr(whole.checkpoints, name))
        assert whole.checkpoints.t.size > 0


class SlicedDraws:
    """Stands in for the loop generator across chained calls: hands each
    call its slice of the selection and purchase uniforms that one call
    over the whole batch would draw."""

    def __init__(self, rng, T):
        self._draws = (rng.random(T), rng.random(T))
        self._taken = [0, 0]
        self._next = 0

    def random(self, size):
        k = self._next
        lo = self._taken[k]
        self._taken[k] += size
        self._next = 1 - k
        return self._draws[k][lo:lo + size]


class TestTraceExport:
    def test_trace_csv_layout(self, tmp_path):
        config = simple_config(T=30, r_max=5)
        stream = sample_stationary_stream(np.array([1.0]), 30, seed=0)
        trace = run_integrated(config, stream, np.array([1.0]))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,time,type,item,purchased,phase"
        assert len(lines) == 31
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[5] in PHASE_NAMES

    def test_lambda_csv_layout(self, tmp_path):
        config = scenario_stationary(T=2500, seed=2)
        stream = sample_stationary_stream(config.arrivals.rates, 2500, seed=2)
        trace = run_integrated(
            config, stream, config.arrivals.rates / config.arrivals.rates.sum()
        )
        path = tmp_path / "lambda.csv"
        write_lambda_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t," + ",".join(f"lambda_{i}" for i in range(1, 11))
        assert len(lines) == trace.checkpoints.t.size + 1
