"""Online loop: projection, gradient steps, dual-driven selection, full runs.

The single-step tests hand-set a LoopState and run one or a few arrivals
through `run_integrated`, against oracles built from dual.py's gradient.

The backend-equivalence tests are the load-bearing ones here: the scalar
kernel (compiled where numba imports, else run as plain Python) and the
numpy twin must produce identical discrete decisions, since both consume the
same pre-drawn uniforms.
"""

from dataclasses import replace

import numpy as np
import pytest

from allocsim import (
    HAS_NUMBA,
    AlgoParams,
    ArrivalSequence,
    CheckpointLog,
    LoopState,
    ProblemInstance,
    SimConfig,
    StationaryArrivals,
    WeightedDualSpec,
    dual_gradient,
    run_integrated,
    run_nonstationary,
    sample_stationary_stream,
    scenario_nonstationary,
    scenario_stationary,
    solve_offline,
    step_sizes,
    substream,
    validate_instance,
)
from allocsim import _kernels
from allocsim.dual import default_grad_bound
from allocsim.errors import LengthMismatch
from allocsim.harness import write_lambda_csv, write_trace_csv
from allocsim.integrated import PHASE_NAMES, Trace
from conftest import hand_state, loop_config, run_arrivals


def oracle_step(config, lam, p_hat, weights, expected_count):
    """The dual step from `lam` before the box clamp, built from dual.py's
    gradient at estimate `p_hat` and the fixed step size D/(G sqrt(T))."""
    inst = config.instance
    s = 1.0 / expected_count
    spec = WeightedDualSpec(weights=weights, budget_scale=s, preferences=p_hat,
                            rewards=inst.rewards, budgets=inst.budgets, mu=inst.mu)
    n = inst.rewards.size
    eta = (config.lambda_max() * np.sqrt(n)
           / (default_grad_bound(n, s, inst.budgets) * np.sqrt(expected_count)))
    return lam - eta * dual_gradient(spec, lam)


def one_step(config, lam, **fields):
    """λ after one learning-phase arrival at unit budget scale, and the
    unclamped step the oracle predicts from the updated estimate."""
    state = hand_state(config, lam=lam, **fields)
    run_arrivals(config, state, [0], expected_count=1)
    return state.lam, oracle_step(config, np.asarray(lam, dtype=float),
                                  state.p_hat, np.array([1.0]), 1)


class TestProjectBox:
    """The loop's dual step clamps λ to [0, λ_max] after the gradient move.
    At unit budget scale, with no budget above one unit, the step size is
    λ_max / 2, large enough to leave the box."""

    def test_clamps_both_sides(self):
        # a budget of a whole unit pushes item 0 below 0; none pushes the
        # high-reward item 2 above λ_max = 1
        config = loop_config(n=3, rewards=[0.3, 0.3, 1.0], budgets=[1.0, 0.5, 0.0],
                             p=0.5)
        lam, y = one_step(config, [0.2, 0.25, 0.99])
        assert y[0] < 0.0 and 0.0 < y[1] < 1.0 and y[2] > 1.0
        np.testing.assert_allclose(lam, [0.0, y[1], 1.0], rtol=1e-12, atol=0.0)
        assert lam[0] == 0.0 and lam[2] == 1.0

    def test_identity_inside(self):
        config = loop_config(n=3, budgets=[0.4, 0.3, 0.2], p=0.5)
        lam, y = one_step(config, [0.3, 0.4, 0.5])
        assert np.all((y > 0.0) & (y < 1.0))
        np.testing.assert_allclose(lam, y, rtol=1e-12, atol=0.0)

    def test_non_expansive(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            config = loop_config(n=4, budgets=rng.uniform(0.0, 1.0, size=4),
                                 rewards=rng.uniform(0.2, 1.0, size=4), p=0.5)
            top = config.lambda_max()
            pa, ya = one_step(config, rng.uniform(0.0, top, size=4))
            pb, yb = one_step(config, rng.uniform(0.0, top, size=4))
            np.testing.assert_allclose(pa, np.clip(ya, 0.0, top), rtol=1e-12, atol=1e-15)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(ya - yb) + 1e-12

    def test_rejects_bad_bound(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                AlgoParams(r_max=1, lambda_max=bad)
            with pytest.raises(ValueError):
                step_sizes(1, n=2, box_upper=bad, grad_bound=1.0, horizon=10)


class TestOgdStep:
    def test_zero_gradient_is_identity(self):
        # a sure sale leaves p̂ = x = 1, so s·b − p̂·x = 1·1 − 1 = 0 exactly
        config = loop_config(n=1, budgets=1.0, r_max=0)
        state = hand_state(config, lam=[0.3])
        run_arrivals(config, state, [0], expected_count=1)
        np.testing.assert_array_equal(state.lam, [0.3])

    def test_negative_gradient_raises_price(self):
        # no stock: the step is 0 − p̂·x = −1 and eta = D/(G sqrt(T)) with
        # D = 1, G = 2 and T = 100, so λ moves from 0 to 1/20
        config = loop_config(n=1, budgets=0.0, r_max=0)
        one = np.ones((1, 1), dtype=np.int64)
        state = hand_state(config, counts=one, purchases=one, p_hat=[[1.0]])
        trace = run_arrivals(config, state, [0], expected_count=100)
        assert trace.assigned[0] == -1
        np.testing.assert_allclose(state.lam, [0.05], rtol=1e-15)

    def test_descends_the_dual(self):
        # With p̂ = P* = 1 the estimate cannot move, so pricing is projected
        # gradient descent on one fixed dual: its recorded values never rise
        # and the iterate reaches the offline minimizer.
        T = 4000
        config = loop_config(n=3, m=2, rewards=[1.0, 0.8, 0.5],
                             budgets=[800.0, 1200.0, 800.0], r_max=0)
        weights = np.array([0.3, 0.7])
        state = hand_state(config, p_hat=np.ones((2, 3)))
        stream = ArrivalSequence(times=np.arange(1.0, T + 1.0),
                                 types=np.arange(T) % 2, seed=0)
        trace = run_integrated(config, stream, weights, loop_state=state)
        assert np.all(np.diff(trace.f_vals) <= 1e-12)
        inst = config.instance
        spec = WeightedDualSpec(weights=weights, budget_scale=1.0 / T,
                                preferences=np.ones((2, 3)), rewards=inst.rewards,
                                budgets=inst.budgets, mu=inst.mu)
        star = solve_offline(spec, box_upper=config.lambda_max())
        np.testing.assert_allclose(trace.lam_final, star.lam, atol=1e-6)
        assert trace.f_vals[-1] == pytest.approx(star.value, abs=1e-9)

    def test_length_mismatch(self):
        config = loop_config(n=2, m=2)
        with pytest.raises(LengthMismatch):
            run_arrivals(config, hand_state(config), [0], weights=np.array([1.0]))
        with pytest.raises(LengthMismatch):
            run_arrivals(config, hand_state(config), [0], phi=np.full((2, 2), 0.5))


class TestSelectByDual:
    """The pricing draw: item i with probability proportional to
    exp((r_i − λ_i) p̂_ji / (p̄_j μ)) over the items in stock, drawn by
    inverse CDF from the arrival's selection uniform."""

    def test_single_available_is_forced(self):
        config = loop_config(n=3, rewards=[1.0, 0.2, 0.5], budgets=5.0, r_max=0)
        state = hand_state(config, remaining=[0.0, 5.0, 0.5])
        trace = run_arrivals(config, state, [0, 0, 0], u_select=[0.0, 0.5, 0.999999])
        np.testing.assert_array_equal(trace.assigned, [1, 1, 1])

    def test_symmetric_items_draw_uniformly(self):
        # sure sellers keep p̂ = 1 and uncapped stock keeps λ = 0, so the
        # row stays symmetric for the whole run
        n_draws = 10_000
        config = loop_config(n=2, r_max=0, seed=1)
        one = np.ones((1, 2), dtype=np.int64)
        state = hand_state(config, counts=one, purchases=one, p_hat=np.ones((1, 2)))
        stream = ArrivalSequence(times=np.arange(1.0, n_draws + 1.0),
                                 types=np.zeros(n_draws, dtype=np.int64), seed=1)
        trace = run_integrated(config, stream, np.array([1.0]), loop_state=state)
        hits = np.bincount(trace.assigned, minlength=2)
        sigma = np.sqrt(0.25 * n_draws)
        assert abs(hits[0] - n_draws / 2) <= 4.0 * sigma

    def test_price_equal_reward_is_uniform(self):
        # every exponent is 0, so the inverse CDF cuts [0, 1) into thirds
        r = np.array([1.0, 0.6, 0.3])
        cuts = {1e-9: 0, 1 / 3 - 1e-9: 0, 1 / 3 + 1e-9: 1, 2 / 3 - 1e-9: 1,
                2 / 3 + 1e-9: 2, 1 - 1e-9: 2}
        for u, item in cuts.items():
            config = loop_config(n=3, rewards=r, budgets=5.0, p=0.5, r_max=0)
            state = hand_state(config, lam=r)
            assert run_arrivals(config, state, [0], u_select=u).assigned[0] == item

    def test_nothing_available(self):
        config = loop_config(n=2, budgets=5.0, r_max=0)
        state = hand_state(config, remaining=[0.0, 0.5])
        trace = run_arrivals(config, state, [0], u_purchase=0.0)
        assert trace.assigned[0] == -1
        assert not trace.purchased[0]
        assert state.counts.sum() == 0


class TestRunIntegrated:
    def test_sure_seller_takes_everything(self):
        T = 200
        config = loop_config(budgets=1e9, r_max=10)
        stream = sample_stationary_stream(np.array([1.0]), T, seed=0)
        trace = run_integrated(config, stream, np.array([1.0]))
        assert np.all(trace.assigned == 0)
        assert np.all(trace.purchased)
        assert float(trace.purchased.sum()) == T  # revenue at reward 1.0

    def test_rmax_zero_skips_learning_phase(self):
        T = 100
        config = loop_config(budgets=1e9, r_max=0)
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
        config = loop_config(n=2, rewards=[0.5, 1.0], budgets=10.0, r_max=0)
        stream = sample_stationary_stream(np.array([1.0]), 60, seed=2)
        trace = run_integrated(config, stream, np.array([1.0]))
        nulls = np.flatnonzero(trace.assigned < 0)
        assert nulls.size == 40  # 2 items x 10 units, then nothing left
        assert np.all(trace.assigned[:20] >= 0)
        assert nulls.min() == 20

    def test_empty_stream_rejected(self):
        config = loop_config(budgets=1e9, r_max=10)
        stream = sample_stationary_stream(np.array([1.0]), 10, seed=0)
        with pytest.raises(ValueError):
            run_integrated(config, stream.slice(0, 0), np.array([1.0]))

    def test_weights_must_normalize(self):
        config = loop_config(m=2, budgets=1e9, r_max=10)
        stream = sample_stationary_stream(np.ones(2), 10, seed=0)
        with pytest.raises(ValueError):
            run_integrated(config, stream, np.array([0.7, 0.7]))

    @pytest.mark.parametrize("weights", [
        np.full(10, np.nan),
        np.array([2.0, -1.0] + [0.0] * 8),
        np.full(10, 0.2),
    ], ids=["nan", "negative", "unnormalized"])
    def test_rejects_bad_weights(self, weights):
        config = scenario_stationary(T=500, seed=1)
        stream = sample_stationary_stream(config.arrivals.rates, 500, seed=1)
        with pytest.raises(ValueError):
            run_integrated(config, stream, weights)

    @pytest.mark.parametrize("bad", [np.nan, -1.0], ids=["nan", "negative"])
    def test_rejects_bad_phi_row(self, bad):
        config = scenario_stationary(T=500, seed=1)
        stream = sample_stationary_stream(config.arrivals.rates, 500, seed=1)
        w = config.arrivals.rates / config.arrivals.rates.sum()
        phi = np.tile(w, (500, 1))
        phi[137] = bad
        with pytest.raises(ValueError):
            run_integrated(config, stream, w, phi=phi)

    @pytest.mark.parametrize("offset", [-1e-3, 1e-3], ids=["below", "above"])
    def test_rejects_lambda_outside_box(self, offset):
        config = loop_config(n=2, budgets=5.0)
        top = config.lambda_max()
        lam = [0.0, offset] if offset < 0.0 else [top + offset, 0.0]
        with pytest.raises(ValueError):
            run_arrivals(config, hand_state(config, lam=lam), [0])


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
    # one checkpoint computation serves both backends, so the phase rule
    # reads the same estimate error and movement on each
    for name in ("t", "pref_error", "change"):
        np.testing.assert_array_equal(getattr(fast.checkpoints, name),
                                      getattr(plain.checkpoints, name))
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

    def test_all_zero_estimate_row(self, monkeypatch):
        # r_max=0 prices from the first arrival. Type 0's estimate row is all
        # zero, so p_bar = 0 and the row is scaled by 1 instead; nothing is
        # bought (u_purchase above every P*), so the row stays zero and its
        # draws are uniform over the items in stock.
        config = loop_config(n=3, m=2, budgets=[4.0, 4.0, np.inf], p=0.5, r_max=0)
        types = np.array([0, 0, 1] * 10)
        u_select = np.random.default_rng(0).random(types.size)

        def run(backend):
            state = hand_state(config, remaining=[0.0, 4.0, np.inf],
                               p_hat=[[0.0, 0.0, 0.0], [0.6, 0.4, 0.2]],
                               counts=[[0, 0, 0], [5, 5, 5]],
                               purchases=[[0, 0, 0], [3, 2, 1]])
            return run_arrivals(config, state, types, u_select=u_select,
                                u_purchase=0.99, backend=backend)

        fast = on_reference_backend(monkeypatch, run)
        plain = run("numpy")
        assert_backends_agree(fast, plain)
        assert not plain.purchased.any()
        assert set(plain.assigned[types == 0].tolist()) == {1, 2}
        assert 0 not in plain.assigned
        assert np.count_nonzero(plain.assigned == 1) == 4
        np.testing.assert_array_equal(plain.remaining_final, [0.0, 0.0, np.inf])

    def test_unknown_backend_rejected(self):
        config = loop_config(budgets=1e9, r_max=10)
        stream = sample_stationary_stream(np.array([1.0]), 10, seed=0)
        with pytest.raises((ValueError, KeyError)):
            run_integrated(config, stream, np.array([1.0]), backend="gpu")


class TestCarryOver:
    def _split_run(self, config, stream, w, cut):
        """Both batches' traces, plus the visit counts as the first batch
        left them (the second call goes on mutating the shared carry)."""
        T = len(stream)
        rng = np.random.default_rng(substream(config.seed, "loop"))
        first = run_integrated(config, stream.slice(0, cut), w,
                               rng=rng, expected_count=T)
        first_counts = first.carry.counts.copy()
        second = run_integrated(config, stream.slice(cut, T), w,
                                loop_state=first.carry, rng=rng,
                                expected_count=T)
        return first, second, first_counts

    def test_state_threads_through_batches(self):
        T = 3000
        config = scenario_stationary(T=T, seed=9)
        stream = sample_stationary_stream(config.arrivals.rates, T, seed=9)
        w = config.arrivals.rates / config.arrivals.rates.sum()

        first, second, first_counts = self._split_run(config, stream, w, 1200)
        # the second batch starts exactly where the first ended
        assert second.t_start_index == 1200
        assert second.carry.t_global == T
        spent = config.instance.budgets - second.remaining_final
        joined = np.concatenate([first.assigned, second.assigned])
        joined = joined[joined >= 0]
        np.testing.assert_allclose(spent, np.bincount(joined, minlength=10))
        # learning never resets: counts only grow across the boundary
        assert second.carry.counts.sum() > first_counts.sum()

    def test_split_run_reproducible(self):
        T = 2000
        config = scenario_stationary(T=T, seed=11)
        stream = sample_stationary_stream(config.arrivals.rates, T, seed=11)
        w = config.arrivals.rates / config.arrivals.rates.sum()
        a1, a2, _ = self._split_run(config, stream, w, 700)
        b1, b2, _ = self._split_run(config, stream, w, 700)
        np.testing.assert_array_equal(a1.assigned, b1.assigned)
        np.testing.assert_array_equal(a2.assigned, b2.assigned)
        np.testing.assert_array_equal(a2.purchased, b2.purchased)

    def test_one_call_equals_chained_pieces(self):
        # A run cut into chained calls (as run_nonstationary and the
        # phase-splitting benchmark tracer do) must reproduce one call bit
        # for bit when every piece gets its slice of the same uniforms and
        # the whole batch's expected count. With K = 7 many checkpoints fall
        # inside each call; with either K, the calls start between
        # checkpoints and r_max is not a multiple of K.
        T = 3000
        for k_interval in (1000, 7):
            config = scenario_stationary(T=T, seed=5)
            config = replace(config, params=replace(config.params,
                                                    k_interval=k_interval))
            assert config.params.r_max % k_interval != 0
            stream = sample_stationary_stream(config.arrivals.rates, T, seed=5)
            w = config.arrivals.rates / config.arrivals.rates.sum()
            whole = run_integrated(config, stream, w)

            learn_end = int(np.flatnonzero(whole.phase == 1)[0])
            cuts = [0, learn_end // 2 + 7, learn_end + (T - learn_end) // 2 + 3, T]
            assert whole.phase[cuts[1] - 1] == 0 and whole.phase[cuts[1]] == 0
            assert all(cut % k_interval for cut in cuts[1:-1])
            assert np.all(whole.phase[learn_end:] == 1)

            draws = SlicedDraws(substream(config.seed, "loop"), T)
            state, pieces = None, []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                piece = run_integrated(config, stream.slice(lo, hi), w,
                                       loop_state=state, rng=draws,
                                       expected_count=T)
                state = piece.carry
                pieces.append(piece)
            chained = Trace.concat(pieces)

            assert_bit_identical(chained, whole)
            assert whole.checkpoints.t.size > 0

    def test_chunk_boundaries(self):
        # The numpy twin records dual values a chunk of arrivals at a time.
        # Calls cut one before, at and one after a chunk edge, a call shorter
        # than a chunk, and a last call over several chunks must reproduce
        # one call over more than three chunks, with per-arrival phi rows.
        chunk = _kernels._DUAL_CHUNK
        T = 3 * chunk + 61
        config = scenario_stationary(T=T, seed=2)
        stream = sample_stationary_stream(config.arrivals.rates, T, seed=2)
        w = config.arrivals.rates / config.arrivals.rates.sum()
        phi = np.random.default_rng(7).random((T, w.size))
        phi /= phi.sum(axis=1, keepdims=True)

        def run(cuts):
            draws = SlicedDraws(np.random.default_rng(substream(config.seed, "loop")), T)
            state, pieces = None, []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                piece = run_integrated(config, stream.slice(lo, hi), w,
                                       loop_state=state, rng=draws,
                                       expected_count=T, phi=phi[lo:hi])
                state = piece.carry
                pieces.append(piece)
            return Trace.concat(pieces)

        whole = run([0, T])
        chained = run([0, chunk - 1, chunk, chunk + 1, chunk + 41, T])
        for name in ("assigned", "purchased", "phase", "f_vals", "lam_final",
                     "remaining_final"):
            np.testing.assert_array_equal(getattr(chained, name), getattr(whole, name))
        np.testing.assert_array_equal(chained.carry.type_rounds,
                                      whole.carry.type_rounds)
        assert np.all(np.isfinite(whole.f_vals))


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


def per_arrival_loop(lams):
    """Stands in for `_kernels.integrated_loop`: runs the numpy twin on the
    same inputs and state as one call per arrival, and appends λ after each
    arrival to `lams`. A call's first arrival always takes the full dual
    step, so here every arrival does."""

    def loop(*args, backend=None):
        (types, weights, phi, s_budget, p_true, rewards, budgets, infinite, mu,
         lam, remaining, counts, purchases, p_hat, type_rounds, learning,
         lam_max, etas, u_select, u_purchase) = args
        outs = []
        for t in range(types.size):
            one = slice(t, t + 1)
            outs.append(_kernels._integrated_numpy(
                types[one], weights, phi[one], s_budget, p_true, rewards,
                budgets, infinite, mu, lam, remaining, counts, purchases, p_hat,
                type_rounds, learning, lam_max, etas[one], u_select[one],
                u_purchase[one]))
            lams.append(lam.copy())
        return tuple(np.concatenate(column) for column in zip(*outs))

    return loop


def one_call_and_per_arrival(monkeypatch, run):
    """`run()` as the loop runs it, `run()` again with one loop call per
    arrival, and λ after each arrival of the second run."""
    whole = run()
    lams = []
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "integrated_loop", per_arrival_loop(lams))
        stepped = run()
    return whole, stepped, np.array(lams)


def assert_bit_identical(a, b):
    for name in ("assigned", "purchased", "phase", "f_vals", "lam_final",
                 "remaining_final"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for name in ("t", "pref_error", "change", "lam", "remaining"):
        np.testing.assert_array_equal(getattr(a.checkpoints, name),
                                      getattr(b.checkpoints, name))


class TestPinnedIterate:
    """While λ is +0 and no capped item's consumption exceeds its floor
    s·b_i, the dual step projects back to +0 and the numpy twin skips it and
    its full softmax. The skip is armed only by a call's own step, so the
    same run as one call per arrival steps on every arrival and is the
    bit-for-bit oracle."""

    @pytest.mark.parametrize("kind,seed", [("varying_reward", 1),
                                           ("extreme_budget", 4)])
    def test_pinned_run_matches_stepping_every_arrival(self, kind, seed,
                                                       monkeypatch):
        config = scenario_nonstationary(kind, 2000, 24.0, seed=seed)
        whole, stepped, lams = one_call_and_per_arrival(
            monkeypatch, lambda: run_nonstationary(config, backend="numpy")[0])
        assert_bit_identical(whole, stepped)
        assert np.mean(~lams.any(axis=1)) >= 0.9
        assert np.mean(~whole.checkpoints.lam.any(axis=1)) >= 0.9

    def test_iterate_leaves_zero_and_returns(self, monkeypatch):
        # Item 0 is always offered (u_select = 0). Its estimate starts low, so
        # λ stays at 0; 100 sales lift it until the floor s·b_0 = 0.3 binds
        # and λ rises; then no sales pull it back down, and λ returns to 0.
        T = 600
        config = loop_config(n=2, budgets=[0.3 * T, np.inf], p=0.5, r_max=0,
                             k_interval=10)
        u_purchase = np.where(np.arange(T) < 100, 0.0, 0.99)

        def run():
            state = hand_state(config, remaining=[1e6, np.inf],
                               p_hat=[[0.1, 0.5]], counts=[[30, 10**6]],
                               purchases=[[3, 5 * 10**5]])
            return run_arrivals(config, state, np.zeros(T, dtype=np.int64),
                                u_select=0.0, u_purchase=u_purchase,
                                backend="numpy")

        whole, stepped, lams = one_call_and_per_arrival(monkeypatch, run)
        assert_bit_identical(whole, stepped)
        moved = lams.any(axis=1)
        first, last = np.flatnonzero(moved)[[0, -1]]
        assert first >= 5 and last < T - 100
        assert moved[first:last].mean() > 0.9

    def test_negative_zero_start_takes_full_step(self, monkeypatch):
        # The budget never binds, so every arrival after the first is
        # pinned; the first steps from -0.0 and lands on +0.0.
        config = loop_config(n=3, m=2, budgets=[1e6, 1e6, np.inf], p=0.5)
        types = np.array([0, 1, 1] * 20)

        def run(lam):
            return run_arrivals(config, hand_state(config, lam=lam), types,
                                backend="numpy")

        whole, stepped, _ = one_call_and_per_arrival(
            monkeypatch, lambda: run([-0.0, -0.0, -0.0]))
        assert_bit_identical(whole, stepped)
        assert_bit_identical(whole, run([0.0, 0.0, 0.0]))
        assert not np.signbit(whole.lam_final).any()
        assert not np.signbit(whole.checkpoints.lam).any()

    def test_nan_consumption_takes_full_step(self, monkeypatch):
        # A NaN estimate row makes every item's consumption NaN, which must
        # fail the pinned test: the step makes every price NaN.
        config = loop_config(n=3, m=2, budgets=[1e6, 1e6, np.inf], p=0.5)
        types = np.zeros(30, dtype=np.int64)

        def run():
            state = hand_state(config, p_hat=[[0.5, 0.5, 0.5],
                                              [np.nan, 0.5, 0.5]])
            return run_arrivals(config, state, types, backend="numpy")

        whole, stepped, _ = one_call_and_per_arrival(monkeypatch, run)
        assert_bit_identical(whole, stepped)
        assert np.isnan(whole.lam_final).all()

    # The numpy twin defers its dual values a chunk at a time: a pinned
    # arrival writes only the history column of the estimate row it moved,
    # and the end of each chunk fills the rest from the rows above, row 0
    # carrying the state from before the chunk. The cases below run one
    # call (K > T) over several chunk edges.

    def test_pinned_call_over_several_chunks(self, monkeypatch):
        # The budgets never bind, so every arrival after the first is pinned
        # while the arrivals move estimate rows of three types.
        chunk = _kernels._DUAL_CHUNK
        T = 3 * chunk + 50
        rng = np.random.default_rng(3)
        config = loop_config(n=3, m=3, budgets=[1e6, 1e6, np.inf],
                             p=rng.uniform(0.2, 0.9, (3, 3)), r_max=0,
                             k_interval=T + 1)
        types, u_select, u_purchase = rng.integers(0, 3, T), rng.random(T), rng.random(T)
        phi = rng.random((T, 3))
        phi /= phi.sum(axis=1, keepdims=True)

        def run():
            return run_arrivals(config, hand_state(config), types,
                                u_select=u_select, u_purchase=u_purchase,
                                phi=phi, backend="numpy")

        whole, stepped, lams = one_call_and_per_arrival(monkeypatch, run)
        assert_bit_identical(whole, stepped)
        assert not lams.any()
        assert np.all(whole.assigned >= 0)

    def test_pinned_null_assignments(self, monkeypatch):
        # Every item is capped with 4 units in stock, and each floor s*b_i = 2
        # lies above any consumption, so lam stays pinned; once the 12 units
        # are gone, every arrival is a null assignment that writes nothing.
        chunk = _kernels._DUAL_CHUNK
        T = 2 * chunk + 40
        config = loop_config(n=3, m=2, budgets=2.0 * T, p=[[0.5, 0.2, 0.9],
                                                           [0.3, 0.8, 0.6]],
                             r_max=0, k_interval=T + 1)
        rng = np.random.default_rng(5)
        types, u_select = rng.integers(0, 2, T), rng.random(T)

        def run():
            state = hand_state(config, remaining=[4.0, 4.0, 4.0])
            return run_arrivals(config, state, types, u_select=u_select,
                                u_purchase=0.4,
                                backend="numpy")

        whole, stepped, lams = one_call_and_per_arrival(monkeypatch, run)
        assert_bit_identical(whole, stepped)
        assert not lams.any()
        assert np.all(whole.assigned[:12] >= 0) and np.all(whole.assigned[12:] == -1)

    def test_full_and_pinned_rows_across_chunk_edges(self, monkeypatch):
        # As in test_iterate_leaves_zero_and_returns, sales of item 0 lift lam
        # off zero and no-sales bring it back, here with two types: the first
        # three chunks each hold full and pinned rows, lam moves across the
        # first two chunk edges and is pinned across the third.
        chunk = _kernels._DUAL_CHUNK
        T = 4 * chunk
        config = loop_config(n=2, m=2, budgets=[0.3 * T, np.inf], p=0.5,
                             r_max=0, k_interval=T + 1)
        u_purchase = np.full(T, 0.99)
        u_purchase[20:220] = u_purchase[330:500] = 0.0

        def run():
            state = hand_state(config, remaining=[1e6, np.inf],
                               p_hat=[[0.1, 0.5], [0.05, 0.5]],
                               counts=[[30, 10**6], [10**6, 10**6]],
                               purchases=[[3, 5 * 10**5], [5 * 10**4, 5 * 10**5]])
            return run_arrivals(config, state, np.arange(T) % 2, u_select=0.0,
                                u_purchase=u_purchase, backend="numpy")

        whole, stepped, lams = one_call_and_per_arrival(monkeypatch, run)
        assert_bit_identical(whole, stepped)
        moved = lams.any(axis=1)
        for c in range(3):
            assert 0 < moved[c * chunk:(c + 1) * chunk].mean() < 1
        assert moved[[chunk - 1, chunk, 2 * chunk - 1, 2 * chunk]].all()
        assert not moved[[3 * chunk - 1, 3 * chunk]].any()


class TestTraceExport:
    def test_trace_csv_layout(self, tmp_path):
        config = loop_config(budgets=1e9, r_max=5)
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

    def test_trace_csv_bytes(self, tmp_path):
        # one full block plus four rows, null items, an offset start index
        # and times that take all nine significant digits (and an exponent)
        T = 4100
        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0.0, 1000.0, T))
        times[0] = 3.14159265358979e-7
        assigned = rng.integers(-1, 3, T)
        trace = Trace(
            times=times, types=rng.integers(0, 4, T), assigned=assigned,
            purchased=(assigned >= 0) & (rng.random(T) < 0.5),
            phase=rng.integers(0, 3, T).astype(np.uint8), f_vals=np.zeros(T),
            segment=np.zeros(T, dtype=np.int32), seed=0, t_start_index=7,
            checkpoints=CheckpointLog.empty(3), lam_final=np.zeros(3),
            remaining_final=np.zeros(3), carry=LoopState.fresh(3, 4, np.ones(3)),
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        rows = "".join(
            f"{t},{time:.9g},{j},{'' if item < 0 else item},{bought:d},"
            f"{PHASE_NAMES[phase]}\n"
            for t, time, j, item, bought, phase in zip(
                range(8, 8 + T), times.tolist(), trace.types.tolist(),
                assigned.tolist(), trace.purchased.tolist(), trace.phase.tolist())
        )
        assert path.read_text() == "t,time,type,item,purchased,phase\n" + rows
        assert any(len(f"{t:.9g}".replace(".", "")) == 9 for t in times.tolist())
        assert (assigned < 0).any()
