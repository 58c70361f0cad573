"""Weighted dual objective, gradient, primal recovery, and the offline solver.

Oracles here are deliberately independent of the implementation: central
finite differences for the gradient and a dense grid scan for the 2x2
minimizer, both computed from scratch in this file. The value the online
loop records per arrival is checked, through one-arrival runs, against
`dual_objective` and against a hand evaluation.
"""

import dataclasses

import numpy as np
import pytest

from allocsim import (
    WeightedDualSpec,
    dual_gradient,
    dual_objective,
    recover_primal,
    solve_offline,
    step_sizes,
)
from allocsim.errors import DegenerateRow, DimensionMismatch
from conftest import hand_state, loop_config, random_dual_spec, run_arrivals


def one_cell_spec(mu=1.0, budget=1.0):
    return WeightedDualSpec(
        weights=np.array([1.0]),
        budget_scale=1.0,
        preferences=np.array([[1.0]]),
        rewards=np.array([1.0]),
        budgets=np.array([budget]),
        mu=mu,
    )


def fd_gradient(spec, lam, h=1e-6):
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    for i in range(lam.size):
        up, dn = lam.copy(), lam.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (dual_objective(spec, up) - dual_objective(spec, dn)) / (2 * h)
    return out


class TestObjective:
    def test_single_cell_at_zero(self):
        assert dual_objective(one_cell_spec(), np.array([0.0])) == pytest.approx(1.0)

    def test_single_cell_at_one(self):
        # log Z collapses to 0 and the budget term contributes the 1
        assert dual_objective(one_cell_spec(), np.array([1.0])) == pytest.approx(1.0)

    def test_two_identical_items_zero_budget(self):
        spec = WeightedDualSpec(
            weights=np.array([1.0]),
            budget_scale=1.0,
            preferences=np.array([[1.0, 1.0]]),
            rewards=np.array([1.0, 1.0]),
            budgets=np.array([0.0, 0.0]),
            mu=1.0,
        )
        value = dual_objective(spec, np.zeros(2))
        assert value == pytest.approx(np.log(2.0 * np.e), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dual_objective(one_cell_spec(), np.zeros(3))

    def test_infinite_budget_item_excluded_from_price_term(self):
        spec = WeightedDualSpec(
            weights=np.array([1.0]),
            budget_scale=1.0,
            preferences=np.array([[0.6, 0.8]]),
            rewards=np.array([0.5, 1.0]),
            budgets=np.array([np.inf, 1.0]),
            mu=0.3,
        )
        base = dual_objective(spec, np.array([0.0, 0.2]))
        assert np.isfinite(base)
        # raising the uncapped item's price changes log Z but adds no inf
        moved = dual_objective(spec, np.array([0.4, 0.2]))
        assert np.isfinite(moved)

    def test_convex_along_random_chords(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            spec = random_dual_spec(rng)
            hi = spec.rewards.max()
            a = rng.uniform(0.0, hi, size=spec.n)
            b = rng.uniform(0.0, hi, size=spec.n)
            mid = 0.5 * (a + b)
            lhs = dual_objective(spec, mid)
            rhs = 0.5 * (dual_objective(spec, a) + dual_objective(spec, b))
            assert lhs <= rhs + 1e-9

    def test_log_z_bounded_on_box(self):
        # log Z_j <= log n + r*/mu whenever every price is nonnegative
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = random_dual_spec(rng)
            lam = rng.uniform(0.0, spec.rewards.max(), size=spec.n)
            expo = (spec.rewards - lam)[None, :] * spec.preferences
            expo = expo / (spec.p_bar[:, None] * spec.mu)
            log_z = np.log(np.exp(expo - expo.max(axis=1, keepdims=True)).sum(axis=1))
            log_z += expo.max(axis=1)
            cap = np.log(spec.n) + spec.rewards.max() / spec.mu
            assert np.all(log_z <= cap + 1e-9)


class TestGradient:
    def test_single_cell_balances(self):
        grad = dual_gradient(one_cell_spec(), np.array([0.0]))
        np.testing.assert_allclose(grad, [0.0], atol=1e-12)

    def test_symmetric_pair(self):
        spec = WeightedDualSpec(
            weights=np.array([1.0]),
            budget_scale=1.0,
            preferences=np.array([[1.0, 1.0]]),
            rewards=np.array([1.0, 1.0]),
            budgets=np.array([1.0, 1.0]),
            mu=1.0,
        )
        np.testing.assert_allclose(
            dual_gradient(spec, np.zeros(2)), [0.5, 0.5], atol=1e-12
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            spec = random_dual_spec(rng)
            lam = rng.uniform(0.0, spec.rewards.max(), size=spec.n)
            analytic = dual_gradient(spec, lam)
            numeric = fd_gradient(spec, lam)
            scale = max(1.0, float(np.abs(numeric).max()))
            assert np.abs(analytic - numeric).max() / scale <= 1e-5

    def test_infinite_budget_coordinate_pinned(self):
        spec = WeightedDualSpec(
            weights=np.array([0.4, 0.6]),
            budget_scale=0.5,
            preferences=np.array([[0.3, 0.9], [0.7, 0.2]]),
            rewards=np.array([0.8, 1.0]),
            budgets=np.array([np.inf, 2.0]),
            mu=0.2,
        )
        grad = dual_gradient(spec, np.array([0.0, 0.3]))
        assert grad[0] == 0.0
        assert np.isfinite(grad[1])


class TestRecoverPrimal:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            spec = random_dual_spec(rng)
            lam = rng.uniform(0.0, spec.rewards.max(), size=spec.n)
            x = recover_primal(spec.preferences, spec.rewards, spec.mu, lam)
            np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(x > 0.0)

    def test_symmetry_gives_uniform(self):
        P = np.full((3, 4), 0.6)
        r = np.full(4, 0.9)
        x = recover_primal(P, r, 0.5, np.zeros(4))
        np.testing.assert_allclose(x, 0.25, atol=1e-12)

    def test_reward_gap_example(self):
        x = recover_primal(
            np.array([[1.0, 1.0]]), np.array([1.0, 0.0]), 1.0, np.zeros(2)
        )
        e = np.e
        np.testing.assert_allclose(
            x[0], [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-9
        )

    def test_zero_row_is_degenerate(self):
        P = np.array([[0.5, 0.2], [0.0, 0.0]])
        with pytest.raises(DegenerateRow):
            recover_primal(P, np.ones(2), 0.5, np.zeros(2))
        with pytest.raises(DegenerateRow):
            WeightedDualSpec(weights=np.array([0.5, 0.5]), budget_scale=1.0,
                             preferences=P, rewards=np.ones(2),
                             budgets=np.ones(2), mu=0.5)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedDualSpec(weights=np.array([np.nan, 0.5]), budget_scale=1.0,
                             preferences=np.full((2, 2), 0.5), rewards=np.ones(2),
                             budgets=np.ones(2), mu=0.5)

    def test_price_equal_to_reward_gives_uniform(self):
        r = np.array([0.4, 0.7, 1.0])
        x = recover_primal(np.array([[0.5, 0.5, 0.5]]), r, 0.3, r.copy())
        np.testing.assert_allclose(x[0], 1.0 / 3.0, atol=1e-12)


class TestPerCustomerDual:
    def test_empty_prefix(self):
        # one arrival of the only type at unit budget scale records the
        # per-customer dual mu P̄ log Z + <λ, b>; the sure sale leaves a
        # zero gradient, so λ stays 0 and the value is log e = 1
        config = loop_config(n=1, budgets=1.0, mu=1.0)
        trace = run_arrivals(config, hand_state(config), [0], expected_count=1)
        assert trace.lam_final[0] == 0.0
        assert trace.f_vals[0] == pytest.approx(1.0, abs=1e-15)


class TestNonstationaryObjective:
    """The loop records, per arrival, the weighted dual at its post-step
    iterate and estimate, with that arrival's type-probability row φ as the
    weights and 1/T as the budget scale."""

    def test_reduces_to_weighted_dual(self):
        rng = np.random.default_rng(12)
        config = loop_config(n=4, m=3, budgets=[30.0, np.inf, 12.0, 45.0],
                             rewards=rng.uniform(0.1, 1.0, size=4),
                             p=rng.uniform(0.05, 1.0, size=(3, 4)), r_max=2)
        inst = config.instance
        horizon = 50
        state = hand_state(config)
        for j in (0, 2, 1, 2):
            phi = rng.dirichlet(np.ones(3))
            trace = run_arrivals(config, state, [j], u_select=rng.random(),
                                 u_purchase=rng.random(), phi=phi[None, :],
                                 expected_count=horizon)
            ref = WeightedDualSpec(
                weights=phi, budget_scale=1.0 / horizon,
                preferences=state.p_hat, rewards=inst.rewards,
                budgets=inst.budgets, mu=inst.mu,
            )
            assert trace.f_vals[0] == pytest.approx(
                dual_objective(ref, state.lam), rel=1e-12)

    def test_single_type_weight_is_trivial(self):
        # φ on type 1 alone: the value is type 1's row, evaluated by hand
        config = loop_config(n=2, m=2, rewards=[1.0, 0.6], budgets=[4.0, 2.0],
                             mu=0.5, p=0.5)
        state = hand_state(config, p_hat=[[0.5, 0.5], [0.8, 0.4]])
        trace = run_arrivals(config, state, [0], phi=np.array([[0.0, 1.0]]),
                             expected_count=10)
        lam = state.lam
        row = np.array([0.8, 0.4])
        log_z = np.log(np.exp((np.array([1.0, 0.6]) - lam) * row / (0.8 * 0.5)).sum())
        expected = 0.5 * 0.8 * log_z + 0.1 * (lam @ np.array([4.0, 2.0]))
        assert trace.f_vals[0] == pytest.approx(expected, rel=1e-12)

    def test_mix_perturbation_bound(self):
        # |f(phi) - f(w)| <= m * (mu log n + r*) * max|phi - w|
        rng = np.random.default_rng(31)
        for _ in range(20):
            spec = random_dual_spec(rng)
            lam = rng.uniform(0.0, spec.rewards.max(), size=spec.n)
            w = spec.weights
            phi = w + rng.uniform(-0.05, 0.05, size=spec.m)
            phi = np.clip(phi, 1e-3, None)
            fw, fp = (
                dual_objective(WeightedDualSpec(
                    weights=mix, budget_scale=1.0 / 100,
                    preferences=spec.preferences, rewards=spec.rewards,
                    budgets=spec.budgets, mu=spec.mu,
                ), lam)
                for mix in (w, phi)
            )
            bound = (
                spec.m
                * (spec.mu * np.log(spec.n) + spec.rewards.max())
                * float(np.abs(phi - w).max())
            )
            assert abs(fp - fw) <= bound + 1e-9


def grid_minimum_2x2(spec, box, step=0.01):
    """Dense scan oracle, vectorized from scratch for the n=2 case.

    The box's upper edge is appended explicitly: constrained minima sit
    there whenever the unregularized price would exceed the cap, and a
    half-open arange would miss them by up to one step.
    """
    axis = np.unique(np.append(np.arange(0.0, box, step), box))
    L1, L2 = np.meshgrid(axis, axis, indexing="ij")
    lam = np.stack([L1.ravel(), L2.ravel()], axis=1)                # (G, 2)
    expo = (spec.rewards[None, None, :] - lam[:, None, :]) * spec.preferences[None, :, :]
    expo /= spec.p_bar[None, :, None] * spec.mu
    peak = expo.max(axis=2, keepdims=True)
    log_z = np.log(np.exp(expo - peak).sum(axis=2)) + peak[:, :, 0]  # (G, m)
    mix = spec.mu * (log_z * (spec.weights * spec.p_bar)[None, :]).sum(axis=1)
    values = mix + spec.budget_scale * lam @ spec.budgets
    k = int(np.argmin(values))
    return float(values[k]), lam[k]


class TestSolveOffline:
    def test_flat_single_cell(self):
        sol = solve_offline(one_cell_spec())
        assert sol.value == pytest.approx(1.0)
        assert sol.converged

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            spec = random_dual_spec(rng, n=2, m=2)
            box = float(spec.rewards.max())
            sol = solve_offline(spec, box_upper=box)
            oracle, _ = grid_minimum_2x2(spec, box)
            assert sol.value <= oracle + 1e-9
            assert abs(sol.value - oracle) <= 1e-3

    def test_tighter_tolerance_never_worse(self):
        rng = np.random.default_rng(17)
        spec = random_dual_spec(rng, n=5, m=4)
        loose = solve_offline(spec, tol=1e-4)
        tight = solve_offline(spec, tol=1e-10)
        assert tight.value <= loose.value + 1e-12

    def test_iterate_stays_in_box(self):
        rng = np.random.default_rng(23)
        spec = random_dual_spec(rng)
        box = float(spec.rewards.max())
        sol = solve_offline(spec, box_upper=box)
        assert np.all(sol.lam >= 0.0)
        assert np.all(sol.lam <= box + 1e-12)
        assert np.all(sol.lam[spec.infinite] == 0.0)

    def test_iteration_log(self):
        # the value after k iterations never rises with k: descent never
        # backtracks. At budget scale 0.2 the budgets bind, so the solve
        # takes dozens of iterations instead of stopping at Λ = 0.
        rng = np.random.default_rng(3)
        spec = dataclasses.replace(random_dual_spec(rng, n=4, m=4), budget_scale=0.2)
        full = solve_offline(spec)
        values = np.array([solve_offline(spec, max_iter=k).value
                           for k in range(1, full.iterations + 1)])
        assert values.size >= 10
        assert values[-1] == full.value
        assert np.all(np.diff(values) <= 1e-12)


class TestDualState:
    """The loop's dual step sizes, from `step_sizes`."""

    def test_fixed_step_size(self):
        etas = step_sizes(3, n=4, box_upper=1.0, grad_bound=2.0, horizon=400)
        # D = box * sqrt(n) = 2, eta = D / (G sqrt(T)) = 2 / (2 * 20)
        assert etas[0] == pytest.approx(0.05)
        np.testing.assert_allclose(etas, 0.05)

    def test_decay_schedule_continues_across_batches(self):
        sizes = dict(n=1, box_upper=1.0, grad_bound=1.0, horizon=100,
                     step_rule="decay")
        first = step_sizes(5, **sizes)
        second = step_sizes(5, offset=5, **sizes)
        np.testing.assert_allclose(first, 1.0 / np.sqrt(np.arange(1, 6)))
        np.testing.assert_allclose(second, 1.0 / np.sqrt(np.arange(6, 11)))

    def test_rejects_bad_rule(self):
        with pytest.raises(ValueError):
            step_sizes(1, n=1, box_upper=1.0, grad_bound=1.0, horizon=10,
                       step_rule="linear")
