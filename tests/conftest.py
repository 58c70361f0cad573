"""Shared fixtures: cached experiment runs and small instance builders.

The acceptance module reuses full-scale runs across several criteria, so
those are memoized at session scope rather than re-simulated per test.

`loop_config`, `hand_state` and `run_arrivals` drive the integrated loop
over one or a few arrivals from a hand-set LoopState with fixed uniforms,
so unit tests of the UCB rule, the estimate update, the selection draw and
the dual step check the step that runs.
"""

import functools
import sys

import numpy as np
import pytest

from allocsim import (
    AlgoParams,
    ArrivalSequence,
    LoopState,
    ProblemInstance,
    SimConfig,
    StationaryArrivals,
    run_integrated,
    scenario_nonstationary,
    scenario_stationary,
    validate_instance,
)
from allocsim.harness import run_experiment


@pytest.fixture(scope="session")
def stationary_report():
    """Memoized run_experiment over the stationary benchmark scenario."""

    @functools.lru_cache(maxsize=None)
    def _run(T: int, seed: int):
        return run_experiment(scenario_stationary(T, seed), "stationary")

    return _run


@pytest.fixture(scope="session")
def nonstationary_report():
    """Memoized run_experiment over the non-stationary scenarios."""

    @functools.lru_cache(maxsize=None)
    def _run(kind: str, T: int, hours: float, seed: int):
        config = scenario_nonstationary(kind, T, hours, seed)
        return run_experiment(config, "nonstationary")

    return _run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num, name, ok, detail in sorted(mod.RESULTS):
        flag = "PASS" if ok else "FAIL"
        tw.write_line(f"criterion {num:>2}  {name:<38} {flag}  {detail}")


def loop_config(n=1, m=1, *, rewards=None, budgets=np.inf, p=1.0, mu=0.1,
                r_max=10**9, seed=0, **params):
    """Small instance for loop tests: every preference `p` unless an (m, n)
    matrix is given. The default r_max keeps the loop learning until its
    first checkpoint; r_max=0 starts it pricing."""
    rewards = np.ones(n) if rewards is None else np.asarray(rewards, dtype=float)
    inst = validate_instance(ProblemInstance(
        rewards=rewards,
        budgets=np.broadcast_to(np.asarray(budgets, dtype=float), (n,)).copy(),
        mu=mu,
        preferences=np.broadcast_to(np.asarray(p, dtype=float), (m, n)).copy(),
        horizon=1000,
    ))
    return SimConfig(instance=inst, arrivals=StationaryArrivals(np.ones(m)),
                     seed=seed, params=AlgoParams(r_max=r_max, **params))


def hand_state(config, **fields):
    """A fresh LoopState for `config` with the given fields overwritten."""
    inst = config.instance
    state = LoopState.fresh(inst.rewards.size, inst.preferences.shape[0],
                            inst.budgets)
    for name, value in fields.items():
        current = getattr(state, name)
        if isinstance(current, np.ndarray):
            value = np.array(value, dtype=current.dtype)
        setattr(state, name, value)
    return state


class FixedDraws:
    """Stands in for the loop generator: hands `run_integrated` the given
    selection uniforms, then the given purchase uniforms."""

    def __init__(self, u_select, u_purchase):
        self._draws = [u_select, u_purchase]

    def random(self, size):
        out = self._draws.pop(0)
        assert out.size == size
        return out


def run_arrivals(config, state, types, *, u_select=0.5, u_purchase=0.5,
                 weights=None, phi=None, expected_count=None, backend=None):
    """Run `types` through the integrated loop from `state` (mutated in
    place) with fixed uniforms; weights default to the uniform type mix."""
    types = np.asarray(types, dtype=np.int64)
    T = types.size
    m = config.instance.preferences.shape[0]
    stream = ArrivalSequence(times=np.arange(1.0, T + 1.0), types=types,
                             seed=config.seed)
    draws = FixedDraws(
        np.broadcast_to(np.asarray(u_select, dtype=float), (T,)).copy(),
        np.broadcast_to(np.asarray(u_purchase, dtype=float), (T,)).copy(),
    )
    weights = np.full(m, 1.0 / m) if weights is None else weights
    return run_integrated(config, stream, weights, loop_state=state, rng=draws,
                          expected_count=expected_count, phi=phi, backend=backend)


def random_dual_spec(rng: np.random.Generator, n=None, m=None, all_finite=True):
    """Small random weighted-dual problem for oracle comparisons."""
    from allocsim import WeightedDualSpec

    n = int(rng.integers(1, 11)) if n is None else n
    m = int(rng.integers(1, 11)) if m is None else m
    budgets = rng.uniform(0.1, 2.0, size=n)
    if not all_finite and n > 1 and rng.random() < 0.5:
        budgets[rng.integers(n)] = np.inf
    weights = rng.uniform(0.1, 1.0, size=m)
    return WeightedDualSpec(
        weights=weights / weights.sum(),
        budget_scale=float(rng.uniform(0.05, 1.0)),
        preferences=rng.uniform(0.05, 1.0, size=(m, n)),
        rewards=rng.uniform(0.1, 1.0, size=n),
        budgets=budgets,
        mu=float(rng.uniform(0.05, 1.0)),
    )
