"""Per-type confidence-bound learner, checked on the integrated loop's step.

Each test hand-sets a LoopState and runs one or a few arrivals through
`run_integrated`, so the UCB score and tie rules, the sold-out rule, the
R/N update and the checkpoint movement are those of the code that runs.
The loop ticks a type's round clock before scoring, so a state holding
`type_rounds = t - 1` scores at per-type round t.
"""

import numpy as np
import pytest

from allocsim import UNVISITED_PRIOR, ArrivalSequence, run_integrated, write_checkpoint_csv
from conftest import hand_state, loop_config, run_arrivals


def learner(config, counts, purchases, rounds=None, **fields):
    """State with the given visit and purchase tables, p̂ = R/N on visited
    cells and the prior elsewhere; `rounds` defaults to the visits so far."""
    counts = np.asarray(counts, dtype=np.int64)
    purchases = np.asarray(purchases, dtype=np.int64)
    p_hat = np.where(counts > 0, purchases / np.maximum(counts, 1), UNVISITED_PRIOR)
    rounds = counts.sum(axis=1) if rounds is None else rounds
    return hand_state(config, counts=counts, purchases=purchases, p_hat=p_hat,
                      type_rounds=rounds, **fields)


def ucb_pick(config, state, j=0):
    return int(run_arrivals(config, state, [j]).assigned[0])


class TestScores:
    def test_unvisited_scores_infinite(self):
        # a sure seller with the largest bonus still loses to an unvisited item
        config = loop_config(n=3)
        state = learner(config, [[1, 1, 0]], [[1, 1, 0]])
        assert ucb_pick(config, state) == 2

    def test_bonus_formula(self):
        # item 0: N=150, R=30 at per-type round 100 scores
        # 0.2 + sqrt(3 ln 100 / 300); item 1's N=1e9 leaves it a bonus of
        # 8e-5, so it wins exactly when its estimate clears item 0's score
        # minus that bonus
        score = 0.2 + np.sqrt(3.0 * np.log(100.0) / 300.0)
        assert score == pytest.approx(0.414596, abs=1e-6)
        edge = score - np.sqrt(3.0 * np.log(100.0) / 2e9)
        picks = []
        for p1 in (edge - 1e-9, edge + 1e-9, 0.4145, 0.4147):
            config = loop_config(n=2)
            state = learner(config, [[150, 10**9]], [[30, 0]], rounds=[99])
            state.p_hat[0, 1] = p1
            picks.append(ucb_pick(config, state))
        assert picks == [0, 1, 0, 1]

    def test_first_round_has_no_bonus(self):
        # at a type's first round ln t_j = 0, so a single-visit item (the
        # largest bonus) loses to a barely better estimate; one round later
        # its bonus of sqrt(1.5 ln 2) wins
        picks = []
        for rounds in (0, 1):
            config = loop_config(n=2)
            state = learner(config, [[1, 10**6]], [[0, 0]], rounds=[rounds])
            state.p_hat[0] = [0.4, 0.4 + 1e-12]
            picks.append(ucb_pick(config, state))
        assert picks == [1, 0]

    def test_round_clock_defaults_to_tracked_value(self):
        # the clock is the type's own arrival count: three arrivals of
        # type 1 leave type 0 scoring at round 100, where item 1's estimate
        # sits above item 0's score (0.414596); at round 103 item 0 would
        # score 0.415284 and win
        config = loop_config(n=2, m=2)
        state = learner(config, [[150, 10**9], [0, 0]], [[30, 0], [0, 0]],
                        rounds=[99, 0])
        state.p_hat[0, 1] = 0.41494
        trace = run_arrivals(config, state, [1, 1, 1, 0])
        assert trace.assigned[3] == 1
        np.testing.assert_array_equal(state.type_rounds, [100, 3])


class TestSelect:
    def test_unvisited_wins(self):
        config = loop_config(n=2)
        assert ucb_pick(config, learner(config, [[0, 5]], [[0, 5]])) == 0

    def test_ties_break_low(self):
        config = loop_config(n=3)
        assert ucb_pick(config, learner(config, [[10, 10, 10]], [[4, 4, 4]])) == 0

    def test_availability_mask(self):
        # an item is sold out once less than one unit remains
        config = loop_config(n=3, budgets=5.0)
        state = hand_state(config, remaining=[0.5, 0.0, 5.0])
        assert ucb_pick(config, state) == 2

    def test_nothing_available(self):
        # with everything sold out the arrival gets the null and the
        # estimate is left as it was
        config = loop_config(n=2, budgets=5.0)
        state = learner(config, [[3, 0]], [[1, 0]], remaining=[0.9, 0.0])
        trace = run_arrivals(config, state, [0], u_purchase=0.0)
        assert trace.assigned[0] == -1
        assert not trace.purchased[0]
        np.testing.assert_array_equal(state.counts, [[3, 0]])
        np.testing.assert_array_equal(state.purchases, [[1, 0]])
        np.testing.assert_array_equal(state.p_hat, [[1.0 / 3.0, UNVISITED_PRIOR]])

    def test_shift_invariance(self):
        # adding a constant to every visited estimate can't change the argmax
        rng = np.random.default_rng(3)
        config = loop_config(n=6)
        for _ in range(100):
            counts = rng.integers(1, 50, size=(1, 6))
            purchases = (counts * rng.random((1, 6))).astype(np.int64)
            rounds = [int(counts.sum()) - 1]
            base = ucb_pick(config, learner(config, counts, purchases, rounds))
            shifted = learner(config, counts, purchases, rounds)
            shifted.p_hat[0] += 0.37
            assert ucb_pick(config, shifted) == base


class TestUpdate:
    def test_first_sale(self):
        config = loop_config(n=1)
        state = hand_state(config)
        run_arrivals(config, state, [0], u_purchase=0.5)
        assert state.p_hat[0, 0] == 1.0
        assert state.counts[0, 0] == 1
        assert state.purchases[0, 0] == 1

    def test_miss_dilutes_rate(self):
        config = loop_config(n=1, p=0.5)
        state = learner(config, [[3]], [[1]])
        trace = run_arrivals(config, state, [0], u_purchase=0.9)
        assert not trace.purchased[0]
        assert state.p_hat[0, 0] == pytest.approx(0.25)

    def test_bernoulli_concentration(self):
        n = 10_000
        config = loop_config(n=1, p=0.3, seed=77)
        stream = ArrivalSequence(times=np.arange(1.0, n + 1.0),
                                 types=np.zeros(n, dtype=np.int64), seed=77)
        trace = run_integrated(config, stream, np.array([1.0]))
        est = trace.carry
        assert est.purchases[0, 0] == trace.purchased.sum()
        assert est.p_hat[0, 0] == est.purchases[0, 0] / n
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs(est.p_hat[0, 0] - 0.3) <= 4.0 * sigma

    def test_invariants_under_random_updates(self):
        # learning then pricing over random truths; type 2 never arrives
        rng = np.random.default_rng(8)
        T = 2000
        config = loop_config(n=4, m=3, p=rng.uniform(0.05, 1.0, size=(3, 4)),
                             r_max=1000, seed=8)
        types = rng.integers(2, size=T)
        stream = ArrivalSequence(times=np.arange(1.0, T + 1.0), types=types, seed=8)
        trace = run_integrated(config, stream, np.full(3, 1.0 / 3.0))
        est = trace.carry
        assert set(trace.phase.tolist()) == {0, 1}
        # one visit per assignment, one purchase per sale, p̂ = R/N
        cell = trace.types * 4 + trace.assigned
        np.testing.assert_array_equal(
            est.counts.ravel(), np.bincount(cell, minlength=12))
        np.testing.assert_array_equal(
            est.purchases.ravel(), np.bincount(cell[trace.purchased], minlength=12))
        assert np.all(est.purchases <= est.counts)
        seen = est.counts > 0
        np.testing.assert_array_equal(
            est.p_hat[seen], est.purchases[seen] / est.counts[seen])
        assert np.all(est.p_hat[~seen] == UNVISITED_PRIOR)  # untouched prior
        assert not seen[2].any()

    def test_balanced_offering_concentrates_everywhere(self):
        # Equal rewards, uncapped stock and a large mu make the pricing
        # draw nearly uniform (weights within 1%), so every item is offered
        # about equally often; all estimates should land within 0.05 of
        # truth after 10k rounds (about 4 sigma per cell) on every seed.
        n, T = 8, 10_000
        for seed in range(1, 6):
            truth = np.random.default_rng(seed).beta(2.0, 5.0, size=(1, n))
            config = loop_config(n=n, p=truth, mu=100.0, r_max=0, seed=seed)
            stream = ArrivalSequence(times=np.arange(1.0, T + 1.0),
                                     types=np.zeros(T, dtype=np.int64), seed=seed)
            est = run_integrated(config, stream, np.array([1.0])).carry
            assert est.counts.min() > 0.9 * T / n
            assert float(np.abs(est.p_hat[0] - truth[0]).max()) <= 0.05


class TestChange:
    """The guard checkpoint's movement ‖P̂ − P̂_prev‖_F, on an arrival that
    leaves a sure-seller estimate of all ones where it is."""

    def movement(self, prev):
        config = loop_config(n=2, m=2, r_max=0)
        ones = np.ones((2, 2), dtype=np.int64)
        k = config.params.k_interval
        state = hand_state(config, counts=ones, purchases=ones, p_hat=np.ones((2, 2)),
                           prev_checkpoint=prev, t_global=k - 1)
        trace = run_arrivals(config, state, [0])
        assert trace.checkpoints.t.tolist() == [k]
        assert state.last_change == trace.checkpoints.change[0]
        np.testing.assert_array_equal(state.prev_checkpoint, 1.0)
        return trace.checkpoints.change[0]

    def test_identical_matrices(self):
        assert self.movement(np.ones((2, 2))) == 0.0

    def test_single_entry(self):
        prev = np.ones((2, 2))
        prev[0, 1] = 0.7
        assert self.movement(prev) == pytest.approx(0.3)

    def test_two_entries(self):
        prev = np.ones((2, 2))
        prev[0, 0] = 0.7
        prev[1, 1] = 0.6
        assert self.movement(prev) == pytest.approx(0.5)


def test_checkpoint_csv(tmp_path):
    path = tmp_path / "learning.csv"
    write_checkpoint_csv(np.array([1000, 2000]), np.array([0.8, 0.5]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "checkpoint,frobenius_to_truth"
    assert lines[1] == "1000,0.8"
    assert lines[2] == "2000,0.5"
