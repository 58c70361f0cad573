"""Instance validation, config file round-trips, scenario builders, and the
rate functions' piece lookup."""

import json

import numpy as np
import pytest

from allocsim import (
    AlgoParams,
    NonstationaryArrivals,
    ProblemInstance,
    RateFunction,
    RatePiece,
    StationaryArrivals,
    config_from_document,
    config_hash,
    default_ucb_rounds,
    save_config,
    scenario_nonstationary,
    scenario_stationary,
    substream,
    type_probability_matrix,
)
from allocsim.errors import InvalidInstance, ParseError
from allocsim import model
from allocsim.cli import main
from allocsim.model import RateStack, config_document


def minimal_doc(**overrides):
    doc = {
        "instance": {
            "n": 1,
            "m": 1,
            "T": 100,
            "rewards": [1.0],
            "budgets": [{"value": 1.0}],
            "preferences": [[0.5]],
        },
        "arrivals": {"stationary": {"rates": [1.0]}},
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def hand_written_config():
    """A config not made by a scenario builder: a preference matrix, a finite
    and an infinite budget, a non-default K and lambda_max null."""
    return config_from_document({
        "instance": {
            "n": 2, "m": 1, "T": 100, "rewards": [1.0, 0.5],
            "budgets": [{"value": 10.0}, {"infinite": True}],
            "preferences": [[0.5, 0.2]],
        },
        "arrivals": {"stationary": {"rates": [1.0]}},
        "seed": 7,
        "params": {"K": 50, "lambda_max": None},
    })


def document_objects(doc):
    """(key table, object) for every object in a config document."""
    inst, arrivals = doc["instance"], doc["arrivals"]
    yield model._ROOT, doc
    yield model._INSTANCE, inst
    for budget in inst["budgets"]:
        yield model._BUDGET, budget
    if isinstance(inst["preferences"], dict):
        yield model._GENERATOR, inst["preferences"]
    yield model._ARRIVALS, arrivals
    if "stationary" in arrivals:
        yield model._STATIONARY, arrivals["stationary"]
    else:
        yield model._NONSTATIONARY, arrivals["nonstationary"]
        for pieces in arrivals["nonstationary"]["rate_fns"]:
            for piece in pieces:
                yield model._PIECE, piece
    yield model._PARAMS, doc["params"]


class TestValidateInstance:
    def test_accepts_single_cell(self):
        inst = ProblemInstance(
            rewards=np.array([1.0]),
            budgets=np.array([1.0]),
            mu=1.0,
            preferences=np.array([[0.5]]),
            horizon=10,
        )
        assert inst.r_star == 1.0
        assert inst.infinite_items.tolist() == [False]

    def test_rejects_preference_above_one(self):
        with pytest.raises(InvalidInstance, match=r"preference entries must lie in \[0, 1\]"):
            ProblemInstance(
                rewards=np.array([1.0]),
                budgets=np.array([1.0]),
                mu=1.0,
                preferences=np.array([[1.2]]),
                horizon=10,
            )

    def test_rejects_zero_mu(self):
        with pytest.raises(InvalidInstance, match="mu must be positive and finite, got 0.0"):
            ProblemInstance(
                rewards=np.array([1.0]),
                budgets=np.array([1.0]),
                mu=0.0,
                preferences=np.array([[0.5]]),
                horizon=10,
            )

    @pytest.mark.parametrize("field, value, message", [
        ("rewards", [np.nan], "rewards must be finite"),
        ("rewards", [np.inf], "rewards must be finite"),
        ("budgets", [np.nan], "budgets must be nonnegative"),
        ("budgets", [-np.inf], "budgets must be nonnegative"),
        ("preferences", [[np.nan]], "preference entries"),
        ("mu", np.inf, "mu must be positive and finite"),
    ], ids=["reward-nan", "reward-inf", "budget-nan", "budget-minus-inf",
            "preference-nan", "mu-inf"])
    def test_rejects_non_finite(self, field, value, message):
        fields = dict(rewards=[1.0], budgets=[1.0], mu=1.0,
                      preferences=[[0.5]], horizon=10)
        fields[field] = value
        with pytest.raises(InvalidInstance, match=message):
            ProblemInstance(**fields)

    def test_violations_list_every_failure(self):
        # the first violation is the message; the list holds all of them
        with pytest.raises(InvalidInstance, match=r"^preference entries") as caught:
            ProblemInstance(rewards=[0.0, 1.0], budgets=[-1.0, 1.0], mu=0.0,
                            preferences=[[1.5, 0.5]], horizon=0)
        assert caught.value.violations == [
            "preference entries must lie in [0, 1]",
            "rewards must be finite and strictly positive",
            "budgets must be nonnegative",
            "mu must be positive and finite, got 0.0",
            "horizon must be >= 1, got 0",
        ]

    def test_infinite_budget_is_uncapped(self):
        inst = ProblemInstance(
            rewards=[1.0], budgets=[np.inf], mu=1.0, preferences=[[0.5]], horizon=10)
        assert inst.infinite_items.tolist() == [True]

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_stationary_rates_must_be_finite(self, rate):
        with pytest.raises(InvalidInstance):
            StationaryArrivals(np.array([1.0, rate]))


class TestConfigIO:
    def test_defaults_filled(self):
        config = config_from_document(minimal_doc())
        assert config.instance.mu == 0.1
        assert config.params.k_interval == 1000
        assert config.params.grid_dt == 0.001

    def test_missing_seed_is_named(self):
        doc = minimal_doc()
        del doc["seed"]
        with pytest.raises(ParseError, match="seed"):
            config_from_document(doc)

    def test_round_trip(self, tmp_path):
        config = scenario_stationary(T=500, seed=3)
        path = tmp_path / "cfg.json"
        save_config(config, path)
        again = config_from_document(json.loads(path.read_text()))
        assert config_document(again) == config_document(config)
        assert config_hash(again) == config_hash(config)
        np.testing.assert_array_equal(again.instance.preferences,
                                      config.instance.preferences)
        save_config(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_nonstationary_round_trip(self, tmp_path):
        config = scenario_nonstationary("varying_reward", 2000, 12.0, seed=5)
        path = tmp_path / "cfg.json"
        save_config(config, path)
        again = config_from_document(json.loads(path.read_text()))
        assert config_document(again) == config_document(config)
        np.testing.assert_array_equal(again.instance.preferences,
                                      config.instance.preferences)
        save_config(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("build", [
        lambda: scenario_stationary(T=500, seed=3),
        lambda: scenario_nonstationary("extreme_budget", 2000, 12.0, seed=5),
        lambda: scenario_nonstationary("varying_reward", 2000, 12.0, seed=5),
        hand_written_config,
    ], ids=["stationary", "extreme_budget", "varying_reward", "hand-written"])
    def test_writer_keys_match_reader_tables(self, build):
        """Every object config_document writes holds only keys its table
        knows, and every key the table requires."""
        config = build()
        doc = config_document(config)
        for table, obj in document_objects(doc):
            required = {k for k, (_, _, default) in table.items()
                        if default is model._REQUIRED}
            assert required <= set(obj) <= set(table)
        assert doc["params"]["K"] == config.params.k_interval
        assert doc["params"]["R_max"] == config.params.r_max
        assert config_document(config_from_document(doc)) == doc

    def test_hand_written_document(self):
        doc = config_document(hand_written_config())
        assert doc["instance"]["budgets"] == [{"value": 10.0}, {"infinite": True}]
        assert doc["instance"]["preferences"] == [[0.5, 0.2]]
        assert doc["params"]["K"] == 50 and doc["params"]["lambda_max"] is None
        assert "scenario" not in doc

    def test_negative_rate_is_named(self):
        doc = config_document(scenario_nonstationary("varying_reward", 2000, 12.0, seed=5))
        doc["arrivals"]["nonstationary"]["rate_fns"][3][0]["params"] = [-1.0, 5.0]
        with pytest.raises(ParseError, match=r"^arrivals\.nonstationary\.rate_fns\[3\]: "
                                             r"rate is negative at t=12 \(-7\)"):
            config_from_document(doc)

    def test_bad_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"instance": ')
        out = tmp_path / "out"
        assert main(["offline", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid JSON")
        assert "line 1 column 14" in err
        assert not out.exists()

    def test_budget_infinite_false_reads_value(self):
        doc = minimal_doc()
        doc["instance"]["budgets"] = [{"infinite": False, "value": 5.0}]
        inst = config_from_document(doc).instance
        assert inst.budgets.tolist() == [5.0]
        assert inst.infinite_items.tolist() == [False]

    def test_unknown_param_key_rejected(self):
        doc = minimal_doc(params={"R_mx": 10})
        with pytest.raises(ParseError, match="R_mx"):
            config_from_document(doc)

    @pytest.mark.parametrize("generator, given, full", [
        ("beta", [3.0], [3.0, 5.0]),
        ("gaussian", [0.2], [0.2, 0.03]),
        ("gaussian", [], [0.1, 0.03]),
    ], ids=["beta-a", "gaussian-loc", "gaussian-none"])
    def test_generator_fills_missing_params_from_its_defaults(self, generator, given, full):
        def draw(params):
            doc = config_document(scenario_stationary(T=300, seed=1))
            doc["instance"]["preferences"] = {"generator": generator, "params": params}
            return config_from_document(doc).instance.preferences

        np.testing.assert_array_equal(draw(given), draw(full))

    def test_generator_refuses_a_third_param(self):
        doc = minimal_doc()
        doc["instance"]["preferences"] = {"generator": "beta", "params": [2.0, 5.0, 1.0]}
        with pytest.raises(ParseError, match=r"^instance\.preferences\.params: "):
            config_from_document(doc)

    def test_generator_preferences_resolved(self):
        doc = minimal_doc()
        doc["instance"]["preferences"] = {"generator": "beta", "params": [2.0, 5.0]}
        config = config_from_document(doc)
        assert config.instance.preferences.shape == (1, 1)
        assert 0.0 < config.instance.preferences[0, 0] <= 1.0
        # same document, same draw
        again = config_from_document(json.loads(json.dumps(doc)))
        assert np.array_equal(again.instance.preferences, config.instance.preferences)

    def test_config_hash_tracks_content(self):
        a = config_from_document(minimal_doc())
        b = config_from_document(minimal_doc(seed=8))
        assert config_hash(a) != config_hash(b)


class TestScenarios:
    def test_stationary_shape(self):
        config = scenario_stationary(T=1000, seed=1)
        inst = config.instance
        assert inst.budgets[0] == pytest.approx(300.0)
        assert inst.budgets[9] == pytest.approx(100.0)
        assert inst.rewards[0] == pytest.approx(0.1)
        assert inst.rewards[9] == pytest.approx(1.0)
        assert isinstance(config.arrivals, StationaryArrivals)
        np.testing.assert_allclose(config.arrivals.rates, 0.1 * np.arange(1, 11))

    def test_stationary_deterministic(self):
        a = scenario_stationary(T=1000, seed=1)
        b = scenario_stationary(T=1000, seed=1)
        assert np.array_equal(a.instance.preferences, b.instance.preferences)
        c = scenario_stationary(T=1000, seed=2)
        assert not np.array_equal(a.instance.preferences, c.instance.preferences)

    def test_extreme_budget_layout(self):
        config = scenario_nonstationary("extreme_budget", 6000, 24.0, seed=1)
        b = config.instance.budgets
        np.testing.assert_allclose(b[:7], 60.0)
        np.testing.assert_allclose(b[7:9], 600.0)
        assert np.isinf(b[9])
        assert np.all(config.instance.rewards == 1.0)

    def test_varying_reward_layout(self):
        config = scenario_nonstationary("varying_reward", 6000, 24.0, seed=1)
        inst = config.instance
        assert inst.rewards[np.argmax(inst.budgets)] == pytest.approx(0.2)
        assert inst.budgets[0] == pytest.approx(4000.0)

    def test_rates_integrate_to_horizon(self):
        config = scenario_nonstationary("extreme_budget", 50000, 24.0, seed=2)
        model = config.arrivals
        assert isinstance(model, NonstationaryArrivals)
        total = sum(fn.integral() for fn in model.rate_fns)
        assert abs(total - 50000) <= 0.001 * 50000

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInstance):
            scenario_nonstationary("weird", 1000, 24.0, seed=1)


class TestRatePieces:
    def test_piece_values(self):
        lin = RatePiece(0.0, 2.0, "linear", (1.0, 1.0))
        assert lin.value(1.0) == pytest.approx(2.0)
        quad = RatePiece(0.0, 2.0, "quadratic", (1.0, 0.0, 0.5))
        assert quad.value(2.0) == pytest.approx(4.5)

    def test_piece_integral_matches_quadrature(self):
        pieces = [
            RatePiece(0.0, 3.0, "constant", (2.0,)),
            RatePiece(0.0, 3.0, "linear", (0.5, 1.0)),
            RatePiece(0.0, 3.0, "quadratic", (0.2, -0.1, 1.0)),
            RatePiece(0.0, 3.0, "sinusoid", (0.5, 2.0, 0.3, 1.5)),
        ]
        grid = np.linspace(0.25, 2.75, 200001)
        for piece in pieces:
            values = piece.value(grid)
            numeric = float(((values[1:] + values[:-1]) * np.diff(grid)).sum() / 2.0)
            assert piece.integral(0.25, 2.75) == pytest.approx(numeric, abs=1e-6)

    def test_bad_kind_rejected(self):
        with pytest.raises(InvalidInstance, match="unknown piece kind 'cubic'"):
            RatePiece(0.0, 1.0, "cubic", (1.0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", ["t_from", "t_to", "params"])
    def test_non_finite_piece_rejected(self, slot, bad):
        fields = dict(t_from=0.0, t_to=1.0, kind="linear", params=(1.0, 2.0))
        fields[slot] = (1.0, bad) if slot == "params" else bad
        with pytest.raises(InvalidInstance, match="finite"):
            RatePiece(**fields)

    def test_negative_rate_caught_by_scan(self):
        fn = RateFunction((RatePiece(0.0, 2.0, "linear", (-1.0, 1.0)),))
        with pytest.raises(InvalidInstance, match="rate is negative at t="):
            fn.check_nonnegative(0.001)


def lookup_value(fn, ts):
    """Per-point reference for `RateFunction.value` on an array: each point
    takes the last piece starting at or before it, the first piece if none."""
    ts = np.asarray(ts, dtype=float)
    per_piece = [piece.value(ts) for piece in fn.pieces]
    out = np.empty_like(ts)
    for i, t in enumerate(ts):
        k = 0
        for j, piece in enumerate(fn.pieces):
            if piece.t_from <= t:
                k = j
        out[i] = per_piece[k][i]
    return out


def lookup_piece(fn, t):
    return max([0] + [j for j, p in enumerate(fn.pieces) if p.t_from <= t])


FOUR_KINDS = (
    RatePiece(0.0, 1.3337, "constant", (2.5,)),
    RatePiece(1.3337, 2.71, "linear", (3.1, 0.7)),
    RatePiece(2.71, 4.2001, "quadratic", (-1.0, 7.3, 1.1)),
    RatePiece(4.2001, 6.0, "sinusoid", (0.9, 2.3, 0.3, 4.0)),
)


def shifted(pieces, t0):
    """The same kinds and params laid end to end from t0."""
    out, t = [], t0
    for p in pieces:
        out.append(RatePiece(t, t + (p.t_to - p.t_from), p.kind, p.params))
        t = out[-1].t_to
    return RateFunction(tuple(out))


class TestRateFunctionValue:
    """`RateFunction.value` agrees bit for bit with a per-point piece lookup,
    inside the span, on piece boundaries and outside it."""

    FUNCTIONS = {
        "four-kinds": RateFunction(FOUR_KINDS),
        "three-pieces": shifted(FOUR_KINDS[1:], 0.0),
        "two-pieces": shifted((FOUR_KINDS[3], FOUR_KINDS[0]), 0.5),
        "one-piece": RateFunction(FOUR_KINDS[2:3]),
    }

    @staticmethod
    def _points(fn):
        edges = fn.boundaries
        near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)])
        rng = np.random.default_rng(3)
        loose = rng.uniform(fn.t0 - 1.0, fn.t_end + 1.0, 5000)
        dense = np.arange(fn.t0, fn.t_end, 0.00025)
        return np.concatenate([near, loose, dense])

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_array_matches_lookup(self, name):
        fn = self.FUNCTIONS[name]
        ts = self._points(fn)
        got = fn.value(ts)
        assert got.dtype == np.float64 and got.shape == ts.shape
        assert got.tobytes() == lookup_value(fn, ts).tobytes()
        grid = fn.value(ts[:300].reshape(100, 3))
        assert grid.tobytes() == lookup_value(fn, ts[:300]).tobytes()

    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_scalar_matches_lookup(self, name):
        fn = self.FUNCTIONS[name]
        for t in self._points(fn)[:400]:
            want = float(fn.pieces[lookup_piece(fn, t)].value(float(t)))
            for arg in (float(t), t, np.array(t)):
                got = fn.value(arg)
                assert type(got) is float and got == want


def rotated(k, factor=1.0):
    """FOUR_KINDS' intervals on [0, 6] with the kinds and params moved k
    places along, the rates scaled by `factor`."""
    kinds = FOUR_KINDS[k:] + FOUR_KINDS[:k]
    return RateFunction(tuple(
        RatePiece(p.t_from, p.t_to, q.kind, q.params).scaled(factor)
        for p, q in zip(FOUR_KINDS, kinds)))


class TestRateStack:
    """The stacked lookup gives each function's row bit for bit as that
    function's own pieces give it, and φ as a per-function stack did."""

    # ten multi-piece functions of all four kinds on [0, 6], boundaries off
    # the grid (1.3337, 2.71, 4.2001) and on it (1.0, 3.0), and one piece
    FUNCTIONS = tuple(rotated(k % 4, 1.0 + 0.37 * k) for k in range(10)) + (
        RateFunction((RatePiece(0.0, 1.0, "sinusoid", (0.5, 3.0, 0.2, 2.0)),
                      RatePiece(1.0, 3.0, "constant", (1.5,)),
                      RatePiece(3.0, 6.0, "linear", (0.25, 0.5)))),
        RateFunction((RatePiece(0.0, 6.0, "quadratic", (-1.0, 7.3, 1.1)),)),
    )

    @classmethod
    def _points(cls):
        edges = np.unique(np.concatenate([fn.boundaries for fn in cls.FUNCTIONS]))
        near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)])
        rng = np.random.default_rng(8)
        return np.concatenate([near, rng.uniform(-1.0, 7.0, 3000),
                               np.arange(0.0, 6.0, 0.001)])

    def test_rows_match_each_function(self):
        ts = self._points()
        got = RateStack(self.FUNCTIONS).values(ts)
        assert got.shape == (len(self.FUNCTIONS), ts.size)
        for row, fn in zip(got, self.FUNCTIONS):
            assert row.tobytes() == lookup_value(fn, ts).tobytes()
            assert row.tobytes() == fn.value(ts).tobytes()
            # the last piece is closed: t_end takes it
            assert row[ts == 6.0].tobytes() == np.atleast_1d(
                fn.pieces[-1].value(np.array([6.0]))).tobytes()

    def test_scalar_and_shaped_t(self):
        stack = RateStack(self.FUNCTIONS)
        ts = self._points()[:600]
        rows = stack.values(ts)
        for k in range(0, ts.size, 7):
            for arg in (float(ts[k]), ts[k], np.array(ts[k])):
                col = stack.values(arg)
                assert col.shape == (len(self.FUNCTIONS),)
                assert col.tobytes() == rows[:, k].tobytes()
        grid = stack.values(ts.reshape(200, 3))
        assert grid.shape == (len(self.FUNCTIONS), 200, 3)
        assert grid.tobytes() == rows.tobytes()

    def test_type_probability_matrix_matches_per_function_stack(self):
        # twelve types: numpy sums a contiguous row of eight or more in
        # another order than type after type, so the layout matters
        model = NonstationaryArrivals(self.FUNCTIONS, 0.0, 6.0)
        times = np.sort(self._points().clip(0.0, 6.0))
        lam = np.stack([lookup_value(fn, times) for fn in self.FUNCTIONS], axis=1)
        want = lam / lam.sum(axis=1)[:, None]
        assert type_probability_matrix(model, times).tobytes() == want.tobytes()


class TestExpectedArrivals:
    MODEL = NonstationaryArrivals(
        (RateFunction(FOUR_KINDS), shifted(FOUR_KINDS[::-1], 0.0)), 0.0, 6.0)

    def test_per_type_integrals_and_rounded_total(self):
        per_type, count = self.MODEL.expected_arrivals(1.0, 5.0)
        want = [fn.integral(1.0, 5.0) for fn in self.MODEL.rate_fns]
        assert per_type.tolist() == want
        assert count == round(float(np.sum(want)))

    def test_count_is_at_least_one(self):
        per_type, count = self.MODEL.expected_arrivals(0.0, 0.01)
        assert per_type.sum() < 0.5 and count == 1


def test_default_ucb_rounds_floor_and_fraction():
    assert default_ucb_rounds(100) == 100        # capped at the horizon
    assert default_ucb_rounds(1000) == 750       # floor dominates short runs
    assert default_ucb_rounds(100000) == 20000   # a fifth for long runs


def test_substreams_do_not_interfere():
    a1 = substream(9, "alpha").random(5)
    b1 = substream(9, "beta").random(5)
    a2 = substream(9, "alpha").random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b1)


def test_algo_params_validation():
    with pytest.raises(InvalidInstance):
        AlgoParams(r_max=-1)
    with pytest.raises(InvalidInstance):
        AlgoParams(r_max=10, delta=1.0)
