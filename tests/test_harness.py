"""Baselines, metrics, report files, and the command-line interface."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import allocsim
from allocsim import (
    ArrivalSequence,
    LoopState,
    ProblemInstance,
    StationaryArrivals,
    compute_regret,
    compute_revenue,
    emit_report,
    greedy_baseline,
    run_integrated,
    sample_stationary_stream,
    save_config,
    scenario_nonstationary,
    scenario_stationary,
    validate_instance,
)
from allocsim._kernels import BACKENDS, available_backends
from allocsim.cli import main
from allocsim.dual import dual_objective
from allocsim.errors import DimensionMismatch
from allocsim.harness import (
    MetricsReport,
    benchmark_spec,
    expected_type_weights,
    offline_revenue_bound,
    run_experiment,
)
from allocsim.model import AlgoParams, SimConfig, config_document


def tiny_instance(rewards, budgets, p=1.0):
    rewards = np.asarray(rewards, dtype=float)
    prefs = np.full((1, rewards.size), p)
    return validate_instance(
        ProblemInstance(
            rewards=rewards,
            budgets=np.asarray(budgets, dtype=float),
            mu=0.1,
            preferences=prefs,
            horizon=10,
        )
    )


def three_arrivals():
    return ArrivalSequence(
        times=np.array([0.1, 0.2, 0.3]), types=np.zeros(3, dtype=np.int64), seed=0
    )


class TestGreedyBaseline:
    def test_hand_trace(self):
        # item 0 pays 1 but stocks a single unit; everything after spills
        # onto the infinite item at 0.5
        inst = tiny_instance([1.0, 0.5], [1.0, np.inf])
        trace = greedy_baseline(inst, three_arrivals(), seed=0)
        np.testing.assert_array_equal(trace.assigned, [0, 1, 1])
        assert np.all(trace.purchased)
        assert compute_revenue(trace, inst.rewards) == pytest.approx(2.0)

    def test_infinite_budgets_never_spill(self):
        inst = tiny_instance([0.3, 0.9, 0.6], [np.inf, np.inf, np.inf])
        stream = sample_stationary_stream(np.array([1.0]), 50, seed=1)
        trace = greedy_baseline(inst, stream, seed=1)
        assert np.all(trace.assigned == 1)

    def test_never_buying_still_consumes_offers(self):
        inst = tiny_instance([1.0, 0.5], [1.0, 2.0], p=0.0)
        # a zero preference row is invalid, so dodge validation on purpose
        inst.preferences[:] = 0.0
        trace = greedy_baseline(inst, three_arrivals(), seed=0)
        assert compute_revenue(trace, inst.rewards) == 0.0
        # stock moves per offer, not per sale: one unit of item 0, then two
        # of item 1, regardless of whether anyone buys
        np.testing.assert_array_equal(trace.assigned, [0, 1, 1])
        np.testing.assert_array_equal(trace.remaining_final, [0.0, 0.0])

    def test_reward_ties_break_low(self):
        inst = tiny_instance([0.8, 0.8], [np.inf, np.inf])
        trace = greedy_baseline(inst, three_arrivals(), seed=0)
        assert np.all(trace.assigned == 0)

    def test_fractional_budgets_then_nulls(self):
        # no uncapped item: in reward order each item serves floor(b_i)
        # arrivals, so 0.4 units never serve one, and the rest get the null
        inst = tiny_instance([1.0, 0.8, 0.5], [2.7, 0.4, 1.0])
        stream = ArrivalSequence(times=np.arange(1.0, 6.0) / 10,
                                 types=np.zeros(5, dtype=np.int64), seed=0)
        trace = greedy_baseline(inst, stream, seed=0)
        np.testing.assert_array_equal(trace.assigned, [0, 0, 2, -1, -1])
        np.testing.assert_array_equal(trace.purchased, [True] * 3 + [False] * 2)
        np.testing.assert_allclose(trace.remaining_final, [0.7, 0.4, 0.0],
                                   rtol=0.0, atol=1e-12)

    def test_items_behind_an_uncapped_item_never_offered(self):
        # reward order is item 1, item 2 (uncapped), item 0: item 0 keeps
        # its stock however long the stream runs
        inst = tiny_instance([0.5, 1.0, 0.9], [5.0, 1.0, np.inf])
        trace = greedy_baseline(inst, three_arrivals(), seed=0)
        np.testing.assert_array_equal(trace.assigned, [1, 2, 2])
        np.testing.assert_array_equal(trace.remaining_final, [5.0, 0.0, np.inf])


@pytest.mark.parametrize("bad_type", [10, -1])
@pytest.mark.parametrize("policy", ["integrated", "greedy"])
def test_arrival_type_outside_instance_rejected(policy, bad_type):
    # m = 10: type 10 used to hit a bare IndexError, and type -1 to run as
    # type 9; both are refused before the loop state moves
    config = scenario_stationary(T=100, seed=1)
    stream = ArrivalSequence(times=np.array([0.5]), types=np.array([bad_type]), seed=1)
    with pytest.raises(DimensionMismatch, match=r"\[0, 10\)"):
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


class TestMetrics:
    def _benchmarked(self, T=400, seed=13):
        config = scenario_stationary(T=T, seed=seed)
        report = run_experiment(config, "stationary")
        weights = expected_type_weights(config)
        spec = benchmark_spec(config, weights, T)
        return report, spec

    def test_regret_zero_at_benchmark(self):
        report, spec = self._benchmarked()
        f_star = dual_objective(spec, report.lam_star)
        report.trace.f_vals = np.full(len(report.trace), f_star)
        total, avg = compute_regret(report.trace, f_star)
        assert total == pytest.approx(0.0, abs=1e-9)
        assert avg == pytest.approx(0.0, abs=1e-12)

    def test_regret_is_linear_in_excess(self):
        report, spec = self._benchmarked()
        f_star = dual_objective(spec, report.lam_star)
        report.trace.f_vals = np.full(len(report.trace), f_star)
        report.trace.f_vals[7] += 0.2
        total, avg = compute_regret(report.trace, f_star)
        assert total == pytest.approx(0.2, abs=1e-9)
        assert avg == pytest.approx(0.2 / len(report.trace), abs=1e-12)

    def test_revenue_of_empty_and_flat_traces(self):
        inst = tiny_instance([0.5, 0.5], [np.inf, np.inf])
        trace = greedy_baseline(inst, three_arrivals(), seed=0)
        assert compute_revenue(trace, inst.rewards) == pytest.approx(1.5)
        trace.purchased[:] = False
        assert compute_revenue(trace, inst.rewards) == 0.0

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
                                      "negative-hours"])
    def test_arrivals_hist_matches_brute_force(self, tmp_path, mode):
        if mode == "nonstationary":
            config = scenario_nonstationary("varying_reward", 1500, 24.0, seed=3)
        else:
            config = scenario_stationary(T=900, seed=3)
        if mode == "negative-hours":
            # a non-stationary horizon may start before zero
            rng = np.random.default_rng(3)
            stream = ArrivalSequence(np.sort(rng.uniform(-30.0, 40.0, 900)),
                                     rng.integers(0, 10, 900), 3)
            report = MetricsReport(
                mode="greedy", seed=3, config_hash="x",
                greedy_trace=greedy_baseline(config.instance, stream, 3))
            emit_report(report, tmp_path)
        else:
            report = run_experiment(config, mode, out_dir=tmp_path)
        trace = report.trace if report.trace is not None else report.greedy_trace
        cells = Counter(zip(np.floor(trace.times).astype(int).tolist(),
                            trace.types.tolist()))
        rows = (tmp_path / "arrivals_hist.csv").read_text().splitlines()
        assert rows[0] == "hour,type,count"
        assert rows[1:] == [f"{h},{j},{c}" for (h, j), c in sorted(cells.items())]
        if mode == "nonstationary":
            hours = {h for h, _ in cells}
            assert len(cells) < len(hours) * config.instance.preferences.shape[0]


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

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["offline", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["offline", "--config", str(bad), "--out", str(tmp_path)]) == 2

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
    ], ids=["K-null", "K-abc", "R_max-list", "T-x", "rewards-abc", "budgets-5",
            "rates-string", "seed-x", "generator-params-xy", "seed-fraction",
            "T-fraction", "K-fraction", "seed-inf"])
    def test_malformed_value_exits_2(self, tmp_path, capsys, where, value):
        doc = config_document(scenario_stationary(T=300, seed=1))
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
        key_path = ".".join(k for k in where if isinstance(k, str))
        assert f"{key_path}: " in err[0]
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

    def test_nonconvergence_exits_3(self, tmp_path):
        config = scenario_stationary(T=300, seed=1)
        doc = config_document(config)
        doc["params"]["offline_max_iter"] = 1
        path = tmp_path / "stall.json"
        path.write_text(json.dumps(doc))
        assert main(["offline", "--config", str(path), "--out", str(tmp_path)]) == 3

    def test_unwritable_out_exits_4(self, tmp_path):
        cfg = self._write_config(tmp_path, scenario_stationary(T=300, seed=1))
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        code = main(["offline", "--config", cfg, "--out", str(blocker / "sub")])
        assert code == 4

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
        ("T=1e3", "T_1000"),
    ], ids=["fraction", "overflow", "exponent"])
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

    def test_backend_flag_matches_default(self, tmp_path, capsys):
        """Every backend that can run here reproduces the default run's
        selections byte for byte (with numba present this is numba == numpy);
        one that cannot run exits 2 with a one-line message naming it."""
        cfg = self._write_config(tmp_path, scenario_stationary(T=400, seed=3))
        out_default = tmp_path / "default"
        assert main(["stationary", "--config", cfg, "--out", str(out_default)]) == 0
        expected = (out_default / "selections.csv").read_bytes()
        capsys.readouterr()
        for backend in BACKENDS:
            out = tmp_path / backend
            code = main(["stationary", "--config", cfg, "--out", str(out),
                         "--backend", backend])
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
