"""Self-tests of the benchmark: the phase split, the tracer's coverage, and
the seed-1 work counts.

    python3 -m pytest perfbench/test_benchmark.py

The seed-1 test runs every workload traced through run.py (about a minute on
two cores). It fails when a layer a workload should exercise records no
calls (say, after a refactor renames an import the tracer rebinds), when the
traced run counts different work from the untraced one, or when the counts
drift from the figures below.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from allocsim import harness, scenario_nonstationary, scenario_stationary  # noqa: E402
from allocsim.arrivals import sample_stream  # noqa: E402
from allocsim.segmentation import run_nonstationary  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED1_COUNTS = {
    "stationary-grid": {
        "integrated.calls": 3,
        "integrated.learn_arrivals": 22750,
        "integrated.price_arrivals": 88250,
        "segmentation.segments": 0,
        "dual.solves": 6,
    },
    "nonstationary-extreme": {
        "integrated.calls": 15,
        "integrated.learn_arrivals": 12000,
        "integrated.price_arrivals": 48065,
        "segmentation.segments": 15,
        "dual.solves": 16,
    },
    "baselines": {
        "integrated.calls": 0,
        "integrated.learn_arrivals": 0,
        "integrated.price_arrivals": 0,
        "segmentation.segments": 30,
        "dual.solves": 1,
    },
}


def _same_trace(a, b):
    for name in ("times", "types", "assigned", "purchased", "phase", "f_vals",
                 "segment", "lam_final", "remaining_final"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    for name in ("t", "pref_error", "change", "lam", "remaining"):
        np.testing.assert_array_equal(
            getattr(a.checkpoints, name), getattr(b.checkpoints, name), err_msg=name)
    assert a.t_start_index == b.t_start_index
    assert a.carry.t_global == b.carry.t_global
    assert a.carry.last_change == b.carry.last_change


def _traced(fn):
    tracer = Tracer()
    assert tracer.install() == []
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


def test_phase_split_is_bit_identical_on_one_call():
    config = scenario_stationary(T=6000, seed=3)
    stream = sample_stream(config.arrivals, 6000, 3, config.params.grid_dt)
    weights = harness.expected_type_weights(config)
    plain = harness.run_integrated(config, stream, weights)
    split, tracer = _traced(
        lambda: harness.run_integrated(config, stream, weights))
    _same_trace(plain, split)
    calls = tracer.op_calls()
    assert calls["integrated.learn"]["arrivals"] == int((plain.phase == 0).sum())
    assert calls["integrated.price"]["arrivals"] == int((plain.phase == 1).sum())
    assert calls["integrated.learn"]["calls"] > 1


def test_phase_split_is_bit_identical_across_segments():
    config = scenario_nonstationary("extreme_budget", 4000, 24.0, seed=2)
    plain, plain_plan = run_nonstationary(config)
    (split, plan), tracer = _traced(lambda: harness.run_nonstationary(config))
    _same_trace(plain, split)
    assert len(plan) == len(plain_plan)
    assert tracer.op_calls()["integrated.call"]["calls"] == len(plan)


def test_missing_entry_point_is_reported(monkeypatch):
    monkeypatch.delattr(harness, "solve_offline")
    tracer = Tracer()
    try:
        assert tracer.install() == ["allocsim.harness.solve_offline"]
    finally:
        tracer.uninstall()


def test_coverage_flags_silent_layers_and_count_drift():
    workload = WORKLOADS["nonstationary-extreme"]
    traced = {
        "missing_entry_points": [],
        "op_calls": {f"{layer}.{op}": {"calls": 1}
                     for layer, op in workload.expect_ops},
        "layers": {"integrated.learn_arrivals": 10, "integrated.price_arrivals": 20,
                   "segmentation.segments": 3},
    }
    counts = {"loop_arrivals": 30, "learn_arrivals": 10, "price_arrivals": 20,
              "segments": 3}
    assert run.coverage_misses(workload, traced, counts) == []

    traced["op_calls"]["dual.solve"]["calls"] = 0
    assert run.coverage_misses(workload, traced, counts) == [
        "dual.solve: no calls recorded"]
    traced["op_calls"]["dual.solve"]["calls"] = 1
    counts["learn_arrivals"] = 11
    assert len(run.coverage_misses(workload, traced, counts)) == 1


@pytest.mark.parametrize("name", sorted(SEED1_COUNTS))
def test_seed1_traced_run(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for key, expected in SEED1_COUNTS[name].items():
        assert metrics[key] == expected, key
