"""The benchmark's workloads: the configs each one generates from its seed,
the CLI commands it runs back to back, and the layers it must exercise.

A workload is built by `build(seed, allocsim)`, which returns the configs to
write (file name -> SimConfig, made with the package's scenario helpers) and
the commands to run. README.md says why each workload exists. Every command
names the output directories ("cells") it writes, so a failing command fails
exactly those cells. Paths in commands are relative to the run's work
directory: configs under `cfg/`, outputs under `out/`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    cells: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    # (layer, op) pairs the traced run must see at least once, and pairs it
    # must never see; see tracer.py for the op names.
    expect_ops: tuple[tuple[str, str], ...]
    absent_ops: tuple[tuple[str, str], ...] = ()


def _stationary_grid(seed, allocsim):
    configs = {"stationary.json": allocsim.scenario_stationary(T=1000, seed=seed)}
    commands = [
        Command(
            ("stationary", "--config", "cfg/stationary.json", "--out", "out/grid",
             "--grid", "T=1000,10000,100000"),
            ("grid/T_1000", "grid/T_10000", "grid/T_100000"),
        )
    ]
    return configs, commands


def _nonstationary_extreme(seed, allocsim):
    configs = {
        "extreme.json": allocsim.scenario_nonstationary(
            "extreme_budget", 60000, 24.0, seed),
    }
    commands = [
        Command(
            ("nonstationary", "--config", "cfg/extreme.json", "--out", "out/ns",
             "--trace"),
            ("ns",),
        )
    ]
    return configs, commands


def _baselines(seed, allocsim):
    configs = {
        "stationary_1m.json": allocsim.scenario_stationary(T=1_000_000, seed=seed),
        "extreme.json": allocsim.scenario_nonstationary(
            "extreme_budget", 60000, 24.0, seed),
        "varying.json": allocsim.scenario_nonstationary(
            "varying_reward", 60000, 24.0, seed),
    }
    commands = [
        Command(("greedy", "--config", "cfg/stationary_1m.json", "--out",
                 "out/greedy"), ("greedy",)),
        Command(("offline", "--config", "cfg/stationary_1m.json", "--out",
                 "out/offline"), ("offline",)),
        Command(("segment-plan", "--config", "cfg/extreme.json", "--out",
                 "out/plan_extreme"), ("plan_extreme",)),
        Command(("segment-plan", "--config", "cfg/varying.json", "--out",
                 "out/plan_varying"), ("plan_varying",)),
    ]
    return configs, commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stationary-grid",
            _stationary_grid,
            expect_ops=(
                ("integrated", "learn"), ("integrated", "price"),
                ("harness", "greedy"), ("harness", "emit"),
                ("arrivals", "stationary"), ("dual", "solve"),
                ("model", "config"),
            ),
            absent_ops=(("arrivals", "thinning"), ("segmentation", "plan")),
        ),
        Workload(
            "nonstationary-extreme",
            _nonstationary_extreme,
            expect_ops=(
                ("integrated", "learn"), ("integrated", "price"),
                ("harness", "greedy"), ("harness", "emit"),
                ("arrivals", "thinning"), ("arrivals", "phi"),
                ("segmentation", "driver"), ("segmentation", "plan"),
                ("dual", "solve"), ("model", "config"),
            ),
            absent_ops=(("arrivals", "stationary"),),
        ),
        Workload(
            "baselines",
            _baselines,
            expect_ops=(
                ("harness", "greedy"), ("harness", "emit"),
                ("arrivals", "stationary"), ("segmentation", "plan"),
                ("dual", "solve"), ("model", "config"),
            ),
            absent_ops=(("integrated", "call"), ("arrivals", "thinning")),
        ),
    )
}
