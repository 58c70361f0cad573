"""The CLI's contract on seeded random small configs.

Each config runs through `cli.main` in every mode, twice. Whatever the
config holds, a run exits 0, 2, 3 or 4 with at most one line on stderr
and no exception escapes; a rerun writes the same bytes; every written
plan certifies, but for segments one grid step long (ROADMAP item 18);
`nonstationary` and `segment-plan` write the same plan.csv bytes; a
config refused when it loads is refused the same way in every mode; and a
stationary config asked for a segmentation is refused with a message that
names the mode mismatch. The draws come from a plain
`random.Random(seed)`, so every case is fixed by its seed. A RuntimeWarning
(an overflow, an invalid value or a log of zero) fails the case.
"""

import json
import math
import random

import numpy as np
import pytest

from allocsim.cli import COMMANDS, main
from allocsim.errors import AllocSimError
from allocsim.model import (
    RateFunction,
    RatePiece,
    config_document,
    config_from_document,
    scan_grid,
    scenario_nonstationary,
)
from allocsim.segmentation import certify_plan, segment_time_span

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEEDS = range(40)
MESSAGES = {2: "config error: ", 3: "numerical error: ", 4: "i/o error: "}
PLAN_MODES = ("nonstationary", "segment-plan")


# ============================================================
# Config draws
# ============================================================

def _piece(rng: random.Random, lo: float, hi: float, start: float,
           cap: float) -> tuple[dict, float]:
    """One piece on [lo, hi) whose rate starts at `start` and stays within
    [0, 2·cap], and the rate it ends at. A rate that ends at 0 touches it,
    where rounding may leave it a hair below (a config the load check
    then refuses)."""
    kind = rng.choice(["constant", "linear", "quadratic", "sinusoid"])
    w = hi - lo
    end = 0.0 if rng.random() < 0.15 else rng.uniform(0.0, cap)
    if kind == "constant":
        params, end = [start], start
    elif kind == "linear":
        k = (end - start) / w
        params = [k, start - k * lo]
    elif kind == "quadratic":
        # the chord from start to end plus c·s(1 - s), s = (t - lo)/w
        c = rng.uniform(-2.0 * min(start, end), 4.0 * (cap - max(start, end)))
        a, b = -c / w**2, (end - start + c) / w
        params = [a, b - 2.0 * a * lo, a * lo * lo - b * lo + start]
    else:
        amp, freq, phase = rng.uniform(0.0, start / 2), rng.uniform(0.5, 20.0), \
            rng.uniform(0.0, 2 * math.pi)
        params = [amp, freq, phase, start - amp * math.sin(freq * lo + phase)]
        end = params[0] * math.sin(freq * hi + phase) + params[3]
    return {"from": lo, "to": hi, "kind": kind, "params": params}, end


def _rate_fn(rng: random.Random, t0: float, t_end: float, cap: float) -> list:
    """One to three pieces; each starts at 0, at a new rate (a jump) or at
    the rate the last one ended at."""
    cuts = sorted(rng.uniform(t0, t_end) for _ in range(rng.randint(0, 2)))
    edges = [t0, *cuts, t_end]
    pieces, rate = [], rng.uniform(0.0, cap)
    for lo, hi in zip(edges, edges[1:]):
        if lo < hi:
            start = 0.0 if rng.random() < 0.15 else rng.choice([rng.uniform(0.0, cap), rate])
            piece, rate = _piece(rng, lo, hi, start, cap)
            pieces.append(piece)
    return pieces


def _budget(rng: random.Random, horizon: int):
    kind = rng.choice(["finite", "fraction", "zero", "infinite"])
    if kind == "infinite":
        return {"infinite": True}
    value = {"finite": float(rng.randint(1, horizon)), "zero": 0.0,
             "fraction": rng.uniform(0.0, 5.0)}[kind]
    return value if rng.random() < 0.5 else {"value": value}


def _params(rng: random.Random, horizon: int) -> dict:
    """A sparse `params`: each key present with probability 0.3."""
    draws = {
        "R_max": lambda: rng.randint(0, horizon),
        "K": lambda: rng.randint(1, 300),
        "ucb_stop_epsilon": lambda: rng.uniform(0.001, 0.5),
        "epsilon": lambda: rng.uniform(0.1, 50.0),
        "delta": lambda: rng.uniform(0.01, 0.5),
        "d": lambda: rng.uniform(0.01, 1.0),
        "grid_dt": lambda: rng.choice([0.001, 0.005, 0.02]),
        "lambda_max": lambda: rng.choice([None, rng.uniform(0.1, 2.0)]),
        "offline_tol": lambda: rng.choice([1e-8, 1e-6, 1e-3]),
        "offline_max_iter": lambda: rng.choice([1, 20, 5000]),
    }
    return {key: draw() for key, draw in draws.items() if rng.random() < 0.3}


def draw_config(seed: int) -> dict:
    """A config document with n, m <= 4, T <= 300 and a horizon of at most
    3 h, whose expected arrivals total at most 300."""
    rng = random.Random(seed)
    n, m, horizon = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 300)
    instance = {
        "n": n, "m": m, "T": horizon,
        "rewards": [rng.uniform(0.1, 1.0) for _ in range(n)],
        "budgets": [_budget(rng, horizon) for _ in range(n)],
    }
    if rng.random() < 0.5:
        instance["mu"] = rng.uniform(0.05, 1.0)
    if rng.random() < 0.5:
        instance["preferences"] = [[rng.uniform(0.0, 1.0) for _ in range(n)]
                                   for _ in range(m)]
    else:
        generator = rng.choice(["beta", "gaussian"])
        instance["preferences"] = {"generator": generator}
        if rng.random() < 0.5:
            instance["preferences"]["params"] = (
                [rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0)] if generator == "beta"
                else [rng.uniform(0.05, 0.5)])
    if rng.random() < 0.4:
        arrivals = {"stationary": {"rates": [rng.uniform(0.1, 3.0) for _ in range(m)]}}
    else:
        t0 = rng.choice([0.0, rng.uniform(0.0, 10.0)])
        t_end = t0 + rng.uniform(0.2, 3.0)
        cap = 50.0 / m  # so the expected total is at most 100 per hour
        arrivals = {"nonstationary": {
            "t0": t0, "t_end": t_end,
            "rate_fns": [_rate_fn(rng, t0, t_end, cap) for _ in range(m)],
        }}
    return {"instance": instance, "arrivals": arrivals,
            "seed": rng.randint(0, 10**6), "params": _params(rng, horizon)}


def two_type_doc(pieces) -> dict:
    """Two types on [0, 2], one piece each."""
    return {
        "instance": {"n": 2, "m": 2, "T": 300, "rewards": [0.5, 1.0],
                     "budgets": [30.0, {"infinite": True}],
                     "preferences": [[0.2, 0.1], [0.1, 0.3]]},
        "arrivals": {"nonstationary": {"t0": 0.0, "t_end": 2.0, "rate_fns": [
            [{"from": 0.0, "to": 2.0, "kind": kind, "params": params}]
            for kind, params in pieces]}},
        "seed": 1,
    }


# ============================================================
# The contract
# ============================================================

def _outputs(out):
    """Every written file's bytes but runtime.txt's, which holds a timing."""
    if not out.exists():
        return {}
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "runtime.txt"}


def run_every_mode(tmp_path, capsys, doc) -> dict:
    """Run `doc` in every mode twice, check the contract, and return each
    mode's (exit code, stderr) and the plan.csv bytes of each mode that
    wrote one."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    try:
        config = config_from_document(json.loads(path.read_text()))
        refused = None
    except AllocSimError as exc:
        config, refused = None, f"config error: {exc}"
    results, plans = {}, {}
    for mode in COMMANDS:
        runs = []
        for rerun in (0, 1):
            out = tmp_path / f"{mode}-{rerun}"
            code = main([mode, "--config", str(path), "--out", str(out), "--trace"])
            captured = capsys.readouterr()
            runs.append((code, captured.err, _outputs(out)))
        code, err, files = runs[0]
        assert runs[1] == runs[0], f"{mode}: rerun differs"
        assert code in (0, 2, 3, 4), f"{mode}: exit {code}"
        if code == 0:
            assert err == "", f"{mode}: {err}"
        else:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(MESSAGES[code]), err
            assert not files, f"{mode}: a failed run left {sorted(files)}"
        if refused is not None:
            assert (code, err) == (2, refused + "\n"), f"{mode}: {err}"
        elif mode in PLAN_MODES and "stationary" in doc["arrivals"]:
            assert code == 2 and f"{mode} needs a non-stationary config" in err
        if "plan.csv" in files:
            model, p = config.arrivals, config.params
            plan = segment_time_span(model.rate_fns, model.t0, model.t_end,
                                     p.epsilon, p.delta, p.d, p.grid_dt)
            # every segment certifies but one a single grid step long: the
            # planner takes that step from any cursor, even where it already
            # breaks the bound (ROADMAP item 18; pinned below)
            one_step = [scan_grid(model.rate_fns, s.t_start, s.t_end, p.grid_dt).size == 2
                        for s in plan.segments]
            assert np.all(certify_plan(plan, model.rate_fns) | one_step)
            rows = files["plan.csv"].decode().splitlines()[1:]
            assert [row.split(",")[2] for row in rows] == [s.label for s in plan.segments]
            plans[mode] = files["plan.csv"]
        results[mode] = (code, err)
    # the CLI plans segment-plan's file apart from the nonstationary run
    if len(plans) == len(PLAN_MODES):
        assert plans["nonstationary"] == plans["segment-plan"]
    return results, plans


@pytest.mark.parametrize("seed", SEEDS)
def test_random_config_keeps_the_contract(tmp_path, capsys, seed):
    run_every_mode(tmp_path, capsys, draw_config(seed))


def test_plan_modes_write_one_plan(tmp_path, capsys):
    # the extreme_budget scenario plans 15 segments at seed 1
    config = scenario_nonstationary("extreme_budget", 2000, 24.0, seed=1)
    _, plans = run_every_mode(tmp_path, capsys, config_document(config))
    assert set(plans) == set(PLAN_MODES)
    assert plans["segment-plan"].count(b"\n") == 16  # a header, 15 rows


@pytest.mark.parametrize("pieces, planned, unplanned", [
    # loaded, this config used to write NaN weights (segment-plan), warn
    # 0/0 and blame the weights (offline), and exit 0 with empty files
    # (greedy)
    ([("constant", [0.0]), ("constant", [0.0])],
     (2, "config error: arrivals.nonstationary: "),
     (2, "config error: arrivals.nonstationary: ")),
    # both rates are 0 at t = 0, where a type-B cursor has no positive
    # variation threshold; the modes that do not plan run it
    ([("linear", [100.0, 0.0]), ("linear", [200.0, 0.0])], (2, "t=0"), (0, "")),
    # one rate is 0 at t = 0 but the total is not: every mode runs
    ([("constant", [50.0]), ("linear", [200.0, 0.0])], (0, ""), (0, "")),
], ids=["all-zero", "zero-total-at-cursor", "zero-rate-at-cursor"])
def test_rates_at_zero(tmp_path, capsys, pieces, planned, unplanned):
    results, _ = run_every_mode(tmp_path, capsys, two_type_doc(pieces))
    for mode, (code, err) in results.items():
        want_code, want_text = planned if mode in PLAN_MODES else unplanned
        assert code == want_code and want_text in err, (mode, err)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: a single grid step "
                   "that breaks the bound is still taken")
def test_one_grid_step_past_the_bound_certifies():
    # a steep sinusoid on a coarse grid moves the band past delta within
    # one step of 0.02 h, so the planner's forced steps fail certification
    fns = [RateFunction((RatePiece(0.0, 1.0, "sinusoid", (2.0, 8.0, 0.0, 4.0)),)),
           RateFunction((RatePiece(0.0, 1.0, "constant", (4.0,)),))]
    plan = segment_time_span(fns, 0.0, 1.0, epsilon=1.0, delta=0.05, d=0.1, grid_dt=0.02)
    assert certify_plan(plan, fns).all()
