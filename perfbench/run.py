#!/usr/bin/env python3
"""allocsim benchmark: closed-loop CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload nonstationary-extreme --seed 1 --seconds 55 --trace 0

One client, single-threaded, commands back to back. The workload's configs
are generated from --seed with the package's scenario helpers before any
timing starts. Then, for --seconds, the benchmark repeats the workload: each
repetition is a fresh Python process (cell.py) with numpy/BLAS threads
pinned to 1, which runs the workload's CLI commands through
`allocsim.cli.main`. Every repetition's output files are checked: the first
against the committed reference for the seed (see reference.py), the later
ones for byte identity with the first.

The first untraced repetition is a warm-up: it is checked but not timed.
--trace 0 reports the end-to-end metrics, medians over the timed
repetitions: setup_s, wall_s, arrivals_per_s and peak_rss_mb. --trace 1 runs
one traced repetition (tracer.py) first and reports the per-layer metrics,
with the traced wall time set against the median of the timed untraced
repetitions that fill the rest of the time. The last stdout line is one
JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count output cells (one output directory of one command, per repetition).

The benchmark needs the package source at src/allocsim beside this
directory, and exits 2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import (compare_cell, file_digests, invariant_misses,
                       load_reference, read_csv)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CELL = HERE / "cell.py"
CELL_TIMEOUT_S = 170
THREAD_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}


@dataclass
class Repetition:
    """One cell.py process and the check of what it wrote."""

    result: dict | None
    setup_s: float = 0.0
    error: str = ""
    attempted: int = 0
    failed: int = 0
    misses: list[str] = field(default_factory=list)


def run_repetition(work: Path, commands, trace: bool) -> Repetition:
    shutil.rmtree(work / "out", ignore_errors=True)
    spec = json.dumps({
        "src": str(SRC),
        "commands": [list(c.argv) for c in commands],
        "trace": trace,
    })
    env = dict(os.environ, **THREAD_PIN)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CELL), spec], cwd=work, env=env,
            stdout=subprocess.PIPE, text=True, timeout=CELL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Repetition(None, error=f"repetition exceeded {CELL_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return Repetition(None, error=f"cell.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    return Repetition(result, result["ready"] - spawned)


def check_outputs(rep: Repetition, work: Path, commands, reference: dict | None,
                  first: dict | None) -> dict:
    """Count and check the repetition's cells; returns their file digests.

    `first` holds the first repetition's digests: later repetitions must
    match them byte for byte. The first repetition itself is checked against
    the reference (when the seed has one) and the output invariants.
    """
    digests = {}
    codes = rep.result["codes"] if rep.result else [None] * len(commands)
    for command, code in zip(commands, codes):
        for cell in command.cells:
            rep.attempted += 1
            cell_dir = work / "out" / cell
            digests[cell] = file_digests(cell_dir)
            if code != 0:
                misses = [f"{cell}: `allocsim {command.argv[0]}` "
                          f"{rep.error or f'exited {code}'}"]
            elif first is None:
                misses = invariant_misses(cell_dir, cell)
                if reference is not None:
                    if cell in reference:
                        misses += compare_cell(reference[cell], cell_dir, cell)
                    else:
                        misses.append(f"{cell}: not in the reference")
            else:
                got, want = digests[cell], first.get(cell, {})
                misses = [f"{cell}/{name}: differs from the first repetition"
                          for name in sorted(set(got) | set(want))
                          if got.get(name) != want.get(name)]
            if misses:
                rep.failed += 1
                rep.misses.extend(misses)
    return digests


def output_counts(work: Path, commands) -> dict[str, int]:
    """Work counts read from the outputs of a run: arrivals through the
    loop and through greedy, learning/pricing arrivals where trace.csv is
    written, and planned segments."""
    counts = {"arrivals": 0, "loop_arrivals": 0, "greedy_arrivals": 0,
              "segments": 0}
    phases = {"ucb": 0, "ogd": 0}
    has_trace = False
    for command in commands:
        for cell in command.cells:
            cell_dir = work / "out" / cell
            summary = cell_dir / "summary.csv"
            if summary.exists():
                header, columns = read_csv(summary)
                mode = columns[header.index("mode")][0]
                arrivals = int(columns[header.index("arrivals")][0])
                counts["arrivals"] += arrivals
                if mode in ("stationary", "nonstationary"):
                    counts["loop_arrivals"] += arrivals
                if mode in ("stationary", "nonstationary", "greedy"):
                    counts["greedy_arrivals"] += arrivals
            plan = cell_dir / "plan.csv"
            if plan.exists():
                counts["segments"] += len(plan.read_text().splitlines()) - 1
            trace = cell_dir / "trace.csv"
            if trace.exists():
                has_trace = True
                header, columns = read_csv(trace)
                for phase in columns[header.index("phase")]:
                    phases[phase] = phases.get(phase, 0) + 1
    if has_trace:
        counts["learn_arrivals"] = phases["ucb"]
        counts["price_arrivals"] = phases["ogd"]
    return counts


def coverage_misses(workload, traced: dict, counts: dict[str, int]) -> list[str]:
    """The traced run must reach every layer the workload exercises, none it
    bypasses, and count the same work the untraced outputs show."""
    calls = traced["op_calls"]
    layers = traced["layers"]
    misses = [f"entry point {name} not found" for name in
              traced["missing_entry_points"]]
    for layer, op in workload.expect_ops:
        if not calls.get(f"{layer}.{op}", {}).get("calls"):
            misses.append(f"{layer}.{op}: no calls recorded")
    for layer, op in workload.absent_ops:
        if calls.get(f"{layer}.{op}", {}).get("calls"):
            misses.append(f"{layer}.{op}: calls recorded on a workload that "
                          "should bypass it")
    traced_counts = {
        "loop_arrivals": layers["integrated.learn_arrivals"]
        + layers["integrated.price_arrivals"],
        "greedy_arrivals": calls.get("harness.greedy", {}).get("arrivals", 0),
        "segments": layers["segmentation.segments"],
        "learn_arrivals": layers["integrated.learn_arrivals"],
        "price_arrivals": layers["integrated.price_arrivals"],
    }
    for key, traced_value in traced_counts.items():
        if key in counts and counts[key] != traced_value:
            misses.append(f"traced {key} = {traced_value}, untraced outputs "
                          f"show {counts[key]}")
    return misses


def environment(reps: list[Repetition]) -> dict:
    env = dict(next(r.result["env"] for r in reps if r.result))
    env["nproc"] = os.cpu_count()
    env["cpu_affinity"] = len(os.sched_getaffinity(0))
    env["git_revision"] = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            env["git_revision"] = proc.stdout.strip()
    sources = hashlib.sha256()
    for path in sorted((SRC / "allocsim").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = sources.hexdigest()[:16]
    env["repetitions"] = len(reps)
    return env


def load_package():
    """Import allocsim from src/ beside this directory, or return None."""
    if not (SRC / "allocsim" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'allocsim'} not found; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import allocsim

    if Path(allocsim.__file__).resolve().parent != SRC / "allocsim":
        print(f"error: imported allocsim from {allocsim.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return allocsim


def prepare(workload, seed: int, allocsim):
    """Write the workload's configs for `seed` into a fresh work directory."""
    work = WORK / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cfg").mkdir(parents=True)
    configs, commands = workload.build(seed, allocsim)
    for name, config in configs.items():
        allocsim.save_config(config, work / "cfg" / name)
    return work, commands


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running repetition is killed and
    # waited for on the way out instead of being left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    allocsim = load_package()
    if allocsim is None:
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work, commands = prepare(workload, args.seed, allocsim)
    reference = load_reference(workload.name, args.seed)

    deadline = time.monotonic() + args.seconds
    reps: list[Repetition] = []
    first = None
    counts = None
    traced = None
    warm_up = None
    while True:
        started = time.monotonic()
        rep = run_repetition(work, commands, trace=bool(args.trace) and traced is None)
        digests = check_outputs(rep, work, commands, reference, first)
        if first is None and rep.result is not None:
            first = digests
        if args.trace and traced is None:
            traced = rep
        elif warm_up is None:
            # Checked like every repetition, but not timed: it fills the file
            # cache and the bytecode cache of a fresh checkout.
            warm_up = rep
            counts = output_counts(work, commands)
        else:
            reps.append(rep)
        if time.monotonic() + (time.monotonic() - started) > deadline and reps:
            break
    shutil.rmtree(work, ignore_errors=True)

    everything = [r for r in (traced, warm_up) if r is not None] + reps
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    misses = [m for r in everything for m in r.misses]
    timed = [r for r in reps if r.result]
    if not timed or (traced is not None and traced.result is None):
        for line in misses:
            print(f"miss: {line}")
        print("error: no repetition produced a result", file=sys.stderr)
        return 1

    wall_s = statistics.median(r.result["wall_s"] for r in timed)
    if traced is None:
        metrics = {
            "setup_s": statistics.median(r.setup_s for r in timed),
            "wall_s": wall_s,
            "arrivals_per_s": counts["arrivals"] / wall_s,
            "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in timed),
        }
    else:
        misses += coverage_misses(workload, traced.result, counts)
        metrics = dict(traced.result["layers"])
        metrics["trace.overhead_pct"] = (
            (traced.result["wall_s"] - wall_s) / wall_s * 100.0)
    units = declared_units(traced is not None)
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    reference_note = ("committed reference" if reference is not None else
                      "no committed reference for this seed: invariants and "
                      "byte identity between repetitions only")
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(timed)}  arrivals {counts['arrivals']}")
    print(f"output check: {reference_note}")
    for line in misses:
        print(f"miss: {line}")
    print("repetition wall_s: " + " ".join(f"{r.result['wall_s']:.3f}" for r in timed))
    for name, value in metrics.items():
        print(f"{name:<38} {value:>16.6g} {units[name]}")
    if traced is None:
        print(f"{'failed_ratio':<38} {failed / attempted:>16.6g} ratio "
              f"({failed} of {attempted} cells)")
    env = environment(everything)
    print("environment " + json.dumps(env, sort_keys=True))

    summary = {
        "correct": not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(summary, environment=env), indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
