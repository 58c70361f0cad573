#!/usr/bin/env python3
"""Regenerate the committed output references.

    python3 perfbench/make_reference.py --seeds 1-20 [--workload NAME ...]

For each workload and seed this runs one untraced repetition exactly as
run.py does, requires every command to exit 0 and every cell to pass the
output invariants, and writes reference/<workload>/seed-<n>.json. Run it
only when the program's outputs are meant to change, and say so in the
change that commits the new references.
"""

import argparse
import json
import shutil
import sys

import run
from reference import REFERENCE_DIR, describe_cell, invariant_misses
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    allocsim = run.load_package()
    if allocsim is None:
        return 2
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            work, commands = run.prepare(workload, seed, allocsim)
            rep = run.run_repetition(work, commands, trace=False)
            if rep.result is None or any(rep.result["codes"]):
                print(f"{name} seed {seed}: a command failed", file=sys.stderr)
                return 1
            cells = {}
            for command in commands:
                for cell in command.cells:
                    cell_dir = work / "out" / cell
                    misses = invariant_misses(cell_dir, cell)
                    if misses:
                        print("\n".join(misses), file=sys.stderr)
                        return 1
                    cells[cell] = describe_cell(cell_dir)
            shutil.rmtree(work, ignore_errors=True)
            path = REFERENCE_DIR / name / f"seed-{seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            doc = {"workload": name, "seed": seed, "cells": cells}
            path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
