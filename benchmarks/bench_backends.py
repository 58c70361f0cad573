#!/usr/bin/env python3
"""Time the compiled and pure-numpy integrated-loop backends on identical inputs.

Both backends consume the same pre-drawn uniforms, so every discrete
output (assignments, purchases, phase labels) must agree exactly and f_vals
to 1e-10; the table reports best-of-N wall times, the same per arrival, the
speedup, and that check. With numba it compares numba against numpy at
every size, after a small warmup run that pays the JIT cost. Without numba
it compares the numpy twin against the scalar kernel numba would compile,
run as plain Python (~300 us per arrival), at the smallest size only.

Usage:
    python3 benchmarks/bench_backends.py [--sizes 20000,100000]
                                         [--repeats 3] [--seed 7]
"""

import argparse
import time

import numpy as np

from allocsim import _kernels
from allocsim.arrivals import sample_stream
from allocsim.harness import expected_type_weights
from allocsim.integrated import run_integrated
from allocsim.model import scenario_stationary


def best_of(fn, repeats):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def inputs(T, seed):
    config = scenario_stationary(T, seed)
    stream = sample_stream(config.arrivals, T, seed, config.params.grid_dt)
    return config, stream, expected_type_weights(config)


def bench_size(T, seed, repeats, backends):
    config, stream, weights = inputs(T, seed)
    timings = {}
    traces = {}
    for backend in backends:
        timings[backend], traces[backend] = best_of(
            lambda b=backend: run_integrated(config, stream, weights, backend=b),
            repeats,
        )
    return timings, traces


def scalar_reference(T, seed):
    """The online run on the scalar kernel, executed as plain Python."""
    config, stream, weights = inputs(T, seed)
    loop = _kernels.integrated_loop
    _kernels.integrated_loop = (
        lambda *args, backend=None: _kernels._integrated_scalar(*args))
    try:
        return run_integrated(config, stream, weights)
    finally:
        _kernels.integrated_loop = loop


def online_match(ta, tb):
    return (
        np.array_equal(ta.assigned, tb.assigned)
        and np.array_equal(ta.purchased, tb.purchased)
        and np.array_equal(ta.phase, tb.phase)
        and np.allclose(ta.f_vals, tb.f_vals, rtol=1e-10, atol=1e-12)
    )


def outputs_match(traces, reference=None):
    """'yes'/'NO' for the check this size runs, '-' where it runs none."""
    if len(traces) == 2:
        same = online_match(traces["numba"], traces["numpy"])
    elif reference is not None:
        same = online_match(reference, traces["numpy"])
    else:
        return "-"
    return "yes" if same else "NO"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="20000,100000")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s]

    backends = _kernels.available_backends()
    if "numba" in backends:
        bench_size(500, args.seed, 1, ("numba",))  # JIT warmup
    else:
        print("numba is not importable; timing the numpy backend alone and "
              f"checking it against the plain-Python scalar kernel at "
              f"T={min(sizes)}\n")

    header = f"{'T':>8}" + "".join(
        f"  {b + ' (s)':>11}  {'us/arrival':>10}" for b in backends
    )
    if len(backends) == 2:
        header += f"  {'speedup':>8}"
    header += f"  {'match':>5}"
    print(header)
    print("-" * len(header))
    for T in sizes:
        timings, traces = bench_size(T, args.seed, args.repeats, backends)
        reference = None
        if len(backends) == 1 and T == min(sizes):
            reference = scalar_reference(T, args.seed)
        cells = f"{T:>8}" + "".join(
            f"  {timings[b]:>11.4f}  {timings[b] / T * 1e6:>10.2f}" for b in backends
        )
        if len(backends) == 2:
            cells += f"  {timings['numpy'] / timings['numba']:>7.1f}x"
        print(cells + f"  {outputs_match(traces, reference):>5}")


if __name__ == "__main__":
    main()
