"""One repetition of a workload, in a fresh interpreter.

    python3 cell.py '<json spec>'

The spec gives the package source directory, the CLI commands to run and
whether to trace. The process imports allocsim (and, where numba is the
active backend, compiles the loops on a small input), then runs the commands
back to back through `allocsim.cli.main` in its working directory. Its last
stdout line is a JSON object with the moment it was ready (CLOCK_MONOTONIC,
comparable with the parent's spawn time), the commands' wall time and exit
codes, the process's peak RSS (VmHWM), the environment, and with tracing on, the
per-layer figures.
"""

import json
import os
import platform
import sys
import time


def _warm_up_jit(allocsim) -> None:
    config = allocsim.scenario_stationary(T=300, seed=0)
    stream = allocsim.sample_stream(config.arrivals, 300, 0, config.params.grid_dt)
    weights = allocsim.harness.expected_type_weights(config)
    allocsim.run_integrated(config, stream, weights)
    allocsim.greedy_baseline(config.instance, stream, 0)


def _peak_rss_mb() -> float:
    """This process's peak resident set size. VmHWM belongs to the address
    space made at exec, whereas ru_maxrss also counts the forking parent's
    resident set when that was larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import numpy

    import allocsim
    from allocsim import _kernels, cli

    if _kernels.BACKEND == "numba":
        _warm_up_jit(allocsim)
    ready = time.monotonic()

    tracer = None
    missing = []
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()

    codes = []
    started = time.perf_counter()
    for argv in spec["commands"]:
        codes.append(cli.main(list(argv)))
    wall_s = time.perf_counter() - started

    result = {
        "ready": ready,
        "wall_s": wall_s,
        "codes": codes,
        "peak_rss_mb": _peak_rss_mb(),
        "env": {
            "backend": _kernels.BACKEND,
            "numba_importable": _kernels.HAS_NUMBA,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "allocsim_file": allocsim.__file__,
            "thread_pin": {k: v for k, v in os.environ.items()
                           if k.endswith("_NUM_THREADS")
                           or k == "VECLIB_MAXIMUM_THREADS"},
        },
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        result["op_calls"] = tracer.op_calls()
        result["missing_entry_points"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
