"""Outside-in span tracing of allocsim's layers.

The traced run rebinds public entry points in the modules that call them
(`harness`, `segmentation`, `cli`) to wrappers that record a span around
each call. Nothing under `src/` is edited and the untraced runs never load
this module. Spans are kept in memory and summarised once the workload ends.

A span has a layer, an op, its parent span, its start and end, and a few
counts taken where the work happens (arrivals handled, bytes written,
solver iterations, segments). A layer's self time is the total of its spans'
durations minus the time their child spans cover.

`run_integrated` is additionally cut at its phase switches so learning and
pricing are timed apart. The loop's phase can only change after a guard
checkpoint (every `k_interval` arrivals) or when the global arrival clock
passes `r_max`, so the wrapper runs the call in pieces that end at those
points. The pieces are chained through `trace.carry`, keep the call's
`expected_count` (so step size and budget scale are unchanged), and draw
their uniforms from a replay generator that hands out slices of the draws
the whole call would have taken. The result is bit-identical to one call.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from allocsim import cli, harness, segmentation
from allocsim.arrivals import rate_extrema
from allocsim.integrated import LoopState, Trace
from allocsim.model import GRID_DT_DEFAULT, RateFunction, StationaryArrivals, substream

LEARN, PRICE = 0, 1  # integrated.PHASE_NAMES indices


@dataclass
class Span:
    layer: str
    op: str
    parent: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._thinning_inputs: list[tuple] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, layer: str, op: str):
        parent = self._open[-1] if self._open else -1
        span = Span(layer, op, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.duration

    # ------------------------------------------------------------
    # Rebinding
    # ------------------------------------------------------------

    def install(self) -> list[str]:
        """Rebind every traced entry point; returns the names not found."""
        missing = []
        for module, name, make in self._entries():
            original = getattr(module, name, None)
            if original is None:
                missing.append(f"{module.__name__}.{name}")
                continue
            self._saved.append((module, name, original))
            setattr(module, name, make(original))
        return missing

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _entries(self):
        def timed(layer, op, after=None):
            return lambda fn: self._wrap(fn, layer, op, after)

        def sampler(fn):
            def op(model, *args, **kwargs):
                return "stationary" if isinstance(model, StationaryArrivals) else "thinning"

            def after(span, out, model, count, seed, grid_dt=GRID_DT_DEFAULT, **_):
                span.counts["arrivals"] = len(out)
                if span.op == "thinning":
                    self._thinning_inputs.append((model.rate_fns, grid_dt))

            return self._wrap(fn, "arrivals", op, after)

        def thinning_after(span, out, rate_fns, t0, t_end, seed,
                           grid_dt=GRID_DT_DEFAULT, **_):
            span.counts["arrivals"] = len(out)
            self._thinning_inputs.append((rate_fns, grid_dt))

        def plan_after(span, plan, *args, **kwargs):
            span.counts["segments"] = len(plan)

        def emit_after(span, written, *args, **kwargs):
            span.counts["bytes"] = sum(Path(p).stat().st_size for p in written)

        def plan_csv_after(span, _, plan, path, **kwargs):
            span.counts["bytes"] = Path(path).stat().st_size

        def greedy_after(span, _, instance, arrivals, *args, **kwargs):
            span.counts["arrivals"] = len(arrivals)

        def solve_after(span, sol, *args, **kwargs):
            span.counts["iterations"] = sol.iterations

        split = self._split_phases
        return (
            (harness, "run_integrated", split),
            (segmentation, "run_integrated", split),
            (harness, "greedy_baseline", timed("harness", "greedy", greedy_after)),
            (harness, "solve_offline", timed("dual", "solve", solve_after)),
            (harness, "sample_stream", sampler),
            (harness, "run_nonstationary", timed("segmentation", "driver")),
            (harness, "emit_report", timed("harness", "emit", emit_after)),
            (segmentation, "sample_nonstationary_stream",
             timed("arrivals", "thinning", thinning_after)),
            (segmentation, "type_probability_matrix", timed("arrivals", "phi")),
            (segmentation, "segment_time_span", timed("segmentation", "plan", plan_after)),
            (cli, "segment_time_span", timed("segmentation", "plan", plan_after)),
            (cli, "write_plan_csv", timed("harness", "emit", plan_csv_after)),
            (cli, "config_from_document", timed("model", "config")),
        )

    def _wrap(self, fn, layer, op, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = op(*args, **kwargs) if callable(op) else op
            with self.span(layer, name) as span:
                out = fn(*args, **kwargs)
            if after is not None:
                after(span, out, *args, **kwargs)
            return out

        return wrapper

    def _split_phases(self, run_integrated):
        @functools.wraps(run_integrated)
        def wrapper(config, arrivals, weights, *, loop_state=None, rng=None,
                    expected_count=None, phi=None, step_rule="fixed", backend=None):
            with self.span("integrated", "call"):
                inst, params = config.instance, config.params
                T = len(arrivals)
                state = loop_state if loop_state is not None else LoopState.fresh(
                    inst.rewards.size, inst.preferences.shape[0], inst.budgets)
                if rng is None:
                    rng = np.random.default_rng(substream(config.seed, "loop"))
                u_select = rng.random(T)
                u_purchase = rng.random(T)
                expected = T if expected_count is None else expected_count
                k, r_max = params.k_interval, params.r_max
                pieces = []
                lo = 0
                while lo < T:
                    g = state.t_global + 1
                    phase = (LEARN if state.last_change > params.ucb_stop_epsilon
                             and g <= r_max else PRICE)
                    if g > r_max:
                        hi = T
                    else:
                        next_checkpoint = -(-g // k) * k
                        hi = min(T, lo + min(next_checkpoint, r_max) - g + 1)
                    op = "learn" if phase == LEARN else "price"
                    with self.span("integrated", op) as span:
                        piece = run_integrated(
                            config, arrivals.slice(lo, hi), weights,
                            loop_state=state,
                            rng=_Replay(u_select[lo:hi], u_purchase[lo:hi]),
                            expected_count=expected,
                            phi=None if phi is None else phi[lo:hi],
                            step_rule=step_rule, backend=backend,
                        )
                    span.counts["arrivals"] = hi - lo
                    if np.any(piece.phase != phase):
                        raise RuntimeError(
                            f"phase split mispredicted arrivals {lo}..{hi}: "
                            f"expected all {op}")
                    pieces.append(piece)
                    state = piece.carry
                    lo = hi
                return Trace.concat(pieces)

        return wrapper

    # ------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------

    def thinning_expected_proposals(self) -> float:
        """Proposals the thinning sampler should draw: each piece's grid
        maximum rate times its length, summed over types and pieces."""
        total = 0.0
        for rate_fns, grid_dt in self._thinning_inputs:
            for fn in rate_fns:
                for piece in fn.pieces:
                    _, lam_bar = rate_extrema(
                        RateFunction((piece,)), (piece.t_from, piece.t_to), grid_dt)
                    total += max(lam_bar, 0.0) * (piece.t_to - piece.t_from)
        return total

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures for one traced repetition of `wall_s` seconds."""

        def ops(layer, op):
            return [s for s in self.spans if s.layer == layer and s.op == op]

        def total(spans, key=None):
            if key is None:
                return sum(s.duration for s in spans)
            return sum(s.counts.get(key, 0) for s in spans)

        def per_unit(spans, key, scale):
            n = total(spans, key)
            return total(spans) / n * scale if n else 0.0

        out: dict[str, float] = {}
        for layer, call_ops in LAYERS.items():
            mine = [s for s in self.spans if s.layer == layer]
            self_s = sum(s.duration - s.child_s for s in mine)
            out[f"{layer}.calls"] = sum(1 for s in mine if s.op in call_ops)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / wall_s

        learn, price = ops("integrated", "learn"), ops("integrated", "price")
        out["integrated.learn_us_per_arrival"] = per_unit(learn, "arrivals", 1e6)
        out["integrated.price_us_per_arrival"] = per_unit(price, "arrivals", 1e6)
        out["integrated.learn_arrivals"] = total(learn, "arrivals")
        out["integrated.price_arrivals"] = total(price, "arrivals")

        emit = ops("harness", "emit")
        out["harness.greedy_us_per_arrival"] = per_unit(
            ops("harness", "greedy"), "arrivals", 1e6)
        out["harness.emit_ms"] = total(emit) * 1e3
        out["harness.emit_bytes"] = total(emit, "bytes")

        thinning = ops("arrivals", "thinning")
        proposals = self.thinning_expected_proposals()
        out["arrivals.thinning_us_per_arrival"] = per_unit(thinning, "arrivals", 1e6)
        out["arrivals.thinning_accept_ratio"] = (
            total(thinning, "arrivals") / proposals if proposals else 0.0)
        out["arrivals.stationary_us_per_arrival"] = per_unit(
            ops("arrivals", "stationary"), "arrivals", 1e6)

        plan, driver = ops("segmentation", "plan"), ops("segmentation", "driver")
        out["segmentation.plan_ms"] = total(plan) * 1e3
        out["segmentation.segments"] = total(plan, "segments")
        out["segmentation.driver_self_ms"] = sum(
            s.duration - s.child_s for s in driver) * 1e3

        solves = ops("dual", "solve")
        out["dual.solve_ms"] = total(solves) * 1e3
        out["dual.solves"] = len(solves)
        out["dual.iterations"] = total(solves, "iterations")

        out["model.config_ms"] = total(ops("model", "config")) * 1e3
        return out

    def op_calls(self) -> dict[str, dict[str, int]]:
        """Calls and summed counts per `layer.op`, for the coverage check."""
        calls: dict[str, dict[str, int]] = {}
        for s in self.spans:
            entry = calls.setdefault(f"{s.layer}.{s.op}", {"calls": 0})
            entry["calls"] += 1
            for key, value in s.counts.items():
                entry[key] = entry.get(key, 0) + value
        return calls


# Ops that count as calls into each layer; the integrated loop's learn and
# price pieces are parts of one call, not calls of their own.
LAYERS = {
    "integrated": ("call",),
    "harness": ("greedy", "emit"),
    "arrivals": ("stationary", "thinning", "phi"),
    "segmentation": ("driver", "plan"),
    "dual": ("solve",),
    "model": ("config",),
}


class _Replay:
    """Stands in for the loop's generator: returns pre-drawn uniform slices
    in the order `run_integrated` asks for them (selection, then purchase)."""

    def __init__(self, *draws: np.ndarray):
        self._draws = list(draws)

    def random(self, size: int) -> np.ndarray:
        out = self._draws.pop(0)
        if out.size != size:
            raise RuntimeError(f"replay holds {out.size} draws, asked for {size}")
        return out
