"""Online loop: bandit learning of preferences coupled with dual descent.

Each arrival is handled in four moves. Observe the customer type; pick an
item (exploration scores early, dual-driven softmax once estimates settle
or the exploration window closes); simulate the purchase from the ground
truth; then take one projected gradient step on the weighted dual using the
current estimate. The recorded per-arrival dual value series feeds regret.

Learning keeps one confidence-bound bandit per customer type: counts N_ij
and purchase totals R_ij feed estimates P̂_ij = R_ij/N_ij, with a flat prior
(UNVISITED_PRIOR) on unvisited pairs. The UCB bonus uses a per-type clock
t_j so rare types are not over-explored.

Every K arrivals of the global clock a guard checkpoint records the
estimate's Frobenius error and its movement since the previous checkpoint;
learning continues while that movement exceeds ucb_stop_epsilon and the
clock has not passed r_max. `run_integrated` owns this rule for both compute
backends: it cuts a batch into pieces that end at those points, runs each
piece in one phase through `_kernels.integrated_loop`, and takes each
checkpoint once between pieces. It also owns the length of a loop call: a
piece longer than `_CALL_MAX` arrivals runs in several calls, so the numpy
twin's call-sized buffers stay small whatever K is.

State (dual iterate, preference estimate, remaining budgets, checkpoint
baseline) lives in a LoopState so a caller can thread one run across
several arrival batches, which is exactly what the segmentation driver
does. Budgets are consumed by assignment, and uncapped items never deplete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .arrivals import ArrivalSequence, _blocks, _index_dtype
from .dual import default_grad_bound, step_sizes
from .errors import InvalidInstance
from .model import SimConfig, substream

__all__ = [
    "PHASE_NAMES",
    "UNVISITED_PRIOR",
    "LoopState",
    "CheckpointLog",
    "Trace",
    "run_integrated",
]

PHASE_NAMES = ("ucb", "ogd", "greedy")
UNVISITED_PRIOR = 0.5  # P̂ on a type-item pair not yet offered

# Longest loop call, in arrivals: the numpy twin sizes its buffers to the
# call, so a huge K still runs in calls of bounded memory.
_CALL_MAX = 1024


# ============================================================
# State and trace containers
# ============================================================

@dataclass
class LoopState:
    """Everything that persists from one arrival to the next.

    `prev_checkpoint` is the estimate matrix at the last guard checkpoint;
    `last_change` is the Frobenius movement since the checkpoint before it
    (infinite before the first checkpoint, which keeps exploration on).
    `t_global` counts arrivals handled so far across batches.
    """

    lam: np.ndarray
    remaining: np.ndarray
    counts: np.ndarray
    purchases: np.ndarray
    p_hat: np.ndarray
    type_rounds: np.ndarray
    prev_checkpoint: np.ndarray
    last_change: float = np.inf
    t_global: int = 0

    @classmethod
    def fresh(cls, n_items: int, n_types: int, budgets: np.ndarray) -> "LoopState":
        p_hat = np.full((n_types, n_items), UNVISITED_PRIOR)
        return cls(
            lam=np.zeros(n_items),
            remaining=np.asarray(budgets, dtype=float).copy(),
            counts=np.zeros((n_types, n_items), dtype=np.int64),
            purchases=np.zeros((n_types, n_items), dtype=np.int64),
            p_hat=p_hat,
            type_rounds=np.zeros(n_types, dtype=np.int64),
            prev_checkpoint=p_hat.copy(),
        )


@dataclass
class CheckpointLog:
    """Guard-interval snapshots: global index, estimate error and movement,
    dual iterate, and remaining budgets."""

    t: np.ndarray
    pref_error: np.ndarray
    change: np.ndarray
    lam: np.ndarray
    remaining: np.ndarray

    @classmethod
    def concat(cls, logs: list["CheckpointLog"]) -> "CheckpointLog":
        return cls(
            t=np.concatenate([g.t for g in logs]),
            pref_error=np.concatenate([g.pref_error for g in logs]),
            change=np.concatenate([g.change for g in logs]),
            lam=np.concatenate([g.lam for g in logs]),
            remaining=np.concatenate([g.remaining for g in logs]),
        )


@dataclass
class Trace:
    """Per-arrival log of one run (or one concatenated multi-batch run).

    `types` and `assigned` hold indices in `arrivals._index_dtype` of the
    type and item counts (int8 up to 127); `assigned` is -1 for a null
    assignment; `phase` indexes PHASE_NAMES;
    `f_vals` holds the recorded dual value after each arrival's step;
    `segment` tags each arrival with the plan segment it fell in (all zero
    for stationary runs). `carry` is the final LoopState, reusable to
    continue the same run on a further batch.
    """

    times: np.ndarray
    types: np.ndarray
    assigned: np.ndarray
    purchased: np.ndarray
    phase: np.ndarray
    f_vals: np.ndarray
    segment: np.ndarray
    t_start_index: int
    checkpoints: CheckpointLog
    lam_final: np.ndarray
    remaining_final: np.ndarray
    carry: LoopState

    def __len__(self) -> int:
        return self.times.size

    @property
    def assignment_counts(self) -> np.ndarray:
        """Non-null assignments per item, counted block by block."""
        return _item_counts(self.assigned, self.lam_final.size)

    @classmethod
    def concat(cls, pieces: list["Trace"]) -> "Trace":
        if not pieces:
            raise ValueError("nothing to concatenate")
        last = pieces[-1]
        return cls(
            times=np.concatenate([p.times for p in pieces]),
            types=np.concatenate([p.types for p in pieces]),
            assigned=np.concatenate([p.assigned for p in pieces]),
            purchased=np.concatenate([p.purchased for p in pieces]),
            phase=np.concatenate([p.phase for p in pieces]),
            f_vals=np.concatenate([p.f_vals for p in pieces]),
            segment=np.concatenate([p.segment for p in pieces]),
            t_start_index=pieces[0].t_start_index,
            checkpoints=CheckpointLog.concat([p.checkpoints for p in pieces]),
            lam_final=last.lam_final,
            remaining_final=last.remaining_final,
            carry=last.carry,
        )


def _item_counts(assigned: np.ndarray, n: int, where=None) -> np.ndarray:
    """Per-item int64 counts of the non-null entries of `assigned`, an
    array of item indices in any signed integer dtype with -1 for the null
    (only those where the boolean `where` is true, when it is given), for
    items 0..n-1; an item past n - 1 raises ValueError.

    The counts are per-block `bincount`s summed over `arrivals._BLOCK`-long
    blocks, so the masks and selections stay one block long however long
    the trace is.
    """
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in _blocks(assigned.size):
        block = assigned[lo:hi]
        keep = block >= 0
        if where is not None:
            keep &= where[lo:hi]
        counts += np.bincount(block[keep], minlength=n)
    return counts


def _loop_rng(seed: int, skip_selection: int = 0) -> np.random.Generator:
    """The generator of the loop's uniforms for `seed`: each `run_integrated`
    call over T arrivals draws T selection uniforms, then T purchase
    uniforms. `skip_selection` = T starts it at the purchase block of one
    such call."""
    rng = substream(seed, "loop")
    rng.bit_generator.advance(skip_selection)
    return rng


# ============================================================
# Full run
# ============================================================

def run_integrated(
    config: SimConfig,
    arrivals: ArrivalSequence,
    weights: np.ndarray,
    *,
    loop_state: LoopState | None = None,
    rng: np.random.Generator | None = None,
    expected_count: int | None = None,
    phi: np.ndarray | None = None,
    step_rule: str = "fixed",
    backend: str | None = None,
) -> Trace:
    """Run the online loop over one arrival batch.

    weights: the type mix the per-arrival dual objective is built with.
    loop_state: pass the previous batch's `trace.carry` to continue a run.
    expected_count: arrivals the step size and budget scale should assume
        (defaults to the realized batch length).
    phi: optional per-arrival type-probability rows for the recorded dual
        value series; defaults to the constant `weights` row.
    step_rule: "fixed" (default) sizes the gradient step off the expected
        arrival count; "decay" shrinks it as 1/sqrt(t) for open-ended runs.

    The batch runs in loop calls cut at the guard checkpoints, where the
    clock passes r_max, and every `_CALL_MAX` arrivals; where the calls are
    cut changes no output bit.

    Deterministic given (config.seed, arrivals, state); the two compute
    backends agree on all discrete outputs and to float rounding on f_vals.
    """
    inst = config.instance
    params = config.params
    n = inst.rewards.size
    m = inst.preferences.shape[0]
    T = len(arrivals)
    if T == 0:
        raise InvalidInstance("arrivals must be nonempty")

    weights = np.asarray(weights, dtype=float)
    if weights.size != m:
        raise InvalidInstance("weights length != number of types")
    # written so that NaN (which compares False) and inf both fail
    if not (np.all(weights >= 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-8):
        raise ValueError("weights must be nonnegative and sum to 1")
    arrivals.check_types(m)

    st = loop_state if loop_state is not None else LoopState.fresh(
        n, m, inst.budgets)

    expected = int(expected_count) if expected_count is not None else T
    expected = max(expected, 1)
    s_budget = 1.0 / expected
    lam_max = config.lambda_max()
    etas = step_sizes(
        T, n=n, box_upper=lam_max,
        grad_bound=default_grad_bound(n, s_budget, inst.budgets),
        horizon=expected, step_rule=step_rule, offset=st.t_global,
    )
    if np.any(st.lam < -1e-12) or np.any(st.lam > lam_max + 1e-12):
        raise ValueError("lambda must start inside [0, lambda_max]")

    if rng is None:
        rng = _loop_rng(config.seed)
    u_select = rng.random(T)
    u_purchase = rng.random(T)

    if phi is None:
        phi = np.broadcast_to(weights, (T, m))
    else:
        phi = np.ascontiguousarray(phi, dtype=float)
        if phi.shape != (T, m):
            raise InvalidInstance("phi must be (arrivals, types)")
        if not np.all(np.isfinite(phi) & (phi >= 0.0)):
            raise ValueError("phi must be finite and nonnegative")

    types = arrivals.types
    k_interval, r_max = int(params.k_interval), int(params.r_max)
    t_offset = st.t_global
    assigned = np.empty(T, dtype=_index_dtype(n))
    bought = np.empty(T, dtype=np.uint8)
    phase = np.empty(T, dtype=np.uint8)
    f_vals = np.empty(T)
    # the guard checkpoints are the multiples of K in (t_offset, t_offset + T]
    ck_t = np.arange(t_offset // k_interval + 1,
                     (t_offset + T) // k_interval + 1) * k_interval
    checkpoints = CheckpointLog(
        t=ck_t, pref_error=np.empty(ck_t.size), change=np.empty(ck_t.size),
        lam=np.empty((ck_t.size, n)), remaining=np.empty((ck_t.size, n)),
    )
    lo = c = 0
    while lo < T:
        # The phase can change only after a guard checkpoint or once the
        # clock passes r_max, so each piece up to the next such point runs
        # in one phase.
        g = t_offset + lo + 1
        learning = st.last_change > params.ucb_stop_epsilon and g <= r_max
        stop = -(-g // k_interval) * k_interval
        if g <= r_max:
            stop = min(stop, r_max)
        hi = min(T, lo + stop - g + 1, lo + _CALL_MAX)
        piece = slice(lo, hi)
        # the kernels take int64 type indices: only each call's slice widens
        assigned[piece], bought[piece], f_vals[piece] = _kernels.integrated_loop(
            types[piece].astype(np.int64), weights, phi[piece], s_budget,
            inst.preferences, inst.rewards, inst.budgets, inst.infinite_items,
            inst.mu, st.lam, st.remaining, st.counts, st.purchases, st.p_hat,
            st.type_rounds, learning, float(lam_max), etas[piece],
            u_select[piece], u_purchase[piece], backend=backend,
        )
        phase[piece] = PHASE_NAMES.index("ucb" if learning else "ogd")
        lo = hi

        if (t_offset + hi) % k_interval == 0:
            st.last_change = float(np.linalg.norm(st.p_hat - st.prev_checkpoint))
            st.prev_checkpoint[...] = st.p_hat
            checkpoints.pref_error[c] = np.linalg.norm(st.p_hat - inst.preferences)
            checkpoints.change[c] = st.last_change
            checkpoints.lam[c] = st.lam
            checkpoints.remaining[c] = st.remaining
            c += 1
    st.t_global = t_offset + T

    return Trace(
        times=arrivals.times.copy(),
        types=types.copy(),
        assigned=assigned,
        purchased=bought.astype(bool),
        phase=phase,
        f_vals=f_vals,
        segment=np.zeros(T, dtype=np.int32),
        t_start_index=t_offset,
        checkpoints=checkpoints,
        lam_final=st.lam.copy(),
        remaining_final=st.remaining.copy(),
        carry=st,
    )

