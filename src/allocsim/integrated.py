"""Online loop: bandit learning of preferences coupled with dual descent.

Each arrival is handled in four moves. Observe the customer type; pick an
item (exploration scores early, dual-driven softmax once estimates settle
or the exploration window closes); simulate the purchase from the ground
truth; then take one projected gradient step on the weighted dual using the
current estimate. The recorded per-arrival dual value series feeds regret.

State (dual iterate, preference estimate, remaining budgets, checkpoint
baseline) lives in a LoopState so a caller can thread one run across
several arrival batches, which is exactly what the segmentation driver
does. Budgets are consumed by assignment, and uncapped items never deplete.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .arrivals import ArrivalSequence
from .bandit import UNVISITED_PRIOR, PreferenceEstimate
from .dual import DualState, default_grad_bound
from .errors import LengthMismatch, NoAvailableItem
from .model import SimConfig, substream

__all__ = [
    "PHASE_NAMES",
    "LoopState",
    "CheckpointLog",
    "Trace",
    "project_box",
    "ogd_step",
    "select_by_dual",
    "run_integrated",
    "write_trace_csv",
    "write_lambda_csv",
]

PHASE_NAMES = ("ucb", "ogd", "greedy")
_CSV_BLOCK = 4096  # trace.csv rows formatted per write


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
    def fresh(cls, n_items: int, n_types: int, budgets: np.ndarray,
              prior: float = UNVISITED_PRIOR) -> "LoopState":
        p_hat = np.full((n_types, n_items), float(prior))
        return cls(
            lam=np.zeros(n_items),
            remaining=np.asarray(budgets, dtype=float).copy(),
            counts=np.zeros((n_types, n_items), dtype=np.int64),
            purchases=np.zeros((n_types, n_items), dtype=np.int64),
            p_hat=p_hat,
            type_rounds=np.zeros(n_types, dtype=np.int64),
            prev_checkpoint=p_hat.copy(),
        )

    def estimate(self) -> PreferenceEstimate:
        return PreferenceEstimate(
            counts=self.counts.copy(),
            purchases=self.purchases.copy(),
            p_hat=self.p_hat.copy(),
            type_rounds=self.type_rounds.copy(),
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
    def empty(cls, n_items: int) -> "CheckpointLog":
        return cls(
            t=np.empty(0, dtype=np.int64),
            pref_error=np.empty(0),
            change=np.empty(0),
            lam=np.empty((0, n_items)),
            remaining=np.empty((0, n_items)),
        )

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

    `assigned` is -1 for a null assignment; `phase` indexes PHASE_NAMES;
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
    seed: int
    t_start_index: int
    checkpoints: CheckpointLog
    estimate: PreferenceEstimate
    lam_final: np.ndarray
    remaining_final: np.ndarray
    carry: LoopState

    def __len__(self) -> int:
        return self.times.size

    @property
    def assignment_counts(self) -> np.ndarray:
        """Non-null assignments per item."""
        n = self.lam_final.size
        sel = self.assigned[self.assigned >= 0]
        return np.bincount(sel, minlength=n)[:n]

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
            seed=pieces[0].seed,
            t_start_index=pieces[0].t_start_index,
            checkpoints=CheckpointLog.concat([p.checkpoints for p in pieces]),
            estimate=last.estimate,
            lam_final=last.lam_final,
            remaining_final=last.remaining_final,
            carry=last.carry,
        )


# ============================================================
# Single-step operations
# ============================================================

def project_box(y: np.ndarray, lam_max: float) -> np.ndarray:
    """Clamp each coordinate to [0, lam_max]."""
    if not lam_max > 0.0:
        raise ValueError("lam_max must be positive")
    return np.clip(np.asarray(y, dtype=float), 0.0, lam_max)


def ogd_step(state: DualState, grad: np.ndarray, t: int) -> DualState:
    """One projected gradient step; returns a new state that records t."""
    grad = np.asarray(grad, dtype=float)
    if grad.size != state.lam.size:
        raise LengthMismatch("gradient length != lambda length")
    moved = state.lam - state.step_size(t) * grad
    return dataclasses.replace(state, lam=project_box(moved, state.box_upper), t=t)


def select_by_dual(
    lam: np.ndarray,
    p_hat: np.ndarray,
    j: int,
    available: np.ndarray,
    rng: np.random.Generator,
    *,
    rewards: np.ndarray,
    mu: float,
) -> int:
    """Sample an item from the dual-driven softmax row, restricted to
    available items and renormalized.

    The row scale uses the full estimated row's maximum, matching the
    primal recovery map; when the whole row estimates to zero the draw is
    uniform over what is available.
    """
    available = np.asarray(available, dtype=bool)
    if not available.any():
        raise NoAvailableItem(f"no item available for type {j}")
    row = np.asarray(p_hat, dtype=float)[j]
    p_bar = row.max()
    if p_bar <= 0.0:
        wts = available.astype(float)
    else:
        e = np.where(available, (np.asarray(rewards, dtype=float) - lam) * row / (p_bar * mu), -np.inf)
        wts = np.exp(e - e.max())
        wts[~available] = 0.0
    cum = np.cumsum(wts)
    u = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx >= wts.size:
        idx = int(np.flatnonzero(wts > 0.0)[-1])
    return idx


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

    Deterministic given (config.seed, arrivals, state); the two compute
    backends agree on all discrete outputs and to float rounding on f_vals.
    """
    inst = config.instance
    params = config.params
    n = inst.rewards.size
    m = inst.preferences.shape[0]
    T = len(arrivals)
    if T == 0:
        raise ValueError("arrivals must be nonempty")

    weights = np.asarray(weights, dtype=float)
    if weights.size != m:
        raise LengthMismatch("weights length != number of types")
    if abs(float(weights.sum()) - 1.0) > 1e-8:
        raise ValueError("weights must sum to 1")

    st = loop_state if loop_state is not None else LoopState.fresh(
        n, m, inst.budgets)

    expected = int(expected_count) if expected_count is not None else T
    expected = max(expected, 1)
    s_budget = 1.0 / expected
    lam_max = params.lambda_max if params.lambda_max is not None else inst.r_star
    grad_bound = default_grad_bound(n, s_budget, inst.budgets)
    dual_state = DualState(
        lam=st.lam.copy(), box_upper=lam_max, grad_bound=grad_bound,
        horizon=expected, step_rule=step_rule,
    )
    etas = dual_state.eta_array(T, offset=st.t_global)

    if rng is None:
        rng = np.random.default_rng(substream(config.seed, "loop"))
    u_select = rng.random(T)
    u_purchase = rng.random(T)

    if phi is None:
        phi_arr = weights[None, :].copy()
        phi_constant = True
    else:
        phi_arr = np.ascontiguousarray(phi, dtype=float)
        if phi_arr.shape != (T, m):
            raise LengthMismatch("phi must be (arrivals, types)")
        phi_constant = False

    t_offset = st.t_global
    out = _kernels.integrated_loop(
        arrivals.types.astype(np.int64),
        weights,
        phi_arr,
        phi_constant,
        s_budget,
        inst.preferences,
        inst.rewards,
        inst.budgets,
        inst.infinite_items,
        inst.mu,
        st.lam,
        st.remaining,
        st.counts,
        st.purchases,
        st.p_hat,
        st.type_rounds,
        float(st.last_change),
        st.prev_checkpoint,
        int(params.r_max),
        int(params.k_interval),
        float(params.ucb_stop_epsilon),
        float(lam_max),
        etas,
        t_offset,
        u_select,
        u_purchase,
        backend=backend,
    )
    (assigned, bought, phase, f_vals, last_change,
     ck_t, ck_err, ck_chg, ck_lam, ck_rem) = out

    st.last_change = float(last_change)
    st.t_global = t_offset + T

    checkpoints = CheckpointLog(
        t=ck_t, pref_error=ck_err, change=ck_chg, lam=ck_lam, remaining=ck_rem,
    )
    return Trace(
        times=arrivals.times.copy(),
        types=arrivals.types.astype(np.int64),
        assigned=assigned,
        purchased=bought.astype(bool),
        phase=phase,
        f_vals=f_vals,
        segment=np.zeros(T, dtype=np.int32),
        seed=config.seed,
        t_start_index=t_offset,
        checkpoints=checkpoints,
        estimate=st.estimate(),
        lam_final=st.lam.copy(),
        remaining_final=st.remaining.copy(),
        carry=st,
    )


# ============================================================
# CSV export
# ============================================================

def write_trace_csv(trace: Trace, path) -> None:
    """Per-arrival CSV: t,time,type,item,purchased,phase (item blank when null).

    Rows are formatted from Python scalars a block at a time, which keeps
    the memory for formatted text to one block.
    """
    with open(path, "w", newline="") as fh:
        fh.write("t,time,type,item,purchased,phase\n")
        first = trace.t_start_index + 1
        for lo in range(0, len(trace), _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, len(trace))
            fh.writelines(
                f"{t},{time:.9g},{j},{'' if item < 0 else item},{bought:d},"
                f"{PHASE_NAMES[phase]}\n"
                for t, time, j, item, bought, phase in zip(
                    range(first + lo, first + hi),
                    trace.times[lo:hi].tolist(),
                    trace.types[lo:hi].tolist(),
                    trace.assigned[lo:hi].tolist(),
                    trace.purchased[lo:hi].tolist(),
                    trace.phase[lo:hi].tolist(),
                )
            )


def write_lambda_csv(trace: Trace, path) -> None:
    """Checkpoint snapshots of the dual iterate: t,lambda_1..lambda_n."""
    ck = trace.checkpoints
    n = trace.lam_final.size
    header = "t," + ",".join(f"lambda_{i + 1}" for i in range(n))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for k in range(ck.t.size):
            row = ",".join(f"{v:.9g}" for v in ck.lam[k])
            fh.write(f"{int(ck.t[k])},{row}\n")
