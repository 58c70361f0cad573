"""The per-arrival integrated loop, compiled with numba when available.

A loop call runs one piece of a batch in one phase: UCB learning when
`learning` is set, dual-driven pricing otherwise. `run_integrated` cuts the
batch at the guard checkpoints and where the clock passes r_max, decides
each piece's phase and takes the checkpoints itself, so the kernels hold
only per-arrival work and both backends share one phase rule. The
per-arrival type-probability rows `phi` always arrive as a (T, m) array,
a zero-stride view when they are constant.

Two implementations of the same per-arrival loop live here:

* a scalar kernel (`_integrated_scalar`) that numba compiles, which takes
  every softmax row it needs (the pricing draw, the dual gradient and the
  recorded dual value) from one helper, `_exp_row`, and
* a vectorized pure-numpy twin (`_integrated_numpy`), whose full softmax is
  `dual.py`'s: `_row_scale` and `_softmax_rows`, the same code the offline
  solver and the metrics evaluate the dual with.

The numpy twin's cost is numpy call overhead on small arrays, so it keeps
the full m x n softmax at the current iterate and estimate cached and, per
arrival, recomputes only the estimate row the arrival moved, right before
the gradient. The cached row for an arrival's type, times the availability
mask, is its selection weights (the same distribution as the masked,
renormalized row the scalar kernel builds). The row divisors p_bar mu are
kept as a materialized (m, n) matrix, so the softmax divides two arrays of
one shape instead of broadcasting a column; a row's p_bar is taken from the
cell that moved, rescanned only when the cell that held it went down, and
the row is refilled only when p_bar changes. The availability mask, a
score cap (-inf on sold-out items) and a per-type count of unvisited items
are updated per arrival the same way; counts, purchases and remaining
stock are Python numbers within a call, and the gradient is one matvec.

A dual step is followed by one full softmax at the new iterate, except
while lambda is pinned at zero. When every entry of lambda is +0.0 and no
capped item's consumption (the gradient's matvec) exceeds its floor s b_i,
floor - consumption >= 0 holds in floating point, so the step lands at or
below 0 and projects back to +0.0; lambda and r - lambda stay as they are,
and the cache differs from the full softmax only in the row already
refreshed. Such an arrival skips the step and the full softmax, and the
matvec's operands w / Z and p_hat W are updated in that row only. The
consumption test is written so that NaN fails it. The pinned flag is set
only by the call's own projected step, never from the incoming state, so
it resets at each piece: a piece's first arrival takes the full step.

The recorded dual values are deferred: the loop runs in chunks of
`_DUAL_CHUNK` arrivals. A full step writes its post-step shift, Z, p_bar
and lambda into a row of history buffers; a pinned arrival writes only
column j of shift, Z and p_bar (nothing on a null assignment). At the end
of each chunk every unwritten cell is copied from the last row above that
wrote its column, row 0 carrying the state from before the chunk, and one
stacked pass turns the rows into f_vals, with products that round like the
per-row ones. A chunk's per-arrival inputs are read as Python scalars when
it starts. The caches are rebuilt at call start from the state with the
expressions the loop uses, so chained calls match one call bit for bit.

The default backend, `BACKEND`, is read at import from ALLOCSIM_BACKEND
("numba" or "numpy"; default numba when importable) but checked only when a
loop runs: an unknown name raises ValueError, and numba where numba does not
import raises BackendUnavailable, so a bad setting never breaks the import.
All randomness is pre-drawn by the caller (`u_select`, `u_purchase`), so a
run is reproducible bit-for-bit per backend: the two backends make the same
discrete choices and agree to float rounding (their summation orders
differ). Budgets are consumed by assignment: each non-null assignment
of a capped item takes one unit of its remaining stock.
"""

from __future__ import annotations

import os

import numpy as np

from .dual import _row_scale, _softmax_rows
from .errors import BackendUnavailable

__all__ = [
    "BACKEND",
    "HAS_NUMBA",
    "available_backends",
    "integrated_loop",
]

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


BACKENDS = ("numba", "numpy")
BACKEND = os.environ.get("ALLOCSIM_BACKEND", "").strip().lower() or (
    "numba" if HAS_NUMBA else "numpy"
)


def available_backends() -> tuple[str, ...]:
    return BACKENDS if HAS_NUMBA else ("numpy",)


def _resolve(backend: str | None) -> str:
    """The backend a loop call runs on: `backend`, else the default."""
    name = BACKEND if backend is None else backend
    source = "ALLOCSIM_BACKEND" if backend is None else "backend"
    if name not in BACKENDS:
        raise ValueError(f"{source}={name!r} not recognized (use numba or numpy)")
    if name not in available_backends():
        raise BackendUnavailable(
            f"{source}={name!r} requested but numba is not importable "
            "(install the numba extra, or use numpy)"
        )
    return name


# ============================================================
# Integrated loop, scalar form (numba target)
# ============================================================

@njit(cache=True)
def _exp_row(p_row, rewards, lam, mu, infinite, remaining, masked, out):
    """One row of the dual's softmax over items, shifted by its maximum.

    Fills `out` with exp(e_i - shift), e_i = (r_i - lam_i) p_i / (p_bar mu),
    where p_bar is the row maximum, taken as 1 on an all-zero row, and shift
    is the largest e_i. With `masked`, sold-out items get 0 and the shift is
    taken over in-stock items only. Returns (row maximum, shift, sum of out);
    the returned row maximum is 0 on an all-zero row.
    """
    n = out.shape[0]
    pbar = 0.0
    for i in range(n):
        if p_row[i] > pbar:
            pbar = p_row[i]
    scale = (pbar if pbar > 0.0 else 1.0) * mu
    shift = -np.inf
    for i in range(n):
        if masked and not (infinite[i] or remaining[i] >= 1.0):
            continue
        e = (rewards[i] - lam[i]) * p_row[i] / scale
        out[i] = e
        if e > shift:
            shift = e
    total = 0.0
    for i in range(n):
        if masked and not (infinite[i] or remaining[i] >= 1.0):
            out[i] = 0.0
        else:
            out[i] = np.exp(out[i] - shift)
            total += out[i]
    return pbar, shift, total


def _integrated_scalar(
    types,
    weights,
    phi,
    s_budget,
    p_true,
    rewards,
    budgets,
    infinite,
    mu,
    lam,
    remaining,
    counts,
    purchases,
    p_hat,
    type_rounds,
    learning,
    lam_max,
    etas,
    u_select,
    u_purchase,
):
    T = types.shape[0]
    m, n = p_true.shape
    assigned = np.empty(T, dtype=np.int64)
    bought = np.zeros(T, dtype=np.uint8)
    f_vals = np.empty(T, dtype=np.float64)

    grad = np.empty(n, dtype=np.float64)
    xrow = np.empty(n, dtype=np.float64)

    for t in range(T):
        j = types[t]
        type_rounds[j] += 1

        n_avail = 0
        for i in range(n):
            if infinite[i] or remaining[i] >= 1.0:
                n_avail += 1

        sel = -1
        if n_avail > 0:
            if learning:
                best_score = -np.inf
                log_tj = np.log(np.float64(type_rounds[j]))
                for i in range(n):
                    if not (infinite[i] or remaining[i] >= 1.0):
                        continue
                    if counts[j, i] == 0:
                        score = np.inf
                    else:
                        score = p_hat[j, i] + np.sqrt(1.5 * log_tj / counts[j, i])
                    if score > best_score:
                        best_score = score
                        sel = i
            else:
                _, _, total = _exp_row(p_hat[j], rewards, lam, mu, infinite,
                                       remaining, True, xrow)
                u = u_select[t] * total
                acc = 0.0
                for i in range(n):
                    if xrow[i] > 0.0:
                        acc += xrow[i]
                        if u < acc:
                            sel = i
                            break
                if sel == -1:
                    for i in range(n - 1, -1, -1):
                        if xrow[i] > 0.0:
                            sel = i
                            break

        assigned[t] = sel
        if sel >= 0:
            if u_purchase[t] < p_true[j, sel]:
                bought[t] = 1
                purchases[j, sel] += 1
            if not infinite[sel]:
                remaining[sel] -= 1.0
            counts[j, sel] += 1
            p_hat[j, sel] = purchases[j, sel] / counts[j, sel]

        # gradient of the weighted dual at the pre-step iterate
        for i in range(n):
            if infinite[i]:
                grad[i] = 0.0
            else:
                grad[i] = s_budget * budgets[i]
        for jj in range(m):
            w = weights[jj]
            if w <= 0.0:
                continue
            _, _, z = _exp_row(p_hat[jj], rewards, lam, mu, infinite,
                               remaining, False, xrow)
            for i in range(n):
                if not infinite[i]:
                    grad[i] -= w * p_hat[jj, i] * xrow[i] / z

        eta = etas[t]
        for i in range(n):
            if infinite[i]:
                lam[i] = 0.0
            else:
                v = lam[i] - eta * grad[i]
                if v < 0.0:
                    v = 0.0
                elif v > lam_max:
                    v = lam_max
                lam[i] = v

        # recorded dual value at the post-step iterate
        fval = 0.0
        for jj in range(m):
            ph = phi[t, jj]
            if ph == 0.0:
                continue
            pbar, shift, z = _exp_row(p_hat[jj], rewards, lam, mu, infinite,
                                      remaining, False, xrow)
            fval += ph * mu * pbar * (shift + np.log(z))
        for i in range(n):
            if not infinite[i]:
                fval += s_budget * lam[i] * budgets[i]
        f_vals[t] = fval

    return assigned, bought, f_vals


_integrated_jit = njit(cache=True)(_integrated_scalar) if HAS_NUMBA else None


# ============================================================
# Integrated loop, vectorized numpy fallback
# ============================================================

# A masked selection row whose weights sum below this has lost its available
# items to underflow against a sold-out item's larger exponent; it is then
# recomputed with the shift taken over available items only.
_SELECT_UNDERFLOW = 1e-200

# Arrivals per chunk of the numpy twin: its per-arrival inputs are read as
# Python scalars, and its recorded dual values computed, a chunk at a time.
_DUAL_CHUNK = 256


def _integrated_numpy(
    types, weights, phi, s_budget, p_true, rewards, budgets, infinite, mu,
    lam, remaining, counts, purchases, p_hat, type_rounds, learning, lam_max,
    etas, u_select, u_purchase,
):
    T = types.shape[0]
    m, n = p_true.shape
    assigned = np.empty(T, dtype=np.int64)
    bought = np.empty(T, dtype=np.uint8)
    f_vals = np.empty(T, dtype=np.float64)

    # small and integer state read as Python numbers; the integer state is
    # written back at the end (counts also per arrival while learning)
    (p_true_l, infinite_l, rounds_l, weights_l, rem_l, counts_l, purch_l,
     p_hat_l) = (a.tolist() for a in (p_true, infinite, type_rounds, weights,
                                      remaining, counts, purchases, p_hat))

    fin_budgets = np.where(infinite, 0.0, budgets)
    grad_floor = s_budget * fin_budgets
    # Box upper bound per item; 0 on uncapped items pins their price at 0,
    # so their gradient entries never reach the iterate.
    lam_hi = np.where(infinite, 0.0, lam_max)
    zeros = np.zeros(n)
    # consumption bound under which a step from lam = +0 projects back to +0;
    # the test against it is written so that NaN (which compares False) fails
    pin_bound = np.where(infinite, np.inf, grad_floor)
    within = np.empty(n, dtype=bool)
    # lam's bytes when every entry is +0.0 (not -0.0, which a step may flip)
    zero_bytes = zeros.tobytes()
    available = infinite | (remaining >= 1.0)
    mask = available.astype(np.float64)
    # capping a score row at `cap` sends sold-out items to -inf
    cap = np.where(available, np.inf, -np.inf)
    n_avail = int(np.count_nonzero(available))
    unseen = np.count_nonzero(counts == 0, axis=1).tolist()

    # Caches, rebuilt from the state with the expressions the loop refreshes
    # them with, so a run split into chained calls matches one call bit for
    # bit. scale = p_bar mu with p_bar := 1 on an all-zero row, materialized
    # as the (m, n) divisor matrix `div`; W and Z are the shifted
    # exponentials and their row sums at (lam, p_hat), which `_softmax_rows`
    # fills here and after every dual step that is not skipped as pinned.
    # While pinned, the gradient operands wz = w / Z and PW = p_hat W are
    # kept current row by row; otherwise they are recomputed before use.
    rl = rewards - lam
    pbar, scale = _row_scale(p_hat, mu)
    pbar_l = pbar.tolist()
    div = np.repeat(scale[:, None], n, axis=1)
    E, W, PW = np.empty((3, m, n))
    Z, wz = np.empty((2, m))
    grad, step, wts, cum, scores = np.empty((5, n))
    p_rows, E_rows, W_rows, PW_rows, div_rows = (
        list(a) for a in (p_hat, E, W, PW, div))

    # Deferred dual values: row k + 1 of the history buffers holds arrival
    # k's post-step state, row 0 the state before the chunk. `record` fills
    # the cells pinned arrivals left from the last row above that wrote their
    # column (`owner` per cell, lam's in column m), then turns the rows into
    # f_vals with stacked products that round like the per-row ones.
    h_shift, h_z, h_pbar = np.empty((3, _DUAL_CHUNK + 1, m))
    h_lam = np.empty((_DUAL_CHUNK + 1, n))
    h_log = np.empty((_DUAL_CHUNK, m))
    owner = np.zeros((_DUAL_CHUNK + 1, m + 1), dtype=np.intp)
    cols = np.arange(m)

    def record(lo, size, full):
        end = size + 1
        if len(full) < size:
            held = owner[:end]
            held[full] = np.array(full, dtype=np.intp)[:, None]
            np.maximum.accumulate(held, axis=0, out=held)
            h_lam[:end] = h_lam[held[:, m]]
            for h in (h_shift, h_z, h_pbar):
                h[:end] = h[held[:, :m], cols]
            held.fill(0)
        log_z = h_log[:size]
        np.log(h_z[1:end], out=log_z)
        np.add(log_z, h_shift[1:end], out=log_z)
        np.multiply(h_pbar[1:end], log_z, out=log_z)
        mix = np.matmul(phi[lo:lo + size, None, :], log_z[:, :, None])
        spent = np.matmul(h_lam[1:end, None, :], fin_budgets[:, None])
        f_vals[lo:lo + size] = mu * mix[:, 0, 0] + s_budget * spent[:, 0, 0]
        # the chunk's last row is the next chunk's row 0
        for h in (h_shift, h_z, h_pbar, h_lam):
            h[0] = h[size]

    state_lam = lam
    _softmax_rows(rl, p_hat, div, E, W, h_shift[0], Z)
    # Set only by this call's own projected step, so a call's first arrival
    # always steps (and the first chunk never reads row 0) and chained calls
    # match one call bit for bit.
    pinned = False
    for lo in range(0, T, _DUAL_CHUNK):
        size = min(_DUAL_CHUNK, T - lo)
        # the chunk's per-arrival inputs as Python scalars
        types_c, u_select_c, u_purchase_c, etas_c = (
            a[lo:lo + size].tolist() for a in (types, u_select, u_purchase, etas))
        sels, buys, full = [], [], []
        for k in range(size):
            j, k1 = types_c[k], k + 1
            rounds_l[j] += 1

            sel = -1
            if n_avail:
                if learning:
                    row_counts = counts[j]
                    # unvisited items score inf; once a type has visited
                    # every item its counts need no floor and its row no mask
                    np.divide(1.5 * np.log(np.float64(rounds_l[j])),
                              np.maximum(row_counts, 1) if unseen[j] else row_counts,
                              out=scores)
                    np.sqrt(scores, out=scores)
                    np.add(p_rows[j], scores, out=scores)
                    if unseen[j]:
                        scores[row_counts == 0] = np.inf
                    np.minimum(scores, cap, out=scores)
                    sel = int(scores.argmax())
                else:
                    # Row j of the cached softmax at (lam, p_hat), masked, is
                    # a positive multiple of the masked row shifted by its
                    # own maximum, so it samples the same distribution. An
                    # all-zero estimate row is all ones: uniform over what is
                    # available.
                    np.multiply(W_rows[j], mask, out=wts)
                    np.add.accumulate(wts, out=cum)
                    total = cum[-1]
                    if total < _SELECT_UNDERFLOW:
                        np.multiply(rl, p_rows[j], out=wts)
                        np.divide(wts, div_rows[j], out=wts)
                        np.minimum(wts, cap, out=wts)
                        np.exp(wts - np.maximum.reduce(wts), out=wts)
                        np.add.accumulate(wts, out=cum)
                        total = cum[-1]
                    sel = int(cum.searchsorted(u_select_c[k] * total, side="right"))
                    if sel >= n:
                        sel = int(np.flatnonzero(wts > 0.0)[-1])

            bought_now = sel >= 0 and u_purchase_c[k] < p_true_l[j][sel]
            sels.append(sel)
            buys.append(bought_now)
            if sel >= 0:
                purch_row, p_hat_row = purch_l[j], p_hat_l[j]
                if bought_now:
                    purch_row[sel] += 1
                if not infinite_l[sel]:
                    rem_l[sel] -= 1.0
                    if rem_l[sel] < 1.0:
                        mask[sel] = 0.0
                        cap[sel] = -np.inf
                        n_avail -= 1
                visits = counts_l[j][sel] = counts_l[j][sel] + 1
                if learning:
                    counts[j, sel] = visits
                if visits == 1:
                    unseen[j] -= 1
                # the int quotient rounds as numpy's int64 division does
                est = purch_row[sel] / visits
                old = p_hat_row[sel]
                p_hat_row[sel] = p_hat[j, sel] = est

                # only row j of the estimate moved: refresh its caches, with
                # the dual.py softmax written out for one row (cheaper than a
                # call). Its maximum is the moved cell or stays, unless the
                # cell that held it went down.
                pbar_old = pbar_l[j]
                pbar_j = (est if est >= pbar_old else pbar_old if old < pbar_old
                          else max(p_hat_row))
                if pbar_j != pbar_old:
                    pbar_l[j] = pbar[j] = pbar_j
                    div_rows[j].fill((pbar_j if pbar_j > 0.0 else 1.0) * mu)
                p_row, e_row, w_row = p_rows[j], E_rows[j], W_rows[j]
                np.multiply(rl, p_row, out=e_row)
                np.divide(e_row, div_rows[j], out=e_row)
                shift_j = max(e_row.tolist())
                np.subtract(e_row, shift_j, out=e_row)
                np.exp(e_row, out=w_row)
                Z[j] = z_j = np.add.reduce(w_row)
                if pinned:
                    wz[j] = weights_l[j] / z_j
                    np.multiply(p_row, w_row, out=PW_rows[j])

            # gradient of the weighted dual at the pre-step iterate, one
            # matvec; the projected step lands in the arrival's history row
            if not pinned:
                np.divide(weights, Z, out=wz)
                np.multiply(p_hat, W, out=PW)
            np.matmul(wz, PW, out=grad)
            if pinned and all(np.less_equal(grad, pin_bound, out=within).tolist()):
                # lam = +0 and no capped item consumes above its floor s b_i:
                # the step is <= 0 and projects back to +0, so lam and rl
                # stay, and the caches differ from the full softmax's only in
                # row j, which the refresh above has recomputed
                if sel >= 0:
                    h_shift[k1, j] = shift_j
                    h_z[k1, j] = z_j
                    h_pbar[k1, j] = pbar_j
                    owner[k1, j] = k1
            else:
                full.append(k1)
                np.subtract(grad_floor, grad, out=grad)
                np.multiply(grad, etas_c[k], out=grad)
                np.subtract(lam, grad, out=step)
                np.minimum(step, lam_hi, out=step)
                lam = h_lam[k1]
                np.maximum(step, zeros, out=lam)
                pinned = lam.tobytes() == zero_bytes

                # the full softmax: the recorded dual value's log Z, and the
                # selection and gradient rows of the next arrival
                np.subtract(rewards, lam, out=rl)
                _softmax_rows(rl, p_hat, div, E, W, h_shift[k1], Z)
                h_z[k1] = Z
                h_pbar[k1] = pbar
                if pinned:
                    np.divide(weights, Z, out=wz)
                    np.multiply(p_hat, W, out=PW)
        assigned[lo:lo + size] = sels
        bought[lo:lo + size] = buys
        record(lo, size, full)
        lam = h_lam[0]

    for state, now in ((state_lam, lam), (type_rounds, rounds_l), (remaining, rem_l),
                       (counts, counts_l), (purchases, purch_l)):
        state[...] = now

    return assigned, bought, f_vals


# ============================================================
# Dispatch
# ============================================================

def integrated_loop(*args, backend: str | None = None):
    """Run one piece of arrivals, all in one phase, on the selected backend.

    Returns (assigned, bought, f_vals). Mutates the state arrays (lam,
    remaining, counts, purchases, p_hat, type_rounds) in place; callers pass
    copies they own.
    """
    if _resolve(backend) == "numba":
        return _integrated_jit(*args)
    return _integrated_numpy(*args)

