"""The per-arrival integrated loop, compiled with numba when available.

A loop call runs one piece of a batch in one phase: UCB learning when
`learning` is set, dual-driven pricing otherwise. `run_integrated` cuts the
batch at the guard checkpoints, where the clock passes r_max and every
`_CALL_MAX` arrivals, decides each piece's phase and takes the checkpoints
itself, so the kernels hold only per-arrival work, both backends share one
phase rule, and one module decides how long a call is. The
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
one shape instead of broadcasting a column; a moved row's p_bar is its
maximum, and its divisor row is refilled. The availability mask and a
score cap (-inf on sold-out items) are updated per arrival; counts,
purchases and remaining stock are Python numbers within a call, and the
gradient is one matvec. Every arrival the loop takes one at a time makes
the full dual step and is followed by one full softmax at the new iterate.

While lambda is pinned at zero and some item is in stock, arrivals are
taken a run at once. When every entry of lambda is +0.0 (the call's own
last step landed there) and no capped item's consumption (the gradient's
matvec) exceeds its floor s b_i, floor - consumption >= 0 holds in floating
point, so a step lands at or below 0 and projects back to +0.0: lambda and
r - lambda stay, and the cache differs from the full softmax only in the
rows the arrivals moved. An arrival's choice then depends only on its own
type's estimate row (and, while learning, that type's counts and clock),
the availability mask and its pre-drawn uniforms, so arrivals of different
types are independent until a capped item sells out. The pinned run takes
the rest of the call in one of two ways:

* with one item i in stock, every choice is i (the selection row's
  cumulative sum, and its underflow recompute, return i for every u), and
  one closed form gives each arrival's estimate from per-type running
  visits and sales, exactly the int quotient;
* with more, in rounds: round r takes the r-th arrival of every type (its
  rank by a stable sort) as one (<= m, n) block, selecting by UCB scores
  or by the masked cumulative softmax weights, with the `_SELECT_UNDERFLOW`
  recompute done in-block for the rows that need it, then draws the
  purchases and moves one count and estimate cell per row. Pricing rounds
  refresh their rows' softmax, which the next round selects from; learning
  rounds refresh all their rows in one stacked pass at the end.

Both refresh with `dual.py`'s `_row_scale` / `_softmax_rows`, which round
as the per-arrival row refresh does. A shared tail then cuts the run after
the arrival that takes a capped item's last unit (stock minus k is exact,
as each step of -1 is) and before the first arrival that fails the pinned
test. That test gathers every type's row as it stands after each arrival
and takes one stacked matvec. Every term w_j / Z_j p_ji W_ji is >= 0
(`run_integrated` refuses negative weights), so any summation order, fused
or not, lies within about m 2^-53 of the exact sum, relative, and two
orders within about twice that of each other; the run counts an arrival
as pinned only if consumption (1 + 4 m 2^-53) <= s b_i for every capped
item. The arrival that ends a run goes the per-arrival way, whose step
from +0.0 lands on +0.0 bit for bit when the exact test would pass. The
tail commits each moved type's state and caches as its last included
arrival left them. The pinned flag is set only by the call's own projected
step, never from the incoming state, so a piece's first arrival takes the
full step.

The recorded dual values are deferred: every arrival writes its post-step
shift, Z, p_bar and lambda into a row of history buffers sized to the call,
a full step from its softmax, a pinned run from the same per-arrival gather
of every type's row that its test takes. At the end of the call one stacked
pass turns the rows into f_vals, with products that round like the
per-row ones. The call's per-arrival inputs are read as Python scalars
when it starts. The caches are rebuilt at call start from the state with
the expressions the loop uses, so chained calls match one call bit for
bit.

Only this module picks the backend: `BACKEND`, read at import from
ALLOCSIM_BACKEND ("numba" or "numpy"; default numba when importable), which
`run_integrated(backend=)` overrides for one call. It is checked only when a
loop runs: an unknown name, or numba where numba does not import, raises
BackendUnavailable, so a bad setting never breaks the import.
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
        raise BackendUnavailable(f"{source}={name!r} not recognized (use numba or numpy)")
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


def _stacked_consumption(wz, PW):
    """Row k is wz[k] @ PW[k]: the consumption at each arrival of a pinned
    run, in one stacked matmul whose summation order may differ from the
    per-arrival matvec's."""
    return np.matmul(wz[:, None, :], PW)[:, 0]


def _integrated_numpy(
    types, weights, phi, s_budget, p_true, rewards, budgets, infinite, mu,
    lam, remaining, counts, purchases, p_hat, type_rounds, learning, lam_max,
    etas, u_select, u_purchase,
):
    T = types.shape[0]
    m, n = p_true.shape

    # small and integer state and the per-arrival inputs read as Python
    # numbers; the integer state is written back at the end (counts also per
    # arrival while learning)
    (p_true_l, infinite_l, rounds_l, rem_l, counts_l, purch_l, p_hat_l, types_l,
     u_select_l, u_purchase_l, etas_l) = (
        a.tolist() for a in (p_true, infinite, type_rounds, remaining, counts,
                             purchases, p_hat, types, u_select, u_purchase, etas))

    fin_budgets = np.where(infinite, 0.0, budgets)
    grad_floor = s_budget * fin_budgets
    # Box upper bound per item; 0 on uncapped items pins their price at 0,
    # so their gradient entries never reach the iterate.
    lam_hi = np.where(infinite, 0.0, lam_max)
    zeros = np.zeros(n)
    # consumption bound under which a step from lam = +0 projects back to +0;
    # the test against it is written so that NaN (which compares False) fails
    pin_bound = np.where(infinite, np.inf, grad_floor)
    # lam's bytes when every entry is +0.0 (not -0.0, which a step may flip)
    zero_bytes = zeros.tobytes()
    available = infinite | (remaining >= 1.0)
    mask = available.astype(np.float64)
    # capping a score row at `cap` sends sold-out items to -inf
    cap = np.where(available, np.inf, -np.inf)
    n_avail = int(np.count_nonzero(available))

    # Caches, rebuilt from the state with the expressions the loop refreshes
    # them with, so a run split into chained calls matches one call bit for
    # bit. scale = p_bar mu with p_bar := 1 on an all-zero row, materialized
    # as the (m, n) divisor matrix `div`; W and Z are the shifted
    # exponentials and their row sums at (lam, p_hat), which `_softmax_rows`
    # fills here and after every dual step. The gradient operands
    # wz = w / Z and PW = p_hat W are recomputed before each step.
    rl = rewards - lam
    pbar, scale = _row_scale(p_hat, mu)
    div = np.repeat(scale[:, None], n, axis=1)
    E, W, PW = np.empty((3, m, n))
    Z, wz = np.empty((2, m))
    grad, step, wts, cum, scores = np.empty((5, n))
    p_rows, E_rows, W_rows, div_rows = (list(a) for a in (p_hat, E, W, div))

    # Deferred dual values: row k + 1 of the history buffers holds arrival
    # k's post-step state (every arrival writes its whole row, a pinned one
    # from its run's rows), row 0 the state at call start. One stacked pass
    # at the end turns the rows into f_vals.
    h_shift, h_z, h_pbar = np.empty((3, T + 1, m))
    h_lam = np.empty((T + 1, n))

    # a pinned test with room for any summation order of m products >= 0
    pin_margin = 1.0 + 4 * m * 2.0**-53
    # A pinned run's estimate rows and their softmax: row j < m is type j's
    # row as the run found it, row m + q the q-th row the run produced.
    P_s, E_s, W_s = np.empty((3, m + T, n))
    shift_s, Z_s, pbar_s, scale_s = np.empty((4, m + T))

    def refresh(q):
        """The softmax of the run's rows in slice `q`, rounded as the
        per-arrival row refresh rounds it."""
        pbar_s[q], scale_s[q] = _row_scale(P_s[q], mu)
        _softmax_rows(rl, P_s[q], scale_s[q, None], E_s[q], W_s[q], shift_s[q],
                      Z_s[q])

    def rounds(t, lo, counts0, purch0):
        """Each arrival's choice and purchase, for arrivals of types `t`
        from `lo` on with lam pinned and the stock mask fixed. Round r takes
        the r-th arrival of every type as one block and writes its rows at
        m + q, q in round order; returns (sel, bought, row) per arrival."""
        K = t.size
        # each arrival's rank among its type's arrivals, and the row it
        # selects from: its type's row before the run, or its last run row
        by_type = np.argsort(t, kind="stable")
        n_of = np.bincount(t, minlength=m)
        rank = np.arange(K) - np.repeat(np.cumsum(n_of) - n_of, n_of)
        order = np.argsort(rank, kind="stable")
        row = np.empty(K, dtype=np.intp)
        row[by_type[order]] = qs = np.arange(m, m + K)
        prev = np.concatenate(([0], row[by_type[:-1]]))
        first = rank == 0
        prev[first] = t[by_type[first]]
        ranks, prev, arr = rank[order], prev[order], by_type[order]
        tq, u_sel, u_buy = t[arr], u_select[lo + arr], u_purchase[lo + arr]
        if learning:
            bonus = 1.5 * np.log(np.array(rounds_l)[tq] + ranks + 1)
        counts_w, purch_w = counts0.copy(), purch0.copy()
        sel, bought = [], []
        a = 0
        for b in np.cumsum(np.bincount(ranks)).tolist():
            j, rows, q = tq[a:b], prev[a:b], slice(m + a, m + b)
            P_s[q] = P_s[rows]
            if learning:
                visits = counts_w[j]
                s = bonus[a:b, None] / np.maximum(visits, 1)
                np.sqrt(s, out=s)
                np.add(P_s[q], s, out=s)
                s[visits == 0] = np.inf
                np.minimum(s, cap, out=s)
                s = s.argmax(axis=1)
            else:
                w = W_s[rows] * mask
                c = np.add.accumulate(w, axis=1)
                total = c[:, -1]
                if total.min() < _SELECT_UNDERFLOW:
                    low = np.flatnonzero(total < _SELECT_UNDERFLOW)
                    x = rl * P_s[rows[low]] / scale_s[rows[low], None]
                    np.minimum(x, cap, out=x)
                    x = np.exp(x - np.maximum.reduce(x, axis=1)[:, None])
                    w[low] = x
                    c[low] = np.add.accumulate(x, axis=1)
                s = np.add.reduce(c <= (u_sel[a:b] * total)[:, None], axis=1)
                if s.max() >= n:
                    for r in np.flatnonzero(s >= n).tolist():
                        s[r] = np.flatnonzero(w[r] > 0.0)[-1]
            buy = u_buy[a:b] < p_true[j, s]
            visits = counts_w[j, s] + 1
            sold = purch_w[j, s] + buy
            counts_w[j, s], purch_w[j, s] = visits, sold
            # the int quotient rounds as numpy's int64 division does
            P_s[qs[a:b], s] = sold / visits
            if not learning:
                refresh(q)
            sel.append(s)
            bought.append(buy)
            a = b
        if learning:
            refresh(slice(m, m + K))
        back = row - m
        return np.concatenate(sel)[back], np.concatenate(bought)[back], row

    def pinned_run(k):
        """Arrivals k, k + 1, ... while lam is pinned, without a dual step,
        while some item is in stock; returns how many it took. With one item
        in stock every choice is fixed and the run is one closed form; with
        more, it goes by rounds. It stops at the end of the call, after the
        arrival that takes a capped item's last unit, or before the first
        arrival whose consumption does not clear the floors with
        `pin_margin` to spare."""
        nonlocal n_avail
        K, t = T - k, types[k:]
        at = np.arange(K)
        P_s[:m], W_s[:m], Z_s[:m], scale_s[:m] = p_hat, W, Z, div[:, 0]
        shift_s[:m], pbar_s[:m] = h_shift[k], pbar
        counts0, purch0 = np.array(counts_l), np.array(purch_l)
        if n_avail == 1:
            # each arrival's running visits and sales of item i by its type
            i = int(mask.argmax())
            sel, row = np.full(K, i), at + m
            hot = np.zeros((K, m), dtype=np.int64)
            hot[at, t] = 1
            visits = hot.cumsum(axis=0)[at, t] + counts0[t, i]
            bought = u_purchase[k:] < p_true[t, i]
            hot[at, t] = bought
            sold = hot.cumsum(axis=0)[at, t] + purch0[t, i]
            P_s[m:m + K] = p_hat[t]
            P_s[m:m + K, i] = sold / visits
            refresh(slice(m, m + K))
        else:
            sel, bought, row = rounds(t, k, counts0, purch0)

        # Each arrival's gradient operands, every type's row as it stands
        # after the arrival. A type's rows grow along its arrivals and start
        # at its own index, so a running maximum finds the latest.
        src = np.zeros((K + 1, m), dtype=np.intp)
        src[0] = np.arange(m)
        src[at + 1, t] = row
        np.maximum.accumulate(src, axis=0, out=src)
        src = src[1:]
        used = src.max() + 1
        use = _stacked_consumption(weights / Z_s[src],
                                   (P_s[:used] * W_s[:used])[src])
        broke = np.flatnonzero(~(use * pin_margin <= pin_bound).all(axis=1))
        K = int(broke[0]) if broke.size else K
        # the arrival that takes a capped item's last unit ends the run;
        # rem - c is exact, as each step of -1 is
        for i, c in enumerate(np.bincount(sel, minlength=n).tolist()):
            if c and not infinite_l[i] and rem_l[i] - c < 1.0:
                K = min(K, int(np.flatnonzero(sel == i)[int(rem_l[i]) - 1]) + 1)
        if K == 0:
            return 0

        t, sel = t[:K], sel[:K]
        sels.extend(sel.tolist())
        buys.extend(bought[:K].tolist())
        for j, c in enumerate(np.bincount(t, minlength=m).tolist()):
            rounds_l[j] += c
        # each arrival's history row: every type's row as it stands after it
        src = src[:K]
        rows = slice(k + 1, k + 1 + K)
        h_shift[rows], h_z[rows], h_pbar[rows] = shift_s[src], Z_s[src], pbar_s[src]
        h_lam[rows] = 0.0
        for i, c in enumerate(np.bincount(sel, minlength=n).tolist()):
            if c and not infinite_l[i]:
                rem_l[i] -= c
                if rem_l[i] < 1.0:
                    mask[i] = 0.0
                    cap[i] = -np.inf
                    n_avail -= 1
        # every moved type's state and caches as its last arrival left them
        cell = t * n + sel
        counts1 = counts0 + np.bincount(cell, minlength=m * n).reshape(m, n)
        purch1 = purch0 + np.bincount(cell[bought[:K]], minlength=m * n).reshape(m, n)
        last = src[K - 1]
        moved = np.flatnonzero(last >= m)
        row = last[moved]
        p_hat[moved], pbar[moved], div[moved] = P_s[row], pbar_s[row], scale_s[row, None]
        W[moved], Z[moved] = W_s[row], Z_s[row]
        counts1, purch1 = counts1[moved], purch1[moved]
        if learning:
            counts[moved] = counts1
        for j, counts_j, purch_j, p_j in zip(moved.tolist(), counts1.tolist(),
                                             purch1.tolist(), p_hat[moved].tolist()):
            counts_l[j], purch_l[j], p_hat_l[j] = counts_j, purch_j, p_j
        return K

    state_lam = lam
    _softmax_rows(rl, p_hat, div, E, W, h_shift[0], Z)
    # Set only by this call's own projected step, so a call's first arrival
    # always steps (and no run reads row 0) and chained calls match one call
    # bit for bit.
    pinned = False
    sels, buys = [], []
    k = 0
    while k < T:
        if pinned and n_avail:
            # the arrival that ends a run goes the per-arrival way below,
            # as does every arrival with nothing in stock
            k += pinned_run(k)
            if k == T:
                break
        j, k1 = types_l[k], k + 1
        rounds_l[j] += 1

        sel = -1
        if n_avail:
            if learning:
                # unvisited items score inf
                row_counts = counts[j]
                np.divide(1.5 * np.log(np.float64(rounds_l[j])),
                          np.maximum(row_counts, 1), out=scores)
                np.sqrt(scores, out=scores)
                np.add(p_rows[j], scores, out=scores)
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
                sel = int(cum.searchsorted(u_select_l[k] * total, side="right"))
                if sel >= n:
                    sel = int(np.flatnonzero(wts > 0.0)[-1])

        bought_now = sel >= 0 and u_purchase_l[k] < p_true_l[j][sel]
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
            # the int quotient rounds as numpy's int64 division does
            p_hat_row[sel] = p_hat[j, sel] = purch_row[sel] / visits

            # only row j of the estimate moved: refresh its caches, with
            # the dual.py softmax written out for one row (cheaper than a
            # call)
            pbar_j = pbar[j] = max(p_hat_row)
            div_rows[j].fill((pbar_j if pbar_j > 0.0 else 1.0) * mu)
            e_row, w_row = E_rows[j], W_rows[j]
            np.multiply(rl, p_rows[j], out=e_row)
            np.divide(e_row, div_rows[j], out=e_row)
            np.subtract(e_row, max(e_row.tolist()), out=e_row)
            np.exp(e_row, out=w_row)
            Z[j] = np.add.reduce(w_row)

        # gradient of the weighted dual at the pre-step iterate, one
        # matvec, and the projected step into the arrival's history row
        np.divide(weights, Z, out=wz)
        np.multiply(p_hat, W, out=PW)
        np.matmul(wz, PW, out=grad)
        np.subtract(grad_floor, grad, out=grad)
        np.multiply(grad, etas_l[k], out=grad)
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
        k += 1

    # the recorded dual values, in stacked products that round like the
    # per-row ones
    log_z = np.log(h_z[1:])
    np.add(log_z, h_shift[1:], out=log_z)
    np.multiply(h_pbar[1:], log_z, out=log_z)
    mix = np.matmul(phi[:, None, :], log_z[:, :, None])
    spent = np.matmul(h_lam[1:, None, :], fin_budgets[:, None])
    f_vals = mu * mix[:, 0, 0] + s_budget * spent[:, 0, 0]

    for state, now in ((state_lam, lam), (type_rounds, rounds_l), (remaining, rem_l),
                       (counts, counts_l), (purchases, purch_l)):
        state[...] = now

    return np.array(sels, dtype=np.int64), np.array(buys, dtype=np.uint8), f_vals


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

