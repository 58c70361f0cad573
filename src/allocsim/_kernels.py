"""Hot per-arrival loops, compiled with numba when available.

Two implementations of the same integrated loop live here:

* a scalar kernel (`_integrated_scalar`) that numba compiles, and
* a vectorized pure-numpy twin (`_integrated_numpy`).

The numpy twin's cost is numpy call overhead on small arrays, so it does one
full m x n softmax per arrival, right after the dual step, at the new
iterate and the current estimate. That one softmax gives log Z for the
recorded dual value; its row for the next arrival's type, times the
availability mask, is that arrival's selection weights (the same
distribution as the masked, renormalized row the scalar kernel builds); and
it is reused for the next arrival's gradient, where only the row of the
estimate that the arrival moved is recomputed. p_hat / (p_bar mu) and the
availability mask are cached and updated per arrival the same way, and the
gradient is one matvec. The caches are rebuilt at call start from the state
with the expressions the loop uses, so a run split into chained calls
matches one call bit for bit.

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

from .errors import BackendUnavailable

__all__ = [
    "BACKEND",
    "HAS_NUMBA",
    "available_backends",
    "integrated_loop",
    "greedy_loop",
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

def _integrated_scalar(
    types,
    weights,
    phi,
    phi_constant,
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
    last_change,
    prev_ckpt,
    r_max,
    k_interval,
    eps_p,
    lam_max,
    etas,
    t_offset,
    u_select,
    u_purchase,
):
    T = types.shape[0]
    m, n = p_true.shape
    assigned = np.empty(T, dtype=np.int64)
    bought = np.zeros(T, dtype=np.uint8)
    phase = np.zeros(T, dtype=np.uint8)
    f_vals = np.empty(T, dtype=np.float64)

    max_ck = T // k_interval + 2
    ck_t = np.empty(max_ck, dtype=np.int64)
    ck_err = np.empty(max_ck, dtype=np.float64)
    ck_chg = np.empty(max_ck, dtype=np.float64)
    ck_lam = np.empty((max_ck, n), dtype=np.float64)
    ck_rem = np.empty((max_ck, n), dtype=np.float64)
    n_ck = 0

    grad = np.empty(n, dtype=np.float64)
    xrow = np.empty(n, dtype=np.float64)

    for t in range(T):
        g = t_offset + t + 1
        j = types[t]
        type_rounds[j] += 1
        use_ucb = (last_change > eps_p) and (g <= r_max)
        phase[t] = 0 if use_ucb else 1

        n_avail = 0
        for i in range(n):
            if infinite[i] or remaining[i] >= 1.0:
                n_avail += 1

        sel = -1
        if n_avail > 0:
            if use_ucb:
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
                pbar = 0.0
                for i in range(n):
                    if p_hat[j, i] > pbar:
                        pbar = p_hat[j, i]
                total = 0.0
                if pbar <= 0.0:
                    for i in range(n):
                        if infinite[i] or remaining[i] >= 1.0:
                            xrow[i] = 1.0
                            total += 1.0
                        else:
                            xrow[i] = 0.0
                else:
                    shift = -np.inf
                    for i in range(n):
                        if infinite[i] or remaining[i] >= 1.0:
                            e = (rewards[i] - lam[i]) * p_hat[j, i] / (pbar * mu)
                            xrow[i] = e
                            if e > shift:
                                shift = e
                        else:
                            xrow[i] = -np.inf
                    for i in range(n):
                        if xrow[i] == -np.inf:
                            xrow[i] = 0.0
                        else:
                            xrow[i] = np.exp(xrow[i] - shift)
                            total += xrow[i]
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
            pbar = 0.0
            for i in range(n):
                if p_hat[jj, i] > pbar:
                    pbar = p_hat[jj, i]
            pb = pbar if pbar > 0.0 else 1.0
            shift = -np.inf
            for i in range(n):
                e = (rewards[i] - lam[i]) * p_hat[jj, i] / (pb * mu)
                xrow[i] = e
                if e > shift:
                    shift = e
            z = 0.0
            for i in range(n):
                xrow[i] = np.exp(xrow[i] - shift)
                z += xrow[i]
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
        prow = 0 if phi_constant else t
        fval = 0.0
        for jj in range(m):
            ph = phi[prow, jj]
            if ph == 0.0:
                continue
            pbar = 0.0
            for i in range(n):
                if p_hat[jj, i] > pbar:
                    pbar = p_hat[jj, i]
            pb = pbar if pbar > 0.0 else 1.0
            shift = -np.inf
            for i in range(n):
                e = (rewards[i] - lam[i]) * p_hat[jj, i] / (pb * mu)
                xrow[i] = e
                if e > shift:
                    shift = e
            z = 0.0
            for i in range(n):
                z += np.exp(xrow[i] - shift)
            fval += ph * mu * pbar * (shift + np.log(z))
        for i in range(n):
            if not infinite[i]:
                fval += s_budget * lam[i] * budgets[i]
        f_vals[t] = fval

        if g % k_interval == 0:
            err = 0.0
            chg = 0.0
            for jj in range(m):
                for i in range(n):
                    d1 = p_hat[jj, i] - p_true[jj, i]
                    err += d1 * d1
                    d2 = p_hat[jj, i] - prev_ckpt[jj, i]
                    chg += d2 * d2
                    prev_ckpt[jj, i] = p_hat[jj, i]
            err = np.sqrt(err)
            chg = np.sqrt(chg)
            last_change = chg
            ck_t[n_ck] = g
            ck_err[n_ck] = err
            ck_chg[n_ck] = chg
            for i in range(n):
                ck_lam[n_ck, i] = lam[i]
                ck_rem[n_ck, i] = remaining[i]
            n_ck += 1

    return (
        assigned, bought, phase, f_vals, last_change,
        ck_t[:n_ck], ck_err[:n_ck], ck_chg[:n_ck],
        ck_lam[:n_ck], ck_rem[:n_ck],
    )


_integrated_jit = njit(cache=True)(_integrated_scalar) if HAS_NUMBA else None


# ============================================================
# Integrated loop, vectorized numpy fallback
# ============================================================

# A masked selection row whose weights sum below this has lost its available
# items to underflow against a sold-out item's larger exponent; it is then
# recomputed with the shift taken over available items only.
_SELECT_UNDERFLOW = 1e-200


def _integrated_numpy(
    types, weights, phi, phi_constant, s_budget, p_true, rewards, budgets,
    infinite, mu, lam, remaining, counts, purchases, p_hat, type_rounds,
    last_change, prev_ckpt, r_max, k_interval, eps_p, lam_max, etas,
    t_offset, u_select, u_purchase,
):
    T = types.shape[0]
    m, n = p_true.shape
    assigned = np.empty(T, dtype=np.int64)
    bought = np.zeros(T, dtype=np.uint8)
    phase = np.zeros(T, dtype=np.uint8)
    f_vals = np.empty(T, dtype=np.float64)

    max_ck = T // k_interval + 2
    ck_t = np.empty(max_ck, dtype=np.int64)
    ck_err = np.empty(max_ck)
    ck_chg = np.empty(max_ck)
    ck_lam = np.empty((max_ck, n))
    ck_rem = np.empty((max_ck, n))
    n_ck = 0

    fin_budgets = np.where(infinite, 0.0, budgets)
    grad_floor = s_budget * fin_budgets
    # Box upper bound per item; 0 on uncapped items pins their price at 0,
    # so their gradient entries never reach the iterate.
    lam_hi = np.where(infinite, 0.0, lam_max)
    zeros = np.zeros(n)
    sold_out = ~(infinite | (remaining >= 1.0))
    mask = (~sold_out).astype(np.float64)
    n_avail = n - int(np.count_nonzero(sold_out))

    # Caches, rebuilt from the state with the expressions the loop refreshes
    # them with, so a run split into chained calls matches one call bit for
    # bit. A = p_hat / (p_bar mu) with p_bar := 1 on an all-zero row; W and Z
    # are the shifted exponentials and their row sums at (lam, p_hat).
    rl = rewards - lam
    pbar = np.maximum.reduce(p_hat, axis=1)
    A = p_hat / (np.where(pbar > 0.0, pbar, 1.0) * mu)[:, None]
    E = np.empty((m, n))
    W = np.empty((m, n))
    PW = np.empty((m, n))
    shift = np.empty(m)
    shift_col = shift[:, None]
    Z = np.empty(m)
    log_z = np.empty(m)
    wz = np.empty(m)
    grad = np.empty(n)
    wts = np.empty(n)
    cum = np.empty(n)
    scores = np.empty(n)
    p_rows, A_rows, E_rows, W_rows = (list(a) for a in (p_hat, A, E, W))
    phi_row = phi[0]

    def softmax():
        np.multiply(rl, A, out=E)
        np.maximum.reduce(E, axis=1, out=shift)
        np.subtract(E, shift_col, out=E)
        np.exp(E, out=W)
        np.add.reduce(W, axis=1, out=Z)

    softmax()
    for t in range(T):
        g = t_offset + t + 1
        j = types[t]
        type_rounds[j] += 1
        use_ucb = last_change > eps_p and g <= r_max
        if not use_ucb:
            phase[t] = 1

        sel = -1
        if n_avail:
            if use_ucb:
                row_counts = counts[j]
                np.divide(1.5 * np.log(np.float64(type_rounds[j])),
                          np.maximum(row_counts, 1), out=scores)
                np.sqrt(scores, out=scores)
                np.add(p_rows[j], scores, out=scores)
                scores[row_counts == 0] = np.inf
                scores[sold_out] = -np.inf
                sel = int(scores.argmax())
            else:
                # Row j of the cached softmax at (lam, p_hat), masked, is a
                # positive multiple of the masked row shifted by its own
                # maximum, so it samples the same distribution. An all-zero
                # estimate row is all ones: uniform over what is available.
                np.multiply(W_rows[j], mask, out=wts)
                np.add.accumulate(wts, out=cum)
                total = cum[-1]
                if total < _SELECT_UNDERFLOW:
                    np.multiply(rl, A_rows[j], out=wts)
                    wts[sold_out] = -np.inf
                    np.exp(wts - np.maximum.reduce(wts), out=wts)
                    np.add.accumulate(wts, out=cum)
                    total = cum[-1]
                sel = int(cum.searchsorted(u_select[t] * total, side="right"))
                if sel >= n:
                    sel = int(np.flatnonzero(wts > 0.0)[-1])

        assigned[t] = sel
        if sel >= 0:
            if u_purchase[t] < p_true[j, sel]:
                bought[t] = 1
                purchases[j, sel] += 1
            if not infinite[sel]:
                remaining[sel] -= 1.0
                if remaining[sel] < 1.0:
                    sold_out[sel] = True
                    mask[sel] = 0.0
                    n_avail -= 1
            counts[j, sel] += 1
            p_hat[j, sel] = purchases[j, sel] / counts[j, sel]

            # only row j of the estimate moved: refresh its caches
            p_row, e_row = p_rows[j], E_rows[j]
            pbar_j = max(p_row.tolist())
            pbar[j] = pbar_j
            np.divide(p_row, (pbar_j if pbar_j > 0.0 else 1.0) * mu, out=A_rows[j])
            np.multiply(rl, A_rows[j], out=e_row)
            np.subtract(e_row, max(e_row.tolist()), out=e_row)
            np.exp(e_row, out=W_rows[j])
            Z[j] = np.add.reduce(W_rows[j])

        # gradient of the weighted dual at the pre-step iterate, one matvec
        np.divide(weights, Z, out=wz)
        np.multiply(p_hat, W, out=PW)
        np.matmul(wz, PW, out=grad)
        np.subtract(grad_floor, grad, out=grad)
        np.multiply(grad, etas[t], out=grad)
        np.subtract(lam, grad, out=lam)
        np.minimum(lam, lam_hi, out=lam)
        np.maximum(lam, zeros, out=lam)

        # the one full softmax: log Z for the recorded dual value now, and
        # the selection and gradient rows of the next arrival
        np.subtract(rewards, lam, out=rl)
        softmax()
        np.log(Z, out=log_z)
        np.add(log_z, shift, out=log_z)
        np.multiply(pbar, log_z, out=log_z)
        prow = phi_row if phi_constant else phi[t]
        f_vals[t] = mu * float(prow @ log_z) + s_budget * float(lam @ fin_budgets)

        if g % k_interval == 0:
            err = float(np.linalg.norm(p_hat - p_true))
            chg = float(np.linalg.norm(p_hat - prev_ckpt))
            prev_ckpt[...] = p_hat
            last_change = chg
            ck_t[n_ck] = g
            ck_err[n_ck] = err
            ck_chg[n_ck] = chg
            ck_lam[n_ck] = lam
            ck_rem[n_ck] = remaining
            n_ck += 1

    return (
        assigned, bought, phase, f_vals, last_change,
        ck_t[:n_ck], ck_err[:n_ck], ck_chg[:n_ck],
        ck_lam[:n_ck], ck_rem[:n_ck],
    )


# ============================================================
# Greedy loop
# ============================================================

def _greedy_scalar(types, order, p_true, infinite, remaining, u_purchase):
    T = types.shape[0]
    n = remaining.shape[0]
    assigned = np.empty(T, dtype=np.int64)
    bought = np.zeros(T, dtype=np.uint8)
    for t in range(T):
        sel = -1
        for k in range(n):
            i = order[k]
            if infinite[i] or remaining[i] >= 1.0:
                sel = i
                break
        assigned[t] = sel
        if sel >= 0:
            if u_purchase[t] < p_true[types[t], sel]:
                bought[t] = 1
            if not infinite[sel]:
                remaining[sel] -= 1.0
    return assigned, bought


_greedy_jit = njit(cache=True)(_greedy_scalar) if HAS_NUMBA else None


# ============================================================
# Dispatch
# ============================================================

def integrated_loop(*args, backend: str | None = None):
    """Run the per-arrival integrated loop on the selected backend.

    Mutates the state arrays (lam, remaining, counts, purchases, p_hat,
    type_rounds, prev_ckpt) in place; callers pass copies they own.
    """
    if _resolve(backend) == "numba":
        return _integrated_jit(*args)
    return _integrated_numpy(*args)


def greedy_loop(types, order, p_true, infinite, remaining, u_purchase,
                backend: str | None = None):
    """Highest-reward-available assignment loop; mutates `remaining`."""
    kernel = _greedy_jit if _resolve(backend) == "numba" else _greedy_scalar
    return kernel(types, order, p_true, infinite, remaining, u_purchase)
