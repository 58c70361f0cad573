"""Dual objectives, gradients, primal recovery, step sizes, and the offline solver.

One weighted form covers both duals in play: with per-type weights w_j and a
budget scale s,

    f(Λ) = μ · Σ_j w_j · P̄_j · log Z_j(Λ)  +  s · ⟨Λ, b⟩,
    Z_j(Λ) = Σ_i exp((r_i − Λ_i) · P_ij / (P̄_j · μ)).

Offline totals use w_j = per-type customer counts and s = 1; the per-arrival
online objective uses w_j = λ_j/Σλ and s = 1/T. Items flagged as uncapped
(b_i = ∞) have zero shadow price: their Λ_i is pinned at 0 and they are
excluded from the ⟨Λ, b⟩ term and from the gradient.

The row softmax has one vectorized form, `_row_scale` and `_softmax_rows`,
shared by the objective, the gradient, primal recovery and the numpy twin of
the online loop (numba compiles `_kernels._exp_row`, with the same exponent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInstance

__all__ = [
    "WeightedDualSpec",
    "OfflineSolution",
    "dual_objective",
    "dual_gradient",
    "recover_primal",
    "solve_offline",
    "default_grad_bound",
    "step_sizes",
]


# ============================================================
# Step sizes and the dual's data
# ============================================================

def step_sizes(count: int, *, n: int, box_upper: float, grad_bound: float,
               horizon: int, step_rule: str = "fixed", offset: int = 0) -> np.ndarray:
    """Per-arrival dual step sizes for a run of `count` arrivals.

    With diameter D = box_upper·√n, rule "fixed" uses η = D/(G·√T) with
    T = horizon; "decay" uses η_t = D/(G·√t). `offset` is the number of
    arrivals already consumed by earlier batches, so a decaying schedule
    keeps shrinking across batches instead of restarting at η_1.
    """
    if not box_upper > 0.0 or not grad_bound > 0.0:
        raise ValueError("box_upper and grad_bound must be positive")
    if step_rule not in ("fixed", "decay"):
        raise ValueError(f"unknown step rule {step_rule!r}")
    diameter = box_upper * np.sqrt(n)
    if step_rule == "fixed":
        return np.full(count, diameter / (grad_bound * np.sqrt(horizon)))
    steps = np.arange(offset + 1, offset + count + 1, dtype=float)
    return diameter / (grad_bound * np.sqrt(steps))


def default_grad_bound(n: int, budget_scale: float, budgets: np.ndarray) -> float:
    """Conservative bound on ‖∇f‖: √n·(max(s·max finite b_i, 1) + 1)."""
    finite = budgets[~np.isinf(budgets)]
    peak = budget_scale * float(finite.max()) if finite.size else 0.0
    return np.sqrt(n) * (max(peak, 1.0) + 1.0)


@dataclass(eq=False)
class WeightedDualSpec:
    """Everything the weighted dual needs: mix weights, scale, and instance data."""

    weights: np.ndarray
    budget_scale: float
    preferences: np.ndarray
    rewards: np.ndarray
    budgets: np.ndarray
    mu: float
    p_bar: np.ndarray = field(init=False)
    scale: np.ndarray = field(init=False)
    infinite: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.preferences = np.asarray(self.preferences, dtype=float)
        self.rewards = np.asarray(self.rewards, dtype=float)
        self.budgets = np.asarray(self.budgets, dtype=float)
        # written so that NaN (which compares False) fails
        if not np.all(self.weights >= 0.0):
            raise ValueError("weights must be nonnegative")
        if not self.budget_scale > 0.0:
            raise ValueError("budget_scale must be positive")
        if self.weights.size != self.preferences.shape[0]:
            raise InvalidInstance("weights length != number of preference rows")
        self.p_bar, self.scale = _row_scale(self.preferences, self.mu)
        if np.any(self.p_bar <= 0.0):
            raise InvalidInstance("every preference row needs a positive maximum")
        self.infinite = np.isinf(self.budgets)

    @property
    def n(self) -> int:
        return self.rewards.size

    @property
    def m(self) -> int:
        return self.weights.size


# ============================================================
# Core math
# ============================================================

def _row_scale(P: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima p̄ of P and the exponent divisors p̄μ.

    On an all-zero row p̄ is 0 and the divisor is μ, so the row's softmax
    is uniform.
    """
    p_bar = np.maximum.reduce(P, axis=1)
    return p_bar, np.where(p_bar > 0.0, p_bar, 1.0) * mu


def _softmax_rows(rl, P, div, E, W, shift, Z) -> None:
    """The dual's row softmax at reward margins rl = r − Λ, into buffers.

    Fills E with the exponents (rl·P_j)/scale_j shifted by each row's
    maximum `shift`, W with their exponentials and Z with W's row sums, so
    that log Z_j(Λ) = shift_j + log Z_j and x_j = W_j / Z_j. The divisors
    come as `div`: either the column scale[:, None] or the same values
    materialized as an (m, n) matrix, which the per-arrival loop keeps to
    avoid a broadcast; both round alike. Multiplying before dividing is the
    scalar kernel's order; the offline solver's stopping iteration sits on
    its tolerance for some instances, so its rounding is kept as well.
    """
    np.multiply(rl, P, out=E)
    np.divide(E, div, out=E)
    np.maximum.reduce(E, axis=1, out=shift)
    np.subtract(E, shift[:, None], out=E)
    np.exp(E, out=W)
    np.add.reduce(W, axis=1, out=Z)


def _softmax(rl: np.ndarray, P: np.ndarray, scale: np.ndarray):
    """`_softmax_rows` into fresh buffers; returns (shift, W, Z)."""
    E, W = np.empty((2,) + P.shape)
    shift, Z = np.empty((2, P.shape[0]))
    _softmax_rows(rl, P, scale[:, None], E, W, shift, Z)
    return shift, W, Z


def _checked(spec: WeightedDualSpec, lam: np.ndarray) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.size != spec.n:
        raise InvalidInstance(f"lambda length {lam.size} != n={spec.n}")
    return lam


def _budget_dot(lam: np.ndarray, budgets: np.ndarray, infinite: np.ndarray) -> float:
    if infinite.any():
        keep = ~infinite
        return float(lam[keep] @ budgets[keep])
    return float(lam @ budgets)


def dual_objective(spec: WeightedDualSpec, lam: np.ndarray) -> float:
    """Weighted dual value at Λ. Uncapped items contribute nothing to ⟨Λ,b⟩."""
    lam = _checked(spec, lam)
    shift, _, Z = _softmax(spec.rewards - lam, spec.preferences, spec.scale)
    mix = spec.mu * float(spec.weights @ (spec.p_bar * (shift + np.log(Z))))
    return mix + spec.budget_scale * _budget_dot(lam, spec.budgets, spec.infinite)


def dual_gradient(spec: WeightedDualSpec, lam: np.ndarray) -> np.ndarray:
    """Analytic gradient: s·b_i − Σ_j w_j·P_ij·x_ij; zero for uncapped items."""
    _, W, Z = _softmax(spec.rewards - _checked(spec, lam), spec.preferences, spec.scale)
    consumption = (spec.weights[:, None] * spec.preferences * (W / Z[:, None])).sum(axis=0)
    grad = spec.budget_scale * spec.budgets - consumption
    grad[spec.infinite] = 0.0
    return grad


def recover_primal(P: np.ndarray, r: np.ndarray, mu: float, lam: np.ndarray) -> np.ndarray:
    """Row-wise softmax allocation x_ij = exp((r_i−Λ_i)P_ij/(P̄_j μ)) / Z_j."""
    P = np.asarray(P, dtype=float)
    p_bar, scale = _row_scale(P, mu)
    if np.any(p_bar <= 0.0):
        raise InvalidInstance("preference row with zero maximum")
    _, W, Z = _softmax(np.asarray(r, dtype=float) - np.asarray(lam, dtype=float), P, scale)
    return W / Z[:, None]


# ============================================================
# Offline benchmark solver
# ============================================================

@dataclass
class OfflineSolution:
    lam: np.ndarray
    value: float
    iterations: int
    converged: bool
    pg_norm: float


def solve_offline(
    spec: WeightedDualSpec,
    tol: float = 1e-8,
    max_iter: int = 5000,
    box_upper: float | None = None,
) -> OfflineSolution:
    """Minimize the weighted dual over κ = [0, Λ_max]^n.

    Projected gradient descent with Armijo backtracking; the objective
    sequence is non-increasing. Returns converged=False when the iteration
    cap is hit before the projected-gradient norm drops below tol (callers
    treat that as a flag, not an error).
    """
    if box_upper is None:
        box_upper = float(spec.rewards.max())
    # upper edge of the box per item; 0 on uncapped items pins Λ_i at 0
    hi = np.where(spec.infinite, 0.0, box_upper)
    lam = np.zeros(spec.n)
    f = dual_objective(spec, lam)
    step = 1.0
    it = 0
    pg_norm = np.inf
    converged = False
    for it in range(1, max_iter + 1):
        grad = dual_gradient(spec, lam)
        pg = lam - np.clip(lam - grad, 0.0, hi)
        pg_norm = float(np.linalg.norm(pg))
        if pg_norm <= tol:
            converged = True
            break
        step = min(step * 2.0, 1e6)
        while True:
            cand = np.clip(lam - step * grad, 0.0, hi)
            move = cand - lam
            f_cand = dual_objective(spec, cand)
            if f_cand <= f + 1e-4 * float(grad @ move) or step < 1e-18:
                break
            step *= 0.5
        if step < 1e-18:
            # no measurable descent direction left; treat as converged-in-practice
            break
        lam, f = cand, f_cand
    return OfflineSolution(lam=lam, value=f, iterations=it, converged=converged, pg_norm=pg_norm)
