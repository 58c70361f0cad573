"""Dual objectives, gradients, primal recovery, and the offline benchmark solver.

One weighted form covers both duals in play: with per-type weights w_j and a
budget scale s,

    f(Λ) = μ · Σ_j w_j · P̄_j · log Z_j(Λ)  +  s · ⟨Λ, b⟩,
    Z_j(Λ) = Σ_i exp((r_i − Λ_i) · P_ij / (P̄_j · μ)).

Offline totals use w_j = per-type customer counts and s = 1; the per-arrival
online objective uses w_j = λ_j/Σλ and s = 1/T. Items flagged as uncapped
(b_i = ∞) have zero shadow price: their Λ_i is pinned at 0 and they are
excluded from the ⟨Λ, b⟩ term and from the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRow, DimensionMismatch

__all__ = [
    "DualState",
    "WeightedDualSpec",
    "OfflineSolution",
    "dual_objective",
    "dual_gradient",
    "recover_primal",
    "solve_offline",
    "default_grad_bound",
]


# ============================================================
# Types
# ============================================================

@dataclass
class DualState:
    """Dual iterate plus the constants that define its feasible box and steps.

    step_rule "fixed" uses η = D/(G·√T) with T = horizon; "decay" uses
    η_t = D/(G·√t).
    """

    lam: np.ndarray
    box_upper: float
    grad_bound: float
    horizon: int
    step_rule: str = "fixed"

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        if not self.box_upper > 0.0 or not self.grad_bound > 0.0:
            raise ValueError("box_upper and grad_bound must be positive")
        if self.step_rule not in ("fixed", "decay"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        if np.any(self.lam < -1e-12) or np.any(self.lam > self.box_upper + 1e-12):
            raise ValueError("lambda must start inside [0, box_upper]")

    @property
    def diameter(self) -> float:
        return self.box_upper * np.sqrt(self.lam.size)

    def step_size(self, t: int) -> float:
        denom = self.horizon if self.step_rule == "fixed" else t
        return self.diameter / (self.grad_bound * np.sqrt(denom))

    def eta_array(self, count: int, offset: int = 0) -> np.ndarray:
        """Per-arrival step sizes for a run of `count` arrivals.

        `offset` is the number of arrivals already consumed by earlier
        batches, so a decaying schedule keeps shrinking across batches
        instead of restarting at η_1.
        """
        if self.step_rule == "fixed":
            return np.full(count, self.step_size(1))
        steps = np.arange(offset + 1, offset + count + 1, dtype=float)
        return self.diameter / (self.grad_bound * np.sqrt(steps))


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
    infinite: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.preferences = np.asarray(self.preferences, dtype=float)
        self.rewards = np.asarray(self.rewards, dtype=float)
        self.budgets = np.asarray(self.budgets, dtype=float)
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if not self.budget_scale > 0.0:
            raise ValueError("budget_scale must be positive")
        if self.weights.size != self.preferences.shape[0]:
            raise DimensionMismatch("weights length != number of preference rows")
        self.p_bar = self.preferences.max(axis=1)
        if np.any(self.p_bar <= 0.0):
            raise DegenerateRow("every preference row needs a positive maximum")
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

def _row_exponents(P: np.ndarray, r: np.ndarray, mu: float, lam: np.ndarray) -> np.ndarray:
    p_bar = P.max(axis=1)
    if np.any(p_bar <= 0.0):
        raise DegenerateRow("preference row with zero maximum")
    return (r - lam)[None, :] * P / (p_bar[:, None] * mu)


def _log_z_and_primal(P, r, mu, lam):
    """Per-row log Z and softmax rows, max-shifted so exponents stay bounded."""
    E = _row_exponents(P, r, mu, lam)
    shift = E.max(axis=1, keepdims=True)
    W = np.exp(E - shift)
    sums = W.sum(axis=1, keepdims=True)
    log_z = shift[:, 0] + np.log(sums[:, 0])
    return log_z, W / sums


def _budget_dot(lam: np.ndarray, budgets: np.ndarray, infinite: np.ndarray) -> float:
    if infinite.any():
        keep = ~infinite
        return float(lam[keep] @ budgets[keep])
    return float(lam @ budgets)


def dual_objective(spec: WeightedDualSpec, lam: np.ndarray) -> float:
    """Weighted dual value at Λ. Uncapped items contribute nothing to ⟨Λ,b⟩."""
    lam = np.asarray(lam, dtype=float)
    if lam.size != spec.n:
        raise DimensionMismatch(f"lambda length {lam.size} != n={spec.n}")
    log_z, _ = _log_z_and_primal(spec.preferences, spec.rewards, spec.mu, lam)
    mix = spec.mu * float(spec.weights @ (spec.p_bar * log_z))
    return mix + spec.budget_scale * _budget_dot(lam, spec.budgets, spec.infinite)


def dual_gradient(spec: WeightedDualSpec, lam: np.ndarray) -> np.ndarray:
    """Analytic gradient: s·b_i − Σ_j w_j·P_ij·x_ij; zero for uncapped items."""
    lam = np.asarray(lam, dtype=float)
    if lam.size != spec.n:
        raise DimensionMismatch(f"lambda length {lam.size} != n={spec.n}")
    _, x = _log_z_and_primal(spec.preferences, spec.rewards, spec.mu, lam)
    consumption = (spec.weights[:, None] * spec.preferences * x).sum(axis=0)
    grad = spec.budget_scale * spec.budgets - consumption
    grad[spec.infinite] = 0.0
    return grad


def recover_primal(P: np.ndarray, r: np.ndarray, mu: float, lam: np.ndarray) -> np.ndarray:
    """Row-wise softmax allocation x_ij = exp((r_i−Λ_i)P_ij/(P̄_j μ)) / Z_j."""
    P = np.asarray(P, dtype=float)
    _, x = _log_z_and_primal(P, np.asarray(r, dtype=float), mu, np.asarray(lam, dtype=float))
    return x


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


def _project(lam: np.ndarray, upper: float, infinite: np.ndarray) -> np.ndarray:
    out = np.clip(lam, 0.0, upper)
    out[infinite] = 0.0
    return out


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
    lam = np.zeros(spec.n)
    f = dual_objective(spec, lam)
    step = 1.0
    it = 0
    pg_norm = np.inf
    converged = False
    for it in range(1, max_iter + 1):
        grad = dual_gradient(spec, lam)
        pg = lam - _project(lam - grad, box_upper, spec.infinite)
        pg_norm = float(np.linalg.norm(pg))
        if pg_norm <= tol:
            converged = True
            break
        step = min(step * 2.0, 1e6)
        while True:
            cand = _project(lam - step * grad, box_upper, spec.infinite)
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
