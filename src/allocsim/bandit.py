"""State of the per-type UCB preference learner, and its learning-curve CSV.

One bandit per customer type: counts N_ij and purchase totals R_ij feed
estimates P̂_ij = R_ij/N_ij, with a flat prior on unvisited pairs. The UCB
bonus uses a per-type clock t_j so rare types are not over-explored. The
selection and the update themselves run inside the integrated loop
(`_kernels`), the one implementation of each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "UNVISITED_PRIOR",
    "PreferenceEstimate",
    "write_checkpoint_csv",
]

UNVISITED_PRIOR = 0.5


@dataclass(eq=False)
class PreferenceEstimate:
    """Mutable learner state for m types over n items."""

    counts: np.ndarray      # N, int64 (m, n)
    purchases: np.ndarray   # R, int64 (m, n)
    p_hat: np.ndarray       # float (m, n); prior where counts == 0
    type_rounds: np.ndarray  # t_j, int64 (m,)


def write_checkpoint_csv(checkpoints: np.ndarray, errors: np.ndarray, path) -> None:
    """Learning-curve CSV: checkpoint,frobenius_to_truth."""
    checkpoints = np.asarray(checkpoints)
    errors = np.asarray(errors, dtype=float)
    if checkpoints.size != errors.size:
        raise DimensionMismatch("checkpoint and error series differ in length")
    with open(path, "w", newline="") as fh:
        fh.write("checkpoint,frobenius_to_truth\n")
        for t, e in zip(checkpoints, errors):
            fh.write(f"{int(t)},{e:.9g}\n")
