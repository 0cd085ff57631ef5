"""Direction-based user pairing onto shared beams.

Users whose line-of-sight directions interfere strongly (pattern overlap
``beta`` at or above a threshold ``beta0``) are paired two-by-two into shared
beams, greedily from the most-interfering pair down; everyone left over gets
a private beam.  Pairing consumes nothing but the users' LOS angles, so it
works under purely geometric channel feedback.
"""

from __future__ import annotations

import numpy as np

from .array_geometry import ArrayConfig, Direction, beta_matrix

__all__ = ["beta_uc", "greedy_pairs"]


def greedy_pairs(beta: np.ndarray, beta0: float) -> np.ndarray:
    """Greedy maximum-interference pairing on a symmetric ``beta`` matrix.

    Repeatedly selects the not-yet-consumed pair (k, u), k < u, with the
    largest beta >= beta0 (ties broken toward the lexicographically smallest
    pair), removes both users, and stops when no eligible pair remains.
    Returns the pairs as the rows of a (P, 2) index array in selection order,
    so their beta values are non-increasing.
    """
    k_count = beta.shape[0]
    available = np.ones(k_count, dtype=bool)
    upper = np.triu(np.ones((k_count, k_count), dtype=bool), k=1)
    candidates = np.where(upper & (beta >= beta0), beta, -np.inf)
    pairs: list[tuple[int, int]] = []
    while True:
        masked = np.where(np.outer(available, available), candidates, -np.inf)
        flat = int(np.argmax(masked))
        k, u = divmod(flat, k_count)
        if not np.isfinite(masked[k, u]):
            return np.array(pairs, dtype=np.intp).reshape(-1, 2)
        pairs.append((k, u))
        available[[k, u]] = False


def beta_uc(dirs: list[Direction], cfg: ArrayConfig, beta0: float) -> np.ndarray:
    """Pair users by their LOS directions with the greedy beta pairing.

    Returns the (P, 2) index array of :func:`greedy_pairs`; the users in no
    pair keep a private beam each.
    """
    if not dirs:
        raise ValueError("at least one user is required")
    if not 0.0 < beta0 < 1.0:
        raise ValueError(f"beta0 must be in (0, 1), got {beta0}")
    return greedy_pairs(beta_matrix(dirs, cfg), beta0)
