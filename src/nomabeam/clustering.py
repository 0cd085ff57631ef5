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

    One scan does it: the eligible pairs sorted by (-beta, k, u), each taken
    when both its users are still free.
    """
    k_idx, u_idx = np.nonzero(np.triu(beta >= beta0, k=1))  # in (k, u) order
    order = np.argsort(-beta[k_idx, u_idx], kind="stable")
    free = [True] * beta.shape[0]
    pairs: list[tuple[int, int]] = []
    for k, u in zip(k_idx[order].tolist(), u_idx[order].tolist()):
        if free[k] and free[u]:
            free[k] = free[u] = False
            pairs.append((k, u))
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


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
