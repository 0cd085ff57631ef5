"""Direction-based user pairing onto shared beams.

Users whose line-of-sight directions interfere strongly (pattern overlap
``beta`` at or above a threshold ``beta0``) are paired two-by-two into shared
beams, greedily from the most-interfering pair down; everyone left over gets
a private beam.  Pairing consumes nothing but the users' LOS angles, so it
works under purely geometric channel feedback.
"""

from __future__ import annotations

import numpy as np

__all__ = ["greedy_pairs"]


def greedy_pairs(beta: np.ndarray, beta0: float) -> list[np.ndarray]:
    """Greedy maximum-interference pairing of each drop of a block.

    ``beta`` stacks the T drops' symmetric K x K matrices, T x K x K.  In each
    drop, repeatedly selects the not-yet-consumed pair (k, u), k < u, with the
    largest beta >= beta0 (ties broken toward the lexicographically smallest
    pair), removes both users, and stops when no eligible pair remains.
    Returns each drop's pairs as the rows of a (P, 2) index array in
    selection order, so their beta values are non-increasing; the users in
    no pair keep a private beam each.

    One scan does the block: the eligible pairs sorted by (drop, -beta, k, u),
    each taken when both its users are still free in its drop.
    """
    k_users = beta.shape[-1]
    t_idx, k_idx, u_idx = np.nonzero(np.triu(beta >= beta0, k=1))  # in (t, k, u) order
    order = np.lexsort((-beta[t_idx, k_idx, u_idx], t_idx))
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(len(beta))]
    drop = -1
    for t, k, u in zip(t_idx[order].tolist(), k_idx[order].tolist(), u_idx[order].tolist()):
        if t != drop:
            drop, free = t, [True] * k_users
        if free[k] and free[u]:
            free[k] = free[u] = False
            pairs[t].append((k, u))
    return [np.array(drop_pairs, dtype=np.intp).reshape(-1, 2) for drop_pairs in pairs]
