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


def greedy_pairs(
    eligible: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], n_drops: int
) -> list[np.ndarray]:
    """Greedy maximum-interference pairing of each drop of a block of ``n_drops``.

    ``eligible`` is the block's eligible-pair list as ``eligible_pairs``
    gives it: the drop, the users k < u and the beta of every pair with
    beta >= beta0, in (t, k, u) order.  In each drop, repeatedly selects the
    not-yet-consumed eligible pair with the largest beta (ties broken toward
    the lexicographically smallest pair), removes both users, and stops when
    no eligible pair remains.  Returns each drop's pairs as the rows of a
    (P, 2) index array in selection order, so their beta values are
    non-increasing; the users in no pair keep a private beam each.

    One scan does the block: the eligible pairs sorted by (drop, -beta, k, u),
    each taken when both its users are still free in its drop.
    """
    t_idx, k_idx, u_idx, beta = eligible
    order = np.lexsort((-beta, t_idx))  # stable, so ties stay in (k, u) order
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n_drops)]
    drop = -1
    for t, k, u in zip(t_idx[order].tolist(), k_idx[order].tolist(), u_idx[order].tolist()):
        if t != drop:
            drop, taken = t, set()
        if k not in taken and u not in taken:
            taken.update((k, u))
            pairs[t].append((k, u))
    return [np.array(drop_pairs, dtype=np.intp).reshape(-1, 2) for drop_pairs in pairs]
