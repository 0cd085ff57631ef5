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


def greedy_pairs(eligible: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Greedy maximum-interference pairing of each drop of a block.

    ``eligible`` is the block's eligible-pair list as ``eligible_pairs``
    gives it: the drop, the users k < u and the beta of every pair with
    beta >= beta0, in (t, k, u) order.  In each drop, repeatedly selects the
    not-yet-consumed eligible pair with the largest beta (ties broken toward
    the lexicographically smallest pair), removes both users, and stops when
    no eligible pair remains.  Returns the block's chosen pairs flat, in
    (drop, selection) order, so a drop's beta values are non-increasing:
    each pair's drop, and the pairs as the rows of a (P, 2) index array.
    The users in no pair keep a private beam each.

    One scan does the block: the eligible pairs sorted by (drop, -beta, k, u),
    each taken when both its users are still free in its drop.
    """
    t_idx, k_idx, u_idx, beta = eligible
    order = np.lexsort((-beta, t_idx))  # stable, so ties stay in (k, u) order
    chosen: list[tuple[int, int, int]] = []
    drop = -1
    for t, k, u in zip(t_idx[order].tolist(), k_idx[order].tolist(), u_idx[order].tolist()):
        if t != drop:
            drop, taken = t, set()
        if k not in taken and u not in taken:
            taken.update((k, u))
            chosen.append((t, k, u))
    table = np.array(chosen, dtype=np.intp).reshape(-1, 3)
    return table[:, 0], table[:, 1:]
