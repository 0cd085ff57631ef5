"""Beam powers: the fixed per-beam power split and its normalization.

Each beam's weight vector is the steering vector at its direction, which
the caller steers and holds (one per direction, shared between plans); beam
c is that vector scaled by sqrt(eta * p_c).  The normalization
``eta = 1 / (M * C)`` makes the emitted power independent of the
beamforming.  The per-beam signal powers p_c are fixed before any
intra-beam optimization: either proportional to the beam's user count (the
default, which equalizes emitted power per user) or a uniform split.
``link_metrics.link_states`` weighs channel rows by the product eta * p_c.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_plan"]


def build_plan(sizes: np.ndarray, m_elements: int, total_power_w: float, rule: str) -> np.ndarray:
    """The C-vector eta * p_c of the fixed inter-beam power split, or each drop's of a block.

    ``sizes[..., c]`` is the number of users beam c serves, K their sum, and
    ``m_elements`` the length M of each beam's steering vector.
    ``rule="proportional"`` gives each beam an emitted-power share
    P_c = K_c * P_e / K, so p_c = K_c * C * P_e / K; any other rule
    (``"uniform"``) splits emitted power evenly, P_c = P_e / C.  A beam of no
    users gets no power and is not counted in C, so zero sizes pad the rows
    of a block of drops, each row's entries with the bits it gives alone.
    """
    sizes = np.asarray(sizes)
    c_total = np.count_nonzero(sizes, axis=-1, keepdims=True)
    eta = 1.0 / (m_elements * c_total)
    if rule == "proportional":
        emitted = sizes * total_power_w / np.sum(sizes, axis=-1, keepdims=True)
    else:
        emitted = (sizes > 0) * (total_power_w / c_total)
    # P_c = eta * ||w_c||^2 * p_c with ||w_c||^2 = M, hence p_c = C * P_c.
    return eta * (c_total * emitted)
