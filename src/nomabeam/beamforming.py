"""Beam plans: the beams' weight vectors and the fixed per-beam power split.

Each beam's weight vector is the steering vector at its direction, which
the caller steers (one per direction, shared between plans); the
normalization ``eta = 1 / (M * C)`` makes the emitted power independent of
the beamforming.  The per-beam signal powers are fixed before any
intra-beam optimization: either proportional to the beam's user count (the
default, which equalizes emitted power per user) or a uniform split.  A plan
is a plain record; ``link_metrics.link_states`` weighs channel rows by it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BeamformingPlan", "build_plan"]


@dataclass(frozen=True)
class BeamformingPlan:
    """Beam weights and the fixed power split, one entry per beam.

    ``weights`` holds the C weight vectors as the columns of an M x C
    matrix.  ``cluster_powers_pc`` are the superposed-signal powers p_c
    entering the transmit chain; beam c emits P_c = eta * ||w_c||^2 * p_c of
    the total power.
    """

    weights: np.ndarray
    eta: float
    cluster_powers_pc: np.ndarray


def build_plan(
    weights: np.ndarray,
    sizes: np.ndarray,
    total_power_w: float,
    rule: str = "proportional",
) -> BeamformingPlan:
    """A plan with the beams' steering vectors and the fixed inter-beam power split.

    ``weights`` holds beam c's steering vector as column c of an M x C
    matrix, and ``sizes[c]`` is the number of users beam c serves, K their
    sum; a T x M x C stack of such matrices makes T plans with one power
    split.  ``rule="proportional"`` (default) gives each beam an
    emitted-power share P_c = K_c * P_e / K, so p_c = K_c * C * P_e / K;
    any other rule (``"uniform"``) splits emitted power evenly, P_c = P_e / C.
    """
    sizes = np.asarray(sizes)
    m_elements, c_total = np.shape(weights)[-2:]
    if c_total != len(sizes):
        raise ValueError(f"{c_total} weight vectors for {len(sizes)} beam sizes")
    eta = 1.0 / (m_elements * c_total)
    if rule == "proportional":
        emitted = sizes * total_power_w / int(np.sum(sizes))
    else:
        emitted = np.full(c_total, total_power_w / c_total)
    # P_c = eta * ||w_c||^2 * p_c with ||w_c||^2 = M, hence p_c = C * P_c.
    return BeamformingPlan(weights=np.ascontiguousarray(weights), eta=eta, cluster_powers_pc=c_total * emitted)
