"""Beam weight assembly and the fixed per-beam power split.

Each beam's weight vector is the steering vector at its direction; the
normalization ``eta = 1 / (M * C)`` makes the emitted power independent of
the beamforming.  The per-beam signal powers are fixed before any
intra-beam optimization: either proportional to the beam's user count (the
default, which equalizes emitted power per user) or a uniform split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_geometry import ArrayConfig, steering_matrix

__all__ = ["BeamformingPlan", "build_plan"]


@dataclass(frozen=True)
class BeamformingPlan:
    """Beam weights and the fixed power split, one entry per beam.

    ``weights`` holds the C weight vectors as the columns of an M x C
    matrix.  ``cluster_powers_pc`` are the superposed-signal powers p_c
    entering the transmit chain; ``emitted_powers_Pc`` are the shares of the
    total emitted power, related by P_c = eta * ||w_c||^2 * p_c.
    """

    weights: np.ndarray
    eta: float
    cluster_powers_pc: np.ndarray
    emitted_powers_Pc: np.ndarray

    def received_powers(self, rows: np.ndarray) -> np.ndarray:
        """Weighted beam gains ``eta * p_c * |row @ w_c|^2`` of each channel row and beam.

        A 1-D row gives one value per beam, a K x M matrix of rows a K x C matrix.
        """
        return self.eta * self.cluster_powers_pc * np.abs(rows @ self.weights) ** 2


def build_plan(
    cfg: ArrayConfig,
    theta: np.ndarray,
    phi: np.ndarray,
    sizes: np.ndarray,
    total_power_w: float,
    rule: str = "proportional",
) -> BeamformingPlan:
    """Beam weights toward (theta[c], phi[c]) and the fixed inter-beam power split.

    ``sizes[c]`` is the number of users beam c serves, and K their sum.
    ``rule="proportional"`` (default) gives each beam an emitted-power share
    P_c = K_c * P_e / K, so p_c = K_c * C * P_e / K; ``rule="uniform"``
    splits emitted power evenly, P_c = P_e / C.
    """
    if not total_power_w > 0:
        raise ValueError(f"total power must be positive, got {total_power_w}")
    sizes = np.asarray(sizes)
    c_total = len(sizes)
    eta = 1.0 / (cfg.num_elements * c_total)
    if rule == "proportional":
        emitted = sizes * total_power_w / int(np.sum(sizes))
    elif rule == "uniform":
        emitted = np.full(c_total, total_power_w / c_total)
    else:
        raise ValueError(f"unknown power split rule: {rule!r}")
    # P_c = eta * ||w_c||^2 * p_c with ||w_c||^2 = M, hence p_c = C * P_c.
    return BeamformingPlan(
        weights=np.ascontiguousarray(steering_matrix(cfg, theta, phi).T),
        eta=eta,
        cluster_powers_pc=c_total * emitted,
        emitted_powers_Pc=emitted,
    )
