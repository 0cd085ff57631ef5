"""Beam weight assembly and the fixed per-cluster power split.

Each cluster's weight vector is the steering vector at its beam direction;
the normalization ``eta = 1 / (M * C)`` makes the emitted power independent
of the beamforming.  The per-cluster signal powers are fixed before any
intra-cluster optimization: either proportional to the cluster's user count
(the default, which equalizes emitted power per user) or a uniform split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .array_geometry import ArrayConfig, steering_matrix
from .clustering import ClusterSet

__all__ = ["BeamformingPlan", "build_plan"]


@dataclass(frozen=True)
class BeamformingPlan:
    """Per-cluster beam weights and the fixed power split.

    ``cluster_powers_pc`` are the superposed-signal powers p_c entering the
    transmit chain; ``emitted_powers_Pc`` are the shares of the total emitted
    power, related by P_c = eta * ||w_c||^2 * p_c.
    """

    weights: tuple[np.ndarray, ...]
    eta: float
    cluster_powers_pc: tuple[float, ...]
    emitted_powers_Pc: tuple[float, ...]

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """All weight vectors stacked as the columns of an M x C matrix."""
        return np.column_stack(self.weights)

    def received_powers(self, rows: np.ndarray) -> np.ndarray:
        """Weighted beam gains ``eta * p_c * |row @ w_c|^2`` of each channel row and beam.

        A 1-D row gives one value per beam, a K x M matrix of rows a K x C matrix.
        """
        return self.eta * np.asarray(self.cluster_powers_pc) * np.abs(rows @ self.weight_matrix) ** 2


def build_plan(
    cs: ClusterSet,
    cfg: ArrayConfig,
    total_power_w: float,
    num_users: int,
    rule: str = "proportional",
) -> BeamformingPlan:
    """Build beam weights and the fixed inter-cluster power split.

    ``rule="proportional"`` (default) gives each cluster an emitted-power
    share P_c = K_c * P_e / K, so p_c = K_c * C * P_e / K; ``rule="uniform"``
    splits emitted power evenly, P_c = P_e / C.
    """
    if not total_power_w > 0:
        raise ValueError(f"total power must be positive, got {total_power_w}")
    sizes = [len(c.members) for c in cs.clusters]
    if sum(sizes) != num_users:
        raise ValueError(f"clusters cover {sum(sizes)} users, expected {num_users}")
    c_total = cs.total
    eta = 1.0 / (cfg.num_elements * c_total)
    if rule == "proportional":
        emitted = [k_c * total_power_w / num_users for k_c in sizes]
    elif rule == "uniform":
        emitted = [total_power_w / c_total for _ in sizes]
    else:
        raise ValueError(f"unknown power split rule: {rule!r}")
    # P_c = eta * ||w_c||^2 * p_c with ||w_c||^2 = M, hence p_c = C * P_c.
    powers = [c_total * p for p in emitted]
    beams = [c.beam_dir for c in cs.clusters]
    weights = tuple(steering_matrix(cfg, [d.theta for d in beams], [d.phi for d in beams]))
    return BeamformingPlan(
        weights=weights,
        eta=eta,
        cluster_powers_pc=tuple(powers),
        emitted_powers_Pc=tuple(emitted),
    )

