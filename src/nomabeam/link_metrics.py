"""Per-user link quality: signal/interference decomposition, SINRs, rates.

For a user in cluster c the received superimposed-signal power is
``psi = eta * p_c * |h w_c|^2`` and the other-cluster interference plus noise
is ``nu``; their ratio ``zeta`` is the single scalar that drives every rate
formula here.  A private (single-user) beam achieves SINR = zeta directly;
on a shared beam the power-split coefficient ``gamma1`` of the strong user
scales the two users' SINRs in opposite directions.

The two ``*_closed`` functions are independent closed forms for the private-
beam SINR in single-path and multipath environments, used to validate the
generic pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .array_geometry import ArrayConfig, Direction, steering_vector
from .beamforming import BeamformingPlan
from .channel import UserChannel

__all__ = [
    "LinkState",
    "link_states",
    "compute_link_state",
    "sinr_dbs",
    "sinr_noma_strong",
    "sinr_noma_weak",
    "sic_feasible",
    "rate",
    "sinr_dbs_monopath_closed",
    "sinr_dbs_multipath_closed",
]


@dataclass(frozen=True)
class LinkState:
    """Signal/interference decomposition for one user against one plan.

    psi: received power of the own-beam superimposed signal.
    nu: interference from all other beams plus noise power.
    zeta: psi / nu.
    """

    psi: float
    nu: float
    zeta: float


def link_states(
    h_rows: np.ndarray,
    plan: BeamformingPlan,
    own_clusters: Sequence[int],
    noise_w: float,
) -> list[LinkState]:
    """psi, nu and zeta of every channel row, row k served by ``own_clusters[k]``.

    All of them come from one K x C matrix of weighted beam gains
    ``eta * p_c * |h_k w_c|^2``.
    """
    if not noise_w > 0:
        raise ValueError(f"noise power must be positive, got {noise_w}")
    beam_gains = np.abs(h_rows @ plan.weight_matrix) ** 2
    weighted = plan.eta * np.asarray(plan.cluster_powers_pc) * beam_gains
    psi = weighted[np.arange(len(weighted)), own_clusters]
    nu = np.sum(weighted, axis=1) - psi + noise_w
    return [LinkState(psi=p, nu=n, zeta=p / n) for p, n in zip(psi.tolist(), nu.tolist())]


def compute_link_state(
    h: np.ndarray,
    plan: BeamformingPlan,
    own_cluster: int,
    noise_w: float,
) -> LinkState:
    """psi, nu and zeta for channel row ``h`` served by ``own_cluster``."""
    return link_states(h[np.newaxis], plan, [own_cluster], noise_w)[0]


def sinr_dbs(ls: LinkState) -> float:
    """SINR of a user alone on its beam: the full superimposed power ratio."""
    return ls.zeta


def sinr_noma_strong(ls: LinkState, gamma1: float) -> float:
    """SINR of the strong user on a shared beam after it cancels its partner.

    The strong user removes the weak user's signal, so only the
    ``gamma1`` fraction of the beam power is useful and no intra-beam
    interference remains: SINR = zeta * gamma1.
    """
    _check_gamma(gamma1)
    return ls.zeta * gamma1


def sinr_noma_weak(ls: LinkState, gamma1: float) -> float:
    """SINR of the weak user, which decodes under the strong user's signal.

    SINR = zeta * (1 - gamma1) / (1 + zeta * gamma1).
    """
    _check_gamma(gamma1)
    return ls.zeta * (1.0 - gamma1) / (1.0 + ls.zeta * gamma1)


def _check_gamma(gamma1: float) -> None:
    if not 0.0 <= gamma1 <= 1.0:
        raise ValueError(f"gamma1 must be in [0, 1], got {gamma1}")


def sic_feasible(zeta1: float, gamma1: float, p_min: float) -> bool:
    """Whether the strong user can cancel reliably: (1 - 2*gamma1) >= p_min / zeta1.

    The power-split gap between the two users' signals, seen through the
    strong user's link ratio, must reach the minimum difference ``p_min``
    (inclusive at the boundary).
    """
    if not zeta1 > 0:
        raise ValueError(f"zeta1 must be positive, got {zeta1}")
    if p_min < 0:
        raise ValueError(f"p_min must be nonnegative, got {p_min}")
    return (1.0 - 2.0 * gamma1) >= p_min / zeta1


def rate(sinr: float, bandwidth_hz: float) -> float:
    """Shannon rate in bps: bandwidth * log2(1 + sinr)."""
    if sinr < 0:
        raise ValueError(f"sinr must be nonnegative, got {sinr}")
    return bandwidth_hz * math.log2(1.0 + sinr)


def sinr_dbs_monopath_closed(
    gains: Sequence[complex],
    dirs: Sequence[Direction],
    own: int,
    eta_dbs: float,
    noise_w: float,
    cfg: ArrayConfig,
) -> float:
    """Closed-form private-beam SINR when every user has a single path.

    |a_k^H a_k|^2 / (sum_u |a_k^H a_u|^2 + noise / (eta_dbs * |gain_k|^2)),
    with one beam steered at each user's direction.  ``eta_dbs`` is the full
    transmit scaling applied per beam (normalization times per-beam signal
    power), which for the one-beam-per-user split equals P_e / (M * K).
    """
    a_own = steering_vector(cfg, dirs[own]).entries
    numerator = abs(np.vdot(a_own, a_own)) ** 2
    interference = sum(
        abs(np.vdot(a_own, steering_vector(cfg, dirs[u]).entries)) ** 2
        for u in range(len(dirs))
        if u != own
    )
    return numerator / (interference + noise_w / (eta_dbs * abs(gains[own]) ** 2))


def sinr_dbs_multipath_closed(
    channels: Sequence[UserChannel],
    own: int,
    eta_dbs: float,
    noise_w: float,
    cfg: ArrayConfig,
) -> float:
    """Closed-form private-beam SINR with multipath channels and LOS-steered beams.

    Both the useful power and the interference accumulate every path of the
    observing user against each beam, with path amplitudes expressed relative
    to its LOS amplitude; ``eta_dbs`` is as in the single-path form.
    """
    uc = channels[own]
    alpha_los = uc.los.gain
    own_paths = [steering_vector(cfg, p.direction).entries for p in uc.paths]
    ratios = [p.gain / alpha_los for p in uc.paths]

    def response_to(beam: np.ndarray) -> complex:
        return sum(r * np.vdot(a, beam) for r, a in zip(ratios, own_paths))

    own_beam = steering_vector(cfg, uc.los.direction).entries
    numerator = abs(response_to(own_beam)) ** 2
    interference = 0.0
    for u, other in enumerate(channels):
        if u == own:
            continue
        beam_u = steering_vector(cfg, other.los.direction).entries
        interference += abs(response_to(beam_u)) ** 2
    return numerator / (interference + noise_w / (eta_dbs * abs(alpha_los) ** 2))
