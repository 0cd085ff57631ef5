"""Per-user link quality: signal/interference decomposition, SINRs, rates.

For a user on beam c the received superimposed-signal power is
``psi = eta * p_c * |h w_c|^2`` and the other-beam interference plus noise
is ``nu``; their ratio ``zeta`` is the single scalar that drives every rate
formula here.  A private (single-user) beam achieves SINR = zeta directly;
on a shared beam the power-split coefficient ``gamma1`` of the strong user
scales the two users' SINRs in opposite directions.  The SINR formulas take
scalars or arrays alike.
"""

from __future__ import annotations

import math

import numpy as np

from .beamforming import BeamformingPlan

__all__ = [
    "link_states",
    "sinr_noma_strong",
    "sinr_noma_weak",
    "rate",
]


def link_states(
    h_rows: np.ndarray,
    plan: BeamformingPlan,
    own_beams: np.ndarray,
    noise_w: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays psi, nu and zeta = psi / nu of every channel row, row k served by beam ``own_beams[k]``.

    All of them come from one K x C matrix of weighted beam gains
    ``eta * p_c * |h_k w_c|^2``.
    """
    if not noise_w > 0:
        raise ValueError(f"noise power must be positive, got {noise_w}")
    weighted = plan.received_powers(h_rows)
    psi = weighted[np.arange(len(weighted)), own_beams]
    nu = np.sum(weighted, axis=1) - psi + noise_w
    return psi, nu, psi / nu


def sinr_noma_strong(zeta, gamma1):
    """SINR of the strong user on a shared beam after it cancels its partner.

    The strong user removes the weak user's signal, so only the
    ``gamma1`` fraction of the beam power is useful and no intra-beam
    interference remains: SINR = zeta * gamma1.
    """
    _check_gamma(gamma1)
    return zeta * gamma1


def sinr_noma_weak(zeta, gamma1):
    """SINR of the weak user, which decodes under the strong user's signal.

    SINR = zeta * (1 - gamma1) / (1 + zeta * gamma1).
    """
    _check_gamma(gamma1)
    return zeta * (1.0 - gamma1) / (1.0 + zeta * gamma1)


def _check_gamma(gamma1) -> None:
    if not np.all((0.0 <= gamma1) & (gamma1 <= 1.0)):
        raise ValueError(f"gamma1 must be in [0, 1], got {gamma1}")


def rate(sinr: float, bandwidth_hz: float) -> float:
    """Shannon rate in bps: bandwidth * log2(1 + sinr)."""
    if sinr < 0:
        raise ValueError(f"sinr must be nonnegative, got {sinr}")
    return bandwidth_hz * math.log2(1.0 + sinr)
