"""Comparison schemes and the energy-efficiency metric.

Three references frame the shared-beam scheme: orthogonal sharing of a beam
(each paired user gets half the band, which the harness evaluates with the
same rate formula), conjugate beamforming (each user's beam is its matched
filter), and the plain one-beam-per-user steering that the rest of the
package already covers.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .link_metrics import link_states

__all__ = [
    "SchemeId",
    "conjugate_bf_sinr",
    "energy_efficiency",
]


class SchemeId(Enum):
    """Implemented transmission schemes; values are the config/CSV tags."""

    DBS = "dbs"
    NOMA_DBS_FCSI = "noma_dbs_fcsi"
    NOMA_DBS_PCSI = "noma_dbs_pcsi"
    OMA_DBS = "oma_dbs"
    CONJUGATE_BF = "cb"


def conjugate_bf_sinr(h_matrix: np.ndarray, total_power_w: float, noise_w: float) -> np.ndarray:
    """Per-user SINRs under conjugate (matched-filter) beamforming.

    ``h_matrix`` holds one channel row per user (K x M), or is a T x K x M
    block of such drops, whose SINRs come back as T x K.  Each user's
    weight vector is its conjugated channel normalized to unit norm; the
    transmit normalization is eta = 1/K (the weight-trace rule for unit-norm
    columns) with each beam carrying the full signal power p_c = P,
    mirroring the one-beam-per-user split of the steered schemes.  User k is
    served by beam k, and :func:`link_states` scores it like any steered beam.
    """
    k_users = h_matrix.shape[-2]
    w_matrix = np.conj(np.swapaxes(h_matrix, -1, -2))
    w_matrix /= np.linalg.norm(h_matrix, axis=-1)[..., None, :]
    # eta * p_c, in that order: P / K may differ in the last bit.
    gains = h_matrix @ w_matrix
    del w_matrix
    return link_states(gains, 1.0 / k_users * total_power_w, np.arange(k_users), noise_w)[2]


# Consumption model of the energy-efficiency metric: power-amplifier
# inefficiency, fixed consumption per antenna and the base-station floor.
PA_INEFFICIENCY_RHO = 10.0
PER_ANTENNA_POWER_W = 1.0
BASE_STATION_POWER_W = 0.2


def energy_efficiency(sum_rate_bps: float, emitted_power_w: float, num_antennas: int) -> float:
    """Sum rate per joule: rate / (rho * P_emitted + M * P_antenna + P_base)."""
    consumed = PA_INEFFICIENCY_RHO * emitted_power_w + num_antennas * PER_ANTENNA_POWER_W + BASE_STATION_POWER_W
    return sum_rate_bps / consumed
