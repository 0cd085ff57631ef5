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
    transmit normalization is 1/K (the weight-trace rule for unit-norm
    columns) with each beam carrying the full signal power, mirroring the
    one-beam-per-user split of the steered schemes.
    """
    k_users = h_matrix.shape[-2]
    if k_users == 0:
        raise ValueError("at least one user is required")
    w_matrix = np.conj(np.swapaxes(h_matrix, -1, -2))
    w_matrix /= np.linalg.norm(h_matrix, axis=-1)[..., None, :]
    eta = 1.0 / k_users
    amplitudes = h_matrix @ w_matrix
    del w_matrix  # the K x K gains below need no K x M weights beside them
    beam_gains = eta * total_power_w * np.abs(amplitudes) ** 2
    signal = np.diagonal(beam_gains, axis1=-2, axis2=-1)
    return signal / (beam_gains.sum(axis=-1) - signal + noise_w)


def energy_efficiency(
    sum_rate_bps: float,
    emitted_power_w: float,
    num_antennas: int,
    rho: float,
    pa_w: float,
    p0_w: float,
) -> float:
    """Sum rate per joule: rate / (rho * P_emitted + M * P_antenna + P_base).

    ``rho`` models power-amplifier inefficiency, ``pa_w`` the fixed per-
    antenna consumption and ``p0_w`` the base-station floor.
    """
    if num_antennas < 1:
        raise ValueError(f"antenna count must be >= 1, got {num_antennas}")
    if min(emitted_power_w, rho, pa_w, p0_w) < 0:
        raise ValueError("power terms must be nonnegative")
    consumed = rho * emitted_power_w + num_antennas * pa_w + p0_w
    return sum_rate_bps / consumed
