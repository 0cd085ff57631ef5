"""Per-user link quality: signal/interference decomposition, SINRs, rates.

For a user on beam c, with weight vector w_c and power eta * p_c from
``beamforming.build_plan``, the received superimposed-signal power is
``psi = eta * p_c * |h w_c|^2`` and the other-beam interference plus noise
is ``nu``; their ratio ``zeta`` is the single scalar that drives every rate
formula here.  :func:`link_states` alone weighs power gains |h w_c|^2, which
its callers square, each row against the beam that serves it: the channel
rows through the steered schemes' beams (a shared plan's rows in beam
order), conjugate beamforming's gains from the drop's Gram matrix, and the
pattern gains M * beta from which partial CSI estimates its ratios with no
noise.  A private (single-user) beam achieves SINR = zeta directly; on a
shared beam :func:`sinr_noma` gives both users' SINRs, which the strong
user's power-split coefficient ``gamma1`` scales in opposite directions.
The SINR and rate formulas take scalars or arrays alike.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "link_states",
    "sinr_noma",
    "rate",
]


def link_states(
    power_gains: np.ndarray,
    beam_powers: np.ndarray,
    row_beams: np.ndarray,
    noise_w: float,
    beam_counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays psi, nu and zeta = psi / nu of every channel row, row k served by beam ``row_beams[..., k]``.

    ``power_gains[..., k, c]`` is the power gain |h_k w_c|^2 of row k through
    beam c, and ``beam_powers`` broadcasts each beam's eta * p_c against it (a
    C-vector, a scalar for equal beams, T x 1 x C for T drops).  All of the
    arrays come from the weighted power gains ``eta * p_c * |h_k w_c|^2``.
    Drop t of a block may pad its gains and powers past its ``beam_counts[t]``
    beams: its row sums run at that count, so that its entries have the bits
    it gives alone.
    """
    weighted = power_gains * beam_powers
    psi = np.take_along_axis(weighted, np.broadcast_to(row_beams, weighted.shape[:-1])[..., None], -1)[..., 0]
    if beam_counts is None:
        sums = np.sum(weighted, axis=-1)
    else:
        sums = np.empty_like(psi)
        for drop, count, out in zip(weighted, beam_counts.tolist(), sums):
            np.add.reduce(drop[:, :count], axis=-1, out=out)
    nu = sums - psi + noise_w
    return psi, nu, psi / nu


def sinr_noma(zeta_strong, zeta_weak, gamma1):
    """SINRs ``(strong, weak)`` of a shared beam's two users at the strong user's split ``gamma1``.

    The strong user cancels its partner's signal, so only the ``gamma1``
    fraction of the beam power is useful and no intra-beam interference
    remains: zeta_strong * gamma1.  The weak user decodes under the strong
    user's signal: zeta_weak * (1 - gamma1) / (1 + zeta_weak * gamma1).
    """
    if not np.all((0.0 <= gamma1) & (gamma1 <= 1.0)):
        raise ValueError(f"gamma1 must be in [0, 1], got {gamma1}")
    return zeta_strong * gamma1, zeta_weak * (1.0 - gamma1) / (1.0 + zeta_weak * gamma1)


def rate(sinr, bandwidth_hz):
    """Shannon rate in bps, bandwidth * log2(1 + sinr), of a scalar or of each entry of an array.

    ``bandwidth_hz`` is one band, or one band per entry.  Each log2 is taken
    by ``math.log2``, which numpy's log2 does not match to the ulp; the sum
    1 + sinr is one rounded add either way.
    """
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError(f"sinr must be nonnegative, got {sinr[sinr < 0][0]}")
    log2s = np.fromiter(map(math.log2, (1.0 + sinr).ravel().tolist()), float, sinr.size)
    return bandwidth_hz * log2s.reshape(sinr.shape)
