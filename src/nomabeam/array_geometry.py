"""Uniform planar array geometry: steering vectors and the array pattern.

The array is a rectangular grid of ``m_h x m_v`` elements with spacing ``d``
expressed in wavelengths.  Directions are (azimuth, elevation) pairs mapped to
the direction cosines

    u_az = cos(theta) * cos(phi),    u_el = sin(phi),

and every pattern quantity in this module is a function of those cosines only.
The normalized pattern of a steered beam evaluated at another direction is the
interference metric ``beta``: the magnitude of the conjugate inner product of
the two steering vectors divided by the element count.  One closed form,
``pattern``, gives it to the pairing (``eligible_pairs``), to partial CSI's
estimates and to the ``nomabeam pattern`` cuts.  Each function reads the
layout (``m_h``, ``m_v``, ``d_over_lambda``) from the scenario's
``ScenarioConfig``, which checks it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .sim_harness import ScenarioConfig

__all__ = [
    "steering_matrix",
    "eligible_pairs",
    "pattern",
]

# Below this, |sin(pi * d/lambda * delta)| is treated as a removable
# singularity of the closed-form pattern and the per-axis factor is its
# limit, 1.
_SINGULAR_EPS = 1e-12

# A rounded per-axis factor can exceed its bound 1 by about
# |x| * 2**-53 / _SINGULAR_EPS where |sin x| is just above _SINGULAR_EPS:
# 7e-3 at the |x| = 20 pi of a ten-wavelength spacing.  The pairing
# pre-filter's bound allows that much and more.
_RATIO_SLACK = 0.05


def _direction_cosines(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """(u_az, u_el) = (cos(theta)cos(phi), sin(phi)), elementwise over angle arrays."""
    return np.cos(theta) * np.cos(phi), np.sin(phi)


def steering_matrix(cfg: ScenarioConfig, theta, phi) -> np.ndarray:
    """Steering vectors toward the directions (theta[n], phi[n]), one per row (N x M).

    Entry for horizontal index i and vertical index j (flattened as
    ``i * m_v + j``) is ``exp(j * 2*pi * d/lambda * (i*u_az + j*u_el))``:
    the Kronecker product of the azimuth progression
    ``exp(j * 2*pi * d/lambda * i*u_az)`` and the elevation progression
    ``exp(j * 2*pi * d/lambda * j*u_el)``, each the running product of its
    unit step (two complex exps a direction).  Element 0 of a progression is
    exactly 1; element i carries the rounding of i products and i steps.
    """
    u_az, u_el = _direction_cosines(theta, phi)
    step = 2.0 * math.pi * cfg.d_over_lambda
    n, m_h = len(u_az), cfg.m_h
    # One direction per column: 1, then its unit step, raised to powers down the rows in place.
    phasors = np.ones((m_h + cfg.m_v, n), dtype=complex)
    phasors[1:m_h] = np.exp(1j * step * u_az)
    phasors[m_h + 1 :] = np.exp(1j * step * u_el)
    np.multiply.accumulate(phasors[:m_h], out=phasors[:m_h])
    np.multiply.accumulate(phasors[m_h:], out=phasors[m_h:])
    # C order, the layout the callers' products take (order "K" grew their resident memory).
    az, el = phasors[:m_h].T, phasors[m_h:].T
    return np.multiply(az[:, :, None], el[:, None, :], order="C").reshape(n, cfg.num_elements)


def _sin_ratio(m: int, x: np.ndarray) -> np.ndarray:
    """One axis of the normalized pattern: sin(m*x) / (m*sin(x)), limit 1 where sin(x) vanishes."""
    s = np.sin(x)
    singular = np.abs(s) < _SINGULAR_EPS
    return np.where(singular, 1.0, np.sin(m * x) / (m * np.where(singular, 1.0, s)))


def _cosine_pattern(cfg: ScenarioConfig, beam_az, beam_el, u_az, u_el) -> np.ndarray:
    """``pattern`` from the direction cosines of the beam and of the probe."""
    c = math.pi * cfg.d_over_lambda
    return np.abs(_sin_ratio(cfg.m_h, c * (u_az - beam_az)) * _sin_ratio(cfg.m_v, c * (u_el - beam_el)))


def pattern(cfg: ScenarioConfig, beam_theta, beam_phi, theta, phi) -> np.ndarray:
    """beta of a beam steered at (``beam_theta``, ``beam_phi``) probed at (``theta``, ``phi``).

    Each value is (1/M) |a_k^H a_u| of the probe k and the beam u, evaluated
    through the closed-form product of per-axis sin ratios of the phase gaps
    x = pi * d/lambda * (u_k - u_u), in [0, 1].  Elementwise over angle
    arrays that broadcast against each other; beam and probe may swap
    places, and the value is the same.
    """
    return _cosine_pattern(cfg, *_direction_cosines(beam_theta, beam_phi), *_direction_cosines(theta, phi))


def eligible_pairs(
    cfg: ScenarioConfig, theta: np.ndarray, phi: np.ndarray, beta0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of each drop's users whose beta reaches ``beta0``, from T x K angle arrays.

    Returns the drop t, the users k < u and the beta of every pair with
    beta >= beta0, in (t, k, u) order; ``beta0 = 0`` keeps every pair.  The
    azimuth factor of a pair is at most 1 / (m_h |sin x|) for its azimuth gap
    x and the elevation factor at most 1, so only the pairs with
    m_h * beta0 * |sin x| <= 1 (up to rounding) have their pattern
    evaluated, from the direction cosines the filter took.  The pattern is
    elementwise, so a drop's betas have the bits they have alone.
    """
    u_az, u_el = _direction_cosines(theta, phi)
    k_idx, u_idx = np.triu_indices(theta.shape[1], 1)
    x_az = math.pi * cfg.d_over_lambda * (u_az[:, k_idx] - u_az[:, u_idx])
    t, p = np.nonzero(cfg.m_h * beta0 * np.abs(np.sin(x_az)) <= 1.0 + _RATIO_SLACK)
    k, u = k_idx[p], u_idx[p]
    beta = _cosine_pattern(cfg, u_az[t, u], u_el[t, u], u_az[t, k], u_el[t, k])
    keep = beta >= beta0
    return t[keep], k[keep], u[keep], beta[keep]
