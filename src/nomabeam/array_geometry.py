"""Uniform planar array geometry: steering vectors and the array pattern.

The array is a rectangular grid of ``m_h x m_v`` elements with spacing ``d``
expressed in wavelengths.  Directions are (azimuth, elevation) pairs mapped to
the direction cosines

    u_az = cos(theta) * cos(phi),    u_el = sin(phi),

and every pattern quantity in this module is a function of those cosines only.
The normalized pattern of a steered beam evaluated at another direction is the
interference metric ``beta``: the magnitude of the conjugate inner product of
the two steering vectors divided by the element count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayConfig",
    "Direction",
    "steering_matrix",
    "beta_matrix",
    "pattern_cut",
]

# The largest element spacing, in wavelengths.  Arrays space their elements
# half a wavelength apart, and sparse arrays a few wavelengths; ten is past
# both, and within it every steering phase and pattern value is finite.
MAX_ELEMENT_SPACING = 10.0

# Below this, |sin(pi * d/lambda * delta)| is treated as a removable
# singularity of the closed-form pattern and the per-axis factor is its
# limit, 1.
_SINGULAR_EPS = 1e-12


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform planar array layout.

    m_h, m_v: horizontal / vertical element counts (>= 1 each).
    d_over_lambda: element spacing as a fraction of the carrier wavelength.
    """

    m_h: int
    m_v: int
    d_over_lambda: float = 0.5

    def __post_init__(self) -> None:
        if self.m_h < 1 or self.m_v < 1:
            raise ValueError(f"element counts must be >= 1, got {self.m_h}x{self.m_v}")
        if not 0 < self.d_over_lambda <= MAX_ELEMENT_SPACING:
            raise ValueError(
                f"element spacing must lie in (0, {MAX_ELEMENT_SPACING:g}] wavelengths, got {self.d_over_lambda}"
            )

    @property
    def num_elements(self) -> int:
        return self.m_h * self.m_v


@dataclass(frozen=True)
class Direction:
    """Departure direction in radians.

    Canonical ranges: azimuth ``theta`` in [0, 2*pi), elevation ``phi`` in
    [-pi/2, pi/2].  Values outside these ranges are accepted (the trigonometry
    is total) but the simulator only produces canonical ones.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"direction angles must be finite, got ({self.theta}, {self.phi})")


def _direction_cosines(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """(u_az, u_el) = (cos(theta)cos(phi), sin(phi)), elementwise over angle arrays."""
    return np.cos(theta) * np.cos(phi), np.sin(phi)


def steering_matrix(cfg: ArrayConfig, theta, phi) -> np.ndarray:
    """Steering vectors toward the directions (theta[n], phi[n]), one per row (N x M).

    Entry for horizontal index i and vertical index j (flattened as
    ``i * m_v + j``) is ``exp(j * 2*pi * d/lambda * (i*u_az + j*u_el))``:
    the Kronecker product of the azimuth progression
    ``exp(j * 2*pi * d/lambda * i*u_az)`` and the elevation progression
    ``exp(j * 2*pi * d/lambda * j*u_el)``, so each direction takes m_h + m_v
    complex exps and one outer product.
    """
    u_az, u_el = _direction_cosines(theta, phi)
    step = 2.0 * math.pi * cfg.d_over_lambda
    n, m_h = len(u_az), cfg.m_h
    # Both progressions side by side, their phases straight into the imaginary parts.
    phasors = np.zeros((n, m_h + cfg.m_v), dtype=complex)
    np.multiply((step * u_az)[:, None], np.arange(m_h), out=phasors.imag[:, :m_h])
    np.multiply((step * u_el)[:, None], np.arange(cfg.m_v), out=phasors.imag[:, m_h:])
    np.exp(phasors, out=phasors)
    return (phasors[:, :m_h, None] * phasors[:, None, m_h:]).reshape(n, cfg.num_elements)


def _sin_ratio(m: int, x: np.ndarray) -> np.ndarray:
    """One axis of the normalized pattern: sin(m*x) / (m*sin(x)), limit 1 where sin(x) vanishes."""
    s = np.sin(x)
    singular = np.abs(s) < _SINGULAR_EPS
    return np.where(singular, 1.0, np.sin(m * x) / (m * np.where(singular, 1.0, s)))


def _pattern(cfg: ArrayConfig, theta_k, phi_k, theta_u, phi_u) -> np.ndarray:
    """beta between directions (theta_k, phi_k) and (theta_u, phi_u), elementwise.

    The angle arguments broadcast against each other like numpy arrays.  Each
    value is (1/M) |a_k^H a_u| evaluated through the closed-form product of
    per-axis sin ratios, in [0, 1] and exactly symmetric in the two
    directions; read as the pattern of a beam steered at u probed at k.
    """
    uk_az, uk_el = _direction_cosines(theta_k, phi_k)
    uu_az, uu_el = _direction_cosines(theta_u, phi_u)
    c = math.pi * cfg.d_over_lambda
    return np.abs(_sin_ratio(cfg.m_h, c * (uk_az - uu_az)) * _sin_ratio(cfg.m_v, c * (uk_el - uu_el)))


def beta_matrix(theta: np.ndarray, phi: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Pairwise beta values among each row's directions: (..., K) angle arrays give (..., K, K).

    Each K x K matrix is symmetric, in [0, 1] with diagonal 1.  The pattern
    is elementwise, so a row's matrix has the bits it has alone.
    """
    return _pattern(cfg, theta[..., :, None], phi[..., :, None], theta[..., None, :], phi[..., None, :])


def pattern_cut(
    cfg: ArrayConfig, beam_dir: Direction, axis: str, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe angles and pattern of a beam steered at ``beam_dir`` along one axis.

    ``axis="az"`` offsets the azimuth and ``axis="el"`` the elevation by each
    of ``offsets``, the other angle held at the beam's.  Returns the probes'
    theta and phi and the pattern there.
    """
    if axis == "az":
        theta, phi = beam_dir.theta + offsets, np.full_like(offsets, beam_dir.phi)
    elif axis == "el":
        theta, phi = np.full_like(offsets, beam_dir.theta), beam_dir.phi + offsets
    else:
        raise ValueError(f"axis must be 'az' or 'el', got {axis!r}")
    return theta, phi, _pattern(cfg, theta, phi, beam_dir.theta, beam_dir.phi)
