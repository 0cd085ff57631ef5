"""Stochastic multipath channel generation and channel-vector assembly.

This is a deliberately simple sparse-multipath generator for rural mmWave
cells: a dominant line-of-sight path with free-space path loss plus log-normal
shadowing, and a handful of weaker scattered paths clustered in angle around
it.  Knobs (path counts per time cluster, NLOS gain offsets, angle spread,
shadowing) are exposed through :class:`ChannelParams`.

Geometry: the base station sits at the origin with its array at a fixed
height above the user plane; users are dropped uniformly over the half-disc
in front of the array (azimuth in [0, pi], the array's field of view), so
azimuth maps one-to-one onto the horizontal direction cosine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .array_geometry import ArrayConfig, steering_matrix

__all__ = [
    "BS_HEIGHT_M",
    "SPEED_OF_LIGHT",
    "InvalidParams",
    "DropPaths",
    "ChannelParams",
    "draw_paths",
    "channel_rows",
]

SPEED_OF_LIGHT = 299_792_458.0

# Antenna height above the user plane; fixes the elevation geometry of a drop
# and keeps the free-space loss bounded for users close to the mast.
BS_HEIGHT_M = 10.0

# Bounds of the generator's knobs: the largest time-cluster and per-cluster
# path counts of the NYUSIM channel model, a shadowing spread well past
# measured ones, carriers from HF radio to the terahertz band and scattered
# paths at most 30 dB stronger than line of sight.  Within them, and with the
# cell radius bounded, every path amplitude is finite and every line-of-sight
# amplitude nonzero.
MAX_TIME_CLUSTERS = 6
MAX_PATHS_PER_CLUSTER = 30
MAX_SHADOWING_SIGMA_DB = 30.0
MIN_CARRIER_HZ = 1e6
MAX_CARRIER_HZ = 1e12
MIN_NLOS_GAIN_OFFSET_DB = -30.0

# Bytes of scattered-path steering vectors computed at once.  Steering them
# next to the LOS matrix and the channel rows then takes less memory than the
# link states that follow, and each block stays far below the 4 MiB from which
# numpy advises the kernel to back an array with transparent huge pages: once
# freed, such a region of the heap faults in 2 MiB at a time, which made the
# peak resident size of large drops depend on where small arrays later landed.
_BLOCK_BYTES = 2**19


class InvalidParams(ValueError):
    """Channel parameters are out of range (empty interval, bad radius, ...)."""


@dataclass(frozen=True)
class DropPaths:
    """Every propagation path of a block of drops, as flat arrays.

    The users of the block's drops follow one another, drop after drop.
    User k's paths are ``starts[k]`` up to ``starts[k + 1]`` (the last user's
    run to the end), ordered strongest first, so ``starts`` also indexes each
    user's line-of-sight / strongest path.  ``gains`` are the complex path
    amplitudes, ``theta`` and ``phi`` the departure angles in radians.  One
    drop is a block of one.
    """

    starts: np.ndarray
    gains: np.ndarray
    theta: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class ChannelParams:
    """Knobs of the multipath generator.

    Integer intervals are inclusive; degenerate intervals (lo == hi) pin the
    draw.  Rural defaults: 1-2 time clusters of 1-2 paths each, scattered
    paths 5-15 dB below line of sight within a 15 degree spread.
    """

    carrier_hz: float = 28e9
    num_time_clusters_range: tuple[int, int] = (1, 2)
    paths_per_cluster_range: tuple[int, int] = (1, 2)
    nlos_gain_offset_db: tuple[float, float] = (5.0, 15.0)
    angle_spread_deg: float = 15.0
    shadowing_sigma_db: float = 4.0

    def __post_init__(self) -> None:
        if not MIN_CARRIER_HZ <= self.carrier_hz <= MAX_CARRIER_HZ:
            raise InvalidParams(
                f"carrier must lie in [{MIN_CARRIER_HZ:g}, {MAX_CARRIER_HZ:g}] Hz, got {self.carrier_hz}"
            )
        for name in ("num_time_clusters_range", "paths_per_cluster_range", "nlos_gain_offset_db"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidParams(f"{name} is empty: ({lo}, {hi})")
        for name, cap in (
            ("num_time_clusters_range", MAX_TIME_CLUSTERS),
            ("paths_per_cluster_range", MAX_PATHS_PER_CLUSTER),
        ):
            lo, hi = getattr(self, name)
            if lo < 1 or hi > cap:
                raise InvalidParams(f"{name} must lie within [1, {cap}], got ({lo}, {hi})")
        if not self.nlos_gain_offset_db[0] >= MIN_NLOS_GAIN_OFFSET_DB:
            raise InvalidParams(
                f"nlos_gain_offset_db must not go below {MIN_NLOS_GAIN_OFFSET_DB:g} dB, got {self.nlos_gain_offset_db}"
            )
        if not 0.0 <= self.angle_spread_deg < math.inf:
            raise InvalidParams(f"angle spread must be nonnegative and finite, got {self.angle_spread_deg}")
        if not 0.0 <= self.shadowing_sigma_db <= MAX_SHADOWING_SIGMA_DB:
            raise InvalidParams(
                f"shadowing sigma must lie in [0, {MAX_SHADOWING_SIGMA_DB:g}] dB, got {self.shadowing_sigma_db}"
            )

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


def draw_paths(
    rngs: Sequence[np.random.Generator],
    params: ChannelParams,
    cell_radius_m: float,
    k_users: int,
) -> DropPaths:
    """Draw a block of drops: ``k_users`` users in the cell per generator, and their multipath channels.

    The line-of-sight amplitude is free-space path loss at the carrier over
    the 3D distance, shadowed log-normally; scattered paths are drawn per
    ``params`` below it and within ``angle_spread_deg`` of the LOS direction.
    Each user's paths are sorted strongest first (a stable sort).  Drop t
    takes its users from ``rngs[t]`` and comes t-th in the block, and
    identical (rng state, params) yield identical paths, whatever the block.

    Only the RNG calls run per drop.  They are a scalar generator's, user
    after user, with one call for a user's scattered-path uniforms: numpy's
    ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()`` and ``normal(0, s)``
    is ``s * standard_normal()``.  The arithmetic runs once per block, except
    ``math.hypot``, ``math.asin``, ``**`` and complex ``abs``, whose numpy
    versions differ from them in the last bit on some inputs.
    """
    if not cell_radius_m > 0:
        raise InvalidParams(f"cell radius must be positive, got {cell_radius_m}")

    lo_tc, hi_tc = params.num_time_clusters_range
    lo_p, hi_p = params.paths_per_cluster_range
    sigma = params.shadowing_sigma_db
    los_draws: list[float] = []
    path_counts: list[int] = []
    scattered_draws = [np.empty((0, 4))]  # defined even when no user scatters
    for rng in rngs:
        for _ in range(k_users):
            los_draws += (rng.random(), rng.random(), sigma * rng.standard_normal(), rng.random())
            time_clusters = int(rng.integers(lo_tc, hi_tc + 1))
            total_paths = sum(int(rng.integers(lo_p, hi_p + 1)) for _ in range(time_clusters))
            path_counts.append(total_paths)
            if total_paths > 1:
                scattered_draws.append(rng.random((total_paths - 1, 4)))

    n_users = len(path_counts)
    radius_u, theta_u, shadow_db, los_phase_u = np.array(los_draws).reshape(n_users, 4).T
    ground_r = cell_radius_m * np.sqrt(radius_u)
    theta = math.pi * theta_u
    slant = np.array([math.hypot(r, BS_HEIGHT_M) for r in ground_r.tolist()])
    phi = np.array([-math.asin(s) for s in (BS_HEIGHT_M / slant).tolist()])
    los_amp = params.wavelength_m / (4.0 * math.pi * slant) * _pow10(shadow_db / 20.0)

    # Scattered paths: one row each, users in order.
    offset_u, phase_u, d_theta_u, d_phi_u = np.concatenate(scattered_draws).T
    counts = np.array(path_counts)
    owner = np.repeat(np.arange(n_users), counts - 1)
    lo_db, hi_db = params.nlos_gain_offset_db
    offset_db = lo_db + (hi_db - lo_db) * offset_u
    spread = math.radians(params.angle_spread_deg)
    d_theta = -spread + (spread + spread) * d_theta_u
    d_phi = -spread + (spread + spread) * d_phi_u

    # Every user's LOS path, then the scattered ones: a stable sort on
    # (user, -|gain|) puts each user's paths in the scalar generator's order.
    amp = np.concatenate((los_amp, los_amp[owner] * _pow10(-offset_db / 20.0)))
    phase = (2.0 * math.pi) * np.concatenate((los_phase_u, phase_u))
    gains = np.empty(len(amp), dtype=complex)
    gains.real = amp * np.cos(phase)
    gains.imag = amp * np.sin(phase)
    thetas = np.concatenate((theta, (theta[owner] + d_theta) % (2.0 * math.pi)))
    phis = np.concatenate((phi, np.minimum(np.maximum(phi[owner] + d_phi, -math.pi / 2.0), math.pi / 2.0)))
    neg_mag = np.array([-abs(g) for g in gains.tolist()])
    if not (neg_mag < 0).all():
        raise InvalidParams("path gain must be nonzero")
    order = np.lexsort((neg_mag, np.concatenate((np.arange(n_users), owner))))
    starts = np.cumsum(counts) - counts
    return DropPaths(starts, gains[order], thetas[order], phis[order])


def _pow10(exponents: np.ndarray) -> np.ndarray:
    """10 ** x per entry through Python's float power, which numpy's does not match to the ulp."""
    return np.array([10.0 ** x for x in exponents.tolist()])


def channel_rows(cfg: ArrayConfig, paths: DropPaths, los: np.ndarray) -> np.ndarray:
    """K x M channel matrix: row k sums user k's gain-weighted conjugate steering vectors.

    ``los`` holds each user's steering vector toward its first (line-of-sight)
    path as the columns of an M x K matrix, so only the other paths are
    steered here, in batches of at most ``_BLOCK_BYTES`` (one path at least).
    Each row adds its paths strongest first.  A block of T drops, their users
    concatenated in ``paths``, has T x M x K LOS vectors and T x K x M rows.
    """
    k_users = len(paths.starts)
    m_elements, drop_users = los.shape[-2:]
    rows = np.empty((*los.shape[:-2], drop_users, m_elements), dtype=complex)
    np.conjugate(np.swapaxes(los, -1, -2), out=rows)
    flat = rows.reshape(k_users, m_elements)  # a view: one row per user of the block
    flat *= paths.gains[paths.starts, None]
    # The other paths rank by rank (rank 0, each user's first path, is in
    # ``los``): every user adds its paths in order, and the paths of one rank
    # belong to distinct users.
    owner = np.repeat(np.arange(k_users), np.diff(np.append(paths.starts, len(paths.gains))))
    rank = np.arange(len(owner)) - paths.starts[owner]
    order = np.argsort(rank, kind="stable")[k_users:]
    per_block = max(1, _BLOCK_BYTES // (16 * cfg.num_elements))
    for first in range(0, len(order), per_block):
        at = order[first : first + per_block]
        block = steering_matrix(cfg, paths.theta[at], paths.phi[at])
        np.conj(block, out=block)
        block *= paths.gains[at, None]
        cuts = [0, *(np.flatnonzero(np.diff(rank[at])) + 1).tolist(), len(at)]
        for lo, hi in zip(cuts, cuts[1:]):
            flat[owner[at[lo:hi]]] += block[lo:hi]
    return rows
