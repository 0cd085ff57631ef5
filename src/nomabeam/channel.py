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


class InvalidParams(ValueError):
    """Channel parameters are out of range (empty interval, bad radius, ...)."""


@dataclass(frozen=True)
class DropPaths:
    """Every propagation path of one drop, as flat arrays.

    User k's paths are ``starts[k]`` up to ``starts[k + 1]`` (the last user's
    run to the end), ordered strongest first, so ``starts`` also indexes each
    user's line-of-sight / strongest path.  ``gains`` are the complex path
    amplitudes, ``theta`` and ``phi`` the departure angles in radians.
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
        if not self.carrier_hz > 0:
            raise InvalidParams(f"carrier must be positive, got {self.carrier_hz}")
        for name in ("num_time_clusters_range", "paths_per_cluster_range", "nlos_gain_offset_db"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidParams(f"{name} is empty: ({lo}, {hi})")
        if self.num_time_clusters_range[0] < 1 or self.paths_per_cluster_range[0] < 1:
            raise InvalidParams("path count intervals must start at 1 or more")
        if self.angle_spread_deg < 0 or self.shadowing_sigma_db < 0:
            raise InvalidParams("angle spread and shadowing sigma must be nonnegative")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


def draw_paths(
    rng: np.random.Generator,
    params: ChannelParams,
    cell_radius_m: float,
    k_users: int,
) -> DropPaths:
    """Drop ``k_users`` users uniformly in the cell and draw their multipath channels.

    The line-of-sight amplitude is free-space path loss at the carrier over
    the 3D distance, shadowed log-normally; scattered paths are drawn per
    ``params`` below it and within ``angle_spread_deg`` of the LOS direction.
    Users are drawn one after another, each user's paths sorted strongest
    first (a stable sort).  Identical (rng state, params) yield identical paths.
    """
    if not cell_radius_m > 0:
        raise InvalidParams(f"cell radius must be positive, got {cell_radius_m}")

    lo_tc, hi_tc = params.num_time_clusters_range
    lo_p, hi_p = params.paths_per_cluster_range
    spread = math.radians(params.angle_spread_deg)
    starts: list[int] = []
    paths: list[tuple[complex, float, float]] = []
    for _ in range(k_users):
        ground_r = cell_radius_m * math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, math.pi)
        slant = math.hypot(ground_r, BS_HEIGHT_M)
        phi = -math.asin(BS_HEIGHT_M / slant)

        fspl_amp = params.wavelength_m / (4.0 * math.pi * slant)
        shadow_db = rng.normal(0.0, params.shadowing_sigma_db)
        los_amp = fspl_amp * 10.0 ** (shadow_db / 20.0)
        los_phase = rng.uniform(0.0, 2.0 * math.pi)
        user = [(los_amp * complex(math.cos(los_phase), math.sin(los_phase)), theta, phi)]

        time_clusters = int(rng.integers(lo_tc, hi_tc + 1))
        total_paths = sum(int(rng.integers(lo_p, hi_p + 1)) for _ in range(time_clusters))
        for _ in range(total_paths - 1):
            offset_db = rng.uniform(*params.nlos_gain_offset_db)
            amp = los_amp * 10.0 ** (-offset_db / 20.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            d_theta = rng.uniform(-spread, spread)
            d_phi = rng.uniform(-spread, spread)
            user.append(
                (
                    amp * complex(math.cos(phase), math.sin(phase)),
                    (theta + d_theta) % (2.0 * math.pi),
                    min(max(phi + d_phi, -math.pi / 2.0), math.pi / 2.0),
                )
            )

        user.sort(key=lambda path: -abs(path[0]))
        starts.append(len(paths))
        paths.extend(user)

    gains, thetas, phis = zip(*paths)
    drop = DropPaths(np.array(starts), np.array(gains), np.array(thetas), np.array(phis))
    if not np.all(np.abs(drop.gains) > 0):
        raise InvalidParams("path gain must be nonzero")
    return drop


def channel_rows(cfg: ArrayConfig, paths: DropPaths) -> np.ndarray:
    """K x M channel matrix: row k sums user k's gain-weighted conjugate steering vectors.

    The steering vectors of every path of the drop come from one batched
    computation; each user's paths are summed strongest first.
    """
    rows = steering_matrix(cfg, paths.theta, paths.phi)
    np.conj(rows, out=rows)
    rows *= paths.gains[:, None]
    return np.add.reduceat(rows, paths.starts, axis=0)
