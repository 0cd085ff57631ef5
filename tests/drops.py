"""Channel records built by hand for tests, their per-user view, and their
channel rows and plans steered from angles."""

from typing import NamedTuple

import numpy as np

from nomabeam.array_geometry import ArrayConfig, steering_matrix
from nomabeam.beamforming import build_plan
from nomabeam.channel import DropPaths, channel_rows


class Direction(NamedTuple):
    """A departure direction in radians: azimuth ``theta`` and elevation ``phi``."""

    theta: float
    phi: float


def drop_paths(users) -> DropPaths:
    """A drop from per-user lists of ``(gain, Direction)`` paths, each strongest first."""
    flat = [path for user in users for path in user]
    return DropPaths(
        starts=np.cumsum([0] + [len(user) for user in users[:-1]]),
        gains=np.array([gain for gain, _ in flat], dtype=complex),
        theta=np.array([d.theta for _, d in flat]),
        phi=np.array([d.phi for _, d in flat]),
    )


def user_paths(paths: DropPaths) -> tuple[list[list[complex]], list[list[Direction]]]:
    """Each user's path gains and directions, in the record's order."""
    bounds = [*paths.starts.tolist(), len(paths.gains)]
    spans = list(zip(bounds, bounds[1:]))
    gains = [paths.gains[a:b].tolist() for a, b in spans]
    dirs = [
        [Direction(t, p) for t, p in zip(paths.theta[a:b].tolist(), paths.phi[a:b].tolist())]
        for a, b in spans
    ]
    return gains, dirs


def angles(dirs) -> tuple[np.ndarray, np.ndarray]:
    """The theta and phi arrays of a list of directions."""
    return np.array([d.theta for d in dirs]), np.array([d.phi for d in dirs])


def channel_matrix(cfg: ArrayConfig, paths: DropPaths) -> np.ndarray:
    """The drop's K x M channel rows, with its LOS paths steered here."""
    los = paths.starts
    return channel_rows(cfg, paths, steering_matrix(cfg, paths.theta[los], paths.phi[los]).T)


def plan_toward(cfg: ArrayConfig, theta, phi, sizes, total_power_w: float, rule: str = "proportional"):
    """A plan whose beam c is steered toward (theta[c], phi[c])."""
    return build_plan(steering_matrix(cfg, theta, phi).T, sizes, total_power_w, rule)
