"""Channel records built by hand for tests, and their per-user view."""

import numpy as np

from nomabeam.array_geometry import Direction
from nomabeam.channel import DropPaths


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
