"""Arrays and channel records built by hand for tests, their per-user view and
mirror image, their channel rows and beams steered from angles, the betas of
directions, every scheme's columns on given drops, and, for properties,
blocks of LOS angles and integers spread by bit length."""

import math
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from nomabeam.array_geometry import eligible_pairs, steering_matrix
from nomabeam.beamforming import build_plan
from nomabeam.channel import DropPaths, channel_rows
from nomabeam.sim_harness import ScenarioConfig, _block_outcomes, _columns, _drop_users


class Direction(NamedTuple):
    """A departure direction in radians: azimuth ``theta`` and elevation ``phi``."""

    theta: float
    phi: float


def array(m_h: int, m_v: int, d_over_lambda: float = 0.5) -> ScenarioConfig:
    """A scenario with an ``m_h x m_v`` array at spacing ``d_over_lambda``: one
    user (K = 1) loads on any array of at least two elements."""
    return ScenarioConfig(m_h=m_h, m_v=m_v, d_over_lambda=d_over_lambda, user_counts=(1,))


def drop_paths(users) -> DropPaths:
    """A drop from per-user lists of ``(gain, Direction)`` paths, each strongest first."""
    flat = [path for user in users for path in user]
    return DropPaths(
        starts=np.cumsum([0] + [len(user) for user in users[:-1]]),
        gains=np.array([gain for gain, _ in flat], dtype=complex),
        theta=np.array([d.theta for _, d in flat]),
        phi=np.array([d.phi for _, d in flat]),
    )


def mirrored(paths: DropPaths) -> DropPaths:
    """The drops seen in the array's mirror: theta to pi - theta, phi to -phi and every
    path gain conjugated, which conjugates every steering vector and channel row."""
    return DropPaths(paths.starts, np.conj(paths.gains), math.pi - paths.theta, -paths.phi)


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


def beta_matrices(cfg: ScenarioConfig, theta, phi) -> np.ndarray:
    """Each drop's symmetric K x K betas from T x K angle arrays, diagonal 1: the
    pair pass at threshold 0, which keeps every pair k < u, mirrored."""
    t, k, u, beta = eligible_pairs(cfg, theta, phi, 0.0)
    matrices = np.ones(theta.shape + theta.shape[-1:])
    matrices[t, k, u] = matrices[t, u, k] = beta
    return matrices


def pair_beta(cfg: ScenarioConfig, a: Direction, b: Direction) -> float:
    """The beta between directions ``a`` and ``b``, as the pair pass gives it."""
    theta, phi = angles([a, b])
    return beta_matrices(cfg, theta[None], phi[None])[0, 0, 1]


def channel_matrix(cfg: ScenarioConfig, paths: DropPaths) -> np.ndarray:
    """The drop's K x M channel rows, with its LOS paths steered here."""
    los = paths.starts
    return channel_rows(cfg, paths, steering_matrix(cfg, paths.theta[los], paths.phi[los]).T)


def plan_toward(cfg: ScenarioConfig, theta, phi, sizes, total_power_w: float, rule: str = "proportional"):
    """``(weights, beam_powers)`` of beams c steered toward (theta[c], phi[c]).

    The M x C weights are the transposed view of the C x M steered rows, as
    the harness holds its shared plans' beams, so a matrix product with them
    rounds as the harness's does."""
    weights = steering_matrix(cfg, theta, phi).T
    return weights, build_plan(sizes, cfg.num_elements, total_power_w, rule)


def scores(config: ScenarioConfig, paths: DropPaths, k_users: int) -> dict:
    """Every scheme's columns on a block of drops of K users each, given their paths,
    one entry per drop: what a sweep writes for those drops."""
    return {s: _columns(config, o) for s, o in _block_outcomes(config, paths, k_users).items()}


def trial_scores(config: ScenarioConfig, k_users: int, trial: int) -> dict:
    """Every scheme's columns on the drop of (master_seed, K, ``trial``), scored alone."""
    return scores(config, _drop_users(config, k_users, [trial]), k_users)


@st.composite
def angle_blocks(draw, drops=(1, 8), users=(1, 30)):
    """T x K LOS angles, T and K in the given inclusive ranges, in which a user
    may copy an earlier user of its drop, exactly (a tie at beta = 1) or
    nearly.  Each per-user array is one draw."""
    n_drops, k_users = draw(st.integers(*drops)), draw(st.integers(*users))

    def values(elements, count: int) -> list:
        return draw(st.lists(elements, min_size=count, max_size=count))

    # user u copies user source[t, u] of its drop, an earlier one, or none at -1
    source = np.reshape(values(st.integers(0, k_users - 1), n_drops * k_users), (n_drops, k_users))
    source = source % np.arange(1, k_users + 1) - 1
    fresh = source < 0
    n_fresh = int(fresh.sum())
    theta, phi = np.empty((n_drops, k_users)), np.empty((n_drops, k_users))
    theta[fresh] = values(st.floats(0.0, math.pi), n_fresh)
    phi[fresh] = values(st.floats(-math.pi / 2, 0.0), n_fresh)
    offset = np.zeros((n_drops, k_users))
    offset[~fresh] = values(st.sampled_from([0.0, 1e-3, 0.02]), source.size - n_fresh)
    for t, u in zip(*np.nonzero(~fresh)):
        theta[t, u] = theta[t, source[t, u]] + offset[t, u]
        phi[t, u] = phi[t, source[t, u]]
    return theta, phi


def magnitudes(low, top_bits):
    """Integers from ``low`` to 2**``top_bits``, spread over their bit lengths."""
    return st.sampled_from(range(top_bits + 1)).flatmap(lambda bits: st.integers(max(low, 2**bits >> 1), 2**bits))
