"""Independent reference implementations used to cross-check the library.

Everything here recomputes quantities from first principles (direct phasor
sums, dense grids, finite differences) without going through the code paths
under test.  The paper's slope formula for the shared-beam throughput lives
here too: no library code needs it, and the tests check it against a finite
difference of ``pair_rate``.  The scalar path generator and the masked-argmax pairing are the
loop versions that the library's array code replaced; the tests require equal
results from both.  Conjugate beamforming's user-by-user loop takes no Gram
matrix and no library function, and the tests hold the library to it within
a tolerance set by rounding.
"""

import math
from typing import Sequence

import numpy as np

from nomabeam.channel import DropPaths
from nomabeam.sim_harness import ScenarioConfig

from drops import Direction

# The library's antenna height above the user plane, and the speed of light.
BS_HEIGHT_M = 10.0
SPEED_OF_LIGHT = 299_792_458.0


def steering_phasors(cfg: ScenarioConfig, direction: Direction) -> np.ndarray:
    """The M element phasors toward ``direction``, flattened as ``i * m_v + j``."""
    c = 2.0 * math.pi * cfg.d_over_lambda
    u_az = math.cos(direction.theta) * math.cos(direction.phi)
    u_el = math.sin(direction.phi)
    i = np.arange(cfg.m_h)[:, None]
    j = np.arange(cfg.m_v)[None, :]
    return np.exp(1j * c * (i * u_az + j * u_el)).ravel()


def beta_phasor_sum(cfg: ScenarioConfig, dir_k: Direction, dir_u: Direction) -> float:
    """(1/M) |a_k^H a_u| by summing the M element phasors directly."""
    a_k, a_u = steering_phasors(cfg, dir_k), steering_phasors(cfg, dir_u)
    return float(abs(np.vdot(a_k, a_u))) / cfg.num_elements


def random_direction(rng: np.random.Generator) -> Direction:
    return Direction(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-math.pi / 2, math.pi / 2))


def pair_rate(zeta1: float, zeta2: float, gamma1: float) -> float:
    """Unit-bandwidth throughput of a shared beam at split gamma1."""
    strong = math.log2(1.0 + zeta1 * gamma1)
    weak = math.log2(1.0 + zeta2 * (1.0 - gamma1) / (1.0 + zeta2 * gamma1))
    return strong + weak


def rc_derivative(zeta1: float, zeta2: float, gamma1: float) -> float:
    """Slope of the shared beam's unit-bandwidth throughput in gamma1.

    (zeta1 - zeta2) / (ln2 * (1 + zeta1*gamma1) * (1 + zeta2*gamma1)): its
    sign is that of zeta1 - zeta2 over the whole feasible range.
    """
    if not 0.0 <= gamma1 <= 0.5:
        raise ValueError(f"gamma1 must be in [0, 1/2], got {gamma1}")
    return (zeta1 - zeta2) / (
        math.log(2.0) * (1.0 + zeta1 * gamma1) * (1.0 + zeta2 * gamma1)
    )


def pair_rate_grid_max(zeta1: float, zeta2: float, gamma_max: float, step: float = 1e-4) -> float:
    """Dense-grid maximum of the shared-beam throughput over [0, gamma_max]."""
    grid = np.arange(0.0, gamma_max + step, step)
    grid = grid[grid <= gamma_max]
    if grid.size == 0 or grid[-1] < gamma_max:
        grid = np.append(grid, gamma_max)
    strong = np.log2(1.0 + zeta1 * grid)
    weak = np.log2(1.0 + zeta2 * (1.0 - grid) / (1.0 + zeta2 * grid))
    return float(np.max(strong + weak))


def emitted_powers(weights: np.ndarray, beam_powers: np.ndarray) -> list[float]:
    """Each beam's emitted power P_c = eta*p_c*||w_c||^2, recomputed from its weight column."""
    return [p * float(np.sum(np.abs(w) ** 2)) for w, p in zip(weights.T, beam_powers)]


def emitted_power_check(weights: np.ndarray, beam_powers: np.ndarray) -> float:
    """Total emitted power recomputed from the weight columns: sum of eta*p_c*||w_c||^2."""
    return float(sum(emitted_powers(weights, beam_powers)))


def conjugate_bf_sinr_loop(h_rows: Sequence[Sequence[complex]], total_power_w: float, noise_w: float) -> list[float]:
    """Conjugate beamforming's SINRs of one drop, user by user, in plain complex arithmetic.

    Beam j is user j's conjugated channel over its norm, w_j = conj(h_j) / ||h_j||, at power
    P / K, so row k receives (P / K) |sum_m h_km conj(h_jm)|^2 / ||h_j||^2 through it.  User k's
    SINR is what beam k brings it over what every other beam brings plus the noise.
    """
    k_users = len(h_rows)
    norms = [sum(z.real * z.real + z.imag * z.imag for z in h) for h in h_rows]
    sinrs = []
    for k, h_k in enumerate(h_rows):
        received = []
        for h_j, norm_j in zip(h_rows, norms):
            inner = sum(a * b.conjugate() for a, b in zip(h_k, h_j))
            received.append(total_power_w / k_users * (inner.real * inner.real + inner.imag * inner.imag) / norm_j)
        interference = sum(p for j, p in enumerate(received) if j != k)
        sinrs.append(received[k] / (interference + noise_w))
    return sinrs


def sinr_dbs_monopath_closed(
    gains: Sequence[complex],
    dirs: Sequence[Direction],
    own: int,
    eta_dbs: float,
    noise_w: float,
    cfg: ScenarioConfig,
) -> float:
    """Closed-form private-beam SINR when every user has a single path.

    |a_k^H a_k|^2 / (sum_u |a_k^H a_u|^2 + noise / (eta_dbs * |gain_k|^2)),
    with one beam steered at each user's direction.  ``eta_dbs`` is the full
    transmit scaling applied per beam (normalization times per-beam signal
    power), which for the one-beam-per-user split equals P_e / (M * K).
    """
    a_own = steering_phasors(cfg, dirs[own])
    numerator = abs(np.vdot(a_own, a_own)) ** 2
    interference = sum(
        abs(np.vdot(a_own, steering_phasors(cfg, dirs[u]))) ** 2
        for u in range(len(dirs))
        if u != own
    )
    return numerator / (interference + noise_w / (eta_dbs * abs(gains[own]) ** 2))


def sinr_dbs_multipath_closed(
    gains: Sequence[Sequence[complex]],
    dirs: Sequence[Sequence[Direction]],
    own: int,
    eta_dbs: float,
    noise_w: float,
    cfg: ScenarioConfig,
) -> float:
    """Closed-form private-beam SINR with multipath channels and LOS-steered beams.

    ``gains[k]`` and ``dirs[k]`` are user k's path amplitudes and directions,
    its LOS (strongest) path first; each beam is steered at its user's LOS
    direction.  Both the useful power and the interference accumulate every
    path of the observing user against each beam, with path amplitudes
    expressed relative to its LOS amplitude; ``eta_dbs`` is as in the
    single-path form.
    """
    alpha_los = gains[own][0]
    own_paths = [steering_phasors(cfg, d) for d in dirs[own]]
    ratios = [g / alpha_los for g in gains[own]]

    def response_to(beam: np.ndarray) -> complex:
        return sum(r * np.vdot(a, beam) for r, a in zip(ratios, own_paths))

    own_beam = steering_phasors(cfg, dirs[own][0])
    numerator = abs(response_to(own_beam)) ** 2
    interference = 0.0
    for u, user_dirs in enumerate(dirs):
        if u == own:
            continue
        beam_u = steering_phasors(cfg, user_dirs[0])
        interference += abs(response_to(beam_u)) ** 2
    return numerator / (interference + noise_w / (eta_dbs * abs(alpha_los) ** 2))


def draw_paths_scalar(rng: np.random.Generator, config: ScenarioConfig, k_users: int) -> DropPaths:
    """The path generator one scalar draw at a time, users one after another.

    Each user's paths are sorted strongest first by a stable sort.
    """
    lo_tc, hi_tc = config.num_time_clusters
    lo_p, hi_p = config.paths_per_cluster
    spread = math.radians(config.angle_spread_deg)
    starts: list[int] = []
    paths: list[tuple[complex, float, float]] = []
    for _ in range(k_users):
        ground_r = config.cell_radius_m * math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, math.pi)
        slant = math.hypot(ground_r, BS_HEIGHT_M)
        phi = -math.asin(BS_HEIGHT_M / slant)

        fspl_amp = SPEED_OF_LIGHT / config.carrier_hz / (4.0 * math.pi * slant)
        shadow_db = rng.normal(0.0, config.shadowing_sigma_db)
        los_amp = fspl_amp * 10.0 ** (shadow_db / 20.0)
        los_phase = rng.uniform(0.0, 2.0 * math.pi)
        user = [(los_amp * complex(math.cos(los_phase), math.sin(los_phase)), theta, phi)]

        time_clusters = int(rng.integers(lo_tc, hi_tc + 1))
        total_paths = sum(int(rng.integers(lo_p, hi_p + 1)) for _ in range(time_clusters))
        for _ in range(total_paths - 1):
            offset_db = rng.uniform(*config.nlos_gain_offset_db)
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
    return DropPaths(np.array(starts), np.array(gains), np.array(thetas), np.array(phis))


def greedy_pairs_masked(beta: np.ndarray, beta0: float) -> np.ndarray:
    """Greedy pairing by one masked K x K argmax per selected pair.

    ``argmax`` returns the first flat index of the largest eligible beta, so
    ties go to the lexicographically smallest pair (k, u), k < u.
    """
    k_count = beta.shape[0]
    available = np.ones(k_count, dtype=bool)
    upper = np.triu(np.ones((k_count, k_count), dtype=bool), k=1)
    candidates = np.where(upper & (beta >= beta0), beta, -np.inf)
    pairs: list[tuple[int, int]] = []
    while True:
        masked = np.where(np.outer(available, available), candidates, -np.inf)
        flat = int(np.argmax(masked))
        k, u = divmod(flat, k_count)
        if not np.isfinite(masked[k, u]):
            return np.array(pairs, dtype=np.intp).reshape(-1, 2)
        pairs.append((k, u))
        available[[k, u]] = False
