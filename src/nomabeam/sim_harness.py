"""Scenario configuration, seeded Monte Carlo sweeps, and CSV emission.

A scenario file is flat ``key = value`` text (``#`` comments, one key per
line, unknown keys rejected).  A sweep runs every (scheme, user count, trial)
combination.  The user drop and channels of a (K, trial) pair are drawn once,
from a random stream derived only from (master_seed, K, trial): a PCG64
seeded with the state of numpy's ``SeedSequence(master_seed, spawn_key=(K,
trial))``.  Those states are computed for a block's trials together, in one
pass of numpy's hash over arrays, and a property in the tests checks them
and the generators against numpy's own.  Every scheme is evaluated on that
one drop, so scheme comparisons are paired.  The sweep returns, per
(scheme, K), its CSV value columns as arrays indexed by trial, so the columns
of one K line up trial by trial across schemes.  The CSV writes them in
(scheme, K, trial) order, so its bytes do not depend on execution order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Sequence, get_type_hints

import numpy as np

from .array_geometry import eligible_pairs, pattern, steering_matrix
from .baselines import SchemeId, conjugate_bf_sinr, energy_efficiency
from .beamforming import build_plan
from .channel import DropPaths, channel_rows, draw_paths
from .clustering import greedy_pairs
from .link_metrics import link_states, rate, sinr_noma
from .power_allocation import opa

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "Columns",
    "load_scenario",
    "run_sweep",
    "write_csv",
    "format_aggregates",
]

# Bounds of the link's scale: within them every rate is finite and no
# line-of-sight path loss or received power underflows to zero.
MAX_BANDWIDTH_HZ = 1e12
MAX_CELL_RADIUS_M = 1e5
MIN_POWER_DBM = -200.0
MAX_POWER_DBM = 200.0

# The largest element spacing, in wavelengths.  Arrays space their elements
# half a wavelength apart, and sparse arrays a few wavelengths; ten is past
# both, and within it every steering phase and pattern value is finite.
MAX_ELEMENT_SPACING = 10.0

# Bounds of the channel generator's knobs: the largest time-cluster and
# per-cluster path counts of the NYUSIM channel model, a shadowing spread
# well past measured ones, carriers from HF radio to the terahertz band, and
# scattered paths from 30 dB stronger to 200 dB weaker than line of sight.
# Within them every path amplitude is finite and nonzero: a carrier of at
# most 1e12 Hz and a slant range of at most hypot(1e5, 10) m keep the
# free-space amplitude at or above 2.38e-10, a 200 dB offset takes a
# scattered path 1e-10 below that, and the product of 2.38e-20 and the
# shadowing factor only falls under the smallest double, 4.9e-324, for a
# shadowing draw below -6,070 dB, which is -202 sigma at the largest sigma.
MAX_TIME_CLUSTERS = 6
MAX_PATHS_PER_CLUSTER = 30
MAX_SHADOWING_SIGMA_DB = 30.0
MIN_CARRIER_HZ = 1e6
MAX_CARRIER_HZ = 1e12
MIN_NLOS_GAIN_OFFSET_DB = -30.0
MAX_NLOS_GAIN_OFFSET_DB = 200.0

# The most trials a sweep runs: a trial's index enters its seed as one 32-bit
# word, so the indices stay below 2**32.
MAX_TRIALS = 2**32


class ConfigError(ValueError):
    """A scenario file or its values are invalid."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation campaign (defaults: rural 28 GHz cell).

    Construction checks each value once, against its range.  Every layer
    reads the array (``m_h``, ``m_v``, ``d_over_lambda``, ``num_elements``)
    from this record; the powers in watts are built once.
    """

    m_h: int = 32
    m_v: int = 2
    d_over_lambda: float = 0.5
    carrier_hz: float = 28e9
    bandwidth_hz: float = 20e6
    cell_radius_m: float = 100.0
    total_power_dbm: float = 30.0
    noise_power_dbm: float = -100.9178
    p_min: float = 1e-3
    beta0: float = 0.5
    epsilon: float = 0.05
    num_time_clusters: tuple[int, int] = (1, 2)
    paths_per_cluster: tuple[int, int] = (1, 2)
    nlos_gain_offset_db: tuple[float, float] = (5.0, 15.0)
    angle_spread_deg: float = 15.0
    shadowing_sigma_db: float = 4.0
    user_counts: tuple[int, ...] = (5, 15, 25, 35, 45, 55)
    schemes: tuple[SchemeId, ...] = (
        SchemeId.DBS,
        SchemeId.NOMA_DBS_FCSI,
        SchemeId.NOMA_DBS_PCSI,
        SchemeId.OMA_DBS,
        SchemeId.CONJUGATE_BF,
    )
    trials: int = 500
    master_seed: int = 1
    inter_cluster_rule: str = "proportional"

    def __post_init__(self) -> None:
        for name in ("m_h", "m_v"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.d_over_lambda <= MAX_ELEMENT_SPACING:
            raise ConfigError(
                f"d_over_lambda must lie in (0, {MAX_ELEMENT_SPACING:g}] wavelengths, got {self.d_over_lambda}"
            )
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be >= 1 and at most 2**32, got {self.trials}")
        if not self.user_counts:
            raise ConfigError("user_counts must not be empty")
        for k in self.user_counts:
            if not 1 <= k < self.num_elements:
                raise ConfigError(f"user_counts must satisfy 1 <= K < M={self.num_elements}, got {k}")
        if len(set(self.user_counts)) < len(self.user_counts):
            raise ConfigError(f"user_counts must not repeat, got {', '.join(map(str, self.user_counts))}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        if not 0.0 < self.beta0 < 1.0:
            raise ConfigError(f"beta0 must be in (0, 1), got {self.beta0}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not 0.0 <= self.p_min < math.inf:
            raise ConfigError(f"p_min must be nonnegative and finite, got {self.p_min}")
        if self.inter_cluster_rule not in ("proportional", "uniform"):
            raise ConfigError(f"unknown inter_cluster_rule: {self.inter_cluster_rule!r}")
        if not self.schemes:
            raise ConfigError("schemes must not be empty")
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigError(f"schemes must not repeat, got {', '.join(s.value for s in self.schemes)}")
        if not 0.0 < self.bandwidth_hz <= MAX_BANDWIDTH_HZ:
            raise ConfigError(
                f"bandwidth_hz must be positive and at most {MAX_BANDWIDTH_HZ:g} Hz, got {self.bandwidth_hz}"
            )
        for name in ("total_power_dbm", "noise_power_dbm"):
            if not MIN_POWER_DBM <= getattr(self, name) <= MAX_POWER_DBM:
                raise ConfigError(
                    f"{name} must lie in [{MIN_POWER_DBM:g}, {MAX_POWER_DBM:g}] dBm, got {getattr(self, name)}"
                )
        if not 0.0 < self.cell_radius_m <= MAX_CELL_RADIUS_M:
            raise ConfigError(
                f"cell_radius_m must be positive and at most {MAX_CELL_RADIUS_M:g} m, got {self.cell_radius_m}"
            )
        if not MIN_CARRIER_HZ <= self.carrier_hz <= MAX_CARRIER_HZ:
            raise ConfigError(
                f"carrier_hz must lie in [{MIN_CARRIER_HZ:g}, {MAX_CARRIER_HZ:g}] Hz, got {self.carrier_hz}"
            )
        for name, low, high in (
            ("num_time_clusters", 1, MAX_TIME_CLUSTERS),
            ("paths_per_cluster", 1, MAX_PATHS_PER_CLUSTER),
            ("nlos_gain_offset_db", MIN_NLOS_GAIN_OFFSET_DB, MAX_NLOS_GAIN_OFFSET_DB),
        ):
            lo, hi = getattr(self, name)
            if not low <= lo <= hi <= high:
                raise ConfigError(f"{name} must satisfy {low:g} <= lo <= hi <= {high:g}, got ({lo}, {hi})")
        if not 0.0 <= self.angle_spread_deg < math.inf:
            raise ConfigError(f"angle_spread_deg must be nonnegative and finite, got {self.angle_spread_deg}")
        if not 0.0 <= self.shadowing_sigma_db <= MAX_SHADOWING_SIGMA_DB:
            raise ConfigError(
                f"shadowing_sigma_db must lie in [0, {MAX_SHADOWING_SIGMA_DB:g}] dB, got {self.shadowing_sigma_db}"
            )

    @property
    def num_elements(self) -> int:
        return self.m_h * self.m_v

    @cached_property
    def total_power_w(self) -> float:
        return _watts(self.total_power_dbm)

    @cached_property
    def noise_w(self) -> float:
        return _watts(self.noise_power_dbm)


def _watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


class Columns(NamedTuple):
    """One (scheme, K)'s CSV value columns, one entry per trial in trial order."""

    sum_rate_bps: np.ndarray
    spectral_eff: np.ndarray
    energy_eff: np.ndarray
    noma_clusters: np.ndarray
    deactivated_users: np.ndarray


# ---------------------------------------------------------------------------
# Configuration file handling


def _parse_interval(raw: str, cast) -> tuple:
    """'lo,hi' or a single value meaning 'v,v', each bound converted by ``cast``."""
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) not in (1, 2):
        raise ConfigError(f"expected 'lo,hi' or a single value, got {raw!r}")
    return (cast(parts[0]), cast(parts[-1]))


# The parser of each field type; each key's parser follows from its field.
_TYPE_PARSERS = {
    int: int,
    float: float,
    str: str,
    tuple[int, int]: lambda raw: _parse_interval(raw, int),
    tuple[float, float]: lambda raw: _parse_interval(raw, float),
    tuple[int, ...]: lambda raw: tuple(int(p.strip()) for p in raw.split(",") if p.strip()),
}

_PARSERS = {
    name: _TYPE_PARSERS[kind] for name, kind in get_type_hints(ScenarioConfig).items() if name != "schemes"
}

# What the 'noma_dbs' scheme tag stands for under each csi_mode, a key only files set.
_NOMA_DBS_BY_CSI_MODE = {"full": SchemeId.NOMA_DBS_FCSI, "partial": SchemeId.NOMA_DBS_PCSI}


def _parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` scenario text into constructor keywords.

    Lines are independent; ``#`` starts a comment; blank lines are ignored.
    Unknown keys and malformed values raise ConfigError.  ``csi_mode``
    (``full`` or ``partial``, default ``full``) is no constructor keyword:
    it picks the scheme that the ``noma_dbs`` tag of ``schemes`` stands for.
    """
    values: dict = {}
    csi_mode = "full"
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key == "csi_mode":
            if raw_value not in _NOMA_DBS_BY_CSI_MODE:
                raise ConfigError(f"line {lineno}: unknown csi_mode {raw_value!r} (known: full, partial)")
            csi_mode = raw_value
        elif key == "schemes":
            # 'noma_dbs' is resolved against csi_mode after all keys are read
            values[key] = raw_value
        elif key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        else:
            try:
                values[key] = _PARSERS[key](raw_value)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if "schemes" in values:
        known = {s.value: s for s in SchemeId} | {"noma_dbs": _NOMA_DBS_BY_CSI_MODE[csi_mode]}
        tags = [t.strip() for t in values["schemes"].split(",") if t.strip()]
        for tag in tags:
            if tag not in known:
                raise ConfigError(f"unknown scheme {tag!r} in schemes (known: {', '.join(known)})")
        values["schemes"] = tuple(known[t] for t in tags)
    return values


def load_scenario(path: str, trials: int | None = None, master_seed: int | None = None) -> ScenarioConfig:
    """Read a scenario file; ``trials`` and ``master_seed``, unless None, replace the file's values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario file {path!r} is not UTF-8 text: {exc}") from exc
    values = _parse_config_text(text)
    for key, value in (("trials", trials), ("master_seed", master_seed)):
        if value is not None:
            values[key] = value
    return ScenarioConfig(**values)


# ---------------------------------------------------------------------------
# Trial pipeline


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) works on 32-bit
# words.  Its hash steps take their constants in two runs, one from _INIT_A
# (mixing the entropy into the pool) and one from _INIT_B (reading the state
# out of it), each constant the last times _MULT_A or _MULT_B; _mix folds a
# hashed word into a pool word.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4


def _hash_constants(init: int, mult: int):
    """``init``, then each constant times ``mult``, in 32 bits."""
    while True:
        yield init
        init = init * mult & _MASK32


# generate_state(4, np.uint64) reads the pool twice over into 8 words.
_STATE_CONSTANTS = np.array(list(itertools.islice(_hash_constants(_INIT_B, _MULT_B), 2 * _POOL_WORDS)), np.uint64)


def _hash(value, constant, mult: int):
    """One hash step of a uint64 array of 32-bit words at ``constant``."""
    value = (value ^ constant) * (constant * mult & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _trial_states(master_seed: int, k_users: int, trials: Sequence[int]) -> np.ndarray:
    """The T x 4 uint64 states ``SeedSequence(master_seed, spawn_key=(K, t)).generate_state(4, np.uint64)``
    gives, t in ``trials``, each below 2**32.

    The entropy is the seed's words, zero-padded to the pool's 4 as under any
    spawn key, then K's words, then t.  numpy mixes all but t once, into the
    pool of ``SeedSequence(master_seed, spawn_key=(K,))``.  Its n words take
    the first 4 n hash constants (4 hash the first four, 12 cross-mix them
    and 4 mix in each later word), so t is hashed at the next 4; t and the
    state read out of the pool are hashed for every trial at once, in uint64
    arrays.  numpy.random is imported here: at import it would add about 9 ms
    to the package's start-up.
    """
    from numpy.random import SeedSequence

    pool = SeedSequence(master_seed, spawn_key=(k_users,)).pool.astype(np.uint64)
    n_words = max(-(-master_seed.bit_length() // 32), _POOL_WORDS) + -(-k_users.bit_length() // 32)
    constants = itertools.islice(_hash_constants(_INIT_A, _MULT_A), 4 * n_words, 4 * n_words + 4)
    trial_words = np.array(trials, dtype=np.uint64)[:, None]
    pool = _mix(pool, _hash(trial_words, np.array(list(constants), np.uint64), _MULT_A))
    words = _hash(np.concatenate((pool, pool), axis=1), _STATE_CONSTANTS, _MULT_B)
    # numpy pairs the 32-bit words into uint64s low word first
    return words[:, ::2] | words[:, 1::2] << 32


@cache
def _trial_seed_type() -> type:
    """numpy's seed-sequence interface, holding a trial's row of ``_trial_states`` for the one
    ``generate_state(4, np.uint64)`` call that PCG64 makes.  The type is made on the first draw,
    so that importing the package does not load numpy.random (about 9 ms)."""
    from numpy.random.bit_generator import ISeedSequence

    class TrialSeed(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a trial seed holds 4 uint64 words, not {n_words} {np.dtype(dtype)}")
            return self.state

    return TrialSeed


def _trial_generator(state: np.ndarray) -> np.random.Generator:
    """The generator of the trial whose ``_trial_states`` row is ``state``."""
    return np.random.Generator(np.random.PCG64(_trial_seed_type()(state)))


def _drop_users(config: ScenarioConfig, k_users: int, trials: Sequence[int]) -> DropPaths:
    """The paths of the drops of (master_seed, K, t), t in ``trials``, as one block.

    The block's seed states are computed at once.  The generators are made
    from them as ``draw_paths`` reaches each drop, so a block holds at most
    two at once.
    """
    states = _trial_states(config.master_seed, k_users, trials)
    return draw_paths(map(_trial_generator, states), config, k_users)


# Per scheme, a block's outcome: the T x K SINRs in beam order (each pair's
# strong then weak user, pair after pair, then the unpaired users; a drop
# with no pair keeps its dbs order), the band (a scalar, or under oma_dbs
# each user's, T x K), and the T shared-beam and T deactivated counts.
_Outcome = tuple[np.ndarray, float | np.ndarray, np.ndarray, np.ndarray]

# Bytes of a block's channel rows (16 per entry): a sweep evaluates the trials
# of one user count max(1, _BLOCK_BYTES // (16 * M * K)) at a time, so that
# small drops share their numpy calls and a large drop runs alone.  On the
# 500-trial default sweep, 2**18 was slower for 0.7 MB less peak resident
# size, and 2**20 and 2**21 were no faster while 2**21 held 5.5 MB more.  A
# block's rows then take at most 512 KiB unless one drop's take more, well
# under the 4 MiB from which numpy backs an array with huge pages.
_BLOCK_BYTES = 2**19


def _block_outcomes(config: ScenarioConfig, paths: DropPaths, k_users: int) -> dict[SchemeId, _Outcome]:
    """Every scheme's outcome on a block of drops of K users each, given their paths.

    The drops are paired in one pass from their T x K LOS (strongest path)
    angles, before any steering, so that the pairing temporaries (one per
    pair k < u of a drop) meet no K x M matrix; the greedy scan still pairs
    each drop on its own.  ``dbs`` uses the one-beam-per-user plan;
    ``noma_dbs_fcsi``, ``noma_dbs_pcsi`` and ``oma_dbs`` share each drop's
    pairing, its plan and its strong/weak ordering, and a drop with no pair
    gives them the ``dbs`` row.  A drop's numbers do not depend on the block:
    every reduction and every matrix product runs per drop, at the drop's
    shape and memory layout.
    """
    theta, phi = (angles[paths.starts].reshape(-1, k_users) for angles in (paths.theta, paths.phi))
    pairing = greedy_pairs(eligible_pairs(config, theta, phi, config.beta0))
    n_pairs = np.bincount(pairing[0], minlength=len(theta))
    h_rows, dbs_zeta, zeta, estimated = _steered_links(config, paths, theta, phi, pairing, n_pairs)
    # No plan or gain matrix is held while conjugate beamforming builds its
    # K x K temporaries.
    cb_sinr = conjugate_bf_sinr(h_rows, config.total_power_w, config.noise_w)
    del h_rows
    beam = np.arange(k_users)
    paired = beam < 2 * n_pairs[:, None]
    strong, weak = paired & (beam % 2 == 0), paired & (beam % 2 == 1)
    band = config.bandwidth_hz
    unshared = np.zeros_like(n_pairs)

    def noma(split_on: np.ndarray) -> _Outcome:
        gamma1, _ = opa(split_on[strong], split_on[weak], config.p_min, config.epsilon)
        sinr = zeta.copy()
        sinr[strong], sinr[weak] = sinr_noma(zeta[strong], zeta[weak], gamma1)
        deactivated = np.bincount(np.nonzero(strong)[0][gamma1 == 0.0], minlength=len(n_pairs))
        return sinr, band, n_pairs, deactivated

    return {
        SchemeId.DBS: (dbs_zeta, band, unshared, unshared),
        SchemeId.NOMA_DBS_FCSI: noma(zeta),
        SchemeId.NOMA_DBS_PCSI: noma(estimated),
        # Orthogonal sharing: each paired user gets half the band.
        SchemeId.OMA_DBS: (zeta, np.where(paired, band / 2.0, band), n_pairs, unshared),
        SchemeId.CONJUGATE_BF: (cb_sinr, band, unshared, unshared),
    }


def _steered_links(
    config: ScenarioConfig, paths: DropPaths, theta: np.ndarray, phi: np.ndarray, pairing: tuple, n_pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The block's T x K x M channel rows, its T x K dbs link ratios, and its T x K shared-plan ratios.

    Each of the T x K LOS directions (``theta``, ``phi``) is steered once,
    into a T x M x K block: each channel row's LOS path and the dbs plans'
    weights.  ``pairing`` is the block's pairs as ``greedy_pairs`` gives
    them, and ``n_pairs`` counts each drop's.  A paired drop's users take one
    beam order: its pair j at places 2j and 2j + 1, strong user first, then
    its unpaired users in user order.  Each beam is steered at the mean LOS
    angles of the places it serves: P pair beams, then a private beam per
    unpaired user.  The drop's power gains are taken in beam order after its
    matrix product, so its shared-plan ratios and the ratios partial CSI
    splits on (the paired users' estimates, from the directions alone through
    ``pattern``, the closed form the pairing uses) are in beam order; a drop
    with no pair keeps its dbs row in both.  All but each paired drop's
    matrix product and row sums is worked out once per block.
    """
    n_drops, k_users = theta.shape
    los = np.ascontiguousarray(
        steering_matrix(config, theta.ravel(), phi.ravel()).reshape(n_drops, k_users, -1).transpose(0, 2, 1)
    )
    h_rows = channel_rows(config, paths, los)
    # One beam per user: every beam takes the same power.
    power = build_plan(np.ones(k_users, int), config.num_elements, config.total_power_w, config.inter_cluster_rule)[0]
    gains = h_rows @ los
    del los
    gains = _power_gains(gains)
    dbs_zeta = link_states(gains, power, np.arange(k_users), config.noise_w)[2]
    del gains

    # order[t] lists paired drop t's users in beam order, sorted by ranks that
    # put the pairs first, in selection order.  Place p < 2P is on beam p // 2
    # and a later place on beam p - P.  The ranks are distinct; the stable
    # sort is channel_rows' kernel, where the default one's code would add 0.1
    # to 0.3 MB of resident size.
    pair_drops, pairs = pairing
    rank = np.tile(np.arange(k_users) + 2 * len(pairs), (n_drops, 1))
    rank[pair_drops[:, None], pairs] = np.arange(2 * len(pairs)).reshape(-1, 2)
    drops = np.flatnonzero(n_pairs)
    n_pairs, n_beams = n_pairs[drops], k_users - n_pairs[drops]
    order = np.argsort(rank[drops], axis=1, kind="stable")
    place = np.arange(k_users)
    by_place = np.where(place < 2 * n_pairs[:, None], place // 2, place - n_pairs[:, None])
    # Beam c serves places first to last; (a + a) / 2 == a steers a private
    # beam at its user.  Beams that pad a drop take its last place and no user.
    beam = np.arange(n_beams.max(initial=0))
    first = np.minimum(beam + np.minimum(beam, n_pairs[:, None]), k_users - 1)
    last = first + (beam < n_pairs[:, None])
    sizes = np.where(beam < n_beams[:, None], last - first + 1, 0)
    ends = [np.take_along_axis(order, places, axis=1) for places in (first, last)]
    at = drops[:, None]
    directions = np.array([(a[at, ends[0]] + a[at, ends[1]]) / 2 for a in (theta, phi)])
    beams = steering_matrix(config, *(table[sizes > 0] for table in directions))
    powers = build_plan(sizes, config.num_elements, config.total_power_w, config.inter_cluster_rule)[:, None, :]
    gains = _beam_gains(h_rows, drops, beams, n_beams)
    del beams
    gains = _power_gains(gains)
    gains = gains[np.arange(len(drops))[:, None], order]
    psi, _, zeta = link_states(gains, powers, by_place, config.noise_w, n_beams)
    del gains
    # Strong user first: the larger received power through the shared beam.
    pair = np.arange(n_pairs.max(initial=0))
    psi = psi[:, : 2 * len(pair)]
    t, j = np.nonzero((psi[:, 1::2] > psi[:, ::2]) & (pair < n_pairs[:, None]))
    for table in (order, zeta):
        table[t, 2 * j], table[t, 2 * j + 1] = table[t, 2 * j + 1], table[t, 2 * j]
    shared = dbs_zeta.copy()
    shared[drops] = zeta
    # Partial CSI splits on ratios estimated from the LOS directions alone:
    # a paired user's gain through beam c is M times the pattern of beam c at
    # the user, that of a unit-gain single path, weighed with no noise in the
    # high-SNR form, so the other beams' leakage alone is the denominator.
    # Where nothing leaks in (a lone beam, or leakage lost in the rounding of
    # the sum) directions give no ratio, and the user keeps its fed-back
    # shared-plan one, as the strong/weak order does.
    user_angles = [a[at, order[:, : 2 * len(pair)], None] for a in (theta, phi)]
    pair_places = np.repeat(pair, 2)
    gains = np.square(config.num_elements * pattern(config, *directions[:, :, None, :], *user_angles))
    with np.errstate(divide="ignore", invalid="ignore"):
        _, nu, zeta = link_states(gains, powers, pair_places, 0.0, n_beams)
    estimated = shared.copy()
    t, p = np.nonzero((pair_places < n_pairs[:, None]) & (nu != 0.0))
    estimated[drops[t], p] = zeta[t, p]
    return h_rows, dbs_zeta, shared, estimated


def _power_gains(gains: np.ndarray) -> np.ndarray:
    """|gains|^2 entry by entry, the power gains that ``link_states`` weighs.  A caller drops complex
    gains by binding this in their place, so that they are not held through the weighing."""
    power = np.abs(gains)
    return np.square(power, out=power)


def _beam_gains(h_rows: np.ndarray, drops: np.ndarray, beams: np.ndarray, n_beams: np.ndarray) -> np.ndarray:
    """Drop ``drops[t]``'s rows times its ``n_beams[t]`` rows of ``beams`` (those after the earlier drops'),
    transposed, at their own shape, in the front of entry t of a zero T x K x max(``n_beams``) block."""
    gains = np.zeros((len(drops), h_rows.shape[1], n_beams.max(initial=0)), dtype=complex)
    starts = np.cumsum(n_beams) - n_beams
    for t, f, c, out in zip(drops.tolist(), starts.tolist(), n_beams.tolist(), gains):
        np.matmul(h_rows[t], beams[f : f + c].T, out=out[:, :c])
    return gains


def _columns(config: ScenarioConfig, outcome: _Outcome) -> Columns:
    """One scheme's columns of a block, each trial's rates summed alone, left to right in beam order.

    A running sum gives the same bits on every Python version; the built-in
    ``sum`` of floats is compensated from Python 3.12 on.
    """
    sinr, band, shared, deactivated = outcome
    sums = np.cumsum(rate(sinr, band), axis=1)[:, -1]
    return Columns(
        sum_rate_bps=sums,
        spectral_eff=sums / config.bandwidth_hz,
        energy_eff=energy_efficiency(sums, config.total_power_w, config.num_elements),
        noma_clusters=shared,
        deactivated_users=deactivated,
    )


def run_sweep(config: ScenarioConfig) -> dict[tuple[SchemeId, int], Columns]:
    """Every (scheme, K)'s columns over the configured trials, in (scheme tag, K) order.

    Each (K, trial) drop is drawn once and evaluated for all configured
    schemes, the trials of one K in blocks of ``_BLOCK_BYTES`` of channel
    rows; entry t of each column is the one that trial t's drop gives
    scored alone, as a block of one.  The keys are sorted once at the end,
    so the output does not depend on the order in which the independent
    user counts run.
    """
    blocks: dict[tuple[SchemeId, int], list[Columns]] = {}
    for k_users in config.user_counts:
        per_block = max(1, _BLOCK_BYTES // (16 * config.num_elements * k_users))
        for first in range(0, config.trials, per_block):
            trials = range(first, min(first + per_block, config.trials))
            outcomes = _block_outcomes(config, _drop_users(config, k_users, trials), k_users)
            for s in config.schemes:
                blocks.setdefault((s, k_users), []).append(_columns(config, outcomes[s]))
    return {
        key: Columns(*map(np.concatenate, zip(*blocks[key])))
        for key in sorted(blocks, key=lambda key: (key[0].value, key[1]))
    }


def write_csv(columns: dict[tuple[SchemeId, int], Columns], path: str) -> None:
    """Emit one row per (scheme, K, trial), in the order of ``columns`` and then of trials,
    with floats at 9 significant digits."""
    lines = ["scheme,K,trial,sum_rate_bps,spectral_eff,energy_eff,noma_clusters,deactivated_users"]
    for (scheme, k_users), cols in columns.items():
        row = f"{scheme.value},{k_users},%d,%.9g,%.9g,%.9g,%d,%d"
        values = (cols.sum_rate_bps, cols.spectral_eff, cols.energy_eff, cols.noma_clusters, cols.deactivated_users)
        lines.extend(map(row.__mod__, zip(range(len(cols.sum_rate_bps)), *(v.tolist() for v in values))))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _stdev(values: list[float]) -> float:
    """Sample standard deviation, correctly rounded: over their common denominator 2**e the values
    are integers A, the variance (n sum(A**2) - sum(A)**2) / (n (n - 1) 4**e) is exact, and its root
    is taken to 55 bits or more (a radicand of at least 2**108), rounded to odd, then once to a float."""
    ratios = [x.as_integer_ratio() for x in values]
    e = max(d for _, d in ratios).bit_length() - 1
    ints = [a << e - d.bit_length() + 1 for a, d in ratios]
    n = len(ints)
    num, den = n * sum(a * a for a in ints) - sum(ints) ** 2, n * (n - 1) << 2 * e
    q = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = (num << -2 * q, den) if q < 0 else (num, den << 2 * q)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return root / (1 << -q) if q < 0 else float(root << q)


def format_aggregates(columns: dict[tuple[SchemeId, int], Columns]) -> str:
    """Human-readable table of each (scheme, K)'s spectral-efficiency mean and
    standard error and energy-efficiency mean, in the order of ``columns``."""
    lines = [f"{'scheme':<16} {'K':>4} {'trials':>7} {'SE mean [bps/Hz]':>18} {'SE stderr':>12} {'EE mean [bps/J]':>16}"]
    for (scheme, k_users), cols in columns.items():
        ses, ees = cols.spectral_eff.tolist(), cols.energy_eff.tolist()
        stderr = _stdev(ses) / math.sqrt(len(ses)) if len(ses) > 1 else 0.0
        lines.append(
            f"{scheme.value:<16} {k_users:>4} {len(ses):>7} "
            f"{math.fsum(ses) / len(ses):>18.4f} {stderr:>12.4f} {math.fsum(ees) / len(ees):>16.4g}"
        )
    return "\n".join(lines)
