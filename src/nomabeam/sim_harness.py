"""Scenario configuration, seeded Monte Carlo sweeps, and CSV emission.

A scenario file is flat ``key = value`` text (``#`` comments, one key per
line, unknown keys rejected).  A sweep runs every (scheme, user count, trial)
combination.  The user drop and channels of a (K, trial) pair are drawn once,
from a random stream derived only from (master_seed, K, trial) through
numpy's SeedSequence spawn-key mixing, and every scheme is evaluated on that
one drop, so scheme comparisons are paired.  Rows are emitted in
(scheme, K, trial) order, so the CSV bytes do not depend on execution order.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence, get_type_hints

import numpy as np

from .array_geometry import ArrayConfig, Direction, steering_matrix
from .baselines import SchemeId, conjugate_bf_sinr, energy_efficiency
from .beamforming import build_plan
from .channel import ChannelParams, DropPaths, InvalidParams, channel_rows, draw_paths
from .clustering import beta_uc
from .link_metrics import link_states, rate, sinr_noma_strong, sinr_noma_weak
from .power_allocation import opa, partial_csi_zeta

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ScenarioResult",
    "AggregateRow",
    "CSV_HEADER",
    "parse_config_text",
    "load_scenario",
    "evaluate_trial",
    "run_sweep",
    "write_csv",
    "format_aggregates",
]

CSV_HEADER = "scheme,K,trial,sum_rate_bps,spectral_eff,energy_eff,noma_clusters,deactivated_users"

# Bounds of the link's scale: within them every rate is finite and no
# line-of-sight path loss or received power underflows to zero at a carrier
# the channel accepts.
MAX_BANDWIDTH_HZ = 1e12
MAX_CELL_RADIUS_M = 1e5
MIN_POWER_DBM = -200.0
MAX_POWER_DBM = 200.0


class ConfigError(ValueError):
    """A scenario file or its values are invalid."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation campaign (defaults: rural 28 GHz cell).

    Construction validates every value and builds the array and channel
    parameters; each derived value is built once.
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
        array = self.array_config  # validates antenna counts / spacing
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.user_counts:
            raise ConfigError("user_counts must not be empty")
        for k in self.user_counts:
            _check_user_count(k, array)
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
        self.channel_params  # validates the generator's knobs

    @cached_property
    def array_config(self) -> ArrayConfig:
        try:
            return ArrayConfig(self.m_h, self.m_v, self.d_over_lambda)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @cached_property
    def channel_params(self) -> ChannelParams:
        try:
            return ChannelParams(
                carrier_hz=self.carrier_hz,
                num_time_clusters_range=self.num_time_clusters,
                paths_per_cluster_range=self.paths_per_cluster,
                nlos_gain_offset_db=self.nlos_gain_offset_db,
                angle_spread_deg=self.angle_spread_deg,
                shadowing_sigma_db=self.shadowing_sigma_db,
            )
        except InvalidParams as exc:
            raise ConfigError(str(exc)) from exc

    @cached_property
    def total_power_w(self) -> float:
        return _watts(self.total_power_dbm)

    @cached_property
    def noise_w(self) -> float:
        return _watts(self.noise_power_dbm)


def _check_user_count(k_users: int, array: ArrayConfig) -> None:
    if not 1 <= k_users < array.num_elements:
        raise ConfigError(f"user counts must satisfy 1 <= K < M={array.num_elements}, got {k_users}")


def _watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class ScenarioResult:
    """One (scheme, K, trial) outcome."""

    scheme: SchemeId
    K: int
    trial: int
    sum_rate_bps: float
    spectral_eff_bps_per_hz: float
    energy_eff_bps_per_j: float
    noma_cluster_count: int
    deactivated_user_count: int


@dataclass(frozen=True)
class AggregateRow:
    """Mean and standard error of the spectral efficiency per (scheme, K)."""

    scheme: SchemeId
    K: int
    trials: int
    mean_spectral_eff: float
    stderr_spectral_eff: float
    mean_energy_eff: float


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


def parse_config_text(text: str) -> dict:
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
                raise ConfigError(f"unknown scheme {tag!r} (known: {', '.join(known)})")
        values["schemes"] = tuple(known[t] for t in tags)
    return values


def load_scenario(path: str, **overrides) -> ScenarioConfig:
    """Read a scenario file and apply keyword overrides (e.g. trials, master_seed)."""
    with open(path, "r", encoding="utf-8") as fh:
        values = parse_config_text(fh.read())
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in {f.name for f in fields(ScenarioConfig)}:
            raise ConfigError(f"unknown override {key!r}")
        values[key] = value
    return ScenarioConfig(**values)


# ---------------------------------------------------------------------------
# Trial pipeline


def _trial_rng(config: ScenarioConfig, k_users: int, trial_index: int) -> np.random.Generator:
    """Per-trial stream: master seed mixed with (K, trial) via SeedSequence spawn keys."""
    seq = np.random.SeedSequence(entropy=config.master_seed, spawn_key=(k_users, trial_index))
    return np.random.default_rng(seq)


def _drop_users(
    config: ScenarioConfig, k_users: int, trials: Sequence[int]
) -> tuple[DropPaths, list[list[Direction]]]:
    """The drops of (master_seed, K, t), t in ``trials``: their paths as one
    block, and each drop's LOS (strongest) user directions."""
    paths = draw_paths(
        [_trial_rng(config, k_users, t) for t in trials], config.channel_params, config.cell_radius_m, k_users
    )
    los = paths.starts
    dirs = [Direction(t, p) for t, p in zip(paths.theta[los].tolist(), paths.phi[los].tolist())]
    return paths, [dirs[first : first + k_users] for first in range(0, len(dirs), k_users)]


# Per scheme, a block's outcome: the T x K SINRs in beam order (each pair's
# strong then weak user, pair after pair, then the unpaired users; a drop
# with no pair keeps its dbs order), each user's band, and the T shared-beam
# and T deactivated counts.
_Outcome = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# Bytes of a block's channel rows (16 per entry): a sweep evaluates the trials
# of one user count max(1, _BLOCK_BYTES // (16 * M * K)) at a time, so that
# small drops share their numpy calls and a large drop runs alone.
_BLOCK_BYTES = 2**17


def _trial_outcomes(config: ScenarioConfig, k_users: int, trials: Sequence[int]) -> dict[SchemeId, _Outcome]:
    """Every scheme's outcome on the drops of (master_seed, K, t), t in ``trials``, as one block.

    The block's drops are drawn at once, and each is paired on its own
    before any steering, so that its K x K pairing temporaries meet no K x M
    matrix; the drops are then evaluated as one block.
    """
    paths, dirs = _drop_users(config, k_users, trials)
    pairings = [beta_uc(drop_dirs, config.array_config, config.beta0) for drop_dirs in dirs]
    return _block_outcomes(config, paths, pairings)


def _block_outcomes(
    config: ScenarioConfig, paths: DropPaths, pairings: list[np.ndarray]
) -> dict[SchemeId, _Outcome]:
    """Every scheme's outcome on a block of drops, given their paths and each drop's pairing.

    ``dbs`` uses the one-beam-per-user plan; ``noma_dbs_fcsi``,
    ``noma_dbs_pcsi`` and ``oma_dbs`` share each drop's pairing, its plan and
    its strong/weak ordering, and a drop with no pair gives them the ``dbs``
    row.  A drop's numbers do not depend on the block: every reduction and
    every matrix product runs per drop, at the drop's shape and memory layout.
    """
    h_rows, dbs_zeta, zeta, estimated = _steered_links(config, paths, pairings)
    # No plan or gain matrix is held while conjugate beamforming builds its
    # K x K temporaries.
    cb_sinr = conjugate_bf_sinr(h_rows, config.total_power_w, config.noise_w)
    del h_rows
    n_pairs = np.array([len(pairs) for pairs in pairings])
    beam = np.arange(dbs_zeta.shape[1])
    paired = beam < 2 * n_pairs[:, None]
    strong, weak = paired & (beam % 2 == 0), paired & (beam % 2 == 1)
    band = np.full(dbs_zeta.shape, config.bandwidth_hz)
    unshared = np.zeros_like(n_pairs)

    def noma(split_on: np.ndarray) -> _Outcome:
        gamma1, _ = opa(split_on[strong], split_on[weak], config.p_min, config.epsilon)
        sinr = zeta.copy()
        sinr[strong] = sinr_noma_strong(zeta[strong], gamma1)
        sinr[weak] = sinr_noma_weak(zeta[weak], gamma1)
        deactivated = np.bincount(np.nonzero(strong)[0][gamma1 == 0.0], minlength=len(n_pairs))
        return sinr, band, n_pairs, deactivated

    return {
        SchemeId.DBS: (dbs_zeta, band, unshared, unshared),
        SchemeId.NOMA_DBS_FCSI: noma(zeta),
        SchemeId.NOMA_DBS_PCSI: noma(estimated),
        # Orthogonal sharing: each paired user gets half the band.
        SchemeId.OMA_DBS: (zeta, np.where(paired, config.bandwidth_hz / 2.0, band), n_pairs, unshared),
        SchemeId.CONJUGATE_BF: (cb_sinr, band, unshared, unshared),
    }


def _steered_links(
    config: ScenarioConfig, paths: DropPaths, pairings: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The block's T x K x M channel rows, its T x K dbs link ratios, and its T x K shared-plan ratios.

    Each LOS direction is steered once, into a T x M x K block: each channel
    row's LOS path, the dbs plans' weights and the shared plans' private
    beams.  A paired drop's shared plan has P beams at its pairs' mean LOS
    angles, in selection order, then its unpaired users' beams.  Its row of
    shared-plan ratios is in beam order, and so is its row of the ratios
    partial CSI splits on: the paired users' estimates, then the unpaired
    users' ratios.  A drop with no pair keeps its dbs row in both.
    """
    cfg = config.array_config
    n_drops = len(pairings)
    k_users = len(paths.starts) // n_drops
    theta, phi = paths.theta[paths.starts], paths.phi[paths.starts]
    los = np.ascontiguousarray(
        steering_matrix(cfg, theta, phi).reshape(n_drops, k_users, cfg.num_elements).transpose(0, 2, 1)
    )
    h_rows = channel_rows(cfg, paths, los)
    plan = build_plan(los, np.ones(k_users, dtype=int), config.total_power_w, config.inter_cluster_rule)
    dbs_zeta = link_states(h_rows, plan, np.arange(k_users), config.noise_w)[2]
    del plan

    # The unpaired users' LOS vectors are their private beams, and partial CSI
    # sees each paired user as its conjugated LOS vector.  Both leave the LOS
    # block before it goes, and before any shared weights are allocated.
    kept = []
    for t, pairs in enumerate(pairings):
        if len(pairs):
            own_beams = np.full(k_users, -1)
            own_beams[pairs] = np.arange(len(pairs))[:, None]
            singles = np.flatnonzero(own_beams < 0)
            own_beams[singles] = np.arange(len(pairs), k_users - len(pairs))
            pair_rows = los[t].T[pairs.ravel()]
            np.conj(pair_rows, out=pair_rows)
            kept.append((t, pairs, own_beams, singles, los[t][:, singles], pair_rows))
    del los
    theta, phi = theta.reshape(n_drops, k_users), phi.reshape(n_drops, k_users)
    shared, estimated = dbs_zeta.copy(), dbs_zeta.copy()
    while kept:
        t, pairs, own_beams, singles, private, pair_rows = kept.pop(0)
        n_pairs = len(pairs)
        weights = np.empty((cfg.num_elements, k_users - n_pairs), dtype=complex)
        first, second = pairs[:, 0], pairs[:, 1]
        weights[:, :n_pairs] = steering_matrix(
            cfg, (theta[t, first] + theta[t, second]) / 2, (phi[t, first] + phi[t, second]) / 2
        ).T
        weights[:, n_pairs:] = private
        del private
        plan = build_plan(weights, np.bincount(own_beams), config.total_power_w, config.inter_cluster_rule)
        del weights
        psi, _, zeta = link_states(h_rows[t], plan, own_beams, config.noise_w)
        # Strong user first: the larger received power through the shared beam.
        swap = psi[second] > psi[first]
        pairs = np.where(swap[:, None], pairs[:, ::-1], pairs)
        shared[t] = estimated[t] = zeta[np.concatenate((pairs.ravel(), singles))]
        # Partial CSI splits on ratios estimated from the LOS rows alone.
        by_pair = pair_rows.reshape(n_pairs, 2, -1)
        by_pair[swap] = by_pair[swap, ::-1]
        estimated[t, : 2 * n_pairs] = partial_csi_zeta(
            pair_rows, plan, np.repeat(np.arange(n_pairs), 2), config.noise_w
        )
        del plan, pair_rows, by_pair
    return h_rows, dbs_zeta, shared, estimated


def evaluate_trial(config: ScenarioConfig, k_users: int, trial_index: int) -> dict[SchemeId, ScenarioResult]:
    """Every scheme's result on the drop of (master_seed, K, trial), all five of them.

    The users and their channels are drawn once.  It is a block of one
    trial, and gives the rows a sweep's larger blocks give.  A K outside the
    loader's 1 <= K < M, or a negative trial index, raises ConfigError.
    """
    _check_user_count(k_users, config.array_config)
    if trial_index < 0:
        raise ConfigError(f"trial index must be nonnegative, got {trial_index}")
    outcomes = _trial_outcomes(config, k_users, [trial_index])
    return {s: _results(config, k_users, [trial_index], s, outcome)[0] for s, outcome in outcomes.items()}


def _results(
    config: ScenarioConfig, k_users: int, trials: Sequence[int], scheme: SchemeId, outcome: _Outcome
) -> list[ScenarioResult]:
    """One scheme's rows of a block, each trial's rates summed alone, left to right in beam order.

    A running sum gives the same bits on every Python version; the built-in
    ``sum`` of floats is compensated from Python 3.12 on.
    """
    sinr, band, shared, deactivated = outcome
    sums = np.cumsum(rate(sinr, band), axis=1)[:, -1]
    results = []
    for trial, sum_rate, n_shared, n_off in zip(trials, sums.tolist(), shared.tolist(), deactivated.tolist()):
        results.append(
            ScenarioResult(
                scheme=scheme,
                K=k_users,
                trial=trial,
                sum_rate_bps=sum_rate,
                spectral_eff_bps_per_hz=sum_rate / config.bandwidth_hz,
                energy_eff_bps_per_j=energy_efficiency(
                    sum_rate, config.total_power_w, config.array_config.num_elements
                ),
                noma_cluster_count=n_shared,
                deactivated_user_count=n_off,
            )
        )
    return results


def run_sweep(config: ScenarioConfig) -> tuple[list[ScenarioResult], list[AggregateRow]]:
    """Every (scheme, K, trial) combination, plus per-(scheme, K) aggregates.

    Each (K, trial) drop is drawn once and evaluated for all configured
    schemes, the trials of one K in blocks of ``_BLOCK_BYTES`` of channel
    rows; each row equals :func:`evaluate_trial`'s.  Rows are collected per
    (scheme, K) and come back in (scheme tag, K, trial) order, so the output
    does not depend on the order in which the independent trials run.
    """
    groups: dict[tuple[SchemeId, int], list[ScenarioResult]] = {}
    for k_users in config.user_counts:
        per_block = max(1, _BLOCK_BYTES // (16 * config.array_config.num_elements * k_users))
        for first in range(0, config.trials, per_block):
            trials = range(first, min(first + per_block, config.trials))
            outcomes = _trial_outcomes(config, k_users, trials)
            for s in config.schemes:
                groups.setdefault((s, k_users), []).extend(_results(config, k_users, trials, s, outcomes[s]))
    results, aggregates = [], []
    for scheme in sorted(config.schemes, key=lambda s: s.value):
        for k_users in sorted(config.user_counts):
            group = groups[scheme, k_users]
            results += group
            ses, ees = zip(*((r.spectral_eff_bps_per_hz, r.energy_eff_bps_per_j) for r in group))
            stderr = statistics.stdev(ses) / math.sqrt(len(ses)) if len(ses) > 1 else 0.0
            aggregates.append(
                AggregateRow(
                    scheme=scheme,
                    K=k_users,
                    trials=len(ses),
                    mean_spectral_eff=statistics.fmean(ses),
                    stderr_spectral_eff=stderr,
                    mean_energy_eff=statistics.fmean(ees),
                )
            )
    return results, aggregates


def _fmt(value: float) -> str:
    return format(value, ".9g")


def write_csv(results: list[ScenarioResult], path: str) -> None:
    """Emit one row per result with floats at 9 significant digits."""
    lines = [CSV_HEADER]
    for r in results:
        lines.append(
            ",".join(
                (
                    r.scheme.value,
                    str(r.K),
                    str(r.trial),
                    _fmt(r.sum_rate_bps),
                    _fmt(r.spectral_eff_bps_per_hz),
                    _fmt(r.energy_eff_bps_per_j),
                    str(r.noma_cluster_count),
                    str(r.deactivated_user_count),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def format_aggregates(aggregates: list[AggregateRow]) -> str:
    """Human-readable mean +/- standard-error table."""
    lines = [f"{'scheme':<16} {'K':>4} {'trials':>7} {'SE mean [bps/Hz]':>18} {'SE stderr':>12} {'EE mean [bps/J]':>16}"]
    for row in aggregates:
        lines.append(
            f"{row.scheme.value:<16} {row.K:>4} {row.trials:>7} "
            f"{row.mean_spectral_eff:>18.4f} {row.stderr_spectral_eff:>12.4f} "
            f"{row.mean_energy_eff:>16.4g}"
        )
    return "\n".join(lines)
