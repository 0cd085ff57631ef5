"""Scenario configuration, seeded Monte Carlo sweeps, and CSV emission.

A scenario file is flat ``key = value`` text (``#`` comments, one key per
line, unknown keys rejected).  A sweep runs every (scheme, user count, trial)
combination.  The user drop and channels of a (K, trial) pair are drawn once,
from a random stream derived only from (master_seed, K, trial) through
numpy's SeedSequence spawn-key mixing, and every scheme is evaluated on that
one drop, so scheme comparisons are paired.  Results are sorted by
(scheme, K, trial) before emission so the CSV bytes do not depend on
execution order.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .array_geometry import ArrayConfig, Direction, steering_matrix
from .baselines import SchemeId, conjugate_bf_rates, energy_efficiency
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

# Consumption model constants for the energy-efficiency metric.
PA_INEFFICIENCY_RHO = 10.0
PER_ANTENNA_POWER_W = 1.0
BASE_STATION_POWER_W = 0.2


class ConfigError(ValueError):
    """A scenario file or its values are invalid."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation campaign (defaults: rural 28 GHz cell)."""

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
    csi_mode: str = "full"

    def __post_init__(self) -> None:
        array = self.array_config  # validates antenna counts / spacing
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.user_counts:
            raise ConfigError("user_counts must not be empty")
        for k in self.user_counts:
            if k < 1 or k >= array.num_elements:
                raise ConfigError(
                    f"user counts must satisfy 1 <= K < M={array.num_elements}, got {k}"
                )
        if not 0.0 < self.beta0 < 1.0:
            raise ConfigError(f"beta0 must be in (0, 1), got {self.beta0}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.p_min < 0:
            raise ConfigError(f"p_min must be nonnegative, got {self.p_min}")
        if self.inter_cluster_rule not in ("proportional", "uniform"):
            raise ConfigError(f"unknown inter_cluster_rule: {self.inter_cluster_rule!r}")
        if self.csi_mode not in ("full", "partial"):
            raise ConfigError(f"unknown csi_mode: {self.csi_mode!r}")
        if not self.schemes:
            raise ConfigError("schemes must not be empty")
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise ConfigError(f"bandwidth_hz must be positive and finite, got {self.bandwidth_hz}")
        for name in ("total_power_dbm", "noise_power_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for label, dbm, watts in (
            ("total power", self.total_power_dbm, self.total_power_w),
            ("noise power", self.noise_power_dbm, self.noise_w),
        ):
            if not 0.0 < watts < math.inf:
                raise ConfigError(f"{label} must be positive and finite, got {watts} W from {dbm} dBm")
        if not 0.0 < self.cell_radius_m < math.inf:
            raise ConfigError(f"cell_radius_m must be positive and finite, got {self.cell_radius_m}")
        self.channel_params  # validates the generator's knobs

    @property
    def array_config(self) -> ArrayConfig:
        try:
            return ArrayConfig(self.m_h, self.m_v, self.d_over_lambda)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
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

    @property
    def total_power_w(self) -> float:
        return _watts(self.total_power_dbm)

    @property
    def noise_w(self) -> float:
        return _watts(self.noise_power_dbm)


def _watts(dbm: float) -> float:
    """dBm to watts; a power too large for a float is infinite."""
    try:
        return 10.0 ** (dbm / 10.0) / 1000.0
    except OverflowError:
        return math.inf


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


def _parse_schemes(raw: str) -> tuple[SchemeId, ...]:
    tags = [p.strip() for p in raw.split(",") if p.strip()]
    schemes = []
    for tag in tags:
        try:
            schemes.append(SchemeId(tag))
        except ValueError as exc:
            known = ", ".join(s.value for s in SchemeId)
            raise ConfigError(f"unknown scheme {tag!r} (known: {known}, noma_dbs)") from exc
    return tuple(schemes)


_PARSERS = {
    "m_h": int,
    "m_v": int,
    "d_over_lambda": float,
    "carrier_hz": float,
    "bandwidth_hz": float,
    "cell_radius_m": float,
    "total_power_dbm": float,
    "noise_power_dbm": float,
    "p_min": float,
    "beta0": float,
    "epsilon": float,
    "num_time_clusters": lambda raw: _parse_interval(raw, int),
    "paths_per_cluster": lambda raw: _parse_interval(raw, int),
    "nlos_gain_offset_db": lambda raw: _parse_interval(raw, float),
    "angle_spread_deg": float,
    "shadowing_sigma_db": float,
    "user_counts": lambda raw: tuple(int(p.strip()) for p in raw.split(",") if p.strip()),
    "schemes": _parse_schemes,
    "trials": int,
    "master_seed": int,
    "inter_cluster_rule": str.strip,
    "csi_mode": str.strip,
}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` scenario text into constructor keywords.

    Lines are independent; ``#`` starts a comment; blank lines are ignored.
    Unknown keys and malformed values raise ConfigError.
    """
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key == "schemes":
            # 'noma_dbs' is resolved against csi_mode after all keys are read
            values[key] = raw_value
            continue
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](raw_value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if "schemes" in values:
        alias = "noma_dbs_fcsi" if values.get("csi_mode", "full") == "full" else "noma_dbs_pcsi"
        tags = [t.strip() for t in values["schemes"].split(",") if t.strip()]
        values["schemes"] = _parse_schemes(",".join(alias if t == "noma_dbs" else t for t in tags))
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
    config: ScenarioConfig, k_users: int, trial_index: int
) -> tuple[DropPaths, np.ndarray, list[Direction]]:
    """The drop's paths, its K x M channel rows and each user's LOS (strongest) direction."""
    paths = draw_paths(
        _trial_rng(config, k_users, trial_index), config.channel_params, config.cell_radius_m, k_users
    )
    h_rows = channel_rows(config.array_config, paths)
    los = paths.starts
    los_dirs = [Direction(t, p) for t, p in zip(paths.theta[los].tolist(), paths.phi[los].tolist())]
    return paths, h_rows, los_dirs


# Per scheme: the users' rates in beam order, shared-beam count, deactivated count.
_Outcome = tuple[list[float], int, int]


def _rates(sinr: np.ndarray, bandwidth_hz: float) -> list[float]:
    return [rate(s, bandwidth_hz) for s in sinr.tolist()]


def _dbs_outcome(config: ScenarioConfig, h_rows: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> _Outcome:
    k_users = len(h_rows)
    plan = build_plan(
        config.array_config,
        theta,
        phi,
        np.ones(k_users, dtype=int),
        config.total_power_w,
        config.inter_cluster_rule,
    )
    _, _, zeta = link_states(h_rows, plan, np.arange(k_users), config.noise_w)
    return _rates(zeta, config.bandwidth_hz), 0, 0


def _shared_beam_outcomes(
    config: ScenarioConfig,
    schemes: list[SchemeId],
    h_rows: np.ndarray,
    pairs: np.ndarray,
    theta: np.ndarray,
    phi: np.ndarray,
) -> dict[SchemeId, _Outcome]:
    """The pairing schemes on one pairing (P >= 1 pairs), its plan and one strong/weak ordering.

    Beams are the P shared ones in selection order, then one private beam
    per unpaired user in user order.  Each beam points at the mean of its
    users' LOS angles: the pair's mean, or the private user's own direction.
    """
    bandwidth = config.bandwidth_hz
    n_pairs = len(pairs)
    own_beams = np.full(len(h_rows), -1)
    own_beams[pairs] = np.arange(n_pairs)[:, None]
    singles = np.flatnonzero(own_beams < 0)
    own_beams[singles] = np.arange(n_pairs, n_pairs + len(singles))
    sizes = np.bincount(own_beams)
    plan = build_plan(
        config.array_config,
        np.bincount(own_beams, weights=theta) / sizes,
        np.bincount(own_beams, weights=phi) / sizes,
        sizes,
        config.total_power_w,
        config.inter_cluster_rule,
    )
    psi, _, zeta = link_states(h_rows, plan, own_beams, config.noise_w)
    # Strong user first: the larger received power through the shared beam.
    pairs = np.where((psi[pairs[:, 1]] > psi[pairs[:, 0]])[:, None], pairs[:, ::-1], pairs)
    zeta1, zeta2 = zeta[pairs[:, 0]], zeta[pairs[:, 1]]
    private_rates = _rates(zeta[singles], bandwidth)
    outcomes = {}
    for scheme in schemes:
        if scheme is SchemeId.OMA_DBS:
            # Orthogonal sharing: each paired user gets half the band.
            outcomes[scheme] = (_rates(zeta[pairs.ravel()], bandwidth / 2.0) + private_rates, n_pairs, 0)
            continue
        if scheme is SchemeId.NOMA_DBS_PCSI:
            # Partial CSI sees each paired user as its LOS steering row, a
            # unit-gain single path, and splits on those estimated ratios.
            rows = steering_matrix(config.array_config, theta[pairs.ravel()], phi[pairs.ravel()])
            np.conj(rows, out=rows)
            estimated = partial_csi_zeta(rows, plan, np.repeat(np.arange(n_pairs), 2), config.noise_w)
            gamma1, _ = opa(estimated[0::2], estimated[1::2], config.p_min, config.epsilon)
        else:
            gamma1, _ = opa(zeta1, zeta2, config.p_min, config.epsilon)
        sinr = np.column_stack((sinr_noma_strong(zeta1, gamma1), sinr_noma_weak(zeta2, gamma1)))
        deactivated = int(np.count_nonzero(gamma1 == 0.0))
        outcomes[scheme] = (_rates(sinr.ravel(), bandwidth) + private_rates, n_pairs, deactivated)
    return outcomes


_SHARED_BEAM_SCHEMES = (SchemeId.NOMA_DBS_FCSI, SchemeId.NOMA_DBS_PCSI, SchemeId.OMA_DBS)


def evaluate_trial(
    config: ScenarioConfig,
    k_users: int,
    trial_index: int,
    schemes: Sequence[SchemeId],
) -> list[ScenarioResult]:
    """Every scheme of ``schemes`` on the drop of (master_seed, K, trial), in that order.

    The users and their channels are drawn once and shared by all schemes.
    ``dbs`` uses the one-beam-per-user plan; ``noma_dbs_fcsi``,
    ``noma_dbs_pcsi`` and ``oma_dbs`` share one pairing, its plan and its
    strong/weak ordering, and a pairing with no pair gives them the ``dbs``
    plan.  Each result is the one the scheme gets alone.
    """
    paths, h_rows, los_dirs = _drop_users(config, k_users, trial_index)
    theta, phi = paths.theta[paths.starts], paths.phi[paths.starts]
    outcomes: dict[SchemeId, _Outcome] = {}
    # Plans and gain matrices live only inside the helpers below, so none is
    # held while conjugate beamforming builds its K x K temporaries.
    if SchemeId.CONJUGATE_BF in schemes:
        cb_rates = conjugate_bf_rates(h_rows, config.total_power_w, config.noise_w, config.bandwidth_hz)
        outcomes[SchemeId.CONJUGATE_BF] = (cb_rates, 0, 0)
    if SchemeId.DBS in schemes:
        outcomes[SchemeId.DBS] = _dbs_outcome(config, h_rows, theta, phi)
    shared = [s for s in _SHARED_BEAM_SCHEMES if s in schemes]
    if shared:
        pairs = beta_uc(los_dirs, config.array_config, config.beta0)
        if len(pairs):
            outcomes.update(_shared_beam_outcomes(config, shared, h_rows, pairs, theta, phi))
        else:
            # No pair: every beam is private, which is the dbs plan.
            private = outcomes.get(SchemeId.DBS) or _dbs_outcome(config, h_rows, theta, phi)
            outcomes.update(dict.fromkeys(shared, private))
    return [_result(config, k_users, trial_index, s, *outcomes[s]) for s in schemes]


def _result(
    config: ScenarioConfig,
    k_users: int,
    trial_index: int,
    scheme: SchemeId,
    rates: list[float],
    noma_clusters: int,
    deactivated: int,
) -> ScenarioResult:
    sum_rate = float(sum(rates))
    return ScenarioResult(
        scheme=scheme,
        K=k_users,
        trial=trial_index,
        sum_rate_bps=sum_rate,
        spectral_eff_bps_per_hz=sum_rate / config.bandwidth_hz,
        energy_eff_bps_per_j=energy_efficiency(
            sum_rate,
            config.total_power_w,
            config.array_config.num_elements,
            PA_INEFFICIENCY_RHO,
            PER_ANTENNA_POWER_W,
            BASE_STATION_POWER_W,
        ),
        noma_cluster_count=noma_clusters,
        deactivated_user_count=deactivated,
    )


def run_sweep(config: ScenarioConfig) -> tuple[list[ScenarioResult], list[AggregateRow]]:
    """Every (scheme, K, trial) combination, plus per-(scheme, K) aggregates.

    Each (K, trial) drop is drawn once and evaluated for all configured
    schemes by :func:`evaluate_trial`.  Results come back sorted by
    (scheme tag, K, trial), so the output does not depend on the order in
    which the independent trials run.
    """
    results = [
        result
        for k_users in config.user_counts
        for trial in range(config.trials)
        for result in evaluate_trial(config, k_users, trial, config.schemes)
    ]
    results.sort(key=lambda r: (r.scheme.value, r.K, r.trial))
    aggregates = []
    for scheme in sorted(config.schemes, key=lambda s: s.value):
        for k_users in sorted(config.user_counts):
            ses = [r.spectral_eff_bps_per_hz for r in results if r.scheme is scheme and r.K == k_users]
            ees = [r.energy_eff_bps_per_j for r in results if r.scheme is scheme and r.K == k_users]
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
