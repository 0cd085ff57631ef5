import functools
import itertools
import math
import statistics
import tempfile
import tracemalloc
import weakref
from dataclasses import astuple, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from nomabeam import sim_harness
from nomabeam.array_geometry import steering_matrix
from nomabeam.baselines import SchemeId
from nomabeam.channel import draw_paths
from nomabeam.link_metrics import link_states, sinr_noma
from nomabeam.power_allocation import opa
from nomabeam.sim_harness import (
    Columns,
    ConfigError,
    ScenarioConfig,
    _block_outcomes,
    _drop_users,
    _columns,
    _parse_config_text,
    _stdev,
    _trial_generator,
    _trial_states,
    format_aggregates,
    load_scenario,
    run_sweep,
    write_csv,
)

from csv_reference import SWEEP_HEADER, sweep_csv
from drops import (
    Direction,
    channel_matrix,
    drop_paths,
    magnitudes,
    mirrored,
    pair_beta,
    plan_toward,
    scores,
    trial_scores,
    user_paths,
)
from oracles import beta_phasor_sum, sinr_dbs_monopath_closed

SMALL = ScenarioConfig(
    user_counts=(4,),
    schemes=(SchemeId.DBS, SchemeId.NOMA_DBS_FCSI),
    trials=3,
    master_seed=11,
)


class TestConfigParsing:
    def test_full_roundtrip(self, tmp_path):
        text = """
        # rural scenario
        m_h = 32
        m_v = 2                  # vertical elements
        d_over_lambda = 0.5
        carrier_hz = 28e9
        bandwidth_hz = 20e6
        cell_radius_m = 100
        total_power_dbm = 30
        noise_power_dbm = -100.9178
        p_min = 1e-3
        beta0 = 0.5
        epsilon = 0.05
        num_time_clusters = 1,2
        paths_per_cluster = 1,2
        nlos_gain_offset_db = 5,15
        angle_spread_deg = 15
        shadowing_sigma_db = 4
        user_counts = 5,15,25
        schemes = dbs,noma_dbs_fcsi,cb
        trials = 10
        master_seed = 99
        inter_cluster_rule = proportional
        csi_mode = full
        """
        path = tmp_path / "scenario.cfg"
        path.write_text("\n".join(line.strip() for line in text.splitlines()))
        config = load_scenario(str(path))
        assert config.m_h == 32 and config.m_v == 2
        assert config.user_counts == (5, 15, 25)
        assert config.schemes == (SchemeId.DBS, SchemeId.NOMA_DBS_FCSI, SchemeId.CONJUGATE_BF)
        assert config.trials == 10 and config.master_seed == 99
        assert config.total_power_w == pytest.approx(1.0)
        assert config.noise_w == pytest.approx(8.0905e-14, rel=1e-4)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            _parse_config_text("m_h = 32\nbogus_key = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            _parse_config_text("just some words\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            _parse_config_text("m_h = many\n")

    def test_interval_single_value_form(self):
        values = _parse_config_text("num_time_clusters = 2\n")
        assert values["num_time_clusters"] == (2, 2)

    def test_interval_with_three_values_rejected(self):
        with pytest.raises(ConfigError, match="expected 'lo,hi' or a single value"):
            _parse_config_text("paths_per_cluster = 1,2,3\n")

    def test_scheme_alias_follows_csi_mode(self):
        full = _parse_config_text("schemes = noma_dbs\ncsi_mode = full\n")
        partial = _parse_config_text("schemes = noma_dbs\ncsi_mode = partial\n")
        assert full["schemes"] == (SchemeId.NOMA_DBS_FCSI,)
        assert partial["schemes"] == (SchemeId.NOMA_DBS_PCSI,)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            _parse_config_text("schemes = dbs,magic\n")

    def test_override_unknown_key(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("m_h = 8\n")
        with pytest.raises(TypeError, match="not_a_field"):
            load_scenario(str(path), not_a_field=3)

    def test_csi_mode_is_no_override(self, tmp_path):
        # csi_mode only resolves the 'noma_dbs' tag of the file's schemes line
        path = tmp_path / "s.cfg"
        path.write_text("m_h = 8\nschemes = noma_dbs\n")
        with pytest.raises(TypeError, match="csi_mode"):
            load_scenario(str(path), csi_mode="partial")

    @pytest.mark.parametrize(
        "text",
        [
            "schemes = dbs,dbs\n",
            "schemes = cb,oma_dbs,cb\n",
            # the alias resolves to the scheme named next to it
            "schemes = noma_dbs,noma_dbs_fcsi\ncsi_mode = full\n",
            "schemes = noma_dbs_pcsi,noma_dbs\ncsi_mode = partial\n",
        ],
    )
    def test_repeated_scheme_rejected(self, text):
        with pytest.raises(ConfigError, match="schemes must not repeat"):
            ScenarioConfig(**_parse_config_text(text))

    def test_shipped_config_is_the_default(self):
        shipped = Path(__file__).resolve().parent.parent / "configs" / "rural_default.cfg"
        assert load_scenario(str(shipped)) == ScenarioConfig()
        # the file shows every key: each field and csi_mode
        lines = (line.split("#", 1)[0] for line in shipped.read_text(encoding="utf-8").splitlines())
        keys = {line.partition("=")[0].strip() for line in lines if line.strip()}
        assert keys == {field.name for field in fields(ScenarioConfig)} | {"csi_mode"}


class TestConfigValidation:
    @pytest.mark.parametrize("k", [0, 8, 9])
    def test_user_count_must_stay_below_element_count(self, k):
        with pytest.raises(ConfigError, match=f"user_counts must satisfy 1 <= K < M=8, got {k}"):
            ScenarioConfig(m_h=4, m_v=2, user_counts=(k,))

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(trials=0)

    def test_trials_stay_within_32_bit_trial_indices(self):
        # the trial index is one 32-bit word of the seed: 2**32 trials reach
        # index 2**32 - 1, one more would need a second word
        assert ScenarioConfig(trials=2**32).trials == 2**32
        with pytest.raises(ConfigError, match=rf"trials must be >= 1 and at most 2\*\*32, got {2**32 + 1}"):
            ScenarioConfig(trials=2**32 + 1)

    def test_rule_and_csi_mode_validated(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(inter_cluster_rule="sideways")
        with pytest.raises(ConfigError):
            _parse_config_text("csi_mode = none\n")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bandwidth_hz", math.inf),
            ("total_power_dbm", -math.inf),
            ("cell_radius_m", math.inf),
            ("carrier_hz", -1.0),
            ("num_time_clusters", (2, 1)),
            ("paths_per_cluster", (0, 1)),
            ("shadowing_sigma_db", -1.0),
            ("shadowing_sigma_db", 30.5),
            ("num_time_clusters", (1, 100000000)),
            ("paths_per_cluster", (1, 31)),
            ("num_time_clusters", (1, 7)),
            ("carrier_hz", 1e-300),
            ("noise_power_dbm", -4000.0),
            ("total_power_dbm", 4000.0),
            ("nlos_gain_offset_db", (7000.0, 7000.0)),
            ("nlos_gain_offset_db", (5.0, 200.00000000000003)),
        ],
    )
    def test_link_and_channel_values_validated_at_construction(self, field, value):
        with pytest.raises(ConfigError):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"carrier_hz": 1e6},
            {"carrier_hz": 1e12},
            {"nlos_gain_offset_db": (-30.0, -30.0)},
            {"nlos_gain_offset_db": (200.0, 200.0)},
            {"cell_radius_m": 1e-3},
            {"cell_radius_m": 1e5},
            {"bandwidth_hz": 1e12},
            {"total_power_dbm": -200.0},
            {"total_power_dbm": 200.0},
            {"noise_power_dbm": -200.0},
            {"noise_power_dbm": 200.0},
            {"d_over_lambda": 10.0},
            {"shadowing_sigma_db": 30.0},
            {"angle_spread_deg": 0.0},
            {"num_time_clusters": (6, 6), "paths_per_cluster": (30, 30)},
        ],
        ids=lambda overrides: ",".join(f"{key}={value}" for key, value in overrides.items()),
    )
    def test_bounds_give_finite_rates(self, overrides):
        config = replace(SMALL, **{"paths_per_cluster": (2, 2), **overrides})
        for k in (1, 2, 5):
            for columns in trial_scores(config, k, 0).values():
                assert math.isfinite(columns.sum_rate_bps[0]) and columns.sum_rate_bps[0] >= 0

    def test_power_conversion(self):
        config = ScenarioConfig(total_power_dbm=33.0)
        assert config.total_power_w == pytest.approx(1.9953, rel=1e-4)


# The loader's stated range of each field, as (low, high, whether low is
# excluded, whether high is excluded).  A pair (lo, hi) must hold lo <= hi
# within the range, and each user count 1 <= K < M.
LOADER_RANGES = {
    "m_h": (1, math.inf, False, True),
    "m_v": (1, math.inf, False, True),
    "d_over_lambda": (0.0, sim_harness.MAX_ELEMENT_SPACING, True, False),
    "carrier_hz": (sim_harness.MIN_CARRIER_HZ, sim_harness.MAX_CARRIER_HZ, False, False),
    "bandwidth_hz": (0.0, sim_harness.MAX_BANDWIDTH_HZ, True, False),
    "cell_radius_m": (0.0, sim_harness.MAX_CELL_RADIUS_M, True, False),
    "total_power_dbm": (sim_harness.MIN_POWER_DBM, sim_harness.MAX_POWER_DBM, False, False),
    "noise_power_dbm": (sim_harness.MIN_POWER_DBM, sim_harness.MAX_POWER_DBM, False, False),
    "p_min": (0.0, math.inf, False, True),
    "beta0": (0.0, 1.0, True, True),
    "epsilon": (0.0, 1.0, False, True),
    "num_time_clusters": (1, sim_harness.MAX_TIME_CLUSTERS, False, False),
    "paths_per_cluster": (1, sim_harness.MAX_PATHS_PER_CLUSTER, False, False),
    "nlos_gain_offset_db": (sim_harness.MIN_NLOS_GAIN_OFFSET_DB, sim_harness.MAX_NLOS_GAIN_OFFSET_DB, False, False),
    "angle_spread_deg": (0.0, math.inf, False, True),
    "shadowing_sigma_db": (0.0, sim_harness.MAX_SHADOWING_SIGMA_DB, False, False),
    "trials": (1, sim_harness.MAX_TRIALS, False, False),
    "master_seed": (0, math.inf, False, True),
}
FLOAT_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type == "float"]


def in_range(value, low, high, low_open, high_open):
    return (low < value if low_open else low <= value) and (value < high if high_open else value <= high)


def loader_accepts(values):
    """Whether every field of ``values`` lies in its stated range."""
    for name, (low, high, low_open, high_open) in LOADER_RANGES.items():
        lo, hi = values[name] if isinstance(values[name], tuple) else (values[name], values[name])
        if not (in_range(lo, low, high, low_open, high_open) and lo <= hi and in_range(hi, low, high, low_open, high_open)):
            return False
    m = values["m_h"] * values["m_v"]
    return (
        len(set(values["user_counts"])) == len(values["user_counts"]) > 0
        and all(1 <= k < m for k in values["user_counts"])
        and len(set(values["schemes"])) == len(values["schemes"]) > 0
        and values["inter_cluster_rule"] in ("proportional", "uniform")
    )


def by_binade(signs, lowest, highest):
    """Floats of the given signs with binary exponents from ``lowest`` to ``highest``."""
    return st.builds(
        lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
        st.sampled_from(signs),
        st.floats(1.0, 2.0, exclude_max=True),
        st.integers(lowest, highest),
    )


def floats_inside(low, high, low_open, high_open):
    """Floats of the range: its ends or the floats just inside them, any binade that meets it, and
    floats between the ends."""
    ends = [low if not low_open else math.nextafter(low, math.inf), high if not high_open else math.nextafter(high, -math.inf)]
    binades = by_binade(
        [1.0, -1.0] if low < 0 else [1.0],
        -1074 if low <= 0 else math.frexp(low)[1] - 1,
        math.frexp(max(-low, high))[1] - 1 if math.isfinite(high) else 1023,
    )
    return (
        st.sampled_from([x for x in ends if math.isfinite(x)])
        | binades.filter(lambda x: in_range(x, low, high, low_open, high_open))
        | st.floats(low, high, exclude_min=low_open, exclude_max=high_open, allow_infinity=False)
    )


def floats_about(low, high, low_open, high_open):
    """Floats just inside and just outside each finite end of the range, the non-finite floats, and
    any float by binade, of either sign."""
    ends = [x for end in (low, high) if math.isfinite(end) for x in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf))]
    return st.sampled_from(ends + [math.inf, -math.inf, math.nan]) | by_binade([1.0, -1.0], -1074, 1023)


# For each field, values inside its range, and values about its bounds on
# either side.  Arrays, user counts and path counts stay small, so that an
# accepted config runs fast; trial counts and seeds go by bit length.
INSIDE = {
    **{name: floats_inside(*LOADER_RANGES[name]) for name in FLOAT_FIELDS},
    "num_time_clusters": st.lists(st.integers(1, sim_harness.MAX_TIME_CLUSTERS), min_size=2, max_size=2).map(sorted).map(tuple),
    "paths_per_cluster": st.lists(st.integers(1, sim_harness.MAX_PATHS_PER_CLUSTER), min_size=2, max_size=2).map(sorted).map(tuple),
    "nlos_gain_offset_db": st.lists(floats_inside(*LOADER_RANGES["nlos_gain_offset_db"]), min_size=2, max_size=2).map(sorted).map(tuple),
    "m_h": st.integers(1, 8),
    "m_v": st.integers(1, 4),
    "trials": st.sampled_from([1, sim_harness.MAX_TRIALS]) | magnitudes(1, 32),
    "master_seed": magnitudes(0, 200),
    "schemes": st.permutations(list(SchemeId)).flatmap(lambda order: st.integers(1, len(order)).map(lambda n: tuple(order[:n]))),
    "inter_cluster_rule": st.sampled_from(["proportional", "uniform"]),
}
ABOUT = {
    **{name: floats_about(*LOADER_RANGES[name]) for name in FLOAT_FIELDS},
    **{
        name: st.tuples(ints, ints)
        for name, ints in (
            ("num_time_clusters", st.integers(-1, sim_harness.MAX_TIME_CLUSTERS + 1)),
            ("paths_per_cluster", st.integers(-1, sim_harness.MAX_PATHS_PER_CLUSTER + 1)),
        )
    },
    "nlos_gain_offset_db": st.tuples(*2 * [floats_about(*LOADER_RANGES["nlos_gain_offset_db"])]),
    "m_h": st.integers(-1, 2),
    "m_v": st.integers(-1, 2),
    "trials": st.sampled_from([-1, 0, 1, sim_harness.MAX_TRIALS, sim_harness.MAX_TRIALS + 1]),
    "master_seed": magnitudes(0, 200).map(lambda seed: -seed) | st.just(0),
    "user_counts": st.lists(st.integers(-1, 10), max_size=3).map(tuple),
    "schemes": st.lists(st.sampled_from(list(SchemeId)), max_size=6).map(tuple),
    "inter_cluster_rule": st.sampled_from(["proportional", "uniform", "Uniform", ""]),
}


@st.composite
def loader_values(draw):
    """Fields drawn inside their ranges, user counts inside that array's, and one field drawn about its bounds."""
    values = draw(st.fixed_dictionaries({}, optional=INSIDE))
    m = values.get("m_h", 4) * values.get("m_v", 2)
    if m > 1:
        values["user_counts"] = tuple(draw(st.lists(st.integers(1, min(m - 1, 9)), min_size=1, max_size=3, unique=True)))
    name = draw(st.sampled_from(sorted(ABOUT)))
    values[name] = draw(ABOUT[name])
    return values


class TestLoaderProperty:
    BASE = {f.name: getattr(ScenarioConfig(m_h=4, m_v=2, user_counts=(1, 2), trials=2), f.name) for f in fields(ScenarioConfig)}

    def test_each_bound_parts_its_neighbours(self):
        # each finite end of each range, and the values one step either side
        # of it, alone: accepted exactly where they lie in the range
        probes = [("user_counts", counts) for counts in [(), (0,), (1, 1), (7,), (8,)]]
        probes += [("schemes", schemes) for schemes in [(), (SchemeId.DBS, SchemeId.DBS)]]
        probes += [("inter_cluster_rule", rule) for rule in ["proportional", "uniform", "Uniform"]]
        for name, (low, high, _, _) in LOADER_RANGES.items():
            step = (lambda x, to: x + (1 if to > x else -1)) if isinstance(low, int) else math.nextafter
            near = [step(end, -math.inf) for end in (low, high) if math.isfinite(end)]
            near += [end for end in (low, high) if math.isfinite(end)] + [step(end, math.inf) for end in (low, high) if math.isfinite(end)]
            pairs = isinstance(self.BASE[name], tuple)
            probes += [(name, (x, x) if pairs else x) for x in near]
            if pairs:
                probes += [(name, (low, step(low, -math.inf))), (name, (high, step(high, -math.inf)))]
        for name, value in probes:
            values = {**self.BASE, name: value}
            try:
                ScenarioConfig(**values)
            except ConfigError:
                assert not loader_accepts(values), (name, value)
            else:
                assert loader_accepts(values), (name, value)

    @settings(max_examples=100)
    @given(loader_values())
    def test_every_value_is_rejected_or_gives_a_finite_csv(self, overrides):
        values = {**self.BASE, **overrides}
        try:
            config = ScenarioConfig(**values)
        except ConfigError:
            assert not loader_accepts(values)
            return
        assert loader_accepts(values)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sweep.csv"
            write_csv(run_sweep(replace(config, trials=2)), str(path))
            rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 2 * len(config.schemes) * len(config.user_counts)
        for row in rows:
            assert all(math.isfinite(float(x)) and float(x) >= 0 for x in row.split(",")[3:]), row


EQUIVALENCE_BASE = ScenarioConfig(user_counts=(1, 2, 5), master_seed=11)
EQUIVALENCE_CONFIGS = {
    "rural-defaults": EQUIVALENCE_BASE,
    # beta0 this low pairs the two users of K=2 on one beam with no other
    # beam, the noise-floored partial-CSI branch
    "lone-shared-beam": replace(EQUIVALENCE_BASE, beta0=0.05),
    "uniform-split": replace(EQUIVALENCE_BASE, inter_cluster_rule="uniform"),
    "single-row-array": replace(EQUIVALENCE_BASE, m_v=1),
    "four-paths": replace(EQUIVALENCE_BASE, num_time_clusters=(2, 2), paths_per_cluster=(2, 2)),
}


class TestDropScoredAlone:
    """One seeded drop, drawn from its paths and scored as a block of one."""

    def test_single_user_is_noise_limited(self):
        config = replace(SMALL, user_counts=(1,))
        result = trial_scores(config, 1, 0)[SchemeId.DBS]
        assert result.noma_clusters[0] == 0
        assert result.sum_rate_bps[0] > 0
        assert result.spectral_eff[0] == pytest.approx(result.sum_rate_bps[0] / config.bandwidth_hz, rel=1e-12)

    def test_deterministic_per_key(self):
        a = trial_scores(SMALL, 4, 2)[SchemeId.NOMA_DBS_FCSI]
        b = trial_scores(SMALL, 4, 2)[SchemeId.NOMA_DBS_FCSI]
        assert [column[0] for column in a] == [column[0] for column in b]

    def test_schemes_share_the_same_drop(self):
        # K=1 leaves nothing to pair, so the shared-beam scheme reduces to
        # plain steering on the identical channel draw
        config = replace(SMALL, user_counts=(1,))
        results = trial_scores(config, 1, 5)
        dbs, noma = results[SchemeId.DBS], results[SchemeId.NOMA_DBS_FCSI]
        assert dbs.sum_rate_bps[0] == pytest.approx(noma.sum_rate_bps[0], rel=1e-12)

    def test_monopath_dbs_matches_closed_form(self):
        config = replace(
            SMALL,
            num_time_clusters=(1, 1),
            paths_per_cluster=(1, 1),
            user_counts=(6,),
        )
        k = 6
        paths = _drop_users(config, k, [1])
        result = scores(config, paths, k)[SchemeId.DBS]
        gains = paths.gains[paths.starts].tolist()
        dirs = [user[0] for user in user_paths(paths)[1]]
        eta_dbs = config.total_power_w / (config.num_elements * k)
        closed_sum = sum(
            config.bandwidth_hz
            * math.log2(
                1.0
                + sinr_dbs_monopath_closed(
                    gains, dirs, own, eta_dbs, config.noise_w, config
                )
            )
            for own in range(k)
        )
        assert result.sum_rate_bps[0] == pytest.approx(closed_sum, rel=1e-9)

    def test_partial_csi_scheme_runs(self):
        result = trial_scores(SMALL, 4, 0)[SchemeId.NOMA_DBS_PCSI]
        assert result.sum_rate_bps[0] > 0

    def test_oma_scheme_runs(self):
        result = trial_scores(SMALL, 4, 0)[SchemeId.OMA_DBS]
        assert result.sum_rate_bps[0] > 0

    def test_last_trial_index_is_reachable(self):
        # 2**32 trials end at index 2**32 - 1, the largest that one 32-bit
        # seed word holds
        assert trial_scores(SMALL, 4, 2**32 - 1)[SchemeId.DBS].sum_rate_bps[0] > 0

    def test_lone_shared_beam_is_reached(self):
        config = EQUIVALENCE_CONFIGS["lone-shared-beam"]
        paired = [t for t in range(2) if trial_scores(config, 2, t)[SchemeId.NOMA_DBS_PCSI].noma_clusters[0] == 1]
        assert paired

    def test_four_paths_per_user(self):
        paths = _drop_users(EQUIVALENCE_CONFIGS["four-paths"], 5, [0])
        assert paths.starts.tolist() == [0, 4, 8, 12, 16]
        assert len(paths.gains) == 20

    def test_massive_array_trial_peak_memory(self):
        # The largest drop: a 64x8 array at K = 448, whose traced peak after a
        # warm-up call is 10.13 MiB, reached in the dbs product h_rows @ los
        # and, as high, in conjugate beamforming's two real products.  Drafts
        # that held a complex product past its weighing, or two blocks of beam
        # gains at once, took it to 11.95 MiB and more; holding the LOS block
        # through its weighing takes it to 11.66 MiB, and conjugate
        # beamforming's [Re H, Im H] copy through the imaginary part to 11.72.
        config = ScenarioConfig(m_h=64, m_v=8, user_counts=(448,))
        trial_scores(config, 448, 0)
        tracemalloc.start()
        try:
            trial_scores(config, 448, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.35 * 2**20


class TestSharedBeams:
    """Hand-built drops: users 0 and 1 nearly collinear and, when there is a
    third, user 2 far away.  Without it the pair's beam is the drop's only
    beam."""

    CONFIG = ScenarioConfig(m_h=16, m_v=2, user_counts=(3,))
    DIRS = [Direction(1.2, -0.1), Direction(1.205, -0.1), Direction(0.4, -0.2)]

    def drop(self, amplitudes):
        """One path per user, user k's of amplitude ``amplitudes[k]`` toward ``DIRS[k]``."""
        return drop_paths([[(a, d)] for a, d in zip(amplitudes, self.DIRS)])

    def outcome(self, scheme, paths):
        """The drop's channel rows and the scheme's outcome, in a block of one drop.

        The outcome is the drop's SINRs in beam order, each user's band, and
        its shared-beam and deactivated counts.
        """
        k_users = len(paths.starts)
        sinr, band, shared, deactivated = _block_outcomes(self.CONFIG, paths, k_users)[scheme]
        band = np.broadcast_to(band, sinr.shape)
        assert sinr.shape == band.shape == (1, k_users) and shared.shape == deactivated.shape == (1,)
        return channel_matrix(self.CONFIG, paths), (sinr[0], band[0], shared[0], deactivated[0])

    def expected_zeta(self, h_rows):
        """``(weights, beam_powers)`` of a shared beam at the pair's mean direction and, with a third user, its
        private beam, and the link ratios against them."""
        d0, d1, *singles = self.DIRS[: len(h_rows)]
        weights, powers = plan_toward(
            self.CONFIG,
            [(d0.theta + d1.theta) / 2] + [d.theta for d in singles],
            [(d0.phi + d1.phi) / 2] + [d.phi for d in singles],
            [2] + [1] * len(singles),
            self.CONFIG.total_power_w,
        )
        zeta = link_states(np.abs(h_rows @ weights) ** 2, powers, [0, 0, 1][: len(h_rows)], self.CONFIG.noise_w)[2]
        return (weights, powers), zeta.tolist()

    @pytest.mark.parametrize(
        "amplitudes, strong, weak",
        [((1e-5, 3e-5, 2e-5), 1, 0), ((3e-5, 1e-5, 2e-5), 0, 1), ((1e-5, 3e-5), 1, 0)],
    )
    def test_stronger_user_comes_first_and_oma_halves_the_band(self, amplitudes, strong, weak):
        h_rows, (sinr, bands, shared, deactivated) = self.outcome(SchemeId.OMA_DBS, self.drop(amplitudes))
        _, zeta = self.expected_zeta(h_rows)
        band = self.CONFIG.bandwidth_hz
        assert (shared, deactivated) == (1, 0)
        assert sinr.tolist() == [zeta[strong], zeta[weak], *zeta[2:]]
        assert bands.tolist() == [band / 2, band / 2] + [band] * (len(zeta) - 2)

    @pytest.mark.parametrize("amplitudes", [(1e-5, 3e-5, 2e-5), (1e-5, 3e-5)])
    @pytest.mark.parametrize("scheme", [SchemeId.NOMA_DBS_FCSI, SchemeId.NOMA_DBS_PCSI])
    def test_shared_beam_rates_follow_the_split(self, scheme, amplitudes):
        paths = self.drop(amplitudes)
        h_rows, (sinr, bands, shared, deactivated) = self.outcome(scheme, paths)
        (weights, powers), zeta = self.expected_zeta(h_rows)
        z_strong, z_weak = zeta[1], zeta[0]
        if scheme is SchemeId.NOMA_DBS_PCSI and len(powers) > 1:
            # The LOS rows' link ratios with no noise.  On the drop's only
            # beam nothing leaks in, and partial CSI splits as full CSI does.
            los = np.conj(steering_matrix(self.CONFIG, paths.theta[[1, 0]], paths.phi[[1, 0]]))
            split_on = link_states(np.abs(los @ weights) ** 2, powers, [0, 0], 0.0)[2].tolist()
        else:
            split_on = [z_strong, z_weak]
        gamma1 = float(opa(*split_on, self.CONFIG.p_min, self.CONFIG.epsilon)[0])
        band = self.CONFIG.bandwidth_hz
        assert (shared, deactivated) == (1, int(gamma1 == 0.0))
        assert bands.tolist() == [band] * len(zeta)
        assert sinr.tolist() == pytest.approx(
            [*sinr_noma(z_strong, z_weak, gamma1), *zeta[2:]], rel=1e-12
        )

    @pytest.mark.parametrize("others", [[], [Direction(math.acos(1.0 / 8.0), 0.0)]])
    def test_beam_with_no_leakage_splits_on_the_fed_back_ratios(self, others):
        # Both users of the pair toward one direction, on a beam that no other
        # beam leaks into: the drop's only beam, or one whose other beam
        # points at its array pattern's null.  Directions then give no ratio,
        # and partial CSI splits on each user's fed-back ratio, its path's
        # power gain times the beam's LOS power over the noise,
        # eta * p_c * M^2 / noise = 2 * P * M / (K * noise), as full CSI does.
        same = Direction(math.pi / 2, 0.0)
        assert all(pair_beta(self.CONFIG, same, d) < 1e-12 for d in others)
        amplitudes = (1e-5, 3e-5)
        paths = drop_paths([[(a, same)] for a in amplitudes] + [[(1e-5, d)] for d in others])
        _, (sinr, _, shared, deactivated) = self.outcome(SchemeId.NOMA_DBS_PCSI, paths)
        _, (full_csi, *_) = self.outcome(SchemeId.NOMA_DBS_FCSI, paths)
        k_users = 2 + len(others)
        z = 2.0 * self.CONFIG.total_power_w * self.CONFIG.num_elements / (k_users * self.CONFIG.noise_w)
        z_weak, z_strong = (a * a * z for a in amplitudes)
        gamma1 = float(opa(z_strong, z_weak, self.CONFIG.p_min, self.CONFIG.epsilon)[0])
        assert 0.0 < gamma1 < 0.5
        assert (shared, deactivated) == (1, 0)
        assert sinr.tolist() == full_csi.tolist()
        assert sinr[:2].tolist() == pytest.approx(
            [z_strong * gamma1, z_weak * (1.0 - gamma1) / (1.0 + z_weak * gamma1)], rel=1e-9
        )


class TestUnitGainPaths:
    """When every user has one path of gain 1, its LOS row is its channel row."""

    @pytest.mark.parametrize("beta0", [0.05, 0.5])
    @pytest.mark.parametrize("k_users", range(2, 8))
    def test_partial_csi_gives_full_csi_sum_rate(self, rng, k_users, beta0):
        # Partial CSI then estimates the full ratios but for the noise, which
        # an interfering beam's leakage dwarfs, and a lone beam's estimate is
        # the full ratio.  Each user but the first of a drop sits next to an
        # earlier user with probability 1/2, so that most drops pair.
        config = ScenarioConfig(m_h=16, m_v=2, beta0=beta0, user_counts=(k_users,))
        n_drops = 8
        theta = rng.uniform(0.4, 2.7, size=(n_drops, k_users))
        phi = rng.uniform(-0.4, 0.0, size=(n_drops, k_users))
        for t, u in itertools.product(range(n_drops), range(1, k_users)):
            if rng.random() < 0.5:
                source = rng.integers(u)
                theta[t, u] = theta[t, source] + rng.choice([0.0, 1e-3, 0.02])
                phi[t, u] = phi[t, source]
        paths = drop_paths([[(1.0, Direction(*d))] for d in zip(theta.ravel().tolist(), phi.ravel().tolist())])
        columns = scores(config, paths, k_users)
        full, partial = columns[SchemeId.NOMA_DBS_FCSI], columns[SchemeId.NOMA_DBS_PCSI]
        assert full.noma_clusters.any()
        assert partial.sum_rate_bps.tolist() == pytest.approx(full.sum_rate_bps.tolist(), rel=1e-12)
        assert partial.deactivated_users.tolist() == full.deactivated_users.tolist()


class TestDirectionEstimate:
    """The shared plan's ratios and partial CSI's estimates, against the
    phasor-sum betas of each user and each beam of its drop, on hand-built
    drops paired by the test."""

    ARRAYS = {"16x2": (16, 2, 0.5), "8x1": (8, 1, 0.5), "4x2 at 1.5 wavelengths": (4, 2, 1.5)}

    @pytest.mark.parametrize("rule", ["proportional", "uniform"])
    @pytest.mark.parametrize("array", sorted(ARRAYS))
    @pytest.mark.parametrize("k_users", range(2, 8))
    def test_each_paired_user_splits_on_its_beams_betas(self, rng, k_users, array, rule):
        # Beam c weighs its gains by eta p_c = P_c / M, for its emitted power
        # P_c: K_c P / K under the proportional rule, P / C under the uniform
        # one.  A user of path gain g gets eta p_c |g|^2 M^2 beta_c^2 through
        # beam c.  Its full-CSI ratio is its own beam's over the other beams'
        # plus the noise; a paired user's estimate is p_own beta_own^2 over the
        # other beams' p_c beta_c^2, and on a lone beam, which nothing leaks
        # into, it is the full-CSI ratio.
        m_h, m_v, spacing = self.ARRAYS[array]
        config = ScenarioConfig(m_h=m_h, m_v=m_v, d_over_lambda=spacing, user_counts=(k_users,), inter_cluster_rule=rule)
        m = config.num_elements
        # A drop with no pair, then one with each pair count from 1 to K // 2;
        # a pair's second user sits next to its first.
        pairings = [np.empty((0, 2), int)]
        pairings += [rng.permutation(k_users)[: 2 * n].reshape(n, 2) for n in range(1, k_users // 2 + 1)]
        theta = rng.uniform(0.3, 2.8, size=(len(pairings), k_users))
        phi = rng.uniform(-0.5, 0.0, size=(len(pairings), k_users))
        for t, pairs in enumerate(pairings):
            theta[t, pairs[:, 1]] = theta[t, pairs[:, 0]] + rng.uniform(0.01, 0.05, size=len(pairs))
        dirs = [[Direction(*d) for d in zip(*drop)] for drop in zip(theta.tolist(), phi.tolist())]
        amplitudes = rng.uniform(1e-6, 1e-5, size=theta.shape)
        paths = drop_paths([[(a, d)] for a, d in zip(amplitudes.ravel().tolist(), itertools.chain(*dirs))])
        n_pairs = np.array([len(pairs) for pairs in pairings])
        pairing = (np.repeat(np.arange(len(pairings)), n_pairs), np.concatenate(pairings))
        _, dbs, shared, estimated = sim_harness._steered_links(config, paths, theta, phi, pairing, n_pairs)
        assert np.array_equal(shared[0], dbs[0]) and np.array_equal(estimated[0], dbs[0])
        for t, pairs in enumerate(pairings[1:], start=1):
            singles = [u for u in range(k_users) if u not in pairs]
            beams = [Direction(*np.mean([dirs[t][k], dirs[t][u]], axis=0)) for k, u in pairs]
            beams += [dirs[t][u] for u in singles]
            sizes = [2] * len(pairs) + [1] * len(singles)
            if rule == "proportional":
                powers = [n * config.total_power_w / (k_users * m) for n in sizes]
            else:
                powers = [config.total_power_w / (len(beams) * m)] * len(beams)
            betas = {u: [beta_phasor_sum(config, dirs[t][u], b) for b in beams] for u in range(k_users)}
            # Beam order: each pair's strong user, the one with the larger
            # received power through the pair's beam, then its weak one; then
            # the unpaired users in user order, each on its own beam.
            placed = []
            for j, pair in enumerate(pairs.tolist()):
                strong, weak = sorted(pair, key=lambda u: -((amplitudes[t, u] * betas[u][j]) ** 2))
                placed += [(strong, j), (weak, j)]
            placed += [(u, len(pairs) + i) for i, u in enumerate(singles)]
            for row, (u, own) in enumerate(placed):
                received = [p * (amplitudes[t, u] * m * b) ** 2 for p, b in zip(powers, betas[u])]
                leak = sum(r for c, r in enumerate(received) if c != own)
                assert shared[t, row] == pytest.approx(received[own] / (leak + config.noise_w), rel=1e-9)
                if row >= 2 * len(pairs) or len(beams) == 1:
                    assert estimated[t, row] == shared[t, row]
                else:
                    leak = sum(p * b * b for c, (p, b) in enumerate(zip(powers, betas[u])) if c != own)
                    assert estimated[t, row] == pytest.approx(powers[own] * betas[u][own] ** 2 / leak, rel=1e-9)


class TestInvariances:
    def test_carrier_times_four_with_the_noise_as_much_lower_keeps_every_rate(self):
        # Every path amplitude is the wavelength over 4 pi times the range, so
        # a carrier 4 times higher takes every received power down by 16, and
        # the noise 20 log10(4) dB lower takes the noise down by as much: every
        # SINR keeps its value.  beta0 = 0.05 pairs both users of many K = 2
        # drops onto the drop's only beam.
        config = ScenarioConfig(user_counts=(2, 5), trials=100, beta0=0.05)
        scaled = replace(
            config, carrier_hz=4.0 * config.carrier_hz, noise_power_dbm=config.noise_power_dbm - 20.0 * math.log10(4.0)
        )
        expected, results = run_sweep(config), run_sweep(scaled)
        assert list(results) == list(expected)
        assert expected[SchemeId.NOMA_DBS_PCSI, 2].noma_clusters.any()
        for key, columns in results.items():
            assert columns.sum_rate_bps.tolist() == pytest.approx(expected[key].sum_rate_bps.tolist(), rel=1e-9), key
            assert np.array_equal(columns.noma_clusters, expected[key].noma_clusters)
            assert np.array_equal(columns.deactivated_users, expected[key].deactivated_users)

    # Relative tolerance of the rates under each relation.  Raising both powers
    # by the same x dB rounds each watt value on its own, and nu = sums - psi +
    # noise loses about zeta ulps of that where the own beam dominates: over
    # 750 examples of this property's space the gap reached 3.5e-13.
    TOLERANCE = {"carrier": 1e-9, "power": 1e-12, "bandwidth": 1e-9, "mirror": 1e-9}

    @pytest.mark.parametrize("epsilon", [0.05, 0.0])
    @pytest.mark.parametrize("relation", sorted(TOLERANCE))
    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from([(32, 2), (8, 1), (4, 2)]),
        st.integers(1, 7),
        st.integers(1, 5),
        st.integers(0, 2**32),
        st.sampled_from([0.05, 0.5]),
        st.sampled_from(["proportional", "uniform"]),
        st.floats(0.1, 10.0),
    )
    def test_physical_relations_keep_every_scheme(self, relation, epsilon, array, k_users, trials, seed, beta0, rule, c):
        # Two sweeps of the same drops, every scheme, one related to the other:
        # - carrier times c: every path amplitude is the wavelength over 4 pi
        #   times the range, so the noise 20 log10(c) dB lower keeps every SINR;
        # - total and noise power both x = 20 log10(c) dB higher: every SINR
        #   is a ratio of powers;
        # - bandwidth times c: every rate scales by c, the spectral efficiency
        #   does not;
        # - the mirror, theta to pi - theta, phi to -phi and every gain
        #   conjugated: every steering vector and channel row is conjugated,
        #   and every power gain and pair with it.
        # epsilon = 0 takes opa's fair branch away, and with it the edge where
        # a rate gap sits within rounding of epsilon.
        m_h, m_v = array
        config = ScenarioConfig(m_h=m_h, m_v=m_v, user_counts=(k_users,), trials=trials, master_seed=seed)
        config = replace(config, beta0=beta0, epsilon=epsilon, inter_cluster_rule=rule)
        db = 20.0 * math.log10(c)
        related = {
            "carrier": replace(config, carrier_hz=c * config.carrier_hz, noise_power_dbm=config.noise_power_dbm - db),
            "power": replace(
                config, total_power_dbm=config.total_power_dbm + db, noise_power_dbm=config.noise_power_dbm + db
            ),
            "bandwidth": replace(config, bandwidth_hz=c * config.bandwidth_hz),
            "mirror": config,
        }[relation]

        def sweep(config, mirror=False):
            paths = _drop_users(config, k_users, range(trials))
            return scores(config, mirrored(paths) if mirror else paths, k_users)

        expected, results = sweep(config), sweep(related, mirror=relation == "mirror")
        scale, rel = (c if relation == "bandwidth" else 1.0), self.TOLERANCE[relation]
        for scheme, columns in results.items():
            want = expected[scheme]
            assert columns.sum_rate_bps.tolist() == pytest.approx((scale * want.sum_rate_bps).tolist(), rel=rel), scheme
            assert columns.spectral_eff.tolist() == pytest.approx(want.spectral_eff.tolist(), rel=rel), scheme
            assert np.array_equal(columns.noma_clusters, want.noma_clusters), scheme
            assert np.array_equal(columns.deactivated_users, want.deactivated_users), scheme


@functools.cache
def full_sweep(name):
    """Every scheme's columns over the first two trials of an equivalence config."""
    return run_sweep(replace(EQUIVALENCE_CONFIGS[name], trials=2))


def same_columns(a, b):
    """Whether two Columns hold the same entries, bit for bit, column by column."""
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


class TestRunSweep:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(EQUIVALENCE_CONFIGS)), st.permutations(list(SchemeId)), st.integers(1, len(SchemeId)))
    def test_rows_do_not_depend_on_the_other_schemes(self, name, order, size):
        # any nonempty ordered subset of the schemes gives the full sweep's
        # columns for those schemes
        schemes = tuple(order[:size])
        results = run_sweep(replace(EQUIVALENCE_CONFIGS[name], trials=2, schemes=schemes))
        full = full_sweep(name)
        assert list(results) == [key for key in full if key[0] in schemes]
        assert all(same_columns(columns, full[key]) for key, columns in results.items())

    def test_single_combination_gives_one_row(self):
        config = replace(SMALL, user_counts=(3,), schemes=(SchemeId.DBS,), trials=1)
        results = run_sweep(config)
        assert list(results) == [(SchemeId.DBS, 3)]
        assert [len(column) for column in results[SchemeId.DBS, 3]] == [1] * 5
        (line,) = format_aggregates(results).splitlines()[1:]
        scheme, k, trials, mean_se, stderr_se, mean_ee = line.split()
        assert trials == "1"
        assert stderr_se == "0.0000"

    def test_cardinality(self):
        config = replace(
            SMALL, user_counts=(3, 5), schemes=(SchemeId.DBS, SchemeId.CONJUGATE_BF), trials=4
        )
        results = run_sweep(config)
        assert len(results) == 2 * 2
        assert [len(column) for columns in results.values() for column in columns] == [4] * (2 * 2 * 5)

    def test_rows_are_sorted(self):
        config = replace(
            SMALL, user_counts=(5, 3), schemes=(SchemeId.OMA_DBS, SchemeId.DBS), trials=2
        )
        results = run_sweep(config)
        keys = [(scheme.value, k) for scheme, k in results]
        assert keys == sorted(keys)

    def test_aggregates_recompute_from_the_rows(self):
        schemes = (SchemeId.OMA_DBS, SchemeId.CONJUGATE_BF, SchemeId.DBS)
        config = replace(SMALL, user_counts=(5, 1, 2), schemes=schemes, trials=3)
        results = run_sweep(config)
        tags = sorted(s.value for s in schemes)
        assert [(scheme.value, k) for scheme, k in results] == list(itertools.product(tags, (1, 2, 5)))
        assert all(len(column) == 3 for columns in results.values() for column in columns)
        expected = []
        for scheme in sorted(schemes, key=lambda s: s.value):
            for k in (1, 2, 5):
                group = results[scheme, k]
                ses = group.spectral_eff.tolist()
                mean_se = statistics.fmean(ses)
                stderr_se = statistics.stdev(ses) / math.sqrt(len(ses))
                mean_ee = statistics.fmean(group.energy_eff.tolist())
                expected.append(
                    f"{scheme.value:<16} {k:>4} {len(ses):>7} {mean_se:>18.4f} {stderr_se:>12.4f} {mean_ee:>16.4g}"
                )
        assert format_aggregates(results).splitlines()[1:] == expected

    def test_positive_spectral_efficiency(self):
        results = run_sweep(replace(SMALL, trials=2))
        assert all(se > 0 for columns in results.values() for se in columns.spectral_eff.tolist())

    def test_pairing_reduces_difference_variance(self):
        config = replace(
            SMALL,
            user_counts=(12,),
            schemes=(SchemeId.DBS, SchemeId.NOMA_DBS_FCSI),
            trials=60,
            master_seed=5,
        )

        def spectral_effs(results, scheme):
            """The scheme's 60 trials at K = 12, in trial order."""
            return results[scheme, 12].spectral_eff.tolist()

        paired = run_sweep(config)
        unpaired = run_sweep(replace(config, master_seed=77, schemes=(SchemeId.DBS,)))
        noma = spectral_effs(paired, SchemeId.NOMA_DBS_FCSI)
        dbs = spectral_effs(paired, SchemeId.DBS)
        dbs_unpaired = spectral_effs(unpaired, SchemeId.DBS)
        paired_var = statistics.variance([n - d for n, d in zip(noma, dbs)])
        unpaired_var = statistics.variance([n - d for n, d in zip(noma, dbs_unpaired)])
        assert paired_var < unpaired_var


# The edges of a scenario: K in {1, 2, M-1}, one array row, spacing above half
# a wavelength, beta0 near 0 and 1, no spread or shadowing, single-path
# channels, cell radii from 1e-3 to 1e5 m, seeds of up to 200 bits.  A
# 64-element array at K = 63 evaluates two trials a block, and up to six
# trials mix paired and unpaired drops in one block.
edge_configs = st.builds(
    dict,
    m_h=st.sampled_from([2, 4, 8, 32]),
    m_v=st.sampled_from([1, 2]),
    d_over_lambda=st.sampled_from([0.5, 0.6, 0.9, 1.5]),
    beta0=st.sampled_from([1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6]),
    zero_spread=st.booleans(),
    single_path=st.booleans(),
    cell_radius_m=st.sampled_from([1e-3, 1.0, 100.0, 1e5]),
    trials=st.integers(1, 6),
    master_seed=magnitudes(0, 200),
)


class TestTrialBlocks:
    @settings(max_examples=40)
    @given(edge_configs)
    def test_rows_match_each_trial_alone(self, edges):
        zero_spread, single_path = edges.pop("zero_spread"), edges.pop("single_path")
        m = edges["m_h"] * edges["m_v"]
        config = ScenarioConfig(
            **edges,
            user_counts=tuple(sorted({1, min(2, m - 1), m - 1})),
            angle_spread_deg=0.0 if zero_spread else 15.0,
            shadowing_sigma_db=0.0 if zero_spread else 4.0,
            num_time_clusters=(1, 1) if single_path else (1, 2),
            paths_per_cluster=(1, 1) if single_path else (1, 2),
        )
        results = run_sweep(config)
        assert len(results) == len(config.schemes) * len(config.user_counts)
        assert all(len(column) == config.trials for columns in results.values() for column in columns)
        alone = {(k, t): trial_scores(config, k, t) for k in config.user_counts for t in range(config.trials)}
        for k in config.user_counts:
            # each drop is the one drawn from numpy's own seed sequence of (master_seed, K, t)
            own = [np.random.SeedSequence(config.master_seed, spawn_key=(k, t)) for t in range(config.trials)]
            expected = draw_paths(map(np.random.default_rng, own), config, k)
            drawn = _drop_users(config, k, range(config.trials))
            assert all(np.array_equal(a, b) for a, b in zip(astuple(drawn), astuple(expected), strict=True))
        for (scheme, k), columns in results.items():
            for t in range(config.trials):
                assert same_columns([column[t : t + 1] for column in columns], alone[k, t][scheme])
            assert np.isfinite(columns.sum_rate_bps).all() and (columns.sum_rate_bps >= 0).all()
            assert np.isfinite(columns.energy_eff).all() and (columns.energy_eff >= 0).all()

    @pytest.mark.parametrize("rule", ["proportional", "uniform"])
    @pytest.mark.parametrize("beta0", [0.5, 0.05])
    @pytest.mark.parametrize("block_bytes", [1, 2**30])
    def test_block_size_does_not_change_the_csv(self, tmp_path, monkeypatch, beta0, block_bytes, rule):
        # one drop per block, and one block per user count, give the columns,
        # bit for bit, and the CSV bytes of the default blocks, on drops that
        # pair (K = 2 to 55, beta0 0.5 and 0.05), under either inter-beam split
        config = ScenarioConfig(user_counts=(2, 15, 55), trials=12, beta0=beta0, inter_cluster_rule=rule)
        default, changed = tmp_path / "default.csv", tmp_path / "changed.csv"
        expected = run_sweep(config)
        write_csv(expected, str(default))
        monkeypatch.setattr(sim_harness, "_BLOCK_BYTES", block_bytes)
        results = run_sweep(config)
        write_csv(results, str(changed))
        assert changed.read_bytes() == default.read_bytes()
        assert list(results) == list(expected)
        assert all(same_columns(columns, expected[key]) for key, columns in results.items())

    def test_steering_and_link_state_calls_do_not_grow_with_the_paired_drops(self, monkeypatch):
        # A block steers, probes and weighs its paired drops together: a block
        # of 30 drops, each with a shared beam, makes the calls that 3 such
        # drops make.
        calls = {}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return call

        for name in ("steering_matrix", "pattern", "link_states"):
            monkeypatch.setattr(sim_harness, name, counted(name, getattr(sim_harness, name)))
        config = ScenarioConfig(user_counts=(15,), beta0=0.05)
        per_block = []
        for n_drops in (3, 30):
            calls.clear()
            outcomes = _block_outcomes(config, _drop_users(config, 15, range(n_drops)), 15)
            assert (outcomes[SchemeId.NOMA_DBS_FCSI][2] > 0).all()
            per_block.append(dict(calls))
        assert per_block[0] == per_block[1]

    def test_a_block_holds_at_most_two_generators(self, monkeypatch):
        # Generators take no weak references; a subclass on the same bit
        # generator draws the same numbers and does.
        class Tracked(np.random.Generator):
            pass

        refs, most = [], 0

        def tracked_generator(state):
            nonlocal most
            rng = Tracked(trial_generator(state).bit_generator)
            refs.append(weakref.ref(rng))
            most = max(most, sum(ref() is not None for ref in refs))
            return rng

        trial_generator = sim_harness._trial_generator
        config = ScenarioConfig()
        expected = _drop_users(config, 1, range(200))
        monkeypatch.setattr(sim_harness, "_trial_generator", tracked_generator)
        paths = _drop_users(config, 1, range(200))
        assert all(np.array_equal(a, b) for a, b in zip(astuple(paths), astuple(expected), strict=True))
        assert len(refs) == 200 and most <= 2


# A block's trials: consecutive indices as a sweep runs them, or any indices
# below 2**32, 1 to 600 of them.
trial_indices = magnitudes(0, 32).map(lambda t: min(t, 2**32 - 1))
trial_blocks = st.one_of(
    st.builds(lambda first, n: range(first, min(first + n, 2**32)), trial_indices, st.integers(1, 600)),
    st.lists(trial_indices, min_size=1, max_size=600),
)


class TestTrialStates:
    @settings(max_examples=100, deadline=None)
    @given(magnitudes(0, 200), magnitudes(1, 40), trial_blocks)
    # a seed of 5 words, a K of 2, the first and last trial index
    @example(2**128, 2**32, [0, 2**32 - 1])
    def test_states_and_generators_are_numpys(self, seed, k_users, trials):
        states = _trial_states(seed, k_users, trials)
        assert states.dtype == np.uint64 and states.shape == (len(trials), 4)
        for t, state in zip(trials, states):
            sequence = np.random.SeedSequence(entropy=seed, spawn_key=(k_users, t))
            assert state.tolist() == sequence.generate_state(4, np.uint64).tolist()
            expected = np.random.default_rng(sequence).bit_generator.state
            assert _trial_generator(state).bit_generator.state == expected


class TestResults:
    def test_row_sums_left_to_right(self):
        # SINR = 1 makes each rate its band exactly: ((1 + 1e16) + 1) + 1 rounds
        # to 1e16 at every step, where a compensated sum gives 1e16 + 4
        bands = np.array([[1.0, 1e16, 1.0, 1.0]])
        outcome = (np.ones((1, 4)), bands, np.zeros(1, dtype=int), np.zeros(1, dtype=int))
        (sum_rate,) = _columns(SMALL, outcome).sum_rate_bps
        assert sum_rate == 1e16


# Finite floats whose sample standard deviation is finite: any binade from
# the subnormals up to 1e300, signed zeros included.
stdev_floats = st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
stdev_samples = st.one_of(
    st.lists(stdev_floats, min_size=2, max_size=600),
    # repeats: a few distinct values, each drawn many times
    st.lists(stdev_floats, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=600)
    ),
    st.builds(lambda x, n: [x] * n, stdev_floats, st.integers(2, 600)),
    # one table cell: positive spectral efficiencies in one binade or two
    st.lists(st.floats(1.0, 64.0), min_size=2, max_size=600),
)


class TestStdev:
    @settings(max_examples=300, deadline=None)
    @given(stdev_samples)
    def test_bits_equal_statistics_stdev(self, values):
        # statistics.stdev is correctly rounded (Python 3.11 on), so any
        # correctly rounded sample deviation has its bits
        assert _stdev(values).hex() == statistics.stdev(values).hex()


class TestCsv:
    def test_header_and_determinism(self, tmp_path):
        config = replace(SMALL, trials=2)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        results_a = run_sweep(config)
        results_b = run_sweep(config)
        write_csv(results_a, str(out_a))
        write_csv(results_b, str(out_b))
        content = out_a.read_bytes()
        assert content == out_b.read_bytes()
        first_line = content.decode().splitlines()[0]
        assert first_line == SWEEP_HEADER

    def test_row_fields(self, tmp_path):
        config = replace(SMALL, user_counts=(2,), schemes=(SchemeId.DBS,), trials=1)
        results = run_sweep(config)
        out = tmp_path / "one.csv"
        write_csv(results, str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "dbs"
        assert fields[1] == "2" and fields[2] == "0"
        assert float(fields[4]) == pytest.approx(results[SchemeId.DBS, 2].spectral_eff[0], rel=1e-8)

    @given(st.data())
    def test_bytes_match_per_value_formatting(self, tmp_path_factory, data):
        # hand-built columns: any float, signed zeros, subnormals and the
        # largest finite values, any 64-bit count
        floats = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e300, -1.7976931348623157e308])
        counts = st.integers(-(2**63), 2**63 - 1)
        keys = st.tuples(st.sampled_from(list(SchemeId)), st.integers(1, 999))
        columns = {}
        for key in data.draw(st.lists(keys, max_size=4, unique=True)):
            n_trials = data.draw(st.integers(0, 5))

            def column(elements, dtype):
                return np.array(data.draw(st.lists(elements, min_size=n_trials, max_size=n_trials)), dtype=dtype)

            columns[key] = Columns(
                sum_rate_bps=column(floats, float),
                spectral_eff=column(floats, float),
                energy_eff=column(floats, float),
                noma_clusters=column(counts, np.int64),
                deactivated_users=column(counts, np.int64),
            )
        out = tmp_path_factory.mktemp("sweep") / "columns.csv"
        write_csv(columns, str(out))
        assert out.read_bytes() == sweep_csv(columns).encode()

    def test_aggregate_table_renders(self):
        table = format_aggregates(run_sweep(replace(SMALL, trials=2)))
        assert "scheme" in table and "dbs" in table
