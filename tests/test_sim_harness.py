import functools
import itertools
import math
import statistics
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from nomabeam.array_geometry import Direction, steering_matrix
from nomabeam.baselines import SchemeId
from nomabeam.clustering import beta_uc
from nomabeam.link_metrics import link_states, sinr_noma_strong, sinr_noma_weak
from nomabeam.power_allocation import opa, partial_csi_zeta
from nomabeam.sim_harness import (
    CSV_HEADER,
    AggregateRow,
    ConfigError,
    ScenarioConfig,
    _block_outcomes,
    _drop_users,
    _results,
    evaluate_trial,
    format_aggregates,
    load_scenario,
    parse_config_text,
    run_sweep,
    write_csv,
)

from drops import channel_matrix, drop_paths, plan_toward
from oracles import sinr_dbs_monopath_closed

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
            parse_config_text("m_h = 32\nbogus_key = 1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("just some words\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("m_h = many\n")

    def test_interval_single_value_form(self):
        values = parse_config_text("num_time_clusters = 2\n")
        assert values["num_time_clusters"] == (2, 2)

    def test_interval_with_three_values_rejected(self):
        with pytest.raises(ConfigError, match="expected 'lo,hi' or a single value"):
            parse_config_text("paths_per_cluster = 1,2,3\n")

    def test_scheme_alias_follows_csi_mode(self):
        full = parse_config_text("schemes = noma_dbs\ncsi_mode = full\n")
        partial = parse_config_text("schemes = noma_dbs\ncsi_mode = partial\n")
        assert full["schemes"] == (SchemeId.NOMA_DBS_FCSI,)
        assert partial["schemes"] == (SchemeId.NOMA_DBS_PCSI,)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            parse_config_text("schemes = dbs,magic\n")

    def test_override_unknown_key(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("m_h = 8\n")
        with pytest.raises(ConfigError, match="unknown override"):
            load_scenario(str(path), not_a_field=3)

    def test_csi_mode_is_no_override(self, tmp_path):
        # csi_mode only resolves the 'noma_dbs' tag of the file's schemes line
        path = tmp_path / "s.cfg"
        path.write_text("m_h = 8\nschemes = noma_dbs\n")
        with pytest.raises(ConfigError, match="unknown override"):
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
            ScenarioConfig(**parse_config_text(text))

    def test_shipped_config_is_the_default(self):
        shipped = Path(__file__).resolve().parent.parent / "configs" / "rural_default.cfg"
        assert load_scenario(str(shipped)) == ScenarioConfig()


class TestConfigValidation:
    def test_user_count_must_stay_below_element_count(self):
        with pytest.raises(ConfigError, match="1 <= K < M"):
            ScenarioConfig(m_h=4, m_v=2, user_counts=(8,))

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(trials=0)

    def test_rule_and_csi_mode_validated(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(inter_cluster_rule="sideways")
        with pytest.raises(ConfigError):
            parse_config_text("csi_mode = none\n")

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
            ("carrier_hz", 1e-300),
            ("noise_power_dbm", -4000.0),
            ("total_power_dbm", 4000.0),
        ],
    )
    def test_link_and_channel_values_validated_at_construction(self, field, value):
        with pytest.raises(ConfigError):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("carrier_hz", 1e6),
            ("carrier_hz", 1e12),
            ("nlos_gain_offset_db", (-30.0, -30.0)),
            ("cell_radius_m", 1e-3),
            ("cell_radius_m", 1e5),
            ("bandwidth_hz", 1e12),
            ("total_power_dbm", -200.0),
            ("total_power_dbm", 200.0),
            ("noise_power_dbm", -200.0),
            ("noise_power_dbm", 200.0),
            ("d_over_lambda", 10.0),
        ],
    )
    def test_bounds_give_finite_rates(self, field, value):
        config = replace(SMALL, paths_per_cluster=(2, 2), **{field: value})
        for k in (1, 2, 5):
            for result in evaluate_trial(config, k, 0).values():
                assert math.isfinite(result.sum_rate_bps) and result.sum_rate_bps >= 0

    def test_power_conversion(self):
        config = ScenarioConfig(total_power_dbm=33.0)
        assert config.total_power_w == pytest.approx(1.9953, rel=1e-4)


class TestRunTrial:
    def test_single_user_is_noise_limited(self):
        config = replace(SMALL, user_counts=(1,))
        result = evaluate_trial(config, 1, 0)[SchemeId.DBS]
        assert result.noma_cluster_count == 0
        assert result.sum_rate_bps > 0
        assert result.spectral_eff_bps_per_hz == pytest.approx(
            result.sum_rate_bps / config.bandwidth_hz, rel=1e-12
        )

    def test_deterministic_per_key(self):
        a = evaluate_trial(SMALL, 4, 2)[SchemeId.NOMA_DBS_FCSI]
        b = evaluate_trial(SMALL, 4, 2)[SchemeId.NOMA_DBS_FCSI]
        assert a == b

    def test_schemes_share_the_same_drop(self):
        # K=1 leaves nothing to pair, so the shared-beam scheme reduces to
        # plain steering on the identical channel draw
        config = replace(SMALL, user_counts=(1,))
        results = evaluate_trial(config, 1, 5)
        dbs, noma = results[SchemeId.DBS], results[SchemeId.NOMA_DBS_FCSI]
        assert dbs.sum_rate_bps == pytest.approx(noma.sum_rate_bps, rel=1e-12)

    def test_monopath_dbs_matches_closed_form(self):
        config = replace(
            SMALL,
            num_time_clusters=(1, 1),
            paths_per_cluster=(1, 1),
            user_counts=(6,),
        )
        k = 6
        result = evaluate_trial(config, k, 1)[SchemeId.DBS]
        paths, (dirs,) = _drop_users(config, k, [1])
        gains = paths.gains[paths.starts].tolist()
        eta_dbs = config.total_power_w / (config.array_config.num_elements * k)
        closed_sum = sum(
            config.bandwidth_hz
            * math.log2(
                1.0
                + sinr_dbs_monopath_closed(
                    gains, dirs, own, eta_dbs, config.noise_w, config.array_config
                )
            )
            for own in range(k)
        )
        assert result.sum_rate_bps == pytest.approx(closed_sum, rel=1e-9)

    def test_partial_csi_scheme_runs(self):
        result = evaluate_trial(SMALL, 4, 0)[SchemeId.NOMA_DBS_PCSI]
        assert result.sum_rate_bps > 0

    def test_oma_scheme_runs(self):
        result = evaluate_trial(SMALL, 4, 0)[SchemeId.OMA_DBS]
        assert result.sum_rate_bps > 0

    @pytest.mark.parametrize("k", [0, 8, 9])
    def test_user_count_outside_the_array_rejected(self, k):
        config = replace(SMALL, m_h=4, m_v=2)
        with pytest.raises(ConfigError, match=f"user counts must satisfy 1 <= K < M=8, got {k}"):
            evaluate_trial(config, k, 0)

    def test_negative_trial_rejected(self):
        with pytest.raises(ConfigError, match="trial index must be nonnegative, got -1"):
            evaluate_trial(SMALL, 4, -1)


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


class TestEvaluateTrial:
    def test_lone_shared_beam_is_reached(self):
        config = EQUIVALENCE_CONFIGS["lone-shared-beam"]
        paired = [
            t
            for t in range(2)
            if evaluate_trial(config, 2, t)[SchemeId.NOMA_DBS_PCSI].noma_cluster_count == 1
        ]
        assert paired

    def test_four_paths_per_user(self):
        paths, _ = _drop_users(EQUIVALENCE_CONFIGS["four-paths"], 5, [0])
        assert paths.starts.tolist() == [0, 4, 8, 12, 16]
        assert len(paths.gains) == 20


class TestSharedBeams:
    """One hand-built drop: users 0 and 1 nearly collinear, user 2 far away."""

    CONFIG = ScenarioConfig(m_h=16, m_v=2, user_counts=(3,))
    DIRS = [Direction(1.2, -0.1), Direction(1.205, -0.1), Direction(0.4, -0.2)]

    def drop(self, amplitudes):
        return drop_paths([[(a, d)] for a, d in zip(amplitudes, self.DIRS)])

    def outcome(self, scheme, paths):
        """The drop's channel rows and the scheme's outcome on the pairing, in a block of one drop.

        The outcome is the drop's SINRs in beam order, each user's band, and
        its shared-beam and deactivated counts.
        """
        sinr, band, shared, deactivated = _block_outcomes(self.CONFIG, paths, [self.pairs()])[scheme]
        assert sinr.shape == band.shape == (1, 3) and shared.shape == deactivated.shape == (1,)
        return channel_matrix(self.CONFIG.array_config, paths), (sinr[0], band[0], shared[0], deactivated[0])

    def pairs(self):
        pairs = beta_uc(self.DIRS, self.CONFIG.array_config, self.CONFIG.beta0)
        assert pairs.tolist() == [[0, 1]]
        return pairs

    def expected_zeta(self, h_rows):
        """Link ratios against a shared beam at the pair's mean direction and a private one."""
        d0, d1, d2 = self.DIRS
        plan = plan_toward(
            self.CONFIG.array_config,
            [(d0.theta + d1.theta) / 2, d2.theta],
            [(d0.phi + d1.phi) / 2, d2.phi],
            [2, 1],
            self.CONFIG.total_power_w,
        )
        return plan, link_states(h_rows, plan, [0, 0, 1], self.CONFIG.noise_w)[2].tolist()

    @pytest.mark.parametrize("amplitudes, strong, weak", [((1e-5, 3e-5, 2e-5), 1, 0), ((3e-5, 1e-5, 2e-5), 0, 1)])
    def test_stronger_user_comes_first_and_oma_halves_the_band(self, amplitudes, strong, weak):
        h_rows, (sinr, bands, shared, deactivated) = self.outcome(SchemeId.OMA_DBS, self.drop(amplitudes))
        _, zeta = self.expected_zeta(h_rows)
        band = self.CONFIG.bandwidth_hz
        assert (shared, deactivated) == (1, 0)
        assert sinr.tolist() == [zeta[strong], zeta[weak], zeta[2]]
        assert bands.tolist() == [band / 2, band / 2, band]

    @pytest.mark.parametrize("scheme", [SchemeId.NOMA_DBS_FCSI, SchemeId.NOMA_DBS_PCSI])
    def test_shared_beam_rates_follow_the_split(self, scheme):
        paths = self.drop((1e-5, 3e-5, 2e-5))
        h_rows, (sinr, bands, shared, deactivated) = self.outcome(scheme, paths)
        plan, zeta = self.expected_zeta(h_rows)
        z_strong, z_weak = zeta[1], zeta[0]
        if scheme is SchemeId.NOMA_DBS_PCSI:
            los = np.conj(steering_matrix(self.CONFIG.array_config, paths.theta[[1, 0]], paths.phi[[1, 0]]))
            split_on = partial_csi_zeta(los, plan, [0, 0], self.CONFIG.noise_w).tolist()
        else:
            split_on = [z_strong, z_weak]
        gamma1 = float(opa(*split_on, self.CONFIG.p_min, self.CONFIG.epsilon)[0])
        band = self.CONFIG.bandwidth_hz
        assert (shared, deactivated) == (1, int(gamma1 == 0.0))
        assert bands.tolist() == [band] * 3
        assert sinr.tolist() == pytest.approx(
            [sinr_noma_strong(z_strong, gamma1), sinr_noma_weak(z_weak, gamma1), zeta[2]], rel=1e-12
        )


@functools.cache
def full_sweep(name):
    """Every scheme's rows and aggregates over the first two trials of an equivalence config."""
    return run_sweep(replace(EQUIVALENCE_CONFIGS[name], trials=2))


class TestRunSweep:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(EQUIVALENCE_CONFIGS)), st.permutations(list(SchemeId)), st.integers(1, len(SchemeId)))
    def test_rows_do_not_depend_on_the_other_schemes(self, name, order, size):
        # any nonempty ordered subset of the schemes gives the full sweep's
        # rows and aggregates for those schemes
        schemes = tuple(order[:size])
        results, aggregates = run_sweep(replace(EQUIVALENCE_CONFIGS[name], trials=2, schemes=schemes))
        all_results, all_aggregates = full_sweep(name)
        assert results == [r for r in all_results if r.scheme in schemes]
        assert aggregates == [a for a in all_aggregates if a.scheme in schemes]

    def test_single_combination_gives_one_row(self):
        config = replace(SMALL, user_counts=(3,), schemes=(SchemeId.DBS,), trials=1)
        results, aggregates = run_sweep(config)
        assert len(results) == 1
        assert len(aggregates) == 1
        assert aggregates[0].trials == 1

    def test_cardinality(self):
        config = replace(
            SMALL, user_counts=(3, 5), schemes=(SchemeId.DBS, SchemeId.CONJUGATE_BF), trials=4
        )
        results, aggregates = run_sweep(config)
        assert len(results) == 2 * 2 * 4
        assert len(aggregates) == 4

    def test_rows_are_sorted(self):
        config = replace(
            SMALL, user_counts=(5, 3), schemes=(SchemeId.OMA_DBS, SchemeId.DBS), trials=2
        )
        results, _ = run_sweep(config)
        keys = [(r.scheme.value, r.K, r.trial) for r in results]
        assert keys == sorted(keys)

    def test_aggregates_recompute_from_the_rows(self):
        schemes = (SchemeId.OMA_DBS, SchemeId.CONJUGATE_BF, SchemeId.DBS)
        config = replace(SMALL, user_counts=(5, 1, 2), schemes=schemes, trials=3)
        results, aggregates = run_sweep(config)
        tags = sorted(s.value for s in schemes)
        assert [(r.scheme.value, r.K, r.trial) for r in results] == list(
            itertools.product(tags, (1, 2, 5), range(3))
        )
        expected = []
        for scheme in sorted(schemes, key=lambda s: s.value):
            for k in (1, 2, 5):
                group = [r for r in results if r.scheme is scheme and r.K == k]
                ses = [r.spectral_eff_bps_per_hz for r in group]
                expected.append(
                    AggregateRow(
                        scheme=scheme,
                        K=k,
                        trials=len(group),
                        mean_spectral_eff=statistics.fmean(ses),
                        stderr_spectral_eff=statistics.stdev(ses) / math.sqrt(len(ses)),
                        mean_energy_eff=statistics.fmean(r.energy_eff_bps_per_j for r in group),
                    )
                )
        assert aggregates == expected

    def test_positive_spectral_efficiency(self):
        results, _ = run_sweep(replace(SMALL, trials=2))
        assert all(r.spectral_eff_bps_per_hz > 0 for r in results)

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
            return [r.spectral_eff_bps_per_hz for r in results if r.scheme is scheme]

        paired, _ = run_sweep(config)
        unpaired, _ = run_sweep(replace(config, master_seed=77, schemes=(SchemeId.DBS,)))
        noma = spectral_effs(paired, SchemeId.NOMA_DBS_FCSI)
        dbs = spectral_effs(paired, SchemeId.DBS)
        dbs_unpaired = spectral_effs(unpaired, SchemeId.DBS)
        paired_var = statistics.variance([n - d for n, d in zip(noma, dbs)])
        unpaired_var = statistics.variance([n - d for n, d in zip(noma, dbs_unpaired)])
        assert paired_var < unpaired_var


# The edges of a scenario: K in {1, 2, M-1}, one array row, spacing above half
# a wavelength, beta0 near 0 and 1, no spread or shadowing, single-path
# channels, cell radii from 1e-3 to 1e5 m.  A 64-element array at K = 63
# evaluates two trials a block, and up to six trials mix paired and unpaired
# drops in one block.
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
    master_seed=st.integers(0, 2**32),
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
        results, _ = run_sweep(config)
        assert len(results) == len(config.schemes) * len(config.user_counts) * config.trials
        alone = {(k, t): evaluate_trial(config, k, t) for k in config.user_counts for t in range(config.trials)}
        for r in results:
            assert r == alone[r.K, r.trial][r.scheme]
            assert math.isfinite(r.sum_rate_bps) and r.sum_rate_bps >= 0
            assert math.isfinite(r.energy_eff_bps_per_j) and r.energy_eff_bps_per_j >= 0


class TestResults:
    def test_row_sums_left_to_right(self):
        # SINR = 1 makes each rate its band exactly: ((1 + 1e16) + 1) + 1 rounds
        # to 1e16 at every step, where a compensated sum gives 1e16 + 4
        bands = np.array([[1.0, 1e16, 1.0, 1.0]])
        outcome = (np.ones((1, 4)), bands, np.zeros(1, dtype=int), np.zeros(1, dtype=int))
        (result,) = _results(SMALL, 4, [0], SchemeId.DBS, outcome)
        assert result.sum_rate_bps == 1e16


class TestCsv:
    def test_header_and_determinism(self, tmp_path):
        config = replace(SMALL, trials=2)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        results_a, _ = run_sweep(config)
        results_b, _ = run_sweep(config)
        write_csv(results_a, str(out_a))
        write_csv(results_b, str(out_b))
        content = out_a.read_bytes()
        assert content == out_b.read_bytes()
        first_line = content.decode().splitlines()[0]
        assert first_line == CSV_HEADER

    def test_row_fields(self, tmp_path):
        config = replace(SMALL, user_counts=(2,), schemes=(SchemeId.DBS,), trials=1)
        results, _ = run_sweep(config)
        out = tmp_path / "one.csv"
        write_csv(results, str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "dbs"
        assert fields[1] == "2" and fields[2] == "0"
        assert float(fields[4]) == pytest.approx(results[0].spectral_eff_bps_per_hz, rel=1e-8)

    def test_aggregate_table_renders(self):
        _, aggregates = run_sweep(replace(SMALL, trials=2))
        table = format_aggregates(aggregates)
        assert "scheme" in table and "dbs" in table
