import itertools
import math
import statistics
from dataclasses import replace

import pytest

import numpy as np

from nomabeam.array_geometry import Direction, steering_matrix
from nomabeam.baselines import SchemeId
from nomabeam.beamforming import build_plan
from nomabeam.channel import channel_rows
from nomabeam.clustering import beta_uc
from nomabeam.link_metrics import link_states, rate, sinr_noma_strong, sinr_noma_weak
from nomabeam.power_allocation import opa, partial_csi_zeta
from nomabeam.sim_harness import (
    CSV_HEADER,
    ConfigError,
    ScenarioConfig,
    _drop_users,
    _shared_beam_outcomes,
    evaluate_trial,
    format_aggregates,
    load_scenario,
    parse_config_text,
    run_sweep,
    write_csv,
)

from drops import drop_paths
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
            ScenarioConfig(csi_mode="none")

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

    def test_power_conversion(self):
        config = ScenarioConfig(total_power_dbm=33.0)
        assert config.total_power_w == pytest.approx(1.9953, rel=1e-4)


class TestRunTrial:
    def test_single_user_is_noise_limited(self):
        config = replace(SMALL, user_counts=(1,))
        result = evaluate_trial(config, 1, 0, (SchemeId.DBS,))[0]
        assert result.noma_cluster_count == 0
        assert result.sum_rate_bps > 0
        assert result.spectral_eff_bps_per_hz == pytest.approx(
            result.sum_rate_bps / config.bandwidth_hz, rel=1e-12
        )

    def test_deterministic_per_key(self):
        a = evaluate_trial(SMALL, 4, 2, (SchemeId.NOMA_DBS_FCSI,))[0]
        b = evaluate_trial(SMALL, 4, 2, (SchemeId.NOMA_DBS_FCSI,))[0]
        assert a == b

    def test_schemes_share_the_same_drop(self):
        # K=1 leaves nothing to pair, so the shared-beam scheme reduces to
        # plain steering on the identical channel draw
        config = replace(SMALL, user_counts=(1,))
        dbs = evaluate_trial(config, 1, 5, (SchemeId.DBS,))[0]
        noma = evaluate_trial(config, 1, 5, (SchemeId.NOMA_DBS_FCSI,))[0]
        assert dbs.sum_rate_bps == pytest.approx(noma.sum_rate_bps, rel=1e-12)

    def test_monopath_dbs_matches_closed_form(self):
        config = replace(
            SMALL,
            num_time_clusters=(1, 1),
            paths_per_cluster=(1, 1),
            user_counts=(6,),
        )
        k = 6
        result = evaluate_trial(config, k, 1, (SchemeId.DBS,))[0]
        paths, _, dirs = _drop_users(config, k, 1)
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
        result = evaluate_trial(SMALL, 4, 0, (SchemeId.NOMA_DBS_PCSI,))[0]
        assert result.sum_rate_bps > 0

    def test_oma_scheme_runs(self):
        result = evaluate_trial(SMALL, 4, 0, (SchemeId.OMA_DBS,))[0]
        assert result.sum_rate_bps > 0


EQUIVALENCE_BASE = ScenarioConfig(user_counts=(1, 2, 5), master_seed=11)
EQUIVALENCE_CONFIGS = {
    "rural-defaults": EQUIVALENCE_BASE,
    # beta0 this low pairs the two users of K=2 on one beam with no other
    # beam, the noise-floored partial-CSI branch
    "lone-shared-beam": replace(EQUIVALENCE_BASE, beta0=0.05, csi_mode="partial"),
    "uniform-split": replace(EQUIVALENCE_BASE, inter_cluster_rule="uniform"),
    "single-row-array": replace(EQUIVALENCE_BASE, m_v=1),
    "four-paths": replace(EQUIVALENCE_BASE, num_time_clusters=(2, 2), paths_per_cluster=(2, 2)),
}


class TestEvaluateTrial:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CONFIGS))
    def test_matches_each_scheme_alone_in_every_order(self, name):
        config = EQUIVALENCE_CONFIGS[name]
        for k in config.user_counts:
            for t in range(2):
                alone = {s: evaluate_trial(config, k, t, (s,))[0] for s in SchemeId}
                for size in range(1, len(SchemeId) + 1):
                    for schemes in itertools.permutations(SchemeId, size):
                        assert evaluate_trial(config, k, t, schemes) == [alone[s] for s in schemes]

    def test_lone_shared_beam_is_reached(self):
        config = EQUIVALENCE_CONFIGS["lone-shared-beam"]
        paired = [
            t
            for t in range(2)
            if evaluate_trial(config, 2, t, (SchemeId.NOMA_DBS_PCSI,))[0].noma_cluster_count == 1
        ]
        assert paired

    def test_four_paths_per_user(self):
        paths, _, _ = _drop_users(EQUIVALENCE_CONFIGS["four-paths"], 5, 0)
        assert paths.starts.tolist() == [0, 4, 8, 12, 16]
        assert len(paths.gains) == 20

    def test_repeated_scheme_repeats_its_result(self):
        results = evaluate_trial(SMALL, 4, 1, (SchemeId.DBS, SchemeId.OMA_DBS, SchemeId.DBS))
        assert results[0] == results[2] == evaluate_trial(SMALL, 4, 1, (SchemeId.DBS,))[0]


class TestSharedBeams:
    """One hand-built drop: users 0 and 1 nearly collinear, user 2 far away."""

    CONFIG = ScenarioConfig(m_h=16, m_v=2, user_counts=(3,))
    DIRS = [Direction(1.2, -0.1), Direction(1.205, -0.1), Direction(0.4, -0.2)]

    def drop(self, amplitudes):
        paths = drop_paths([[(a, d)] for a, d in zip(amplitudes, self.DIRS)])
        h_rows = channel_rows(self.CONFIG.array_config, paths)
        return h_rows, paths.theta, paths.phi

    def pairs(self):
        pairs = beta_uc(self.DIRS, self.CONFIG.array_config, self.CONFIG.beta0)
        assert pairs.tolist() == [[0, 1]]
        return pairs

    def expected_zeta(self, h_rows):
        """Link ratios against a shared beam at the pair's mean direction and a private one."""
        d0, d1, d2 = self.DIRS
        plan = build_plan(
            self.CONFIG.array_config,
            [(d0.theta + d1.theta) / 2, d2.theta],
            [(d0.phi + d1.phi) / 2, d2.phi],
            [2, 1],
            self.CONFIG.total_power_w,
        )
        return plan, link_states(h_rows, plan, [0, 0, 1], self.CONFIG.noise_w)[2].tolist()

    @pytest.mark.parametrize("amplitudes, strong, weak", [((1e-5, 3e-5, 2e-5), 1, 0), ((3e-5, 1e-5, 2e-5), 0, 1)])
    def test_stronger_user_comes_first_and_oma_halves_the_band(self, amplitudes, strong, weak):
        h_rows, theta, phi = self.drop(amplitudes)
        scheme = SchemeId.OMA_DBS
        rates, shared, deactivated = _shared_beam_outcomes(
            self.CONFIG, [scheme], h_rows, self.pairs(), theta, phi
        )[scheme]
        _, zeta = self.expected_zeta(h_rows)
        band = self.CONFIG.bandwidth_hz
        assert (shared, deactivated) == (1, 0)
        assert rates == [rate(zeta[strong], band / 2), rate(zeta[weak], band / 2), rate(zeta[2], band)]

    @pytest.mark.parametrize("scheme", [SchemeId.NOMA_DBS_FCSI, SchemeId.NOMA_DBS_PCSI])
    def test_shared_beam_rates_follow_the_split(self, scheme):
        h_rows, theta, phi = self.drop((1e-5, 3e-5, 2e-5))
        rates, shared, deactivated = _shared_beam_outcomes(
            self.CONFIG, [scheme], h_rows, self.pairs(), theta, phi
        )[scheme]
        plan, zeta = self.expected_zeta(h_rows)
        z_strong, z_weak = zeta[1], zeta[0]
        if scheme is SchemeId.NOMA_DBS_PCSI:
            los = np.conj(steering_matrix(self.CONFIG.array_config, theta[[1, 0]], phi[[1, 0]]))
            split_on = partial_csi_zeta(los, plan, [0, 0], self.CONFIG.noise_w).tolist()
        else:
            split_on = [z_strong, z_weak]
        gamma1 = float(opa(*split_on, self.CONFIG.p_min, self.CONFIG.epsilon)[0])
        band = self.CONFIG.bandwidth_hz
        assert (shared, deactivated) == (1, int(gamma1 == 0.0))
        assert rates == pytest.approx(
            [
                rate(sinr_noma_strong(z_strong, gamma1), band),
                rate(sinr_noma_weak(z_weak, gamma1), band),
                rate(zeta[2], band),
            ],
            rel=1e-12,
        )


class TestRunSweep:
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

        def spectral_effs(cfg, scheme):
            return [evaluate_trial(cfg, 12, t, (scheme,))[0].spectral_eff_bps_per_hz for t in range(60)]

        noma = spectral_effs(config, SchemeId.NOMA_DBS_FCSI)
        dbs = spectral_effs(config, SchemeId.DBS)
        dbs_unpaired = spectral_effs(replace(config, master_seed=77), SchemeId.DBS)
        paired_var = statistics.variance([n - d for n, d in zip(noma, dbs)])
        unpaired_var = statistics.variance([n - d for n, d in zip(noma, dbs_unpaired)])
        assert paired_var < unpaired_var


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
