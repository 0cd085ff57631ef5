import math

import numpy as np
import pytest

from nomabeam.baselines import SchemeId, conjugate_bf_sinr, energy_efficiency
from nomabeam.link_metrics import link_states, rate
from nomabeam.power_allocation import opa

from drops import Direction, array, channel_matrix, drop_paths, plan_toward
from oracles import pair_rate

CFG = array(16, 2, 0.5)


class TestOrthogonalSharing:
    def test_noma_beats_oma_on_most_instances(self, rng):
        # log-uniform link-ratio pairs spanning -20..+20 dB
        wins = 0
        trials = 2000
        for _ in range(trials):
            z1 = float(10.0 ** rng.uniform(-2, 2))
            z2 = float(10.0 ** rng.uniform(-2, 2))
            gamma1, _ = opa(z1, z2, 1e-3, 0.05)
            noma = pair_rate(z1, z2, float(gamma1))
            oma = 0.5 * (math.log2(1.0 + z1) + math.log2(1.0 + z2))
            wins += noma >= oma
        assert wins / trials >= 0.95


class TestConjugateBf:
    def test_single_user_matched_filter_snr(self, rng):
        h = rng.normal(size=8) + 1j * rng.normal(size=8)
        noise = 1e-3
        total_power = 2.0
        sinr = conjugate_bf_sinr(h[np.newaxis], total_power, noise)
        expected = total_power * float(np.sum(np.abs(h) ** 2)) / noise
        assert sinr.tolist() == pytest.approx([expected], rel=1e-12)

    def test_orthogonal_channels_see_no_interference(self):
        h1 = np.zeros(8, dtype=complex)
        h2 = np.zeros(8, dtype=complex)
        h1[0] = 2.0
        h2[1] = 3.0
        noise, power = 1e-2, 1.0
        sinr = conjugate_bf_sinr(np.stack([h1, h2]), power, noise)
        # eta = 1/2, each beam carries the full signal power
        assert sinr[0] == pytest.approx(0.5 * power * 4.0 / noise, rel=1e-12)
        assert sinr[1] == pytest.approx(0.5 * power * 9.0 / noise, rel=1e-12)

    def test_monopath_equal_gain_matches_steered_beams(self, rng):
        # with one path per user the matched filter is the steering vector up
        # to phase, so conjugate beamforming and beamsteering coincide
        k = 5
        dirs = [Direction(rng.uniform(0.3, 2.8), rng.uniform(-0.4, 0.0)) for _ in range(k)]
        alpha = 3e-4
        h_rows = channel_matrix(
            CFG, drop_paths([[(alpha * np.exp(1j * rng.uniform(0, 2 * math.pi)), d)] for d in dirs])
        )
        noise, power, bandwidth = 8.1e-14, 1.0, 20e6
        cb = rate(conjugate_bf_sinr(h_rows, power, noise), bandwidth).tolist()
        weights, powers = plan_toward(CFG, [d.theta for d in dirs], [d.phi for d in dirs], np.ones(k, dtype=int), power)
        _, _, zeta = link_states(h_rows @ weights, powers, np.arange(k), noise)
        steered = [rate(z, bandwidth) for z in zeta.tolist()]
        assert cb == pytest.approx(steered, rel=1e-9)


class TestEnergyEfficiency:
    def test_hand_value(self):
        # 2e8 bps over 10*1 + 64*1 + 0.2 = 74.2 W
        assert energy_efficiency(2e8, 1.0, 64) == pytest.approx(
            2e8 / 74.2, rel=1e-12
        )

    def test_zero_rate(self):
        assert energy_efficiency(0.0, 1.0, 64) == 0.0

    def test_decreasing_in_antenna_count(self):
        small = energy_efficiency(1e8, 1.0, 64)
        large = energy_efficiency(1e8, 1.0, 128)
        assert large < small

    def test_decreasing_in_each_power_term(self):
        base = energy_efficiency(1e8, 1.0, 64)
        assert energy_efficiency(1e8, 2.0, 64) < base


class TestSchemeId:
    def test_tags_are_stable(self):
        assert {s.value for s in SchemeId} == {
            "dbs",
            "noma_dbs_fcsi",
            "noma_dbs_pcsi",
            "oma_dbs",
            "cb",
        }
