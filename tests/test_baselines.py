import math

import numpy as np
import pytest

from nomabeam.array_geometry import ArrayConfig, Direction
from nomabeam.baselines import SchemeId, conjugate_bf_rates, energy_efficiency, oma_dbs_rates
from nomabeam.beamforming import build_plan
from nomabeam.channel import channel_rows
from nomabeam.clustering import Cluster, ClusterSet
from nomabeam.link_metrics import LinkState, link_states, rate
from nomabeam.power_allocation import InfeasibleSic, PaInput, opa

from drops import drop_paths
from oracles import pair_rate

CFG = ArrayConfig(16, 2, 0.5)


def ls(zeta):
    return LinkState(psi=zeta, nu=1.0, zeta=zeta)


class TestOmaDbsRates:
    def test_singleton_equals_full_band_rate(self):
        cluster = Cluster(members=(0,), beam_dir=Direction(1.0, 0.0))
        assert oma_dbs_rates(cluster, [ls(3.0)], 20e6) == [rate(3.0, 20e6)]

    def test_pair_hand_value(self):
        cluster = Cluster(members=(0, 1), beam_dir=Direction(1.0, 0.0))
        rates = oma_dbs_rates(cluster, [ls(3.0), ls(3.0)], 1.0)
        assert rates == pytest.approx([1.0, 1.0])

    def test_pair_with_dead_weak_user(self):
        cluster = Cluster(members=(0, 1), beam_dir=Direction(1.0, 0.0))
        rates = oma_dbs_rates(cluster, [ls(5.0), LinkState(psi=0.0, nu=1.0, zeta=0.0)], 2.0)
        assert rates[0] == pytest.approx(math.log2(6.0))
        assert rates[1] == 0.0

    def test_noma_beats_oma_on_most_instances(self, rng):
        # log-uniform link-ratio pairs spanning -20..+20 dB
        wins = 0
        trials = 2000
        for _ in range(trials):
            z1 = float(10.0 ** rng.uniform(-2, 2))
            z2 = float(10.0 ** rng.uniform(-2, 2))
            try:
                gamma1 = opa(PaInput(zeta1=z1, zeta2=z2, p_min=1e-3, epsilon=0.05)).gamma1
            except InfeasibleSic:
                gamma1 = 0.0
            noma = pair_rate(z1, z2, gamma1)
            oma = 0.5 * (math.log2(1.0 + z1) + math.log2(1.0 + z2))
            wins += noma >= oma
        assert wins / trials >= 0.95


class TestConjugateBf:
    def test_single_user_matched_filter_snr(self, rng):
        h = rng.normal(size=8) + 1j * rng.normal(size=8)
        noise = 1e-3
        total_power = 2.0
        rates = conjugate_bf_rates(h[np.newaxis], total_power, noise, 1.0)
        expected = math.log2(1.0 + total_power * float(np.sum(np.abs(h) ** 2)) / noise)
        assert rates == pytest.approx([expected], rel=1e-12)

    def test_orthogonal_channels_see_no_interference(self):
        h1 = np.zeros(8, dtype=complex)
        h2 = np.zeros(8, dtype=complex)
        h1[0] = 2.0
        h2[1] = 3.0
        noise, power = 1e-2, 1.0
        rates = conjugate_bf_rates(np.stack([h1, h2]), power, noise, 1.0)
        # eta = 1/2, each beam carries the full signal power
        assert rates[0] == pytest.approx(math.log2(1.0 + 0.5 * power * 4.0 / noise), rel=1e-12)
        assert rates[1] == pytest.approx(math.log2(1.0 + 0.5 * power * 9.0 / noise), rel=1e-12)

    def test_monopath_equal_gain_matches_steered_beams(self, rng):
        # with one path per user the matched filter is the steering vector up
        # to phase, so conjugate beamforming and beamsteering coincide
        k = 5
        dirs = [Direction(rng.uniform(0.3, 2.8), rng.uniform(-0.4, 0.0)) for _ in range(k)]
        alpha = 3e-4
        h_rows = channel_rows(
            CFG, drop_paths([[(alpha * np.exp(1j * rng.uniform(0, 2 * math.pi)), d)] for d in dirs])
        )
        noise, power, bandwidth = 8.1e-14, 1.0, 20e6
        cb = conjugate_bf_rates(h_rows, power, noise, bandwidth)
        cs = ClusterSet(
            clusters=tuple(Cluster(members=(i,), beam_dir=d) for i, d in enumerate(dirs)),
            noma_count=0,
        )
        plan = build_plan(cs, CFG, power, k)
        steered = [rate(ls.zeta, bandwidth) for ls in link_states(h_rows, plan, range(k), noise)]
        assert cb == pytest.approx(steered, rel=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            conjugate_bf_rates(np.empty((0, 8), dtype=complex), 1.0, 1e-3, 1.0)


class TestEnergyEfficiency:
    def test_hand_value(self):
        # 2e8 bps over 10*1 + 64*1 + 0.2 = 74.2 W
        assert energy_efficiency(2e8, 1.0, 64, 10.0, 1.0, 0.2) == pytest.approx(
            2e8 / 74.2, rel=1e-12
        )

    def test_zero_rate(self):
        assert energy_efficiency(0.0, 1.0, 64, 10.0, 1.0, 0.2) == 0.0

    def test_decreasing_in_antenna_count(self):
        small = energy_efficiency(1e8, 1.0, 64, 10.0, 1.0, 0.2)
        large = energy_efficiency(1e8, 1.0, 128, 10.0, 1.0, 0.2)
        assert large < small

    def test_decreasing_in_each_power_term(self):
        base = energy_efficiency(1e8, 1.0, 64, 10.0, 1.0, 0.2)
        assert energy_efficiency(1e8, 2.0, 64, 10.0, 1.0, 0.2) < base
        assert energy_efficiency(1e8, 1.0, 64, 12.0, 1.0, 0.2) < base
        assert energy_efficiency(1e8, 1.0, 64, 10.0, 1.5, 0.2) < base
        assert energy_efficiency(1e8, 1.0, 64, 10.0, 1.0, 0.4) < base

    def test_validation(self):
        with pytest.raises(ValueError):
            energy_efficiency(1e8, -1.0, 64, 10.0, 1.0, 0.2)
        with pytest.raises(ValueError):
            energy_efficiency(1e8, 1.0, 0, 10.0, 1.0, 0.2)


class TestSchemeId:
    def test_tags_are_stable(self):
        assert {s.value for s in SchemeId} == {
            "dbs",
            "noma_dbs_fcsi",
            "noma_dbs_pcsi",
            "oma_dbs",
            "cb",
        }
