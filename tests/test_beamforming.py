import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomabeam.beamforming import build_plan

from drops import array, plan_toward
from oracles import emitted_power_check, emitted_powers


def plan_for(sizes, cfg, total_power, rule="proportional"):
    """``(weights, beam_powers)`` with one beam per entry of ``sizes``, beams spread over the front."""
    n = len(sizes)
    return plan_toward(cfg, 0.3 + 0.4 * np.arange(n), np.full(n, -0.1), np.array(sizes), total_power, rule)


class TestBuildPlan:
    # eta * p_c with eta = 1 / (M C): an 8x8 array has M = 64
    def test_proportional_split_hand_values(self):
        assert build_plan([2, 1, 1], 64, 1.0, "proportional") == pytest.approx(np.array([1.5, 0.75, 0.75]) / 192)
        assert emitted_powers(*plan_for([2, 1, 1], array(8, 8, 0.5), 1.0)) == pytest.approx((0.5, 0.25, 0.25))

    def test_all_singletons_reduce_to_uniform(self):
        assert build_plan([1, 1, 1], 64, 2.0, "proportional") == pytest.approx(np.full(3, 2.0 / 192))
        assert emitted_powers(*plan_for([1, 1, 1], array(8, 8, 0.5), 2.0)) == pytest.approx((2.0 / 3,) * 3)

    def test_eta_value(self):
        # four singletons at 1 W have p_c = 1, so each beam's power is eta
        assert build_plan([1, 1, 1, 1], 64, 1.0, "proportional") == pytest.approx(np.full(4, 1.0 / 256))

    def test_uniform_rule(self):
        assert build_plan([2, 1, 1], 64, 1.0, rule="uniform") == pytest.approx(np.full(3, 1.0 / 192))
        plan = plan_for([2, 1, 1], array(8, 8, 0.5), 1.0, rule="uniform")
        assert emitted_powers(*plan) == pytest.approx((1.0 / 3,) * 3)


class TestBlockOfDrops:
    @given(
        st.integers(1, 40),
        st.data(),
        st.integers(1, 4096),
        st.floats(1e-20, 1e20),
        st.sampled_from(["proportional", "uniform"]),
    )
    def test_each_drop_keeps_the_bits_it_gives_alone(self, k_users, data, m_elements, total_power, rule):
        # A block's rows are its drops' beam sizes, the drops with fewer beams
        # padded with zero-user beams; each drop's pairs are on its first beams.
        n_pairs = data.draw(st.lists(st.integers(0, k_users // 2), min_size=1, max_size=8))
        own_beams = [
            np.array(data.draw(st.permutations(np.repeat(np.arange(k_users - p), [2] * p + [1] * (k_users - 2 * p)))))
            for p in n_pairs
        ]
        sizes = np.zeros((len(n_pairs), k_users), dtype=int)
        for row, own in zip(sizes, own_beams):
            row[: own.max() + 1] = np.bincount(own)
        block = build_plan(sizes, m_elements, total_power, rule)
        for powers, own in zip(block, own_beams):
            alone = build_plan(np.bincount(own), m_elements, total_power, rule)
            assert np.array_equal(powers[: len(alone)], alone)
            assert not powers[len(alone) :].any()


class TestPowerConservation:
    @given(
        st.lists(st.sampled_from([1, 2]), min_size=1, max_size=12),
        st.floats(0.01, 100.0),
    )
    def test_emitted_power_sums_to_total(self, sizes, total_power):
        plan = plan_for(sizes, array(8, 4, 0.5), total_power)
        assert sum(emitted_powers(*plan)) == pytest.approx(total_power, rel=1e-9)
        assert emitted_power_check(*plan) == pytest.approx(total_power, rel=1e-9)

    @given(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=12))
    def test_proportional_fairness(self, sizes):
        k = sum(sizes)
        plan = plan_for(sizes, array(8, 4, 0.5), 1.0)
        shares = [p / k_c for p, k_c in zip(emitted_powers(*plan), sizes)]
        assert all(s == pytest.approx(1.0 / k, rel=1e-12) for s in shares)

    def test_hand_example_sums_to_one_watt(self):
        plan = plan_for([2, 1, 1], array(8, 8, 0.5), 1.0)
        assert emitted_power_check(*plan) == pytest.approx(1.0, rel=1e-12)

    def test_single_cluster_is_exact(self):
        plan = plan_for([2], array(8, 8, 0.5), 3.5)
        assert emitted_power_check(*plan) == pytest.approx(3.5, rel=1e-12)
        assert plan[1] * 64.0 == pytest.approx([3.5])  # eta * p_c * ||w||^2 = P with C=1
