import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomabeam.array_geometry import ArrayConfig, steering_matrix
from nomabeam.beamforming import build_plan

from oracles import emitted_power_check, emitted_powers


def plan_for(sizes, cfg, total_power, rule="proportional"):
    """A plan with one beam per entry of ``sizes``, beams spread over the front."""
    weights = steering_matrix(cfg, 0.3 + 0.4 * np.arange(len(sizes)), np.full(len(sizes), -0.1)).T
    return build_plan(weights, np.array(sizes), total_power, rule)


class TestBuildPlan:
    def test_proportional_split_hand_values(self):
        plan = plan_for([2, 1, 1], ArrayConfig(8, 8, 0.5), 1.0)
        assert emitted_powers(plan) == pytest.approx((0.5, 0.25, 0.25))
        assert plan.cluster_powers_pc == pytest.approx((1.5, 0.75, 0.75))

    def test_all_singletons_reduce_to_uniform(self):
        plan = plan_for([1, 1, 1], ArrayConfig(8, 8, 0.5), 2.0)
        assert plan.cluster_powers_pc == pytest.approx((2.0, 2.0, 2.0))
        assert emitted_powers(plan) == pytest.approx((2.0 / 3,) * 3)

    def test_eta_value(self):
        plan = plan_for([1, 1, 1, 1], ArrayConfig(8, 8, 0.5), 1.0)
        assert plan.eta == pytest.approx(1.0 / 256)

    def test_uniform_rule(self):
        plan = plan_for([2, 1, 1], ArrayConfig(8, 8, 0.5), 1.0, rule="uniform")
        assert emitted_powers(plan) == pytest.approx((1.0 / 3,) * 3)
        assert plan.cluster_powers_pc == pytest.approx((1.0,) * 3)

    def test_weights_are_unit_modulus_steering_vectors(self):
        plan = plan_for([2, 1], ArrayConfig(4, 2, 0.5), 1.0)
        assert plan.weights.shape == (8, 2) and plan.weights.flags.c_contiguous
        for w in plan.weights.T:
            assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-12
            assert np.sum(np.abs(w) ** 2) == pytest.approx(8.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_for([1, 1], ArrayConfig(4, 2, 0.5), 0.0)
        with pytest.raises(ValueError):
            plan_for([1, 1], ArrayConfig(4, 2, 0.5), 1.0, rule="magic")
        with pytest.raises(ValueError, match="2 weight vectors for 3 beam sizes"):
            build_plan(np.ones((8, 2), dtype=complex), [1, 1, 1], 1.0)


class TestPowerConservation:
    @given(
        st.lists(st.sampled_from([1, 2]), min_size=1, max_size=12),
        st.floats(0.01, 100.0),
    )
    def test_emitted_power_sums_to_total(self, sizes, total_power):
        plan = plan_for(sizes, ArrayConfig(8, 4, 0.5), total_power)
        assert sum(emitted_powers(plan)) == pytest.approx(total_power, rel=1e-9)
        assert emitted_power_check(plan) == pytest.approx(total_power, rel=1e-9)

    @given(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=12))
    def test_proportional_fairness(self, sizes):
        k = sum(sizes)
        plan = plan_for(sizes, ArrayConfig(8, 4, 0.5), 1.0)
        shares = [p / k_c for p, k_c in zip(emitted_powers(plan), sizes)]
        assert all(s == pytest.approx(1.0 / k, rel=1e-12) for s in shares)

    def test_hand_example_sums_to_one_watt(self):
        plan = plan_for([2, 1, 1], ArrayConfig(8, 8, 0.5), 1.0)
        assert emitted_power_check(plan) == pytest.approx(1.0, rel=1e-12)

    def test_single_cluster_is_exact(self):
        plan = plan_for([2], ArrayConfig(8, 8, 0.5), 3.5)
        assert emitted_power_check(plan) == pytest.approx(3.5, rel=1e-12)
        assert plan.eta * 64.0 == pytest.approx(1.0)  # eta * ||w||^2 = 1/C with C=1
