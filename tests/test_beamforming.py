import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomabeam.array_geometry import ArrayConfig, Direction
from nomabeam.beamforming import build_plan
from nomabeam.clustering import Cluster, ClusterSet

from oracles import emitted_power_check


def make_cluster_set(sizes):
    """ClusterSet with the given member counts, beams spread over the front."""
    clusters = []
    next_user = 0
    for idx, size in enumerate(sizes):
        members = tuple(range(next_user, next_user + size))
        next_user += size
        clusters.append(Cluster(members=members, beam_dir=Direction(0.3 + 0.4 * idx, -0.1)))
    clusters.sort(key=lambda c: -len(c.members))
    return ClusterSet(
        clusters=tuple(clusters), noma_count=sum(1 for s in sizes if s == 2)
    )


class TestBuildPlan:
    def test_proportional_split_hand_values(self):
        cs = make_cluster_set([2, 1, 1])
        plan = build_plan(cs, ArrayConfig(8, 8, 0.5), 1.0, 4)
        assert plan.emitted_powers_Pc == pytest.approx((0.5, 0.25, 0.25))
        assert plan.cluster_powers_pc == pytest.approx((1.5, 0.75, 0.75))

    def test_all_singletons_reduce_to_uniform(self):
        cs = make_cluster_set([1, 1, 1])
        plan = build_plan(cs, ArrayConfig(8, 8, 0.5), 2.0, 3)
        assert plan.cluster_powers_pc == pytest.approx((2.0, 2.0, 2.0))
        assert plan.emitted_powers_Pc == pytest.approx((2.0 / 3,) * 3)

    def test_eta_value(self):
        cs = make_cluster_set([1, 1, 1, 1])
        plan = build_plan(cs, ArrayConfig(8, 8, 0.5), 1.0, 4)
        assert plan.eta == pytest.approx(1.0 / 256)

    def test_uniform_rule(self):
        cs = make_cluster_set([2, 1, 1])
        plan = build_plan(cs, ArrayConfig(8, 8, 0.5), 1.0, 4, rule="uniform")
        assert plan.emitted_powers_Pc == pytest.approx((1.0 / 3,) * 3)
        assert plan.cluster_powers_pc == pytest.approx((1.0,) * 3)

    def test_weights_are_unit_modulus_steering_vectors(self):
        cs = make_cluster_set([2, 1])
        plan = build_plan(cs, ArrayConfig(4, 2, 0.5), 1.0, 3)
        for w in plan.weights:
            assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-12
            assert np.sum(np.abs(w) ** 2) == pytest.approx(8.0)

    def test_bad_inputs(self):
        cs = make_cluster_set([1, 1])
        with pytest.raises(ValueError):
            build_plan(cs, ArrayConfig(4, 2, 0.5), 0.0, 2)
        with pytest.raises(ValueError):
            build_plan(cs, ArrayConfig(4, 2, 0.5), 1.0, 5)
        with pytest.raises(ValueError):
            build_plan(cs, ArrayConfig(4, 2, 0.5), 1.0, 2, rule="magic")


class TestPowerConservation:
    @given(
        st.lists(st.sampled_from([1, 2]), min_size=1, max_size=12),
        st.floats(0.01, 100.0),
    )
    def test_emitted_power_sums_to_total(self, sizes, total_power):
        cs = make_cluster_set(sizes)
        plan = build_plan(cs, ArrayConfig(8, 4, 0.5), total_power, sum(sizes))
        assert sum(plan.emitted_powers_Pc) == pytest.approx(total_power, rel=1e-9)
        assert emitted_power_check(plan) == pytest.approx(total_power, rel=1e-9)

    @given(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=12))
    def test_proportional_fairness(self, sizes):
        cs = make_cluster_set(sizes)
        k = sum(sizes)
        plan = build_plan(cs, ArrayConfig(8, 4, 0.5), 1.0, k)
        shares = [
            p / len(c.members) for p, c in zip(plan.emitted_powers_Pc, cs.clusters)
        ]
        assert all(s == pytest.approx(1.0 / k, rel=1e-12) for s in shares)

    def test_hand_example_sums_to_one_watt(self):
        plan = build_plan(make_cluster_set([2, 1, 1]), ArrayConfig(8, 8, 0.5), 1.0, 4)
        assert emitted_power_check(plan) == pytest.approx(1.0, rel=1e-12)

    def test_single_cluster_is_exact(self):
        plan = build_plan(make_cluster_set([2]), ArrayConfig(8, 8, 0.5), 3.5, 2)
        assert emitted_power_check(plan) == pytest.approx(3.5, rel=1e-12)
        assert plan.eta * 64.0 == pytest.approx(1.0)  # eta * ||w||^2 = 1/C with C=1
