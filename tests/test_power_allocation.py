import math

import numpy as np
import pytest

from nomabeam.array_geometry import ArrayConfig, Direction, beta_metric, steering_matrix
from nomabeam.beamforming import build_plan
from nomabeam.channel import channel_rows
from nomabeam.clustering import Cluster, ClusterSet
from nomabeam.link_metrics import link_states
from nomabeam.power_allocation import (
    Branch,
    InfeasibleSic,
    PaInput,
    PaResult,
    gamma_fair,
    gamma_hat,
    opa,
    opa_partial_csi,
    partial_csi_zeta,
    rc_derivative,
)

from drops import drop_paths
from oracles import pair_rate, pair_rate_grid_max

CFG = ArrayConfig(16, 2, 0.5)
NOISE_W = 8.1e-14


def los_row(direction):
    """The partial-CSI view of a user: its conjugated LOS steering vector."""
    return np.conj(steering_matrix(CFG, [direction.theta], [direction.phi])[0])


class TestGammaHat:
    def test_unconstrained_limit(self):
        assert gamma_hat(5.0, 0.0) == pytest.approx(0.5)

    def test_hand_value(self):
        assert gamma_hat(2.0, 1.0) == pytest.approx(0.25)

    def test_large_zeta_limit(self):
        assert gamma_hat(1e12, 1e-3) == pytest.approx(0.5, abs=1e-12)

    def test_empty_interval_raises(self):
        with pytest.raises(InfeasibleSic):
            gamma_hat(0.5, 1.0)

    def test_boundary_interval_is_degenerate_not_infeasible(self):
        assert gamma_hat(1.0, 1.0) == 0.0


class TestGammaFair:
    def test_hand_value_one_third(self):
        value = gamma_fair(3.0, 3.0)
        assert abs(value - 1.0 / 3.0) < 1e-12
        assert math.log2(1.0 + 3.0 * value) == pytest.approx(1.0, rel=1e-12)
        weak = 3.0 * (1 - value) / (1 + 3.0 * value)
        assert math.log2(1.0 + weak) == pytest.approx(1.0, rel=1e-12)

    def test_small_zeta_limit_is_half(self):
        assert gamma_fair(1e-12, 1e-12) == pytest.approx(0.5, abs=1e-9)

    def test_large_zeta_limit_is_zero(self):
        assert gamma_fair(1e12, 1e12) == pytest.approx(0.0, abs=1e-5)

    def test_equalizes_rates_on_random_pairs(self, rng):
        for _ in range(1000):
            z1 = float(10.0 ** rng.uniform(-3, 3))
            z2 = float(10.0 ** rng.uniform(-3, 3))
            g = gamma_fair(z1, z2)
            r1 = math.log2(1.0 + z1 * g)
            r2 = math.log2(1.0 + z2 * (1.0 - g) / (1.0 + z2 * g))
            assert abs(r1 - r2) < 1e-9 * r1

    def test_strictly_decreasing_in_zeta(self):
        grid = np.logspace(-3, 3, 200)
        values = [gamma_fair(z, z) for z in grid]
        assert all(0.0 < v < 0.5 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_true_convergence_toward_zero(self):
        # decay is ~ 1/sqrt(zeta): reaching 1e-3 needs zeta ~ 1e6
        assert gamma_fair(1e7, 1e7) < 1e-3


class TestOpa:
    def test_equal_ratios_take_fair_branch(self):
        result = opa(PaInput(zeta1=4.0, zeta2=4.0, p_min=1e-3, epsilon=0.01))
        assert result.branch is Branch.FAIR
        assert result.gamma1 == pytest.approx(gamma_fair(4.0, 4.0), rel=1e-12)
        assert result.gamma2 == pytest.approx(1.0 - result.gamma1)

    def test_strong_ahead_takes_upper_endpoint(self):
        result = opa(PaInput(zeta1=10.0, zeta2=1.0, p_min=1e-3, epsilon=0.01))
        assert result.branch is Branch.UPPER_ENDPOINT
        assert result.gamma1 == pytest.approx(gamma_hat(10.0, 1e-3), rel=1e-12)
        grid_max = pair_rate_grid_max(10.0, 1.0, gamma_hat(10.0, 1e-3))
        assert pair_rate(10.0, 1.0, result.gamma1) >= grid_max - 1e-6 * grid_max

    def test_strong_behind_deactivates(self):
        result = opa(PaInput(zeta1=1.0, zeta2=10.0, p_min=1e-3, epsilon=0.01))
        assert result.branch is Branch.DEACTIVATE
        assert result.gamma1 == 0.0
        grid_max = pair_rate_grid_max(1.0, 10.0, gamma_hat(1.0, 1e-3))
        assert pair_rate(1.0, 10.0, 0.0) >= grid_max - 1e-6 * grid_max

    def test_fair_branch_respects_the_feasible_interval(self):
        # the rate-equalizing split would exceed the cancellation endpoint
        result = opa(PaInput(zeta1=0.01, zeta2=0.01, p_min=1e-3, epsilon=0.01))
        cap = gamma_hat(0.01, 1e-3)
        assert gamma_fair(0.01, 0.01) > cap
        assert result.branch is Branch.FAIR
        assert result.gamma1 == pytest.approx(cap, rel=1e-12)

    def test_infeasible_constraint_propagates(self):
        with pytest.raises(InfeasibleSic):
            opa(PaInput(zeta1=0.5, zeta2=0.05, p_min=1.0, epsilon=0.01))

    def test_optimality_against_grid_search(self, rng):
        for _ in range(200):
            z1 = float(rng.uniform(0.01, 100.0))
            z2 = float(rng.uniform(0.01, 100.0))
            result = opa(PaInput(zeta1=z1, zeta2=z2, p_min=1e-3, epsilon=0.0))
            grid_max = pair_rate_grid_max(z1, z2, gamma_hat(z1, 1e-3))
            assert pair_rate(z1, z2, result.gamma1) >= grid_max * (1.0 - 1e-6)

    def test_constraints_hold_on_random_inputs(self, rng):
        for _ in range(500):
            z1 = float(10.0 ** rng.uniform(-2, 2))
            z2 = float(10.0 ** rng.uniform(-2, 2))
            p_min = float(10.0 ** rng.uniform(-4, -2))
            try:
                result = opa(PaInput(zeta1=z1, zeta2=z2, p_min=p_min, epsilon=0.05))
            except InfeasibleSic:
                assert p_min / z1 > 1.0
                continue
            assert result.gamma1 + result.gamma2 == pytest.approx(1.0, abs=1e-15)
            assert result.gamma1 <= 0.5
            if result.branch is not Branch.DEACTIVATE:
                assert (1.0 - 2.0 * result.gamma1) >= p_min / z1 - 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            PaInput(zeta1=0.0, zeta2=1.0, p_min=0.0, epsilon=0.05)
        with pytest.raises(ValueError):
            PaInput(zeta1=1.0, zeta2=1.0, p_min=-1.0, epsilon=0.05)


class TestRcDerivative:
    def test_zero_for_equal_ratios(self):
        for g in np.linspace(0.0, 0.5, 20):
            assert rc_derivative(3.0, 3.0, float(g)) == 0.0

    def test_positive_when_strong_is_ahead(self):
        assert rc_derivative(5.0, 2.0, 0.0) > 0
        assert rc_derivative(5.0, 2.0, 0.5) > 0

    def test_sign_constant_and_matching(self, rng):
        for _ in range(300):
            z1 = float(rng.uniform(0.01, 100.0))
            z2 = float(rng.uniform(0.01, 100.0))
            signs = {
                math.copysign(1.0, rc_derivative(z1, z2, float(g)))
                for g in np.linspace(0.0, 0.5, 25)
            }
            assert signs == {math.copysign(1.0, z1 - z2)}

    def test_matches_finite_difference(self, rng):
        h = 1e-6
        for _ in range(300):
            z1 = float(rng.uniform(0.01, 100.0))
            z2 = float(rng.uniform(0.01, 100.0))
            g = float(rng.uniform(h, 0.5 - h))
            fd = (pair_rate(z1, z2, g + h) - pair_rate(z1, z2, g - h)) / (2 * h)
            assert rc_derivative(z1, z2, g) == pytest.approx(fd, rel=1e-4)

    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            rc_derivative(1.0, 2.0, 0.6)


def two_beam_plan(own_dir, other_dir, total_power=1.0):
    pair = Cluster(members=(0, 1), beam_dir=own_dir)
    single = Cluster(members=(2,), beam_dir=other_dir)
    cs = ClusterSet(clusters=(pair, single), noma_count=1)
    return build_plan(cs, CFG, total_power, 3)


class TestPartialCsiZeta:
    def test_los_on_beam_center_puts_full_array_gain_in_the_numerator(self):
        own = Direction(math.pi / 2, 0.0)
        other = Direction(0.9, -0.2)
        plan = two_beam_plan(own, other)
        z = partial_csi_zeta(los_row(own), plan, 0, NOISE_W)
        a = channel_rows(CFG, drop_paths([[(1.0, own)]]))[0]
        interference = plan.eta * plan.cluster_powers_pc[1] * abs(a @ plan.weights[1]) ** 2
        m = CFG.num_elements
        assert z * interference == pytest.approx(
            plan.eta * plan.cluster_powers_pc[0] * m * m, rel=1e-9
        )

    def test_power_scale_invariance(self):
        own = Direction(1.2, -0.1)
        other = Direction(0.6, -0.3)
        z_small = partial_csi_zeta(los_row(own), two_beam_plan(own, other, 1.0), 0, NOISE_W)
        z_large = partial_csi_zeta(los_row(own), two_beam_plan(own, other, 250.0), 0, NOISE_W)
        assert z_small == pytest.approx(z_large, rel=1e-12)

    def test_interferer_at_pattern_null_gives_huge_finite_ratio(self):
        own = Direction(math.pi / 2, 0.0)
        null = Direction(math.acos(1.0 / 8.0), 0.0)
        assert beta_metric(CFG, own, null) < 1e-12
        z = partial_csi_zeta(los_row(own), two_beam_plan(own, null), 0, NOISE_W)
        assert math.isfinite(z)
        assert z > 1e10

    def test_single_beam_with_noise_floor(self):
        d = Direction(1.0, 0.0)
        only = ClusterSet(clusters=(Cluster(members=(0, 1), beam_dir=d),), noma_count=1)
        plan = build_plan(only, CFG, 1.0, 2)
        z = partial_csi_zeta(los_row(d), plan, 0, NOISE_W)
        m = CFG.num_elements
        assert z == pytest.approx(plan.eta * plan.cluster_powers_pc[0] * m * m / NOISE_W, rel=1e-9)


class TestOpaPartialCsi:
    def test_identical_directions_take_fair_branch(self):
        d = Direction(1.3, -0.05)
        plan = two_beam_plan(d, Direction(0.4, -0.3))
        result = opa_partial_csi(los_row(d), los_row(d), plan, 0, 1e-3, 0.05, NOISE_W)
        assert result.branch is Branch.FAIR

    def test_branch_agrees_with_full_csi_for_equal_gain_monopath(self, rng):
        # with one path each, equal gain magnitudes and negligible noise the
        # direction-only ratio equals the full ratio, so decisions coincide
        noise = 1e-30
        agreements = 0
        for _ in range(50):
            d_strong = Direction(rng.uniform(0.4, 2.7), rng.uniform(-0.4, 0.0))
            d_weak = Direction(d_strong.theta + rng.uniform(-0.02, 0.02), d_strong.phi)
            d_far = Direction(rng.uniform(0.4, 2.7), rng.uniform(-0.4, 0.0))
            beam = Direction(
                (d_strong.theta + d_weak.theta) / 2, (d_strong.phi + d_weak.phi) / 2
            )
            plan = two_beam_plan(beam, d_far)
            amp = 1e-4
            phase1, phase2 = rng.uniform(0, 2 * math.pi, size=2)
            rows = channel_rows(
                CFG,
                drop_paths([[(amp * np.exp(1j * phase1), d_strong)], [(amp * np.exp(1j * phase2), d_weak)]]),
            )
            z1, z2 = (ls.zeta for ls in link_states(rows, plan, [0, 0], noise))
            full = opa(PaInput(zeta1=z1, zeta2=z2, p_min=1e-3, epsilon=0.05))
            partial = opa_partial_csi(los_row(d_strong), los_row(d_weak), plan, 0, 1e-3, 0.05, noise)
            agreements += full.branch is partial.branch
        assert agreements == 50

    def test_degenerate_single_beam_falls_back_to_noise_floor(self):
        d = Direction(1.0, 0.0)
        only = ClusterSet(clusters=(Cluster(members=(0, 1), beam_dir=d),), noma_count=1)
        plan = build_plan(only, CFG, 1.0, 2)
        result = opa_partial_csi(los_row(d), los_row(d), plan, 0, 1e-3, 0.05, NOISE_W)
        assert isinstance(result, PaResult)
        assert result.branch is Branch.FAIR  # equal estimated ratios
