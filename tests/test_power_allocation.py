import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomabeam.array_geometry import steering_matrix
from nomabeam.link_metrics import link_states
from nomabeam.power_allocation import (
    Branch,
    _gamma_fair,
    _gamma_hat,
    opa,
)

from drops import Direction, array, channel_matrix, drop_paths, plan_toward
from oracles import pair_rate, pair_rate_grid_max, rc_derivative

CFG = array(16, 2, 0.5)


def los_rows(*directions):
    """The partial-CSI view of users: their conjugated LOS steering vectors, one per row."""
    return np.conj(steering_matrix(CFG, [d.theta for d in directions], [d.phi for d in directions]))


def estimated_zeta(direction, plan, own_beam=0):
    """The direction-only link ratio of one user on beam ``own_beam``: its LOS
    row's link ratio with no noise, the other beams' leakage alone below."""
    return float(link_states(np.abs(los_rows(direction) @ plan[0]) ** 2, plan[1], [own_beam], 0.0)[2][0])


def partial_csi_split(d_strong, d_weak, plan):
    """The split of a pair on beam 0 decided from their LOS directions only."""
    zeta = link_states(np.abs(los_rows(d_strong, d_weak) @ plan[0]) ** 2, plan[1], [0, 0], 0.0)[2]
    return opa(zeta[0], zeta[1], 1e-3, 0.05)


class TestGammaHat:
    def test_unconstrained_limit(self):
        assert _gamma_hat(5.0, 0.0) == pytest.approx(0.5)

    def test_hand_value(self):
        assert _gamma_hat(2.0, 1.0) == pytest.approx(0.25)

    def test_large_zeta_limit(self):
        assert _gamma_hat(1e12, 1e-3) == pytest.approx(0.5, abs=1e-12)

    def test_empty_interval_is_infeasible(self):
        assert np.isnan(_gamma_hat(0.5, 1.0))
        for zeta2 in (0.5, 0.05):  # the fair and the upper-endpoint branch
            gamma1, branch = opa(0.5, zeta2, 1.0, 0.01)
            assert branch == Branch.INFEASIBLE
            assert gamma1 == 0.0

    def test_boundary_interval_is_degenerate_not_infeasible(self):
        assert _gamma_hat(1.0, 1.0) == 0.0


class TestGammaFair:
    def test_hand_value_one_third(self):
        value = _gamma_fair(3.0, 3.0)
        assert abs(value - 1.0 / 3.0) < 1e-12
        assert math.log2(1.0 + 3.0 * value) == pytest.approx(1.0, rel=1e-12)
        weak = 3.0 * (1 - value) / (1 + 3.0 * value)
        assert math.log2(1.0 + weak) == pytest.approx(1.0, rel=1e-12)

    def test_small_zeta_limit_is_half(self):
        assert _gamma_fair(1e-12, 1e-12) == pytest.approx(0.5, abs=1e-9)

    def test_large_zeta_limit_is_zero(self):
        assert _gamma_fair(1e12, 1e12) == pytest.approx(0.0, abs=1e-5)

    def test_equalizes_rates_on_random_pairs(self, rng):
        for _ in range(1000):
            z1 = float(10.0 ** rng.uniform(-3, 3))
            z2 = float(10.0 ** rng.uniform(-3, 3))
            g = _gamma_fair(z1, z2)
            r1 = math.log2(1.0 + z1 * g)
            r2 = math.log2(1.0 + z2 * (1.0 - g) / (1.0 + z2 * g))
            assert abs(r1 - r2) < 1e-9 * r1

    def test_strictly_decreasing_in_zeta(self):
        grid = np.logspace(-3, 3, 200)
        values = [_gamma_fair(z, z) for z in grid]
        assert all(0.0 < v < 0.5 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_true_convergence_toward_zero(self):
        # decay is ~ 1/sqrt(zeta): reaching 1e-3 needs zeta ~ 1e6
        assert _gamma_fair(1e7, 1e7) < 1e-3


class TestOpa:
    def test_equal_ratios_take_fair_branch(self):
        gamma1, branch = opa(4.0, 4.0, 1e-3, 0.01)
        assert branch == Branch.FAIR
        assert gamma1 == pytest.approx(_gamma_fair(4.0, 4.0), rel=1e-12)

    def test_strong_ahead_takes_upper_endpoint(self):
        gamma1, branch = opa(10.0, 1.0, 1e-3, 0.01)
        assert branch == Branch.UPPER_ENDPOINT
        assert gamma1 == pytest.approx(_gamma_hat(10.0, 1e-3), rel=1e-12)
        grid_max = pair_rate_grid_max(10.0, 1.0, _gamma_hat(10.0, 1e-3))
        assert pair_rate(10.0, 1.0, gamma1) >= grid_max - 1e-6 * grid_max

    def test_strong_behind_deactivates(self):
        gamma1, branch = opa(1.0, 10.0, 1e-3, 0.01)
        assert branch == Branch.DEACTIVATE
        assert gamma1 == 0.0
        grid_max = pair_rate_grid_max(1.0, 10.0, _gamma_hat(1.0, 1e-3))
        assert pair_rate(1.0, 10.0, 0.0) >= grid_max - 1e-6 * grid_max

    def test_fair_branch_respects_the_feasible_interval(self):
        # the rate-equalizing split would exceed the cancellation endpoint
        gamma1, branch = opa(0.01, 0.01, 1e-3, 0.01)
        cap = _gamma_hat(0.01, 1e-3)
        assert _gamma_fair(0.01, 0.01) > cap
        assert branch == Branch.FAIR
        assert gamma1 == pytest.approx(cap, rel=1e-12)

    def test_infeasible_constraint_gets_its_own_code(self):
        gamma1, branch = opa(0.5, 0.05, 1.0, 0.01)
        assert branch == Branch.INFEASIBLE
        assert gamma1 == 0.0

    def test_deactivation_needs_no_feasible_interval(self):
        # the strong user is switched off before the constraint is consulted
        gamma1, branch = opa(0.5, 5.0, 1.0, 0.01)
        assert branch == Branch.DEACTIVATE
        assert gamma1 == 0.0

    def test_rates_that_round_to_zero_need_no_division(self):
        # log2(1 + zeta) is 0 below zeta ~ 1.1e-16: equal zero rates take the
        # fair branch, and a zero strong rate below a positive weak one is
        # infinitely far from fair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma1, branch = opa(1e-17, 1e-17, 0.0, 0.05)
            assert branch == Branch.FAIR
            assert gamma1 == pytest.approx(_gamma_fair(1e-17, 1e-17), rel=1e-12)
            assert opa(1e-17, 1.0, 0.0, 0.05) == (0.0, Branch.DEACTIVATE)

    def test_cap_ratio_beyond_float_range_is_infeasible(self):
        # p_min / zeta1 = 1e310 does not fit a float: the interval is empty,
        # so the strong-ahead beam is infeasible, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert opa(1e-10, 1e-12, 1e300, 0.05) == (0.0, Branch.INFEASIBLE)
            assert np.isnan(_gamma_hat(1e-10, 1e300))

    def test_optimality_against_grid_search(self, rng):
        for _ in range(200):
            z1 = float(rng.uniform(0.01, 100.0))
            z2 = float(rng.uniform(0.01, 100.0))
            gamma1, _ = opa(z1, z2, 1e-3, 0.0)
            grid_max = pair_rate_grid_max(z1, z2, _gamma_hat(z1, 1e-3))
            assert pair_rate(z1, z2, float(gamma1)) >= grid_max * (1.0 - 1e-6)

    def test_constraints_hold_on_random_inputs(self, rng):
        z1 = 10.0 ** rng.uniform(-2, 2, size=500)
        z2 = 10.0 ** rng.uniform(-2, 2, size=500)
        p_min = 10.0 ** rng.uniform(-4, -2, size=500)
        for a, b, p in zip(z1.tolist(), z2.tolist(), p_min.tolist()):
            gamma1, branch = opa(a, b, p, 0.05)
            assert 0.0 <= gamma1 <= 0.5
            if branch == Branch.INFEASIBLE:
                assert p / a > 1.0
            elif branch != Branch.DEACTIVATE:
                assert (1.0 - 2.0 * gamma1) >= p / a - 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            opa(0.0, 1.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            opa(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 0.0, 0.05)

    @pytest.mark.parametrize("in_array", [False, True])
    @pytest.mark.parametrize("nan_at", [0, 1])
    def test_nan_ratio_rejected(self, nan_at, in_array):
        ratios = [2.0, 1.0]
        ratios[nan_at] = math.nan
        if in_array:
            ratios = [np.array([3.0, r, 0.5]) for r in ratios]
        with pytest.raises(ValueError, match="link ratios must be positive"):
            opa(*ratios, 1e-3, 0.05)

    @pytest.mark.parametrize("in_array", [False, True])
    @pytest.mark.parametrize("zero_at", [0, 1])
    def test_zero_ratio_rejected(self, zero_at, in_array):
        # exactly 0, as the strong and as the weak ratio, is not positive either
        ratios = [2.0, 1.0]
        ratios[zero_at] = 0.0
        if in_array:
            ratios = [np.array([3.0, r, 0.5]) for r in ratios]
        with pytest.raises(ValueError, match="link ratios must be positive"):
            opa(*ratios, 1e-3, 0.05)

    def test_branch_codes_are_distinct(self):
        # an equal value would make one branch an alias of another
        codes = (Branch.DEACTIVATE, Branch.FAIR, Branch.UPPER_ENDPOINT, Branch.INFEASIBLE)
        assert len({int(code) for code in codes}) == 4

    @pytest.mark.parametrize("zeta2, feasible_branch", [(1.0, Branch.UPPER_ENDPOINT), (2.0, Branch.FAIR)])
    def test_codes_on_both_sides_of_p_min_at_zeta1(self, zeta2, feasible_branch):
        # zeta1 = 2 makes p_min / zeta1 exact: feasible up to 1, infeasible past it
        for ratio, branch in [
            (math.nextafter(1.0, 0.0), feasible_branch),
            (1.0, feasible_branch),
            (math.nextafter(1.0, 2.0), Branch.INFEASIBLE),
            (1.25, Branch.INFEASIBLE),
        ]:
            gamma1, got = opa(2.0, zeta2, 2.0 * ratio, 0.05)
            assert got == branch, ratio
            assert gamma1 == (0.0 if ratio >= 1.0 else 0.5 * (1.0 - ratio))

    @given(
        st.lists(
            st.tuples(
                st.floats(1e-3, 1e3),
                st.floats(1e-3, 1e3),
                st.floats(0.5, 2.0),
            ),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_arrays_match_each_beam_alone(self, beams, epsilon):
        # p_min is drawn as a multiple of one beam's zeta1, straddling it, so
        # the infeasible code shows on the fair and the upper-endpoint branch
        zeta1, zeta2, scale = (np.array(v) for v in zip(*beams))
        p_min = float(scale[0] * zeta1[0])
        gamma1, branch = opa(zeta1, zeta2, p_min, epsilon)
        alone = [opa(a, b, p_min, epsilon) for a, b in zip(zeta1.tolist(), zeta2.tolist())]
        assert gamma1.tolist() == [float(g) for g, _ in alone]
        assert branch.tolist() == [int(b) for _, b in alone]


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
    """``(weights, beam_powers)`` of a shared beam at ``own_dir`` and a private one at ``other_dir``."""
    return plan_toward(CFG, [own_dir.theta, other_dir.theta], [own_dir.phi, other_dir.phi], [2, 1], total_power)


class TestPartialCsiZeta:
    def test_los_on_beam_center_puts_full_array_gain_in_the_numerator(self):
        own = Direction(math.pi / 2, 0.0)
        other = Direction(0.9, -0.2)
        plan = two_beam_plan(own, other)
        z = estimated_zeta(own, plan)
        a = channel_matrix(CFG, drop_paths([[(1.0, own)]]))[0]
        weights, powers = plan
        interference = powers[1] * abs(a @ weights[:, 1]) ** 2
        m = CFG.num_elements
        assert z * interference == pytest.approx(powers[0] * m * m, rel=1e-9)

    def test_power_scale_invariance(self):
        own = Direction(1.2, -0.1)
        other = Direction(0.6, -0.3)
        z_small = estimated_zeta(own, two_beam_plan(own, other, 1.0))
        z_large = estimated_zeta(own, two_beam_plan(own, other, 250.0))
        assert z_small == pytest.approx(z_large, rel=1e-12)


class TestOpaPartialCsi:
    def test_identical_directions_take_fair_branch(self):
        d = Direction(1.3, -0.05)
        plan = two_beam_plan(d, Direction(0.4, -0.3))
        _, branch = partial_csi_split(d, d, plan)
        assert branch == Branch.FAIR

    def test_rows_match_each_row_alone(self, rng):
        # one call over every shared beam's rows, as a drop makes it
        dirs = [Direction(rng.uniform(0.4, 2.7), rng.uniform(-0.4, 0.0)) for _ in range(5)]
        plan = plan_toward(CFG, [d.theta for d in dirs], [d.phi for d in dirs], [2, 2, 1, 1, 1], 1.0)
        own = [0, 1, 1, 0, 2]
        together = link_states(np.abs(los_rows(*dirs) @ plan[0]) ** 2, plan[1], own, 0.0)[2]
        alone = [estimated_zeta(d, plan, c) for d, c in zip(dirs, own)]
        # a batched matrix product may round differently in the last bit
        assert together.tolist() == pytest.approx(alone, rel=1e-12)

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
            rows = channel_matrix(
                CFG,
                drop_paths([[(amp * np.exp(1j * phase1), d_strong)], [(amp * np.exp(1j * phase2), d_weak)]]),
            )
            _, _, (z1, z2) = link_states(np.abs(rows @ plan[0]) ** 2, plan[1], [0, 0], noise)
            _, full = opa(z1, z2, 1e-3, 0.05)
            _, partial = partial_csi_split(d_strong, d_weak, plan)
            agreements += full == partial
        assert agreements == 50
