import math

import numpy as np
import pytest

from nomabeam.array_geometry import steering_matrix
from nomabeam.channel import draw_paths
from nomabeam.link_metrics import link_states, rate, sinr_noma_strong, sinr_noma_weak
from nomabeam.power_allocation import Branch, _gamma_hat, opa
from nomabeam.sim_harness import ScenarioConfig

from drops import Direction, array, channel_matrix, drop_paths, pair_beta, plan_toward, user_paths
from oracles import sinr_dbs_monopath_closed, sinr_dbs_multipath_closed

CFG = array(16, 2, 0.5)


def private_plan(dirs, total_power=1.0):
    """One private beam steered at each direction."""
    theta = [d.theta for d in dirs]
    phi = [d.phi for d in dirs]
    return plan_toward(CFG, theta, phi, np.ones(len(dirs), dtype=int), total_power)


def mono_row(gain, direction):
    """The channel row of a user with one path."""
    return channel_matrix(CFG, drop_paths([[(gain, direction)]]))[0]


def link_state(h, plan, own_beam, noise_w):
    """psi, nu and zeta of one channel row ``h`` served by ``own_beam`` of ``plan = (weights, beam_powers)``."""
    return [float(a[0]) for a in link_states(h[np.newaxis] @ plan[0], plan[1], [own_beam], noise_w)]


class TestComputeLinkState:
    def test_single_cluster_sees_only_noise(self):
        d = Direction(1.0, -0.1)
        plan = private_plan([d])
        h = mono_row(0.5 + 0.1j, d)
        psi, nu, zeta = link_state(h, plan, 0, 1e-9)
        assert nu == pytest.approx(1e-9, rel=1e-12)
        assert zeta == pytest.approx(psi / 1e-9, rel=1e-12)

    def test_null_steered_interferers_leave_noise_only(self):
        # the other beam sits on the first pattern null of this user's LOS
        d_own = Direction(math.pi / 2, 0.0)
        d_other = Direction(math.acos(1.0 / 8.0), 0.0)
        assert pair_beta(CFG, d_own, d_other) < 1e-12
        plan = private_plan([d_own, d_other])
        h = mono_row(1.0, d_own)
        noise = 1e-12
        _, nu, _ = link_state(h, plan, 0, noise)
        assert nu == pytest.approx(noise, rel=1e-6)

    def test_linear_in_power(self):
        dirs = [Direction(1.0, 0.0), Direction(1.4, 0.0), Direction(2.0, 0.0)]
        h = mono_row(0.3, dirs[0])
        noise = 1e-10
        base_psi, base_nu, _ = link_state(h, private_plan(dirs, 1.0), 0, noise)
        psi, nu, _ = link_state(h, private_plan(dirs, 2.0), 0, noise)
        assert psi == pytest.approx(2 * base_psi, rel=1e-12)
        assert nu - noise == pytest.approx(2 * (base_nu - noise), rel=1e-12)


class TestSinrFormulas:
    def test_dbs_is_the_ratio(self):
        dirs = [Direction(1.0, -0.1), Direction(1.5, 0.0)]
        plan = private_plan(dirs)
        h_rows = np.stack([mono_row(3e-4, d) for d in dirs])
        psi, nu, zeta = link_states(h_rows @ plan[0], plan[1], [0, 1], 1e-11)
        assert zeta.tolist() == (psi / nu).tolist()

    def test_strong_user_endpoints_and_hand_value(self):
        assert sinr_noma_strong(4.0, 0.0) == 0.0
        assert sinr_noma_strong(4.0, 1.0) == pytest.approx(4.0)
        assert sinr_noma_strong(4.0, 0.25) == pytest.approx(1.0)

    def test_weak_user_endpoints_and_hand_value(self):
        assert sinr_noma_weak(3.0, 0.0) == pytest.approx(3.0)
        assert sinr_noma_weak(3.0, 1.0) == pytest.approx(0.0)
        assert sinr_noma_weak(3.0, 1.0 / 3.0) == pytest.approx(1.0)

    def test_arrays_match_each_entry_alone(self, rng):
        zeta = 10.0 ** rng.uniform(-3, 3, size=50)
        gamma1 = rng.uniform(0.0, 1.0, size=50)
        for formula in (sinr_noma_strong, sinr_noma_weak):
            together = formula(zeta, gamma1)
            alone = [formula(float(z), float(g)) for z, g in zip(zeta, gamma1)]
            assert together.tolist() == alone

    def test_strong_increases_weak_decreases(self):
        grid = np.linspace(0.0, 1.0, 400)
        strong = [sinr_noma_strong(5.0, g) for g in grid]
        weak = [sinr_noma_weak(5.0, g) for g in grid]
        assert all(b > a for a, b in zip(strong, strong[1:]))
        assert all(b < a for a, b in zip(weak, weak[1:]))

    def test_direct_expression_identity(self, rng):
        # SINRs recomputed straight from channel rows, weights and powers
        dirs = [Direction(rng.uniform(0, math.pi), rng.uniform(-0.5, 0.0)) for _ in range(3)]
        # a shared beam at (1.1, -0.2) for users 0 and 1, a private one for user 2
        plan = plan_toward(CFG, [1.1, dirs[2].theta], [-0.2, dirs[2].phi], [2, 1], 1.0)
        noise = 1e-11
        gamma1 = 0.3
        h_strong = mono_row(2e-4 + 1e-4j, dirs[0])
        h_weak = mono_row(1e-4 - 2e-5j, dirs[1])
        for h, formula in ((h_strong, sinr_noma_strong), (h_weak, sinr_noma_weak)):
            _, _, zeta = link_state(h, plan, 0, noise)
            weights, powers = plan
            own = powers[0] * abs(h @ weights[:, 0]) ** 2
            other = powers[1] * abs(h @ weights[:, 1]) ** 2
            if formula is sinr_noma_strong:
                direct = gamma1 * own / (other + noise)
            else:
                direct = (1 - gamma1) * own / (gamma1 * own + other + noise)
            assert formula(zeta, gamma1) == pytest.approx(direct, rel=1e-9)

    def test_gamma_one_degenerates_to_dbs(self):
        assert sinr_noma_strong(5.0, 1.0) == pytest.approx(5.0, rel=1e-12)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            sinr_noma_strong(1.0, 1.5)
        with pytest.raises(ValueError):
            sinr_noma_weak(np.ones(3), np.array([0.2, -0.1, 0.3]))


class TestSicFeasible:
    """The cancellation constraint (1 - 2*gamma1) >= p_min / zeta1 holds for gamma1 <= gamma_hat."""

    def test_zero_gamma_needs_zeta_above_p_min(self):
        assert _gamma_hat(2.0, 1.0) >= 0.0
        assert np.isnan(_gamma_hat(0.5, 1.0))
        _, branch = opa(0.5, 0.5, 1.0, 0.05)
        assert branch == Branch.INFEASIBLE

    def test_boundary_is_inclusive(self):
        # 1 - 2*0.375 == 0.25/1.0 exactly in binary floating point
        assert _gamma_hat(1.0, 0.25) == 0.375

    def test_hand_infeasible_case(self):
        assert _gamma_hat(2.0, 1.0) < 0.3  # 1 - 2*0.3 = 0.4 < 0.5 = p_min / zeta1


class TestRate:
    def test_values(self):
        assert rate(0.0, 20e6) == 0.0
        assert rate(1.0, 20e6) == pytest.approx(20e6)
        assert rate(3.0, 1.0) == pytest.approx(2.0)

    def test_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            rate(-0.1, 1.0)

    def test_arrays_keep_their_shape_and_each_entry(self, rng):
        sinr = 10.0 ** rng.uniform(-3, 3, size=(3, 4))
        band = np.where(rng.random((3, 4)) < 0.5, 10e6, 20e6)
        got = rate(sinr, band)
        assert got.shape == (3, 4)
        assert got.tolist() == [
            [b * math.log2(1.0 + s) for s, b in zip(s_row, b_row)]
            for s_row, b_row in zip(sinr.tolist(), band.tolist())
        ]

    def test_any_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="sinr must be nonnegative"):
            rate(np.array([[1.0, 2.0], [0.5, -1e-300]]), 1.0)


class TestMonopathClosedForm:
    def test_single_user_is_pure_snr(self):
        d = Direction(1.0, -0.3)
        alpha = 3e-4
        eta_dbs = 1.0 / 32.0
        noise = 1e-10
        m = CFG.num_elements
        got = sinr_dbs_monopath_closed([alpha], [d], 0, eta_dbs, noise, CFG)
        assert got == pytest.approx(m * m * eta_dbs * alpha**2 / noise, rel=1e-12)

    def test_two_users_at_same_direction(self):
        d = Direction(1.0, 0.0)
        alpha = 1e-3
        eta_dbs, noise = 1.0 / 64.0, 1e-9
        m = CFG.num_elements
        sigma_prime = noise / (eta_dbs * alpha**2)
        got = sinr_dbs_monopath_closed([alpha, alpha], [d, d], 0, eta_dbs, noise, CFG)
        assert got == pytest.approx(m * m / (m * m + sigma_prime), rel=1e-12)

    def test_matches_pipeline_on_random_drops(self, rng):
        for _ in range(40):
            k = int(rng.integers(1, 9))
            dirs = [Direction(rng.uniform(0, math.pi), rng.uniform(-0.6, 0.0)) for _ in range(k)]
            gains = rng.uniform(1e-5, 1e-3, size=k) * np.exp(1j * rng.uniform(0, 2 * math.pi, size=k))
            total_power, noise = 1.0, 8.1e-14
            plan = private_plan(dirs, total_power)
            eta_dbs = plan[1][0]
            for own in range(k):
                h = mono_row(gains[own], dirs[own])
                pipeline = link_state(h, plan, own, noise)[2]
                closed = sinr_dbs_monopath_closed(gains, dirs, own, eta_dbs, noise, CFG)
                assert pipeline == pytest.approx(closed, rel=1e-9)


class TestMultipathClosedForm:
    def test_vanishing_scatter_reduces_to_monopath(self):
        d1, d2 = Direction(1.2, -0.1), Direction(0.4, 0.0)
        gains = [[1e-3, 1e-30], [5e-4]]
        dirs = [[d1, Direction(1.3, -0.1)], [d2]]
        eta_dbs, noise = 1.0 / 32.0, 1e-12
        multi = sinr_dbs_multipath_closed(gains, dirs, 0, eta_dbs, noise, CFG)
        mono = sinr_dbs_monopath_closed([1e-3, 5e-4], [d1, d2], 0, eta_dbs, noise, CFG)
        assert multi == pytest.approx(mono, rel=1e-9)

    def test_single_user_two_paths_hand_expansion(self):
        d_los, d_nlos = Direction(1.0, 0.0), Direction(1.15, -0.05)
        a_los = 2e-4 + 0j
        a_nlos = 5e-5 * np.exp(1j * 0.7)
        eta_dbs, noise = 1.0 / 16.0, 1e-11
        v_los, v_nlos = steering_matrix(CFG, [d_los.theta, d_nlos.theta], [d_los.phi, d_nlos.phi])
        numerator = abs(np.vdot(v_los, v_los) + (a_nlos / a_los) * np.vdot(v_nlos, v_los)) ** 2
        expected = numerator / (noise / (eta_dbs * abs(a_los) ** 2))
        closed = sinr_dbs_multipath_closed([[a_los, a_nlos]], [[d_los, d_nlos]], 0, eta_dbs, noise, CFG)
        assert closed == pytest.approx(
            expected, rel=1e-12
        )

    def test_matches_pipeline_on_random_drops(self, rng):
        config = ScenarioConfig()
        for _ in range(40):
            k = int(rng.integers(1, 7))
            paths = draw_paths([rng], config, k)
            gains, dirs = user_paths(paths)
            plan = private_plan([d[0] for d in dirs])
            eta_dbs = plan[1][0]
            noise = 8.1e-14
            rows = channel_matrix(CFG, paths)
            for own in range(k):
                pipeline = link_state(rows[own], plan, own, noise)[2]
                closed = sinr_dbs_multipath_closed(gains, dirs, own, eta_dbs, noise, CFG)
                assert pipeline == pytest.approx(closed, rel=1e-9)
