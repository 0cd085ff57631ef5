import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomabeam.array_geometry import _RATIO_SLACK, _sin_ratio, eligible_pairs, pattern, steering_matrix

from drops import Direction, angle_blocks, angles, array, pair_beta
from oracles import beta_phasor_sum, random_direction, steering_phasors

BROADSIDE = Direction(math.pi / 2, 0.0)  # both direction cosines vanish

directions = st.builds(
    Direction,
    st.floats(0.0, 2.0 * math.pi - 1e-9),
    st.floats(-math.pi / 2, math.pi / 2),
)
# Every array a scenario holds (M >= 2, since 1 <= K < M) up to 16 x 16.
configs = st.builds(
    lambda shape, d_over_lambda: array(*shape, d_over_lambda),
    st.tuples(st.integers(1, 16), st.integers(1, 16)).filter(lambda shape: shape != (1, 1)),
    st.sampled_from([0.25, 0.5, 1.0]),
)

# The default array, the largest that Tier-1 builds, and a wide spacing.
ORACLE_ARRAYS = [array(32, 2, 0.5), array(64, 8, 0.5), array(16, 4, 10.0)]
ORACLE_IDS = ["32x2", "64x8", "16x4-wide"]


def steering_row(cfg, direction):
    return steering_matrix(cfg, [direction.theta], [direction.phi])[0]


class TestSteeringVector:
    @given(configs, st.lists(directions, min_size=1, max_size=8))
    def test_reference_element_is_one(self, cfg, dirs):
        # element i = j = 0 sits at the phase origin
        rows = steering_matrix(cfg, *angles(dirs))
        assert np.all(rows[:, 0] == 1.0)

    def test_broadside_is_all_ones(self):
        entries = steering_row(array(4, 3, 0.5), BROADSIDE)
        assert np.allclose(entries, 1.0, atol=1e-12)

    def test_two_element_endfire(self):
        # u_az = 1 with half-wavelength spacing: phases 0 and pi
        entries = steering_row(array(2, 1, 0.5), Direction(0.0, 0.0))
        assert np.allclose(entries, [1.0, -1.0], atol=1e-12)

    @given(configs, directions)
    def test_unit_modulus_entries(self, cfg, direction):
        entries = steering_row(cfg, direction)
        assert entries.shape == (cfg.num_elements,)
        assert np.max(np.abs(np.abs(entries) - 1.0)) < 1e-12

    @given(configs, directions)
    def test_self_inner_product_is_element_count(self, cfg, direction):
        entries = steering_row(cfg, direction)
        assert np.vdot(entries, entries).real == pytest.approx(cfg.num_elements, rel=1e-12)

    @pytest.mark.parametrize("cfg", ORACLE_ARRAYS, ids=ORACLE_IDS)
    def test_matches_oracle_phasors(self, cfg, rng):
        # canonical directions, the same ones wrapped by whole turns and
        # negated, and the two poles
        theta = rng.uniform(0.0, 2.0 * math.pi, 16)
        phi = rng.uniform(-math.pi / 2, math.pi / 2, 16)
        turns = rng.integers(-5, 8, 16)
        poles = [math.pi / 2, -math.pi / 2, math.pi / 2, -math.pi / 2]
        theta = np.concatenate([theta, theta + 2.0 * math.pi * turns, -theta, [0.0, 1.3, -2.0, 4.0 * math.pi + 0.5]])
        phi = np.concatenate([phi, phi, phi, poles])
        rows = steering_matrix(cfg, theta, phi)
        expected = np.array([steering_phasors(cfg, Direction(t, p)) for t, p in zip(theta, phi)])
        # An entry's error grows with its index (i + j) up to m_h + m_v - 2
        # (test_recurrence_error_is_linear_in_the_index): across the row, a
        # few ulps of the largest phase, 2*pi*d*(m_h + m_v) radians.
        largest_phase = 2.0 * math.pi * cfg.d_over_lambda * (cfg.m_h + cfg.m_v)
        assert rows.shape == expected.shape
        assert np.max(np.abs(rows - expected)) <= 4 * np.finfo(float).eps * largest_phase

    @pytest.mark.parametrize("cfg", ORACLE_ARRAYS, ids=ORACLE_IDS)
    @given(st.lists(directions, min_size=1, max_size=16))
    def test_recurrence_error_is_linear_in_the_index(self, cfg, dirs):
        # Entry (i, j) is the i-th power of the azimuth step times the j-th
        # power of the elevation step: it carries the rounding of the two
        # steps' exps and of about i + j complex products, a few ulps each,
        # and i (or j) times the rounding of a step's phase 2*pi*d*u (half an
        # ulp of up to 2*pi*d).  The oracle rounds its phase
        # 2*pi*d*(i*u_az + j*u_el) once.  So
        # |a_rec - a_exp| <= (2 + 4*pi*d) * (i + j) * 2**-52, exactly 0 at i = j = 0.
        rows = steering_matrix(cfg, *angles(dirs))
        expected = np.array([steering_phasors(cfg, direction) for direction in dirs])
        index = np.add.outer(np.arange(cfg.m_h), np.arange(cfg.m_v)).ravel()
        bound = (2.0 + 4.0 * math.pi * cfg.d_over_lambda) * index * 2.0**-52
        assert np.all(np.abs(rows - expected) <= bound)


class TestBetaMetric:
    def test_identical_directions_give_one(self):
        cfg = array(8, 4, 0.5)
        d = Direction(0.7, 0.1)
        assert pair_beta(cfg, d, d) == pytest.approx(1.0, abs=1e-12)

    @given(configs, directions, directions)
    def test_symmetry_is_exact(self, cfg, a, b):
        assert pair_beta(cfg, a, b) == pair_beta(cfg, b, a)

    @given(configs, directions, directions)
    def test_range(self, cfg, a, b):
        value = pair_beta(cfg, a, b)
        assert 0.0 <= value <= 1.0 + 1e-12

    def test_two_element_null(self):
        # direction-cosine gap of 1 at half-wavelength spacing: |1 + e^{j pi}| / 2 = 0
        cfg = array(2, 1, 0.5)
        assert pair_beta(cfg, Direction(0.0, 0.0), BROADSIDE) == pytest.approx(0.0, abs=1e-12)

    def test_matches_phasor_sum_on_random_pairs(self, rng):
        for _ in range(300):
            cfg = array(int(rng.integers(1, 65)), int(rng.integers(1, 65)), 0.5)
            a, b = random_direction(rng), random_direction(rng)
            assert pair_beta(cfg, a, b) == pytest.approx(beta_phasor_sum(cfg, a, b), abs=1e-9)

    def test_grating_direction_counts_as_full_interference(self):
        # cosine gap 2 at half-wavelength spacing aliases back onto the beam
        cfg = array(8, 1, 0.5)
        assert pair_beta(cfg, Direction(0.0, 0.0), Direction(math.pi, 0.0)) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_approach_along_azimuth(self):
        cfg = array(32, 2, 0.5)
        target = BROADSIDE
        # approach from just inside the first null (cosine half-width 1/16)
        thetas = np.linspace(math.pi / 2 - 0.06, math.pi / 2, 250)
        values = [pair_beta(cfg, Direction(t, 0.0), target) for t in thetas]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_approach_along_elevation(self):
        cfg = array(32, 2, 0.5)
        target = BROADSIDE
        phis = np.linspace(-0.5, 0.0, 250)
        values = [pair_beta(cfg, Direction(math.pi / 2, p), target) for p in phis]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_pair_pass_agrees_with_each_pair_alone(self, rng):
        cfg = array(16, 4, 0.5)
        dirs = [random_direction(rng) for _ in range(12)]
        theta, phi = angles(dirs)
        _, k, u, beta = eligible_pairs(cfg, theta[None], phi[None], 0.0)
        assert len(beta) == 12 * 11 // 2
        for i, j, value in zip(k.tolist(), u.tolist(), beta.tolist()):
            assert value == pytest.approx(pair_beta(cfg, dirs[i], dirs[j]), abs=1e-12)


# No azimuth filtering (one column), one or two array rows, grating lobes at
# 1.5 wavelengths, and the massive array.
PAIR_PASS_ARRAYS = [
    array(1, 16, 0.5),
    array(8, 1, 0.5),
    array(16, 2, 0.5),
    array(4, 2, 1.5),
    array(64, 8, 0.5),
]


class TestPairPass:
    """``eligible_pairs`` evaluates the pattern only where the azimuth factor can reach beta0."""

    @given(angle_blocks(), st.sampled_from(PAIR_PASS_ARRAYS), st.data())
    def test_filter_loses_no_pair_that_reaches_beta0(self, block, cfg, data):
        theta, phi = block
        n_drops, k_users = theta.shape
        t, k, u, beta = eligible_pairs(cfg, theta, phi, 0.0)
        # threshold 0 filters nothing: every pair k < u of every drop, in order
        assert list(zip(t.tolist(), k.tolist(), u.tolist())) == [
            (d, a, b) for d in range(n_drops) for a in range(k_users) for b in range(a + 1, k_users)
        ]
        thresholds = [0.05, 0.5, 0.9]
        attained = sorted(set(beta[beta > 0.0].tolist()))
        if attained:
            thresholds.append(data.draw(st.sampled_from(attained)))  # the threshold is inclusive
        for beta0 in thresholds:
            keep = beta >= beta0
            got_t, got_k, got_u, got_beta = eligible_pairs(cfg, theta, phi, beta0)
            assert np.array_equal(got_t, t[keep]) and np.array_equal(got_k, k[keep])
            assert np.array_equal(got_u, u[keep])
            assert got_beta.tobytes() == beta[keep].tobytes()

    @given(
        angle_blocks(drops=(1, 4), users=(2, 12)),
        st.sampled_from(PAIR_PASS_ARRAYS[1:4]),  # 8x1, 16x2 and 4x2 at 1.5 wavelengths
        st.sampled_from([0.0, 0.5]),
    )
    def test_betas_are_the_pattern_on_the_gathered_angles(self, block, cfg, beta0):
        # the pass reuses its pre-filter's direction cosines; pattern starts from the angles
        theta, phi = block
        t, k, u, beta = eligible_pairs(cfg, theta, phi, beta0)
        assert np.array_equal(beta, pattern(cfg, theta[t, u], phi[t, u], theta[t, k], phi[t, k]))

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 64, 4096])
    def test_sin_ratio_exceeds_one_by_less_than_the_slack(self, m):
        # The rounded ratio is largest just off the points n pi where sin(x)
        # vanishes, near |sin(x)| = 1e-12; a ten-wavelength spacing reaches
        # |x| = 20 pi.
        gaps = np.logspace(-13, -1, 400)
        centers = np.arange(-20, 21) * math.pi
        x = (centers[:, None] + np.concatenate([-gaps, [0.0], gaps])).ravel()
        assert np.max(np.abs(_sin_ratio(m, x))) <= 1.0 + _RATIO_SLACK


class TestArrayFactor:
    """The pattern of a steered beam at a probe direction, as ``pattern`` gives it."""

    def test_probe_at_beam_is_one(self):
        cfg = array(16, 2, 0.5)
        beam = Direction(1.0, -0.2)
        offsets = np.zeros(1)
        held = np.full_like(offsets, beam.theta), np.full_like(offsets, beam.phi)
        # the azimuth and the elevation cut, each at offset 0
        for theta, phi in ((beam.theta + offsets, held[1]), (held[0], beam.phi + offsets)):
            assert (theta[0], phi[0]) == (beam.theta, beam.phi)
            assert pattern(cfg, *beam, theta, phi)[0] == pytest.approx(1.0, abs=1e-12)

    @given(configs, directions, st.floats(-math.pi / 2, math.pi / 2), st.sampled_from(["az", "el"]))
    def test_equals_swapped_beta(self, cfg, beam, offset, axis):
        moved = Direction(beam.theta + offset, beam.phi) if axis == "az" else Direction(beam.theta, beam.phi + offset)
        values = pattern(cfg, *beam, *angles([moved]))
        assert values[0] == pair_beta(cfg, moved, beam)

    def test_monotone_decrease_inside_main_lobe(self):
        cfg = array(32, 2, 0.5)
        offsets = np.linspace(0.0, 0.06, 300)
        values = pattern(cfg, *BROADSIDE, BROADSIDE.theta + offsets, np.full_like(offsets, BROADSIDE.phi))
        assert np.all(np.diff(values) <= 1e-12)
        assert values[-1] < 0.5 < values[0]

    @given(configs, st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.data())
    def test_broadcast_entries_have_their_bits_alone_and_swap(self, cfg, n_drops, n_rows, n_beams, data):
        # T x 1 x C beams probed at T x R x 1 directions, as partial CSI probes
        # each drop's beams at its paired users
        def block(shape):
            picked = data.draw(st.lists(directions, min_size=math.prod(shape), max_size=math.prod(shape)))
            return (np.reshape(a, shape) for a in angles(picked))

        beam_theta, beam_phi = block((n_drops, 1, n_beams))
        theta, phi = block((n_drops, n_rows, 1))
        values = pattern(cfg, beam_theta, beam_phi, theta, phi)
        assert values.shape == (n_drops, n_rows, n_beams)
        for t, r, c in np.ndindex(values.shape):
            alone = pattern(cfg, beam_theta[t, :, c], beam_phi[t, :, c], theta[t, r], phi[t, r])
            assert alone.tobytes() == values[t, r, c : c + 1].tobytes()
        assert pattern(cfg, theta, phi, beam_theta, beam_phi).tobytes() == values.tobytes()
