import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomabeam.array_geometry import (
    ArrayConfig,
    Direction,
    beta_matrix,
    pattern_cut,
    steering_matrix,
)

from drops import angles
from oracles import beta_phasor_sum, random_direction, steering_phasors

BROADSIDE = Direction(math.pi / 2, 0.0)  # both direction cosines vanish

directions = st.builds(
    Direction,
    st.floats(0.0, 2.0 * math.pi - 1e-9),
    st.floats(-math.pi / 2, math.pi / 2),
)
configs = st.builds(
    ArrayConfig,
    st.integers(1, 16),
    st.integers(1, 16),
    st.sampled_from([0.25, 0.5, 1.0]),
)


def steering_row(cfg, direction):
    return steering_matrix(cfg, [direction.theta], [direction.phi])[0]


class TestSteeringVector:
    def test_single_element_is_one(self):
        entries = steering_row(ArrayConfig(1, 1, 0.5), Direction(1.2, -0.4))
        assert entries.shape == (1,)
        assert entries[0] == pytest.approx(1.0)

    def test_broadside_is_all_ones(self):
        entries = steering_row(ArrayConfig(4, 3, 0.5), BROADSIDE)
        assert np.allclose(entries, 1.0, atol=1e-12)

    def test_two_element_endfire(self):
        # u_az = 1 with half-wavelength spacing: phases 0 and pi
        entries = steering_row(ArrayConfig(2, 1, 0.5), Direction(0.0, 0.0))
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

    @pytest.mark.parametrize(
        "cfg",
        [ArrayConfig(32, 2, 0.5), ArrayConfig(64, 8, 0.5), ArrayConfig(16, 4, 10.0)],
        ids=["32x2", "64x8", "16x4-wide"],
    )
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
        # An entry's error is the rounding of its phase, which reaches about
        # 2*pi*d*(m_h + m_v) radians: a few ulps of that.
        largest_phase = 2.0 * math.pi * cfg.d_over_lambda * (cfg.m_h + cfg.m_v)
        assert rows.shape == expected.shape
        assert np.max(np.abs(rows - expected)) <= 4 * np.finfo(float).eps * largest_phase

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(0, 4, 0.5)
        with pytest.raises(ValueError):
            ArrayConfig(4, 4, 0.0)


class TestBetaMetric:
    def test_identical_directions_give_one(self):
        cfg = ArrayConfig(8, 4, 0.5)
        d = Direction(0.7, 0.1)
        assert beta_matrix(*angles([d, d]), cfg)[0, 1] == pytest.approx(1.0, abs=1e-12)

    @given(configs, directions, directions)
    def test_symmetry_is_exact(self, cfg, a, b):
        assert beta_matrix(*angles([a, b]), cfg)[0, 1] == beta_matrix(*angles([b, a]), cfg)[0, 1]

    @given(configs, directions, directions)
    def test_range(self, cfg, a, b):
        value = beta_matrix(*angles([a, b]), cfg)[0, 1]
        assert 0.0 <= value <= 1.0 + 1e-12

    def test_two_element_null(self):
        # direction-cosine gap of 1 at half-wavelength spacing: |1 + e^{j pi}| / 2 = 0
        cfg = ArrayConfig(2, 1, 0.5)
        assert beta_matrix(*angles([Direction(0.0, 0.0), BROADSIDE]), cfg)[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_phasor_sum_on_random_pairs(self, rng):
        for _ in range(300):
            cfg = ArrayConfig(int(rng.integers(1, 65)), int(rng.integers(1, 65)), 0.5)
            a, b = random_direction(rng), random_direction(rng)
            assert beta_matrix(*angles([a, b]), cfg)[0, 1] == pytest.approx(beta_phasor_sum(cfg, a, b), abs=1e-9)

    def test_grating_direction_counts_as_full_interference(self):
        # cosine gap 2 at half-wavelength spacing aliases back onto the beam
        cfg = ArrayConfig(8, 1, 0.5)
        assert beta_matrix(*angles([Direction(0.0, 0.0), Direction(math.pi, 0.0)]), cfg)[0, 1] == pytest.approx(
            1.0, abs=1e-9
        )

    def test_monotone_approach_along_azimuth(self):
        cfg = ArrayConfig(32, 2, 0.5)
        target = BROADSIDE
        # approach from just inside the first null (cosine half-width 1/16)
        thetas = np.linspace(math.pi / 2 - 0.06, math.pi / 2, 250)
        values = [beta_matrix(*angles([Direction(t, 0.0), target]), cfg)[0, 1] for t in thetas]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_approach_along_elevation(self):
        cfg = ArrayConfig(32, 2, 0.5)
        target = BROADSIDE
        phis = np.linspace(-0.5, 0.0, 250)
        values = [beta_matrix(*angles([Direction(math.pi / 2, p), target]), cfg)[0, 1] for p in phis]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_beta_matrix_agrees_with_each_pair_alone(self, rng):
        cfg = ArrayConfig(16, 4, 0.5)
        dirs = [random_direction(rng) for _ in range(12)]
        theta, phi = angles(dirs)
        matrix = beta_matrix(theta, phi, cfg)
        assert matrix.shape == (12, 12)
        for i in range(12):
            for j in range(12):
                alone = beta_matrix(theta[[i, j]], phi[[i, j]], cfg)[0, 1]
                assert matrix[i, j] == pytest.approx(alone, abs=1e-12)


class TestArrayFactor:
    """The pattern of a steered beam along one axis, as ``pattern_cut`` gives it."""

    def test_probe_at_beam_is_one(self):
        cfg = ArrayConfig(16, 2, 0.5)
        beam = Direction(1.0, -0.2)
        for axis in ("az", "el"):
            theta, phi, values = pattern_cut(cfg, beam, axis, np.zeros(1))
            assert (theta[0], phi[0]) == (beam.theta, beam.phi)
            assert values[0] == pytest.approx(1.0, abs=1e-12)

    @given(configs, directions, st.floats(-math.pi / 2, math.pi / 2), st.sampled_from(["az", "el"]))
    def test_equals_swapped_beta(self, cfg, beam, offset, axis):
        theta, phi, values = pattern_cut(cfg, beam, axis, np.array([offset]))
        probe = Direction(float(theta[0]), float(phi[0]))
        assert values[0] == beta_matrix(*angles([probe, beam]), cfg)[0, 1]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            pattern_cut(ArrayConfig(4, 4, 0.5), BROADSIDE, "x", np.zeros(1))

    def test_monotone_decrease_inside_main_lobe(self):
        cfg = ArrayConfig(32, 2, 0.5)
        _, _, values = pattern_cut(cfg, BROADSIDE, "az", np.linspace(0.0, 0.06, 300))
        assert np.all(np.diff(values) <= 1e-12)
        assert values[-1] < 0.5 < values[0]
