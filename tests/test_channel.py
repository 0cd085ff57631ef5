import math

import numpy as np
import pytest

from nomabeam.array_geometry import ArrayConfig, Direction, beta_metric, steering_matrix
from nomabeam.beamforming import BeamformingPlan
from nomabeam.channel import (
    ChannelParams,
    InvalidParams,
    PathComponent,
    UserChannel,
    channel_vector,
    generate_user_channel,
)

CFG = ArrayConfig(16, 2, 0.5)
MONO = ChannelParams(num_time_clusters_range=(1, 1), paths_per_cluster_range=(1, 1))


class TestGeneration:
    def test_mono_path_params_give_exactly_one_path(self, rng):
        for _ in range(50):
            uc = generate_user_channel(rng, CFG, MONO, 100.0)
            assert uc.num_paths == 1

    def test_rural_defaults_draw_one_or_two_paths_per_cluster(self, rng):
        params = ChannelParams()  # 1-2 time clusters of 1-2 paths
        counts = {generate_user_channel(rng, CFG, params, 100.0).num_paths for _ in range(400)}
        assert counts <= {1, 2, 3, 4}
        assert 1 in counts and 2 in counts

    def test_same_seed_is_bit_identical(self):
        params = ChannelParams()
        a = generate_user_channel(np.random.default_rng(7), CFG, params, 100.0)
        b = generate_user_channel(np.random.default_rng(7), CFG, params, 100.0)
        assert a == b

    def test_strongest_path_first(self, rng):
        params = ChannelParams(nlos_gain_offset_db=(-3.0, 3.0))  # scatter may beat LOS
        for _ in range(200):
            uc = generate_user_channel(rng, CFG, params, 100.0)
            mags = [abs(p.gain) for p in uc.paths]
            assert mags[0] == max(mags)

    def test_azimuth_spans_forward_field_of_view(self, rng):
        thetas = [
            generate_user_channel(rng, CFG, MONO, 100.0).los.direction.theta for _ in range(300)
        ]
        assert all(0.0 <= t <= math.pi for t in thetas)
        assert max(thetas) > 2.5 and min(thetas) < 0.5

    def test_nlos_paths_stay_within_angle_spread(self, rng):
        params = ChannelParams(
            num_time_clusters_range=(2, 2), paths_per_cluster_range=(2, 2), angle_spread_deg=5.0
        )
        for _ in range(50):
            uc = generate_user_channel(rng, CFG, params, 100.0)
            los = uc.los.direction
            for path in uc.paths[1:]:
                assert abs(path.direction.theta - los.theta) <= math.radians(5.0) + 1e-9
                assert abs(path.direction.phi - los.phi) <= math.radians(5.0) + 1e-9

    def test_bad_inputs_raise(self, rng):
        with pytest.raises(InvalidParams):
            generate_user_channel(rng, CFG, MONO, 0.0)
        with pytest.raises(InvalidParams):
            ChannelParams(num_time_clusters_range=(2, 1))
        with pytest.raises(InvalidParams):
            ChannelParams(carrier_hz=0.0)

    def test_user_channel_ordering_enforced(self):
        d = Direction(1.0, 0.0)
        with pytest.raises(InvalidParams):
            UserChannel(
                paths=(PathComponent(0.1, d), PathComponent(1.0, d)),
                range_m=50.0,
            )


class TestChannelVector:
    def test_single_unit_path_is_conjugate_steering(self):
        d = Direction(0.8, -0.1)
        uc = UserChannel(paths=(PathComponent(1.0 + 0.0j, d),), range_m=10.0)
        h = channel_vector(uc, CFG)
        a = steering_matrix(CFG, [d])[0]
        assert np.allclose(h, np.conj(a), atol=1e-12)
        m = CFG.num_elements
        assert abs(np.dot(h, a)) ** 2 == pytest.approx(m * m, rel=1e-12)

    def test_gain_scales_quadratically(self):
        d = Direction(0.8, -0.1)
        alpha = 0.3 - 0.4j
        uc = UserChannel(paths=(PathComponent(alpha, d),), range_m=10.0)
        h = channel_vector(uc, CFG)
        a = steering_matrix(CFG, [d])[0]
        m = CFG.num_elements
        assert abs(np.dot(h, a)) ** 2 == pytest.approx(abs(alpha) ** 2 * m * m, rel=1e-12)

    def test_second_path_at_pattern_null_adds_nothing(self):
        # u_az gap of 1/8 sits on the first null of the 16-element axis
        d1 = Direction(math.pi / 2, 0.0)
        d2 = Direction(math.acos(1.0 / 8.0), 0.0)
        assert beta_metric(CFG, d1, d2) < 1e-12
        alpha = 0.5 + 0.2j
        uc = UserChannel(
            paths=(PathComponent(alpha, d1), PathComponent(alpha, d2)), range_m=10.0
        )
        h = channel_vector(uc, CFG)
        a1 = steering_matrix(CFG, [d1])[0]
        m = CFG.num_elements
        assert abs(np.dot(h, a1)) ** 2 == pytest.approx(abs(alpha) ** 2 * m * m, rel=1e-9)


def unit_plan(w):
    """A one-beam plan with unit normalization and power, so received power is |h w|^2."""
    return BeamformingPlan(weights=(w,), eta=1.0, cluster_powers_pc=(1.0,), emitted_powers_Pc=(1.0,))


class TestEffectiveGain:
    """Received beam power |h w|^2 of a channel row through one beam."""

    def test_matched_beam_gives_m_squared(self):
        d = Direction(2.0, 0.3)
        a = steering_matrix(CFG, [d])[0]
        m = CFG.num_elements
        assert unit_plan(a).received_powers(np.conj(a))[0] == pytest.approx(m * m, rel=1e-12)

    def test_homogeneity(self, rng):
        h = rng.normal(size=8) + 1j * rng.normal(size=8)
        w = rng.normal(size=8) + 1j * rng.normal(size=8)
        plan = unit_plan(w)
        base = plan.received_powers(h)[0]
        assert plan.received_powers(2.5j * h)[0] == pytest.approx(abs(2.5j) ** 2 * base, rel=1e-12)

    def test_matches_elementwise_accumulation(self, rng):
        for _ in range(25):
            h = rng.normal(size=12) + 1j * rng.normal(size=12)
            w = rng.normal(size=12) + 1j * rng.normal(size=12)
            acc = 0.0 + 0.0j
            for idx in range(12):
                acc += h[idx] * w[idx]
            assert unit_plan(w).received_powers(h)[0] == pytest.approx(abs(acc) ** 2, rel=1e-9)
