import math
from dataclasses import fields

import numpy as np
import pytest

from nomabeam import channel
from nomabeam.array_geometry import ArrayConfig, Direction, beta_metric, steering_matrix
from nomabeam.beamforming import BeamformingPlan
from nomabeam.channel import ChannelParams, DropPaths, InvalidParams, channel_rows, draw_paths

from drops import drop_paths, user_paths

CFG = ArrayConfig(16, 2, 0.5)
MONO = ChannelParams(num_time_clusters_range=(1, 1), paths_per_cluster_range=(1, 1))


def steering(d):
    return steering_matrix(CFG, [d.theta], [d.phi])[0]


class TestGeneration:
    def test_mono_path_params_give_exactly_one_path(self, rng):
        paths = draw_paths(rng, MONO, 100.0, 50)
        assert len(paths.gains) == 50
        assert paths.starts.tolist() == list(range(50))

    def test_rural_defaults_draw_one_or_two_paths_per_cluster(self, rng):
        params = ChannelParams()  # 1-2 time clusters of 1-2 paths
        gains, _ = user_paths(draw_paths(rng, params, 100.0, 400))
        counts = {len(g) for g in gains}
        assert counts <= {1, 2, 3, 4}
        assert 1 in counts and 2 in counts

    def test_same_seed_is_bit_identical(self):
        params = ChannelParams()
        a = draw_paths(np.random.default_rng(7), params, 100.0, 5)
        b = draw_paths(np.random.default_rng(7), params, 100.0, 5)
        for field in fields(DropPaths):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_strongest_path_first(self, rng):
        params = ChannelParams(nlos_gain_offset_db=(-3.0, 3.0))  # scatter may beat LOS
        gains, _ = user_paths(draw_paths(rng, params, 100.0, 200))
        for user in gains:
            mags = [abs(g) for g in user]
            assert mags == sorted(mags, reverse=True)

    def test_azimuth_spans_forward_field_of_view(self, rng):
        paths = draw_paths(rng, MONO, 100.0, 300)
        thetas = paths.theta[paths.starts]
        assert np.all((0.0 <= thetas) & (thetas <= math.pi))
        assert thetas.max() > 2.5 and thetas.min() < 0.5

    def test_nlos_paths_stay_within_angle_spread(self, rng):
        params = ChannelParams(
            num_time_clusters_range=(2, 2), paths_per_cluster_range=(2, 2), angle_spread_deg=5.0
        )
        _, dirs = user_paths(draw_paths(rng, params, 100.0, 50))
        for user in dirs:
            los = user[0]
            for d in user[1:]:
                assert abs(d.theta - los.theta) <= math.radians(5.0) + 1e-9
                assert abs(d.phi - los.phi) <= math.radians(5.0) + 1e-9

    def test_bad_inputs_raise(self, rng):
        with pytest.raises(InvalidParams):
            draw_paths(rng, MONO, 0.0, 1)
        with pytest.raises(InvalidParams):
            ChannelParams(num_time_clusters_range=(2, 1))
        with pytest.raises(InvalidParams):
            ChannelParams(carrier_hz=0.0)
        # a 7000 dB offset underflows the scattered amplitude to exactly 0
        vanishing = ChannelParams(paths_per_cluster_range=(2, 2), nlos_gain_offset_db=(7000.0, 7000.0))
        with pytest.raises(InvalidParams, match="path gain must be nonzero"):
            draw_paths(rng, vanishing, 100.0, 1)


class TestChannelVector:
    def test_single_unit_path_is_conjugate_steering(self):
        d = Direction(0.8, -0.1)
        h = channel_rows(CFG, drop_paths([[(1.0 + 0.0j, d)]]))[0]
        a = steering(d)
        assert np.allclose(h, np.conj(a), atol=1e-12)
        m = CFG.num_elements
        assert abs(np.dot(h, a)) ** 2 == pytest.approx(m * m, rel=1e-12)

    def test_gain_scales_quadratically(self):
        d = Direction(0.8, -0.1)
        alpha = 0.3 - 0.4j
        h = channel_rows(CFG, drop_paths([[(alpha, d)]]))[0]
        a = steering(d)
        m = CFG.num_elements
        assert abs(np.dot(h, a)) ** 2 == pytest.approx(abs(alpha) ** 2 * m * m, rel=1e-12)

    def test_second_path_at_pattern_null_adds_nothing(self):
        # u_az gap of 1/8 sits on the first null of the 16-element axis
        d1 = Direction(math.pi / 2, 0.0)
        d2 = Direction(math.acos(1.0 / 8.0), 0.0)
        assert beta_metric(CFG, d1, d2) < 1e-12
        alpha = 0.5 + 0.2j
        h = channel_rows(CFG, drop_paths([[(alpha, d1), (alpha, d2)]]))[0]
        a1 = steering(d1)
        m = CFG.num_elements
        assert abs(np.dot(h, a1)) ** 2 == pytest.approx(abs(alpha) ** 2 * m * m, rel=1e-9)

    def test_each_row_sums_only_its_own_users_paths(self, rng):
        paths = draw_paths(rng, ChannelParams(), 100.0, 6)
        gains, dirs = user_paths(paths)
        rows = channel_rows(CFG, paths)
        assert rows.shape == (6, CFG.num_elements)
        for row, user_gains, user_dirs in zip(rows, gains, dirs):
            alone = channel_rows(CFG, drop_paths([list(zip(user_gains, user_dirs))]))[0]
            assert np.array_equal(row, alone)

    @pytest.mark.parametrize("block_bytes", [1, 3 * 16 * CFG.num_elements * 4])
    def test_blocks_of_users_give_the_same_rows(self, rng, monkeypatch, block_bytes):
        # one user per block, then a few users per block with a short last block
        paths = draw_paths(rng, ChannelParams(num_time_clusters_range=(1, 2)), 100.0, 7)
        whole = channel_rows(CFG, paths)
        monkeypatch.setattr(channel, "_BLOCK_BYTES", block_bytes)
        assert np.array_equal(channel_rows(CFG, paths), whole)


def unit_plan(w):
    """A one-beam plan with unit normalization and power, so received power is |h w|^2."""
    one = np.ones(1)
    return BeamformingPlan(weights=w[:, np.newaxis], eta=1.0, cluster_powers_pc=one, emitted_powers_Pc=one)


class TestEffectiveGain:
    """Received beam power |h w|^2 of a channel row through one beam."""

    def test_matched_beam_gives_m_squared(self):
        d = Direction(2.0, 0.3)
        a = steering(d)
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
