import math
from dataclasses import fields

import numpy as np
import pytest

from nomabeam import channel
from nomabeam.array_geometry import ArrayConfig, Direction, beta_matrix, steering_matrix
from nomabeam.beamforming import BeamformingPlan
from nomabeam.channel import ChannelParams, DropPaths, InvalidParams, draw_paths

from drops import angles, channel_matrix, drop_paths, user_paths
from oracles import draw_paths_scalar

CFG = ArrayConfig(16, 2, 0.5)
MONO = ChannelParams(num_time_clusters_range=(1, 1), paths_per_cluster_range=(1, 1))


def steering(d):
    return steering_matrix(CFG, [d.theta], [d.phi])[0]


class TestGeneration:
    def test_mono_path_params_give_exactly_one_path(self, rng):
        paths = draw_paths([rng], MONO, 100.0, 50)
        assert len(paths.gains) == 50
        assert paths.starts.tolist() == list(range(50))

    def test_rural_defaults_draw_one_or_two_paths_per_cluster(self, rng):
        params = ChannelParams()  # 1-2 time clusters of 1-2 paths
        gains, _ = user_paths(draw_paths([rng], params, 100.0, 400))
        counts = {len(g) for g in gains}
        assert counts <= {1, 2, 3, 4}
        assert 1 in counts and 2 in counts

    def test_same_seed_is_bit_identical(self):
        params = ChannelParams()
        a = draw_paths([np.random.default_rng(7)], params, 100.0, 5)
        b = draw_paths([np.random.default_rng(7)], params, 100.0, 5)
        for field in fields(DropPaths):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_strongest_path_first(self, rng):
        params = ChannelParams(nlos_gain_offset_db=(-3.0, 3.0))  # scatter may beat LOS
        gains, _ = user_paths(draw_paths([rng], params, 100.0, 200))
        for user in gains:
            mags = [abs(g) for g in user]
            assert mags == sorted(mags, reverse=True)

    def test_azimuth_spans_forward_field_of_view(self, rng):
        paths = draw_paths([rng], MONO, 100.0, 300)
        thetas = paths.theta[paths.starts]
        assert np.all((0.0 <= thetas) & (thetas <= math.pi))
        assert thetas.max() > 2.5 and thetas.min() < 0.5

    def test_nlos_paths_stay_within_angle_spread(self, rng):
        params = ChannelParams(
            num_time_clusters_range=(2, 2), paths_per_cluster_range=(2, 2), angle_spread_deg=5.0
        )
        _, dirs = user_paths(draw_paths([rng], params, 100.0, 50))
        for user in dirs:
            los = user[0]
            for d in user[1:]:
                assert abs(d.theta - los.theta) <= math.radians(5.0) + 1e-9
                assert abs(d.phi - los.phi) <= math.radians(5.0) + 1e-9

    def test_bad_inputs_raise(self, rng):
        with pytest.raises(InvalidParams):
            draw_paths([rng], MONO, 0.0, 1)
        with pytest.raises(InvalidParams):
            ChannelParams(num_time_clusters_range=(2, 1))
        with pytest.raises(InvalidParams):
            ChannelParams(carrier_hz=0.0)
        # a 7000 dB offset underflows the scattered amplitude to exactly 0
        vanishing = ChannelParams(paths_per_cluster_range=(2, 2), nlos_gain_offset_db=(7000.0, 7000.0))
        with pytest.raises(InvalidParams, match="path gain must be nonzero"):
            draw_paths([rng], vanishing, 100.0, 1)


ORACLE_PARAMS = {
    "defaults": ChannelParams(),
    "pinned-counts": ChannelParams(num_time_clusters_range=(2, 2), paths_per_cluster_range=(3, 3)),
    "count-caps": ChannelParams(
        num_time_clusters_range=(1, channel.MAX_TIME_CLUSTERS),
        paths_per_cluster_range=(1, channel.MAX_PATHS_PER_CLUSTER),
    ),
    # scattered paths stronger than line of sight are sorted ahead of it
    "negative-offsets": ChannelParams(paths_per_cluster_range=(2, 3), nlos_gain_offset_db=(-6.0, -1.0)),
    # equal scattered amplitudes: the sort's ties differ in the last bits only
    "equal-offsets": ChannelParams(paths_per_cluster_range=(3, 3), nlos_gain_offset_db=(7.0, 7.0)),
    "no-spread-no-shadowing": ChannelParams(
        paths_per_cluster_range=(2, 3), angle_spread_deg=0.0, shadowing_sigma_db=0.0
    ),
}


class TestScalarOracle:
    """The array generator against the scalar one: same paths, same stream."""

    @pytest.mark.parametrize("name", sorted(ORACLE_PARAMS))
    @pytest.mark.parametrize("k_users", [1, 2, 23])
    def test_paths_and_stream_match_bit_for_bit(self, name, k_users):
        params = ORACLE_PARAMS[name]
        for seed in range(4):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drop = draw_paths([rng], params, 100.0, k_users)
            expected = draw_paths_scalar(oracle_rng, params, 100.0, k_users)
            for field in fields(DropPaths):
                got, want = getattr(drop, field.name), getattr(expected, field.name)
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


# The oracle's configs and the largest multipath draw the loader accepts.
BLOCK_PARAMS = {
    **ORACLE_PARAMS,
    "six-clusters-of-thirty": ChannelParams(
        num_time_clusters_range=(channel.MAX_TIME_CLUSTERS, channel.MAX_TIME_CLUSTERS),
        paths_per_cluster_range=(channel.MAX_PATHS_PER_CLUSTER, channel.MAX_PATHS_PER_CLUSTER),
    ),
}


class TestBlockDraw:
    """A block of drops against the same drops drawn one at a time."""

    @pytest.mark.parametrize("name", sorted(BLOCK_PARAMS))
    @pytest.mark.parametrize("k_users", [1, 2, 23])
    def test_block_is_its_drops_concatenated(self, name, k_users):
        params = BLOCK_PARAMS[name]
        seeds = [3, 1, 4, 15]
        block_rngs = [np.random.default_rng(seed) for seed in seeds]
        alone_rngs = [np.random.default_rng(seed) for seed in seeds]
        block = draw_paths(block_rngs, params, 100.0, k_users)
        drops = [draw_paths([rng], params, 100.0, k_users) for rng in alone_rngs]
        offsets = np.cumsum([0] + [len(drop.gains) for drop in drops[:-1]])
        expected = DropPaths(
            starts=np.concatenate([drop.starts + offset for drop, offset in zip(drops, offsets)]),
            gains=np.concatenate([drop.gains for drop in drops]),
            theta=np.concatenate([drop.theta for drop in drops]),
            phi=np.concatenate([drop.phi for drop in drops]),
        )
        for field in fields(DropPaths):
            got, want = getattr(block, field.name), getattr(expected, field.name)
            assert got.dtype == want.dtype and np.array_equal(got, want), field.name
        for block_rng, alone_rng in zip(block_rngs, alone_rngs):
            assert block_rng.bit_generator.state == alone_rng.bit_generator.state


class TestChannelVector:
    def test_single_unit_path_is_conjugate_steering(self):
        d = Direction(0.8, -0.1)
        h = channel_matrix(CFG, drop_paths([[(1.0 + 0.0j, d)]]))[0]
        a = steering(d)
        assert np.allclose(h, np.conj(a), atol=1e-12)
        m = CFG.num_elements
        assert abs(np.dot(h, a)) ** 2 == pytest.approx(m * m, rel=1e-12)

    def test_gain_scales_quadratically(self):
        d = Direction(0.8, -0.1)
        alpha = 0.3 - 0.4j
        h = channel_matrix(CFG, drop_paths([[(alpha, d)]]))[0]
        a = steering(d)
        m = CFG.num_elements
        assert abs(np.dot(h, a)) ** 2 == pytest.approx(abs(alpha) ** 2 * m * m, rel=1e-12)

    def test_second_path_at_pattern_null_adds_nothing(self):
        # u_az gap of 1/8 sits on the first null of the 16-element axis
        d1 = Direction(math.pi / 2, 0.0)
        d2 = Direction(math.acos(1.0 / 8.0), 0.0)
        assert beta_matrix(*angles([d1, d2]), CFG)[0, 1] < 1e-12
        alpha = 0.5 + 0.2j
        h = channel_matrix(CFG, drop_paths([[(alpha, d1), (alpha, d2)]]))[0]
        a1 = steering(d1)
        m = CFG.num_elements
        assert abs(np.dot(h, a1)) ** 2 == pytest.approx(abs(alpha) ** 2 * m * m, rel=1e-9)

    def test_each_row_sums_only_its_own_users_paths(self, rng):
        paths = draw_paths([rng], ChannelParams(), 100.0, 6)
        gains, dirs = user_paths(paths)
        rows = channel_matrix(CFG, paths)
        assert rows.shape == (6, CFG.num_elements)
        for row, user_gains, user_dirs in zip(rows, gains, dirs):
            alone = channel_matrix(CFG, drop_paths([list(zip(user_gains, user_dirs))]))[0]
            assert np.array_equal(row, alone)

    @pytest.mark.parametrize("block_bytes", [1, 3 * 16 * CFG.num_elements])
    def test_blocks_of_paths_give_the_same_rows(self, rng, monkeypatch, block_bytes):
        # one path per block, then blocks that straddle two path ranks and a
        # short last block
        paths = draw_paths([rng], ChannelParams(num_time_clusters_range=(1, 2)), 100.0, 7)
        whole = channel_matrix(CFG, paths)
        monkeypatch.setattr(channel, "_BLOCK_BYTES", block_bytes)
        assert np.array_equal(channel_matrix(CFG, paths), whole)


def unit_plan(w):
    """A one-beam plan with unit normalization and power, so received power is |h w|^2."""
    return BeamformingPlan(weights=w[:, np.newaxis], eta=1.0, cluster_powers_pc=np.ones(1))


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
