import math
from dataclasses import fields

import numpy as np
import pytest

from nomabeam import channel, sim_harness
from nomabeam.array_geometry import steering_matrix
from nomabeam.channel import DropPaths, draw_paths
from nomabeam.link_metrics import link_states
from nomabeam.sim_harness import ScenarioConfig

from drops import Direction, array, channel_matrix, drop_paths, pair_beta, user_paths
from oracles import draw_paths_scalar

CFG = array(16, 2, 0.5)
MONO = ScenarioConfig(num_time_clusters=(1, 1), paths_per_cluster=(1, 1))


def steering(d):
    return steering_matrix(CFG, [d.theta], [d.phi])[0]


class TestGeneration:
    def test_mono_path_params_give_exactly_one_path(self, rng):
        paths = draw_paths([rng], MONO, 50)
        assert len(paths.gains) == 50
        assert paths.starts.tolist() == list(range(50))

    def test_rural_defaults_draw_one_or_two_paths_per_cluster(self, rng):
        config = ScenarioConfig()  # 1-2 time clusters of 1-2 paths
        gains, _ = user_paths(draw_paths([rng], config, 400))
        counts = {len(g) for g in gains}
        assert counts <= {1, 2, 3, 4}
        assert 1 in counts and 2 in counts

    def test_same_seed_is_bit_identical(self):
        config = ScenarioConfig()
        a = draw_paths([np.random.default_rng(7)], config, 5)
        b = draw_paths([np.random.default_rng(7)], config, 5)
        for field in fields(DropPaths):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_strongest_path_first(self, rng):
        config = ScenarioConfig(nlos_gain_offset_db=(-3.0, 3.0))  # scatter may beat LOS
        gains, _ = user_paths(draw_paths([rng], config, 200))
        for user in gains:
            mags = [abs(g) for g in user]
            assert mags == sorted(mags, reverse=True)

    def test_azimuth_spans_forward_field_of_view(self, rng):
        paths = draw_paths([rng], MONO, 300)
        thetas = paths.theta[paths.starts]
        assert np.all((0.0 <= thetas) & (thetas <= math.pi))
        assert thetas.max() > 2.5 and thetas.min() < 0.5

    def test_nlos_paths_stay_within_angle_spread(self, rng):
        config = ScenarioConfig(
            num_time_clusters=(2, 2), paths_per_cluster=(2, 2), angle_spread_deg=5.0
        )
        _, dirs = user_paths(draw_paths([rng], config, 50))
        for user in dirs:
            los = user[0]
            for d in user[1:]:
                assert abs(d.theta - los.theta) <= math.radians(5.0) + 1e-9
                assert abs(d.phi - los.phi) <= math.radians(5.0) + 1e-9


ORACLE_CONFIGS = {
    "defaults": ScenarioConfig(),
    "pinned-counts": ScenarioConfig(num_time_clusters=(2, 2), paths_per_cluster=(3, 3)),
    "count-caps": ScenarioConfig(
        num_time_clusters=(1, sim_harness.MAX_TIME_CLUSTERS),
        paths_per_cluster=(1, sim_harness.MAX_PATHS_PER_CLUSTER),
    ),
    # scattered paths stronger than line of sight are sorted ahead of it
    "negative-offsets": ScenarioConfig(paths_per_cluster=(2, 3), nlos_gain_offset_db=(-6.0, -1.0)),
    # equal scattered amplitudes: the sort's ties differ in the last bits only
    "equal-offsets": ScenarioConfig(paths_per_cluster=(3, 3), nlos_gain_offset_db=(7.0, 7.0)),
    "no-spread-no-shadowing": ScenarioConfig(
        paths_per_cluster=(2, 3), angle_spread_deg=0.0, shadowing_sigma_db=0.0
    ),
}


class TestScalarOracle:
    """The array generator against the scalar one: same paths, same stream."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("k_users", [1, 2, 23])
    def test_paths_and_stream_match_bit_for_bit(self, name, k_users):
        config = ORACLE_CONFIGS[name]
        for seed in range(4):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drop = draw_paths([rng], config, k_users)
            expected = draw_paths_scalar(oracle_rng, config, k_users)
            for field in fields(DropPaths):
                got, want = getattr(drop, field.name), getattr(expected, field.name)
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


# The oracle's configs and the largest multipath draw the loader accepts.
BLOCK_CONFIGS = {
    **ORACLE_CONFIGS,
    "six-clusters-of-thirty": ScenarioConfig(
        num_time_clusters=(sim_harness.MAX_TIME_CLUSTERS, sim_harness.MAX_TIME_CLUSTERS),
        paths_per_cluster=(sim_harness.MAX_PATHS_PER_CLUSTER, sim_harness.MAX_PATHS_PER_CLUSTER),
    ),
}


class TestBlockDraw:
    """A block of drops against the same drops drawn one at a time."""

    @pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
    @pytest.mark.parametrize("k_users", [1, 2, 23])
    def test_block_is_its_drops_concatenated(self, name, k_users):
        config = BLOCK_CONFIGS[name]
        seeds = [3, 1, 4, 15]
        block_rngs = [np.random.default_rng(seed) for seed in seeds]
        alone_rngs = [np.random.default_rng(seed) for seed in seeds]
        block = draw_paths(block_rngs, config, k_users)
        drops = [draw_paths([rng], config, k_users) for rng in alone_rngs]
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
        assert pair_beta(CFG, d1, d2) < 1e-12
        alpha = 0.5 + 0.2j
        h = channel_matrix(CFG, drop_paths([[(alpha, d1), (alpha, d2)]]))[0]
        a1 = steering(d1)
        m = CFG.num_elements
        assert abs(np.dot(h, a1)) ** 2 == pytest.approx(abs(alpha) ** 2 * m * m, rel=1e-9)

    def test_each_row_sums_only_its_own_users_paths(self, rng):
        paths = draw_paths([rng], ScenarioConfig(), 6)
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
        paths = draw_paths([rng], ScenarioConfig(num_time_clusters=(1, 2)), 7)
        whole = channel_matrix(CFG, paths)
        monkeypatch.setattr(channel, "_BLOCK_BYTES", block_bytes)
        assert np.array_equal(channel_matrix(CFG, paths), whole)


def received_power(w, h):
    """The weighted beam gain psi of channel row ``h`` through the one beam ``w``
    at unit power, which is |h w|^2.

    With no other beam the noise is the whole denominator of zeta; psi does
    not depend on it."""
    return float(link_states(h[np.newaxis] @ w[:, np.newaxis], np.ones(1), [0], 1.0)[0][0])


class TestEffectiveGain:
    """Received beam power |h w|^2 of a channel row through one beam."""

    def test_matched_beam_gives_m_squared(self):
        d = Direction(2.0, 0.3)
        a = steering(d)
        m = CFG.num_elements
        assert received_power(a, np.conj(a)) == pytest.approx(m * m, rel=1e-12)

    def test_homogeneity(self, rng):
        h = rng.normal(size=8) + 1j * rng.normal(size=8)
        w = rng.normal(size=8) + 1j * rng.normal(size=8)
        base = received_power(w, h)
        assert received_power(w, 2.5j * h) == pytest.approx(abs(2.5j) ** 2 * base, rel=1e-12)

    def test_matches_elementwise_accumulation(self, rng):
        for _ in range(25):
            h = rng.normal(size=12) + 1j * rng.normal(size=12)
            w = rng.normal(size=12) + 1j * rng.normal(size=12)
            acc = 0.0 + 0.0j
            for idx in range(12):
                acc += h[idx] * w[idx]
            assert received_power(w, h) == pytest.approx(abs(acc) ** 2, rel=1e-9)
