import math

import numpy as np
import pytest

from nomabeam.array_geometry import ArrayConfig, Direction, beta_matrix
from nomabeam.clustering import beta_uc, greedy_pairs


CFG = ArrayConfig(32, 2, 0.5)


def deg(theta, phi):
    return Direction(math.radians(theta), math.radians(phi))


class TestGreedyPairs:
    def test_hand_traced_three_users(self):
        # (0,1) has the largest interference; taking it consumes user 0 and 1,
        # leaving nothing eligible.
        beta = np.array([[1.0, 0.9, 0.6], [0.9, 1.0, 0.55], [0.6, 0.55, 1.0]])
        assert greedy_pairs(beta, 0.5).tolist() == [[0, 1]]

    def test_no_pair_above_threshold(self):
        beta = np.full((4, 4), 0.2)
        np.fill_diagonal(beta, 1.0)
        assert greedy_pairs(beta, 0.5).shape == (0, 2)

    def test_threshold_is_inclusive(self):
        beta = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert greedy_pairs(beta, 0.5).tolist() == [[0, 1]]

    def test_tie_breaks_toward_smallest_pair(self):
        beta = np.full((4, 4), 0.1)
        np.fill_diagonal(beta, 1.0)
        beta[0, 3] = beta[3, 0] = 0.8
        beta[1, 2] = beta[2, 1] = 0.8
        assert greedy_pairs(beta, 0.5).tolist() == [[0, 3], [1, 2]]

    def test_consumed_users_free_their_other_candidates(self):
        # after (0,1) is taken, (2,3) is still eligible and gets paired
        beta = np.full((4, 4), 0.0)
        np.fill_diagonal(beta, 1.0)
        beta[0, 1] = beta[1, 0] = 0.9
        beta[1, 2] = beta[2, 1] = 0.85
        beta[2, 3] = beta[3, 2] = 0.7
        assert greedy_pairs(beta, 0.5).tolist() == [[0, 1], [2, 3]]


class TestBetaUc:
    def test_selection_order_and_singletons(self, rng):
        # two users nearly collinear pair up; the third is far away
        dirs = [deg(90, 0), deg(90.5, 0), deg(30, 0)]
        assert beta_uc(dirs, CFG, 0.5).tolist() == [[0, 1]]

    def test_all_far_apart_gives_pure_singletons(self):
        dirs = [deg(20, 0), deg(60, 0), deg(100, 0), deg(140, 0)]
        pairs = beta_uc(dirs, CFG, 0.5)
        assert pairs.shape == (0, 2)
        assert np.issubdtype(pairs.dtype, np.integer)

    def test_partition_admissibility_and_greedy_order(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 25))
            dirs = [
                Direction(rng.uniform(0, math.pi), rng.uniform(-math.pi / 2, 0))
                for _ in range(k)
            ]
            pairs = beta_uc(dirs, CFG, 0.5)
            assert pairs.shape[1] == 2
            assert len(set(pairs.ravel().tolist())) == pairs.size  # no user twice
            assert all(k_ < u for k_, u in pairs.tolist())
            beta = beta_matrix(dirs, CFG)
            selected = [beta[k_, u] for k_, u in pairs.tolist()]
            assert all(b >= 0.5 for b in selected)
            assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(selected, selected[1:]))

    def test_single_user(self):
        assert beta_uc([deg(45, -5)], CFG, 0.5).shape == (0, 2)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            beta_uc([], CFG, 0.5)
        with pytest.raises(ValueError):
            beta_uc([deg(45, 0)], CFG, 1.0)
