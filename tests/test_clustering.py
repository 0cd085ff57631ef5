import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from nomabeam.array_geometry import eligible_pairs
from nomabeam.clustering import greedy_pairs

from drops import Direction, angle_blocks, angles, array, beta_matrices
from oracles import greedy_pairs_masked


CFG = array(32, 2, 0.5)


def deg(theta, phi):
    return Direction(math.radians(theta), math.radians(phi))


def one_drop(beta, beta0):
    """The pairs of one drop's K x K ``beta``, its eligible pairs listed in (k, u) order."""
    k, u = np.nonzero(np.triu(beta >= beta0, k=1))
    drops, pairs = greedy_pairs((np.zeros_like(k), k, u, beta[k, u]))
    assert not drops.any()
    return pairs


def pair_users(dirs, beta0):
    """The pairs of one drop of users at ``dirs``, from its LOS angles."""
    theta, phi = angles(dirs)
    drops, pairs = greedy_pairs(eligible_pairs(CFG, theta[None], phi[None], beta0))
    assert not drops.any()
    return pairs


class TestGreedyPairs:
    def test_hand_traced_three_users(self):
        # (0,1) has the largest interference; taking it consumes user 0 and 1,
        # leaving nothing eligible.
        beta = np.array([[1.0, 0.9, 0.6], [0.9, 1.0, 0.55], [0.6, 0.55, 1.0]])
        assert one_drop(beta, 0.5).tolist() == [[0, 1]]

    def test_no_pair_above_threshold(self):
        beta = np.full((4, 4), 0.2)
        np.fill_diagonal(beta, 1.0)
        assert one_drop(beta, 0.5).shape == (0, 2)

    def test_threshold_is_inclusive(self):
        beta = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert one_drop(beta, 0.5).tolist() == [[0, 1]]

    def test_tie_breaks_toward_smallest_pair(self):
        beta = np.full((4, 4), 0.1)
        np.fill_diagonal(beta, 1.0)
        beta[0, 3] = beta[3, 0] = 0.8
        beta[1, 2] = beta[2, 1] = 0.8
        assert one_drop(beta, 0.5).tolist() == [[0, 3], [1, 2]]

    @given(
        # few distinct values, so that many eligible pairs tie
        st.integers(1, 12).flatmap(
            lambda k: st.lists(st.sampled_from([0.1, 0.5, 0.6, 0.8, 0.9]), min_size=k * k, max_size=k * k)
        ),
        st.sampled_from([0.5, 0.6, 0.8]),
    )
    def test_matches_the_masked_argmax_on_tied_values(self, values, beta0):
        k = math.isqrt(len(values))
        upper = np.triu(np.array(values).reshape(k, k), k=1)
        beta = upper + upper.T
        np.fill_diagonal(beta, 1.0)
        pairs = one_drop(beta, beta0)
        expected = greedy_pairs_masked(beta, beta0)
        assert pairs.dtype == expected.dtype
        assert pairs.tolist() == expected.tolist()

    def test_consumed_users_free_their_other_candidates(self):
        # after (0,1) is taken, (2,3) is still eligible and gets paired
        beta = np.full((4, 4), 0.0)
        np.fill_diagonal(beta, 1.0)
        beta[0, 1] = beta[1, 0] = 0.9
        beta[1, 2] = beta[2, 1] = 0.85
        beta[2, 3] = beta[3, 2] = 0.7
        assert one_drop(beta, 0.5).tolist() == [[0, 1], [2, 3]]


class TestPairingFromAngles:
    def test_selection_order_and_singletons(self, rng):
        # two users nearly collinear pair up; the third is far away
        dirs = [deg(90, 0), deg(90.5, 0), deg(30, 0)]
        assert pair_users(dirs, 0.5).tolist() == [[0, 1]]

    def test_all_far_apart_gives_pure_singletons(self):
        dirs = [deg(20, 0), deg(60, 0), deg(100, 0), deg(140, 0)]
        pairs = pair_users(dirs, 0.5)
        assert pairs.shape == (0, 2)
        assert np.issubdtype(pairs.dtype, np.integer)

    def test_partition_admissibility_and_greedy_order(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 25))
            dirs = [
                Direction(rng.uniform(0, math.pi), rng.uniform(-math.pi / 2, 0))
                for _ in range(k)
            ]
            pairs = pair_users(dirs, 0.5)
            assert pairs.shape[1] == 2
            assert len(set(pairs.ravel().tolist())) == pairs.size  # no user twice
            assert all(k_ < u for k_, u in pairs.tolist())
            theta, phi = angles(dirs)
            (beta,) = beta_matrices(CFG, theta[None], phi[None])
            selected = [beta[k_, u] for k_, u in pairs.tolist()]
            assert all(b >= 0.5 for b in selected)
            assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(selected, selected[1:]))

    def test_single_user(self):
        assert pair_users([deg(45, -5)], 0.5).shape == (0, 2)


# The sweep's array, a sparse one whose grating lobes tie distinct
# directions at beta = 1, and a single column, whose azimuth factor is 1: a
# user that copies another's elevation ties with it at beta = 1.
BLOCK_ARRAYS = [array(32, 2, 0.5), array(4, 2, 1.5), array(1, 2, 0.5)]


class TestBlockPairing:
    @given(angle_blocks(), st.sampled_from(BLOCK_ARRAYS), st.sampled_from([0.05, 0.5, 0.9]))
    def test_each_drop_pairs_as_it_would_alone(self, block, cfg, beta0):
        theta, phi = block
        beta = beta_matrices(cfg, theta, phi)
        drops, pairs = greedy_pairs(eligible_pairs(cfg, theta, phi, beta0))
        assert drops.dtype == pairs.dtype and drops.shape == pairs.shape[:1] and pairs.shape[1:] == (2,)
        # the pairs come drop after drop, each drop's in selection order
        assert (np.diff(drops) >= 0).all()
        for t in range(len(theta)):
            (alone,) = beta_matrices(cfg, theta[t : t + 1], phi[t : t + 1])
            assert np.array_equal(beta[t], alone)
            expected = greedy_pairs_masked(alone, beta0)
            assert pairs.dtype == expected.dtype
            assert pairs[drops == t].tolist() == expected.tolist()
