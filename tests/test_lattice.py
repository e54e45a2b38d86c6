import math

import numpy as np
from hypothesis import given, strategies as st

from torusboot import montecarlo
from torusboot.dynamics import Standard, _ball_neighbor_matrix
from torusboot.lattice import ball_size, dependency_offsets, enumerate_ball, l1_norm

from test_dynamics import packed_step


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6))
def test_ball_size_matches_enumeration(d, t):
    assert ball_size(d, t) == len(enumerate_ball(d, t))


def test_ball_size_known_values():
    assert ball_size(2, 1) == 5
    assert ball_size(2, 2) == 13
    assert ball_size(3, 1) == 7
    assert ball_size(1, 4) == 9


def test_enumeration_is_sorted_by_norm_then_lex():
    sites = enumerate_ball(2, 3).sites
    keys = [(l1_norm(s), s) for s in sites]
    assert keys == sorted(keys)
    assert sites[0] == (0, 0)
    # so B_j is a prefix of B_t, site order and neighbour table alike, with
    # B_j's exterior at its sentinel b; protected_set relies on both
    for d in range(1, 5):
        for t in range(4):
            for j in range(t + 1):
                b = ball_size(d, j)
                assert enumerate_ball(d, j).sites == enumerate_ball(d, t).sites[:b]
                np.testing.assert_array_equal(
                    _ball_neighbor_matrix(d, j), np.minimum(_ball_neighbor_matrix(d, t)[:b], b))


def test_index_roundtrip():
    index = enumerate_ball(3, 2)
    for i, s in enumerate(index.sites):
        assert index.index_of[s] == i


def test_ball_norms_within_radius():
    for s in enumerate_ball(2, 4).sites:
        assert l1_norm(s) <= 4


def test_dependency_offsets_excludes_origin():
    offs = dependency_offsets(2, 1)
    assert (0, 0) not in offs
    assert len(offs) == ball_size(2, 3) - 1
    assert all(l1_norm(o) <= 3 for o in offs)


# The torus is a plain grid array: its adjacency is torus_step_grid's on
# the grid's packed words, and its site order is the order
# sample_initial_grid draws in.


def test_torus_sites_count_and_order():
    # n^d sites, drawn in lexicographic order: site x takes the draw whose
    # index is x read as a base-n number
    config = montecarlo.ExperimentConfig(
        d=2, n=8, rule=Standard(2), q=0.5, t_horizon=1, trials=1, master_seed=3
    )
    grid = montecarlo.sample_initial_grid(config, 0)
    assert grid.shape == (8, 8)
    rng = np.random.Generator(np.random.PCG64(montecarlo.trial_seed(3, 0)))
    draws = rng.random(64) < 0.5
    assert all(grid[x, y] == draws[8 * x + y] for x in range(8) for y in range(8))


def test_torus_neighbors_degree_and_multiplicity():
    # degree 4 on a 4x4 torus: a site with its four neighbours infected
    # has count 4, enough for r = 4, and wraps around the edges
    grid = np.zeros((4, 4), dtype=bool)
    grid[1, 0] = grid[3, 0] = grid[0, 1] = grid[0, 3] = True
    assert packed_step(grid, Standard(4))[0, 0]
    # n = 2 folds +e_i and -e_i onto one site, which counts twice: one
    # infected corner gives each of its neighbours 2 infected adjacencies
    n2 = np.zeros((2, 2), dtype=bool)
    n2[0, 0] = True
    assert packed_step(n2, Standard(2)).tolist() == [[True, True], [True, False]]
    assert packed_step(n2, Standard(3)).tolist() == [[True, False], [False, False]]


def test_ball_size_symmetry_in_d_t():
    # the lattice-point count of the l1 ball is symmetric in d and t
    for d in range(1, 5):
        for t in range(1, 5):
            assert ball_size(d, t) == ball_size(t, d)
            assert ball_size(d, t) == sum(
                2**k * math.comb(d, k) * math.comb(t, k) for k in range(0, min(d, t) + 1)
            )
