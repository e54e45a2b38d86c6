import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import column_sites, evolve_boolean, protected_row

from torusboot import dynamics
from torusboot.dynamics import (
    Modified,
    Standard,
    ball_state,
    evolve_finite_batch,
    is_origin_protected,
    neighbor_matrix,
    protected_set,
    torus_run,
    torus_step_grid,
)
from torusboot.lattice import ball_size, enumerate_ball, l1_norm


def reference_step(infected, rule):
    """One synchronous update of a boolean torus grid by np.roll, the dense
    step the packed torus_step_grid replaced.

    np.roll on an n=2 axis folds x+e_i and x-e_i onto the same site, so the
    summed count honours adjacency multiplicity on degenerate tori.
    """
    d = infected.ndim
    if isinstance(rule, Standard):
        count = np.zeros(infected.shape, dtype=np.uint8)
        for ax in range(d):
            count += np.roll(infected, 1, axis=ax)
            count += np.roll(infected, -1, axis=ax)
        return infected | (count >= rule.r)
    ok = np.ones(infected.shape, dtype=bool)
    for ax in range(d):
        ok &= np.roll(infected, 1, axis=ax) | np.roll(infected, -1, axis=ax)
    return infected | ok


def packed_step(infected, rule):
    """One torus_step_grid step of a boolean grid, through its packed words."""
    n = infected.shape[-1]
    words = torus_step_grid(dynamics._pack_uninfected(infected), n, rule)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=-1, count=n, bitorder="little")
    return ~bits.astype(bool)


grids = st.integers(min_value=4, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(grids)
@settings(max_examples=60)
def test_step_is_monotone_in_time(grid):
    grid = np.asarray(grid, dtype=bool)
    for rule in (Standard(2), Modified()):
        assert np.all(grid <= packed_step(grid, rule))


@given(
    st.integers(min_value=4, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=60)
def test_step_is_monotone_in_initial_set(pair):
    g1, g2 = pair
    a = np.asarray(g1, dtype=bool)
    b = np.asarray(g2, dtype=bool)
    lower, upper = a & b, a
    for rule in (Standard(2), Modified()):
        s_low = packed_step(lower, rule)
        s_up = packed_step(upper, rule)
        assert np.all(s_low <= s_up)


@given(grids)
@settings(max_examples=40)
def test_percolation_time_is_consistent_with_counts(grid):
    grid = np.asarray(grid, dtype=bool)
    counts = torus_run(grid, Standard(2))
    steps, uninfected = len(counts) - 1, counts[-1]
    if uninfected == 0:
        assert torus_run(grid, Standard(2), steps)[-1] == 0
        if steps > 0:
            assert torus_run(grid, Standard(2), steps - 1)[-1] > 0
    else:
        # a fixpoint: one more step changes nothing
        assert torus_run(grid, Standard(2), steps + 1) == counts
    for t in range(steps + 1):
        assert torus_run(grid, Standard(2), t) == counts[: t + 1]


def test_check_rule_refuses_d_below_1_for_both_rules():
    for d in (0, -1):
        for rule in (Standard(1), Modified()):
            with pytest.raises(ValueError, match=f"d must be >= 1, got {d}"):
                dynamics.check_rule(rule, d)
    with pytest.raises(ValueError, match="r=5"):
        dynamics.check_rule(Standard(5), 2)
    dynamics.check_rule(Standard(2), 1)
    dynamics.check_rule(Modified(), 1)


def test_full_and_empty_grids():
    assert torus_run(np.ones((4, 4), dtype=bool), Standard(2)) == (0,)
    assert torus_run(np.zeros((4, 4), dtype=bool), Standard(2)) == (16,)


def test_single_uninfected_site_is_eaten():
    grid = np.ones((5, 5), dtype=bool)
    grid[2, 2] = False
    assert torus_run(grid, Standard(2)) == (1, 0)


def reference_torus_run(infected, rule, max_steps=None):
    """The dense loop torus_run replaced: every step through reference_step,
    counted with .sum(); the uninfected counts after 0, 1, ... steps."""
    steps = 0
    current = infected
    n_inf = int(current.sum())
    counts = [current.size - n_inf]
    while n_inf < current.size and (max_steps is None or steps < max_steps):
        nxt = reference_step(current, rule)
        n_next = int(nxt.sum())
        if n_next == n_inf:
            break
        current, n_inf = nxt, n_next
        steps += 1
        counts.append(current.size - n_inf)
    return tuple(counts)


def rule_for(d, code):
    """Modified for code 0, else Standard(r) with r = code in 1..2d."""
    return Modified() if code == 0 else Standard(code)


def torus_sides(d):
    """1..12, and at d <= 2 also sides either side of the packed rows' 64-bit word boundaries."""
    small = st.integers(1, 12)
    return small | st.sampled_from([63, 64, 65, 127, 128, 129]) if d <= 2 else small


torus_cases = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.just(d),
        torus_sides(d),
        st.integers(0, 2 * d),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
)


@given(case=torus_cases, max_steps=st.sampled_from([None, 0, 1, 2, 3, 4]))
@settings(max_examples=300, deadline=None)
def test_torus_run_matches_dense_reference(case, max_steps):
    d, n, code, q, seed = case
    rule = rule_for(d, code)
    grid = np.random.default_rng(seed).random((n,) * d) < 1.0 - q
    before = grid.copy()
    got = torus_run(grid, rule, max_steps)
    assert got == reference_torus_run(grid, rule, max_steps)
    assert all(type(c) is int for c in got)
    np.testing.assert_array_equal(grid, before)  # the caller's grid is never written


@pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_torus_run_matches_dense_reference_on_every_small_grid(d, n):
    # every grid of the torus, under every rule, from the start to the end of its run
    rules = [rule_for(d, code) for code in range(2 * d + 1)]
    for bits in itertools.product((False, True), repeat=n**d):
        grid = np.array(bits, dtype=bool).reshape((n,) * d)
        for rule in rules:
            assert torus_run(grid, rule) == reference_torus_run(grid, rule), (bits, rule)


@pytest.mark.parametrize("rule", [Standard(2), Modified()], ids=["standard", "modified"])
def test_torus_run_matches_dense_reference_on_regime_grids(rule):
    from torusboot import montecarlo, verify

    q = verify.poisson_regime_q(512) if isinstance(rule, Standard) else verify.modified_regime_q(512)
    config = montecarlo.ExperimentConfig(
        d=2, n=512, rule=rule, q=q, t_horizon=1, trials=100, master_seed=verify.MASTER_SEED
    )
    for i in range(config.trials):
        grid = montecarlo.sample_initial_grid(config, i)
        assert torus_run(grid, rule) == reference_torus_run(grid, rule)


def _pinned_grids():
    full = np.ones((4, 4), dtype=bool)
    empty = np.zeros((4, 4), dtype=bool)
    hole = np.ones((5, 5), dtype=bool)
    hole[2, 2] = False
    row = np.ones((6, 6), dtype=bool)
    row[2, :] = False
    n2 = np.zeros((2, 2), dtype=bool)
    n2[0, 0] = True
    out = {"full": (full, Standard(2)), "empty": (empty, Standard(2)), "hole": (hole, Standard(2)),
           "row_r3": (row, Standard(3)), "row_mod": (row, Modified()), "n2": (n2, Standard(2))}
    rng = np.random.default_rng(11)
    for i, (n, q, rule) in enumerate([(2, 0.5, Standard(1)), (3, 0.6, Standard(2)), (8, 0.5, Standard(2)),
                                       (16, 0.3, Standard(3)), (16, 0.6, Modified()), (32, 0.45, Standard(2)),
                                       (32, 0.7, Modified()), (64, 0.1, Standard(3)), (64, 0.15, Modified())]):
        out[f"random{i}"] = (rng.random((n, n)) < 1.0 - q, rule)
    for name, shape, q, rule in [("cube_r4", (12, 12, 12), 0.3, Standard(4)), ("cube_mod", (12, 12, 12), 0.2, Modified()),
                                 ("line_r2", (4096,), 0.03, Standard(2))]:
        out[name] = (rng.random(shape) < 1.0 - q, rule)
    return out


# name: (T or None when stuck, torus_step_grid calls for T,
#        [(F_t, torus_step_grid calls) for t = 0..5]), recorded from the
# dense loop, whose every step was one torus_step_grid call, as every
# packed step is
PINNED_RUNS = {
    "full": (0, 0, [(0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)]),
    "empty": (None, 1, [(16, 0), (16, 1), (16, 1), (16, 1), (16, 1), (16, 1)]),
    "hole": (1, 1, [(1, 0), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1)]),
    "row_r3": (None, 1, [(6, 0), (6, 1), (6, 1), (6, 1), (6, 1), (6, 1)]),
    "row_mod": (None, 1, [(6, 0), (6, 1), (6, 1), (6, 1), (6, 1), (6, 1)]),
    "n2": (2, 2, [(3, 0), (1, 1), (0, 2), (0, 2), (0, 2), (0, 2)]),
    "random0": (1, 1, [(1, 0), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1)]),
    "random1": (2, 2, [(5, 0), (2, 1), (0, 2), (0, 2), (0, 2), (0, 2)]),
    "random2": (2, 2, [(25, 0), (3, 1), (0, 2), (0, 2), (0, 2), (0, 2)]),
    "random3": (None, 6, [(71, 0), (28, 1), (13, 2), (7, 3), (5, 4), (4, 5)]),
    "random4": (6, 6, [(155, 0), (95, 1), (57, 2), (28, 3), (14, 4), (5, 5)]),
    "random5": (3, 3, [(453, 0), (90, 1), (7, 2), (0, 3), (0, 3), (0, 3)]),
    "random6": (13, 13, [(704, 0), (523, 1), (408, 2), (306, 3), (221, 4), (152, 5)]),
    "random7": (None, 4, [(402, 0), (18, 1), (5, 2), (4, 3), (4, 4), (4, 4)]),
    "random8": (3, 3, [(610, 0), (26, 1), (1, 2), (0, 3), (0, 3), (0, 3)]),
    "cube_r4": (5, 5, [(519, 0), (148, 1), (32, 2), (7, 3), (2, 4), (0, 5)]),
    "cube_mod": (3, 3, [(336, 0), (42, 1), (3, 2), (0, 3), (0, 3), (0, 3)]),
    "line_r2": (None, 2, [(121, 0), (2, 1), (2, 2), (2, 2), (2, 2), (2, 2)]),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_torus_run_pinned(monkeypatch, name):
    grid, rule = _pinned_grids()[name]
    steps = []
    step = dynamics.torus_step_grid
    monkeypatch.setattr(dynamics, "torus_step_grid", lambda *a: steps.append(1) or step(*a))
    counts = torus_run(grid, rule)
    got_t = len(counts) - 1 if counts[-1] == 0 else None
    t_calls = len(steps)
    got_f = []
    for t in range(6):
        steps.clear()
        got_f.append((torus_run(grid, rule, t)[-1], len(steps)))
    assert (got_t, t_calls, got_f) == PINNED_RUNS[name]


def test_modified_needs_every_axis():
    # two infected neighbours on the same axis do not infect under Modified
    grid = np.zeros((5, 5), dtype=bool)
    grid[1, 2] = grid[3, 2] = True
    out = packed_step(grid, Modified())
    assert not out[2, 2]
    assert packed_step(grid, Standard(2))[2, 2]


def test_column_protects_origin():
    for d, t in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        state = ball_state(d, t, column_sites(d, t))
        assert is_origin_protected(state, Standard(d))


def test_protected_set_of_column_is_column():
    d, t = 2, 2
    protected = protected_row(d, t, column_sites(d, t), Standard(d))
    assert set(itertools.compress(enumerate_ball(d, t).sites, protected)) == column_sites(d, t)


def test_fully_uninfected_ball_protects_everything():
    d, t = 2, 2
    sites = set(enumerate_ball(d, t).sites)
    assert protected_row(d, t, sites, Standard(d)).all()


def test_too_small_sets_do_not_protect():
    # fewer than m_{t,d} = 8 uninfected sites cannot protect at (2,2)
    d, t = 2, 2
    sites = set(list(column_sites(d, t))[:7])
    state = ball_state(d, t, sites)
    assert not is_origin_protected(state, Standard(d))


def test_ball_exterior_is_infected():
    # an uninfected sphere site with no uninfected inward neighbour falls
    # immediately: its exterior neighbours are permanently infected
    d, t = 2, 2
    ball = enumerate_ball(d, t)
    state = ball_state(d, t, {(2, 0), (0, 0)})
    after = evolve_finite_batch(state.uninfected[np.newaxis, :], neighbor_matrix(ball.sites), Standard(d), steps=1)
    assert not after[0, ball.index_of[(2, 0)]]


def test_torus_and_ball_agree_inside_light_cone():
    # embed a ball pattern in a large torus: origin protection must agree
    rng = np.random.default_rng(3)
    d, t = 2, 2
    ball = enumerate_ball(d, t)
    n = 16
    for rule in (Standard(2), Modified()):
        for _ in range(25):
            uninf = rng.random(len(ball)) < 0.6
            grid = np.ones((n, n), dtype=bool)
            for i, s in enumerate(ball.sites):
                grid[s[0] % n, s[1] % n] = not uninf[i]
            for _ in range(t):
                grid = packed_step(grid, rule)
            state = ball_state(d, t, {s for i, s in enumerate(ball.sites) if uninf[i]})
            assert (not grid[0, 0]) == is_origin_protected(state, rule)


def test_protected_set_respects_light_cone_times():
    # a sphere site is protected iff initially uninfected
    d, t = 2, 2
    sites = column_sites(d, t)
    for s in itertools.compress(enumerate_ball(d, t).sites, protected_row(d, t, sites, Standard(d))):
        if l1_norm(s) == t:
            assert s in sites


def reference_protected_set(row, d, t, rule):
    """One state's protected set, step count by step count: for each s,
    evolve the row s steps from scratch and keep the sites of norm t - s."""
    sites = enumerate_ball(d, t).sites
    nbr = neighbor_matrix(sites)
    out = np.zeros(len(sites), dtype=bool)
    for s in range(t + 1):
        after = evolve_boolean(row[np.newaxis, :], nbr, rule, steps=s)[0]
        for i, x in enumerate(sites):
            if l1_norm(x) == t - s:
                out[i] = after[i]
    return out


# d = 1 and d = 4 come last so that the d = 2, 3 cases keep their ids
RULES_BY_D = [(d, rule) for d in (2, 3, 1, 4) for rule in [Modified()] + [Standard(r) for r in range(1, 2 * d + 1)]]


@pytest.mark.parametrize("d,rule", RULES_BY_D)
@given(
    data=st.data(),
    rows=st.sampled_from((1, 65, 100)),
    q=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_batched_protected_set_matches_per_row_reference(d, rule, data, rows, q, seed):
    t = data.draw(st.integers(0, 2 if d == 4 else 3), label="t")
    uninf = np.random.default_rng(seed).random((rows, len(enumerate_ball(d, t)))) < q
    got = protected_set(uninf, d, t, rule)
    want = np.stack([reference_protected_set(row, d, t, rule) for row in uninf])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("d,t", [(2, 3), (3, 2)])
def test_protected_set_steps_the_nested_balls(monkeypatch, d, t):
    # step s is one kernel call on B_(t-s+1), whose first ball_size(d, t - s)
    # sites are B_(t-s); the caller's rows are left as they were
    shapes = []
    kernel = dynamics.evolve_finite_batch

    def spy(rows, nbr, *args, **kwargs):
        shapes.append((rows.shape, nbr.shape[0]))
        return kernel(rows, nbr, *args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve_finite_batch", spy)
    uninf = np.random.default_rng(7).random((70, ball_size(d, t))) < 0.8
    before = uninf.copy()
    protected_set(uninf, d, t, Standard(d))
    assert shapes == [((70, ball_size(d, j)), ball_size(d, j)) for j in range(t, 0, -1)]
    np.testing.assert_array_equal(uninf, before)


# the balls, rules, batch sizes and step counts of the packed kernel's grid:
# 41 (ball, rule) cells x 12 batch sizes x 3 step counts = 1,476 cases
KERNEL_BALLS = [(1, 3), (2, 1), (2, 2), (2, 4), (3, 2), (3, 4), (4, 2)]
KERNEL_BATCHES = (1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 800)


@pytest.mark.parametrize("d,t", KERNEL_BALLS)
def test_evolve_finite_batch_matches_boolean_reference(d, t):
    nbr = neighbor_matrix(enumerate_ball(d, t).sites)
    rng = np.random.default_rng(100 * d + t)
    for batch in KERNEL_BATCHES:
        uninf = rng.random((batch, nbr.shape[0])) < rng.random((batch, 1))  # one density per row
        before = uninf.copy()
        for rule in [Modified()] + [Standard(r) for r in range(1, 2 * d + 1)]:
            for steps in (0, 1, t):
                got = evolve_finite_batch(uninf, nbr, rule, steps)
                assert got.shape == uninf.shape and got.dtype == bool
                np.testing.assert_array_equal(got, evolve_boolean(uninf, nbr, rule, steps), err_msg=f"{batch} {rule} {steps}")
        np.testing.assert_array_equal(uninf, before)  # the caller's rows are never written


@pytest.mark.parametrize("batch", (1, 63, 65, 129))
def test_evolve_finite_batch_packs_row_j_into_lane_j(monkeypatch, batch):
    # each plane the kernel steps holds site x's column in lanes 0..batch-1
    # and 0 (infected) past them, and the sentinel plane is 0; no output
    # reads the lanes past the batch, so this reads the planes themselves
    d, t = 2, 2
    nbr = neighbor_matrix(enumerate_ball(d, t).sites)
    uninf = np.random.default_rng(batch).random((batch, nbr.shape[0])) < 0.7
    seen = []
    step = dynamics._stays_uninfected
    monkeypatch.setattr(dynamics, "_stays_uninfected", lambda planes, *a: seen.append(planes.copy()) or step(planes, *a))
    evolve_finite_batch(uninf, nbr, Standard(2), steps=1)
    (planes,) = seen
    lanes = np.stack([dynamics.lane_bits(plane).ravel() for plane in planes], axis=1)
    assert lanes.shape == (-(-batch // 64) * 64, nbr.shape[0] + 1)
    np.testing.assert_array_equal(lanes[:batch, :-1], uninf)
    assert not lanes[batch:].any() and not lanes[:, -1].any()
