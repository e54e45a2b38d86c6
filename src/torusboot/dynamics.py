"""Exact evolution of r-neighbour and modified bootstrap percolation.

Two kinds of state are evolved, both as plain boolean arrays.  A torus is a
d-dimensional grid of infected bits; torus_run steps it to full infection,
to a fixpoint, or to a step limit, and returns the uninfected count after
each step, which gives the percolation time T and every F_t of one run.
Its first step is dense (torus_step_grid); once a dense step leaves few
sites uninfected, torus_step_sparse steps those sites alone.  A ball is a
batch of uninfected rows over the sites of enumerate_ball(d, t), whose
exterior is permanently infected.  It answers protection questions
exactly, because the state of x at time s depends only on initial states
within l1 distance s of x.  protected_set maps a batch of rows to their
protected sets in t kernel calls.

The finite-domain stepper is written once, vectorised over a batch of
boolean initial states.  The exhaustive sweeps of the extremal module run
the bit-sliced light-cone kernel of the sweep module, 64 subsets per word.
Its differential test in tests/test_extremal.py holds it bit for bit to
evolve_finite_batch here, which stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import Site, enumerate_ball, l1_norm


# ---------------------------------------------------------------------------
# Rules


@dataclass(frozen=True)
class Standard:
    """Infect once at least r neighbours are infected."""

    r: int


@dataclass(frozen=True)
class Modified:
    """Infect once each axis has an infected neighbour."""


Rule = Standard | Modified


def check_rule(rule: Rule, d: int) -> None:
    """The one check of a (d, rule) pair: d >= 1, and 1 <= r <= 2d for the
    standard rule."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if isinstance(rule, Standard) and not 1 <= rule.r <= 2 * d:
        raise ValueError(f"standard threshold r={rule.r} outside [1, {2 * d}] for d={d}")


# ---------------------------------------------------------------------------
# Torus evolution (grid arrays)


def torus_step_grid(infected: np.ndarray, rule: Rule) -> np.ndarray:
    """One synchronous update of a d-dim boolean torus grid.

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


# After a dense step that leaves at most 1/_SPARSE_SWITCH of the sites
# uninfected, torus_run steps only the uninfected sites.  Measured by
# scripts/sparse_crossover.py (512^2 and 64^3 grids, both rules, 2-vCPU
# Xeon, seeds 0 and 1): a sparse step costs 0.5-0.9 dense steps at 1/64 of
# the sites, 0.9-1.8 at 1/32 and 1.6-41 at 1/16 to 1/2, and the switch
# itself (the flatnonzero) costs up to one dense step.  The frontier only
# shrinks, so the run never switches back.  The sparse temporaries take
# ~35 bytes per uninfected site, under one byte per grid site at 1/64.
_SPARSE_SWITCH = 64


def torus_step_sparse(
    flat: np.ndarray, shape: tuple[int, ...], frontier: np.ndarray, rule: Rule
) -> np.ndarray:
    """One synchronous update of the uninfected sites of a torus grid.

    flat is the grid's infected bits in C order and is updated in place;
    frontier holds the flat index of every uninfected site.  Neighbours are
    found by coordinate arithmetic mod n on each axis, so on an n <= 2 axis
    x+e_i and x-e_i fold onto one site, as np.roll does in torus_step_grid.
    Every count is gathered before any site is written.  Returns the
    indices still uninfected.
    """
    pairs = []  # infected bits of x+e_i and x-e_i, one pair per axis i
    stride = 1
    for n in reversed(shape):
        coord = frontier // stride % n
        pairs.append((flat[frontier + np.where(coord == n - 1, (1 - n) * stride, stride)],
                      flat[frontier + np.where(coord == 0, (n - 1) * stride, -stride)]))
        stride *= n
    if isinstance(rule, Standard):
        infect = sum(plus.astype(np.uint8) + minus for plus, minus in pairs) >= rule.r
    else:
        infect = np.logical_and.reduce([plus | minus for plus, minus in pairs])
    flat[frontier[infect]] = True
    return frontier[~infect]


def torus_run(infected: np.ndarray, rule: Rule, max_steps: int | None = None) -> tuple[int, ...]:
    """Step a torus grid until it is fully infected, a step changes
    nothing, or max_steps steps have run; the uninfected counts after
    0, 1, ... steps.

    T is len(counts) - 1 when counts[-1] == 0 (a fixpoint below full
    infection has no T), and F_t is counts[min(t, len(counts) - 1)].  The
    first step is dense.  Once a dense step leaves few sites uninfected,
    the run carries them as flat indices and steps only those.  The
    caller's grid is never written.
    """
    size = infected.size
    counts = [size - int(np.count_nonzero(infected))]
    grid, frontier = infected, None
    while counts[-1] and (max_steps is None or len(counts) <= max_steps):
        if frontier is None and len(counts) > 1 and counts[-1] * _SPARSE_SWITCH <= size:
            flat = grid.reshape(-1)  # a view of the grid the last dense step made
            frontier = np.flatnonzero(~flat)
        if frontier is None:
            grid = torus_step_grid(grid, rule)
            left = size - int(np.count_nonzero(grid))
        else:
            frontier = torus_step_sparse(flat, grid.shape, frontier, rule)
            left = len(frontier)
        if left == counts[-1]:
            break
        counts.append(left)
    return tuple(counts)


# ---------------------------------------------------------------------------
# Finite domains with infected exterior


@lru_cache(maxsize=None)
def _ball_neighbor_matrix(d: int, t: int) -> np.ndarray:
    return neighbor_matrix(enumerate_ball(d, t).sites)


@lru_cache(maxsize=None)
def _ball_norms(d: int, t: int) -> np.ndarray:
    norms = np.array([l1_norm(s) for s in enumerate_ball(d, t).sites], dtype=np.int64)
    norms.flags.writeable = False  # shared by every caller
    return norms


def neighbor_matrix(sites: tuple[Site, ...]) -> np.ndarray:
    """(n_sites, 2d) index matrix; column 2i is +e_i, column 2i+1 is -e_i.

    Neighbors outside the site list point at the sentinel index n_sites,
    which evolution keeps permanently infected.
    """
    d = len(sites[0])
    index_of = {s: i for i, s in enumerate(sites)}
    sentinel = len(sites)
    mat = np.full((len(sites), 2 * d), sentinel, dtype=np.int64)
    for row, s in enumerate(sites):
        for i in range(d):
            for col, delta in ((2 * i, 1), (2 * i + 1, -1)):
                nb = s[:i] + (s[i] + delta,) + s[i + 1 :]
                if nb in index_of:
                    mat[row, col] = index_of[nb]
    return mat


def evolve_finite_batch(
    uninfected: np.ndarray,
    nbr: np.ndarray,
    rule: Rule,
    steps: int,
) -> np.ndarray:
    """Evolve a batch of initial states on a finite domain for `steps` steps.

    uninfected is (batch, n_sites) boolean; the exterior (sentinel column)
    is infected at every step.  Returns the uninfected bits after `steps`.
    """
    n_sites, two_d = nbr.shape
    d = two_d // 2
    check_rule(rule, d)
    batch = uninfected.shape[0]
    current = uninfected.astype(bool, copy=True)
    padded = np.zeros((batch, n_sites + 1), dtype=bool)
    for _ in range(steps):
        padded[:, :n_sites] = current
        padded[:, n_sites] = False
        if isinstance(rule, Standard):
            count = np.zeros((batch, n_sites), dtype=np.uint8)
            for col in range(two_d):
                count += ~padded[:, nbr[:, col]]
            current &= count < rule.r
        else:
            all_axes = np.ones((batch, n_sites), dtype=bool)
            for i in range(d):
                all_axes &= ~padded[:, nbr[:, 2 * i]] | ~padded[:, nbr[:, 2 * i + 1]]
            current &= ~all_axes
    return current


class BallState(NamedTuple):
    """One initial state of B_t: uninfected is a bool row over the sites of
    enumerate_ball(d, t), and the exterior is infected."""

    d: int
    t: int
    uninfected: np.ndarray


def ball_state(d: int, t: int, uninfected_sites: frozenset[Site] | set[Site]) -> BallState:
    """B_t with the given sites uninfected, the rest infected."""
    index = enumerate_ball(d, t)
    uninfected = np.zeros(len(index), dtype=bool)
    for s in uninfected_sites:
        uninfected[index.index_of[s]] = True
    return BallState(d=d, t=t, uninfected=uninfected)


def protects_origin(uninfected: np.ndarray, d: int, t: int, rule: Rule) -> np.ndarray:
    """For each row of a (batch, n_sites) state of B_t, whether the origin
    is still uninfected at time t; one kernel call of t steps."""
    final = evolve_finite_batch(uninfected, _ball_neighbor_matrix(d, t), rule, steps=t)
    return final[:, 0]  # the origin is the first site of enumerate_ball


def is_origin_protected(state: BallState, rule: Rule) -> bool:
    """Whether the origin of one ball state is still uninfected at time t."""
    return bool(protects_origin(state.uninfected[np.newaxis, :], state.d, state.t, rule)[0])


def protected_set(uninfected: np.ndarray, d: int, t: int, rule: Rule) -> np.ndarray:
    """Sites x of B_t still uninfected at time t - ||x||, for each row of a
    (batch, n_sites) state; a (batch, n_sites) bool array.

    After that time the state of x can no longer influence the origin at
    time t, so these are exactly the sites whose protection matters.  The
    whole batch is evolved one step at a time, t kernel calls in all.
    """
    check_rule(rule, d)
    nbr = _ball_neighbor_matrix(d, t)
    norms = _ball_norms(d, t)
    current = np.asarray(uninfected, dtype=bool)
    protected = current & (norms == t)
    for s in range(1, t + 1):
        current = evolve_finite_batch(current, nbr, rule, steps=1)
        protected |= current & (norms == t - s)
    return protected
