"""Exact evolution of r-neighbour and modified bootstrap percolation.

Two kinds of state are evolved.  A torus is a d-dimensional grid of
infected bits; torus_run packs its uninfected bits into uint64 words along
the last axis, steps the words (torus_step_grid) to full infection, to a
fixpoint, or to a step limit, and returns the uninfected count after each
step, which gives the percolation time T and every F_t of one run.  A ball
is a batch of boolean uninfected rows over the sites of enumerate_ball(d, t),
whose exterior is permanently infected.  It answers protection questions
exactly, because the state of x at time s depends only on initial states
within l1 distance s of x.  protected_set maps a batch of rows to their
protected sets in t kernel calls, on the nested balls B_t, ..., B_1.

Each rule is one bitwise expression over the uninfected planes of a site
and its 2d neighbours (_stays_uninfected), its only copy in the package.
The torus step applies it to whole packed rows, evolve_finite_batch to every
site of a domain at once with one batch row per lane, and the sweep module
to 64 subsets per word.  tests/test_dynamics.py holds torus_run to an
np.roll step of the boolean grid, and the ball kernels are held bit for bit
to the boolean finite-domain rule of tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import Site, ball_size, enumerate_ball


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
# The bitwise rule, shared by the torus, the ball kernel and the sweeps


def _stays_uninfected(planes, x, row, rule: Rule) -> np.ndarray:
    """Plane of x after one step, from the planes of x and its neighbours in
    row: list indices, or a slice and index arrays into a 2-D array of planes."""
    if isinstance(rule, Modified):
        # uninfected while some axis has both neighbours uninfected
        keep = planes[row[0]] & planes[row[1]]
        for plus, minus in zip(row[2::2], row[3::2]):
            keep = keep | (planes[plus] & planes[minus])
        return planes[x] & keep
    # uninfected while fewer than r neighbours are infected, that is while at
    # least 2d - r + 1 are uninfected
    need = len(row) - rule.r + 1
    runs: list[np.ndarray] = []  # runs[k]: at least k + 1 neighbours so far are uninfected
    for nb in row:
        plane = planes[nb]  # one gather per neighbour when nb is an index array
        carries = [plane] + [run & plane for run in runs[: need - 1]]
        runs = [run | carry for run, carry in zip(runs, carries)] + carries[len(runs) :]
    return planes[x] & runs[need - 1]


# ---------------------------------------------------------------------------
# Torus evolution (packed words)


def _pack_uninfected(infected: np.ndarray) -> np.ndarray:
    """Uninfected bits of a boolean grid, packed along the last axis.

    Site i of a last-axis row is bit i % 64 of word i // 64; the pad bits
    past the row's n sites are 0, and every step keeps them 0.
    """
    n = infected.shape[-1]
    words = -(-n // 64)
    packed = np.zeros(infected.shape[:-1] + (8 * words,), dtype=np.uint8)
    packed[..., : -(-n // 8)] = np.packbits(infected, axis=-1, bitorder="little")
    packed = packed.view("<u8")
    np.invert(packed, out=packed)
    if n % 64:
        packed[..., -1] &= (1 << n % 64) - 1
    return packed


def lane_bits(plane: np.ndarray) -> np.ndarray:
    """(words,) uint64 -> (words, 64) bool, lane p of word w at [w, p]."""
    return np.unpackbits(plane.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little").astype(bool)


def _roll(words: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """np.roll(words, shift, axis) for shift = +-1 as one concatenate: 4 us
    against np.roll's 11 us on the words of a 512^2 grid (2-vCPU host)."""
    cut = -shift % words.shape[axis]
    lead = (slice(None),) * (axis % words.ndim)
    return np.concatenate((words[lead + (slice(cut, None),)], words[lead + (slice(None, cut),)]), axis=axis)


def torus_step_grid(words: np.ndarray, n: int, rule: Rule) -> np.ndarray:
    """One synchronous update of a d-dim torus whose last axis has n sites,
    packed as by _pack_uninfected; returns the new words.

    The other axes roll whole words.  Along the last axis a neighbour
    plane is a one-bit shift with a carry from the next word, and the row's
    ends, bit 0 of the first word and bit (n - 1) % 64 of the last, swap
    bits across the pad.  A neighbour plane's pad bits may be set; the rule
    ANDs them with the site's own plane, whose pad bits are 0.  On an n <= 2
    axis x+e_i and x-e_i are one site, counted twice.
    """
    planes = [words]
    for ax in range(words.ndim - 1):
        planes += [_roll(words, -1, ax), _roll(words, 1, ax)]
    last = (n - 1) % 64
    plus = words >> 1  # bit j of word w: site 64w + j + 1
    plus[..., :-1] |= words[..., 1:] << 63
    plus[..., -1] |= (words[..., 0] & 1) << last
    minus = words << 1  # bit j of word w: site 64w + j - 1
    minus[..., 1:] |= words[..., :-1] >> 63
    minus[..., 0] |= (words[..., -1] >> last) & 1
    planes += [plus, minus]
    return _stays_uninfected(planes, 0, tuple(range(1, len(planes))), rule)


def torus_run(infected: np.ndarray, rule: Rule, max_steps: int | None = None) -> tuple[int, ...]:
    """Step a torus grid until it is fully infected, a step changes
    nothing, or max_steps steps have run; the uninfected counts after
    0, 1, ... steps.

    T is len(counts) - 1 when counts[-1] == 0 (a fixpoint below full
    infection has no T), and F_t is counts[min(t, len(counts) - 1)].  The
    run packs the grid once and steps the packed words; the caller's grid
    is never written.
    """
    n = infected.shape[-1]
    words = _pack_uninfected(infected)
    counts = [int(np.bitwise_count(words).sum())]
    while counts[-1] and (max_steps is None or len(counts) <= max_steps):
        words = torus_step_grid(words, n, rule)
        left = int(np.bitwise_count(words).sum())
        if left == counts[-1]:
            break
        counts.append(left)
    return tuple(counts)


# ---------------------------------------------------------------------------
# Finite domains with infected exterior


@lru_cache(maxsize=None)
def _ball_neighbor_matrix(d: int, t: int) -> np.ndarray:
    nbr = neighbor_matrix(enumerate_ball(d, t).sites)
    nbr.flags.writeable = False  # shared by every caller
    return nbr


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
    Row j is lane j of one plane per site; lanes past the batch and the
    sentinel plane are infected (0).  A step is one _stays_uninfected call.
    """
    n_sites, two_d = nbr.shape
    check_rule(rule, two_d // 2)
    batch = uninfected.shape[0]
    planes = np.zeros((n_sites + 1, -(-batch // 64)), dtype="<u8")
    planes.view(np.uint8)[:n_sites, : -(-batch // 8)] = np.packbits(uninfected.T, axis=1, bitorder="little")
    rows = tuple(nbr.T)
    for _ in range(steps):
        planes[:n_sites] = _stays_uninfected(planes, slice(0, n_sites), rows, rule)
    return np.unpackbits(planes[:n_sites].view(np.uint8), axis=1, count=batch, bitorder="little").T.view(bool)


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
    time t, so these are exactly the sites whose protection matters.  B_(t-s)
    is the first ball_size(d, t - s) sites of B_t, and step s = 1..t is one
    kernel call on B_(t-s+1) that keeps B_(t-s): its neighbours all lie in
    B_(t-s+1), whose states at time s - 1 are exact, and the boundary states
    computed with an infected exterior are dropped.  The input is not written.
    """
    check_rule(rule, d)
    current = protected = np.array(uninfected, dtype=bool)
    for s in range(1, t + 1):
        inner = ball_size(d, t - s)
        current = evolve_finite_batch(current, _ball_neighbor_matrix(d, t - s + 1), rule, steps=1)[:, :inner]
        protected[:, :inner] = current
    return protected
