"""Exact evolution of r-neighbour and modified bootstrap percolation.

Two finite domains are supported: the torus, and a finite site list whose
exterior is permanently infected.  The ball-with-infected-exterior domain
gives exact answers for protection questions because the state of x at time
s depends only on initial states within l1 distance s of x.

The finite-domain stepper is written once, vectorised over a batch of
boolean initial states; single-state evolution is the batch of size one.
The exhaustive sweeps of the extremal module run the bit-sliced
light-cone kernel of the sweep module, 64 subsets per word.  Its
differential test in tests/test_extremal.py holds it bit for bit to
evolve_finite_batch here, which stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import compress

import numpy as np

from .lattice import BallIndex, Site, TorusSpec, enumerate_ball, l1_norm


# ---------------------------------------------------------------------------
# Rules and domains


@dataclass(frozen=True)
class Standard:
    """Infect once at least r neighbours are infected."""

    r: int


@dataclass(frozen=True)
class Modified:
    """Infect once each axis has an infected neighbour."""


Rule = Standard | Modified


def check_rule(rule: Rule, d: int) -> None:
    if isinstance(rule, Standard) and not 1 <= rule.r <= 2 * d:
        raise ValueError(f"standard threshold r={rule.r} outside [1, {2 * d}] for d={d}")


@dataclass(frozen=True)
class Torus:
    spec: TorusSpec


@dataclass(frozen=True)
class Ball:
    """The l1 ball of radius t; everything outside is permanently infected."""

    d: int
    t: int

    @property
    def index(self) -> BallIndex:
        return enumerate_ball(self.d, self.t)


Domain = Torus | Ball


@dataclass(frozen=True)
class InfectionState:
    """Infected assignment over a domain at a given time step."""

    domain: Domain
    infected: np.ndarray
    time: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.domain, Torus):
            expected = (self.domain.spec.n,) * self.domain.spec.d
        else:
            expected = (len(self.domain.index),)
        if self.infected.shape != expected:
            raise ValueError(f"infected array has shape {self.infected.shape}, domain needs {expected}")
        if self.infected.dtype != np.bool_:
            raise ValueError("infected array must be boolean")
        if self.time < 0:
            raise ValueError("time must be >= 0")


@dataclass(frozen=True)
class Percolated:
    T: int


@dataclass(frozen=True)
class Stuck:
    t_stable: int
    uninfected: int


StopReport = Percolated | Stuck


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


def torus_stop_report(infected: np.ndarray, rule: Rule) -> StopReport:
    """Run a torus grid to full infection or to a fixpoint."""
    t = 0
    current = infected
    n_inf = int(current.sum())
    while True:
        if n_inf == current.size:
            return Percolated(T=t)
        nxt = torus_step_grid(current, rule)
        n_next = int(nxt.sum())
        if n_next == n_inf:
            return Stuck(t_stable=t, uninfected=current.size - n_inf)
        current, n_inf = nxt, n_next
        t += 1


def torus_uninfected_at(infected: np.ndarray, rule: Rule, t: int) -> int:
    """Number of uninfected sites after t steps."""
    current = infected
    n_inf = int(current.sum())
    for _ in range(t):
        if n_inf == current.size:
            break
        nxt = torus_step_grid(current, rule)
        n_next = int(nxt.sum())
        if n_next == n_inf:
            break
        current, n_inf = nxt, n_next
    return current.size - n_inf


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


def ball_snapshots(uninfected: np.ndarray, d: int, t: int, rule: Rule) -> list[np.ndarray]:
    """Uninfected bit vectors at times 0..t for one initial state on Ball(d, t)."""
    nbr = _ball_neighbor_matrix(d, t)
    snaps = [uninfected.astype(bool, copy=True)]
    current = uninfected[np.newaxis, :]
    for _ in range(t):
        current = evolve_finite_batch(current, nbr, rule, steps=1)
        snaps.append(current[0].copy())
    return snaps


# ---------------------------------------------------------------------------
# Spec-level operations


def step(state: InfectionState, rule: Rule) -> InfectionState:
    """One synchronous update; previously infected sites stay infected."""
    if isinstance(state.domain, Torus):
        check_rule(rule, state.domain.spec.d)
        nxt = torus_step_grid(state.infected, rule)
    else:
        dom = state.domain
        nbr = _ball_neighbor_matrix(dom.d, dom.t)
        uninf = ~state.infected
        nxt = ~evolve_finite_batch(uninf[np.newaxis, :], nbr, rule, steps=1)[0]
    return replace(state, infected=nxt, time=state.time + 1)


def percolation_time(initial: InfectionState, rule: Rule) -> StopReport:
    """Iterate until full infection or a strict fixpoint below it."""
    if not isinstance(initial.domain, Torus):
        raise ValueError("percolation_time is defined on the torus domain")
    check_rule(rule, initial.domain.spec.d)
    return torus_stop_report(initial.infected, rule)


def uninfected_count_at(initial: InfectionState, rule: Rule, t: int) -> int:
    """|V| - |A_t| on the torus."""
    if not isinstance(initial.domain, Torus):
        raise ValueError("uninfected_count_at is defined on the torus domain")
    check_rule(rule, initial.domain.spec.d)
    return torus_uninfected_at(initial.infected, rule, t)


def ball_state(d: int, t: int, uninfected_sites: frozenset[Site] | set[Site]) -> InfectionState:
    """Ball-domain state with the given sites uninfected, rest infected."""
    dom = Ball(d=d, t=t)
    index = dom.index
    infected = np.ones(len(index), dtype=bool)
    for s in uninfected_sites:
        infected[index.index_of[s]] = False
    return InfectionState(domain=dom, infected=infected)


def protected_set(initial: InfectionState, rule: Rule) -> frozenset[Site]:
    """Sites x of B_t still uninfected at time t - ||x||.

    After that time the state of x can no longer influence the origin at
    time t, so these are exactly the sites whose protection matters.
    """
    if not isinstance(initial.domain, Ball):
        raise ValueError("protected_set is defined on the ball domain")
    dom = initial.domain
    check_rule(rule, dom.d)
    snaps = np.stack(ball_snapshots(~initial.infected, dom.d, dom.t, rule))
    norms = _ball_norms(dom.d, dom.t)
    keep = snaps[dom.t - norms, np.arange(norms.size)]
    return frozenset(compress(dom.index.sites, keep))


def is_origin_protected(initial: InfectionState, rule: Rule) -> bool:
    """Whether the origin is still uninfected at time t."""
    if not isinstance(initial.domain, Ball):
        raise ValueError("is_origin_protected is defined on the ball domain")
    dom = initial.domain
    check_rule(rule, dom.d)
    nbr = _ball_neighbor_matrix(dom.d, dom.t)
    uninf = ~initial.infected
    final = evolve_finite_batch(uninf[np.newaxis, :], nbr, rule, steps=dom.t)
    origin_idx = dom.index.index_of[(0,) * dom.d]
    return bool(final[0, origin_idx])
