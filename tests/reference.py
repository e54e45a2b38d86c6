"""Boolean references shared by the tests.

evolve_boolean is the finite-domain rule written once more, on boolean
rows and neighbour counts, independently of the bitwise expression that
every kernel in torusboot.dynamics and torusboot.sweep steps; the tests
hold those kernels to it bit for bit.
"""

import numpy as np

from torusboot import dynamics
from torusboot.dynamics import Standard
from torusboot.lattice import enumerate_ball


def evolve_boolean(uninfected, nbr, rule, steps):
    """A batch of (batch, n_sites) boolean states after `steps` steps on
    the domain of neighbour matrix nbr, whose sentinel column n_sites is
    infected at every step."""
    n_sites, two_d = nbr.shape
    current = np.array(uninfected, dtype=bool)
    padded = np.zeros((current.shape[0], n_sites + 1), dtype=bool)
    for _ in range(steps):
        padded[:, :n_sites] = current
        if isinstance(rule, Standard):
            infected = np.zeros(current.shape, dtype=np.uint8)
            for col in range(two_d):
                infected += ~padded[:, nbr[:, col]]
            current &= infected < rule.r
        else:
            every_axis = np.ones(current.shape, dtype=bool)
            for i in range(two_d // 2):
                every_axis &= ~padded[:, nbr[:, 2 * i]] | ~padded[:, nbr[:, 2 * i + 1]]
            current &= ~every_axis
    return current


def column_sites(d, t):
    """The standard extremal protecting set: a column along the last axis."""
    return {s for s in enumerate_ball(d, t).sites if all(c in (0, 1) for c in s[: d - 1])}


def protected_row(d, t, sites, rule):
    """One row of the batched protected set, for the state of B_t with `sites` uninfected."""
    return dynamics.protected_set(dynamics.ball_state(d, t, sites).uninfected[np.newaxis, :], d, t, rule)[0]
