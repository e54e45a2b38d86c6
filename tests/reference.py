"""Boolean references shared by the tests.

evolve_boolean is the finite-domain rule written once more, on boolean
rows and neighbour counts, independently of the bitwise expression that
every kernel in torusboot.dynamics and torusboot.sweep steps; the tests
hold those kernels to it bit for bit.  classify_by_search is the column
template search that extremal.classify's cached table replaces.
"""

from itertools import product

import numpy as np

from torusboot import dynamics
from torusboot.dynamics import Modified, Standard
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


def _column_set(d, t, axis, orient):
    ball = enumerate_ball(d, t)
    return frozenset(
        x for x in ball.sites if all(x[i] in (0, orient[i]) for i in range(d) if i != axis)
    )


def classify_by_search(d, t, rule, protected):
    """The tag of a protected set of B_t, searched template by template,
    each rebuilt on the spot; the first match wins."""
    if isinstance(rule, Modified):
        for axis in range(d):
            if protected == _column_set(d, t, axis, (0,) * d):
                return "canonical"
        return "other"
    for axis in range(d):
        others = [i for i in range(d) if i != axis]
        for eps in product((-1, 1), repeat=d - 1):
            orient = [0] * d
            for i, e in zip(others, eps):
                orient[i] = e
            orient_t = tuple(orient)
            column = _column_set(d, t, axis, orient_t)
            if protected == column:
                return "canonical"
            top = tuple(t if i == axis else 0 for i in range(d))
            bottom = tuple(-t if i == axis else 0 for i in range(d))
            base = column - {top, bottom}
            v_plus_opts = [top] + [
                tuple((t - 1 if j == axis else 0) - (orient_t[j] if j == i else 0) for j in range(d))
                for i in others
            ]
            v_minus_opts = [bottom] + [
                tuple((-t + 1 if j == axis else 0) - (orient_t[j] if j == i else 0) for j in range(d))
                for i in others
            ]
            for vp in v_plus_opts:
                for vm in v_minus_opts:
                    if protected == base | {vp, vm}:
                        return "semi-canonical"
    return "other"
