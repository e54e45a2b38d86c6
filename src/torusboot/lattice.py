"""Geometry of l1 balls in Z^d and of the discrete torus.

Sites are plain tuples of ints.  Every enumeration here is deterministic
(sorted by (l1 norm, lexicographic coordinates)) so that certificates and
CSV output are bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

Site = tuple[int, ...]

# Enumerations beyond this size are refused outright: callers that need
# larger balls are out of desk scale anyway, and the guard keeps index
# arithmetic safely inside 64 bits.
MAX_BALL_SITES = 1 << 26


def l1_norm(x: Site) -> int:
    """Length of the shortest lattice path from the origin to x."""
    return sum(map(abs, x))


def ball_size(d: int, t: int) -> int:
    """Number of lattice points with l1 norm <= t in Z^d (exact integer)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if t < 0:
        raise ValueError(f"radius must be >= 0, got {t}")
    return sum(2**k * math.comb(d, k) * math.comb(t, k) for k in range(0, min(d, t) + 1))


def sphere_size(d: int, t: int) -> int:
    """Number of lattice points with l1 norm exactly t in Z^d."""
    if t == 0:
        return 1
    return ball_size(d, t) - ball_size(d, t - 1)


@dataclass(frozen=True)
class BallIndex:
    """Canonical enumeration of the l1 ball of radius t in Z^d.

    sites are sorted by (norm, coords); index_of inverts the enumeration.
    """

    d: int
    t: int
    sites: tuple[Site, ...]
    index_of: dict[Site, int] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, x: Site) -> bool:
        return x in self.index_of


def _ball_sites(d: int, t: int) -> list[Site]:
    sites: list[Site] = []

    def rec(prefix: list[int], remaining: int, dims_left: int) -> None:
        if dims_left == 0:
            sites.append(tuple(prefix))
            return
        for c in range(-remaining, remaining + 1):
            prefix.append(c)
            rec(prefix, remaining - abs(c), dims_left - 1)
            prefix.pop()

    rec([], t, d)
    sites.sort(key=lambda s: (l1_norm(s), s))
    return sites


@lru_cache(maxsize=None)
def enumerate_ball(d: int, t: int) -> BallIndex:
    """All sites with l1 norm <= t, in the deterministic order."""
    n_sites = ball_size(d, t)  # validates d, t
    if n_sites > MAX_BALL_SITES:
        raise ValueError(f"ball with {n_sites} sites exceeds enumeration limit {MAX_BALL_SITES}")
    sites = tuple(_ball_sites(d, t))
    assert len(sites) == n_sites
    return BallIndex(d=d, t=t, sites=sites, index_of={s: i for i, s in enumerate(sites)})


def enumerate_sphere(d: int, t: int) -> tuple[Site, ...]:
    """Sites of enumerate_ball(d, t) with norm exactly t, same relative order."""
    ball = enumerate_ball(d, t)
    return tuple(s for s in ball.sites if l1_norm(s) == t)


def dependency_offsets(d: int, t: int) -> tuple[Site, ...]:
    """All nonzero offsets of l1 norm <= 2t+1.

    Two protection events at offset beyond this range are driven by disjoint
    initial data and are independent.
    """
    if t < 0:
        raise ValueError(f"horizon must be >= 0, got {t}")
    ball = enumerate_ball(d, 2 * t + 1)
    origin = (0,) * d
    return tuple(s for s in ball.sites if s != origin)


@dataclass(frozen=True)
class TorusSpec:
    """Side length and dimension of the discrete torus."""

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"torus dimension must be >= 2, got {self.d}")
        if self.n < 2:
            raise ValueError(f"torus side must be >= 2, got {self.n}")
        if self.n**self.d >= 1 << 62:
            raise ValueError(f"torus with n={self.n}, d={self.d} overflows 64-bit site counts")

    @property
    def volume(self) -> int:
        return self.n**self.d


def torus_neighbors(spec: TorusSpec, x: Site) -> dict[Site, int]:
    """Neighbors of x on the torus with adjacency multiplicity.

    On an n=2 torus x+e_i and x-e_i coincide; the collapsed neighbor keeps
    multiplicity 2 so infection counts treat it as two adjacencies.
    """
    if len(x) != spec.d:
        raise ValueError(f"site has {len(x)} coords, torus has d={spec.d}")
    x = tuple(c % spec.n for c in x)
    out: dict[Site, int] = {}
    for i in range(spec.d):
        for delta in (1, -1):
            nb = x[:i] + ((x[i] + delta) % spec.n,) + x[i + 1 :]
            out[nb] = out.get(nb, 0) + 1
    return out


def torus_sites(spec: TorusSpec) -> list[Site]:
    """All torus sites in lexicographic order (the sampling order)."""
    return list(product(range(spec.n), repeat=spec.d))
