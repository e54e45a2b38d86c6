"""Geometry of l1 balls in Z^d.

Sites are plain tuples of ints.  Every enumeration here is deterministic
(sorted by (l1 norm, lexicographic coordinates)) so that certificates and
CSV output are bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

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


@dataclass(frozen=True)
class BallIndex:
    """Canonical enumeration of the l1 ball of radius t in Z^d.

    sites are sorted by (norm, coords); index_of inverts the enumeration.
    """

    sites: tuple[Site, ...]
    index_of: MappingProxyType[Site, int] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.sites)


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
    return BallIndex(sites=sites, index_of=MappingProxyType({s: i for i, s in enumerate(sites)}))


def dependency_offsets(d: int, t: int) -> tuple[Site, ...]:
    """All nonzero offsets of l1 norm <= 2t+1.

    Two protection events at offset beyond this range are driven by disjoint
    initial data and are independent.
    """
    if t < 0:
        raise ValueError(f"horizon must be >= 0, got {t}")
    return enumerate_ball(d, 2 * t + 1).sites[1:]  # the origin is site 0
