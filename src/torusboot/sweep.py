"""Bit-sliced light-cone sweeps over the subsets of a finite domain.

A plane is a uint64 array holding one site's uninfected bit for 64 subsets
per word, one subset per bit (the bit-slicing of Biham 1997, "A fast new DES
implementation in software").  The rules are bitwise expressions over the
neighbours' planes, shared with the torus step in dynamics, and step s
updates only the sites within distance steps - s of a target, the only
ones the targets' final states depend on.  A domain sorts its sites by
distance to the nearest target, so the k targets are its first sites and
each step updates a prefix of the rest.

Infection is monotone, so a subset that leaves a target infected at time 0
never protects it.  Both feeds therefore fix every target's plane to
all-ones (uninfected) and enumerate subsets of the other sites only:
mask_sweep runs all 2^(n-k) subsets of the n - k non-target sites of a
domain with k targets, and size_layer_hits the subsets of one size: the
prefixes one element shorter, unranked in lexicographic blocks, each get one
word per run of 64 last elements, written straight into the planes.
tests/test_extremal.py holds evolve_planes bit for bit to the boolean
finite-domain reference of tests/reference.py, both feeds to all 2^n subsets
run through it, and every lane of size_layer_hits to itertools.combinations
run through it.  The extremal oracles import this module on their first
sweep, so the package's other users never load it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import dynamics
from .dynamics import Rule, _stays_uninfected, lane_bits
from .lattice import Site, ball_size, enumerate_ball, l1_norm

_LOW_BITS = 6  # a word's 64 lanes hold every value of the 6 lowest mask bits
_CHUNK_BITS = 13  # a mask sweep evolves 2^13 words (2^19 masks) at a time
# A size-major block holds at most _PREFIX_BLOCK prefixes, each with at most
# ceil(m / 64) words over the m non-target sites, so its planes take at most
# 2^16 * m * ceil(m / 64) bytes: 3.9 MiB at m = 62, 16 MiB at m = 128.
_PREFIX_BLOCK = 1 << 13


class Domain(NamedTuple):
    """A finite site list with infected exterior, sorted by (distance to the
    nearest target, norm, coordinates), and the light cone of its targets.

    The k targets are sites 0..k-1, and rows[x] lists site x's 2d neighbours
    (+e_1, -e_1, ...).  Step s updates the sites within distance
    len(cone) - s of a target: the first cone[s - 1] sites.  The sites hold
    the radius-len(cone) ball around every target, so no neighbour of a cone
    site lies in the exterior.
    """

    sites: tuple[Site, ...]
    rows: tuple[tuple[int, ...], ...]
    cone: tuple[int, ...]
    k: int


@lru_cache(maxsize=None)
def domain(d: int, t: int, offset: Site | None = None) -> Domain:
    """B_t(0) with the origin as target, or B_t(0) union B_t(offset) with
    the origin then the offset as targets, evolved t steps.  A ball keeps
    enumerate_ball's order; a union is sorted by (distance to the nearer
    centre, norm, coordinates)."""
    ball = enumerate_ball(d, t).sites
    if offset is None:
        sites, nbr = ball, dynamics._ball_neighbor_matrix(d, t)
        cone = tuple(ball_size(d, t - step) for step in range(1, t + 1))  # step s updates B_(t-s)
    else:
        union = set(ball).union(tuple(c + o for c, o in zip(s, offset)) for s in ball)
        near = {s: min(l1_norm(s), sum(abs(c - o) for c, o in zip(s, offset))) for s in union}
        sites = tuple(sorted(near, key=lambda s: (near[s], l1_norm(s), s)))
        nbr = dynamics.neighbor_matrix(sites)
        dist = [near[s] for s in sites]
        cone = tuple(bisect_right(dist, t - step) for step in range(1, t + 1))
    if (nbr[: cone[0] if cone else 0] == len(sites)).any():
        raise AssertionError("a light-cone site has a neighbour outside the domain")
    return Domain(sites=sites, rows=tuple(map(tuple, nbr.tolist())), cone=cone, k=1 if offset is None else 2)


def evolve_planes(planes: list[np.ndarray], dom: Domain, rule: Rule) -> list[np.ndarray]:
    """Uninfected planes of the k targets after len(dom.cone) steps.

    planes[j] holds site j's initial uninfected bits and is not modified.
    """
    current = list(planes)
    for size in dom.cone:
        current[:size] = [_stays_uninfected(current, x, row, rule) for x, row in zip(range(size), dom.rows)]
    return current[: dom.k]


def protects(planes: list[np.ndarray], dom: Domain, rule: Rule) -> np.ndarray:
    """Plane of the subsets that leave every target uninfected."""
    first, *rest = evolve_planes(planes, dom, rule)
    for plane in rest:
        first = first & plane
    return first


@lru_cache(maxsize=1)
def _lane_tables() -> tuple[np.ndarray, np.ndarray]:
    """Lane p of a mask-sweep word holds the low mask bits p.  low[j] sets the
    lanes whose bit j is set; by_popcount[k] the lanes with k bits set."""
    low = [sum(1 << p for p in range(64) if p >> j & 1) for j in range(_LOW_BITS)]
    by_popcount = [sum(1 << p for p in range(64) if p.bit_count() == k) for k in range(_LOW_BITS + 1)]
    tables = np.array(low, dtype=np.uint64), np.array(by_popcount, dtype=np.uint64)
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


class Sweep(NamedTuple):
    """What a sweep found: the smallest protecting size, the protecting
    subsets of that size (site indices, in lexicographic order), and N_u for
    every u when the sweep covered all 2^n subsets."""

    min_size: int
    hits: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...] | None = None


def mask_sweep(dom: Domain, rule: Rule) -> Sweep:
    """All 2^n subsets, of which only the 2^(n-k) that hold the k targets are
    evolved: bit j of mask m says site k + j is uninfected, and the targets
    always are.

    The low 6 bits of m are its lane in a word, so their planes are fixed
    patterns; the higher bits are constant within a word.  Words are evolved
    in chunks of 2^_CHUNK_BITS, and the sizes of the hits are counted per
    word as popcount(word index) plus the popcount of the lane plus k.
    """
    n, k = len(dom.sites), dom.k
    free = n - k
    low, by_popcount = _lane_tables()
    n_low = min(free, _LOW_BITS)
    chunk_bits = min(free - n_low, _CHUNK_BITS)
    high_bits = free - n_low - chunk_bits
    words = np.arange(1 << chunk_bits, dtype=np.uint64)
    ones, zeros = np.full(words.size, ~np.uint64(0)), np.zeros(words.size, dtype=np.uint64)
    fixed = [np.full(words.size, low[j]) for j in range(n_low)]
    fixed += [np.where(words >> np.uint64(b) & np.uint64(1), ones, zeros) for b in range(chunk_bits)]
    valid = np.uint64((1 << (1 << n_low)) - 1)  # lanes p < 2^(n-k) when n - k < 6
    lane_popcount = np.arange(_LOW_BITS + 1)
    word_popcount = np.bitwise_count(words).astype(np.int64)
    counts = np.zeros(n + _LOW_BITS + 1, dtype=np.int64)
    best, found = n + 1, []
    for chunk in range(1 << high_bits):
        planes = [ones] * k + fixed + [ones if chunk >> b & 1 else zeros for b in range(high_bits)]
        good = protects(planes, dom, rule) & valid
        sel = np.flatnonzero(good)
        if not sel.size:
            continue
        per_lane_size = np.bitwise_count(good[sel, np.newaxis] & by_popcount)  # [word, lane popcount]
        size = word_popcount[sel, np.newaxis] + (chunk.bit_count() + k + lane_popcount)
        counts += np.bincount(size.ravel(), weights=per_lane_size.ravel(), minlength=counts.size).astype(np.int64)
        smallest = int(size[per_lane_size > 0].min())
        if smallest > best:
            continue
        if smallest < best:
            best, found = smallest, []
        word, lane_size = np.nonzero((size == best) & (per_lane_size > 0))
        w, lane = np.nonzero(lane_bits(good[sel[word]] & by_popcount[lane_size]))
        base = (chunk << chunk_bits) + sel[word[w]]
        found.append((base.astype(np.int64) << n_low) | lane)
    masks = np.concatenate(found).tolist()
    hits = sorted(tuple(range(k)) + tuple(k + j for j in range(free) if m >> j & 1) for m in masks)
    return Sweep(min_size=best, hits=tuple(hits), counts=tuple(int(c) for c in counts[: n + 1]))


def combination_blocks(n: int, u: int, rows: int):
    """The u-subsets of range(n) in lexicographic order, as arrays of
    increasing rows, exactly rows of them in every array but the last.

    Lexicographic rank r is colex rank C(n, u) - 1 - r of the reflected
    subset {n - 1 - x}, unranked a column at a time (Knuth, TAOCP 4A,
    7.2.1.3).  Counts are int64, each at most C(n, j) for some j <= u.  At
    layer u of B_t, size_layer_hits asks for the (u-2)-subsets of its m
    others, whose counts are at most C(m, j), j <= u - 2: the subsets that
    _min_layer swept within its budget at layer j + 1, so none overflows.
    """
    total = math.comb(n, u)
    binom = np.array([[math.comb(c, j) for c in range(n)] for j in range(u + 1)], dtype=np.int64)
    for first in range(0, total, rows):
        rank = total - 1 - np.arange(first, min(first + rows, total), dtype=np.int64)
        block = np.empty((rank.size, u), dtype=np.int64)
        for col, j in enumerate(range(u, 0, -1)):
            c = np.searchsorted(binom[j], rank, side="right") - 1
            rank -= binom[j, c]
            block[:, col] = n - 1 - c
        yield block


def size_layer_hits(dom: Domain, rule: Rule, u: int) -> list[tuple[int, ...]]:
    """The size-u subsets of the domain that protect every target, in
    lexicographic order.

    Only the subsets that hold the targets 0..k-1 are evolved: s = u - k of
    the m sites after them join them, site k + j as index j.  Each
    (s-1)-prefix of indices, ending at a (a = -1 for the empty prefix), gets
    ceil((m-1-a)/64) words; lane l of its c-th word is the prefix with
    a + 1 + 64c + l added, and lanes past m - 1 are invalid.  A prefix
    site's plane is its word's valid-lane mask, a tail site's plane the bit
    of its lane (one shift over all of a block's words), every target's
    plane the valid-lane mask, so no invalid lane holds a target and none
    protects, and every other plane 0.  At s = 0 one word with one lane
    holds the targets alone.  Prefixes come in lexicographic order and the
    tail rises along the lanes, so the hits, range(k) followed by the
    indices shifted by k, do too.
    """
    k = dom.k
    m, s, head = len(dom.sites) - k, u - k, tuple(range(k))
    if not 0 <= s <= m:
        return []
    if s == 0:  # one word with one lane: the targets alone
        planes = [np.ones(1, dtype=np.uint64)] * k + [np.zeros(1, dtype=np.uint64)] * m
        return [head] if protects(planes, dom, rule)[0] else []
    hits: list[tuple[int, ...]] = []
    for prefixes in combination_blocks(m, s - 1, _PREFIX_BLOCK):
        last = prefixes[:, -1] if s > 1 else np.full(len(prefixes), -1)
        n_words = (m - 1 - last + 63) // 64
        owner = np.repeat(np.arange(len(prefixes)), n_words)  # the prefix of each word
        word = np.arange(owner.size)
        start = last[owner] + 1 + 64 * (word - np.repeat(np.cumsum(n_words) - n_words, n_words))
        valid = ~np.uint64(0) >> (64 - np.minimum(m - start, 64)).astype(np.uint64)
        block = np.arange(m, dtype=np.uint64)[:, np.newaxis] - start.astype(np.uint64)
        # index j's bit j - start, 0 outside the word's lanes (j < start wraps past 63)
        np.left_shift(np.uint64(1), block, out=block)
        block[prefixes[owner], word[:, np.newaxis]] = valid[:, np.newaxis]
        good = protects([valid] * k + list(block), dom, rule)
        sel = np.flatnonzero(good)
        if not sel.size:
            continue
        w, lane_hit = np.nonzero(lane_bits(good[sel]))
        chosen = np.column_stack([prefixes[owner[sel[w]]], start[sel[w]] + lane_hit]) + k
        hits += [head + tuple(row) for row in chosen.tolist()]
    return hits
