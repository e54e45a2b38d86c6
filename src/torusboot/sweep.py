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
mask_feed runs all 2^(n-k) subsets of the n - k non-target sites of a
domain with k targets, and size_layer_hits the subsets of one size: the
prefixes one element shorter, unranked in lexicographic blocks, each get one
word per run of 64 last elements, written straight into the planes.
mask_feed yields only the words that hold a protecting subset, with their
indices, to mask_sweep, which counts and lists them, and to split_counts,
which keys each one of a ball once by its trace on the ball's intersection
with a translate and mirrors that table for the translate: the joint counts
of the two balls' union from one ball's sweep.  tests/test_extremal.py
holds evolve_planes bit for bit to the boolean finite-domain reference of
tests/reference.py, also on plain bools, both feeds to all 2^n subsets run
through it, every lane of size_layer_hits to itertools.combinations run
through it, split_counts to mask_sweep on the union, and the reflection
symmetry the mirror needs.  The extremal oracles import this module on
their first sweep, so the package's other users never load it.
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
# The words per plane a sweep evolves at once: a mask-sweep chunk (2^17
# masks), or the whole prefixes of a size-major block, whose m planes then
# take at most m * 16 KiB: 992 KiB at m = 62, 2 MiB at m = 128.  A prefix
# wider than the budget (m > 2^17) still gets a block of its own.
_CHUNK_WORDS = 1 << 11
# Lane p of a mask-sweep word holds the low mask bits p.  _LOW[j] sets the
# lanes whose bit j is set, _BY_POPCOUNT[k] the lanes with k bits set.
_LOW = np.array([sum(1 << p for p in range(64) if p >> j & 1) for j in range(_LOW_BITS)], dtype=np.uint64)
_BY_POPCOUNT = np.array(
    [sum(1 << p for p in range(64) if p.bit_count() == k) for k in range(_LOW_BITS + 1)], dtype=np.uint64
)
_LOW.flags.writeable = _BY_POPCOUNT.flags.writeable = False  # shared by every caller


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


def mask_feed(dom: Domain, rule: Rule):
    """The mask sweep's one feed, in order: for each chunk the indices of its
    words that hold a lane protecting every target, and good[w], those lanes
    of word words[w].  Lane p of word w is mask (w << n_low) | p, n_low =
    min(n - k, 6), whose bit j says site k + j is uninfected, over the
    2^(n-k) masks that hold the k targets; lanes past 2^(n-k) are 0.

    The low n_low bits of a mask are its lane in a word, so their planes are
    fixed patterns; the higher bits are constant within a word.  Words are
    evolved in chunks of at most _CHUNK_WORDS.
    """
    k = dom.k
    free = len(dom.sites) - k
    n_low = min(free, _LOW_BITS)
    chunk_bits = min(free - n_low, _CHUNK_WORDS.bit_length() - 1)
    high_bits = free - n_low - chunk_bits
    words = np.arange(1 << chunk_bits, dtype=np.uint64)
    ones, zeros = np.full(words.size, ~np.uint64(0)), np.zeros(words.size, dtype=np.uint64)
    fixed = [np.full(words.size, _LOW[j]) for j in range(n_low)]
    fixed += [np.where(words >> np.uint64(b) & np.uint64(1), ones, zeros) for b in range(chunk_bits)]
    valid = np.uint64((1 << (1 << n_low)) - 1)  # lanes p < 2^(n-k) when n - k < 6
    for chunk in range(1 << high_bits):
        planes = [ones] * k + fixed + [ones if chunk >> b & 1 else zeros for b in range(high_bits)]
        good = protects(planes, dom, rule) & valid
        sel = np.flatnonzero(good)
        if sel.size:
            yield (chunk << chunk_bits) + sel, good[sel]


def mask_sweep(dom: Domain, rule: Rule) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(hits, counts): the smallest protecting subsets (site indices, in
    lexicographic order) and N_u for every u, over all 2^n subsets, of which
    mask_feed evolves only the 2^(n-k) that hold the k targets, counted per
    word and lane popcount: popcount(word index) + k + popcount(lane) sites.
    """
    n, k = len(dom.sites), dom.k
    n_low = min(n - k, _LOW_BITS)
    lane_popcount = np.arange(_LOW_BITS + 1)
    counts = np.zeros(n + _LOW_BITS + 1, dtype=np.int64)
    best, found = n + 1, []
    for words, good in mask_feed(dom, rule):
        per_lane_size = np.bitwise_count(good[:, np.newaxis] & _BY_POPCOUNT)  # [word, lane popcount]
        size = np.bitwise_count(words).astype(np.int64)[:, np.newaxis] + (k + lane_popcount)
        counts += np.bincount(size.ravel(), weights=per_lane_size.ravel(), minlength=counts.size).astype(np.int64)
        smallest = int(size[per_lane_size > 0].min())
        if smallest > best:
            continue
        if smallest < best:
            best, found = smallest, []
        word, lane_size = np.nonzero((size == best) & (per_lane_size > 0))
        w, lane = np.nonzero(lane_bits(good[word] & _BY_POPCOUNT[lane_size]))
        found.append(words[word[w]] << n_low | lane)
    masks = np.concatenate(found).tolist()
    hits = sorted(tuple(range(k)) + tuple(k + j for j in range(n - k) if m >> j & 1) for m in masks)
    return tuple(hits), tuple(int(c) for c in counts[: n + 1])


def intersection(d: int, t: int, offset: Site) -> tuple[tuple[int, int], ...]:
    """The shared sites x of B_t(0) and B_t(offset), in enumerate_ball order,
    as pairs: x's index in B_t, and the position in this list of its mirror
    offset - x, which is shared too."""
    ball = enumerate_ball(d, t)
    shared = [x for x in ball.sites if sum(abs(c - o) for c, o in zip(x, offset)) <= t]
    position = {x: i for i, x in enumerate(shared)}
    return tuple((ball.index_of[x], position[tuple(o - c for c, o in zip(x, offset))]) for x in shared)


def split_counts(d: int, t: int, offset: Site, rule: Rule) -> tuple[int, ...]:
    """N_u over U = B_t(0) union B_t(offset) for the subsets that protect
    both centres, the counts mask_sweep gives on domain(d, t, offset), from
    one mask_feed over B_t(0).

    Each centre's state at time t reads only its own ball.  With I = B_t(0)
    ∩ B_t(offset), every protecting subset S of B_t(0) is tabulated once, by
    its trace on I and its size off I: F[S ∩ I][|S| - |S ∩ I|].  Translated
    by -offset, the offset's event reads the trace on I - offset = -I; B_t
    and both rules are symmetric under x -> -x, so S protects exactly when
    -S does, and the offset's table is F[σ(s)], σ the mirror x -> offset - x
    of I.  A subset of U is a pair of one from each table that agree on I,
    so N_u = sum over s ⊆ I and j of F[s][j] F[σ(s)][u - |s| - j].  A key
    holds site I[i] in bit i and is built one site of I at a time, so no
    array grows with masks × |I|.  The caller keeps the table's 2^|I| (|B_t|
    - |I| + 1) cells within a chunk's 64 _CHUNK_WORDS masks, and |U| <= 66,
    where every partial sum of N_u is at most C(66, 33) < 2^63, so the int64
    sums are exact.
    """
    dom = domain(d, t)
    n = len(dom.sites)
    n_low = min(n - 1, _LOW_BITS)
    pairs = intersection(d, t, offset)
    m, width = len(pairs), n - len(pairs) + 1  # |S \ I| runs over 0..n - |I|
    table = np.zeros(width << m, dtype=np.int64)
    for words, good in mask_feed(dom, rule):
        w, lane = np.nonzero(lane_bits(good))
        subsets = (words[w] << n_low | lane) << 1 | 1  # bit j says site j is in S; the origin always is
        key = np.zeros_like(subsets)
        for i, (x, _) in enumerate(pairs):
            key |= (subsets >> x & 1) << i
        table += np.bincount(key * width + np.bitwise_count(subsets) - np.bitwise_count(key), minlength=table.size)
    keys = np.arange(1 << m)
    mirror = np.zeros_like(keys)  # σ(s)
    for i, (_, j) in enumerate(pairs):
        mirror |= (keys >> i & 1) << j
    f = table.reshape(1 << m, width)
    f_offset = f[mirror]
    pair = np.zeros((1 << m, 2 * width - 1), dtype=np.int64)  # [s, |S \ I| + |S' \ (I - offset)|]
    for j in range(width):
        pair[:, j : j + width] += f[:, j, np.newaxis] * f_offset
    inside = np.bitwise_count(keys)
    counts = np.zeros(2 * n - m + 1, dtype=np.int64)  # |U| = 2|B_t| - |I|
    for c in range(m + 1):
        counts[c : c + pair.shape[1]] += pair[inside == c].sum(axis=0)
    return tuple(int(c) for c in counts)


def combination_blocks(n: int, u: int, rows: int):
    """The u-subsets of range(n) in lexicographic order, as arrays of
    increasing rows, exactly rows of them in every array but the last.

    Lexicographic rank r is colex rank C(n, u) - 1 - r of the reflected
    subset {n - 1 - x}, unranked a column at a time (Knuth, TAOCP 4A,
    7.2.1.3).  Counts are int64, each at most C(n, j) for some j <= u.  At
    layer u of B_t, size_layer_hits asks for the (u-2)-subsets of its m
    others, whose counts are at most C(m, j), j <= u - 2: _min_layer swept
    those at layer j + 1 of the same call, within its budget, so none overflows.
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
    holds the targets alone.  A block takes as many whole prefixes as fit in
    _CHUNK_WORDS words, at least one, and every block refills the front of
    one buffer in place as its m planes.  Prefixes come in lexicographic
    order and the tail rises along the lanes, so the hits, range(k)
    followed by the indices shifted by k, do too.
    """
    k = dom.k
    m, s, head = len(dom.sites) - k, u - k, tuple(range(k))
    if not 0 <= s <= m:
        return []
    if s == 0:  # one word with one lane: the targets alone
        planes = [np.ones(1, dtype=np.uint64)] * k + [np.zeros(1, dtype=np.uint64)] * m
        return [head] if protects(planes, dom, rule)[0] else []
    widest = (m + 63) // 64  # the most words a prefix gets
    rows = max(1, _CHUNK_WORDS // widest)
    buffer = np.empty(m * rows * widest, dtype=np.uint64)
    index = np.arange(m, dtype=np.uint64)[:, np.newaxis]
    hits: list[tuple[int, ...]] = []
    for prefixes in combination_blocks(m, s - 1, rows):
        last = prefixes[:, -1] if s > 1 else np.full(len(prefixes), -1)
        n_words = (m - 1 - last + 63) // 64
        owner = np.repeat(np.arange(len(prefixes)), n_words)  # the prefix of each word
        word = np.arange(owner.size)
        start = last[owner] + 1 + 64 * (word - np.repeat(np.cumsum(n_words) - n_words, n_words))
        valid = ~np.uint64(0) >> (64 - np.minimum(m - start, 64)).astype(np.uint64)
        # contiguous planes: a column slice of an (m, width) buffer strides, which slows every step
        block = buffer[: m * owner.size].reshape(m, owner.size)
        # index j's bit j - start, 0 outside the word's lanes (j < start wraps past 63)
        np.subtract(index, start.astype(np.uint64), out=block)
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
