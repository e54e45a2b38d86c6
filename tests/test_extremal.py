import math
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import classify_by_search, column_sites, evolve_boolean, protected_row

from torusboot import dynamics, extremal, sweep
from torusboot.dynamics import Modified, Standard, ball_state, is_origin_protected
from torusboot.extremal import (
    DEFAULT_BUDGET,
    PreconditionError,
    WorkBudgetExceeded,
    check_layer_bounds,
    classify,
    count_min_certificates,
    count_near_minimal,
    exact_joint,
    exact_rho1,
    min_protecting_size,
)
from torusboot.formulas import ell, leading_term, m, m_general
from torusboot.lattice import dependency_offsets, enumerate_ball, l1_norm


def test_min_size_small_cases():
    assert min_protecting_size(2, 1, Standard(2)) == 4
    assert min_protecting_size(2, 2, Standard(2)) == 8
    assert min_protecting_size(2, 1, Modified()) == 3
    assert min_protecting_size(2, 2, Modified()) == 5


def test_budget_refusal_carries_estimate():
    with pytest.raises(WorkBudgetExceeded) as exc:
        min_protecting_size(2, 2, Standard(2), budget=10)
    assert exc.value.budget == 10
    assert exc.value.estimate > 10


def test_huge_estimate_message_is_a_power_of_two():
    # 20,000 bits is past the 4,300-digit limit of int-to-decimal conversion
    exc = WorkBudgetExceeded(1 << 20000, 10**8)
    assert "~2^20000 subset tests, budget is 100000000" in str(exc)
    assert exc.estimate == 1 << 20000
    assert "2^20000 " in str(WorkBudgetExceeded((1 << 20000) + 12345, 10**8))


def clear_memos():
    extremal._mask_sweep.cache_clear()


def test_cached_sweep_does_not_bypass_the_budget():
    # the 13-site (2,2) ball takes the mask sweep over the 2^12 masks that
    # hold the origin; the union of B_1(0) and B_1((1,0)) refuses from B_1's 2^4
    calls = [
        (lambda budget: min_protecting_size(2, 2, Standard(2), budget=budget), 4096),
        (lambda budget: count_min_certificates(2, 2, Standard(2), budget=budget), 4096),
        (lambda budget: exact_rho1(2, 2, budget=budget), 4096),
        (lambda budget: exact_joint(2, 1, (1, 0), budget=budget), 16),
        (lambda budget: count_near_minimal(2, 2, 1, budget=budget), 4096),
    ]
    for call, _ in calls:
        call(DEFAULT_BUDGET)  # every memo is filled
    for call, work in calls:
        with pytest.raises(WorkBudgetExceeded) as exc:
            call(10)
        assert (exc.value.budget, exc.value.estimate) == (10, work)


def test_size_major_memo_does_not_serve_full_counts():
    # the 29-site modified (14,1) ball takes the size-major sweep, which stops
    # at the first size with a hit; it leaves no memo behind, so the full
    # counts still refuse their 2^28 masks and a repeat still refuses its 407
    clear_memos()
    assert count_min_certificates(14, 1, Modified())[0] == 14
    assert extremal._mask_sweep.cache_info().currsize == 0
    with pytest.raises(WorkBudgetExceeded) as exc:
        exact_rho1(14, 1, Modified())
    assert exc.value.estimate == 1 << 28
    with pytest.raises(WorkBudgetExceeded) as exc:
        count_min_certificates(14, 1, Modified(), budget=406)
    assert exc.value.estimate == 407
    assert extremal._mask_sweep.cache_info().currsize == 0


def test_budget_between_size_major_work_and_all_masks(monkeypatch):
    # at (2,2) the size-major sweep would evolve the C(12, u - 1) subsets of
    # each size u: 1 + 12 + 66 + 220 + 495 + 792 + 924 + 792 = 3302 through
    # size 8, fewer than the 2^12 = 4096 masks that hold the origin.  The
    # 13-site ball still takes the mask sweep, so 4095 refuses with its work
    clear_memos()
    sizes = []
    size_layer_hits = sweep.size_layer_hits

    def spy_size_layer_hits(dom, rule, u):
        sizes.append(u)
        return size_layer_hits(dom, rule, u)

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "size_layer_hits", spy_size_layer_hits)
        with pytest.raises(WorkBudgetExceeded) as exc:
            count_min_certificates(2, 2, Standard(2), budget=4095)
        assert exc.value.estimate == 4096
        assert extremal._mask_sweep.cache_info().currsize == 0
        assert count_min_certificates(2, 2, Standard(2), budget=4096)[0] == 16
    assert sizes == []
    assert extremal._mask_sweep.cache_info().currsize == 1


AXIS_LINES_4_2 = {
    frozenset(tuple(k if i == axis else 0 for i in range(4)) for k in range(-2, 3)) for axis in range(4)
}


def test_modified_4_2_accepted_under_default_budget():
    # 2^40 masks are far over the budget; the size-major sweep tests the
    # 102,091 subsets of sizes 1..5 that hold the origin
    count, certs = count_min_certificates(4, 2, Modified(), budget=DEFAULT_BUDGET)
    assert count == 4
    assert {c.uninfected for c in certs} == AXIS_LINES_4_2


@pytest.mark.parametrize(
    "d,t,rule,budgets,feed,other",
    [
        (2, 2, Standard(2), (4096, DEFAULT_BUDGET, 1 << 40), "mask_sweep", "size_layer_hits"),
        (4, 2, Modified(), (102_091, DEFAULT_BUDGET, 1 << 40), "size_layer_hits", "mask_sweep"),
    ],
    ids=["mask-2-2", "size-major-4-2"],
)
def test_the_ball_alone_picks_the_minimum_feed(monkeypatch, d, t, rule, budgets, feed, other):
    # a ball of at most 27 sites takes the mask sweep, a larger one the
    # size-major sweep, at every budget that answers: the 2^40 masks of the
    # 41-site (4,2) would take about 20 minutes to evolve
    runs = []
    chosen = getattr(sweep, feed)

    def spy(*args):
        runs.append(feed)
        return chosen(*args)

    def refuse(*args):
        raise AssertionError(f"{other} ran")

    monkeypatch.setattr(sweep, feed, spy)
    monkeypatch.setattr(sweep, other, refuse)
    for budget in budgets:
        clear_memos()
        runs.clear()
        count, certs = count_min_certificates(d, t, rule, budget=budget)
        assert runs
        if feed == "mask_sweep":
            assert count == 16
        else:
            assert {c.uninfected for c in certs} == AXIS_LINES_4_2


def test_budget_boundaries_are_the_subsets_evolved():
    # modified (4,2), 41 sites: C(40, 0) + ... + C(40, 4) = 1 + 40 + 780 +
    # 9880 + 91390 = 102,091 subsets of sizes 1..5 hold the origin
    assert count_min_certificates(4, 2, Modified(), budget=102_091)[0] == 4
    with pytest.raises(WorkBudgetExceeded) as exc:
        count_min_certificates(4, 2, Modified(), budget=102_090)
    assert exc.value.estimate == 102_091
    # B_1(0) and B_1((1,0)) share 2 of their 5 sites, so the joint splits
    # one sweep of B_1's 2^4 = 16 masks that hold the origin over those 2
    assert exact_joint(2, 1, (1, 0), budget=16).counts == JOINT_2_1[(0, 1)]
    with pytest.raises(WorkBudgetExceeded) as exc:
        exact_joint(2, 1, (1, 0), budget=15)
    assert exc.value.estimate == 16


def spy_on_feeds(monkeypatch):
    """The lanes holding every target that the feeds pass to sweep.protects:
    the distinct subsets among them, and how many lanes each call held.  A
    mask sweep's lanes past its valid masks repeat valid ones; a size-major
    sweep's invalid lanes hold no target."""
    subsets, held = set(), []
    protects = sweep.protects

    def spy_protects(planes, dom, rule):
        lanes = np.stack([dynamics.lane_bits(plane).ravel() for plane in planes], axis=1)
        holding = lanes[lanes[:, : dom.k].all(axis=1)]
        subsets.update(map(bytes, np.packbits(holding, axis=1)))
        held.append(len(holding))
        return protects(planes, dom, rule)

    monkeypatch.setattr(sweep, "protects", spy_protects)
    return subsets, held


@pytest.mark.parametrize(
    "oracle,args,work,size_major",
    [
        (exact_rho1, (2, 1), 2**4, False),  # 2^4 valid lanes of one word
        (exact_rho1, (2, 2), 2**12, False),
        (exact_joint, (2, 2, (1, 0)), 2**12, False),  # the split: 13 sites, one target
        (exact_joint, (1, 3, (1,)), 2**6, False),  # the union: 8 sites, two targets
        # 29 sites: C(28, 0) + C(28, 1) + C(28, 2) = 407 subsets of sizes 1..3
        (count_min_certificates, (14, 1, Modified()), 407, True),
    ],
    ids=["rho1-2-1", "rho1-2-2", "joint-2-2", "joint-union-1-3", "size-major-14-1"],
)
def test_refusal_estimate_is_the_work_the_feeds_do(monkeypatch, oracle, args, work, size_major):
    clear_memos()
    subsets, held = spy_on_feeds(monkeypatch)
    oracle(*args)
    assert len(subsets) == work
    # the size-major feed's valid lanes are each subset once; a mask sweep
    # evolves at least one whole word of 64 lanes
    assert sum(held) == (work if size_major else max(work, 64))
    with pytest.raises(WorkBudgetExceeded) as exc:
        oracle(*args, budget=work - 1)
    assert exc.value.estimate == work
    oracle(*args, budget=work)


def test_sweep_module_loads_on_the_first_sweep():
    code = (
        "import sys\n"
        "import torusboot.cli, torusboot.verify\n"
        "assert 'torusboot.sweep' not in sys.modules\n"
        "from torusboot.dynamics import Standard\n"
        "from torusboot.extremal import min_protecting_size\n"
        "assert min_protecting_size(2, 1, Standard(2)) == 4\n"
        "assert 'torusboot.sweep' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(extremal.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cached_tables_are_read_only():
    # every caller shares one cached array or dict, so none may write into it
    for table in (dynamics._ball_neighbor_matrix(2, 2), *sweep._lane_tables()):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    for table in (extremal._templates(2, 2, Standard(2)), extremal._templates(2, 2, Modified()),
                  enumerate_ball(2, 2).index_of):
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            del table[key]


@pytest.mark.parametrize(
    "d,t,rule,offset",
    [
        (2, 1, Standard(2), None),
        (2, 2, Standard(2), None),
        (2, 2, Modified(), None),
        (3, 1, Standard(3), None),
        (2, 2, Standard(3), None),
        (2, 1, Modified(), (1, 0)),
        (3, 1, Modified(), (-2, 0, 0)),
        (2, 2, Standard(2), (1, 1)),
        (2, 3, Modified(), None),  # 25 sites: the mask sweep runs in several chunks
    ],
)
def test_size_major_and_mask_sweeps_agree(monkeypatch, d, t, rule, offset):
    dom = sweep.domain(d, t, offset)
    full = hits, counts = sweep.mask_sweep(dom, rule)
    min_size = len(hits[0])
    assert sweep.size_layer_hits(dom, rule, min_size) == list(hits)
    for u in range(min_size + 2):
        assert len(sweep.size_layer_hits(dom, rule, u)) == counts[u]
    if len(dom.sites) <= 14:
        # one word per chunk, so the smallest size found falls during the sweep
        monkeypatch.setattr(sweep, "_CHUNK_WORDS", 1)
        assert sweep.mask_sweep(dom, rule) == full


def reference_layers(dom, t, rule):
    """The protecting subsets of each size u = 0..n, in lexicographic order,
    from all 2^n subsets of the domain run through the boolean reference."""
    n = len(dom.sites)
    uninf = np.arange(1 << n)[:, np.newaxis] >> np.arange(n) & 1 == 1
    final = evolve_boolean(uninf, dynamics.neighbor_matrix(dom.sites), rule, steps=t)
    masks = np.flatnonzero(final[:, : dom.k].all(axis=1)).tolist()
    hits = sorted(tuple(j for j in range(n) if m >> j & 1) for m in masks)
    return [[h for h in hits if len(h) == u] for u in range(n + 1)]


# every domain of at most 13 sites among the balls B_t of d <= 6 and the
# joint domains of exact_joint, including the one-site t = 0 balls; 14
# would add 38 disjoint (3,1) pairs and 6 s for no new shape
REFERENCE_DOMAINS = [
    (d, t, offset)
    for d, t in [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 0), (2, 1), (2, 2),
                 (3, 0), (3, 1), (4, 0), (4, 1), (5, 1), (6, 1)]
    for offset in (None,) + dependency_offsets(d, t)
    if len(sweep.domain(d, t, offset).sites) <= 13
]


@pytest.mark.parametrize("d,t,offset", REFERENCE_DOMAINS, ids=str)
def test_both_feeds_match_the_boolean_reference_on_all_subsets(monkeypatch, d, t, offset):
    dom = sweep.domain(d, t, offset)
    for rule in [Modified()] + [Standard(r) for r in range(1, 2 * d + 1)]:
        layers = reference_layers(dom, t, rule)
        min_size = next(u for u, hits in enumerate(layers) if hits)
        want = tuple(layers[min_size]), tuple(map(len, layers))
        assert sweep.mask_sweep(dom, rule) == want, rule
        for u, hits in enumerate(layers):  # includes u < dom.k
            assert sweep.size_layer_hits(dom, rule, u) == hits, (rule, u)
        if rule in (Modified(), Standard(d)):
            # one word per chunk, so the mask feed also steps through its high bits
            with monkeypatch.context() as patch:
                patch.setattr(sweep, "_CHUNK_WORDS", 1)
                assert sweep.mask_sweep(dom, rule) == want, rule


def test_combination_blocks_are_lexicographic():
    for n, u in [(7, 0), (7, 3), (12, 5), (9, 9), (40, 3)]:
        for rows in (1, 3, 10, 1000):
            blocks = list(sweep.combination_blocks(n, u, rows))
            assert all(len(b) == rows for b in blocks[:-1]) and 1 <= len(blocks[-1]) <= rows
            assert [tuple(r) for b in blocks for r in b.tolist()] == list(combinations(range(n), u))
    # the size-major prefixes of B_2 in d = 6 at size 6 and of B_3 in d = 3
    # at size 7, too many for itertools: C(n, u) increasing rows within
    # range(n), rising lexicographically across blocks from range(u) to
    # range(n - u, n), force the sequence; size_layer_hits asks for as many
    # rows as fit in _CHUNK_WORDS at ceil(n / 64) words a row
    for n, u in [(84, 4), (62, 5)]:
        rows = sweep._CHUNK_WORDS // -(-n // 64)
        sizes, prev = [], np.arange(-1, u - 1)[np.newaxis]  # one row below range(u)
        for block in sweep.combination_blocks(n, u, rows):
            assert ((0 <= block) & (block < n)).all() and (np.diff(block, axis=1) > 0).all()
            diff = np.diff(np.concatenate([prev, block]), axis=0)
            first = np.argmax(diff != 0, axis=1)  # the first column where two rows differ
            assert (diff[np.arange(len(diff)), first] > 0).all()
            if not sizes:
                assert block[0].tolist() == list(range(u))
            sizes.append(len(block))
            prev = block[-1:]
        assert all(size == rows for size in sizes[:-1]) and 1 <= sizes[-1] <= rows
        assert sum(sizes) == math.comb(n, u) and prev[0].tolist() == list(range(n - u, n))


@pytest.mark.parametrize(
    "d,t,offset,sizes,chunk_words,rows",
    [
        (3, 4, None, range(1, 4), None, 1024),  # 128 others: a tail spans two words
        (3, 4, None, range(1, 4), 6, 3),
        (3, 4, None, range(1, 3), 2, 1),
        (3, 4, None, range(1, 3), 1, 1),  # below a 2-word tail: still one whole prefix
        (2, 2, None, range(0, 15), None, 2048),  # every size, and one past the domain
        (2, 2, None, range(0, 15), 3, 3),
        (2, 2, None, (0, 1, 2, 3, 4, 11, 12, 13, 14), 1, 1),  # blocks of one prefix
        (2, 2, (1, 0), range(0, 5), None, 2048),  # two targets: nothing below u = 2, s = 0 at u = 2
        (2, 2, (1, 0), range(0, 5), 1, 1),
    ],
    ids=["3-4", "3-4-block-3", "3-4-block-1", "3-4-budget-1", "2-2", "2-2-block-3", "2-2-block-1",
         "joint-2-2", "joint-2-2-block-1"],
)
def test_size_layer_lanes_are_the_combinations_bit_for_bit(monkeypatch, d, t, offset, sizes, chunk_words, rows):
    """Every lane that holds the targets, in the order the size-major feed
    evolves them, is the next subset of itertools.combinations over the
    non-target sites with the targets added, and its protection bit is the
    boolean reference's; no other lane protects.  A budget of chunk_words
    gives blocks of rows prefixes; 1 or 3 put block boundaries inside every
    layer, and a shorter last block refills the same plane buffer."""
    dom = sweep.domain(d, t, offset)
    n, k = len(dom.sites), dom.k
    nbr = dynamics.neighbor_matrix(dom.sites)
    if chunk_words is not None:
        monkeypatch.setattr(sweep, "_CHUNK_WORDS", chunk_words)
    evolved = []
    protects = sweep.protects
    combination_blocks = sweep.combination_blocks

    def spy_blocks(m, length, block_rows):
        assert block_rows == rows
        return combination_blocks(m, length, block_rows)

    def spy_protects(planes, dom, rule):
        good = protects(planes, dom, rule)
        lanes = np.stack([dynamics.lane_bits(plane).ravel() for plane in planes], axis=1)
        bits = dynamics.lane_bits(good).ravel()
        holding = lanes[:, :k].all(axis=1)
        assert not bits[~holding].any()
        evolved.append((lanes[holding], bits[holding]))
        return good

    monkeypatch.setattr(sweep, "protects", spy_protects)
    monkeypatch.setattr(sweep, "combination_blocks", spy_blocks)
    for rule in (Modified(), Standard(d), Standard(2 * d)):
        for u in sizes:
            evolved.clear()
            subsets = [list(range(k)) + list(c) for c in combinations(range(k, n), u - k)] if u >= k else []
            uninf = np.zeros((len(subsets), n), dtype=bool)
            for row, subset in zip(uninf, subsets):
                row[subset] = True
            want = evolve_boolean(uninf, nbr, rule, steps=t)[:, :k].all(axis=1)
            hits = sweep.size_layer_hits(dom, rule, u)
            lanes = np.concatenate([held for held, _ in evolved] + [np.zeros((0, n), dtype=bool)])
            bits = np.concatenate([good for _, good in evolved] + [np.zeros(0, dtype=bool)])
            np.testing.assert_array_equal(lanes, uninf)
            np.testing.assert_array_equal(bits, want)
            assert hits == [tuple(s) for s, good in zip(subsets, want) if good], (rule, u)


@pytest.mark.parametrize(
    "run,dom",
    [
        (lambda dom: sweep.size_layer_hits(dom, Modified(), 5), sweep.domain(4, 2)),
        (lambda dom: sweep.mask_sweep(dom, Standard(2)), sweep.domain(2, 2, (2, 1))),
    ],
    ids=["size-major-4-2", "mask-joint-2-2"],
)
def test_sweeps_hold_a_bounded_working_set(run, dom):
    """A sweep's numpy allocations peak within three planes' worth of
    _CHUNK_WORDS words per site, so neither feed holds a whole layer: the
    size-major run has 9,880 prefixes of one word over 41 sites, the mask
    run 2^20 masks (2^14 words) over 22."""
    run(dom)  # fills the cached lane tables, which outlive the call
    tracemalloc.start()
    try:
        run(dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(dom.sites) * sweep._CHUNK_WORDS * 8


def test_count_certificates_2_2():
    count, certs = count_min_certificates(2, 2, Standard(2))
    assert count == 16
    assert all(c.size == 8 for c in certs)
    tags = [classify(c) for c in certs]
    assert (tags.count("canonical"), tags.count("semi-canonical"), tags.count("other")) == (4, 12, 0)


def signed_permutations(d):
    """The hyperoctahedral group, of order 2^d d!: every signed permutation
    of the axes, as a map on sites.  The rules, the balls and the
    protection events are all invariant under it."""
    return [
        lambda s, perm=perm, signs=signs: tuple(e * s[i] for i, e in zip(perm, signs))
        for perm in permutations(range(d))
        for signs in product((1, -1), repeat=d)
    ]


def test_certificates_closed_under_symmetry():
    # the minimal certificate set must be a union of orbits
    for d, t in [(2, 2), (2, 3), (3, 2)]:
        _, certs = count_min_certificates(d, t, Standard(d))
        cert_sets = {c.uninfected for c in certs}
        group = signed_permutations(d)
        assert len(group) == 2**d * math.factorial(d)
        for cert in certs:
            for g in group:
                assert frozenset(map(g, cert.uninfected)) in cert_sets


@pytest.mark.parametrize("d,t", [(2, 2), (2, 3), (3, 2)])
def test_classification_is_constant_on_orbits(d, t):
    # canonical vs semi-canonical is read off column templates; the group
    # is an independent check that the split follows whole orbits
    _, certs = count_min_certificates(d, t, Standard(d))
    tags = {c.uninfected: classify(c) for c in certs}
    assert set(tags.values()) == {"canonical", "semi-canonical"}
    for sites, tag in tags.items():
        for g in signed_permutations(d):
            assert tags[frozenset(map(g, sites))] == tag


@pytest.mark.parametrize("rule", [Standard(2), Modified()], ids=["standard", "modified"])
def test_exact_joint_counts_are_constant_on_offset_orbits(rule):
    for t in (1, 2):
        counts = {off: exact_joint(2, t, off, rule).counts for off in dependency_offsets(2, t)}
        assert len(set(counts.values())) > 1  # the counts do tell offsets apart
        for off, c in counts.items():
            for g in signed_permutations(2):
                assert counts[g(off)] == c, (t, off)


@pytest.mark.parametrize(
    "d,t,rule",
    [(2, t, rule) for t in range(4) for rule in (Standard(2), Modified())]
    + [(3, t, rule) for t in range(3) for rule in (Standard(3), Modified())]
    + [(4, t, rule) for t in range(2) for rule in (Standard(4), Modified())]
    + [(4, 2, Modified())],
)
def test_leading_term_matches_the_oracle(d, t, rule):
    want = (count_min_certificates(d, t, rule)[0], min_protecting_size(d, t, rule))
    assert leading_term(t, d, rule) == want


@pytest.mark.parametrize(
    "d,t,r",
    [(d, t, r) for t in (0, 1) for d in range(3, 7) for r in range(2, d)] + [(3, 2, 2)],
)
def test_m_general_matches_the_oracle(d, t, r):
    # every cell with 2 <= r < d that the default budget answers
    assert m_general(t, d, r) == min_protecting_size(d, t, Standard(r))


@pytest.mark.parametrize("t", range(4))
@pytest.mark.parametrize("rule", [Standard(1), Modified()], ids=["standard", "modified"])
def test_leading_term_in_one_dimension_matches_the_oracle(rule, t):
    # the values p-alpha --d 1 relies on: one minimal set, the segment of 2t+1 sites
    count, certs = count_min_certificates(1, t, rule)
    assert leading_term(t, 1, rule) == (count, certs[0].size) == (1, 2 * t + 1)


def test_count_certificates_t1_regression():
    # t = 1 sits outside the closed-form count; pinned enumeration values
    assert count_min_certificates(2, 1, Standard(2))[0] == 4
    assert count_min_certificates(3, 1, Standard(3))[0] == 15


def test_modified_certificates_are_axis_columns():
    count, certs = count_min_certificates(2, 2, Modified())
    assert count == 2
    expected = {
        frozenset({(0, -2), (0, -1), (0, 0), (0, 1), (0, 2)}),
        frozenset({(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)}),
    }
    assert {c.uninfected for c in certs} == expected


# (5,2) and (6,2) have 60 and 84 other sites, 2^60 and 2^84 masks, so the
# size-major sweep answers, its tails spanning two words at (6,2)
@pytest.mark.parametrize("d,t", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (6, 2)])
def test_modified_minimal_certificates_classify_canonical(d, t):
    # the minimal modified certificates are the d axis lines, each protecting exactly itself
    count, certs = count_min_certificates(d, t, Modified())
    assert (count, certs[0].size) == leading_term(t, d, Modified())
    assert all(classify(c) == "canonical" for c in certs)
    sites = enumerate_ball(d, t).sites
    lines = {frozenset(s for s in sites if not any(s[:axis] + s[axis + 1:])) for axis in range(d)}
    assert {c.uninfected for c in certs} == lines


def test_classify_column_is_canonical():
    cert = extremal.Certificate(
        d=2, t=2, rule=Standard(2), uninfected=frozenset(column_sites(2, 2))
    )
    assert classify(cert) == "canonical"


def reference_class(d, t, rule, uninfected):
    """classify_by_search on the protected set of the state with `uninfected` uninfected."""
    sites = enumerate_ball(d, t).sites
    protected = frozenset(s for s, p in zip(sites, protected_row(d, t, uninfected, rule)) if p)
    return classify_by_search(d, t, rule, protected)


CLASSIFY_CELLS = [(1, t) for t in range(3)] + [(2, t) for t in range(4)] + [(3, 1), (3, 2), (4, 1)]


@pytest.mark.parametrize("d,t", CLASSIFY_CELLS)
@pytest.mark.parametrize("modified", [False, True], ids=["standard", "modified"])
def test_template_table_matches_the_search(d, t, modified):
    # template sets repeat (the column is also base | {top, bottom}), so a
    # table in which a later template overwrote an earlier one fails here
    rule = Modified() if modified else Standard(d)
    ball = set(enumerate_ball(d, t).sites)
    for sites, tag in extremal._templates(d, t, rule).items():
        assert tag == classify_by_search(d, t, rule, sites)
        if sites <= ball:  # at t = 0 a displaced end lies outside B_0
            cert = extremal.Certificate(d=d, t=t, rule=rule, uninfected=sites)
            assert classify(cert) == reference_class(d, t, rule, sites)
    for cert in count_min_certificates(d, t, rule)[1]:
        assert classify(cert) == reference_class(d, t, rule, cert.uninfected)


@pytest.mark.parametrize("d,t", [(2, 1), (2, 2), (3, 1)])
def test_classify_matches_the_search_for_every_threshold(d, t):
    for r in range(1, 2 * d + 1):
        for cert in count_min_certificates(d, t, Standard(r))[1]:
            assert classify(cert) == reference_class(d, t, Standard(r), cert.uninfected)


def test_classify_matches_the_search_on_random_subsets():
    rng = np.random.default_rng(23)
    for d, t in [(2, 2), (2, 3), (3, 2)]:
        sites = enumerate_ball(d, t).sites
        for rule in (Standard(d), Standard(d - 1), Modified()):
            for q in (0.6, 0.9):
                for row in rng.random((40, len(sites))) < q:
                    uninfected = frozenset(s for s, u in zip(sites, row) if u)
                    cert = extremal.Certificate(d=d, t=t, rule=rule, uninfected=uninfected)
                    assert classify(cert) == reference_class(d, t, rule, uninfected)


@pytest.mark.parametrize("d,t", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_template_table_holds_the_paper_count(d, t):
    # d^3 2^(d-1) distinct columns with displaced ends; (4,2) and (5,2) are
    # past the exhaustive oracle's budget, so this checks the count on its own
    assert len(extremal._templates(d, t, Standard(d))) == leading_term(t, d, Standard(d))[0]


@pytest.mark.parametrize("d,t", [(d, t) for d in range(1, 5) for t in range(1, 4)])
def test_modified_template_table_is_the_axis_lines(d, t):
    assert len(extremal._templates(d, t, Modified())) == d


def test_classification_tags():
    # a column, the same column with its top end displaced sideways, and the origin alone
    column = frozenset(column_sites(2, 2))
    semi = column - {(0, 2)} | {(-1, 1)}
    certs = [extremal.Certificate(d=2, t=2, rule=Standard(2), uninfected=s)
             for s in (column, semi, frozenset({(0, 0)}))]
    assert [classify(c) for c in certs] == ["canonical", "semi-canonical", "other"]


def test_exact_rho1_2_1():
    poly = exact_rho1(2, 1)
    assert poly.counts == (0, 0, 0, 0, 4, 1)
    assert poly.evaluate(0.5) == 0.15625
    assert poly.min_size == 4


def test_exact_rho1_modified_2_1():
    poly = exact_rho1(2, 1, Modified())
    assert poly.counts == (0, 0, 0, 2, 4, 1)
    assert poly.evaluate(0.5) == 0.21875


@pytest.mark.parametrize(
    "rule,counts",
    [
        (Standard(2), (0, 0, 0, 0, 0, 0, 0, 0, 16, 77, 116, 60, 12, 1)),
        (Modified(), (0, 0, 0, 0, 0, 2, 20, 82, 180, 230, 164, 62, 12, 1)),
    ],
)
def test_exact_rho1_2_2_counts_pinned(rule, counts):
    assert exact_rho1(2, 2, rule).counts == counts


# N_u of exact_joint(2, 1, offset) for every offset criterion 05 checks,
# keyed by the offset's sorted absolute coordinates (the counts are
# invariant under signed permutations of the axes)
JOINT_2_1 = {
    (0, 1): (0, 0, 0, 0, 0, 0, 9, 6, 1),
    (0, 2): (0, 0, 0, 0, 0, 0, 0, 9, 7, 1),
    (1, 1): (0, 0, 0, 0, 0, 0, 4, 6, 1),
    (0, 3): (0, 0, 0, 0, 0, 0, 0, 0, 16, 8, 1),
    (1, 2): (0, 0, 0, 0, 0, 0, 0, 0, 16, 8, 1),
}


def test_exact_joint_counts_pinned_on_union_bound_offsets():
    offsets = [s for s in enumerate_ball(2, 3).sites if any(s)]
    assert len(offsets) == 24
    for off in offsets:
        assert exact_joint(2, 1, off).counts == JOINT_2_1[tuple(sorted(map(abs, off)))], off


# every dependency offset of these cells for every rule, and of (2,2) for
# the paper's two rules, whose norm-5 unions of 26 sites sweep 2^24 masks
SPLIT_CELLS = [
    (d, t, rule)
    for d, t in [(1, 1), (1, 2), (2, 1), (3, 1)]
    for rule in [Modified()] + [Standard(r) for r in range(1, 2 * d + 1)]
] + [(2, 2, Standard(2)), (2, 2, Modified())]


@pytest.mark.parametrize("d,t,rule", SPLIT_CELLS, ids=str)
def test_split_counts_are_the_union_sweep(d, t, rule):
    # the union's mask sweep is the reference the split replaces, on every
    # offset, those _polynomial leaves to the union included
    for offset in dependency_offsets(d, t):
        want = sweep.mask_sweep(sweep.domain(d, t, offset), rule)[1]
        assert sweep.split_counts(d, t, offset, rule) == want, offset


def test_intersection_is_the_shared_sites():
    for d, t in [(1, 2), (2, 1), (2, 2), (3, 1)]:
        ball = enumerate_ball(d, t).sites
        for offset in dependency_offsets(d, t):
            pairs = sweep.intersection(d, t, offset)
            shifted = {tuple(c + o for c, o in zip(s, offset)) for s in ball}
            assert [ball[x] for x, _ in pairs] == [s for s in ball if s in shifted]
            assert all(tuple(a - o for a, o in zip(ball[x], offset)) == ball[y] for x, y in pairs)
            assert 2 * len(ball) - len(pairs) == len(sweep.domain(d, t, offset).sites)


@pytest.mark.parametrize(
    "d,t,offset,feed,other",
    [
        # B_2 has 13 sites and shares 4 with B_2((2,1)): one sweep of 2^12
        # masks and two tables of 2^4 * 10 cells, against 2^20 for the union
        (2, 2, (2, 1), "split_counts", "mask_sweep"),
        # B_3 in d = 1 shares 6 of its 7 sites with B_3(1): the union's 2^6
        # masks are no more than the ball's
        (1, 3, (1,), "mask_sweep", "split_counts"),
    ],
    ids=["split-2-2", "union-1-3"],
)
def test_the_cheaper_feed_answers_a_joint(monkeypatch, d, t, offset, feed, other):
    clear_memos()
    want = sweep.mask_sweep(sweep.domain(d, t, offset), Standard(d))[1]
    runs = []
    chosen = getattr(sweep, feed)

    def spy(*args):
        runs.append(feed)
        return chosen(*args)

    def refuse(*args):
        raise AssertionError(f"{other} ran")

    monkeypatch.setattr(sweep, feed, spy)
    monkeypatch.setattr(sweep, other, refuse)
    assert exact_joint(d, t, offset).counts == want
    assert runs == [feed]


def test_joint_refuses_from_a_lower_bound_before_building_the_union(monkeypatch):
    def no_domain(*args):
        raise AssertionError("a domain was built")

    monkeypatch.setattr(sweep, "domain", no_domain)
    # B_600 has 721,201 sites, and the union at least one more, two of them targets
    with pytest.raises(WorkBudgetExceeded) as exc:
        exact_joint(2, 600, (1, 0))
    assert exc.value.estimate == 1 << 721_200
    assert str(exc.value) == "enumeration needs at least 2^721200 subset tests, budget is 100000000"
    # the ball's own floor is exact, and it too refuses before any domain is built
    for oracle in (lambda: exact_rho1(2, 600), lambda: count_near_minimal(2, 600, 0)):
        with pytest.raises(WorkBudgetExceeded) as exc:
            oracle()
        assert exc.value.estimate == 1 << 721_200
        assert "~2^721200 subset tests" in str(exc.value)
    # B_1 has 5 sites: 2^4 = 16 is a lower bound for a union and exact for the ball
    with pytest.raises(WorkBudgetExceeded) as exc:
        exact_joint(2, 1, (1, 0), budget=15)
    assert str(exc.value) == "enumeration needs at least 16 subset tests, budget is 15"
    with pytest.raises(WorkBudgetExceeded) as exc:
        exact_rho1(2, 1, budget=15)
    assert str(exc.value) == "enumeration needs ~16 subset tests, budget is 15"


# the reference domains, larger balls, and every dependency offset at (2,2)
ORDER_DOMAINS = REFERENCE_DOMAINS + [(2, 3, None), (3, 2, None), (4, 2, None)] + [
    (2, 2, offset) for offset in dependency_offsets(2, 2)
]


@pytest.mark.parametrize("d,t,offset", ORDER_DOMAINS, ids=str)
def test_domain_puts_the_targets_first_and_each_step_on_a_prefix(d, t, offset):
    dom = sweep.domain(d, t, offset)
    n = len(dom.sites)
    centres = [(0,) * d] if offset is None else [(0,) * d, offset]
    assert dom.k == len(centres) and list(dom.sites[: dom.k]) == centres
    dist = [min(sum(abs(a - b) for a, b in zip(s, g)) for g in centres) for s in dom.sites]
    keys = [(r, l1_norm(s), s) for r, s in zip(dist, dom.sites)]
    assert keys == sorted(keys) and len(set(dom.sites)) == n
    assert dom.cone == tuple(sum(r <= t - step for r in dist) for step in range(1, t + 1))
    nbr = dynamics.neighbor_matrix(dom.sites)
    np.testing.assert_array_equal(np.array(dom.rows, dtype=np.int64).reshape(n, 2 * d), nbr)
    assert (nbr[: dom.cone[0] if dom.cone else 0] < n).all()  # no cone row reaches the sentinel
    ball = enumerate_ball(d, t).sites
    if offset is None:
        assert dom.sites == ball
    else:
        shifted = {tuple(c + o for c, o in zip(s, offset)) for s in ball}
        assert set(dom.sites) == set(ball) | shifted


def test_light_cone_sizes():
    # site-updates per step: B_(t-s) around the origin, not the whole ball
    assert sweep.domain(4, 2).cone == (9, 1)
    assert sweep.domain(3, 2).cone == (7, 1)
    assert sweep.domain(2, 3).cone == (13, 5, 1)
    assert sweep.domain(2, 2, (2, 1)).cone == (10, 2)


@st.composite
def kernel_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    t = draw(st.integers(1, 3))
    rule = draw(st.one_of(st.just(Modified()), st.integers(1, 2 * d).map(Standard)))
    offset = draw(st.none() | st.sampled_from(dependency_offsets(d, t)))
    rows = draw(st.integers(1, 200))
    q = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, t, rule, offset, rows, q, seed


def pack_sites(uninfected):
    """(n_sites, rows) bool -> one plane per site, row i in bit i % 64 of word
    i // 64.  Lanes past the last row read as all-infected subsets."""
    n_sites, rows = uninfected.shape
    padded = np.zeros((n_sites, -(-rows // 64) * 64), dtype=bool)
    padded[:, :rows] = uninfected
    packed = np.packbits(padded, axis=1, bitorder="little")
    return list(packed.view("<u8").astype(np.uint64, copy=False))


@given(kernel_cases())
@settings(max_examples=80, deadline=None)
def test_packed_kernel_matches_boolean_reference(case):
    d, t, rule, offset, rows, q, seed = case
    dom = sweep.domain(d, t, offset)
    uninf = np.random.default_rng(seed).random((rows, len(dom.sites))) < q
    nbr = dynamics.neighbor_matrix(dom.sites)
    want = evolve_boolean(uninf, nbr, rule, steps=t)[:, : dom.k]
    planes = sweep.evolve_planes(pack_sites(uninf.T), dom, rule)
    got = np.stack([dynamics.lane_bits(p).ravel()[:rows] for p in planes], axis=1)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "d,t", [(1, 0), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (4, 2), (5, 1)]
)
def test_light_cone_over_every_site_leaves_the_protected_set(d, t):
    """Step s of the origin's light cone updates only the sites of norm at
    most t - s, so after t steps site x holds its state at time t - ||x||:
    evolve_planes with every site a target returns protected_set.  257 rows
    cross a word boundary."""
    dom = sweep.domain(d, t)
    every_site = dom._replace(k=len(dom.sites))
    rng = np.random.default_rng(1000 * d + t)
    for rule in [Modified()] + [Standard(r) for r in range(1, 2 * d + 1)]:
        for q in (0.5, 0.8, 0.95):
            rows = rng.random((257, len(dom.sites))) < q
            planes = sweep.evolve_planes(pack_sites(rows.T), every_site, rule)
            got = np.stack([dynamics.lane_bits(p).ravel()[:257] for p in planes], axis=1)
            np.testing.assert_array_equal(got, dynamics.protected_set(rows, d, t, rule), err_msg=f"{rule} q={q}")


def test_rho_polynomial_to_json():
    # the document `torusboot extremal rho1|joint` writes
    assert exact_rho1(2, 1).to_json() == {
        "d": 2, "t": 1, "rule": "standard_r2", "n_sites": 5, "counts": [0, 0, 0, 0, 4, 1],
    }
    joint = exact_joint(2, 1, (1, 0), Modified())
    doc = joint.to_json()
    assert doc["rule"] == "modified" and doc["offset"] == [1, 0]
    assert doc["counts"] == list(joint.counts) and doc["n_sites"] == len(joint.counts) - 1 == 8


def test_exact_rho1_total_count():
    # counts over all subset sizes sum to the number of protecting subsets,
    # and evaluate(1.0) = 1 because the fully uninfected ball protects
    poly = exact_rho1(2, 1)
    assert poly.evaluate(1.0) == 1.0
    assert poly.evaluate(0.0) == 0.0


def test_protection_monotone_in_uninfected_set():
    rng = np.random.default_rng(5)
    ball = enumerate_ball(2, 2)
    for _ in range(20):
        uninf = {s for s in ball.sites if rng.random() < 0.7}
        if not is_origin_protected(ball_state(2, 2, uninf), Standard(2)):
            continue
        extra = {s for s in ball.sites if rng.random() < 0.3}
        assert is_origin_protected(ball_state(2, 2, uninf | extra), Standard(2))


def test_joint_disjoint_balls_factorize():
    # offset norm 2t+1 or 2t+2: the balls share no site, so the polynomial
    # is the product of the marginals
    single = exact_rho1(2, 1)
    prod = np.polynomial.polynomial.polymul(
        np.array(single.counts, dtype=float), np.array(single.counts, dtype=float)
    )
    for offset in [(3, 0), (4, 0), (2, -2)]:
        joint = exact_joint(2, 1, offset)
        assert joint.n_sites == 2 * single.n_sites
        assert list(joint.counts) == [int(c) for c in prod] + [0] * (
            len(joint.counts) - len(prod)
        ), offset


def test_joint_minimum_exceeds_single():
    joint = exact_joint(2, 1, (1, 0))
    assert joint.min_size >= m(1, 2) + 1


def test_joint_rejects_zero_offset():
    with pytest.raises(ValueError):
        exact_joint(2, 1, (0, 0))


@pytest.mark.parametrize("offset", [(0.5, 0), (1.0, 0), ("1", 0)])
def test_joint_rejects_an_offset_off_the_lattice(offset):
    # a half-integer offset used to count a union of off-lattice sites
    with pytest.raises(ValueError, match="offset must have integer coordinates"):
        exact_joint(2, 1, offset)
    assert exact_joint(2, 1, (np.int64(1), 0)).offset == (1, 0)


@pytest.mark.parametrize("offset", [(1,), (1, 0, 0)])
def test_joint_rejects_an_offset_of_the_wrong_length(offset):
    with pytest.raises(ValueError, match=f"offset must have d = 2 coordinates, got {len(offset)}"):
        exact_joint(2, 1, offset)


def test_evaluate_refuses_q_outside_0_1():
    poly = exact_rho1(2, 1)
    for q in (2.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="q must be in"):
            poly.evaluate(q)


def test_count_near_minimal():
    assert count_near_minimal(2, 2, 0) == 16
    assert count_near_minimal(2, 1, 0) == 4
    assert count_near_minimal(2, 1, 1) == 1
    assert count_near_minimal(2, 1, 2) == 0
    # (2,1) counts are (0, 0, 0, 0, 4, 1): a negative k must not index from the top
    for k in (-1, -5, -6):
        with pytest.raises(ValueError, match="k must be >= 0"):
            count_near_minimal(2, 1, k)


def test_layer_bounds_column_minimal():
    d, t = 2, 3
    protected = protected_row(d, t, column_sites(d, t), Standard(d))
    assert (check_layer_bounds(protected[np.newaxis], d, t) == 0).all()


def test_layer_bounds_full_ball_not_minimal():
    d, t = 2, 2
    protected = protected_row(d, t, set(enumerate_ball(d, t).sites), Standard(d))
    assert (check_layer_bounds(protected[np.newaxis], d, t) > 0).all()


def test_layer_bounds_requires_protected_origin():
    protected = protected_row(2, 2, {(0, 0)}, Standard(2))
    with pytest.raises(PreconditionError):
        check_layer_bounds(protected[np.newaxis], 2, 2)


def test_layer_bounds_batch_matches_per_row_counts():
    for d, t in ((2, 3), (2, 1), (3, 1), (3, 2), (2, 0), (3, 0)):
        sites = enumerate_ball(d, t).sites
        column = protected_row(d, t, column_sites(d, t), Standard(d))
        full = protected_row(d, t, set(sites), Standard(d))
        origin_only = np.zeros(len(sites), dtype=bool)
        origin_only[0] = True
        batch = np.stack([column, full, origin_only])
        slack = check_layer_bounds(batch, d, t)
        # int64 and one column per layer, also at t = 0 where there is none
        assert slack.dtype == np.int64 and slack.shape == (3, t)
        want = [
            [sum(1 for s, p in zip(sites, row) if p and l1_norm(s) == k) - ell(k, d) for k in range(1, t + 1)]
            for row in batch
        ]
        assert slack.tolist() == want
        assert (slack[0] == 0).all() and (slack[1] > 0).all() and (slack[2] < 0).all()
        # the criterion's bad_layers counts rows with any failing layer: only the last
        assert (slack < 0).any(axis=1).tolist() == [False, False, t > 0]


def test_layer_bounds_refuse_a_batch_with_one_unprotected_origin():
    d, t = 2, 3
    column = protected_row(d, t, column_sites(d, t), Standard(d))
    batch = np.stack([column, column, column])
    batch[1, 0] = False
    with pytest.raises(PreconditionError):
        check_layer_bounds(batch, d, t)


def test_sampler_refuses_an_empty_request_before_drawing():
    rng = np.random.Generator(np.random.PCG64(3))
    state = rng.bit_generator.state
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_configs"):
            extremal.sample_protected_configs(2, 2, Standard(2), n, rng)
    assert rng.bit_generator.state == state


def test_sampler_refuses_q_outside_0_1_before_drawing():
    rng = np.random.Generator(np.random.PCG64(3))
    state = rng.bit_generator.state
    for q in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="q must be in"):
            extremal.sample_protected_configs(2, 2, Standard(2), 3, rng, q=q)
    assert rng.bit_generator.state == state
    assert len(extremal.sample_protected_configs(2, 2, Standard(2), 3, rng, q=1.0)) == 3


def test_sampler_returns_the_first_protected_rows_of_its_batches():
    # 70 configurations take batches of 280 rows; redraw them and keep, in
    # order, each row whose origin a direct one-row test finds protected
    rng = np.random.default_rng(5)
    got = extremal.sample_protected_configs(2, 2, Standard(2), 70, rng, q=0.5)
    redraw, want = np.random.default_rng(5), []
    while len(want) < 70:
        batch = redraw.random((280, len(enumerate_ball(2, 2)))) < 0.5
        want += [row for row in batch if is_origin_protected(ball_state(2, 2, frozenset(
            site for site, uninfected in zip(enumerate_ball(2, 2).sites, row) if uninfected)), Standard(2))]
    assert got.dtype == bool and got.shape == (70, len(enumerate_ball(2, 2)))
    np.testing.assert_array_equal(got, np.array(want[:70]))
    assert rng.bit_generator.state == redraw.bit_generator.state


def test_certificate_json_shape():
    _, certs = count_min_certificates(2, 2, Standard(2))
    doc = certs[0].to_json()
    assert doc["d"] == 2 and doc["t"] == 2
    assert doc["rule"] == "standard_r2"
    assert doc["classification"] in ("canonical", "semi-canonical")
    assert len(doc["sites"]) == 8
