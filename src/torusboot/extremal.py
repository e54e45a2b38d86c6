"""Exhaustive oracles for the extremal structure of protecting sets.

Everything here is certified by brute force: every subset of the ball (or
of a union of two balls) is evolved, 64 subsets per machine word, by the
bit-sliced light-cone kernel in the sweep module.  tests/test_extremal.py
checks that kernel bit for bit against the boolean finite-domain reference
of tests/reference.py, on random states for both rules and every threshold.
A work budget guards against accidental explosion; exceeding it raises
WorkBudgetExceeded rather than running forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from typing import TYPE_CHECKING

import numpy as np

from . import dynamics
from .dynamics import Modified, Rule, Standard
from .formulas import ell
from .lattice import Site, ball_size, enumerate_ball

if TYPE_CHECKING:
    from . import sweep

DEFAULT_BUDGET = 10**8
SAMPLER_MAX_BATCHES = 10_000  # sample_protected_configs gives up after this many batches


class WorkBudgetExceeded(Exception):
    """Raised when an enumeration would exceed the configured work budget;
    at_least marks an estimate that is only a lower bound."""

    def __init__(self, estimate: int, budget: int, *, at_least: bool = False):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"enumeration needs {'at least ' if at_least else '~'}{_magnitude(estimate)} subset tests,"
            f" budget is {_magnitude(budget)}"
        )


def _magnitude(n: int) -> str:
    """n in decimal below 2^64, else as 2^e with e = floor(log2 n): decimal
    conversion of a mask count such as 2^14621 exceeds Python's digit limit."""
    e = n.bit_length() - 1
    return str(n) if e < 64 else f"2^{e}"


class PreconditionError(Exception):
    """A checker was called on inputs violating its stated hypotheses."""


def _rule_tag(rule: Rule) -> str:
    return f"standard_r{rule.r}" if isinstance(rule, Standard) else "modified"


# ---------------------------------------------------------------------------
# Certificates and classification


@dataclass(frozen=True)
class Certificate:
    """An uninfected subset of B_t that protects the origin."""

    d: int
    t: int
    rule: Rule
    uninfected: frozenset[Site]

    @property
    def size(self) -> int:
        return len(self.uninfected)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "t": self.t,
            "rule": _rule_tag(self.rule),
            "sites": sorted([list(s) for s in self.uninfected]),
            "classification": classify(self),
        }


def classification_tag(tag: str) -> str:
    # classify returns the tag itself; perfbench's oracle check still calls this
    return tag


@lru_cache(maxsize=None)
def _templates(d: int, t: int, rule: Rule) -> dict[frozenset[Site], str]:
    """Every column template of B_t mapped to its tag; where two templates
    are the same set, the first in search order (axis, then orientation,
    then the column before its displaced ends) names it.

    Standard rule: canonical is a column aligned with some axis, and
    semi-canonical a column whose two extreme points may each be displaced
    one step sideways.  Modified rule: canonical is the line through the
    origin along some axis, with every orientation 0.
    """
    sites = enumerate_ball(d, t).sites
    modified = isinstance(rule, Modified)
    table: dict[frozenset[Site], str] = {}
    for axis in range(d):
        for eps in [(0,) * (d - 1)] if modified else product((-1, 1), repeat=d - 1):
            orient = eps[:axis] + (0,) + eps[axis:]
            column = frozenset(x for x in sites if all(x[i] in (0, orient[i]) for i in range(d) if i != axis))
            table.setdefault(column, "canonical")
            if modified:
                continue
            # the end at s * t on the axis, then its displacements to height
            # s * (t - 1), one step against the orientation of another axis
            ups, downs = (
                [tuple(s * t if j == axis else 0 for j in range(d))]
                + [
                    tuple((s * (t - 1) if j == axis else 0) - (orient[j] if j == i else 0) for j in range(d))
                    for i in range(d) if i != axis
                ]
                for s in (1, -1)
            )
            base = column - {ups[0], downs[0]}
            for vp, vm in product(ups, downs):
                table.setdefault(base | {vp, vm}, "semi-canonical")
    return table


def classify(cert: Certificate) -> str:
    """The tag of the template that a certificate's protected set equals:
    "canonical" or "semi-canonical", and "other" when it equals none."""
    d, t = cert.d, cert.t
    row = dynamics.ball_state(d, t, cert.uninfected).uninfected
    protected_row = dynamics.protected_set(row[np.newaxis, :], d, t, cert.rule)[0]
    protected = frozenset(compress(enumerate_ball(d, t).sites, protected_row))
    return _templates(d, t, cert.rule).get(protected, "other")


# ---------------------------------------------------------------------------
# One memoised sweep per question, read only after its work passes the budget


@lru_cache(maxsize=None)
def _mask_sweep(d: int, t: int, rule: Rule, offset: Site | None) -> sweep.Sweep:
    from . import sweep  # loaded on the first sweep, not with the package

    return sweep.mask_sweep(sweep.domain(d, t, offset), rule)


@lru_cache(maxsize=None)
def _layer_hits(d: int, t: int, rule: Rule, u: int) -> tuple[tuple[int, ...], ...]:
    from . import sweep

    return tuple(sweep.size_layer_hits(sweep.domain(d, t), rule, u))


def _min_layer(d: int, t: int, rule: Rule, budget: int) -> sweep.Sweep:
    """Smallest protecting size of B_t and its protecting subsets: a mask
    sweep when its work is within the budget, else a size-major sweep that
    stops at the first size with a hit."""
    from . import sweep

    dynamics.check_rule(rule, d)
    n = ball_size(d, t)
    if 1 << (n - 1) <= budget:  # the masks that hold the origin
        return _mask_sweep(d, t, rule, None)
    work = 0
    for u in range(n + 1):
        work += math.comb(n - 1, u - 1) if u else 0  # the size-u subsets that hold the origin
        if work > budget:
            raise WorkBudgetExceeded(work, budget)
        hits = _layer_hits(d, t, rule, u)
        if hits:
            return sweep.Sweep(min_size=u, hits=hits)
    raise AssertionError("the full ball always protects the origin")


# ---------------------------------------------------------------------------
# Minimal size and minimal certificates


def min_protecting_size(d: int, t: int, rule: Rule, *, budget: int = DEFAULT_BUDGET) -> int:
    """Smallest u such that some size-u subset of B_t protects the origin.

    Refuses once the subsets of sizes 0..u that hold the origin would exceed
    the budget.
    """
    return _min_layer(d, t, rule, budget).min_size


def count_min_certificates(
    d: int, t: int, rule: Rule, *, budget: int = DEFAULT_BUDGET
) -> tuple[int, list[Certificate]]:
    """All minimum-size protecting subsets of B_t, in lexicographic order of
    their site indices."""
    sites = enumerate_ball(d, t).sites
    certs = [
        Certificate(d=d, t=t, rule=rule, uninfected=frozenset(sites[j] for j in hit))
        for hit in _min_layer(d, t, rule, budget).hits
    ]
    return len(certs), certs


# ---------------------------------------------------------------------------
# Exact probability polynomials


@dataclass(frozen=True)
class RhoPolynomial:
    """Exact subset counts N_u over a finite domain of n_sites sites.

    N_u is the number of size-u uninfected subsets for which the tracked
    protection event holds; evaluation at q gives the exact probability.
    Counts are Python ints, so they never overflow.
    """

    d: int
    t: int
    rule: Rule
    counts: tuple[int, ...]
    offset: Site | None = None

    @property
    def n_sites(self) -> int:
        return len(self.counts) - 1

    def evaluate(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        p = 1.0 - q
        return float(
            sum(c * q**u * p ** (self.n_sites - u) for u, c in enumerate(self.counts) if c)
        )

    @property
    def min_size(self) -> int:
        for u, c in enumerate(self.counts):
            if c:
                return u
        raise ValueError("no protecting subset recorded")

    def to_json(self) -> dict:
        out = {
            "d": self.d,
            "t": self.t,
            "rule": _rule_tag(self.rule),
            "n_sites": self.n_sites,
            "counts": list(self.counts),
        }
        if self.offset is not None:
            out["offset"] = list(self.offset)
        return out


def _polynomial(d: int, t: int, rule: Rule | None, offset: Site | None, budget: int) -> RhoPolynomial:
    """Exact counts over sweep.domain(d, t, offset) from its mask sweep;
    refuses its work above the budget."""
    from . import sweep

    if rule is None:
        rule = Standard(r=d)
    dynamics.check_rule(rule, d)
    if offset is not None:
        offset = tuple(offset)
        if len(offset) != d:
            raise ValueError(f"offset must have d = {d} coordinates, got {len(offset)}")
        if all(c == 0 for c in offset):
            raise ValueError("offset must be nonzero")
    # a ball's work exactly, and a lower bound on a union's, which holds B_t
    # and one more site, two of them targets: checked before the union is built
    work = 1 << (ball_size(d, t) - 1)
    if work > budget:
        raise WorkBudgetExceeded(work, budget, at_least=offset is not None)
    if offset is not None:
        work = 1 << (len(sweep.domain(d, t, offset).sites) - 2)
        if work > budget:
            raise WorkBudgetExceeded(work, budget)
    counts = _mask_sweep(d, t, rule, offset).counts
    return RhoPolynomial(d=d, t=t, rule=rule, counts=counts, offset=offset)


def exact_rho1(d: int, t: int, rule: Rule | None = None, *, budget: int = DEFAULT_BUDGET) -> RhoPolynomial:
    """Exact per-size counts of origin-protecting subsets of B_t."""
    return _polynomial(d, t, rule, None, budget)


def exact_joint(
    d: int, t: int, offset: Site, rule: Rule | None = None, *, budget: int = DEFAULT_BUDGET
) -> RhoPolynomial:
    """Exact counts for {origin protected} and {offset protected} jointly.

    Enumerates all states of B_t(0) union B_t(offset); exact because each
    protection event depends only on its own radius-t ball.
    """
    return _polynomial(d, t, rule, offset, budget)


def count_near_minimal(d: int, t: int, k: int, rule: Rule | None = None, *, budget: int = DEFAULT_BUDGET) -> int:
    """Number of protecting arrangements of (minimum + k) uninfected sites."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    poly = exact_rho1(d, t, rule, budget=budget)
    u = poly.min_size + k
    if u >= len(poly.counts):
        return 0
    return poly.counts[u]


# ---------------------------------------------------------------------------
# Lemma bounds


def key_lemma_bound(config: tuple[int, ...], k: int) -> int:
    """sum_{i<=k} C(a, i), a the number of free (zero) entries of config:
    the fewest protected sites the key lemma allows at distance k from a
    protected x inside config's orthants."""
    a = sum(1 for c in config if c == 0)
    return sum(math.comb(a, i) for i in range(0, k + 1))


def check_layer_bounds(protected: np.ndarray, d: int, t: int) -> np.ndarray:
    """Per-layer slack of a batch of protected sets of B_t, rows of
    dynamics.protected_set: [row, k - 1] is the number of protected sites
    of norm k minus the column layer size ell(k, d), for k = 1..t.  A layer
    bound fails where it is negative and is tight where it is zero."""
    if not protected[:, 0].all():  # the origin is the first site of enumerate_ball
        raise PreconditionError("origin is not protected")
    layers = np.arange(1, t + 1)
    in_layer = dynamics._ball_norms(d, t)[:, np.newaxis] == layers  # [site, k - 1]
    by_norm = protected.astype(np.int64) @ in_layer
    return by_norm - np.array([ell(k, d) for k in layers])


# ---------------------------------------------------------------------------
# Random origin-protected configurations (rejection sampling)


def sample_protected_configs(
    d: int,
    t: int,
    rule: Rule,
    n_configs: int,
    rng: np.random.Generator,
    q: float = 0.85,
) -> np.ndarray:
    """Rejection-sample initial states of B_t whose origin is protected:
    an (n_configs, n_sites) bool array, in the order they were drawn.

    Each site is uninfected with probability q; rows failing the
    protection test are discarded.  q is an engineering knob: the lemma
    checkers are deterministic, any reachable configuration is valid.
    """
    if n_configs < 1:
        raise ValueError(f"n_configs must be at least 1, got {n_configs}")
    if not 0 < q <= 1:
        raise ValueError(f"q must be in (0, 1], got {q}")
    n_sites = len(enumerate_ball(d, t))
    accepted: list[np.ndarray] = []
    found = 0
    batch = max(64, min(4096, 4 * n_configs))
    for _ in range(SAMPLER_MAX_BATCHES):
        uninf = rng.random((batch, n_sites)) < q
        accepted.append(uninf[dynamics.protects_origin(uninf, d, t, rule)][: n_configs - found])
        found += len(accepted[-1])
        if found == n_configs:
            return np.concatenate(accepted)
    raise RuntimeError(f"rejection sampling produced {found}/{n_configs} configurations")


# perfbench/test_perfbench.py redraws the sampler's batches through this name
_batch_protects_origin = dynamics.protects_origin
