"""Closed-form quantities: column sizes, leading-order means, thresholds,
and the Barbour-Eagleson total-variation bound.

Integer formulas use exact integer arithmetic.  Real-valued outputs are
leading-order asymptotics where noted: the (1+o(1)) factors are dropped,
and the CLI labels such outputs explicitly.
"""

from __future__ import annotations

import math

from .lattice import Site, ball_size, dependency_offsets, l1_norm
from .dynamics import Rule, Standard, check_rule


def ell(t: int, d: int) -> int:
    """Minimum number of protected sites on the layer of radius t: sum of
    binom(d, i) for i = 0..t, whose terms past i = d are 0."""
    if t < 0 or d < 1:
        raise ValueError(f"t and d must satisfy t >= 0 and d >= 1, got t={t}, d={d}")
    return sum(math.comb(d, i) for i in range(min(t, d) + 1))


def m(t: int, d: int) -> int:
    """Size of the centred column in the radius-t ball: the sum of ell(r, d)
    over r = 0..t, in which binom(d, i) appears for r = i..t."""
    if t < 0 or d < 1:
        raise ValueError(f"t and d must satisfy t >= 0 and d >= 1, got t={t}, d={d}")
    return sum(math.comb(d, i) * (t - i + 1) for i in range(min(t, d) + 1))


def m_general(t: int, d: int, r: int) -> int:
    """Size of a (d, r)-canonical set of radius t.

    r-1 axes are constrained to {0, eps_i}; the count is independent of
    which axes and orientations are chosen, by symmetry.
    """
    if not 2 <= r <= d:
        raise ValueError(f"threshold r={r} outside [2, {d}]")
    if t < 0:
        raise ValueError("t must be >= 0")
    free_dims = d - (r - 1)
    total = 0
    for s in range(0, min(r - 1, t) + 1):
        total += math.comb(r - 1, s) * ball_size(free_dims, t - s)
    return total


def leading_term(t: int, d: int, rule: Rule) -> tuple[int, int]:
    """(count, size) of the minimal subsets of B_t that protect the origin,
    so that the leading term of lambda is count * n^d * q^size.

    Standard rule (r = d): the origin alone at t = 0, the origin and d+1 of
    its 2d neighbours at t = 1, and d^3 2^(d-1) columns from t = 2 on, all
    of size m(t, d).  Modified rule: the origin at t = 0, then the d axis
    lines of 2t+1 sites.
    """
    check_rule(rule, d)
    if t < 0:
        raise ValueError("t must be >= 0")
    if isinstance(rule, Standard):
        if rule.r != d:
            raise ValueError("closed form is known only for the d-neighbour threshold")
        count = 1 if t == 0 else math.comb(2 * d, d + 1) if t == 1 else d**3 * 2 ** (d - 1)
        return count, m(t, d)
    return (1 if t == 0 else d), 2 * t + 1


def _leading_scale(n: int, d: int, t: int, rule: Rule) -> tuple[int, int]:
    """(count * n^d, size): the leading-order mean of F_t on the n^d torus
    is count * n^d * q^size."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    count, size = leading_term(t, d, rule)
    scale = count * n**d
    try:
        float(scale)  # the callers take it to floating point
    except OverflowError:
        raise ValueError(f"n too large: {count} * n^{d} exceeds the float range")
    return scale, size


def lambda_leading(n: int, d: int, t: int, q: float, rule: Rule) -> float:
    """Leading-order mean of the uninfected count at time t."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    scale, size = _leading_scale(n, d, t, rule)
    return scale * q**size


def q_at_lambda(lam: float, n: int, d: int, t: int, rule: Rule) -> float:
    """The q at which the leading-order mean of F_t equals lam; it lies in
    [0, 1] for lam in [0, count * n^d], and other lam are refused."""
    scale, size = _leading_scale(n, d, t, rule)
    if not 0.0 <= lam <= scale:
        raise ValueError(f"lambda={lam} outside [0, count * n^d = {scale}]: q would not be a probability")
    return (lam / scale) ** (1.0 / size)


def p_alpha(n: int, d: int, t: int, alpha: float, rule: Rule) -> float:
    """Leading-order threshold probability for percolation by time t.

    Solves alpha = exp(-lambda) for the leading-order lambda; the dropped
    (1+o(1)) factor means this is an asymptotic prediction, not exact.
    An alpha below exp(-count * n^d) would give a negative threshold.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lam = -math.log(alpha)
    scale, _ = _leading_scale(n, d, t, rule)
    if lam > scale:
        raise ValueError(f"alpha={alpha} below exp(-count * n^d) = exp(-{scale}): the threshold would be negative")
    return 1.0 - q_at_lambda(lam, n, d, t, rule)


def stein_chen_rhs(n: int, d: int, t: int, rho1: float, rho2_by_offset: dict[Site, float]) -> float:
    """Barbour-Eagleson bound on d_TV(F_t(n), Po(n^d rho1)).

    Specialised to translation invariance: the dependency neighbourhood of
    every site is the ball of radius 2t+1 around it, so the double sums
    collapse to n^d times per-offset terms.  Offsets at norm exactly 2t+1
    need no entry: their two radius-t balls are disjoint, so rho2 there is
    rho1^2.
    """
    if not 0.0 <= rho1 <= 1.0:
        raise ValueError("rho1 must lie in [0, 1]")
    offsets = dependency_offsets(d, t)
    boundary = 2 * t + 1
    missing = [off for off in offsets if off not in rho2_by_offset and l1_norm(off) < boundary]
    if missing:
        raise ValueError(f"rho2 missing for {len(missing)} offsets, e.g. {missing[0]}")
    lam = n**d * rho1
    nbhd_size = len(offsets) + 1
    pair_sum = sum(rho2_by_offset.get(off, rho1 * rho1) for off in offsets)
    scale = min(1.0, 1.0 / lam) if lam > 0 else 1.0
    return scale * n**d * (nbhd_size * rho1 * rho1 + pair_sum)


def poisson_pmf(k: int, lam: float) -> float:
    """P(Po(lam) = k)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if k < 0:
        return 0.0
    if lam == 0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
