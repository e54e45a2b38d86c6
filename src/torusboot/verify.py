"""Acceptance suites: each criterion is a function returning a report.

The CLI `verify` subcommand and the test suite both call these, so there
is exactly one definition of every tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from . import dynamics, extremal, formulas
from .dynamics import Modified, Standard
from .lattice import dependency_offsets, enumerate_ball, l1_norm

if TYPE_CHECKING:
    from . import montecarlo

# Fixed so the statistical criteria are reproducible decisions, not coin
# flips: the true TV in the Poisson regime is ~0.048, right at the 0.05
# tolerance, so the seed determines the outcome and is part of the record.
MASTER_SEED = 7


@dataclass
class CriterionReport:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}"


def _check(report: CriterionReport, ok: bool, msg: str) -> None:
    report.details.append(("ok: " if ok else "BAD: ") + msg)
    if not ok:
        report.passed = False


# ---------------------------------------------------------------------------
# Exact extremal criteria

SIZE_INSTANCES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def criterion_extremal_sizes() -> CriterionReport:
    """Minimal protecting-set sizes match the closed forms exactly."""
    rep = CriterionReport("extremal sizes: min_protecting_size equals m(t,d) / 2t+1", True)
    for label, rule_of in (("standard", Standard), ("modified", lambda d: Modified())):
        for d, t in SIZE_INSTANCES:
            got = extremal.min_protecting_size(d, t, rule_of(d))
            want = formulas.leading_term(t, d, rule_of(d))[1]
            _check(rep, got == want, f"{label} d={d} t={t}: {got} (expected {want})")
    return rep


def criterion_extremal_counts() -> CriterionReport:
    """Counts of minimal certificates, and zero unclassifiable ones at t>=2."""
    rep = CriterionReport("extremal counts: d^3 2^(d-1) standard, d modified, zero Other", True)
    instances = [(2, 2), (2, 3), (3, 2)]
    for d, t in instances:
        n, certs = extremal.count_min_certificates(d, t, Standard(d))
        want = formulas.leading_term(t, d, Standard(d))[0]
        _check(rep, n == want, f"standard d={d} t={t}: {n} certificates (expected {want})")
        n_other = sum(extremal.classify(c) == "other" for c in certs)
        _check(rep, n_other == 0, f"standard d={d} t={t}: {n_other} unclassified (expected 0)")
    for d, t in instances:
        n, _ = extremal.count_min_certificates(d, t, Modified())
        want = formulas.leading_term(t, d, Modified())[0]
        _check(rep, n == want, f"modified d={d} t={t}: {n} certificates (expected {want})")
    return rep


def criterion_rho1_exact() -> CriterionReport:
    """Leading coefficients and spot evaluations of the exact polynomials."""
    rep = CriterionReport("exact rho1: leading coefficient 16 and q=0.5 evaluations", True)
    poly22 = extremal.exact_rho1(2, 2)
    _check(rep, all(c == 0 for c in poly22.counts[:8]), f"(2,2) counts below 8: {poly22.counts[:8]}")
    _check(rep, poly22.counts[8] == 16, f"(2,2) N_8 = {poly22.counts[8]} (expected 16)")
    v = extremal.exact_rho1(2, 1).evaluate(0.5)
    _check(rep, v == 0.15625, f"(2,1) standard at q=0.5: {v} (expected 0.15625)")
    vm = extremal.exact_rho1(2, 1, Modified()).evaluate(0.5)
    _check(rep, vm == 0.21875, f"(2,1) modified at q=0.5: {vm} (expected 0.21875)")
    return rep


# ---------------------------------------------------------------------------
# Key lemma / layer bound property suites

KEY_LEMMA_CELLS = [(d, t) for d in (2, 3) for t in (2, 3, 4)]
KEY_LEMMA_TOTAL = 10_000
_SAMPLING_Q = {2: 0.80, 3: 0.85}
_LEMMA_CHUNK = 128  # configurations per matrix product in _lemma_counts


def _lemma_table(d: int, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(site, bound, incidence), one row per key-lemma check (x, C, k) over
    the sites of enumerate_ball(d, t).

    A check takes a site x, a configuration C in {-1, 0, 1}^d that equals
    sign(x_i) on every nonzero coordinate of x, and a distance
    k = 0..t-||x||.  The bound needs that hypothesis: a free or opposing
    direction on a nonzero coordinate admits counterexamples, e.g. d=2,
    t=3, x=(1,-1), C=(0,0), k=1 with a protected origin has only 2
    compatible protected sites against a bound of 3.
    Rows run in (site, C in product order, k) order.
    site[row]          index of x
    bound[row]         extremal.key_lemma_bound(C, k)
    incidence[row, y]  1 where ||y - x|| = k and (y_i - x_i) C_i >= 0 on every axis
    incidence is float32, so the counts run in BLAS and stay exact below 2^24.

    A row's incidence is one offset set O(C, k) = {delta : ||delta|| = k,
    delta_i C_i >= 0}, translated to x.  The offsets are sites of the ball
    (k <= t), and every translate stays in B_t: ||x + delta|| <=
    ||x|| + k <= t.  Each site carries the key sum_i x_i (2t+1)^i.  It is
    linear, so additive under translation, key(x + delta) = key(x) +
    key(delta), and one-to-one on B_t, whose coordinates lie in [-t, t];
    y is found by one searchsorted over the sorted keys.
    """
    configs = np.array(list(product((-1, 0, 1), repeat=d)), dtype=np.int64)
    coords = np.array(enumerate_ball(d, t).sites, dtype=np.int64)
    norm = np.abs(coords).sum(axis=1)
    allows = (configs[:, np.newaxis, :] * coords[np.newaxis, :, :] >= 0).all(axis=2)  # [C, delta]
    signs = np.sign(coords)[:, np.newaxis, :]
    aligned = ((signs == 0) | (signs == configs)).all(axis=2)  # [x, C]
    in_range = np.arange(t + 1) <= t - norm[:, np.newaxis]  # [x, k]
    site, config, k = np.nonzero(aligned[:, :, np.newaxis] & in_range[:, np.newaxis, :])
    bounds = [[extremal.key_lemma_bound(tuple(C), j) for j in range(t + 1)] for C in configs.tolist()]
    bound = np.array(bounds)[config, k]
    row, delta = np.nonzero(allows[config] & (norm == k[:, np.newaxis]))
    key = coords @ (2 * t + 1) ** np.arange(d)
    order = np.argsort(key)
    y = order[np.searchsorted(key[order], key[site[row]] + key[delta])]
    incidence = np.zeros((site.size, coords.shape[0]), dtype=np.float32)
    incidence[row, y] = 1
    return site, bound, incidence


def _lemma_counts(d: int, t: int, protected: np.ndarray) -> tuple[int, int]:
    """(n_checks, n_violations) over a batch of origin-protected states,
    given their protected sets (rows of dynamics.protected_set).

    A row of _lemma_table is checked on every state where its x is
    protected, and fails when fewer protected sites y of its incidence
    than its bound are protected.  All of a chunk's checks are counted by
    one matrix product.
    """
    site, bound, incidence = _lemma_table(d, t)
    n_checks = n_viol = 0
    for start in range(0, len(protected), _LEMMA_CHUNK):
        chunk = protected[start : start + _LEMMA_CHUNK]
        counts = incidence @ chunk.T.astype(np.float32)  # [row, state]
        at_x = chunk.T[site]  # [row, state]: x protected
        n_checks += int(at_x.sum())
        n_viol += int((at_x & (counts < bound[:, np.newaxis])).sum())
    return n_checks, n_viol


def criterion_key_lemma(total: int = KEY_LEMMA_TOTAL, seed: int = MASTER_SEED) -> CriterionReport:
    """Random origin-protected configurations: compatible-protected counts
    never fall below the binomial bound, and layer bounds always hold."""
    if total < len(KEY_LEMMA_CELLS):
        raise ValueError(f"total must be at least {len(KEY_LEMMA_CELLS)}, one configuration per cell; got {total}")
    rep = CriterionReport("key lemma property suite: zero violations on random configurations", True)
    per_cell = total // len(KEY_LEMMA_CELLS)
    rng = np.random.Generator(np.random.PCG64(seed))
    for d, t in KEY_LEMMA_CELLS:
        rule = Standard(d)
        configs = extremal.sample_protected_configs(
            d, t, rule, per_cell, rng, q=_SAMPLING_Q[d]
        )
        protected = dynamics.protected_set(configs, d, t, rule)
        checks, viol = _lemma_counts(d, t, protected)
        bad_layers = int((extremal.check_layer_bounds(protected, d, t) < 0).any(axis=1).sum())
        _check(rep, viol == 0, f"d={d} t={t}: {viol} lemma violations in {checks} checks")
        _check(rep, bad_layers == 0, f"d={d} t={t}: {bad_layers} layer-bound failures")
    return rep


def criterion_union_bound() -> CriterionReport:
    """Exhaustive at d=2, t=1: protecting two distinct sites needs at least
    m_1 + 1 = 5 uninfected sites in the union of the two balls."""
    rep = CriterionReport("union bound: two protected sites need >= m_t + 1 uninfected (d=2, t=1)", True)
    d, t = 2, 1
    want = formulas.m(t, d) + 1
    # offsets with norm <= 2 per the lemma; norm-3 included as the trivial edge
    for off in dependency_offsets(d, t):
        min_u = extremal.exact_joint(d, t, off).min_size
        _check(rep, min_u >= want, f"offset {off}: smallest joint-protecting size {min_u} (need >= {want})")
    return rep


def criterion_formula_identities() -> CriterionReport:
    """Exact combinatorial identities for ell, m, and m_general."""
    rep = CriterionReport("formula identities: layer sums, column sizes, general thresholds", True)
    ok = all(
        sum(formulas.ell(r, d) for r in range(0, d)) == d * 2 ** (d - 1) for d in range(2, 11)
    )
    _check(rep, ok, "sum of ell(r,d) over r<d equals d*2^(d-1) for d=2..10")
    ok = all(
        formulas.m(d + s, d) == (s + 1) * 2**d + d * 2 ** (d - 1)
        for d in range(2, 9)
        for s in range(0, 6)
    )
    _check(rep, ok, "m(d+s,d) = (s+1)2^d + d 2^(d-1) for d=2..8, s=0..5")
    ok = all(
        formulas.m_general(t, d, d) == formulas.m(t, d) for t in range(0, 7) for d in range(2, 7)
    )
    _check(rep, ok, "m_general(t,d,d) = m(t,d) for t<=6, d<=6")
    return rep


# ---------------------------------------------------------------------------
# Statistical criteria (each seeded run cached on its own)

POISSON_N = 512
POISSON_TRIALS_F = 2000
POISSON_TRIALS_T = 1000
# The statistical criteria run at 4 threads, one of the counts criterion 10
# compares, so regime_run's cache serves those runs to both.
THREADS = 4


def poisson_regime_q(n: int = POISSON_N) -> float:
    """q at which the standard-rule leading term 16 n^2 q^8 equals 2."""
    return formulas.q_at_lambda(2.0, n, 2, 2, Standard(2))


def modified_regime_q(n: int = POISSON_N) -> float:
    """q at which the modified-rule leading term 2 n^2 q^3 equals 2."""
    return formulas.q_at_lambda(2.0, n, 2, 1, Modified())


def lambda_exact_standard(n: int = POISSON_N) -> float:
    return n * n * extremal.exact_rho1(2, 2).evaluate(poisson_regime_q(n))


def lambda_exact_modified(n: int = POISSON_N) -> float:
    return n * n * extremal.exact_rho1(2, 1, Modified()).evaluate(modified_regime_q(n))


# The n = POISSON_N histograms: name -> (rule, q function, t, trials, seed
# offset).  "F" is F_t, the others T, all run with t_horizon = t.
REGIME_RUNS = {
    "F": (Standard(2), poisson_regime_q, 2, POISSON_TRIALS_F, 0),
    "T": (Standard(2), poisson_regime_q, 2, POISSON_TRIALS_T, 1),
    "T_mod": (Modified(), modified_regime_q, 1, POISSON_TRIALS_T, 2),
}


@lru_cache(maxsize=None)
def regime_run(
    name: str, threads: int
) -> montecarlo.EmpiricalDistribution | list[tuple[int | None, int | None]]:
    """One seeded run of the statistical criteria: a REGIME_RUNS histogram,
    or "pairs", 500 coupled (T(0.1), T(0.2)) pairs at n = 128.  The seed is
    MASTER_SEED plus the run's offset, so the thread count never changes it."""
    from . import montecarlo  # loaded on the first run, not with the package

    if name == "pairs":
        config = montecarlo.ExperimentConfig(
            d=2, n=128, rule=Standard(2), q=0.2, t_horizon=2,
            trials=500, master_seed=MASTER_SEED + 3, threads=threads,
        )
        return montecarlo.coupled_monotonicity(config, q_low=0.1, q_high=0.2)
    rule, q_at, t, trials, offset = REGIME_RUNS[name]
    config = montecarlo.ExperimentConfig(
        d=2, n=POISSON_N, rule=rule, q=q_at(), t_horizon=t,
        trials=trials, master_seed=MASTER_SEED + offset, threads=threads,
    )
    return montecarlo.run_trials_F(config, t) if name == "F" else montecarlo.run_trials_T(config)


def criterion_poisson() -> CriterionReport:
    """TV distance between the empirical F_2 distribution and Po(lambda_exact),
    and the Barbour-Eagleson bound on it from exact rho1/rho2 inputs."""
    from . import montecarlo

    rep = CriterionReport("Poisson approximation: TV(empirical F_2, Po(lambda_exact)) <= 0.05", True)
    lam = lambda_exact_standard()
    dist = regime_run("F", THREADS)
    tv = montecarlo.tv_report(dist, lam)
    rep.details.append(f"q={poisson_regime_q():.6f} lambda_exact={lam:.6f} TV={tv:.6f}")
    _check(rep, tv <= 0.05, f"TV {tv:.4f} <= 0.05")
    rhs = stein_chen_bound_exact()
    _check(rep, tv <= rhs + 0.03, f"TV {tv:.4f} <= Barbour-Eagleson {rhs:.4f} + 0.03")
    return rep


def stein_chen_bound_exact() -> float:
    """Barbour-Eagleson RHS with exact rho1/rho2 inputs (d=2, t=2 regime).

    rho2 is exact_joint on every offset of norm <= 4: each splits one sweep
    of B_2's 2^12 masks over the at most 8 sites its two balls share, where
    the union held up to 2^23; stein_chen_rhs supplies rho1^2 at norm 5.
    """
    n = POISSON_N
    q = poisson_regime_q(n)
    rho1 = extremal.exact_rho1(2, 2).evaluate(q)
    rho2 = {
        off: extremal.exact_joint(2, 2, off).evaluate(q)
        for off in dependency_offsets(2, 2)
        if l1_norm(off) < 5
    }
    return formulas.stein_chen_rhs(n, 2, 2, rho1, rho2)


def criterion_concentration() -> CriterionReport:
    """Two-point concentration of T and its Poisson-predicted split."""
    rep = CriterionReport("concentration of T: mass on {t, t+1} and P(T=t) near exp(-lambda)", True)
    for label, name, t, lam in (
        ("standard", "T", 2, lambda_exact_standard()),
        ("modified", "T_mod", 1, lambda_exact_modified()),
    ):
        dist = regime_run(name, THREADS)
        freq = (dist.histogram.get(t, 0) + dist.histogram.get(t + 1, 0)) / dist.trials
        p = dist.histogram.get(t, 0) / dist.trials
        _check(rep, freq >= 0.95, f"{label}: P(T in {{{t},{t + 1}}}) = {freq:.4f} >= 0.95")
        _check(
            rep,
            abs(p - math.exp(-lam)) <= 0.05,
            f"{label}: |P(T={t}) - exp(-lambda)| = |{p:.4f} - {math.exp(-lam):.4f}| <= 0.05",
        )
    return rep


def criterion_coupling() -> CriterionReport:
    """T(q_low) <= T(q_high) in every coupled pair (Stuck counts as infinity)."""
    rep = CriterionReport("monotone coupling: T(q_low) <= T(q_high) in all 500 pairs", True)
    pairs = regime_run("pairs", THREADS)
    inf = float("inf")
    bad = sum(
        1
        for t_low, t_high in pairs
        if (t_low if t_low is not None else inf) > (t_high if t_high is not None else inf)
    )
    _check(rep, bad == 0, f"{bad} of {len(pairs)} pairs violate monotonicity")
    return rep


def criterion_determinism() -> CriterionReport:
    """Identical histograms for thread counts 1, 4, 8 with the same seed."""
    rep = CriterionReport("determinism: byte-identical histograms for 1, 4, 8 threads", True)
    for threads in (4, 8):
        for name in REGIME_RUNS:
            same = regime_run(name, threads).to_csv() == regime_run(name, 1).to_csv()
            _check(rep, same, f"{name} histogram at {threads} threads matches 1 thread")
        same = regime_run("pairs", threads) == regime_run("pairs", 1)
        _check(rep, same, f"coupled pairs at {threads} threads match 1 thread")
    return rep


# ---------------------------------------------------------------------------
# Suite registry for the CLI

SUITES: dict[str, list[Callable[[], CriterionReport]]] = {
    "extremal": [
        criterion_extremal_sizes,
        criterion_extremal_counts,
        criterion_rho1_exact,
        criterion_key_lemma,
        criterion_union_bound,
    ],
    "formulas": [criterion_formula_identities],
    "dynamics": [criterion_coupling],
    "poisson": [criterion_poisson, criterion_determinism],
    "concentration": [criterion_concentration],
}
