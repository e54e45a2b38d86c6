import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress, product

import numpy as np
import pytest
from reference import column_sites, protected_row

from torusboot import dynamics, extremal, formulas, montecarlo, verify
from torusboot.dynamics import Modified, Standard
from torusboot.extremal import PreconditionError
from torusboot.lattice import enumerate_ball, l1_norm


# ---------------------------------------------------------------------------
# Scalar key-lemma reference: one (x, C, k) check at a time, site by site


@dataclass(frozen=True)
class KeyLemmaReport:
    x: tuple[int, ...]
    config: tuple[int, ...]
    k: int
    compatible_protected: int
    bound: int

    @property
    def holds(self) -> bool:
        return self.compatible_protected >= self.bound


def check_key_lemma(protected, d, t, x, config, k):
    """Count sites of a protected set of B_t, one row of
    dynamics.protected_set, compatible with `config` at distance k from x
    and compare with extremal.key_lemma_bound.

    The configuration must equal sign(x_i) on every nonzero coordinate of
    x (see verify._lemma_table for a counterexample without it).
    Precondition failures (x not protected, k out of range, misaligned
    config) raise PreconditionError; a False report is a genuine lemma
    violation.
    """
    if len(x) != d or len(config) != d:
        raise PreconditionError("x and config must have length d")
    if any(c not in (-1, 0, 1) for c in config):
        raise PreconditionError("config entries must be in {-1, 0, 1}")
    if any(xi != 0 and c != (1 if xi > 0 else -1) for xi, c in zip(x, config)):
        raise PreconditionError("config must equal sign(x_i) on nonzero coordinates of x")
    if not 0 <= k <= t - l1_norm(x):
        raise PreconditionError(f"k={k} outside [0, {t - l1_norm(x)}]")
    ball = enumerate_ball(d, t)
    if not protected[ball.index_of[x]]:
        raise PreconditionError(f"site {x} is not protected")
    n = 0
    for y in compress(ball.sites, protected):
        if sum(abs(yi - xi) for yi, xi in zip(y, x)) != k:
            continue
        if all((yi - xi) * c >= 0 for yi, xi, c in zip(y, x, config)):
            n += 1
    return KeyLemmaReport(
        x=x, config=tuple(config), k=k, compatible_protected=n, bound=extremal.key_lemma_bound(config, k)
    )


def scalar_lemma_counts(d, t, protected):
    """(n_checks, n_violations) from check_key_lemma over every valid (x, C, k)."""
    n_checks = n_viol = 0
    for x in compress(enumerate_ball(d, t).sites, protected):
        choices = [(-1, 0, 1) if xi == 0 else ((1,) if xi > 0 else (-1,)) for xi in x]
        for config in product(*choices):
            for k in range(t - l1_norm(x) + 1):
                n_checks += 1
                if not check_key_lemma(protected, d, t, x, config, k).holds:
                    n_viol += 1
    return n_checks, n_viol


def test_check_key_lemma_tight_on_column():
    d, t = 2, 2
    protected = protected_row(d, t, column_sites(d, t), Standard(d))
    report = check_key_lemma(protected, d, t, (0, 0), (0, 0), t)
    assert report.holds
    assert report.compatible_protected == formulas.ell(t, d)
    assert report.bound == formulas.ell(t, d)


def test_check_key_lemma_slack_on_full_ball():
    d, t = 2, 2
    protected = protected_row(d, t, set(enumerate_ball(d, t).sites), Standard(d))
    report = check_key_lemma(protected, d, t, (1, 0), (1, 0), 1)
    assert report.holds
    assert report.compatible_protected > report.bound


def test_check_key_lemma_preconditions():
    d, t = 2, 2
    protected = protected_row(d, t, column_sites(d, t), Standard(d))
    with pytest.raises(PreconditionError):
        check_key_lemma(protected, d, t, (0, 0), (0, 0), t + 1)  # k too large
    with pytest.raises(PreconditionError):
        check_key_lemma(protected, d, t, (2, 0), (1, 0), 0)  # x not protected
    with pytest.raises(PreconditionError):
        check_key_lemma(protected, d, t, (0, 1), (0, -1), 1)  # config against sign


def sampled_protected_sets(d, t, n, seed):
    rule = Standard(d)
    rng = np.random.Generator(np.random.PCG64(seed))
    configs = extremal.sample_protected_configs(d, t, rule, n, rng, q=verify._SAMPLING_Q[d])
    return dynamics.protected_set(configs, d, t, rule)


def scalar_cell_counts(d, t, protected):
    per_row = [scalar_lemma_counts(d, t, row) for row in protected]
    return sum(c for c, _ in per_row), sum(v for _, v in per_row)


@pytest.mark.parametrize("d,t", verify.KEY_LEMMA_CELLS)
def test_tensor_lemma_counts_match_scalar_checker(monkeypatch, d, t):
    # six states in chunks of four: one full chunk and one partial one
    monkeypatch.setattr(verify, "_LEMMA_CHUNK", 4)
    protected = sampled_protected_sets(d, t, 6, 11 * d + t)
    assert verify._lemma_counts(d, t, protected) == scalar_cell_counts(d, t, protected)


@pytest.mark.parametrize("d,t", [(2, 3), (3, 2)])
def test_tensor_lemma_counts_violations_like_the_scalar_checker(monkeypatch, d, t):
    # no sampled state violates the real bound, so raise it by one: exactly
    # the tight checks fail, and both checkers must count the same ones
    monkeypatch.setattr(verify, "_LEMMA_CHUNK", 2)
    protected = sampled_protected_sets(d, t, 3, 5)
    real_bound = extremal.key_lemma_bound
    monkeypatch.setattr(extremal, "key_lemma_bound", lambda config, k: real_bound(config, k) + 1)
    n_checks, n_viol = verify._lemma_counts(d, t, protected)
    assert (n_checks, n_viol) == scalar_cell_counts(d, t, protected)
    assert 0 < n_viol < n_checks


@pytest.mark.parametrize("d,t", verify.KEY_LEMMA_CELLS + [(1, 0), (1, 3), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2)])
def test_lemma_table_is_the_definition(d, t):
    # check_key_lemma's rules, one (x, C, k) row at a time: C aligned with
    # x's signs, k = 0..t-||x||, y at distance k with (y_i - x_i) C_i >= 0
    sites = enumerate_ball(d, t).sites
    rows = []
    for i, x in enumerate(sites):
        for config in product((-1, 0, 1), repeat=d):
            if any(xi != 0 and c != (1 if xi > 0 else -1) for xi, c in zip(x, config)):
                continue
            for k in range(t - l1_norm(x) + 1):
                incidence = [
                    sum(abs(yi - xi) for yi, xi in zip(y, x)) == k
                    and all((yi - xi) * c >= 0 for yi, xi, c in zip(y, x, config))
                    for y in sites
                ]
                rows.append((i, extremal.key_lemma_bound(config, k), incidence))
    site, bound, incidence = verify._lemma_table(d, t)
    want = (
        np.array([i for i, _, _ in rows], dtype=np.intp),
        np.array([b for _, b, _ in rows], dtype=np.int64),
        np.array([inc for _, _, inc in rows], dtype=np.float32),
    )
    for got, exp in zip((site, bound, incidence), want):
        assert got.dtype == exp.dtype
        assert got.shape == exp.shape
        assert np.array_equal(got, exp)


def test_key_lemma_refuses_fewer_configurations_than_cells():
    with pytest.raises(ValueError, match="total"):
        verify.criterion_key_lemma(total=len(verify.KEY_LEMMA_CELLS) - 1)
    assert verify.criterion_key_lemma(total=len(verify.KEY_LEMMA_CELLS)).passed


def test_key_lemma_check_counts_are_pinned():
    # the seed-7 entry of perfbench/reference.json: every (x, C, k) check
    # of a cell is counted, so a dropped or extra check changes its total
    report = verify.criterion_key_lemma(total=1200, seed=7)
    assert report.passed
    want = {(2, 2): 12116, (2, 3): 21495, (2, 4): 34388, (3, 2): 49974, (3, 3): 101545, (3, 4): 183310}
    for (d, t), n in want.items():
        assert f"ok: d={d} t={t}: 0 lemma violations in {n} checks" in report.details


@pytest.fixture
def runner_calls(monkeypatch):
    """Counting stubs for the three Monte Carlo runners, each echoing the
    master seed it was given.  regime_run's cache is emptied before and
    after, so no stub result is served to a later test."""
    calls = []

    def histogram(runner):
        def stub(cfg, *args):
            calls.append((runner, cfg.threads))
            return montecarlo.EmpiricalDistribution(Counter({cfg.master_seed: 1}), trials=1)
        return stub

    def pairs(cfg, **kwargs):
        calls.append(("coupled_monotonicity", cfg.threads))
        return [(cfg.master_seed, cfg.master_seed)]

    monkeypatch.setattr(montecarlo, "run_trials_F", histogram("run_trials_F"))
    monkeypatch.setattr(montecarlo, "run_trials_T", histogram("run_trials_T"))
    monkeypatch.setattr(montecarlo, "coupled_monotonicity", pairs)
    verify.regime_run.cache_clear()
    yield calls
    verify.regime_run.cache_clear()


@pytest.mark.parametrize("criterion,want", [
    (verify.criterion_coupling, ["coupled_monotonicity"]),
    (verify.criterion_concentration, ["run_trials_T", "run_trials_T"]),
    (verify.criterion_poisson, ["run_trials_F"]),
])
def test_criterion_runs_only_what_it_reads(runner_calls, criterion, want):
    criterion()
    assert runner_calls == [(runner, verify.THREADS) for runner in want]


def test_statistical_criteria_share_their_runs_with_the_determinism_check(runner_calls):
    # criterion 10 compares 1, 4 and 8 threads; the other three read the
    # 4-thread runs, so a whole poisson/concentration/dynamics pass runs
    # each (name, threads) pair once
    for criterion in (verify.criterion_poisson, verify.criterion_concentration, verify.criterion_coupling):
        criterion()
    assert verify.criterion_determinism().passed
    assert len(runner_calls) == 4 * 3  # F, T, T_mod and pairs at each thread count
    assert {threads for _, threads in runner_calls} == {1, verify.THREADS, 8}


def test_regime_run_cache_is_keyed_by_name_and_threads(runner_calls):
    # each stub echoes the master seed it was given, so a result cached for
    # one run and served for another shows up as the wrong seed
    runs = {name: verify.regime_run(name, 1) for name in ("F", "T", "T_mod")}
    seeds = {name: dict(dist.histogram) for name, dist in runs.items()}
    assert seeds == {"F": {7: 1}, "T": {8: 1}, "T_mod": {9: 1}}
    assert verify.regime_run("pairs", 1) == [(10, 10)]
    assert len(runner_calls) == 4
    assert all(verify.regime_run(name, 1) is dist for name, dist in runs.items())
    assert len(runner_calls) == 4
    assert verify.regime_run("F", 2) is not runs["F"]
    assert runner_calls[-1] == ("run_trials_F", 2)


def test_regime_inputs_are_pinned_bit_for_bit():
    # the benchmark's regime digests depend on q to the last bit; the right
    # hand sides are the hand-solved forms that preceded formulas.q_at_lambda
    for n in range(8, 4097):
        assert verify.poisson_regime_q(n) == (2.0 / (16.0 * n * n)) ** (1.0 / 8.0)
        assert verify.modified_regime_q(n) == (1.0 / (n * n)) ** (1.0 / 3.0)
    for n in (2, 10, 100, 512, 1000, 4096, 10**6):
        for alpha in (1e-6, 0.01, 0.1, 0.5, 0.9, 1 - 1e-9):
            log_term = -math.log(alpha)
            for d in (2, 3, 4):
                for t in (2, 3, 5):
                    want = 1.0 - (log_term / (d**3 * 2 ** (d - 1) * n**d)) ** (1.0 / formulas.m(t, d))
                    assert formulas.p_alpha(n, d, t, alpha, Standard(d)) == want
                for t in (1, 2, 4):
                    if log_term > d * n**d:  # the hand form gives a negative threshold
                        with pytest.raises(ValueError, match="alpha"):
                            formulas.p_alpha(n, d, t, alpha, Modified())
                        continue
                    assert formulas.p_alpha(n, d, t, alpha, Modified()) == 1.0 - (log_term / (d * n**d)) ** (1.0 / (2 * t + 1))


def test_stein_chen_bound_exact_pinned():
    # criterion 07 checks TV <= RHS + 0.03, which a loose RHS passes whatever
    # it is; pinning the value catches a wrong rho1 or rho2 input
    assert verify.stein_chen_bound_exact() == pytest.approx(0.24869794313696902, rel=1e-12)
