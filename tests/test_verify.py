import math
from itertools import compress, product

import numpy as np
import pytest

from torusboot import dynamics, extremal, formulas, verify
from torusboot.dynamics import Modified, Standard
from torusboot.lattice import enumerate_ball, l1_norm


def scalar_lemma_counts(d, t, protected):
    """(n_checks, n_violations) from check_key_lemma over every valid (x, C, k)."""
    n_checks = n_viol = 0
    for x in compress(enumerate_ball(d, t).sites, protected):
        choices = [(-1, 0, 1) if xi == 0 else ((1,) if xi > 0 else (-1,)) for xi in x]
        for config in product(*choices):
            for k in range(t - l1_norm(x) + 1):
                n_checks += 1
                if not extremal.check_key_lemma(protected, d, t, x, config, k).holds:
                    n_viol += 1
    return n_checks, n_viol


@pytest.mark.parametrize("d,t", verify.KEY_LEMMA_CELLS)
def test_tensor_lemma_counts_match_scalar_checker(d, t):
    rule = Standard(d)
    rng = np.random.Generator(np.random.PCG64(11 * d + t))
    configs = extremal.sample_protected_configs(d, t, rule, 6, rng, q=verify._SAMPLING_Q[d])
    for protected in dynamics.protected_set(np.stack(configs), d, t, rule):
        n_checks, n_viol, _ = verify._lemma_violations_for_config(d, t, protected)
        assert (n_checks, n_viol) == scalar_lemma_counts(d, t, protected)


@pytest.mark.parametrize("d,t", [(2, 3), (3, 2)])
def test_tensor_lemma_counts_violations_like_the_scalar_checker(monkeypatch, d, t):
    # no sampled state violates the real bound, so raise it by one: exactly
    # the tight checks fail, and both checkers must count the same ones
    rule = Standard(d)
    rng = np.random.Generator(np.random.PCG64(5))
    configs = extremal.sample_protected_configs(d, t, rule, 1, rng, q=verify._SAMPLING_Q[d])
    (protected,) = dynamics.protected_set(np.stack(configs), d, t, rule)
    real_bound = extremal.key_lemma_bound
    monkeypatch.setattr(extremal, "key_lemma_bound", lambda config, k: real_bound(config, k) + 1)
    verify._lemma_table.cache_clear()
    try:
        n_checks, n_viol, _ = verify._lemma_violations_for_config(d, t, protected)
        assert (n_checks, n_viol) == scalar_lemma_counts(d, t, protected)
    finally:
        verify._lemma_table.cache_clear()
    assert 0 < n_viol < n_checks


def test_key_lemma_check_counts_are_pinned():
    # the seed-7 entry of perfbench/reference.json: every (x, C, k) check
    # of a cell is counted, so a dropped or extra check changes its total
    report = verify.criterion_key_lemma(total=1200, seed=7)
    assert report.passed
    want = {(2, 2): 12116, (2, 3): 21495, (2, 4): 34388, (3, 2): 49974, (3, 3): 101545, (3, 4): 183310}
    for (d, t), n in want.items():
        assert f"ok: d={d} t={t}: 0 lemma violations in {n} checks" in report.details


def test_run_criterion_passes_threads_only_where_taken():
    seen = []

    def threaded(threads=4):
        seen.append(threads)
        return verify.CriterionReport("threaded", True)

    def plain():
        return verify.CriterionReport("plain", True)

    assert verify.run_criterion(threaded, 3).name == "threaded"
    assert verify.run_criterion(plain, 3).name == "plain"
    assert seen == [3]



def test_regime_runs_cache_is_keyed_by_seed(monkeypatch):
    # each stub echoes the master seed it was given, so a result cached for
    # one seed and served for another shows up as the wrong seed
    monkeypatch.setattr(verify, "_regime_cache", {})
    monkeypatch.setattr(verify.montecarlo, "run_trials_F", lambda cfg, t: cfg.master_seed)
    monkeypatch.setattr(verify.montecarlo, "run_trials_T", lambda cfg: cfg.master_seed)
    monkeypatch.setattr(verify.montecarlo, "coupled_monotonicity", lambda cfg, **kw: cfg.master_seed)
    seven, eight = verify.regime_runs(1, seed=7), verify.regime_runs(1, seed=8)
    assert seven["F"] == 7 and eight["F"] == 8
    assert (seven["T"], seven["T_mod"], seven["pairs"]) == (8, 9, 10)
    assert (eight["T"], eight["T_mod"], eight["pairs"]) == (9, 10, 11)
    assert verify.regime_runs(1, seed=7) is seven


def test_regime_inputs_are_pinned_bit_for_bit():
    # the benchmark's regime digests depend on q to the last bit; the right
    # hand sides are the hand-solved forms that preceded formulas.q_at_lambda
    for n in range(8, 4097):
        assert verify.poisson_regime_q(n) == (2.0 / (16.0 * n * n)) ** (1.0 / 8.0)
        assert verify.modified_regime_q(n) == (1.0 / (n * n)) ** (1.0 / 3.0)
    for n in (2, 10, 100, 512, 1000, 4096, 10**6):
        for alpha in (1e-6, 0.01, 0.1, 0.5, 0.9, 1 - 1e-9):
            log_term = math.log(1.0 / alpha)
            for d in (2, 3, 4):
                for t in (2, 3, 5):
                    query = formulas.ThresholdQuery(d=d, n=n, t=t, alpha=alpha, rule=Standard(d))
                    want = 1.0 - (log_term / (d**3 * 2 ** (d - 1) * n**d)) ** (1.0 / formulas.m(t, d))
                    assert formulas.p_alpha(query) == want
                for t in (1, 2, 4):
                    query = formulas.ThresholdQuery(d=d, n=n, t=t, alpha=alpha, rule=Modified())
                    assert formulas.p_alpha(query) == 1.0 - (log_term / (d * n**d)) ** (1.0 / (2 * t + 1))


def test_stein_chen_bound_exact_pinned():
    # criterion 07 checks TV <= RHS + 0.03, which a loose RHS passes whatever
    # it is; pinning the value catches a wrong rho1 or rho2 input
    assert verify.stein_chen_bound_exact() == pytest.approx(0.24869794313696902, rel=1e-12)
