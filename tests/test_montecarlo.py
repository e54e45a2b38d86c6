import math
import threading

import numpy as np
import pytest

from torusboot import montecarlo as mc
from torusboot.dynamics import Modified, Standard
from torusboot.formulas import poisson_pmf


def config(**overrides):
    base = dict(
        d=2, n=32, rule=Standard(2), q=0.15, t_horizon=2, trials=100,
        master_seed=12345, threads=1,
    )
    base.update(overrides)
    return mc.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        config(trials=0)
    with pytest.raises(ValueError):
        config(q=1.5)
    with pytest.raises(ValueError):
        config(n=8, t_horizon=2)  # n < 4t+4
    with pytest.raises(ValueError):
        config(threads=0)
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be >= 1"):
            config(d=d, rule=Modified())
    with pytest.raises(ValueError, match="t_horizon must be >= 0"):
        config(t_horizon=-1)


def test_trial_seed_is_stable_and_distinct():
    s = mc.trial_seed(42, 0)
    assert s == mc.trial_seed(42, 0)
    seeds = {mc.trial_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mc.trial_seed(42, 0) != mc.trial_seed(43, 0)


def test_sample_initial_extremes():
    all_inf = mc.sample_initial_grid(config(q=0.0), 0)
    assert all_inf.all() and all_inf.shape == (32, 32)
    none_inf = mc.sample_initial_grid(config(q=1.0), 0)
    assert not none_inf.any()


def test_sample_initial_reproducible():
    a = mc.sample_initial_grid(config(), 7)
    b = mc.sample_initial_grid(config(), 7)
    assert np.array_equal(a, b)
    c = mc.sample_initial_grid(config(), 8)
    assert not np.array_equal(a, c)


def test_histograms_identical_across_thread_counts():
    for fn in (mc.run_trials_T, lambda cfg: mc.run_trials_F(cfg, 2)):
        base = fn(config(threads=1))
        for threads in (2, 4, 8):
            other = fn(config(threads=threads))
            assert other.to_csv() == base.to_csv()
            assert other.stuck_count == base.stuck_count
    pairs = mc.coupled_monotonicity(config(threads=1), q_low=0.1, q_high=0.2)
    for threads in (2, 4, 8):
        assert mc.coupled_monotonicity(config(threads=threads), q_low=0.1, q_high=0.2) == pairs


def test_coupled_pairs_run_on_pool_threads(monkeypatch):
    seen = set()
    real = mc._percolation_time

    def spy(infected, rule):
        seen.add(threading.current_thread())
        return real(infected, rule)

    monkeypatch.setattr(mc, "_percolation_time", spy)
    mc.coupled_monotonicity(config(threads=3, trials=64), q_low=0.1, q_high=0.2)
    assert seen and threading.main_thread() not in seen


def test_run_trials_T_point_masses():
    dist = mc.run_trials_T(config(q=0.0, trials=20))
    assert dist.histogram == {0: 20} and dist.stuck_count == 0
    stuck = mc.run_trials_T(config(q=1.0, trials=20))
    assert stuck.stuck_count == 20 and not stuck.histogram


def test_run_trials_F_at_t0_is_binomial():
    cfg = config(n=16, q=0.3, trials=10_000)
    dist = mc.run_trials_F(cfg, 0)
    n_sites = 16 * 16
    mean = sum(k * v for k, v in dist.histogram.items()) / dist.trials
    var = sum(k * k * v for k, v in dist.histogram.items()) / dist.trials - mean**2
    exp_mean = n_sites * 0.3
    exp_var = n_sites * 0.3 * 0.7
    se_mean = math.sqrt(exp_var / dist.trials)
    assert abs(mean - exp_mean) < 4 * se_mean
    # variance of the sample variance for a binomial, normal approximation
    se_var = exp_var * math.sqrt(2 / dist.trials) * 1.5
    assert abs(var - exp_var) < 4 * se_var


def test_estimate_wilson_interval():
    dist = mc.EmpiricalDistribution()
    for _ in range(135):
        dist.add(2)
    for _ in range(865):
        dist.add(4)
    est = mc.estimate_P_T_le_t(dist, 2)
    assert est.point == pytest.approx(0.135)
    assert est.ci_low < 0.135 < est.ci_high
    zero = mc.estimate_P_T_le_t(dist, 1)
    assert zero.point == 0.0 and zero.ci_high > 0.0


def test_estimate_monotone_in_q():
    # stochastic monotonicity: more uninfected mass, later percolation
    lo = mc.run_trials_T(config(q=0.10, trials=300))
    hi = mc.run_trials_T(config(q=0.18, trials=300))
    est_lo = mc.estimate_P_T_le_t(lo, 2)
    est_hi = mc.estimate_P_T_le_t(hi, 2)
    assert est_lo.point >= est_hi.point - (est_hi.ci_high - est_hi.ci_low)


def test_coupled_monotonicity_properties():
    cfg = config(trials=80)
    pairs = mc.coupled_monotonicity(cfg, q_low=0.05, q_high=0.2)
    inf = float("inf")
    assert len(pairs) == 80
    for t_low, t_high in pairs:
        a = t_low if t_low is not None else inf
        b = t_high if t_high is not None else inf
        assert a <= b
    same = mc.coupled_monotonicity(config(trials=30), q_low=0.15, q_high=0.15)
    assert all(a == b for a, b in same)
    with pytest.raises(ValueError):
        mc.coupled_monotonicity(cfg, q_low=0.5, q_high=0.2)


def test_disjoint_balls_uncorrelated():
    # indicators of "uninfected at time t" at offset 2t+1 are independent;
    # empirical correlation should be within 3 standard errors of zero
    from torusboot.dynamics import torus_step_grid

    rng_cfg = config(n=16, q=0.55, trials=4000, t_horizon=1)
    t = 1
    xs, ys = [], []
    for i in range(rng_cfg.trials):
        grid = mc.sample_initial_grid(rng_cfg, i)
        for _ in range(t):
            grid = torus_step_grid(grid, rng_cfg.rule)
        xs.append(not grid[0, 0])
        ys.append(not grid[3, 0])
    xs = np.array(xs, dtype=float)
    ys = np.array(ys, dtype=float)
    r = np.corrcoef(xs, ys)[0, 1]
    assert abs(r) < 3 / math.sqrt(len(xs))


def test_tv_report_cases():
    dist = mc.EmpiricalDistribution()
    dist.add(0)
    assert mc.tv_report(dist, math.log(2)) == pytest.approx(0.5, abs=1e-9)
    # an empirical pmf equal to the Poisson pmf has TV ~ 0
    lam = 1.3
    exact = mc.EmpiricalDistribution()
    n = 100_000
    total = 0
    for k in range(12):
        c = round(n * poisson_pmf(k, lam))
        exact.histogram[k] = c
        total += c
    exact.trials = total
    assert mc.tv_report(exact, lam) < 0.01
    with pytest.raises(ValueError):
        mc.tv_report(mc.EmpiricalDistribution(), 1.0)


def test_stuck_mass_counts_fully_against_poisson():
    dist = mc.EmpiricalDistribution()
    for _ in range(10):
        dist.add(None)
    assert dist.stuck_count == 10
    assert mc.tv_report(dist, 0.0) == pytest.approx(1.0)


def test_csv_format():
    dist = mc.EmpiricalDistribution()
    for k in (3, 1, 1):
        dist.add(k)
    assert dist.to_csv() == "outcome,count\n1,2\n3,1\n"
