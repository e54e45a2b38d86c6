import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from statistics import NormalDist

import numpy as np
import pytest

from torusboot import montecarlo as mc
from torusboot.dynamics import Modified, Standard
from torusboot.formulas import poisson_pmf

from test_dynamics import packed_step, reference_torus_run


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
    for seed in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ValueError, match="master_seed"):
            config(master_seed=seed)
    for seed in (0, 2**64 - 1):
        assert config(master_seed=seed).master_seed == seed


def test_config_refuses_more_threads_than_the_cap():
    # constructing a config starts no thread
    assert config(threads=mc.MAX_THREADS).threads == 256
    for threads in (0, mc.MAX_THREADS + 1, 100_000):
        with pytest.raises(ValueError, match=rf"threads must lie in \[1, 256\], got {threads}"):
            config(threads=threads)


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


@pytest.mark.parametrize("d,n", [(2, 8), (1, 2**15), (1, 2**15 + 1), (3, 33), (2, 512)])
def test_chunked_draw_is_the_whole_stream(d, n):
    # the grids threshold the trial's whole PCG64 stream, drawn at once, in
    # lexicographic site order, whether n^d is below, at or past a multiple
    # of the draw chunk
    cfg = config(d=d, n=n, q=0.4, t_horizon=0)
    for i in (0, 5):
        rng = np.random.Generator(np.random.PCG64(mc.trial_seed(cfg.master_seed, i)))
        uniforms = rng.random(n**d).reshape((n,) * d)
        np.testing.assert_array_equal(mc.sample_initial_grid(cfg, i), uniforms < 1.0 - 0.4)
        low, high = mc._draw_grids(cfg, i, (0.1, 0.4))
        np.testing.assert_array_equal(low, uniforms < 1.0 - 0.1)
        np.testing.assert_array_equal(high, uniforms < 1.0 - 0.4)


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

    def spy(counts):
        seen.add(threading.current_thread())
        return real(counts)

    monkeypatch.setattr(mc, "_percolation_time", spy)
    mc.coupled_monotonicity(config(threads=3, trials=64), q_low=0.1, q_high=0.2)
    assert seen and threading.main_thread() not in seen


@pytest.mark.parametrize("threads", [1, 2])
def test_trials_run_on_the_pool_in_at_most_64_blocks_per_thread(monkeypatch, threads):
    # one Future per block, not per trial, at every thread count: the pool's
    # queue stays small however many trials there are
    submits = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submits.append(1)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", CountingPool)
    seen = set()

    def fn(i):
        seen.add(threading.current_thread())
        return i

    assert mc._map_trials(config(threads=threads, trials=10_000), fn) == list(range(10_000))
    assert 0 < len(submits) <= 64 * threads
    assert seen and threading.main_thread() not in seen
    # the outcomes stay in trial-index order when the blocks do not divide the trials evenly
    for trials in (1, 64 * threads - 1, 64 * threads + 1, 1001):
        assert mc._map_trials(config(threads=threads, trials=trials), lambda i: -i) == [-i for i in range(trials)]


@pytest.mark.parametrize("overrides", [{}, {"q": 0.3, "rule": Standard(3)}, {"q": 0.5, "rule": Modified()}])
def test_run_trials_reads_T_and_F_off_one_run(overrides):
    # T against the dense reference loop on the same grids, F against the
    # separate t-step runs, stuck trials included
    cfg = config(trials=60, **overrides)
    want_t = mc.EmpiricalDistribution()
    for i in range(cfg.trials):
        counts = reference_torus_run(mc.sample_initial_grid(cfg, i), cfg.rule)
        want_t.add(len(counts) - 1 if counts[-1] == 0 else None)
    for threads in (1, 4):
        cfg = config(threads=threads, trials=60, **overrides)
        assert mc.run_trials_T(cfg).to_csv() == want_t.to_csv()
        for t in (0, 1, 2, 6):
            got_t, got_f = mc.run_trials(cfg, t)
            want_f = mc.run_trials_F(cfg, t)
            assert (got_t.to_csv(), got_t.stuck_count, got_t.trials) == (
                want_t.to_csv(), want_t.stuck_count, want_t.trials)
            assert (got_f.to_csv(), got_f.stuck_count, got_f.trials) == (
                want_f.to_csv(), want_f.stuck_count, want_f.trials)
    assert mc.run_trials_T(config(q=0.3, rule=Standard(3), trials=60)).stuck_count > 0


def test_memory_refusal_comes_before_any_trial(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a refused experiment drew uniforms")

    monkeypatch.setattr(mc, "_draw_grids", no_draws)
    huge = config(n=2**20, threads=4)
    # two grid bytes and 18 packed planes of 2^37 bytes per trial, and the 256 KiB draw buffer
    assert huge.memory_estimate == (2 * 2**40 + 18 * 2**37 + 2**18) * 4
    for run in (mc.run_trials_T, lambda cfg: mc.run_trials_F(cfg, 2), lambda cfg: mc.run_trials(cfg, 2),
                lambda cfg: mc.coupled_monotonicity(cfg, 0.1, 0.2)):
        with pytest.raises(mc.MemoryBudgetExceeded, match="GiB"):
            run(huge)
    # the largest n that runs on 8 threads fits; one more site per axis does not
    assert config(n=7936, threads=8).memory_estimate <= mc.MEMORY_LIMIT_BYTES
    assert config(n=7937, threads=8).memory_estimate > mc.MEMORY_LIMIT_BYTES
    # the regime's n = 512 fits at every thread count the suites use
    assert config(n=512, threads=8).memory_estimate <= mc.MEMORY_LIMIT_BYTES
    # no more trials run at once than there are trials
    one = config(n=16384, threads=1).memory_estimate
    assert config(n=16384, threads=8, trials=1).memory_estimate == one <= mc.MEMORY_LIMIT_BYTES
    assert config(n=16384, threads=8, trials=2).memory_estimate == 2 * one > mc.MEMORY_LIMIT_BYTES
    # an estimate too large for a float is still reported
    assert "at least 2^1204 bytes" in str(mc.MemoryBudgetExceeded(16 * 4**600, mc.MEMORY_LIMIT_BYTES))


@pytest.mark.parametrize("rule,q", [(Standard(2), 0.0155), (Standard(4), 0.9), (Standard(3), 0.6), (Modified(), 0.5)])
def test_trial_peak_memory_fits_the_estimate(rule, q):
    # traced peak of one whole trial (draw, grid, packed steps), and of one
    # coupled trial with its two grids, against the estimate; the last
    # three rules keep many sites uninfected for several steps.  A first
    # trial runs untraced: the first draw imports numpy.random, which no
    # trial holds
    mc.run_trials(config(trials=1), 1)
    for d, n in [(2, 256), (2, 512), (3, 64)]:
        cfg = config(d=d, n=n, rule=rule, q=q, trials=1)
        for run in (lambda: mc.run_trials(cfg, 1), lambda: mc.coupled_monotonicity(cfg, q / 2, q)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= cfg.memory_estimate, (d, n)


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


@pytest.mark.parametrize("summary", [
    lambda dist: mc.estimate_P_T_le_t(dist, 2),
    lambda dist: mc.tv_report(dist, 1.0),
], ids=["estimate_P_T_le_t", "tv_report"])
def test_summaries_refuse_an_empty_distribution(summary):
    with pytest.raises(ValueError, match="empty distribution"):
        summary(mc.EmpiricalDistribution())


def test_wilson_z_is_the_normal_quantile():
    # estimate_P_T_le_t's 95% interval uses the exact 0.975 quantile, so
    # report.json keeps the bytes it had when z was computed per call
    assert mc._Z_95 == NormalDist().inv_cdf(0.975)


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
    rng_cfg = config(n=16, q=0.55, trials=4000, t_horizon=1)
    t = 1
    xs, ys = [], []
    for i in range(rng_cfg.trials):
        grid = mc.sample_initial_grid(rng_cfg, i)
        for _ in range(t):
            grid = packed_step(grid, rng_cfg.rule)
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
