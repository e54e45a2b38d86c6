"""Seeded, parallel Monte Carlo experiments on the torus.

Each trial is one run of torus_run from its initial grid; run_trials reads
both T and F_t off that run.  Reproducibility contract: the initial state
of trial i is a pure function of (master_seed, i) via a splitmix64 mix,
and the outcomes are added to one histogram in trial-index order, so
results are bit-identical for any thread count and schedule.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Rule, check_rule, torus_run
from .formulas import poisson_pmf

_MASK64 = (1 << 64) - 1

# Uniforms drawn at a time: every trial draws through one 256 KiB buffer.
_DRAW_CHUNK = 1 << 15
# Experiments whose concurrent trials would hold more than this are refused.
MEMORY_LIMIT_BYTES = 2 * 2**30
# The largest worker pool: the pool starts one OS thread per worker.
MAX_THREADS = 256
# The standard normal's 0.975 quantile, statistics.NormalDist().inv_cdf(0.975):
# the z of a two-sided 95% interval.
_Z_95 = 1.9599639845400536


class MemoryBudgetExceeded(Exception):
    """Raised before any trial runs when the trials running at once would
    hold more than MEMORY_LIMIT_BYTES."""

    def __init__(self, estimate: int, limit: int):
        self.estimate = estimate
        self.limit = limit
        super().__init__(f"experiment needs {_describe_bytes(estimate)} at once, limit is {_describe_bytes(limit)}")


def _describe_bytes(nbytes: int) -> str:
    """~GiB to one decimal; past 2**80 bytes a lower power of two, since d
    and n have no upper bound and such an int may not convert to a float."""
    if nbytes < 2**80:
        return f"~{nbytes / 2**30:,.1f} GiB"
    return f"at least 2^{nbytes.bit_length() - 1} bytes"


def splitmix64(x: int) -> int:
    """One splitmix64 scramble step (the documented mixing function)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def trial_seed(master_seed: int, trial_index: int) -> int:
    """64-bit stream seed for one trial."""
    return splitmix64(splitmix64(master_seed) ^ trial_index)


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    n: int
    rule: Rule
    q: float
    t_horizon: int
    trials: int
    master_seed: int
    threads: int = 1

    @property
    def memory_estimate(self) -> int:
        """Bytes held at once by the min(threads, trials) trials that run
        together.

        A trial holds at most two bool grids (a coupled trial thresholds one
        draw twice), its draw buffer, and 8d + 2 packed planes of one uint64
        word per 64 sites of a last-axis row: the words being stepped, their
        2d neighbour planes and up to 6d + 1 temporaries of the standard
        rule's running counts (r = 1 keeps the most).  Traced torus_run
        peaks reach 8d - 2 planes at d = 1..5.
        """
        sites = self.n**self.d
        plane = 8 * self.n ** (self.d - 1) * -(-self.n // 64)
        trial = 2 * sites + (8 * self.d + 2) * plane + 8 * min(sites, _DRAW_CHUNK)
        return trial * min(self.threads, self.trials)

    def __post_init__(self) -> None:
        check_rule(self.rule, self.d)
        if self.t_horizon < 0:
            raise ValueError(f"t_horizon must be >= 0, got {self.t_horizon}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.n < 4 * self.t_horizon + 4:
            raise ValueError(
                f"n={self.n} < 4*t_horizon+4={4 * self.t_horizon + 4}: dependency balls would wrap"
            )
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"threads must lie in [1, {MAX_THREADS}], got {self.threads}")


@dataclass
class EmpiricalDistribution:
    """Histogram of integer outcomes; Stuck trials are counted separately
    and never merged into an outcome value."""

    histogram: Counter = field(default_factory=Counter)
    trials: int = 0
    stuck_count: int = 0

    def add(self, outcome: int | None) -> None:
        self.trials += 1
        if outcome is None:
            self.stuck_count += 1
        else:
            self.histogram[outcome] += 1

    def to_csv(self) -> str:
        lines = ["outcome,count"]
        for k in sorted(self.histogram):
            lines.append(f"{k},{self.histogram[k]}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    ci_low: float
    ci_high: float
    level: float


def _draw_grids(config: ExperimentConfig, trial_index: int, qs: tuple[float, ...]) -> list[np.ndarray]:
    """One trial's infected grids, one per q in qs: a site is infected when
    its uniform is below 1 - q.

    The uniforms are the trial's PCG64 stream in lexicographic site order,
    drawn _DRAW_CHUNK at a time into one buffer and thresholded straight
    into the grids, so no trial holds all n^d of them.
    """
    rng = np.random.Generator(np.random.PCG64(trial_seed(config.master_seed, trial_index)))
    size = config.n**config.d
    grids = [np.empty(size, dtype=bool) for _ in qs]
    buffer = np.empty(min(size, _DRAW_CHUNK))
    for start in range(0, size, _DRAW_CHUNK):
        chunk = buffer[: min(_DRAW_CHUNK, size - start)]
        rng.random(out=chunk)
        for grid, q in zip(grids, qs):
            np.less(chunk, 1.0 - q, out=grid[start : start + len(chunk)])
    return [grid.reshape((config.n,) * config.d) for grid in grids]


def sample_initial_grid(config: ExperimentConfig, trial_index: int) -> np.ndarray:
    """Boolean infected grid: each site infected independently with 1 - q."""
    return _draw_grids(config, trial_index, (config.q,))[0]


def _percolation_time(counts: tuple[int, ...]) -> int | None:
    """T from torus_run's counts, or None when the run fixated below full infection."""
    return len(counts) - 1 if counts[-1] == 0 else None


def _map_trials(config: ExperimentConfig, fn) -> list:
    """fn(i) for every trial index i, in trial-index order, on a pool of
    config.threads threads that runs at most 64 blocks of consecutive trials
    per thread: few enough to keep its queue small, and enough that a slow
    block leaves no worker idle for long.  Refuses with MemoryBudgetExceeded first."""
    if config.memory_estimate > MEMORY_LIMIT_BYTES:
        raise MemoryBudgetExceeded(config.memory_estimate, MEMORY_LIMIT_BYTES)
    indices = range(config.trials)
    size = -(-config.trials // (64 * config.threads))
    blocks = [indices[start : start + size] for start in indices[::size]]
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        # pool.map yields the blocks in order, whatever order they finish in
        return [out for block in pool.map(lambda block: list(map(fn, block)), blocks) for out in block]


def _histogram(outcomes: Iterable[int | None]) -> EmpiricalDistribution:
    dist = EmpiricalDistribution()
    for outcome in outcomes:
        dist.add(outcome)
    return dist


def run_trials(config: ExperimentConfig, t: int) -> tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """Sample the percolation time T and the uninfected count F_t from one
    run per trial; fixpoints below full infection are Stuck for T."""

    def one(i: int) -> tuple[int | None, int]:
        counts = torus_run(sample_initial_grid(config, i), config.rule)
        return _percolation_time(counts), counts[min(t, len(counts) - 1)]

    outcomes = _map_trials(config, one)
    return _histogram(T for T, _ in outcomes), _histogram(F for _, F in outcomes)


def run_trials_T(config: ExperimentConfig) -> EmpiricalDistribution:
    """Sample the percolation time T; fixpoints below full infection are Stuck."""
    return run_trials(config, 0)[0]


def run_trials_F(config: ExperimentConfig, t: int) -> EmpiricalDistribution:
    """Sample the uninfected count after t steps; each run stops at step t."""

    def one(i: int) -> int:
        return torus_run(sample_initial_grid(config, i), config.rule, t)[-1]

    return _histogram(_map_trials(config, one))


def estimate_P_T_le_t(dist: EmpiricalDistribution, t: int) -> EstimateWithCI:
    """Proportion of trials with T <= t, with a 95% Wilson score interval."""
    if dist.trials == 0:
        raise ValueError("empty distribution")
    k = sum(v for outcome, v in dist.histogram.items() if outcome <= t)
    n = dist.trials
    point, level, z = k / n, 0.95, _Z_95
    denom = 1 + z * z / n
    centre = (point + z * z / (2 * n)) / denom
    half = z * math.sqrt(point * (1 - point) / n + z * z / (4 * n * n)) / denom
    return EstimateWithCI(point=point, ci_low=centre - half, ci_high=centre + half, level=level)


def coupled_monotonicity(
    config: ExperimentConfig, q_low: float, q_high: float
) -> list[tuple[int | None, int | None]]:
    """Paired percolation times from shared per-site uniforms.

    The two initial sets threshold the same uniforms at 1-q_high and
    1-q_low, so the lower-q run starts with a superset of infected sites.
    """
    if not 0.0 <= q_low <= q_high <= 1.0:
        raise ValueError("need 0 <= q_low <= q_high <= 1")

    def one(i: int) -> tuple[int | None, int | None]:
        grids = _draw_grids(config, i, (q_low, q_high))
        return tuple(_percolation_time(torus_run(grid, config.rule)) for grid in grids)

    return _map_trials(config, one)


def tv_report(dist: EmpiricalDistribution, lam: float) -> float:
    """Total variation distance between the empirical pmf and Po(lam).

    The Poisson tail beyond the largest observed outcome is included; any
    Stuck mass has no Poisson counterpart and contributes in full.
    """
    if dist.trials == 0:
        raise ValueError("empty distribution")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    max_obs = max(dist.histogram) if dist.histogram else 0
    total = 0.0
    po_mass = 0.0
    for k in range(0, max_obs + 1):
        po_k = poisson_pmf(k, lam)
        po_mass += po_k
        total += abs(dist.histogram.get(k, 0) / dist.trials - po_k)
    total += 1.0 - po_mass  # Poisson tail beyond max observed
    total += dist.stuck_count / dist.trials
    return 0.5 * total
