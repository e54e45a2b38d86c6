#!/usr/bin/env python3
"""Time one dense torus step against one sparse step, by uninfected fraction.

torus_run steps the whole grid once (torus_step_grid) and then switches to
torus_step_sparse when at most 1/_SPARSE_SWITCH of the sites are left
uninfected.  This script measures where the two cost the same: for grids
with a given fraction f of uninfected sites (independent sites), it prints
the best-of-repeats time of a dense step plus its count, of a sparse step
given its frontier, and of the flatnonzero that builds the frontier once,
when the run switches.
"""

import argparse
import time

import numpy as np

from torusboot.dynamics import Modified, Standard, torus_step_grid, torus_step_sparse

CASES = [((512, 512), Standard(2)), ((512, 512), Modified()), ((64, 64, 64), Standard(3)), ((64, 64, 64), Modified())]


def best_of(repeats: int, fn) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'shape':<14} {'rule':<12} {'1/f':>5} {'dense ms':>9} {'sparse ms':>10} {'switch ms':>10}"
          f" {'sparse/dense':>13}")
    for shape, rule in CASES:
        for inv_f in (2, 4, 8, 16, 32, 64, 128):
            grid = rng.random(shape) >= 1.0 / inv_f

            def dense():
                np.count_nonzero(torus_step_grid(grid, rule))

            flat = grid.reshape(-1)
            frontier = np.flatnonzero(~flat)
            t_dense = best_of(args.repeats, dense)
            # the step writes flat, so each repeat steps a fresh copy; the copy's time is taken off
            t_sparse = best_of(args.repeats, lambda: torus_step_sparse(flat.copy(), shape, frontier, rule))
            t_sparse -= best_of(args.repeats, flat.copy)
            t_switch = best_of(args.repeats, lambda: np.flatnonzero(~flat))
            name = "modified" if isinstance(rule, Modified) else f"standard r={rule.r}"
            print(f"{'x'.join(map(str, shape)):<14} {name:<12} {inv_f:>5} {t_dense * 1e3:>9.3f}"
                  f" {t_sparse * 1e3:>10.3f} {t_switch * 1e3:>10.3f} {t_sparse / t_dense:>13.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
