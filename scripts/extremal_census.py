#!/usr/bin/env python3
"""Exhaustive census of minimal protecting sets at desk scale.

For each feasible (d, t) prints the minimal size, the number of minimal
certificates, and the classification breakdown, for both rules.
"""

import argparse
import sys
import time
from collections import Counter

from torusboot import extremal
from torusboot.dynamics import Modified, Standard
from torusboot.verify import SIZE_INSTANCES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=extremal.DEFAULT_BUDGET)
    args = parser.parse_args()

    print(f"{'rule':<10} {'d':>2} {'t':>2} {'size':>4} {'count':>6}  classes")
    for d, t in SIZE_INSTANCES:
        for rule, tag in ((Standard(d), "standard"), (Modified(), "modified")):
            start = time.perf_counter()
            try:
                count, certs = extremal.count_min_certificates(d, t, rule, budget=args.budget)
            except extremal.WorkBudgetExceeded as exc:
                print(f"{tag:<10} {d:>2} {t:>2}  refused: {exc}")
                continue
            classes = Counter(extremal.classify(c) for c in certs)
            breakdown = ", ".join(f"{k}={v}" for k, v in sorted(classes.items()))
            size = certs[0].size if certs else 0
            print(f"{tag:<10} {d:>2} {t:>2} {size:>4} {count:>6}  {breakdown}"
                  f"  ({time.perf_counter() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
