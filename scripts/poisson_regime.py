#!/usr/bin/env python3
"""Run the lambda = 2 Poisson-regime experiment and report the TV distance.

Solves 16 n^2 q^8 = 2 (standard rule, t = 2) or 2 n^2 q^3 = 2 (modified
rule, t = 1) for q, computes the exact lambda from the rho1 polynomial,
runs the seeded experiment through the CLI, and prints a summary.  The
pool size comes from $TORUSBOOT_THREADS (default 1), as for any experiment.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from torusboot import cli
from torusboot.verify import lambda_exact_modified, lambda_exact_standard, modified_regime_q, poisson_regime_q


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=("standard", "modified"), default="standard")
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="poisson_run")
    args = parser.parse_args()

    if args.model == "standard":
        t, q, lam = 2, poisson_regime_q(args.n), lambda_exact_standard(args.n)
    else:
        t, q, lam = 1, modified_regime_q(args.n), lambda_exact_modified(args.n)

    config = {
        "schema": 1,
        "d": 2,
        "n": args.n,
        "rule": args.model,
        "q": q,
        "t_horizon": t,
        "trials": args.trials,
        "master_seed": args.seed,
        "measure": ["T", "F"],
        "t_measure": t,
        "lambda": lam,
    }
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        code = cli.main(["experiment", str(config_path), "--out", args.out])
    if code != 0:
        return code
    report = json.loads((Path(args.out) / "report.json").read_text())
    tv = report["results"]["F"]["tv_vs_poisson"]["tv"]
    p_le = report["results"]["T"]["P_T_le_t"]["point"]
    print(f"model={args.model} n={args.n} q={q:.6f} lambda_exact={lam:.6f}")
    print(f"TV(empirical F_{t}, Po(lambda_exact)) = {tv:.4f}")
    print(f"P(T <= {t}) = {p_le:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
