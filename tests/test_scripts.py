"""Smoke tests: each script in scripts/ runs end to end as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

from torusboot import verify

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_poisson_regime_script(tmp_path):
    regimes = {
        "standard": (verify.poisson_regime_q(16), verify.lambda_exact_standard(16)),
        "modified": (verify.modified_regime_q(16), verify.lambda_exact_modified(16)),
    }
    for model, (q, lam) in regimes.items():
        out = tmp_path / model
        proc = run_script("poisson_regime.py", "--model", model, "--n", "16", "--trials", "20",
                          "--out", str(out), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"model={model} n=16 q={q:.6f} lambda_exact={lam:.6f}\n")
        assert (out / "report.json").is_file() and (out / "F_hist.csv").is_file()


def test_extremal_census_script(tmp_path):
    proc = run_script("extremal_census.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # rule, d, t, size, count and classes of each row; the last column is its wall time
    rows = [" ".join(line.split()[:-1]) for line in proc.stdout.splitlines()[1:]]
    assert rows == [
        "standard 2 1 4 4 canonical=4",
        "modified 2 1 3 2 canonical=2",
        "standard 2 2 8 16 canonical=4, semi-canonical=12",
        "modified 2 2 5 2 canonical=2",
        "standard 2 3 12 16 canonical=4, semi-canonical=12",
        "modified 2 3 7 2 canonical=2",
        "standard 3 1 5 15 canonical=12, semi-canonical=3",
        "modified 3 1 3 3 canonical=3",
        "standard 3 2 12 108 canonical=12, semi-canonical=96",
        "modified 3 2 5 3 canonical=3",
    ]


def test_extremal_census_script_refuses_a_ball_whose_masks_exceed_the_budget(tmp_path):
    proc = run_script("extremal_census.py", "--budget", "4095", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # an answered row ends in its wall time, a refused row in the budget
    rows = [" ".join(line.split()) for line in proc.stdout.splitlines()[1:]]
    rows = [row if "refused" in row else row.rsplit(" ", 1)[0] for row in rows]
    # (2,2) has 13 sites, (2,3) and (3,2) 25: each refuses its 2^(|B_t|-1) masks
    refused = "refused: enumeration needs ~{} subset tests, budget is 4095".format
    assert rows == [
        "standard 2 1 4 4 canonical=4",
        "modified 2 1 3 2 canonical=2",
        f"standard 2 2 {refused(4096)}",
        f"modified 2 2 {refused(4096)}",
        f"standard 2 3 {refused(16777216)}",
        f"modified 2 3 {refused(16777216)}",
        "standard 3 1 5 15 canonical=12, semi-canonical=3",
        "modified 3 1 3 3 canonical=3",
        f"standard 3 2 {refused(16777216)}",
        f"modified 3 2 {refused(16777216)}",
    ]
