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
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    modified = [row for row in rows if row[0] == "modified"]
    assert len(modified) == 5
    for row in modified:
        d = int(row[1])
        assert row[4] == str(d) and row[5] == f"canonical={d}", row
