"""torusboot benchmark: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload oracle|regime|lemma --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass runs in a fresh worker process
(perfbench/worker.py), one at a time: a closed loop with one client. Passes
start until the next one would end after --seconds; at least one runs, and
with --trace 1 at least one untraced and one traced pass run, alternating.
Metrics are medians over passes. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}, with the end_to_end metrics of
BENCHMARK.json for --trace 0 and its per_layer metrics for --trace 1.
Per-run records go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
WORKLOADS = ("oracle", "regime", "lemma")
SETUP_SAMPLES = 9
# One run must end within 180 s; a worker still running at this point is killed.
RUN_LIMIT_S = 170.0


class WorkerError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def spawn(args, tmp: Path, deadline: float, *, traced: bool = False, setup_only: bool = False,
          spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    # numpy's BLAS pools are idle here; pin them so the only threads beyond
    # the main one are those the regime workload asks the package for.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("TORUSBOOT_THREADS", None)
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise WorkerError("run time limit reached")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker killed after {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, tmp: Path, deadline: float) -> list[dict]:
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans_out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-pass{len(passes)}.json" if traced else None
        t = time.perf_counter()
        result = spawn(args, tmp, deadline, traced=traced, spans_out=spans_out)
        result["traced"] = traced
        result["process_s"] = time.perf_counter() - t
        passes.append(result)
        elapsed = time.perf_counter() - start
        next_s = statistics.median(p["process_s"] for p in passes)
        if (not args.trace or len(passes) >= 2) and elapsed + next_s > args.seconds:
            return passes


def layer_values(passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Median over traced passes of each per-layer metric, plus the
    end-to-end rates and tracing overhead taken from the untraced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    names = set().union(*(p["layers"] for p in traced))
    values = {n: statistics.median(p["layers"][n] for p in traced)
              for n in names if all(n in p["layers"] for p in traced)}
    absent = sorted(set().union(*(p["absent"] for p in traced)) | (names - set(values)))
    for name in ("trials_per_s.t1", "trials_per_s.t2"):
        values[name] = statistics.median(p.get("extra", {}).get(name, 0.0) for p in plain)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    return values, absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "torusboot" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'torusboot'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        passes = run_passes(args, tmp, deadline)
        plain = [p for p in passes if not p["traced"]]
        setups = [p["setup_s"] for p in plain]
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args, tmp, deadline, setup_only=True)["setup_s"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # every pass of a run has the same inputs, traced or not, so the same outputs
    for p in passes[1:]:
        if p["outputs_sha256"] != passes[0]["outputs_sha256"]:
            for op in p["ops"]:
                op["problems"].append("outputs differ from those of the first pass")
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    if args.trace:
        values, absent = layer_values(passes)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        absent = []
    env = {
        "workload": args.workload, "seed": args.seed, "input_seed": passes[0]["input_seed"],
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc(),
        "python": platform.python_version(), "numpy": passes[0]["numpy"], "threads": passes[0]["threads"],
        "git_commit": git_commit(),
    }
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units if n in values}
    absent += [n for n in units if n not in values and n not in absent]
    record = {"env": env, "passes": passes, "setup_samples": setups, "metrics": metrics, "absent": absent}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "plain"
        print(f"pass {i} {kind}: setup_s={p['setup_s']:.4f} wall_s={p['wall_s']:.4f} "
              f"peak_rss_mb={p['peak_rss_mb']:.1f} ops={len(p['ops'])} outputs={p['outputs_sha256'][:16]}")
        for op in p["ops"]:
            for problem in op["problems"]:
                print(f"  FAILED {op['name']}: {problem}")
    for name in sorted(plain[0].get("extra", {})):
        print(f"{name}={statistics.median(p['extra'][name] for p in plain):.2f}")
    if absent:
        print("absent: " + ", ".join(absent))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"failed_ratio={len(failed) / len(ops):.4f} ({len(failed)}/{len(ops)})")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
