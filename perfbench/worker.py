"""One benchmark pass in a fresh process: set up, run one workload, check it.

    python3 perfbench/worker.py --workload oracle --seed 0 --trace 0 --tmp DIR

Prints one JSON line with the pass's timings, the operations it ran and
whether each answer was right. run.py starts one of these per pass, so no
pass is served from a cache an earlier pass filled. With --setup-only the
worker stops after set-up. The package is imported from ``src/`` of the
checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Inputs of the regime and lemma workloads come from this table, indexed by
# the benchmark seed, because their answers are checked against digests
# recorded for each entry. 7 is the package's default seed (verify.MASTER_SEED);
# no test pins the outputs of the others, so a defect that spares the
# default seed still shows.
INPUT_SEEDS = (7, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009)

REGIME_N = 512
REGIME_TRIALS = 600
LEMMA_TOTAL = 1200


def input_seed(seed: int) -> int:
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One call into the package, its time and what its check found."""

    name: str
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)


def run_op(ops: list[Op], name: str, call):
    """Time `call`; an exception is a failed operation, not a crash."""
    op = Op(name)
    ops.append(op)
    start = time.perf_counter()
    try:
        result = call()
    except Exception:
        op.problems.append("raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        result = None
    op.seconds = time.perf_counter() - start
    return op, result


def add_problems(op: Op, check, *args) -> None:
    """Run an output check; a check that raises marks a failed operation."""
    try:
        op.problems += check(*args)
    except Exception:
        op.problems.append("output check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# oracle: exhaustive extremal questions, no RNG and no torus stepping


def check_min_certificates(result, size: int, count: int, classify=None) -> list[str]:
    n, certs = result
    problems = []
    if n != count or len(certs) != count:
        problems.append(f"{n} certificates, expected {count}")
    sizes = sorted({c.size for c in certs})
    if sizes != [size]:
        problems.append(f"certificate sizes {sizes}, expected [{size}]")
    if classify is not None:
        other = sum(1 for c in certs if classify(c) == "other")
        if other:
            problems.append(f"{other} certificates classified Other, expected 0")
    return problems


def check_counts(counts, want) -> list[str]:
    return [] if list(counts) == list(want) else [f"counts {list(counts)}, expected {list(want)}"]


class Oracle:
    """One pass of the exhaustive extremal questions, in a seed-shuffled order.

    Expected sizes are the closed forms 2t+1 = 5 (modified, t=2) and
    m(2,2) = 8 (standard, d=2); counts are d = 4 and 16.
    """

    expected_spans = {"dynamics.ball_kernel", "dynamics.protected_set", "extremal.sweep",
                      "extremal.classify", "lattice.enumerate_ball", "dynamics.neighbor_matrix"}
    threads = (1,)
    trials = 0
    input_seed = None  # the inputs are fixed; the seed only orders the questions

    def __init__(self, seed: int, tmp: Path, reference: dict):
        self.seed = seed
        self.reference = reference["oracle"]

    def setup(self) -> None:
        from torusboot import dynamics, extremal, lattice

        self.extremal = extremal
        self.Modified, self.Standard = dynamics.Modified, dynamics.Standard
        for d, t, rule in ((4, 2, dynamics.Modified()), (2, 2, dynamics.Standard(2))):
            lattice.enumerate_ball(d, t)
            dynamics.is_origin_protected(dynamics.ball_state(d, t, frozenset()), rule)

    def run(self, ops: list[Op]) -> dict:
        ex = self.extremal
        tag = lambda c: ex.classification_tag(ex.classify(c))  # noqa: E731
        questions = [
            ("count_min_certificates(4,2,modified)",
             lambda: ex.count_min_certificates(4, 2, self.Modified()),
             lambda r: check_min_certificates(r, 5, 4),
             lambda r: sorted(sorted(c.uninfected) for c in r[1])),
            ("exact_joint(2,2,(2,1))",
             lambda: ex.exact_joint(2, 2, (2, 1)),
             lambda r: check_counts(r.counts, self.reference["exact_joint(2,2,(2,1))"]),
             lambda r: list(r.counts)),
            ("count_min_certificates(2,2,standard)",
             lambda: self._classified(ex.count_min_certificates(2, 2, self.Standard(2)), tag),
             lambda r: check_min_certificates(r[0], 8, 16, dict(r[1]).get),
             lambda r: sorted([sorted(c.uninfected), cls] for c, cls in r[1])),
            ("exact_rho1(2,2)",
             lambda: ex.exact_rho1(2, 2),
             lambda r: (check_counts(r.counts[:9], [0] * 8 + [16])
                        + check_counts(r.counts, self.reference["exact_rho1(2,2)"])),
             lambda r: list(r.counts)),
        ]
        random.Random(self.seed).shuffle(questions)
        outputs = {}
        for name, call, check, output in questions:
            op, result = run_op(ops, name, call)
            if result is not None:
                def check_and_keep(r):
                    outputs[name] = output(r)
                    return check(r)

                add_problems(op, check_and_keep, result)
        return outputs

    @staticmethod
    def _classified(result, tag):
        """Certificates with their classification, so classify is timed."""
        return result, [(c, tag(c)) for c in result[1]]


# ---------------------------------------------------------------------------
# regime: the lambda = 2 Poisson experiment through the CLI


def check_histogram(csv: bytes, trials: int) -> list[str]:
    lines = csv.decode().splitlines()
    if not lines or lines[0] != "outcome,count":
        return ["histogram header missing"]
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    return [] if total == trials else [f"histogram holds {total} trials, expected {trials}"]


def read_outputs(out: Path) -> dict[str, bytes]:
    """The byte-compared outputs of one experiment call (not the manifest,
    which holds timestamps)."""
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def check_regime(code: int, files: dict[str, bytes], base: dict[str, bytes], trials: int,
                 digests: dict | None) -> list[str]:
    """One experiment call: exit code 0, histograms sum to the trials asked,
    and every file equals the 1-thread run's (`base`) and the reference."""
    problems = [] if code == 0 else [f"exit code {code}"]
    for name, data in sorted(files.items()):
        if name.endswith(".csv"):
            problems += [f"{name}: {p}" for p in check_histogram(data, trials)]
        if data != base.get(name):
            problems.append(f"{name} differs from the 1-thread run")
        if digests is not None and sha256(data) != digests.get(name):
            problems.append(f"{name} differs from the reference")
    if digests is None:
        problems.append("no reference digests for this master seed")
    elif set(files) != set(digests):
        problems.append(f"outputs {sorted(files)}, expected {sorted(digests)}")
    return problems


class Regime:
    """Standard (T and F, t=2) and modified (T, t=1) experiments at n=512 in
    the lambda = 2 regime, each at 1 and then 2 threads."""

    expected_spans = {"dynamics.torus_step", "montecarlo.sample_initial_grid", "montecarlo.run_trials",
                      "cli.experiment", "lattice.enumerate_ball", "dynamics.neighbor_matrix"}

    def __init__(self, seed: int, tmp: Path, reference: dict):
        self.input_seed = input_seed(seed)
        self.tmp = tmp
        self.reference = reference["regime"].get(str(self.input_seed))
        # never more pool threads than cores
        self.threads = (1, 2) if len(os.sched_getaffinity(0)) >= 2 else (1,)
        self.trials = REGIME_TRIALS * 2 * len(self.threads)  # both configs at every thread count

    def setup(self) -> None:
        from torusboot import cli, verify

        self.cli = cli
        self.configs = {
            "standard": {
                "schema": 1, "d": 2, "n": REGIME_N, "rule": "standard", "q": verify.poisson_regime_q(REGIME_N),
                "t_horizon": 2, "trials": REGIME_TRIALS, "master_seed": self.input_seed,
                "measure": ["T", "F"], "t_measure": 2, "lambda": verify.lambda_exact_standard(REGIME_N),
            },
            "modified": {
                "schema": 1, "d": 2, "n": REGIME_N, "rule": "modified", "q": verify.modified_regime_q(REGIME_N),
                "t_horizon": 1, "trials": REGIME_TRIALS, "master_seed": self.input_seed + 1,
                "measure": ["T"], "t_measure": 1, "lambda": verify.lambda_exact_modified(REGIME_N),
            },
        }
        for name, doc in self.configs.items():
            (self.tmp / f"{name}.json").write_text(json.dumps(doc))

    def run(self, ops: list[Op]) -> dict:
        outputs = {}
        self.seconds_by_threads = {t: 0.0 for t in self.threads}
        for name, doc in self.configs.items():
            base = None
            for threads in self.threads:
                out = self.tmp / f"{name}-{threads}"
                # threads come from the environment, not the config, so that
                # report.json (which echoes the config) is thread-independent
                os.environ["TORUSBOOT_THREADS"] = str(threads)
                argv = ["experiment", str(self.tmp / f"{name}.json"), "--out", str(out)]
                op, code = run_op(ops, f"experiment {name} threads={threads}", lambda: self.cli.main(argv))
                self.seconds_by_threads[threads] += op.seconds
                if code is None:
                    continue
                files = read_outputs(out)
                if base is None:
                    base = files
                    outputs[name] = {n: sha256(b) for n, b in files.items()}
                digests = None if self.reference is None else self.reference[name]
                add_problems(op, check_regime, code, files, base, doc["trials"], digests)
        return outputs

    def extra(self) -> dict:
        per_config = REGIME_TRIALS * len(self.configs)
        return {f"trials_per_s.t{i + 1}": per_config / self.seconds_by_threads[t]
                for i, t in enumerate(self.threads)}


# ---------------------------------------------------------------------------
# lemma: the key-lemma property suite, thousands of single-state kernel calls

_CHECKS = re.compile(r"d=(\d+) t=(\d+): (\d+) lemma violations in (\d+) checks")
_LAYERS = re.compile(r"d=(\d+) t=(\d+): (\d+) layer-bound failures")


def lemma_counts(report) -> tuple[dict[str, int], list[str]]:
    """Checks per "d,t" cell, and every line reporting a violation or a
    layer-bound failure, from a key-lemma criterion report."""
    checks: dict[str, int] = {}
    layers: dict[str, int] = {}
    bad = []
    for line in report.details:
        if m := _CHECKS.search(line):
            checks[f"{m[1]},{m[2]}"] = int(m[4])
        elif m := _LAYERS.search(line):
            layers[f"{m[1]},{m[2]}"] = int(m[3])
        else:
            continue
        if int(m[3]):
            bad.append(line)
    if not checks or set(layers) != set(checks):
        bad.append(f"cells with checks {sorted(checks)}, with layer counts {sorted(layers)}")
    return checks, bad


def check_lemma(report, want_checks: dict[str, int] | None) -> list[str]:
    """Zero violations and layer failures, check counts equal the reference."""
    checks, problems = lemma_counts(report)
    if not report.passed:
        problems.append("criterion reported a failure")
    if want_checks is None:
        problems.append("no reference check counts for this seed")
    elif checks != want_checks:
        problems.append(f"check counts {checks}, expected {want_checks}")
    return problems


class Lemma:
    """verify.criterion_key_lemma over all six (d, t) cells."""

    expected_spans = {"dynamics.ball_kernel", "dynamics.protected_set", "extremal.sample_protected_configs",
                      "extremal.check_layer_bounds", "verify.key_lemma", "lattice.enumerate_ball",
                      "dynamics.neighbor_matrix"}
    threads = (1,)
    trials = 0

    def __init__(self, seed: int, tmp: Path, reference: dict):
        self.input_seed = input_seed(seed)
        self.reference = reference["lemma"].get(str(self.input_seed))

    def setup(self) -> None:
        from torusboot import dynamics, lattice, verify

        self.verify = verify
        for d, t in verify.KEY_LEMMA_CELLS:
            lattice.enumerate_ball(d, t)
            dynamics.is_origin_protected(dynamics.ball_state(d, t, frozenset()), dynamics.Standard(d))

    def run(self, ops: list[Op]) -> dict:
        op, report = run_op(ops, "criterion_key_lemma",
                            lambda: self.verify.criterion_key_lemma(total=LEMMA_TOTAL, seed=self.input_seed))
        if report is None:
            return {}
        add_problems(op, check_lemma, report, self.reference)
        return {"checks": lemma_counts(report)[0]}


WORKLOADS = {"oracle": Oracle, "regime": Regime, "lemma": Lemma}


# ---------------------------------------------------------------------------


def import_package() -> str | None:
    """Import torusboot from this checkout's src/; the error, if any."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import torusboot
    except ImportError as exc:
        return f"cannot import torusboot from {src}: {exc}"
    if Path(torusboot.__file__).resolve().parent != src / "torusboot":
        return f"torusboot imported from {torusboot.__file__}, not from {src}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory for this pass")
    parser.add_argument("--spans-out", help="where a traced pass writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    error = import_package()
    if error:
        print(error, file=sys.stderr)
        return 2
    import numpy
    from spans import Tracer, layer_metrics

    reference = json.loads(REFERENCE_PATH.read_text())
    tmp = Path(tempfile.mkdtemp(dir=args.tmp))
    workload = WORKLOADS[args.workload](args.seed, tmp, reference)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload.setup()
        setup_end = time.perf_counter()
        result = {
            "setup_s": setup_end - t0,
            "numpy": numpy.__version__,
            "threads": list(workload.threads),
            "input_seed": workload.input_seed,
        }
        if not args.setup_only:
            ops: list[Op] = []
            outputs = workload.run(ops)
            result["wall_s"] = time.perf_counter() - setup_end
            result["ops"] = [{"name": o.name, "seconds": o.seconds, "problems": o.problems} for o in ops]
            result["outputs_sha256"] = sha256(json.dumps(outputs, sort_keys=True).encode())
            if hasattr(workload, "extra"):
                result["extra"] = workload.extra()
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(tmp, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer and not args.setup_only:
        metrics, missing = layer_metrics(
            tracer.spans, setup_end, workload.trials, workload.expected_spans, set(tracer.absent.values())
        )
        result["layers"] = metrics
        result["absent"] = sorted(missing)
        if args.spans_out:
            spans = [{"id": s.id, "parent": s.parent, "name": s.name, "thread": s.thread,
                      "start": s.start - T_START, "end": s.end - T_START, **s.info} for s in tracer.spans]
            Path(args.spans_out).write_text(json.dumps({"setup_end": setup_end - T_START, "spans": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
