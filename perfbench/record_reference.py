"""Record the answers the benchmark checks against, into reference.json.

    python3 perfbench/record_reference.py

Run from the root of a checkout, at a commit whose answers are trusted:
the exhaustive oracle counts, the regime output digests for every entry
of worker.INPUT_SEEDS, and the key-lemma check counts for the same seeds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import worker


def main() -> int:
    error = worker.import_package()
    if error:
        print(error, file=sys.stderr)
        return 2
    from torusboot import extremal, verify

    reference = {
        "oracle": {
            "exact_joint(2,2,(2,1))": list(extremal.exact_joint(2, 2, (2, 1)).counts),
            "exact_rho1(2,2)": list(extremal.exact_rho1(2, 2).counts),
        },
        "regime": {},
        "lemma": {},
    }
    scratch = worker.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for i, seed in enumerate(worker.INPUT_SEEDS):
            regime = worker.Regime(i, tmp, {"regime": {}})
            regime.setup()
            ops: list[worker.Op] = []
            reference["regime"][str(seed)] = regime.run(ops)
            bad = [p for op in ops for p in op.problems if not p.startswith("no reference digests")]
            if bad:
                print(f"seed {seed}: regime outputs disagree: {bad}", file=sys.stderr)
                return 1
            report = verify.criterion_key_lemma(total=worker.LEMMA_TOTAL, seed=seed)
            checks, bad = worker.lemma_counts(report)
            if bad or not report.passed:
                print(f"seed {seed}: key lemma failed: {bad}", file=sys.stderr)
                return 1
            reference["lemma"][str(seed)] = checks
            print(f"seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    worker.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
