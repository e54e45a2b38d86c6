"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402

assert worker.import_package() is None


def test_self_time_subtracts_union_of_nested_and_threaded_children():
    main, pool = 1, 2
    tree = [
        Span(0, None, "root", main, 0.0, 10.0),
        Span(1, 0, "a", main, 1.0, 4.0),
        Span(2, 1, "a.inner", main, 2.0, 3.0),
        Span(3, 0, "b", pool, 3.0, 6.0),  # overlaps a on another thread
        Span(4, 0, "c", pool, 9.0, 12.0),  # runs past its parent's end
    ]
    got = self_times(tree)
    assert got[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(3.0)


def test_pool_thread_spans_take_the_waiting_main_span_as_parent():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda i: threading.get_ident())

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, range(8)))

    outer = tracer.wrap("outer", fan_out)
    idents = outer()
    assert threading.get_ident() not in idents
    (root,) = [s for s in tracer.spans if s.name == "outer"]
    children = [s for s in tracer.spans if s.name == "inner"]
    assert len(children) == 8 and all(s.parent == root.id for s in children)
    assert 0.0 <= self_times(tracer.spans)[root.id] <= root.end - root.start


def _package_bindings():
    import importlib

    mods = [importlib.import_module(f"torusboot.{m}") for m in spans.PACKAGE_MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_wrappers_are_restored_after_a_run_and_after_an_error():
    from torusboot import extremal

    before = _package_bindings()
    tracer = Tracer()
    try:
        tracer.install()
        assert extremal.exact_rho1 is not before[("torusboot.extremal", "exact_rho1")]
        assert list(extremal.exact_rho1(2, 1).counts) == [0, 0, 0, 0, 4, 1]
    finally:
        tracer.restore()
    after = _package_bindings()
    assert after.keys() == before.keys() and all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"extremal.sweep", "dynamics.ball_kernel", "dynamics.neighbor_matrix"} <= names

    tracer = Tracer()
    with pytest.raises(extremal.WorkBudgetExceeded):
        try:
            tracer.install()
            extremal.exact_rho1(2, 1, budget=1)
        finally:
            tracer.restore()
    after = _package_bindings()
    assert all(after[k] is before[k] for k in before)


def test_missing_or_uncalled_expected_function_is_absent_not_zero():
    tracer = Tracer()
    tracer.install(spans.TARGETS + (("torusboot.dynamics", "no_such_kernel", "dynamics.gone", None),))
    tracer.restore()
    assert tracer.absent == {"torusboot.dynamics.no_such_kernel": "dynamics.gone"}
    one = [Span(0, None, "dynamics.torus_step", 1, 1.0, 2.0)]
    metrics, missing = layer_metrics(one, 0.5, trials=1, expected={"dynamics.torus_step", "cli.experiment"},
                                     absent_spans={"dynamics.torus_step"})
    assert "dynamics.torus_step.calls" in missing and "dynamics.torus_step.calls" not in metrics
    assert "cli.experiment.self_s" in missing
    # a layer this workload does not exercise reads zero
    assert metrics["dynamics.ball_kernel.calls"] == 0


def test_accept_ratio_counts_protected_rows_of_every_evaluated_batch():
    import numpy as np

    from torusboot import extremal
    from torusboot.dynamics import Standard

    tracer = Tracer()
    try:
        tracer.install()
        extremal.sample_protected_configs(2, 2, Standard(2), 3, np.random.default_rng(5), q=0.5)
    finally:
        tracer.restore()
    kern = [s for s in tracer.spans if s.name == "dynamics.ball_kernel"]
    # redraw the same batches and count the protected rows directly
    rng, n_sites = np.random.default_rng(5), len(extremal.enumerate_ball(2, 2).sites)
    protected = rows = 0
    for s in kern:
        batch = rng.random((s.info["rows"], n_sites)) < 0.5
        protected += int(extremal._batch_protects_origin(batch, 2, 2, Standard(2)).sum())
        rows += s.info["rows"]
    metrics, _ = layer_metrics(tracer.spans, 0.0, trials=0, expected=set(), absent_spans=set())
    assert rows == 64 * len(kern) and protected >= 3
    assert metrics["extremal.sample_protected_configs.accept_ratio"] == pytest.approx(protected / rows)


def _csv(counts: dict[int, int]) -> bytes:
    return ("outcome,count\n" + "".join(f"{k},{v}\n" for k, v in counts.items())).encode()


def test_corrupted_histogram_is_a_failure():
    files = {"T_hist.csv": _csv({2: 3, 3: 7}), "report.json": b"{}\n"}
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert worker.check_regime(0, dict(files), files, 10, digests) == []
    assert worker.check_regime(2, dict(files), files, 10, digests) == ["exit code 2"]
    corrupt = dict(files, **{"T_hist.csv": _csv({2: 4, 3: 7})})
    problems = worker.check_regime(0, corrupt, files, 10, digests)
    assert any("holds 11 trials" in p for p in problems)
    assert any("differs from the 1-thread run" in p for p in problems)
    assert any("differs from the reference" in p for p in problems)


def test_corrupted_counts_are_failures():
    from torusboot import extremal
    from torusboot.dynamics import Standard
    from torusboot.verify import CriterionReport

    result = extremal.count_min_certificates(2, 1, Standard(2))
    assert worker.check_min_certificates(result, 4, 4) == []
    assert worker.check_min_certificates((5, result[1]), 4, 4)
    assert worker.check_min_certificates(result, 4, 4, classify=lambda c: "other")
    assert worker.check_counts([0, 16], [0, 16]) == [] and worker.check_counts([0, 15], [0, 16])
    report = CriterionReport("lemma", True, [
        "ok: d=2 t=2: 0 lemma violations in 10 checks", "ok: d=2 t=2: 0 layer-bound failures"])
    assert worker.check_lemma(report, {"2,2": 10}) == []
    assert worker.check_lemma(report, {"2,2": 11})
    report.details[0] = "BAD: d=2 t=2: 1 lemma violations in 10 checks"
    assert worker.check_lemma(report, {"2,2": 10})


def test_a_failed_check_makes_failed_ratio_positive(monkeypatch, capsys, tmp_path):
    def fake_spawn(args, tmp, deadline, *, traced=False, setup_only=False, spans_out=None):
        files = {"T_hist.csv": _csv({2: 9})}
        problems = worker.check_regime(0, files, files, 10, {"T_hist.csv": ""})
        return {"setup_s": 0.1, "wall_s": 1.0, "peak_rss_mb": 10.0, "numpy": "x", "threads": [1],
                "input_seed": 7, "outputs_sha256": "0" * 64,
                "ops": [{"name": "good", "seconds": 0.5, "problems": []},
                        {"name": "bad", "seconds": 0.5, "problems": problems}]}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "TMP_DIR", tmp_path / "tmp")
    assert run.main(["--workload", "regime", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["attempted"] == 2 and result["failed"] == 1
    assert "failed_ratio=0.5000 (1/2)" in out


def test_exits_nonzero_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
