"""The names the benchmark in perfbench/ calls or traces still exist.

The tracer wraps the functions listed in perfbench/spans.py by name; a
function that is gone shows only as an `absent:` metric in a traced
benchmark run.  These tests read that list and the worker's set-up calls,
and fail as soon as a name they use is deleted or changes shape.
"""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from torusboot import cli, dynamics, extremal, lattice, montecarlo, verify
from torusboot.dynamics import Modified, Standard
from torusboot.lattice import enumerate_ball

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans_contract", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.TARGETS


def span_measure(attr):
    """The measure the tracer applies to the result of the function named attr."""
    return {target[1]: target[3] for target in load_targets()}[attr]


@pytest.mark.parametrize("module,attr", [target[:2] for target in load_targets()])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize(
    "d,t,rule",
    [(4, 2, Modified()), (2, 2, Standard(2))] + [(d, t, Standard(d)) for d, t in verify.KEY_LEMMA_CELLS],
)
def test_worker_setup_call_runs(d, t, rule):
    # the oracle and lemma set-up warm the caches with this exact call
    assert dynamics.is_origin_protected(dynamics.ball_state(d, t, frozenset()), rule) is False


def test_batch_protects_origin_takes_a_batch():
    uninf = np.ones((5, len(enumerate_ball(2, 2))), dtype=bool)
    uninf[1:, 0] = False  # the origin, site 0, starts infected in rows 1..4
    assert extremal._batch_protects_origin(uninf, 2, 2, Standard(2)).tolist() == [True] + [False] * 4


def test_span_measures_read_the_real_results():
    # the tracer reads its counts off each traced call's result; a changed
    # return type fails here, not only in a traced benchmark run
    configs = extremal.sample_protected_configs(2, 2, Standard(2), 5, np.random.default_rng(3))
    assert span_measure("sample_protected_configs")((), {}, configs) == {"accepted": 5}
    cfg = montecarlo.ExperimentConfig(d=2, n=8, rule=Standard(3), q=0.3, t_horizon=1, trials=40, master_seed=7)
    dist_t, dist_f = montecarlo.run_trials_T(cfg), montecarlo.run_trials_F(cfg, 1)
    assert dist_t.stuck_count > 0  # threshold 3 on Z^2 leaves some grids stuck
    for name, dist in (("run_trials_T", dist_t), ("run_trials_F", dist_f)):
        assert span_measure(name)((cfg,), {}, dist) == {"stuck": dist.trials - sum(dist.histogram.values())}


def test_regime_setup_calls_run():
    # the regime set-up writes these four values into its experiment configs
    for q in (verify.poisson_regime_q(512), verify.modified_regime_q(512)):
        assert isinstance(q, float) and 0.0 < q < 1.0
    for lam in (verify.lambda_exact_standard(512), verify.lambda_exact_modified(512)):
        assert isinstance(lam, float) and 1.0 < lam < 3.0


def spy_on(monkeypatch, calls, targets, edges=None):
    """Count calls to each (module, name) in `calls`, as the tracer's wrappers
    would see them; with `edges`, also append (open, name, args, kwargs) for
    each call, open being the names of the spied calls it runs inside."""
    stack = []
    for module, name in targets:
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            if edges is not None:
                edges.append((tuple(stack), _name, args, kwargs))
            stack.append(_name)
            try:
                return _real(*args, **kwargs)
            finally:
                stack.pop()

        monkeypatch.setattr(module, name, spy)


def test_key_lemma_calls_its_traced_functions(monkeypatch):
    # the lemma workload's spans come from these calls; a rewrite that
    # stops making one of them shows only as `absent:` in a traced run
    calls, edges = Counter(), []
    spy_on(monkeypatch, calls, [(dynamics, "protected_set"), (extremal, "sample_protected_configs"),
                                (extremal, "check_layer_bounds"), (dynamics, "evolve_finite_batch")], edges)
    assert verify.criterion_key_lemma(total=60).passed
    assert set(calls) == {"protected_set", "sample_protected_configs", "check_layer_bounds", "evolve_finite_batch"}
    # the layer bounds take each cell's whole batch at once, not one row per call
    assert calls["check_layer_bounds"] == len(verify.KEY_LEMMA_CELLS)
    # the sampler's protection test is one t-step kernel call on B_t, straight
    # under the sampler: the tracer reads its accept_ratio off those calls
    cells = set()
    for open_calls, name, args, kwargs in edges:
        if name == "evolve_finite_batch" and open_calls[-1] == "sample_protected_configs":
            nbr, t = args[1], kwargs["steps"]
            assert nbr.shape[0] == lattice.ball_size(nbr.shape[1] // 2, t)
            cells.add((nbr.shape[1] // 2, t))
    assert cells == set(verify.KEY_LEMMA_CELLS)


def test_oracle_calls_its_traced_functions(monkeypatch):
    # the oracle workload's questions, each certificate of the standard (2,2)
    # question classified; its only route into the ball kernel's span is
    # classify -> protected_set -> evolve_finite_batch, t = 2 one-step calls
    calls, edges = Counter(), []
    spy_on(monkeypatch, calls, [(dynamics, "evolve_finite_batch"), (dynamics, "protected_set"),
                                (extremal, "classify"), (extremal, "min_protecting_size"),
                                (extremal, "count_min_certificates"), (extremal, "exact_rho1"),
                                (extremal, "exact_joint")], edges)
    assert extremal.count_min_certificates(4, 2, Modified())[0] == 4
    assert extremal.exact_joint(2, 2, (2, 1)).min_size > 0
    _, certs = extremal.count_min_certificates(2, 2, Standard(2))
    assert all(extremal.classification_tag(extremal.classify(c)) != "other" for c in certs)
    assert extremal.exact_rho1(2, 2).counts[8] == 16
    # the oracle asks no min_protecting_size question
    assert calls == {"count_min_certificates": 2, "exact_joint": 1, "exact_rho1": 1, "classify": 16,
                     "protected_set": 16, "evolve_finite_batch": 32}
    kernel_calls = [open_calls for open_calls, name, _, _ in edges if name == "evolve_finite_batch"]
    assert all(open_calls == ("classify", "protected_set") for open_calls in kernel_calls)


def test_oracle_tags_are_the_three_strings():
    # perfbench's oracle counts the certificates whose tag == "other", so a
    # tag that is not one of these strings would pass that check unseen
    tags = {"canonical", "semi-canonical", "other"}
    for d, t, rule in [(2, 2, Standard(2)), (3, 2, Standard(3)), (2, 2, Modified())]:
        for cert in extremal.count_min_certificates(d, t, rule)[1]:
            tag = extremal.classification_tag(extremal.classify(cert))
            assert type(tag) is str and tag in tags, (d, t, rule, tag)
    lone_origin = extremal.Certificate(d=2, t=2, rule=Standard(2), uninfected=frozenset({(0, 0)}))
    assert extremal.classification_tag(extremal.classify(lone_origin)) == "other"


def experiment(monkeypatch, tmp_path, measure, trials):
    monkeypatch.setenv("TORUSBOOT_THREADS", "2")
    doc = {"schema": 1, "d": 2, "n": 32, "rule": "modified", "q": 0.3, "t_horizon": 1, "trials": trials,
           "master_seed": 8, "measure": measure, "t_measure": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["experiment", str(path), "--out", str(tmp_path / "out")]) == 0


def test_T_experiment_calls_the_regime_trace_names(monkeypatch, tmp_path):
    # the regime's modified config measures T alone; its trace reads these spans
    calls = Counter()
    # `cli.experiment` is the tracer's patch of the module attribute, so the
    # dispatch must look cmd_experiment up when main runs, not at import
    spy_on(monkeypatch, calls, [(montecarlo, "run_trials_T"), (montecarlo, "sample_initial_grid"),
                                (dynamics, "torus_step_grid"), (cli, "cmd_experiment")])
    experiment(monkeypatch, tmp_path, ["T"], trials=20)
    assert calls["cmd_experiment"] == 1
    assert calls["run_trials_T"] == 1
    assert calls["sample_initial_grid"] == 20
    assert calls["torus_step_grid"] >= 20


def test_T_and_F_experiment_samples_each_grid_once(monkeypatch, tmp_path):
    calls = Counter()
    spy_on(monkeypatch, calls, [(montecarlo, "sample_initial_grid"), (montecarlo, "run_trials_T"),
                                (montecarlo, "run_trials_F")])
    experiment(monkeypatch, tmp_path, ["T", "F"], trials=20)
    assert calls == {"sample_initial_grid": 20}
