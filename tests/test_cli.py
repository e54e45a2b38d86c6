import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from torusboot import cli, extremal, montecarlo


def run(argv):
    return cli.main(argv)


def test_formulas_m(capsys):
    assert run(["formulas", "m", "--d", "2", "--t", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 8
    assert doc["quantity"] == "m"


def test_formulas_leading_order_label(capsys):
    assert run(["formulas", "p-alpha", "--d", "2", "--n", "1000", "--t", "2",
                "--alpha", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "leading-order"
    assert doc["value"] == pytest.approx(0.8799, abs=1e-4)


@pytest.mark.parametrize("t,want", [(0, 10.0), (1, 0.04)])
def test_formulas_lambda_leading_at_t_le_1(capsys, t, want):
    # t = 0: E[F_0] = n^d q; t = 1: 4 minimal sets of 4 sites (origin and 3 neighbours)
    assert run(["formulas", "lambda-leading", "--d", "2", "--t", str(t), "--n", "10", "--q", "0.1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(want)


def test_formulas_missing_param_is_usage_error(capsys):
    assert run(["formulas", "m", "--d", "2"]) == 2


def test_formulas_unknown_quantity_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["formulas", "bogus", "--d", "2", "--t", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,stdout", [
    ("ell --d 3 --t 2", '{"params": {"d": 3, "t": 2}, "quantity": "ell", "value": 7}'),
    ("m --d 3 --t 2", '{"params": {"d": 3, "t": 2}, "quantity": "m", "value": 12}'),
    ("m-general --d 3 --t 2 --r 2", '{"params": {"d": 3, "r": 2, "t": 2}, "quantity": "m-general", "value": 18}'),
    ("lambda-leading --d 2 --t 2 --n 512 --q 0.1",
     '{"label": "leading-order", "params": {"d": 2, "n": 512, "q": 0.1, "rule": "standard", "t": 2}, '
     '"quantity": "lambda-leading", "value": 0.04194304000000002}'),
    ("lambda-leading --d 2 --t 1 --n 10 --q 0.1 --rule modified",
     '{"label": "leading-order", "params": {"d": 2, "n": 10, "q": 0.1, "rule": "modified", "t": 1}, '
     '"quantity": "lambda-leading", "value": 0.20000000000000004}'),
    ("lambda-leading --d 3 --t 2 --n 64 --q 0.25 --r 3",
     '{"label": "leading-order", "params": {"d": 3, "n": 64, "q": 0.25, "rule": "standard", "t": 2}, '
     '"quantity": "lambda-leading", "value": 1.6875}'),
    ("p-alpha --d 2 --t 2 --n 1000 --alpha 0.5",
     '{"label": "leading-order", "params": {"alpha": 0.5, "d": 2, "n": 1000, "rule": "standard", "t": 2}, '
     '"quantity": "p-alpha", "value": 0.879887505971929}'),
    ("p-alpha --d 3 --t 1 --n 100 --alpha 0.1 --rule modified",
     '{"label": "leading-order", "params": {"alpha": 0.1, "d": 3, "n": 100, "rule": "modified", "t": 1}, '
     '"quantity": "p-alpha", "value": 0.9908441610547873}'),
    # d = 1: one minimal set of 5 sites at t = 2, so p = 1 - (ln 10 / 100)^(1/5)
    ("p-alpha --d 1 --t 2 --n 100 --alpha 0.1",
     '{"label": "leading-order", "params": {"alpha": 0.1, "d": 1, "n": 100, "rule": "standard", "t": 2}, '
     '"quantity": "p-alpha", "value": 0.5296261844401495}'),
])
def test_formulas_output_is_pinned(capsys, argv, stdout):
    # every quantity's exact line: a changed param key, label or value fails
    assert run(["formulas", *argv.split()]) == 0
    assert capsys.readouterr().out == stdout + "\n"


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def test_stdout_is_strict_json(capsys):
    # NaN and Infinity parse by default but are not JSON; the edge values of
    # each quantity and action must print finite numbers or be refused
    big = "1" + "0" * 150
    cases = [
        ["formulas", "ell", "--d", "9", "--t", "40"],
        ["formulas", "m", "--d", "9", "--t", "40"],
        ["formulas", "m-general", "--d", "9", "--t", "40", "--r", "5"],
        ["formulas", "lambda-leading", "--d", "2", "--t", "2", "--n", big, "--q", "1"],
        ["formulas", "lambda-leading", "--d", "2", "--t", "2", "--n", "2", "--q", "0"],
        ["formulas", "p-alpha", "--d", "2", "--t", "2", "--n", "2", "--alpha", "1e-27"],
        ["formulas", "p-alpha", "--d", "2", "--t", "2", "--n", big, "--alpha", "1e-320"],
        ["formulas", "p-alpha", "--d", "1", "--t", "0", "--n", "2", "--alpha", str(1 - 1e-16)],
        ["extremal", "min", "--d", "2", "--t", "2"],
        ["extremal", "rho1", "--d", "2", "--t", "2", "--q", "0"],
        ["extremal", "rho1", "--d", "2", "--t", "2", "--q", "1"],
        ["extremal", "joint", "--d", "2", "--t", "1", "--offset", "1,1", "--q", "1e-300"],
        ["extremal", "near-minimal", "--d", "2", "--t", "2", "--k", "2"],
    ]
    for argv in cases:
        assert run(argv) == 0, argv
        json.loads(capsys.readouterr().out, parse_constant=_not_json)
    assert {argv[1] for argv in cases if argv[0] == "formulas"} == set(cli.FORMULAS)
    assert {argv[1] for argv in cases if argv[0] == "extremal"} == set(cli.EXTREMAL)


def test_extremal_min_writes_outputs(tmp_path, capsys):
    out = tmp_path / "min"
    assert run(["extremal", "min", "--d", "2", "--t", "1", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["size"] == 4 and summary["count"] == 4
    certs = json.loads((out / "certificates.json").read_text())
    assert len(certs) == 4
    csv = (out / "summary.csv").read_text()
    assert csv.startswith("d,t,rule,size,count,canonical,semi_canonical,other\n")
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"certificates.json", "summary.csv"}


def test_extremal_outputs_name_the_rule_with_its_threshold(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["extremal", "min", "--d", "2", "--t", "1", "--r", "1", "--out", str(out)]) == 0
    header, row = (out / "summary.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["rule"] == "standard_r1"
    assert {c["rule"] for c in json.loads((out / "certificates.json").read_text())} == {"standard_r1"}
    assert run(["extremal", "near-minimal", "--d", "2", "--t", "1", "--r", "1", "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["rule"] == "standard_r1"


def test_extremal_min_classifies_each_certificate_once(tmp_path, capsys, monkeypatch):
    calls = []
    classify = extremal.classify
    monkeypatch.setattr(extremal, "classify", lambda cert: calls.append(cert) or classify(cert))
    out = tmp_path / "min"
    assert run(["extremal", "min", "--d", "2", "--t", "2", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == len(calls) == len(set(calls)) == 16
    # the file's bytes as they were when every certificate was classified twice
    digest = hashlib.sha256((out / "certificates.json").read_bytes()).hexdigest()
    assert digest == "bc064385e2d5def2c0a412fedcced09047ff0cb027c4ea9a1f362b40cbd57b93"


def test_extremal_rho1(capsys):
    assert run(["extremal", "rho1", "--d", "2", "--t", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == [0, 0, 0, 0, 4, 1]


def test_extremal_budget_refusal(tmp_path, capsys):
    # the --out directory is made only once the answer exists
    assert run(["extremal", "min", "--d", "2", "--t", "2", "--budget", "10", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "budget" in err
    assert not (tmp_path / "o").exists()


def test_extremal_refuses_a_mask_count_beyond_decimal_printing(capsys):
    # B_85 in Z^2 has 14,621 sites: the mask sweep evolves the 2^14620
    # subsets that hold the origin, a 4,402-digit number
    assert run(["extremal", "rho1", "--d", "2", "--t", "85"]) == 3
    assert "2^14620" in capsys.readouterr().err
    # B_600 has 721,201 sites, so its union with B_600((1, 0)) holds at least
    # 721,202, two of them targets: refused from that bound before it is built
    assert run(["extremal", "joint", "--d", "2", "--t", "600", "--offset", "1,0"]) == 3
    assert "needs at least 2^721200 subset tests" in capsys.readouterr().err


def test_extremal_size_major_refusal_is_pinned(capsys):
    # modified (3,3) has 63 sites and minimum size 7: sizes 1..6 are swept
    # without a hit, and the subsets of sizes 1..7 that hold the origin,
    # C(62, 0) + ... + C(62, 6) = 68,543,140, are one over the budget
    assert run(["extremal", "min", "--d", "3", "--t", "3", "--rule", "modified", "--budget", "68543139"]) == 3
    assert capsys.readouterr().err == "refused: enumeration needs ~68543140 subset tests, budget is 68543139\n"


def test_extremal_min_modified_3_3_answers_from_the_size_major_sweep(capsys):
    # the 63-site ball behind the refusal above, within the default budget:
    # d = 3 axis lines of size 2t + 1 = 7, every one canonical
    assert run(["extremal", "min", "--d", "3", "--t", "3", "--rule", "modified"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["size"], summary["count"], summary["canonical"], summary["other"]) == (7, 3, 3, 0)


def test_extremal_min_modified_axis_lines_are_canonical(capsys):
    assert run(["extremal", "min", "--d", "2", "--t", "2", "--rule", "modified"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["count"], summary["canonical"], summary["other"]) == (2, 2, 0)


@pytest.mark.parametrize("rule", ["standard", "modified"])
def test_extremal_min_budget_decides_only_whether_an_answer_comes(capsys, rule):
    # (2,2) has 13 sites, so it takes the mask sweep over the 2^12 subsets
    # that hold the origin at every budget, and 4095 refuses it; modified
    # (4,2) has 41, so 2^40 keeps it on the size-major sweep of the default
    assert run(["extremal", "min", "--d", "2", "--t", "2", "--rule", rule]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == (16 if rule == "standard" else 2)
    assert run(["extremal", "min", "--d", "2", "--t", "2", "--rule", rule, "--budget", "4095"]) == 3
    assert capsys.readouterr().err == "refused: enumeration needs ~4096 subset tests, budget is 4095\n"
    stdout = []
    for budget in ([], ["--budget", "1099511627776"]):
        assert run(["extremal", "min", "--d", "4", "--t", "2", "--rule", "modified", *budget]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]


def test_extremal_min_small_ball_refuses_below_its_masks(capsys):
    # standard r = 2 on the 25-site (3,2): the 2^24 masks that hold the
    # origin exceed the budget, so it refuses before any sweep runs
    assert run(["extremal", "min", "--d", "3", "--t", "2", "--r", "2", "--budget", "16000000"]) == 3
    assert capsys.readouterr().err == "refused: enumeration needs ~16777216 subset tests, budget is 16000000\n"


def test_extremal_joint_requires_offset(capsys):
    assert run(["extremal", "joint", "--d", "2", "--t", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["joint", "--d", "2", "--t", "1"],
    ["joint", "--d", "2", "--t", "1", "--offset", "0,0"],
    ["near-minimal", "--d", "2", "--t", "1", "--k", "-1"],
    ["min", "--d", "2", "--t", "1", "--k", "1"],
])
def test_extremal_usage_error_writes_no_output(tmp_path, argv):
    assert run(["extremal", *argv, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,printed", [
    (["extremal", "min", "--d", "2", "--t", "1"], None),
    (["extremal", "rho1", "--d", "2", "--t", "1", "--q", "0.5"], "rho1.json"),
    (["extremal", "joint", "--d", "2", "--t", "1", "--offset", "1,0"], "joint.json"),
    (["extremal", "near-minimal", "--d", "2", "--t", "2", "--k", "1"], "near-minimal.json"),
    (["experiment", "CONFIG"], None),
], ids=["min", "rho1", "joint", "near-minimal", "experiment"])
def test_out_directory_holds_the_manifest_and_its_outputs(tmp_path, capsys, argv, printed):
    argv = [str(make_config(tmp_path)) if a == "CONFIG" else a for a in argv]
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *manifest["outputs"]])
    if printed is not None:  # the answer printed is the answer saved
        assert json.loads(capsys.readouterr().out) == json.loads((out / printed).read_text())


@pytest.mark.parametrize("argv", [["extremal", "min", "--d", "2", "--t", "1"], ["experiment", "CONFIG"]],
                         ids=["extremal", "experiment"])
@pytest.mark.parametrize("out,err", [
    ("FILE", "{tmp}/FILE exists and is not a directory"),
    ("FILE/sub", "{tmp}/FILE exists and is not a directory"),
    ("", "the empty path names no directory"),  # would be the current directory
], ids=["FILE", "FILE/sub", "empty"])
def test_out_that_cannot_be_a_directory_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, out, err):
    def no_work(*args, **kwargs):
        raise AssertionError("the answer was computed before --out was checked")

    monkeypatch.setattr(extremal, "count_min_certificates", no_work)
    monkeypatch.setattr(montecarlo, "_map_trials", no_work)
    monkeypatch.chdir(tmp_path)
    argv = [str(make_config(tmp_path)) if a == "CONFIG" else a for a in argv]
    (tmp_path / "FILE").write_text("kept")
    before = sorted(tmp_path.rglob("*"))
    assert run([*argv, "--out", str(tmp_path / out) if out else ""]) == 2
    assert capsys.readouterr().err == f"error: --out: {err.format(tmp=tmp_path)}\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "FILE").read_text() == "kept"


def make_config(tmp_path, **overrides):
    doc = {
        "schema": 1, "d": 2, "n": 32, "rule": "standard", "q": 0.15,
        "t_horizon": 2, "trials": 50, "master_seed": 9,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_montecarlo_module_loads_on_the_first_experiment(tmp_path):
    # the key-lemma suite and the commands that run no trials leave the
    # Monte Carlo stack unloaded, along with its pool and statistics imports
    code = (
        "import sys\n"
        "import torusboot.cli, torusboot.verify\n"
        "from torusboot import cli, verify\n"
        "unloaded = ('torusboot.montecarlo', 'concurrent.futures', 'statistics')\n"
        "assert verify.criterion_key_lemma(total=6).passed\n"
        "for argv in (['formulas', 'm', '--d', '2', '--t', '2'], ['extremal', 'min', '--d', '2', '--t', '1'],\n"
        "             ['verify', 'formulas']):\n"
        "    assert cli.main(argv) == 0\n"
        "assert not [m for m in unloaded if m in sys.modules], [m for m in unloaded if m in sys.modules]\n"
        f"assert cli.main(['experiment', {str(make_config(tmp_path))!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
        "assert 'torusboot.montecarlo' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_experiment_outputs_and_determinism(tmp_path):
    cfg = make_config(tmp_path, measure=["T", "F"], t_measure=2)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["experiment", str(cfg), "--out", str(out1)]) == 0
    assert run(["experiment", str(cfg), "--out", str(out2)]) == 0
    for name in ("T_hist.csv", "F_hist.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["results"]["T"]["trials"] == 50
    csv = (out1 / "T_hist.csv").read_text()
    assert csv.startswith("outcome,count\n")
    assert "\r" not in csv


@pytest.mark.parametrize("threads", [1, 4])
def test_experiment_T_and_F_equal_separate_runs(tmp_path, monkeypatch, threads):
    # one run per trial for both measures writes what a T run and an F run write
    monkeypatch.setenv("TORUSBOOT_THREADS", str(threads))
    outs = {}
    for measure in (["T", "F"], ["T"], ["F"]):
        cfg = make_config(tmp_path, measure=measure, t_measure=1, q=0.3, r=3)
        outs[tuple(measure)] = out = tmp_path / "".join(measure)
        assert run(["experiment", str(cfg), "--out", str(out)]) == 0
    both, only_t, only_f = outs[("T", "F")], outs[("T",)], outs[("F",)]
    assert (both / "T_hist.csv").read_bytes() == (only_t / "T_hist.csv").read_bytes()
    assert (both / "F_hist.csv").read_bytes() == (only_f / "F_hist.csv").read_bytes()
    results = json.loads((both / "report.json").read_text())["results"]
    assert results["T"] == json.loads((only_t / "report.json").read_text())["results"]["T"]
    assert results["F"] == json.loads((only_f / "report.json").read_text())["results"]["F"]
    assert results["T"]["stuck"] > 0
    assert json.loads((both / "manifest.json").read_text())["outputs"] == ["T_hist.csv", "F_hist.csv", "report.json"]


@pytest.mark.parametrize("threads", [1, 4])
def test_experiment_T_and_F_histograms_pinned(tmp_path, monkeypatch, threads):
    # recorded from the runs before T and F shared a trajectory, when each
    # measure sampled and evolved its own grids; stuck trials included
    monkeypatch.setenv("TORUSBOOT_THREADS", str(threads))
    cfg = make_config(tmp_path, measure=["T", "F"], t_measure=2, r=3)
    out = tmp_path / "o"
    assert run(["experiment", str(cfg), "--out", str(out)]) == 0
    assert (out / "T_hist.csv").read_text() == "outcome,count\n2,13\n3,18\n4,4\n5,1\n"
    assert (out / "F_hist.csv").read_text() == (
        "outcome,count\n0,13\n1,7\n2,7\n3,4\n4,3\n5,4\n6,5\n7,1\n8,2\n9,2\n10,1\n12,1\n")
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["T"]["stuck"] == 14 and results["T"]["P_T_le_t"]["point"] == 0.26


@pytest.mark.parametrize("overrides,need", [
    ({"n": 1048576}, "~4,352.0 GiB"),
    # over 4803 * 2**1201 bytes, too large for a float: a 4-site row takes a whole word
    ({"d": 600, "n": 4, "rule": "modified", "t_horizon": 0, "t_measure": 0}, "at least 2^1213 bytes"),
    ({"n": 10**400}, "at least 2^2659 bytes"),
])
def test_experiment_too_large_for_memory_is_refused(tmp_path, capsys, monkeypatch, overrides, need):
    def no_draws(*args):
        raise AssertionError("a refused experiment drew uniforms")

    monkeypatch.setattr(montecarlo, "_draw_grids", no_draws)
    monkeypatch.setenv("TORUSBOOT_THREADS", "1")
    cfg = make_config(tmp_path, **overrides)
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"refused: experiment needs {need} at once")
    assert err.rstrip().endswith("limit is ~2.0 GiB")
    assert not (tmp_path / "o").exists()


def test_experiment_unknown_field_rejected(tmp_path, capsys):
    cfg = make_config(tmp_path, bogus=1)
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_experiment_zero_trials_rejected(tmp_path):
    cfg = make_config(tmp_path, trials=0)
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_experiment_bad_schema_version(tmp_path, capsys):
    cfg = make_config(tmp_path, schema=2)
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "schema" in capsys.readouterr().err


def test_experiment_wrong_type_reports_field(tmp_path, capsys):
    cfg = make_config(tmp_path, q="high")
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "q" in capsys.readouterr().err


def test_experiment_missing_required_field(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, "d": 2}))
    assert run(["experiment", str(path), "--out", str(tmp_path / "o")]) == 2


def test_verify_formulas_suite(capsys):
    assert run(["verify", "formulas"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,field", [
    (["extremal", "min", "--d", "2", "--t", "1", "--r", "9"], "r=9"),
    (["extremal", "min", "--d", "0", "--t", "1"], "--d"),
    (["extremal", "rho1", "--d", "2", "--t", "-1"], "--t"),
    (["extremal", "rho1", "--d", "3", "--t", "1000"], "limit"),
    (["extremal", "joint", "--d", "2", "--t", "1", "--offset", "0,0"], "--offset"),
    (["extremal", "near-minimal", "--d", "2", "--t", "1", "--k", "-1"], "--k"),
    (["formulas", "m", "--d", "2", "--t", "-1"], "t and d"),
    (["formulas", "p-alpha", "--d", "2", "--n", "100", "--t", "2", "--alpha", "2"], "alpha"),
    (["extremal", "min", "--d", "2", "--t", "1", "--offset", "1,0"], "--offset"),
    (["extremal", "rho1", "--d", "2", "--t", "1", "--q", "2"], "--q"),
    (["formulas", "m", "--d", "0", "--t", "2"], "d >= 1"),
    (["formulas", "ell", "--d", "0", "--t", "2"], "d >= 1"),
    (["formulas", "lambda-leading", "--rule", "modified", "--d", "-1", "--t", "1", "--n", "10", "--q", "0.1"],
     "d must be >= 1"),
    (["formulas", "lambda-leading", "--d", "2", "--t", "1", "--n", "0", "--q", "0.1"], "n must be >= 2"),
    (["formulas", "p-alpha", "--d", "2", "--t", "1", "--n", "1", "--alpha", "0.5"], "n must be >= 2"),
    (["formulas", "lambda-leading", "--rule", "modified", "--r", "9", "--d", "2", "--t", "1", "--n", "10",
      "--q", "0.1"], "r: the modified rule takes no threshold, got r=9"),
    (["formulas", "p-alpha", "--rule", "modified", "--r", "2", "--d", "2", "--t", "1", "--n", "10",
      "--alpha", "0.5"], "r=2"),
    (["extremal", "min", "--rule", "modified", "--r", "2", "--d", "2", "--t", "1"], "r=2"),
    # a flag the action or quantity does not read is refused, not ignored
    (["extremal", "rho1", "--d", "2", "--t", "1", "--k", "3"], "--k"),
    (["extremal", "min", "--d", "2", "--t", "1", "--q", "0.3"], "--q"),
    (["extremal", "near-minimal", "--d", "2", "--t", "1", "--k", "0", "--q", "0.5"], "--q"),
    (["extremal", "joint", "--d", "2", "--t", "1", "--offset", "1,0", "--k", "1"], "--k"),
    (["formulas", "m", "--d", "2", "--t", "2", "--n", "5"], "--n"),
    (["formulas", "ell", "--d", "2", "--t", "2", "--r", "2"], "--r"),
    (["formulas", "m-general", "--d", "2", "--t", "2", "--r", "2", "--q", "0.5"], "--q"),
    (["formulas", "lambda-leading", "--d", "2", "--t", "1", "--n", "10", "--q", "0.1", "--alpha", "0.5"],
     "--alpha"),
    (["extremal", "min", "--d", "2", "--t", "1", "--budget", "-5"], "--budget"),
    # count * n^d beyond the float range: refused, not an OverflowError
    (["formulas", "lambda-leading", "--d", "2", "--t", "2", "--n", "1" + "0" * 200, "--q", "0.1"], "n too large"),
    (["formulas", "p-alpha", "--d", "2", "--t", "2", "--n", "1" + "0" * 200, "--alpha", "0.5"], "n too large"),
    # lambda = -log(alpha) above count * n^d: the threshold would be negative, or -inf
    (["formulas", "p-alpha", "--d", "1", "--t", "0", "--n", "2", "--alpha", "1e-10"], "alpha=1e-10"),
    (["formulas", "p-alpha", "--d", "2", "--t", "2", "--n", "2", "--alpha", "1e-320"], "alpha=1e-320"),
])
def test_bad_input_is_usage_error(argv, field, capsys):
    assert run(argv) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("overrides,field", [
    ({"lambda": -1.0}, "lambda"),
    ({"t_measure": -1}, "t_measure"),
    ({"measure": []}, "measure"),
    ({"t_measure": 3}, "t_measure"),
    ({"lambda": float("nan")}, "lambda"),
    ({"lambda": float("inf")}, "lambda"),
    ({"rule": "modified", "r": 9}, "r"),
    ({"rule": "modified", "r": 2}, "r"),
])
def test_experiment_bad_measurement_plan_rejected(tmp_path, capsys, overrides, field):
    cfg = make_config(tmp_path, **overrides)
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}:")


def test_experiment_outputs_do_not_depend_on_the_thread_count(tmp_path, monkeypatch, capsys):
    # $TORUSBOOT_THREADS is the one thread setting: the manifest records it,
    # the byte-compared outputs never see it
    cfg = make_config(tmp_path, measure=["T", "F"], t_measure=2)
    outs = {}
    for threads in (1, 4, 8):
        monkeypatch.setenv("TORUSBOOT_THREADS", str(threads))
        out = tmp_path / f"t{threads}"
        assert run(["experiment", str(cfg), "--out", str(out)]) == 0
        outs[threads] = {name: (out / name).read_bytes() for name in ("T_hist.csv", "F_hist.csv", "report.json")}
        assert json.loads((out / "manifest.json").read_text())["threads"] == threads
        assert b"threads" not in outs[threads]["report.json"]
    assert outs[1] == outs[4] == outs[8]
    monkeypatch.setenv("TORUSBOOT_THREADS", "abc")
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert "TORUSBOOT_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_experiment_refuses_more_threads_than_the_cap(tmp_path, monkeypatch, capsys):
    # the pool would start one OS thread per trial up to its size; the
    # refusal comes before any pool is made (none may be, in this test)
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was constructed")

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    cfg = make_config(tmp_path, n=8, t_horizon=1, trials=1000)
    monkeypatch.setenv("TORUSBOOT_THREADS", str(montecarlo.MAX_THREADS + 1))
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: TORUSBOOT_THREADS: must lie in [1, 256], got 257\n"
    assert not (tmp_path / "o").exists()
    monkeypatch.setenv("TORUSBOOT_THREADS", "256")
    assert cli._default_threads() == montecarlo.MAX_THREADS == 256


def test_experiment_threads_field_is_refused(tmp_path, capsys):
    cfg = make_config(tmp_path, threads=2)
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: threads: unknown field\n"
    assert not (tmp_path / "o").exists()


def test_verify_takes_no_threads_flag(capsys):
    # the statistical criteria fix their own thread count (verify.THREADS)
    with pytest.raises(SystemExit) as exc:
        run(["verify", "formulas", "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,field", [
    ({"d": -1, "rule": "modified"}, "d must"),
    ({"d": 0, "rule": "modified"}, "d must"),
    ({"n": -5, "t_horizon": -3, "t_measure": 0}, "t_horizon"),
    ({"t_horizon": -3, "n": 3, "t_measure": 0}, "t_horizon"),
    ({"d": 0}, "d must"),
    ({"d": -1}, "d must"),
    # trial_seed reads the seed mod 2^64: these would run the streams of
    # 2^64 - 1 and of 7 while report.json recorded their own values
    ({"master_seed": -1}, "master_seed must lie in [0, 2^64)"),
    ({"master_seed": 2**64 + 7}, "master_seed must lie in [0, 2^64)"),
])
def test_experiment_bad_dimension_or_horizon_rejected(tmp_path, capsys, overrides, field):
    cfg = make_config(tmp_path, **overrides)
    assert run(["experiment", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli.extremal, "exact_rho1", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run(["extremal", "rho1", "--d", "2", "--t", "1"])


def test_verify_prints_wall_time_per_criterion(capsys):
    assert run(["verify", "formulas"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"\[PASS\] .+ \(\d+\.\d s\)", first)
