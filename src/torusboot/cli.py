"""Command-line entry point.

Exit codes are a stable contract: 0 success, 2 usage or config schema
error, 3 work-budget refusal, 4 verification failure.  Bad input is
turned into a SchemaError where it is validated; any other exception is
an internal error and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, extremal, formulas, verify
from .dynamics import Modified, Rule, Standard, check_rule
from .lattice import MAX_BALL_SITES, ball_size

if TYPE_CHECKING:
    from . import montecarlo

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


class SchemaError(Exception):
    """Config validation failure; the message names the offending field."""


def _default_threads() -> int:
    from . import montecarlo  # loaded by the first experiment, not with the package

    raw = os.environ.get("TORUSBOOT_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise SchemaError(f"TORUSBOOT_THREADS: expected an integer, got {raw!r}")
    if not 1 <= value <= montecarlo.MAX_THREADS:
        raise SchemaError(f"TORUSBOOT_THREADS: must lie in [1, {montecarlo.MAX_THREADS}], got {value}")
    return value


def _parse_rule(tag: str, d: int, r: int | None) -> Rule:
    if tag not in ("standard", "modified"):
        raise SchemaError(f"rule: expected 'standard' or 'modified', got {tag!r}")
    rule = Modified() if tag == "modified" else Standard(r=d if r is None else r)
    try:
        check_rule(rule, d)
    except ValueError as exc:  # the message names d or r
        raise SchemaError(str(exc))
    if tag == "modified" and r is not None:
        raise SchemaError(f"r: the modified rule takes no threshold, got r={r}")
    return rule


def _refuse(exc: Exception) -> int:
    print(f"refused: {exc}", file=sys.stderr)
    return EXIT_BUDGET


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _json_file(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _check_out(out: str) -> None:
    """Refuse, before any work runs and creating nothing, an --out path
    that _write_out could not make into a directory."""
    if not out:
        raise SchemaError("--out: the empty path names no directory")
    for path in (Path(out), *Path(out).parents):
        if path.is_dir():
            return
        if path.exists() or path.is_symlink():
            raise SchemaError(f"--out: {path} exists and is not a directory")


def _write_out(out: str, subcommand: str, params: dict, files: dict[str, str], started: str, **extra) -> None:
    """Make the --out directory, write `files` (name -> text) into it, and
    then manifest.json, which lists them.  Called once the answer exists,
    so a refused run leaves no directory."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    manifest = {
        "subcommand": subcommand,
        "params": params,
        "tool_version": __version__,
        "started": started,
        "finished": _timestamp(),
        "outputs": list(files),
        **extra,
    }
    (out_dir / "manifest.json").write_text(_json_file(manifest))


def _check_flags(args: argparse.Namespace, what: str, names: tuple[str, ...],
                 reads: tuple[str, ...], required: tuple[str, ...]) -> None:
    """Refuse a missing required flag, or a given flag that `what` does not read, among `names`."""
    for name in names:
        given = getattr(args, name) is not None
        if name in required and not given:
            raise SchemaError(f"--{name} is required for {what}")
        if given and name not in reads:
            raise SchemaError(f"--{name}: {what} does not read it")


# ---------------------------------------------------------------------------
# formulas

# quantity -> (required flags, which are also the printed params; value)
FORMULAS = {
    "ell": (("d", "t"), lambda a: formulas.ell(a.t, a.d)),
    "m": (("d", "t"), lambda a: formulas.m(a.t, a.d)),
    "m-general": (("d", "t", "r"), lambda a: formulas.m_general(a.t, a.d, a.r)),
    "lambda-leading": (("d", "t", "n", "q", "rule"), lambda a: formulas.lambda_leading(
        a.n, a.d, a.t, a.q, _parse_rule(a.rule, a.d, a.r))),
    "p-alpha": (("d", "t", "n", "alpha", "rule"), lambda a: formulas.p_alpha(
        a.n, a.d, a.t, a.alpha, _parse_rule(a.rule, a.d, a.r))),
}


def cmd_formulas(args: argparse.Namespace) -> int:
    flags, value_of = FORMULAS[args.quantity]
    read = flags + ("r",) if "rule" in flags else flags  # --r is the threshold of the parsed rule
    # --rule has a default, so it is always given
    _check_flags(args, f"quantity {args.quantity!r}", ("d", "t", "n", "r", "q", "alpha"), read, flags)
    params = {name: getattr(args, name) for name in flags}
    try:
        value = value_of(args)
    except ValueError as exc:  # the closed forms validate their own arguments
        raise SchemaError(str(exc))
    doc = {"quantity": args.quantity, "params": params, "value": value}
    if args.quantity in ("lambda-leading", "p-alpha"):
        # the (1+o(1)) factor is dropped; flag so reports cannot confuse
        # asymptotic predictions with exact values
        doc["label"] = "leading-order"
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# extremal

def _answer_min(a: argparse.Namespace, rule: Rule) -> tuple[dict, dict[str, str]]:
    count, certs = extremal.count_min_certificates(a.d, a.t, rule, budget=a.budget)
    docs = [c.to_json() for c in certs]  # to_json classifies, so build the documents once
    tags = [doc["classification"] for doc in docs]
    summary = {
        "d": a.d,
        "t": a.t,
        "rule": extremal._rule_tag(rule),
        "size": certs[0].size if certs else 0,
        "count": count,
        "canonical": tags.count("canonical"),
        "semi_canonical": tags.count("semi-canonical"),
        "other": tags.count("other"),
    }
    # the dict's insertion order is the column order
    csv = ",".join(summary) + "\n" + ",".join(str(v) for v in summary.values()) + "\n"
    return summary, {"certificates.json": _json_file(docs), "summary.csv": csv}


def _answer_poly(a: argparse.Namespace, poly: extremal.RhoPolynomial) -> tuple[dict, dict[str, str]]:
    doc = poly.to_json()
    if a.q is not None:
        doc["value_at_q"] = {"q": a.q, "value": poly.evaluate(a.q)}
    return doc, {f"{a.action}.json": _json_file(doc)}


def _answer_near_minimal(a: argparse.Namespace, rule: Rule) -> tuple[dict, dict[str, str]]:
    count = extremal.count_near_minimal(a.d, a.t, a.k, rule, budget=a.budget)
    doc = {"d": a.d, "t": a.t, "k": a.k, "rule": extremal._rule_tag(rule), "count": count}
    return doc, {"near-minimal.json": _json_file(doc)}


# action -> (flags it reads among --offset, --k and --q; flags it requires;
# answer: the printed document and the files --out writes)
EXTREMAL = {
    "min": ((), (), _answer_min),
    "rho1": (("q",), (), lambda a, rule: _answer_poly(a, extremal.exact_rho1(a.d, a.t, rule, budget=a.budget))),
    "joint": (("offset", "q"), ("offset",), lambda a, rule: _answer_poly(a, extremal.exact_joint(
        a.d, a.t, _parse_offset(a.offset, a.d), rule, budget=a.budget))),
    "near-minimal": (("k",), ("k",), _answer_near_minimal),
}


def cmd_extremal(args: argparse.Namespace) -> int:
    reads, required, answer = EXTREMAL[args.action]
    _check_flags(args, f"action {args.action!r}", ("offset", "k", "q"), reads, required)
    if args.budget < 0:
        raise SchemaError(f"--budget: must be >= 0, got {args.budget}")
    if args.d < 1 or args.t < 0:
        raise SchemaError(f"--d must be >= 1 and --t >= 0, got d={args.d} t={args.t}")
    if ball_size(args.d, args.t) > MAX_BALL_SITES:
        raise SchemaError(f"ball d={args.d} t={args.t} exceeds the enumeration limit of {MAX_BALL_SITES} sites")
    if args.q is not None and not 0.0 <= args.q <= 1.0:
        raise SchemaError(f"--q: must lie in [0, 1], got {args.q}")
    if args.k is not None and args.k < 0:
        raise SchemaError(f"--k >= 0 is required for action {args.action!r}")
    rule = _parse_rule(args.rule, args.d, args.r)
    if args.out is not None:
        _check_out(args.out)
    started = _timestamp()
    doc, files = answer(args, rule)
    if args.out is not None:
        params = {k: getattr(args, k) for k in ("action", "d", "t", "rule", "r", "offset", "k", "budget", "q")}
        _write_out(args.out, "extremal", params, files, started)
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _parse_offset(raw: str, d: int) -> tuple[int, ...]:
    try:
        offset = tuple(int(p) for p in raw.split(","))
    except ValueError:
        raise SchemaError(f"--offset: expected comma-separated integers, got {raw!r}")
    if len(offset) != d:
        raise SchemaError(f"--offset: expected {d} coordinates, got {len(offset)}")
    if not any(offset):
        raise SchemaError("--offset: must be nonzero")
    return offset


# ---------------------------------------------------------------------------
# experiment

_CONFIG_FIELDS = {
    "schema": int,
    "d": int,
    "n": int,
    "rule": str,
    "r": int,
    "q": (int, float),
    "t_horizon": int,
    "trials": int,
    "master_seed": int,
    "measure": list,
    "t_measure": int,
    "lambda": (int, float),
}
_REQUIRED_FIELDS = ("schema", "d", "n", "rule", "q", "t_horizon", "trials", "master_seed")


def load_experiment_config(doc: dict) -> tuple[montecarlo.ExperimentConfig, dict]:
    """Validated (config, extras) from a parsed JSON document.

    extras carries the measurement plan: measure list, t_measure, lambda.
    """
    from . import montecarlo

    if not isinstance(doc, dict):
        raise SchemaError("config: expected a JSON object")
    for key, value in doc.items():
        if key not in _CONFIG_FIELDS:
            raise SchemaError(f"{key}: unknown field")
        if isinstance(value, bool) or not isinstance(value, _CONFIG_FIELDS[key]):
            raise SchemaError(f"{key}: wrong type")
    for key in _REQUIRED_FIELDS:
        if key not in doc:
            raise SchemaError(f"{key}: required field missing")
    if doc["schema"] != 1:
        raise SchemaError(f"schema: expected 1, got {doc['schema']}")
    rule = _parse_rule(doc["rule"], doc["d"], doc.get("r"))
    measure = doc.get("measure", ["T", "F"])
    if not measure:
        raise SchemaError("measure: must name at least one of 'T' and 'F'")
    for i, item in enumerate(measure):
        if item not in ("T", "F"):
            raise SchemaError(f"measure[{i}]: expected 'T' or 'F', got {item!r}")
    try:
        config = montecarlo.ExperimentConfig(
            d=doc["d"],
            n=doc["n"],
            rule=rule,
            q=float(doc["q"]),
            t_horizon=doc["t_horizon"],
            trials=doc["trials"],
            master_seed=doc["master_seed"],
            threads=_default_threads(),
        )
    except ValueError as exc:
        raise SchemaError(str(exc))
    extras = {
        "measure": list(measure),
        "t_measure": doc.get("t_measure", doc["t_horizon"]),
        "lambda": doc.get("lambda"),
    }
    if not 0 <= extras["t_measure"] <= config.t_horizon:
        raise SchemaError(
            f"t_measure: must lie in [0, t_horizon={config.t_horizon}], got {extras['t_measure']}"
        )
    if extras["lambda"] is not None and not 0 <= extras["lambda"] < math.inf:  # rejects NaN and infinity
        raise SchemaError(f"lambda: must be finite and >= 0, got {extras['lambda']}")
    return config, extras


def cmd_experiment(args: argparse.Namespace) -> int:
    from . import montecarlo

    started = _timestamp()
    try:
        doc = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise SchemaError(f"config: cannot read {args.config}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config: invalid JSON: {exc}")
    config, extras = load_experiment_config(doc)
    _check_out(args.out)

    measure, t = extras["measure"], extras["t_measure"]
    dist_t = dist_f = None
    try:
        if "T" in measure and "F" in measure:
            dist_t, dist_f = montecarlo.run_trials(config, t)  # one run per trial gives both
        elif "T" in measure:
            dist_t = montecarlo.run_trials_T(config)
        elif "F" in measure:
            dist_f = montecarlo.run_trials_F(config, t)
    except montecarlo.MemoryBudgetExceeded as exc:
        return _refuse(exc)

    files: dict[str, str] = {}
    results: dict = {}
    if dist_t is not None:
        files["T_hist.csv"] = dist_t.to_csv()
        est = montecarlo.estimate_P_T_le_t(dist_t, t)
        results["T"] = {
            "trials": dist_t.trials,
            "stuck": dist_t.stuck_count,
            "P_T_le_t": {"t": t, **dataclasses.asdict(est)},
        }
    if dist_f is not None:
        files["F_hist.csv"] = dist_f.to_csv()
        entry: dict = {"trials": dist_f.trials, "t": t}
        if extras["lambda"] is not None:
            entry["tv_vs_poisson"] = {
                "lambda": extras["lambda"],
                "tv": montecarlo.tv_report(dist_f, float(extras["lambda"])),
            }
        results["F"] = entry
    files["report.json"] = _json_file({"config": doc, "results": results})
    _write_out(args.out, "experiment", doc, files, started, threads=config.threads)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> int:
    all_ok = True
    for criterion in verify.SUITES[args.suite]:
        start = time.perf_counter()
        rep = criterion()
        print(f"{rep.line()} ({time.perf_counter() - start:.1f} s)")
        for line in rep.details:
            print("   ", line)
        all_ok = all_ok and rep.passed
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torusboot")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_form = sub.add_parser("formulas", help="closed-form quantities as JSON")
    p_form.add_argument("quantity", choices=FORMULAS)
    p_form.add_argument("--d", type=int)
    p_form.add_argument("--t", type=int)
    p_form.add_argument("--n", type=int)
    p_form.add_argument("--r", type=int)
    p_form.add_argument("--q", type=float)
    p_form.add_argument("--alpha", type=float)
    p_form.add_argument("--rule", choices=("standard", "modified"), default="standard")
    p_form.set_defaults(func=cmd_formulas)

    p_ext = sub.add_parser("extremal", help="exhaustive extremal oracles")
    p_ext.add_argument("action", choices=("min", "rho1", "joint", "near-minimal"))
    p_ext.add_argument("--d", type=int, required=True)
    p_ext.add_argument("--t", type=int, required=True)
    p_ext.add_argument("--r", type=int)
    p_ext.add_argument("--rule", choices=("standard", "modified"), default="standard")
    p_ext.add_argument("--offset", help="comma-separated coordinates, e.g. 1,0")
    p_ext.add_argument("--k", type=int)
    p_ext.add_argument("--q", type=float)
    p_ext.add_argument("--budget", type=int, default=extremal.DEFAULT_BUDGET,
                       help="refuse (exit 3) a question whose sweep would evolve more subsets; never changes the answer")
    p_ext.add_argument("--out")
    p_ext.set_defaults(func=cmd_extremal)

    p_exp = sub.add_parser("experiment", help="seeded Monte Carlo experiment from a JSON config")
    p_exp.add_argument("config")
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=cmd_experiment)

    p_ver = sub.add_parser("verify", help="run an acceptance suite")
    p_ver.add_argument("suite", choices=sorted(verify.SUITES))
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except extremal.WorkBudgetExceeded as exc:
        return _refuse(exc)


if __name__ == "__main__":
    sys.exit(main())
