"""Span recorder for the traced benchmark run.

Public functions of the package are wrapped from outside, under every name
a package module binds them to, so a call is recorded however the caller
looks the function up. Spans stay in memory until the worker writes them
out at exit; nothing under ``src/`` changes.

A span's parent is the innermost open span on the same thread. A span that
opens on a pool thread with nothing open there takes the innermost open
span of the main thread as its parent: the pool only runs while that call
waits for it.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    info: dict = field(default_factory=dict)


# (module, attribute, span name, measure). measure(args, kwargs, result)
# returns counts to attach to the span; it runs after the span closes.
Target = tuple[str, str, str, Callable[[tuple, dict, Any], dict] | None]


_origins: dict[tuple[int, int, int], int | None] = {}


def _origin_column(d: int, steps: int, n_sites: int) -> int | None:
    """Index of the origin when the sites are the whole ball B_steps, as
    in a protection test, which evolves B_t for t steps; else None."""
    key = (d, steps, n_sites)
    if key not in _origins:
        from torusboot import lattice

        _origins[key] = None
        if d >= 1 and steps >= 0 and lattice.ball_size(d, steps) == n_sites:
            # the unwrapped function, so this lookup records no span
            enumerate_ball = getattr(lattice.enumerate_ball, "__wrapped__", lattice.enumerate_ball)
            _origins[key] = enumerate_ball(d, steps).index_of[(0,) * d]
    return _origins[key]


def _kernel_work(args, kwargs, result) -> dict:
    uninfected, nbr = args[0], args[1]
    steps = int(kwargs["steps"] if "steps" in kwargs else args[3])
    rows = int(uninfected.shape[0])
    info = {"rows": rows, "site_updates": rows * steps * int(nbr.shape[0])}
    origin = _origin_column(int(nbr.shape[1]) // 2, steps, int(nbr.shape[0]))
    if origin is not None:
        info["protected"] = int(result[:, origin].sum())
    return info


def _accepted(args, kwargs, result) -> dict:
    return {"accepted": len(result)}


def _trial_outcomes(args, kwargs, result) -> dict:
    return {"stuck": int(result.stuck_count)}


TARGETS: tuple[Target, ...] = (
    ("torusboot.lattice", "enumerate_ball", "lattice.enumerate_ball", None),
    ("torusboot.dynamics", "neighbor_matrix", "dynamics.neighbor_matrix", None),
    ("torusboot.dynamics", "evolve_finite_batch", "dynamics.ball_kernel", _kernel_work),
    ("torusboot.dynamics", "protected_set", "dynamics.protected_set", None),
    ("torusboot.dynamics", "torus_step_grid", "dynamics.torus_step", None),
    ("torusboot.extremal", "min_protecting_size", "extremal.sweep", None),
    ("torusboot.extremal", "count_min_certificates", "extremal.sweep", None),
    ("torusboot.extremal", "exact_rho1", "extremal.sweep", None),
    ("torusboot.extremal", "exact_joint", "extremal.sweep", None),
    ("torusboot.extremal", "classify", "extremal.classify", None),
    ("torusboot.extremal", "sample_protected_configs", "extremal.sample_protected_configs", _accepted),
    ("torusboot.extremal", "check_layer_bounds", "extremal.check_layer_bounds", None),
    ("torusboot.montecarlo", "sample_initial_grid", "montecarlo.sample_initial_grid", None),
    ("torusboot.montecarlo", "run_trials_T", "montecarlo.run_trials", _trial_outcomes),
    ("torusboot.montecarlo", "run_trials_F", "montecarlo.run_trials", _trial_outcomes),
    ("torusboot.verify", "criterion_key_lemma", "verify.key_lemma", None),
    ("torusboot.cli", "cmd_experiment", "cli.experiment", None),
)

PACKAGE_MODULES = ("lattice", "dynamics", "formulas", "extremal", "montecarlo", "verify", "cli")


class Tracer:
    """Records spans around wrapped functions. Call restore() in a finally
    block, so every wrapped name is put back even when traced code raises."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}  # missing function -> its span name
        # next() on a count and list.append are single C calls, atomic
        # under the interpreter lock, so pool threads share them safely.
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def wrap(self, name: str, fn: Callable, measure=None) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(sid, parent, name, threading.get_ident(), start, end)
            if measure is not None:
                span.info = measure(args, kwargs, result)
            self.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap each target under every package-module name bound to it.

        A target whose function no longer exists is recorded in `absent`;
        the metrics of its span are then reported as absent.
        """
        modules = [importlib.import_module(f"torusboot.{m}") for m in PACKAGE_MODULES]
        for module_name, attr, span_name, measure in targets:
            home = importlib.import_module(module_name)
            original = getattr(home, attr, None)
            if original is None:
                self.absent[f"{module_name}.{attr}"] = span_name
                continue
            wrapper = self.wrap(span_name, original, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children on other threads may overlap each other; their union is
    subtracted, so two pool threads busy at once count once.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(
    spans: list[Span], setup_end: float, trials: int, expected: set[str], absent_spans: set[str]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one traced pass.

    Set-up metrics count spans that began before `setup_end`; all others
    count spans of the pass after it. `trials` is the number of Monte Carlo
    trials the pass asked for. A metric whose span is in `expected` but
    whose function is gone or was never called is left out and named in
    the returned list; spans a workload does not exercise read zero.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    setup = [s for s in spans if s.start < setup_end]
    run = [s for s in spans if s.start >= setup_end]

    def named(window, name):
        return [s for s in window if s.name == name]

    def self_s(window, name):
        return sum(selfs[s.id] for s in named(window, name))

    def under(name, parent_name):
        return [s for s in named(run, name) if s.parent is not None and by_id[s.parent].name == parent_name]

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    kern = named(run, "dynamics.ball_kernel")
    site_updates = sum(s.info["site_updates"] for s in kern)
    sweep_rows = sum(s.info["rows"] for s in under("dynamics.ball_kernel", "extremal.sweep"))
    sample_kern = under("dynamics.ball_kernel", "extremal.sample_protected_configs")
    sample_rows = sum(s.info["rows"] for s in sample_kern)
    sample_protected = sum(s.info.get("protected", 0) for s in sample_kern)
    samples = named(run, "extremal.sample_protected_configs")
    accepted = sum(s.info["accepted"] for s in samples)
    steps = named(run, "dynamics.torus_step")
    grids = named(run, "montecarlo.sample_initial_grid")
    lemma = named(run, "verify.key_lemma")
    lemma_s = sum(s.end - s.start for s in lemma)

    # metric -> (span it reads, value)
    table = {
        "dynamics.ball_kernel.calls": ("dynamics.ball_kernel", len(kern)),
        "dynamics.ball_kernel.site_updates": ("dynamics.ball_kernel", site_updates),
        "dynamics.ball_kernel.self_s": ("dynamics.ball_kernel", self_s(run, "dynamics.ball_kernel")),
        "dynamics.ball_kernel.ns_per_site_update": (
            "dynamics.ball_kernel", ratio(self_s(run, "dynamics.ball_kernel"), site_updates, 1e9)),
        "dynamics.protected_set.calls": ("dynamics.protected_set", len(named(run, "dynamics.protected_set"))),
        "dynamics.protected_set.self_s": ("dynamics.protected_set", self_s(run, "dynamics.protected_set")),
        "dynamics.torus_step.calls": ("dynamics.torus_step", len(steps)),
        "dynamics.torus_step.ms_per_grid": (
            "dynamics.torus_step", ratio(self_s(run, "dynamics.torus_step"), len(steps), 1e3)),
        "dynamics.torus_step.steps_per_trial": ("dynamics.torus_step", ratio(len(steps), trials)),
        "extremal.sweep.self_s": ("extremal.sweep", self_s(run, "extremal.sweep")),
        "extremal.sweep.ns_per_subset": (
            "extremal.sweep", ratio(self_s(run, "extremal.sweep"), sweep_rows, 1e9)),
        "extremal.classify.calls": ("extremal.classify", len(named(run, "extremal.classify"))),
        "extremal.classify.self_s": ("extremal.classify", self_s(run, "extremal.classify")),
        "extremal.sample_protected_configs.self_s": (
            "extremal.sample_protected_configs", self_s(run, "extremal.sample_protected_configs")),
        "extremal.sample_protected_configs.accept_ratio": (
            "extremal.sample_protected_configs", ratio(sample_protected, sample_rows)),
        "extremal.check_layer_bounds.self_s": (
            "extremal.check_layer_bounds", self_s(run, "extremal.check_layer_bounds")),
        "montecarlo.sample_initial_grid.calls": ("montecarlo.sample_initial_grid", len(grids)),
        "montecarlo.sample_initial_grid.ms_per_grid": (
            "montecarlo.sample_initial_grid", ratio(self_s(run, "montecarlo.sample_initial_grid"), len(grids), 1e3)),
        "montecarlo.run_trials.self_s": ("montecarlo.run_trials", self_s(run, "montecarlo.run_trials")),
        "montecarlo.stuck": (
            "montecarlo.run_trials", sum(s.info["stuck"] for s in named(run, "montecarlo.run_trials"))),
        "verify.key_lemma.self_s": ("verify.key_lemma", self_s(run, "verify.key_lemma")),
        "verify.key_lemma.ms_per_config": ("verify.key_lemma", ratio(lemma_s, accepted, 1e3)),
        "cli.experiment.self_s": ("cli.experiment", self_s(run, "cli.experiment")),
        "lattice.enumerate_ball.self_s": ("lattice.enumerate_ball", self_s(setup, "lattice.enumerate_ball")),
        "dynamics.neighbor_matrix.self_s": ("dynamics.neighbor_matrix", self_s(setup, "dynamics.neighbor_matrix")),
    }
    setup_spans = {"lattice.enumerate_ball", "dynamics.neighbor_matrix"}
    metrics: dict[str, float] = {}
    missing: list[str] = []
    for metric, (span, value) in table.items():
        called = any(s.name == span for s in (setup if span in setup_spans else run))
        if span in expected and (span in absent_spans or not called):
            missing.append(metric)
        else:
            metrics[metric] = value
    return metrics, missing
