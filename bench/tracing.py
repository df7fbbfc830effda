"""Spans and counters recorded around the calls into weakkam's modules.

Nothing inside the package is edited.  ``Tracer.install`` replaces each probed
function with a timing wrapper, both where it is defined and in every
``weakkam`` module that bound it with ``from ... import`` (``cli`` and
``vv_analysis`` call the solvers through such bindings, so wrapping the
defining module alone would miss those calls).  ``Tracer.restore`` puts the
originals back.

A span has a name, a start, an end and its parent span, and every span of one
run carries the run's id.  Self time is a span's duration minus the part its
child spans cover.  The per-evaluation functions of ``model`` run hundreds of
thousands of times a run; they are timed and counted like the rest and their
time is subtracted from their caller's self time, but they are not stored one
by one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _minplus_ops(kernels) -> int:
    """(min,+) operations of compose_period on these kernels, by its branch."""
    nx, nt = kernels.grid.nx, kernels.grid.nt
    if kernels.time_independent:
        products = (nt.bit_length() - 1) + (bin(nt).count("1") - 1)
        return products * nx ** 3
    return (nt - 1) * len(kernels.offsets) * nx ** 2


def _count_rk4(fn, args, kwargs, traj, counts):
    counts["dynamics.rk4_steps"] += len(traj.times) - 1


def _count_compose(fn, args, kwargs, out, counts):
    counts["variational.compose_minplus_ops"] += _minplus_ops(_arg(fn, args, kwargs, "kernels"))


def _count_solve(fn, args, kwargs, sol, counts):
    counts["viscous.periods_to_lock"] += sol.n_periods
    counts["viscous.steps"] += sol.n_periods * sol.grid.nt * sol.m_sub


def _count_residual_check(fn, args, kwargs, out, counts):
    sol = _arg(fn, args, kwargs, "sol")
    counts["viscous.steps"] += 2 * sol.grid.nt * sol.m_sub


def _count_exit(fn, args, kwargs, ens, counts):
    counts["stochastic.exit_path_steps"] += int(round(float(np.sum(ens.tau_samples)) / ens.dt))


def _count_lax(fn, args, kwargs, probes, counts):
    n_steps = int(round(_arg(fn, args, kwargs, "kappa") / _arg(fn, args, kwargs, "dt")))
    counts["stochastic.lax_path_steps"] += len(probes) * _arg(fn, args, kwargs, "n_paths") * n_steps


def _count_artifacts(fn, args, kwargs, files, counts):
    counts["cli.artifact_bytes"] += sum(os.path.getsize(f) for f in files)


def _count_potential(fn, args, kwargs, out, counts):
    counts["model.potential_points"] += np.size(args[1] if len(args) > 1 else kwargs["x"])


def _exit_kind(fn, args, kwargs):
    free = _arg(fn, args, kwargs, "drift").kind == "zero"
    return "stochastic.exit_free" if free else "stochastic.exit_drift"


def _counter(key, attr):
    def count(fn, args, kwargs, out, counts):
        counts[key] += getattr(out, attr)
    return count


@dataclass(frozen=True)
class Probe:
    name: str                      # span name, "<layer>.<function>"
    owner: str                     # "module" or "module:Class"
    attr: str
    timed: bool = True             # False: count only, time stays with the caller
    stored: bool = True            # False: aggregate only (per-evaluation functions)
    count: Callable | None = None  # (fn, args, kwargs, result, counts) -> None
    rename: Callable | None = None  # (fn, args, kwargs) -> span name


PROBES = (
    Probe("cli.run_config", "weakkam.cli", "run_config"),
    Probe("cli.emit_reports", "weakkam.cli", "emit_reports", timed=False,
          count=_count_artifacts),
    Probe("model.hamiltonian", "weakkam.model:HamiltonianModel", "hamiltonian",
          stored=False),
    Probe("model.lagrangian", "weakkam.model:HamiltonianModel", "lagrangian",
          stored=False),
    Probe("model.potential", "weakkam.model:PotentialSpec", "derivative",
          stored=False, count=_count_potential),
    Probe("dynamics.aubry_orbits", "weakkam.dynamics", "aubry_orbits"),
    Probe("dynamics.find_periodic_orbit", "weakkam.dynamics", "find_periodic_orbit",
          count=_counter("dynamics.newton_iterations", "newton_iterations")),
    Probe("dynamics.integrate", "weakkam.dynamics", "integrate", count=_count_rk4),
    Probe("variational.critical_value", "weakkam.variational", "critical_value",
          count=_counter("variational.power_iterations", "power_iterations")),
    Probe("variational.compose_period", "weakkam.variational", "compose_period",
          count=_count_compose),
    Probe("variational.anchored_barrier", "weakkam.variational", "anchored_barrier",
          count=_counter("variational.barrier_sweeps", "n_sweeps")),
    Probe("viscous.solve_cell", "weakkam.viscous", "solve_cell", count=_count_solve),
    Probe("viscous.residual_check", "weakkam.viscous", "residual_check",
          count=_count_residual_check),
    Probe("orbit_hessian.hessian_curve", "weakkam.orbit_hessian",
          "unstable_hessian_curve"),
    Probe("vv_analysis.sweep", "weakkam.vv_analysis", "sweep"),
    Probe("vv_analysis.rescale_check", "weakkam.vv_analysis", "rescale_check"),
    Probe("vv_analysis.example_verify", "weakkam.vv_analysis", "example_verify"),
    Probe("stochastic.exit_time_scaling", "weakkam.stochastic", "exit_time_scaling"),
    Probe("stochastic.exit_times", "weakkam.stochastic", "exit_times",
          count=_count_exit, rename=_exit_kind),
    Probe("stochastic.lax_residual", "weakkam.stochastic", "lax_residual",
          count=_count_lax),
)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("cli.run_config_self_s", "s"), ("cli.artifact_bytes", "bytes"),
    ("model.hamiltonian_calls", "count"), ("model.hamiltonian_s", "s"),
    ("model.lagrangian_calls", "count"), ("model.lagrangian_s", "s"),
    ("model.potential_calls", "count"), ("model.potential_points", "count"),
    ("model.potential_s", "s"),
    ("dynamics.aubry_orbits_calls", "count"), ("dynamics.aubry_orbits_s", "s"),
    ("dynamics.newton_iterations", "count"), ("dynamics.rk4_steps", "count"),
    ("dynamics.us_per_rk4_step", "us"),
    ("variational.critical_value_calls", "count"), ("variational.critical_value_s", "s"),
    ("variational.compose_period_calls", "count"), ("variational.compose_period_s", "s"),
    ("variational.compose_minplus_ops", "count"),
    ("variational.power_iterations", "count"),
    ("variational.anchored_barrier_calls", "count"),
    ("variational.anchored_barrier_s", "s"), ("variational.barrier_sweeps", "count"),
    ("viscous.solve_cell_calls", "count"), ("viscous.solve_cell_s", "s"),
    ("viscous.periods_to_lock", "count"), ("viscous.steps", "count"),
    ("viscous.us_per_step", "us"), ("viscous.residual_check_s", "s"),
    ("orbit_hessian.hessian_curve_calls", "count"), ("orbit_hessian.hessian_curve_s", "s"),
    ("vv_analysis.sweep_self_s", "s"), ("vv_analysis.rescale_check_self_s", "s"),
    ("vv_analysis.example_verify_self_s", "s"),
    ("stochastic.exit_free_s", "s"), ("stochastic.exit_drift_s", "s"),
    ("stochastic.exit_path_steps", "count"), ("stochastic.exit_ns_per_path_step", "ns"),
    ("stochastic.lax_residual_s", "s"), ("stochastic.lax_path_steps", "count"),
    ("stochastic.lax_ns_per_path_step", "ns"),
    ("trace.overhead_s", "s"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory spans, per-name totals and layer counters for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []      # (id, name, start, end, parent id)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])   # calls, span s, self s
        self.counts = defaultdict(int)
        self._stack: list[list] = []      # [span id or None, child seconds]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, probe: Probe, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not probe.timed:
                out = fn(*args, **kwargs)
                probe.count(fn, args, kwargs, out, tracer.counts)
                return out
            name = probe.rename(fn, args, kwargs) if probe.rename else probe.name
            stack = tracer._stack
            span_id = parent = None
            if probe.stored:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tot = tracer.totals[name]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[1]
                if span_id is not None:
                    tracer.spans.append((span_id, name, start, end, parent))
            if probe.count is not None:
                probe.count(fn, args, kwargs, out, tracer.counts)
            return out

        return wrapper

    def install(self, probes=PROBES):
        """Wrap every probe at its definition and at every weakkam binding of it."""
        for probe in probes:
            owner = _resolve(probe.owner)
            original = getattr(owner, probe.attr)
            wrapper = self._wrap(probe, original)
            targets = [(owner, probe.attr)]
            if ":" not in probe.owner:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "weakkam" or mod is owner:
                        continue
                    targets += [(mod, k) for k, v in vars(mod).items() if v is original]
            for obj, attr in targets:
                self._patched.append((obj, attr, original))
                setattr(obj, attr, wrapper)
        return self

    def restore(self):
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (trace.overhead_s excluded)."""
        t, c = self.totals, self.counts

        def calls(name):
            return t[name][0] if name in t else 0

        def span(name):
            return t[name][1] if name in t else 0.0

        def self_s(name):
            return t[name][2] if name in t else 0.0

        def per(total_s, n, scale):
            return total_s / n * scale if n else 0.0

        exit_s = span("stochastic.exit_free") + span("stochastic.exit_drift")
        visc_s = span("viscous.solve_cell") + span("viscous.residual_check")
        m = {"cli.run_config_self_s": self_s("cli.run_config"),
             "cli.artifact_bytes": c["cli.artifact_bytes"]}
        for name in ("model.hamiltonian", "model.lagrangian", "model.potential",
                     "dynamics.aubry_orbits", "variational.critical_value",
                     "variational.compose_period", "variational.anchored_barrier",
                     "viscous.solve_cell", "orbit_hessian.hessian_curve"):
            m[f"{name}_calls"] = calls(name)
            m[f"{name}_s"] = span(name)
        m.update({
            "model.potential_points": c["model.potential_points"],
            "dynamics.newton_iterations": c["dynamics.newton_iterations"],
            "dynamics.rk4_steps": c["dynamics.rk4_steps"],
            "dynamics.us_per_rk4_step": per(span("dynamics.integrate"),
                                            c["dynamics.rk4_steps"], 1e6),
            "variational.compose_minplus_ops": c["variational.compose_minplus_ops"],
            "variational.power_iterations": c["variational.power_iterations"],
            "variational.barrier_sweeps": c["variational.barrier_sweeps"],
            "viscous.periods_to_lock": c["viscous.periods_to_lock"],
            "viscous.steps": c["viscous.steps"],
            "viscous.us_per_step": per(visc_s, c["viscous.steps"], 1e6),
            "viscous.residual_check_s": span("viscous.residual_check"),
            "vv_analysis.sweep_self_s": self_s("vv_analysis.sweep"),
            "vv_analysis.rescale_check_self_s": self_s("vv_analysis.rescale_check"),
            "vv_analysis.example_verify_self_s": self_s("vv_analysis.example_verify"),
            "stochastic.exit_free_s": span("stochastic.exit_free"),
            "stochastic.exit_drift_s": span("stochastic.exit_drift"),
            "stochastic.exit_path_steps": c["stochastic.exit_path_steps"],
            "stochastic.exit_ns_per_path_step": per(exit_s, c["stochastic.exit_path_steps"], 1e9),
            "stochastic.lax_residual_s": span("stochastic.lax_residual"),
            "stochastic.lax_path_steps": c["stochastic.lax_path_steps"],
            "stochastic.lax_ns_per_path_step": per(span("stochastic.lax_residual"),
                                                   c["stochastic.lax_path_steps"], 1e9),
        })
        return m

    def span_records(self) -> list[dict]:
        return [{"trace": self.run_id, "id": i, "name": n, "start": s, "end": e,
                 "parent": p} for i, n, s, e, p in self.spans]
