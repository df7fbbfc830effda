"""Configuration-driven command line front end.

Commands run pipeline stages with dependency resolution and write
machine-readable CSV/JSON artifacts named ``<command>_<confighash>.*``.
Exit status: 0 all checks pass, 2 a verification verdict failed, 1 execution
or configuration error.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict
from functools import lru_cache
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, WeakKamError, config_number
from .model import model_from_config, verify_hypotheses
from .orbit_hessian import lambda_averages
# critical_value and solve_cell run inside Artifacts; they stay importable from here
from .variational import (GridSpec, Numerics, aubry_verify, barrier_matrix,  # noqa: F401
                          critical_value)
from .viscous import residual_check, solve_cell  # noqa: F401
from .vv_analysis import Artifacts, example_verify, rescale_check, slope_fit, sweep
from .stochastic import DriftField, exit_time_scaling, lax_residual

# the keys each config block may carry, by dotted path ("" is the top level)
CONFIG_KEYS = {
    "": ("model", "grid", "numerics", "sweep", "stochastic", "output"),
    "model": ("family", "potential", "momentum_shift", "wind", "growth_constant"),
    "model.potential": ("terms",),
    "grid": ("nx", "nt"),
    "numerics": tuple(asdict(Numerics())),
    "sweep": ("eps_list",),
    "stochastic": ("n_paths", "dt", "delta", "kappa", "seed", "eps_list"),
    "output": ("directory", "formats"),
}
OUTPUT_FORMATS = ("json", "csv")
SEED_LIMIT = 2 ** 63   # a path's Philox key is seed plus a small offset, as a uint64


def _require(cond, message, field):
    if not cond:
        raise ConfigError(message, field=field)


def _block(cfg, name):
    """Config block ``name``, or {} when absent, checked to be a JSON object
    with no key outside ``CONFIG_KEYS[name]``."""
    block = cfg
    for key in filter(None, name.split(".")):
        block = block.get(key, {})
    _require(isinstance(block, dict), f"{name or 'config'} must be a JSON object", name)
    for key in block:
        field = f"{name}.{key}" if name else key
        _require(key in CONFIG_KEYS[name], f"unknown config key {field}", field)
    return block


def _number_field(block, key, prefix, integer=False, least=None):
    """Check block[key] is a number above 0, or at least ``least`` when given."""
    field = f"{prefix}.{key}"
    value = config_number(block[key], field, integer=integer)
    if least is None:
        _require(value > 0, f"{field} must be positive", field)
    else:
        _require(value >= least, f"{field} must be at least {least}", field)


def _seed(value):
    """Check a stochastic.seed, from the config or from --seed."""
    _number_field({"seed": value}, "seed", "stochastic", integer=True, least=0)
    _require(value < SEED_LIMIT, "stochastic.seed must be below 2**63", "stochastic.seed")


def _eps_list(values, field):
    _require(isinstance(values, list), f"{field} must be a list", field)
    _require(all(config_number(e, field) > 0 for e in values),
             f"{field} entries must be positive", field)
    _require(all(b < a for a, b in zip(values, values[1:])),
             f"{field} must be strictly decreasing", field)


def validate_config(cfg: dict) -> dict:
    """Schema checks; raises ConfigError naming the offending field path.

    Returns a copy of ``cfg`` with the ``numerics`` block filled in from the
    defaults of ``Numerics``; written values stay as written (``400.0`` too).
    """
    _block(cfg, "")
    for name in ("model", "grid"):
        _require(name in cfg, f"missing {name} block", name)
    _block(cfg, "model")
    _block(cfg, "model.potential")
    model_from_config(cfg["model"])
    grid = _block(cfg, "grid")
    _require("nx" in grid and "nt" in grid, "grid block must carry nx and nt", "grid")
    _number_field(grid, "nx", "grid", integer=True, least=2)
    _number_field(grid, "nt", "grid", integer=True)
    defaults = asdict(Numerics())
    numerics = {**defaults, **_block(cfg, "numerics")}
    for key, default in defaults.items():
        _number_field(numerics, key, "numerics", integer=isinstance(default, int))
    eps_list = _block(cfg, "sweep").get("eps_list", [])
    _eps_list(eps_list, "sweep.eps_list")
    stoch = _block(cfg, "stochastic")
    if stoch:
        for key in ("n_paths", "dt", "delta", "kappa"):
            _require(key in stoch, f"stochastic.{key} missing", f"stochastic.{key}")
            # a standard error needs two paths
            _number_field(stoch, key, "stochastic", integer=key == "n_paths",
                          least=2 if key == "n_paths" else None)
        if "seed" in stoch:
            _seed(stoch["seed"])
        stoch_eps = stoch.get("eps_list", eps_list)
        _eps_list(stoch_eps, "stochastic.eps_list")
        # the stochastic stage's and exit_times' own preconditions, checked
        # here so that a run fails before its first stage, not midway
        _require(stoch_eps, "stochastic block needs an eps list (stochastic.eps_list "
                 "or sweep.eps_list)", "stochastic.eps_list")
        delta = float(stoch["delta"])
        _require(delta < 0.5, "stochastic.delta, the exit radius, must be below half the circle",
                 "stochastic.delta")
        dt_max = delta * delta / (8.0 * float(max(stoch_eps)))
        _require(stoch["dt"] <= dt_max,
                 f"stochastic.dt={stoch['dt']} too coarse for the exit scale (need <= "
                 f"delta^2/(8 max eps) = {dt_max:.3e})", "stochastic.dt")
    output = _block(cfg, "output")
    _require(isinstance(output.get("directory", ""), str),
             "output.directory must be a string", "output.directory")
    formats = output.get("formats", [])
    _require(isinstance(formats, list) and all(f in OUTPUT_FORMATS for f in formats),
             f"output.formats must be a list of {OUTPUT_FORMATS}", "output.formats")
    cfg = dict(cfg)
    cfg["numerics"] = numerics
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}", field="")
    return validate_config(raw)


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canonical).hexdigest()[:12]


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return obj


def _csv_cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def emit_reports(results: dict, command: str, cfg: dict, out_dir: str,
                 wall_times: dict, csv_tables: dict | None = None) -> list[str]:
    """Write <command>_<hash>.json (+ .csv tables); returns the file list."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{command}_{config_hash(cfg)}"
    formats = cfg.get("output", {}).get("formats", OUTPUT_FORMATS)
    written = []
    if "json" in formats:
        payload = {
            "command": command,
            "version": f"weakkam {__version__}",
            "config": cfg,
            "results": _json_ready(results),
            "wall_times": wall_times,
        }
        path = out / f"{tag}.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(str(path))
    if "csv" in formats and csv_tables:
        for name, (header, rows) in csv_tables.items():
            path = out / f"{tag}_{name}.csv"
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                fh.writelines(",".join(map(_csv_cell, row)) + "\n" for row in rows)
            written.append(str(path))
    return written


@lru_cache(maxsize=1)   # a run writes all its grid tables on one grid
def _grid_index_cells(grid: GridSpec) -> tuple[str, ...]:
    """The cells x_index,t_index,x,t of each (node, substep) row, joined as
    ``emit_reports`` joins a row's cells."""
    a, j = np.divmod(np.arange(grid.nx * grid.nt), grid.nt)
    columns = (a.tolist(), j.tolist(), (a / grid.nx).tolist(), (j / grid.nt).tolist())
    return tuple(",".join(map(_csv_cell, row)) for row in zip(*columns))


def _grid_table(grid: GridSpec, **fields):
    """CSV table with one row (x_index, t_index, x, t, *fields) per (node, substep);
    a row's first cell carries its four index cells, already joined."""
    columns = [np.ravel(f).tolist() for f in fields.values()]
    return ("x_index", "t_index", "x", "t", *fields), list(zip(_grid_index_cells(grid), *columns))


class _Pipeline(Artifacts):
    """Stage runner: the config's ``Artifacts``, which every stage reads and the
    analysis stages hand to ``sweep``, ``rescale_check`` and ``example_verify``."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        super().__init__(model_from_config(cfg["model"]),
                         GridSpec(int(cfg["grid"]["nx"]), int(cfg["grid"]["nt"])),
                         Numerics(**cfg["numerics"]))

    # ---- stages -----------------------------------------------------------
    def stage_orbits(self):
        hyp = verify_hypotheses(self.model)
        rows = []
        for i, o in enumerate(self.orbits):
            rows.append({
                "index": i,
                "anchor_x": o.anchor.x,
                "anchor_p": o.anchor.p,
                "period": o.period,
                "winding": o.winding,
                "floquet_exponents": [[e.real, e.imag] for e in o.floquet_exponents],
                "hyperbolic": o.hyperbolic,
                "residual": o.residual,
            })
        results = {"orbits": rows, "hypotheses": {
            "min_h_pp": hyp.min_h_pp, "growth_min": hyp.growth_min,
            "ok": hyp.ok}}
        return results, {}, hyp.ok

    def stage_critical(self):
        cv = self.critical
        results = {"c": cv.c, "c_karp": cv.c_karp, "c_power": cv.c_power,
                   "agreement": cv.agreement, "exact_regime": cv.exact_regime}
        # critical_value raises when Karp and power iteration disagree
        return results, {}, True

    def stage_barrier(self):
        fields = self.fields
        residuals = aubry_verify(fields, self.orbits, aubry_tol=self.numerics.aubry_tol)
        H, Phi = barrier_matrix(fields)
        tables = {f"anchor{i}": _grid_table(self.grid, h=fld.h, phi_pot=fld.phi_pot)
                  for i, fld in enumerate(fields)}
        results = {
            "c": self.critical.c,
            "anchors": [f.anchor_x for f in fields],
            "window_osc": [f.window_osc for f in fields],
            "sweeps": [f.n_sweeps for f in fields],
            "diagonal_residuals": [r.residual for r in residuals],
            "h_matrix": H,
            "phi_matrix": Phi,
        }
        ok = all(r.ok for r in residuals)
        return results, tables, ok

    def viscosities(self, stage: str) -> list:
        """The eps whose viscous solutions ``stage`` reads, in the order it
        reads them: ``sweep.eps_list`` for viscous and sweep, and the least of
        ``stochastic.eps_list`` (else of the sweep's) for stochastic.  A list
        the config lacks is empty; the stage that needs it says so."""
        sweep_list = self.cfg.get("sweep", {}).get("eps_list", [])
        if stage in ("viscous", "sweep"):
            return sweep_list
        stoch = self.cfg.get("stochastic")
        if stage == "stochastic" and stoch:
            return [min(stoch.get("eps_list", sweep_list))]
        return []

    def stage_viscous(self):
        eps_list = self.viscosities("viscous")
        _require(eps_list, "viscous stage needs sweep.eps_list", "sweep.eps_list")
        tables = {}
        records = []
        ok = True
        for eps in eps_list:
            sol = self.solution(eps)
            res = residual_check(self.model, sol)
            records.append({"epsilon": eps, "c_eps": sol.c_eps, "lip_x": sol.lip_x,
                            "semiconvexity_const": sol.semiconvexity_const,
                            "periodicity_residual": sol.periodicity_residual,
                            "operator_residual": res,
                            "n_periods": sol.n_periods,
                            "steps_per_period": sol.m_sub * self.grid.nt})
            tables[f"eps{eps}"] = _grid_table(self.grid, phi=sol.phi)
            ok = ok and res <= 10 * self.numerics.cell_tol
        return {"solves": records}, tables, ok

    def stage_sweep(self):
        rep = self._timed("sweep", lambda: sweep(self, self.viscosities("sweep")))
        verdict = slope_fit(rep, slope_tol=self.numerics.slope_tol)
        trend_ok = all(b <= a * 1.10 for a, b in
                       zip(rep.limit_errors, rep.limit_errors[1:]))
        lips, semis = rep.lip_records, rep.semiconvexity_records
        reg_ok = (max(lips) <= 2 * min(lips)
                  and max(semis) <= 2 * max(min(semis), 1e-12))
        rows = list(zip(rep.eps_list, rep.c_records, rep.slope_secants, rep.limit_errors,
                        rep.grad_errors, lips, semis))
        tables = {"sweep": (("epsilon", "c_eps", "secant", "limit_error",
                             "grad_error", "lip_x", "semiconvexity_const"), rows)}
        results = {
            "c0": rep.c0,
            "lambdas": rep.lambdas,
            "lambda_bar": rep.lambda_bar,
            "selected": rep.selected,
            "anchors": rep.anchors,
            "anchor_values": rep.anchor_values,
            "records": rows,
            "slope_fit": rep.slope_fit,
            "verdicts": {
                "secant_lower_bound": verdict.lower_bound_ok,
                "slope_fit": verdict.fit_ok,
                "limit_error_trend": trend_ok,
                "regularity_factor_2": reg_ok,
            },
        }
        ok = verdict.ok and trend_ok and reg_ok
        return results, tables, ok

    def stage_rescale(self):
        # rescale_check reads the orbits and c(0) itself, so building them,
        # when no earlier stage has, is timed with this stage
        rep = self._timed("rescale", lambda: rescale_check(self))
        return asdict(rep), {}, rep.ok(grid_tol=self.numerics.grid_tol)

    def stage_example(self):
        _require(self.model.family == "traveling_wave",
                 "example stage needs a traveling_wave model", "model.family")
        rep = self._timed("example", lambda: example_verify(self))
        return asdict(rep), {}, rep.ok()

    def stage_stochastic(self):
        stoch = self.cfg.get("stochastic")
        _require(stoch, "stochastic stage needs a stochastic block", "stochastic")
        eps_list = stoch.get("eps_list", self.viscosities("sweep"))
        seed = int(stoch.get("seed", 0))
        n_paths = int(stoch["n_paths"])
        dt = float(stoch["dt"])
        delta = float(stoch["delta"])
        kappa = float(stoch["kappa"])

        # selected orbit for the tube
        lam = lambda_averages(self.curves)
        sel = self.orbits[lam.argmin[0]]
        drift = DriftField.from_barrier(self.model, self.fields[lam.argmin[0]])
        fw = self._timed("exit_scaling", lambda: exit_time_scaling(
            self.model, sel, drift, eps_list, delta, n_paths, kappa, dt, seed))

        sol = self.solution(*self.viscosities("stochastic"))
        opt = DriftField.from_viscous(self.model, sol)
        probes = self._timed("lax_probes", lambda: lax_residual(
            self.model, sol, opt, kappa=min(kappa, 2.0), n_paths=n_paths,
            dt=dt, seed=seed))
        lax_ok = all(p.residual <= max(0.02, 2 * p.se) for p in probes)

        rows = [(r.epsilon, n_paths, r.mean_tau, r.ci_low, r.ci_high,
                 r.eps_log_mean_tau, r.capped_fraction, r.mean_tau_free,
                 r.eps_log_ratio) for r in fw.records]
        tables = {"exit": (("epsilon", "n_paths", "mean_tau", "ci_low",
                            "ci_high", "eps_log_mean_tau", "capped_fraction",
                            "mean_tau_free", "eps_log_ratio"),
                           rows),
                  "lax": (("x", "t", "lhs", "rhs", "residual", "se"),
                          [(p.x, p.t, p.lhs, p.rhs, p.residual, p.se)
                           for p in probes])}
        results = {
            "exit_records": rows,
            "exit_all_positive": fw.all_positive,
            "exit_nondecreasing": fw.nondecreasing,
            "lax": [{**asdict(p), "residual": p.residual} for p in probes],
            "lax_ok": lax_ok,
        }
        return results, tables, fw.ok and lax_ok

    STAGES = {
        "orbits": stage_orbits,
        "critical": stage_critical,
        "barrier": stage_barrier,
        "viscous": stage_viscous,
        "sweep": stage_sweep,
        "rescale": stage_rescale,
        "example": stage_example,
        "stochastic": stage_stochastic,
    }


# the stages in run order, then "all", which runs every stage the config supports
COMMANDS = (*_Pipeline.STAGES, "all")


def run_config(path: str, command: str, out_dir: str | None = None,
               seed_override: int | None = None) -> int:
    """Execute a pipeline command; returns the process exit status.

    Artifacts go to ``out_dir`` when given, else to the config's
    ``output.directory``, else to the working directory.
    """
    if command not in COMMANDS:
        print(f"unknown command {command!r}; choose from {COMMANDS}",
              file=sys.stderr)
        return 1
    try:
        cfg = load_config(path)
        if seed_override is not None:
            _seed(seed_override)
        pipe = _Pipeline(cfg)
        names = list(_Pipeline.STAGES) if command == "all" else [command]
        if command == "all":
            # the example stage only applies to traveling-wave configs
            if cfg["model"].get("family") != "traveling_wave":
                names.remove("example")
            if not cfg.get("stochastic"):
                names.remove("stochastic")
            if not pipe.viscosities("sweep"):
                names = [n for n in names if n not in ("viscous", "sweep")]
        # before the first stage runs; viscous alone runs with one viscosity
        _require("sweep" not in names or len(pipe.viscosities("sweep")) >= 3,
                 "sweep needs >= 3 viscosities", "sweep.eps_list")
    except ConfigError as exc:
        print(f"config error at '{exc.field}': {exc}", file=sys.stderr)
        return 1
    if seed_override is not None and cfg.get("stochastic"):
        # a config without a stochastic block has no seed to override
        cfg["stochastic"]["seed"] = int(seed_override)
    if out_dir is None:
        out_dir = cfg.get("output", {}).get("directory") or "."

    overall_ok = True
    try:
        # the solves overlap the stages before the first that reads one
        pipe.prefetch([eps for name in names for eps in pipe.viscosities(name)])
        for name in names:
            try:
                results, tables, ok = pipe.STAGES[name](pipe)
            except ConfigError as exc:
                print(f"config error at '{exc.field}': {exc}", file=sys.stderr)
                return 1
            except WeakKamError as exc:
                print(f"{name} failed: {exc}", file=sys.stderr)
                return 1
            results["pass"] = bool(ok)
            files = emit_reports(results, name, cfg, out_dir, pipe.wall, tables)
            overall_ok = overall_ok and ok
            print(f"[{name}] {'PASS' if ok else 'FAIL'} -> {', '.join(files) or '(no files)'}")
    finally:
        pipe.close()
    return 0 if overall_ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wkam",
        description="weak-KAM toolkit: critical values, barriers, orbits and "
                    "vanishing-viscosity selection on the circle")
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--command", default="all", choices=COMMANDS)
    parser.add_argument("--out", default=None,
                        help="output directory (default: the config's "
                             "output.directory, else the working directory)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override stochastic.seed")
    args = parser.parse_args(argv)
    try:
        return run_config(args.config, args.command, out_dir=args.out,
                          seed_override=args.seed)
    except WeakKamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
