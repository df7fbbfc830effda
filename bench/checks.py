"""Checks of a round's artifacts against the oracles of ``oracles.py``.

Each check reads values the program wrote (``<stage>_<hash>.json`` and its
CSV tables) and compares them with references rebuilt from the config alone,
never with a stored copy of an earlier run.  A check runs only when its stage
passed; a stage that failed is counted as a failed operation instead.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles


def load_artifacts(out_dir) -> dict:
    """{stage: payload} from the JSON files and {"stage/table": columns} from the CSVs."""
    arts = {}
    for path in sorted(Path(out_dir).glob("*_*")):
        stage, _, rest = path.stem.partition("_")
        if path.suffix == ".json":
            with open(path) as fh:
                arts[stage] = json.load(fh)
        elif path.suffix == ".csv":
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            arts[f"{stage}/{rest.split('_', 1)[1]}"] = {
                k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    return arts


def passed_stages(arts, stages) -> list[str]:
    return [s for s in stages if s in arts and arts[s]["results"].get("pass") is True]


def _circ(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _nearest_max(maxima, x):
    return min(maxima, key=lambda m: _circ(m[0], x))


def _check(name, ok, detail):
    return (name, bool(ok), detail)


def check_sweep(cfg, arts):
    r = arts["sweep"]["results"]
    terms = cfg["model"]["potential"]["terms"]
    vmax, vmin = oracles.extrema(terms)
    maxima = oracles.maxima(terms)
    near = [_nearest_max(maxima, a) for a in r["anchors"]]
    lam_err = max(abs(l - m[1]) for l, m in zip(r["lambdas"], near))
    pos_err = max(_circ(a, m[0]) for a, m in zip(r["anchors"], near))
    x_sel, lam_min = min(maxima, key=lambda m: m[1])
    sel = r["anchors"][r["selected"][0]]
    c_eps = [row[1] for row in r["records"]]
    errors = [row[3] for row in r["records"]]
    return [
        _check("lambda_oracle", len(near) == len(maxima) and lam_err <= 1e-3
               and pos_err <= 1e-6,
               f"{len(near)} orbits for {len(maxima)} maxima, |lambda - sqrt(-V'')| "
               f"<= {lam_err:.2e}"),
        _check("selected_anchor", _circ(sel, x_sel) <= 1e-6,
               f"selected {sel:.6f}, least sqrt(-V'') at {x_sel:.6f}"),
        _check("c0_max_v", abs(r["c0"] - vmax) <= 1e-3,
               f"c0 {r['c0']:.6g}, max V {vmax:.6g}"),
        _check("c_eps_bracket", all(vmin <= c <= vmax for c in c_eps),
               f"c(eps) {[round(c, 6) for c in c_eps]} in [{vmin:.4f}, {vmax:.4f}]"),
        _check("slope_fit", abs(r["slope_fit"] + lam_min) <= 0.15 * lam_min,
               f"fit {r['slope_fit']:.4f} against -{lam_min:.4f}"),
        _check("limit_errors_decreasing", all(b < a for a, b in zip(errors, errors[1:])),
               f"limit errors {[round(e, 5) for e in errors]}"),
    ]


def check_orbits_floquet(cfg, arts):
    terms = cfg["model"]["potential"]["terms"]
    maxima = oracles.maxima(terms)
    worst = 0.0
    for o in arts["orbits"]["results"]["orbits"]:
        lam = _nearest_max(maxima, o["anchor_x"])[1]
        exps = sorted(o["floquet_exponents"])
        worst = max(worst, abs(exps[0][0] + lam), abs(exps[1][0] - lam),
                    abs(exps[0][1]), abs(exps[1][1]))
    return [_check("floquet_exponents", worst <= 1e-6,
                   f"max deviation from +-sqrt(-V'') {worst:.2e}")]


def check_critical_quantum(cfg, arts):
    c = arts["critical"]["results"]["c"]
    vmax, _ = oracles.extrema(cfg["model"]["potential"]["terms"])
    q = (cfg["grid"]["nt"] / cfg["grid"]["nx"]) ** 2 / 8.0
    return [_check("c_velocity_quantum", abs(c - vmax) <= q,
                   f"|c - max V| = {abs(c - vmax):.2e} <= (nt/nx)^2/8 = {q:.2e}")]


def check_barrier_moving_frame(cfg, arts):
    terms = cfg["model"]["potential"]["terms"]
    k = int(cfg["model"]["wind"])
    anchor = _nearest_max(oracles.maxima(terms), arts["barrier"]["results"]["anchors"][0])[0]
    table = arts["barrier/anchor0"]
    col = table["t_index"] == 0
    want = oracles.moving_frame_barrier(terms, k, anchor, table["x"][col])
    err = float(np.max(np.abs(table["h"][col] - want)))
    return [_check("barrier_moving_frame", err <= 0.02,
                   f"max |h(., 0) - Jacobi quadrature| = {err:.2e}")]


def check_rescale(cfg, arts):
    r = arts["rescale"]["results"]
    return [_check("rescale_identity", not r["vacuous"] and r["barrier_identity_error"] <= 0.02,
                   f"N={r['N']}, barrier identity error {r['barrier_identity_error']:.2e}")]


def check_stochastic(cfg, arts):
    r = arts["stochastic"]["results"]
    st = cfg["stochastic"]
    delta, dt = float(st["delta"]), float(st["dt"])
    flat_gap, ratios, eps_log, capped = [], [], [], []
    for eps, n, mean, _lo, _hi, _elm, cap, free, _elr in r["exit_records"]:
        oracle = oracles.flat_exit_mean(delta, eps, dt)
        flat_gap.append(abs(free - oracle) / (3.0 * oracles.flat_exit_ci95(oracle, int(n))))
        ratios.append(eps * math.log(mean / free))
        eps_log.append(eps * math.log(mean))
        capped.append(cap)
    lax = [abs(p["lhs"] - p["rhs"]) / max(0.02, 2.0 * p["se"]) for p in r["lax"]]
    return [
        _check("flat_exit_oracle", max(flat_gap) <= 1.0,
               f"max |E tau_free - oracle| / 3 CI95 = {max(flat_gap):.3f}"),
        _check("fw_ratio_positive", min(ratios) > 0,
               f"eps log(E tau / E tau_free) {[round(v, 5) for v in ratios]}"),
        _check("eps_log_tau_nondecreasing", all(b >= a for a, b in zip(eps_log, eps_log[1:])),
               f"eps log E tau {[round(v, 5) for v in eps_log]}"),
        _check("lax_probes", max(lax) <= 1.0,
               f"max |lhs - rhs| / max(0.02, 2 se) = {max(lax):.3f}"),
        _check("capped_fraction", max(capped) < 0.5, f"capped fractions {capped}"),
    ]


# stage -> checks, per workload; a stage without checks is judged by its PASS alone
CHECKS = {
    "viscous_sweep": {"sweep": check_sweep},
    "pipeline_traveling_wave": {"orbits": check_orbits_floquet,
                                "critical": check_critical_quantum,
                                "barrier": check_barrier_moving_frame,
                                "rescale": check_rescale},
    "sde_ensembles": {"stochastic": check_stochastic},
}


def run_checks(workload: str, cfg: dict, arts: dict, stages) -> list[tuple]:
    """Every check of the workload whose stage passed."""
    passed = passed_stages(arts, stages)
    return [c for stage, fn in CHECKS[workload].items() if stage in passed
            for c in fn(cfg, arts)]
