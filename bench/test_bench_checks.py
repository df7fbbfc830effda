"""Every check passes on artifacts built from the oracles and fails when one value is perturbed."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from checks import CHECKS, run_checks
from workloads import WORKLOADS, make_config

LAM_BENCH = [2 * math.pi * math.sqrt(3), 2 * math.pi]
LAM_TW = 2 * math.sqrt(2) * math.pi


def _stage(results):
    return {"results": {**results, "pass": True}}


def sweep_artifacts(cfg):
    vmax, _ = oracles.extrema(cfg["model"]["potential"]["terms"])
    records = [[eps, vmax - 2 * math.pi * eps, -2 * math.pi, err, 0.05, 1.4, 6.7]
               for eps, err in ((0.02, 0.12), (0.01, 0.066), (0.005, 0.038))]
    return {"sweep": _stage({"c0": vmax, "anchors": [0.0, 0.5], "lambdas": LAM_BENCH,
                             "selected": [1], "slope_fit": -6.62, "records": records})}


def traveling_wave_artifacts(cfg):
    terms = cfg["model"]["potential"]["terms"]
    vmax, _ = oracles.extrema(terms)
    nx, nt = cfg["grid"]["nx"], cfg["grid"]["nt"]
    xi, ti = np.meshgrid(np.arange(nx), np.arange(nt), indexing="ij")
    x, t = xi.ravel() / nx, ti.ravel() / nt
    h = np.empty_like(x)
    for j in range(nt):
        col = ti.ravel() == j
        h[col] = oracles.moving_frame_barrier(terms, 2, 0.0, x[col], t=j / nt)
    return {
        "orbits": _stage({"orbits": [{"anchor_x": 0.0,
                                      "floquet_exponents": [[LAM_TW, 0.0], [-LAM_TW, 0.0]]}]}),
        "critical": _stage({"c": vmax - 6e-4}),
        "barrier": _stage({"anchors": [0.0]}),
        "barrier/anchor0": {"x_index": xi.ravel(), "t_index": ti.ravel(), "x": x, "t": t,
                            "h": h, "phi_pot": h},
        "rescale": _stage({"N": 2, "vacuous": False, "barrier_identity_error": 1e-15}),
    }


def sde_artifacts(cfg):
    st = cfg["stochastic"]
    rows, lax = [], []
    for eps in st["eps_list"]:
        free = oracles.flat_exit_mean(st["delta"], eps, st["dt"])
        mean = free * math.exp(0.0125 / eps)
        rows.append([eps, st["n_paths"], mean, mean * 0.95, mean * 1.05,
                     eps * math.log(mean), 0.0, free, 0.0125])
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        lax.append({"x": x, "t": 0.0, "lhs": 0.1, "rhs": 0.105, "se": 0.003, "residual": 0.005})
    return {"stochastic": _stage({"exit_records": rows, "lax": lax})}


def _set(path, value):
    def mutate(arts):
        *keys, last = path
        node = arts
        for k in keys:
            node = node[k]
        node[last] = value(node[last]) if callable(value) else value
    return mutate


def _bump_barrier(arts):
    table = arts["barrier/anchor0"]
    table["h"][np.flatnonzero(table["t_index"] == 0)[5]] += 0.05


# workload -> (synthetic artifacts, {check name: mutation that must fail it})
CASES = {
    "viscous_sweep": (sweep_artifacts, {
        "lambda_oracle": _set(("sweep", "results", "lambdas", 0), lambda v: v + 0.01),
        "selected_anchor": _set(("sweep", "results", "selected"), [0]),
        "c0_max_v": _set(("sweep", "results", "c0"), lambda v: v + 0.01),
        "c_eps_bracket": _set(("sweep", "results", "records", 0, 1), lambda v: v - 2.0),
        "slope_fit": _set(("sweep", "results", "slope_fit"), -2 * math.pi * 1.2),
        "limit_errors_decreasing": _set(("sweep", "results", "records", 2, 3), 0.066),
    }),
    "pipeline_traveling_wave": (traveling_wave_artifacts, {
        "floquet_exponents": _set(("orbits", "results", "orbits", 0, "floquet_exponents", 1, 0),
                                  lambda v: v - 1e-5),
        "c_velocity_quantum": _set(("critical", "results", "c"), lambda v: v - 1e-3),
        "barrier_moving_frame": _bump_barrier,
        "rescale_identity": _set(("rescale", "results", "barrier_identity_error"), 0.03),
    }),
    "sde_ensembles": (sde_artifacts, {
        "flat_exit_oracle": _set(("stochastic", "results", "exit_records", 1, 7),
                                 lambda v: v * 1.3),
        "fw_ratio_positive": _set(("stochastic", "results", "exit_records", 2, 2),
                                  lambda v: v * math.exp(-0.0126 / 0.02)),
        "eps_log_tau_nondecreasing": _set(("stochastic", "results", "exit_records", 1, 2),
                                          lambda v: v * 5.0),
        "lax_probes": _set(("stochastic", "results", "lax", 3, "rhs"), 0.125),
        "capped_fraction": _set(("stochastic", "results", "exit_records", 0, 6), 0.5),
    }),
}


def _verdicts(name, arts):
    wl = WORKLOADS[name]
    return {n: ok for n, ok, _ in run_checks(name, make_config(wl, 0), arts, wl.stages)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_unperturbed_artifacts_pass_every_check(name):
    build, mutations = CASES[name]
    verdicts = _verdicts(name, build(make_config(WORKLOADS[name], 0)))
    assert set(verdicts) == set(mutations)
    assert all(verdicts.values()), verdicts


@pytest.mark.parametrize("name,check", [(n, c) for n in sorted(CASES) for c in CASES[n][1]])
def test_perturbed_value_fails_its_check(name, check):
    build, mutations = CASES[name]
    arts = build(make_config(WORKLOADS[name], 0))
    mutations[check](arts)
    assert _verdicts(name, arts)[check] is False


def test_checks_of_a_failed_stage_are_skipped():
    arts = sweep_artifacts(make_config(WORKLOADS["viscous_sweep"], 0))
    arts["sweep"]["results"]["pass"] = False
    assert _verdicts("viscous_sweep", arts) == {}


def test_seed_moves_the_constant_term_only():
    wl = WORKLOADS["viscous_sweep"]
    a, b = make_config(wl, 0), make_config(wl, 250)
    ta, tb = a["model"]["potential"]["terms"], b["model"]["potential"]["terms"]
    assert tb[0][1] - ta[0][1] == pytest.approx(0.25)
    assert ta[1:] == tb[1:] and make_config(wl, 250) == b
    assert make_config(WORKLOADS["sde_ensembles"], 5) == make_config(WORKLOADS["sde_ensembles"], 6)


def test_benchmark_json_matches_the_harness():
    from tracing import PER_LAYER
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    timed = [w["name"] for w in spec["workloads"]]
    assert timed == [n for n in WORKLOADS if n in timed]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert set(CHECKS) == set(WORKLOADS)


def test_run_refuses_a_tree_without_the_package(tmp_path, monkeypatch):
    import run
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "viscous_sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert list(tmp_path.iterdir()) == []
