"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Benchmark potential V(x) = -sin^2(2 pi x)(1 + cos(2 pi x)/2), maxima at x=0
(V'' = -12 pi^2) and x=1/2 (V'' = -4 pi^2).  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.

Two criteria check against closed forms that need a word of explanation:

* criterion 2: for H = (p+P)^2/2 the continuum critical value is P^2/2
  (u = 0 solves the cell problem).  The kernels move a path by j nodes per
  substep, at velocity v_j = j nt/nx, and the Lagrangian v^2/2 - Pv carries no
  x-dependence, so the minimum mean cycle is the best constant-velocity loop:
  c = max_j (P v_j - v_j^2/2), exactly.  At 400 x 64 that is 0.2432 (v = 0.64,
  16 windings in 25 periods); it lies within the velocity-quantum bound
  (nt/nx)^2/8 of P^2/2 = 0.245;
* criterion 9: the Freidlin-Wentzell verdict is eps log(E tau / E tau_free) > 0,
  with E tau_free the zero-drift ensemble in the same tube on the same noise.
  eps log E tau alone depends on the unit of time and is promised positive
  only as eps -> 0: the exact linearised (Ornstein-Uhlenbeck, lambda = 2 pi)
  process has E tau = 0.0716, 0.166, 0.461 at eps = 0.08, 0.04, 0.02, so
  eps log E tau < 0 down to eps ~ 0.01.  The ratio tends to the same barrier
  lambda delta^2/2 ~ 0.031 and is positive at every listed eps.
"""

import json
import math
import time

import numpy as np
import pytest

from weakkam.dynamics import aubry_orbits
from weakkam.model import HamiltonianModel, PotentialSpec, benchmark_potential
from weakkam.orbit_hessian import fd_crosscheck, lambda_averages, unstable_hessian_curve
from weakkam.stochastic import (DriftField, StaticCenter, exit_time_scaling,
                                exit_times, lax_residual)
from weakkam.variational import (GridSpec, Numerics, anchored_barrier, build_kernels,
                                 critical_value)
from weakkam.viscous import solve_cell
from weakkam.vv_analysis import Artifacts, example_verify, rescale_check, slope_fit, sweep

TWO_PI = 2 * math.pi
LAMBDA_1 = TWO_PI * math.sqrt(3)
LAMBDA_2 = TWO_PI


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")


@pytest.fixture(scope="session")
def bench():
    return HamiltonianModel(family="mechanical", potential=benchmark_potential())


@pytest.fixture(scope="session")
def lambda_setup(bench):
    """Criteria 1 and 3 share the fine-grid barrier fields (nx=800)."""
    t0 = time.perf_counter()
    grid = GridSpec(800, 32)
    orbits = aubry_orbits(bench)
    orbits.sort(key=lambda o: o.anchor.x)
    kernels = build_kernels(bench, grid)
    c = critical_value(kernels).c
    fields = [anchored_barrier(kernels, c, o.anchor.x, window=1) for o in orbits]
    curves = [unstable_hessian_curve(bench, o) for o in orbits]
    elapsed = time.perf_counter() - t0
    return {"grid": grid, "orbits": orbits, "kernels": kernels, "c": c,
            "fields": fields, "curves": curves, "elapsed": elapsed}


@pytest.fixture(scope="session")
def bench_sweep(bench):
    """Criteria 4-7 share one sweep at nx=400, nt=64."""
    t0 = time.perf_counter()
    rep = sweep(Artifacts(bench, GridSpec(400, 64)), [0.02, 0.01, 0.005, 0.0025])
    rep.elapsed = time.perf_counter() - t0
    return rep


def test_criterion_1_lambda_oracle(lambda_setup):
    t0 = time.perf_counter()
    curves = lambda_setup["curves"]
    orbits = lambda_setup["orbits"]
    lam = {round(o.anchor.x, 2): c.lambda_i for o, c in zip(orbits, curves)}
    err1 = abs(lam[0.0] - LAMBDA_1)
    err2 = abs(lam[0.5] - LAMBDA_2)
    devs = [fd_crosscheck(f, o, c).deviation
            for f, o, c in zip(lambda_setup["fields"], orbits, curves)]
    elapsed = lambda_setup["elapsed"] + time.perf_counter() - t0
    ok = err1 <= 1e-3 and err2 <= 1e-3 and max(devs) <= 0.05 and elapsed < 60
    report(1, "lambda oracle", ok,
           f"lambda_1 err {err1:.2e}, lambda_2 err {err2:.2e}, "
           f"fd deviations {[f'{d:.3f}' for d in devs]}, runtime {elapsed:.0f}s")
    assert err1 <= 1e-3
    assert err2 <= 1e-3
    assert max(devs) <= 0.05
    assert elapsed < 60


def test_criterion_2_critical_values(bench):
    t0 = time.perf_counter()
    grid = GridSpec(400, 64)
    cv_mech = critical_value(build_kernels(bench, grid))
    P = 0.7
    sk = HamiltonianModel(family="shifted_kinetic", momentum_shift=P)
    sk_kernels = build_kernels(sk, grid)
    cv_sk = critical_value(sk_kernels)
    elapsed = time.perf_counter() - t0
    # closed forms: the best grid velocity v_j = j nt/nx within the kernel's
    # velocity range, and the velocity-quantum bound around P^2/2
    quantum = grid.nt / grid.nx
    v = sk_kernels.offsets * quantum
    c_grid = float(np.max(P * v - v * v / 2))
    c_cont = P * P / 2
    agree = max(cv_mech.agreement, cv_sk.agreement)
    ok = (abs(cv_mech.c) <= 1e-3 and abs(cv_sk.c - c_grid) <= 1e-12
          and abs(cv_sk.c - c_cont) <= quantum ** 2 / 8
          and agree <= 1e-6 and elapsed < 120)
    report(2, "critical values", ok,
           f"mechanical c = {cv_mech.c:.6f}, shifted c = {cv_sk.c:.6f} "
           f"(grid closed form {c_grid:.6f}, continuum P^2/2 = {c_cont:.6f} "
           f"within {quantum ** 2 / 8:.4f}), agreement {agree:.2e}, "
           f"runtime {elapsed:.0f}s")
    assert abs(cv_mech.c) <= 1e-3
    assert agree <= 1e-6
    assert elapsed < 120
    assert abs(cv_sk.c - c_grid) <= 1e-12
    assert abs(cv_sk.c - c_cont) <= quantum ** 2 / 8


def test_criterion_3_barrier_oracle(lambda_setup, bench_oracle):
    t0 = time.perf_counter()
    grid = lambda_setup["grid"]
    nodes = grid.nodes()
    worst = 0.0
    for fld, orbit in zip(lambda_setup["fields"], lambda_setup["orbits"]):
        oracle = bench_oracle.distance(nodes, orbit.anchor.x)
        worst = max(worst, float(np.max(np.abs(fld.h[:, 0] - oracle))))
    elapsed = lambda_setup["elapsed"] + time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 120
    report(3, "barrier oracle", ok,
           f"sup error vs sqrt(-2V) quadrature {worst:.4f} (tol 0.02), "
           f"runtime {elapsed:.0f}s")
    assert worst <= 0.02
    assert elapsed < 120


def test_criterion_4_selection_principle(bench_sweep):
    rep = bench_sweep
    sel_anchor = [rep.anchors[i] for i in rep.selected]
    errs = rep.limit_errors
    strictly_decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = (sel_anchor == [0.5] and strictly_decreasing and errs[-1] <= 0.1
          and rep.elapsed < 600)
    report(4, "selection principle", ok,
           f"selected anchors {sel_anchor}, limit errors "
           f"{[f'{e:.4f}' for e in errs]}, runtime {rep.elapsed:.0f}s")
    assert sel_anchor == [0.5]
    assert strictly_decreasing
    assert errs[-1] <= 0.1
    assert rep.elapsed < 600


def test_criterion_5_slope_law(bench_sweep):
    rep = bench_sweep
    verdict = slope_fit(rep, slope_tol=0.15)
    rel = abs(rep.slope_fit + rep.lambda_bar) / rep.lambda_bar
    ok = verdict.lower_bound_ok and verdict.fit_ok
    report(5, "slope law", ok,
           f"secants {[f'{s:.3f}' for s in rep.slope_secants]} >= "
           f"{-rep.lambda_bar * 1.15:.3f}, fit {rep.slope_fit:.4f} vs "
           f"-lambda_bar {-rep.lambda_bar:.4f} ({rel * 100:.1f}%)")
    assert verdict.lower_bound_ok
    assert verdict.fit_ok


def test_criterion_6_ergodic_constant_bracket(bench, bench_sweep):
    # hard bracket min V <= c(eps) <= 0, tolerance 1e-6 (the solver enforces
    # it on every solve; re-checked here on the sweep records)
    vmin = bench.potential.min_on_grid()
    ok = all(vmin - 1e-6 <= c <= 1e-6 for c in bench_sweep.c_records)
    report(6, "c(eps) bracket", ok,
           f"c records {[f'{c:.5f}' for c in bench_sweep.c_records]} in "
           f"[{vmin:.4f}, 0]")
    for c in bench_sweep.c_records:
        assert vmin - 1e-6 <= c <= 1e-6


def test_criterion_7_regularity_uniformity(bench_sweep):
    lips = bench_sweep.lip_records
    semis = bench_sweep.semiconvexity_records
    lip_factor = max(lips) / min(lips)
    semi_factor = max(semis) / min(semis)
    ok = lip_factor <= 2.0 and semi_factor <= 2.0
    report(7, "regularity uniformity", ok,
           f"lip range [{min(lips):.3f}, {max(lips):.3f}] factor {lip_factor:.2f}, "
           f"semiconvexity range [{min(semis):.2f}, {max(semis):.2f}] "
           f"factor {semi_factor:.2f}")
    assert lip_factor <= 2.0
    assert semi_factor <= 2.0


def test_criterion_8_traveling_wave_example():
    t0 = time.perf_counter()
    V = PotentialSpec.from_terms([(0, -0.5, 0.0), (2, 0.5, 0.0)])
    tw = HamiltonianModel(family="traveling_wave", potential=V, wind=2)
    art = Artifacts(tw, GridSpec(400, 64), Numerics(shoot_tol=1e-5))
    ex = example_verify(art)
    rc = rescale_check(art)
    elapsed = time.perf_counter() - t0
    ric = max(ex.riccati_errors)
    fd = max(ex.fd_deviations)
    lam_err = max(rc.lambda_errors)
    ok = (ric <= 1e-3 and fd <= 0.05 and ex.shift_consistency_error <= 0.02
          and rc.barrier_identity_error <= 0.02 and lam_err <= 1e-6
          and elapsed < 300)
    report(8, "traveling-wave example", ok,
           f"riccati err {ric:.2e}, fd dev {fd:.4f}, shift consistency "
           f"{ex.shift_consistency_error:.4f}, rescale identity "
           f"{rc.barrier_identity_error:.4f}, rescaled lambda err {lam_err:.2e}, "
           f"runtime {elapsed:.0f}s")
    assert ric <= 1e-3
    assert fd <= 0.05
    assert ex.shift_consistency_error <= 0.02
    assert rc.barrier_identity_error <= 0.02
    assert lam_err <= 1e-6
    assert elapsed < 300


def test_criterion_9_stochastic_oracles(bench):
    t0 = time.perf_counter()
    free = HamiltonianModel(family="mechanical")
    delta = 0.1
    flat_devs = []
    for eps in (0.01, 0.005):
        ens = exit_times(free, DriftField.zero(), StaticCenter(0.0), eps, delta,
                         20000, 1.5e-5, 11, 10.0)
        oracle = delta ** 2 / (2 * eps)
        flat_devs.append(abs(ens.mean_tau - oracle) / ens.tau_ci95)
    flat_ok = all(d <= 3.0 for d in flat_devs)

    grid = GridSpec(400, 64)
    kernels = build_kernels(bench, grid)
    c = critical_value(kernels).c
    fld = anchored_barrier(kernels, c, 0.5, window=1)
    drift = DriftField.from_barrier(bench, fld)
    orbits = aubry_orbits(bench)
    sel = [o for o in orbits if abs(o.anchor.x - 0.5) < 1e-9][0]
    fw = exit_time_scaling(bench, sel, drift, [0.08, 0.04, 0.02], delta,
                           20000, kappa=20.0, dt=5e-4, seed=2024)
    eps_logs = [r.eps_log_mean_tau for r in fw.records]
    eps_ratios = [r.eps_log_ratio for r in fw.records]

    sol = solve_cell(bench, 0.02, grid, normalize_node=200)
    opt = DriftField.from_viscous(bench, sol)
    probes = lax_residual(bench, sol, opt, kappa=2.0, n_paths=20000, dt=1e-3,
                          seed=7)
    lax_ok = all(p.residual <= max(0.02, 2 * p.se) for p in probes)
    elapsed = time.perf_counter() - t0

    ok = (flat_ok and fw.nondecreasing and fw.all_positive and lax_ok
          and elapsed < 600)
    report(9, "stochastic oracles", ok,
           f"flat-case devs {[f'{d:.2f}' for d in flat_devs]} CI, exit "
           f"eps*log E tau {[f'{v:+.4f}' for v in eps_logs]} "
           f"(nondecreasing {fw.nondecreasing}), "
           f"eps*log(E tau/E tau_free) {[f'{v:+.4f}' for v in eps_ratios]} "
           f"(positive {fw.all_positive}), "
           f"lax residuals {[f'{p.residual:.4f}' for p in probes]}, "
           f"runtime {elapsed:.0f}s")
    assert flat_ok
    assert fw.nondecreasing
    assert lax_ok
    assert elapsed < 600
    # the unit-free verdict eps log(E tau / E tau_free) > 0: the selected
    # orbit's drift holds paths in the tube longer than free noise does
    # (see module docstring)
    assert fw.all_positive


def test_criterion_10_determinism(bench, tmp_path):
    from weakkam.cli import run_config

    cfg = {
        "model": {"family": "mechanical",
                  "potential": {"terms": [[0, -0.5, 0.0], [1, -0.125, 0.0],
                                          [2, 0.5, 0.0], [3, 0.125, 0.0]]}},
        "grid": {"nx": 128, "nt": 16},
        "sweep": {"eps_list": [0.05, 0.03, 0.02]},
        "stochastic": {"n_paths": 400, "dt": 5e-4, "delta": 0.1, "kappa": 5.0,
                       "seed": 77, "eps_list": [0.08, 0.04]},
        "output": {"directory": str(tmp_path / "out"), "formats": ["json"]},
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cfg))
    payloads = []
    for rerun in range(2):
        for f in (tmp_path / "out").glob("*.json"):
            f.unlink()
        run_config(str(path), "sweep")
        run_config(str(path), "critical")
        run = {}
        for f in sorted((tmp_path / "out").glob("*.json")):
            data = json.loads(f.read_text())
            data.pop("wall_times", None)
            run[f.name] = data
        payloads.append(run)
    # stochastic reproducibility at matching seeds
    free = HamiltonianModel(family="mechanical")
    t1 = exit_times(free, DriftField.zero(), StaticCenter(0.0), 0.02, 0.1,
                    400, 2e-5, 9, 2.0)
    t2 = exit_times(free, DriftField.zero(), StaticCenter(0.0), 0.02, 0.1,
                    400, 2e-5, 9, 2.0)
    ok = payloads[0] == payloads[1] and np.array_equal(t1.tau_samples,
                                                       t2.tau_samples)
    report(10, "determinism", ok,
           f"payload match {payloads[0] == payloads[1]}, tau bit-match "
           f"{np.array_equal(t1.tau_samples, t2.tau_samples)}")
    assert payloads[0] == payloads[1]
    assert np.array_equal(t1.tau_samples, t2.tau_samples)
