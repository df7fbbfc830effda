import math
import multiprocessing
import os

import numpy as np
import pytest

from weakkam.errors import CompatibilityError, ConfigError, ConvergenceError, WeakKamError
from weakkam.model import HamiltonianModel, PotentialSpec
from weakkam.orbit_hessian import unstable_hessian_curve, lambda_averages
from weakkam.variational import (GridSpec, Numerics, anchored_barrier, barrier_matrix,
                                 build_kernels, critical_value)
from weakkam.vv_analysis import (Artifacts, SweepReport, example_verify, local_max_set,
                                 orbit_window, predicted_limit, rescale_check, slope_fit,
                                 sweep)


@pytest.fixture(scope="module")
def small_sweep(bench_model):
    return sweep(Artifacts(bench_model, GridSpec(128, 16)), [0.03, 0.02, 0.012])


def test_predicted_limit_unique_minimizer(small_sweep):
    rep = small_sweep
    sel = rep.selected[0]
    np.testing.assert_allclose(rep.predicted, -rep.fields[sel].h, atol=1e-12)


def test_predicted_limit_degenerate_single_orbit(bench_small_setup):
    fields = bench_small_setup["fields"][1:]
    H = np.zeros((1, 1))
    out = predicted_limit([0.3], fields, [0], H)
    np.testing.assert_allclose(out, 0.3 - fields[0].h, atol=1e-14)


def test_predicted_limit_symmetric_double_well():
    V = PotentialSpec.from_terms([(0, -0.5, 0.0), (2, 0.5, 0.0)])
    m = HamiltonianModel(family="mechanical", potential=V)
    grid = GridSpec(128, 16)
    kernels = build_kernels(m, grid)
    c = critical_value(kernels).c
    fields = [anchored_barrier(kernels, c, a, window=1) for a in (0.0, 0.5)]
    H, _ = barrier_matrix(fields)
    out = predicted_limit([0.0, 0.0], fields, [0, 1], H)
    rolled = np.roll(out, grid.nx // 2, axis=0)
    np.testing.assert_allclose(out, rolled, atol=1e-9)


def test_predicted_limit_compatibility_guard(bench_small_setup):
    fields = bench_small_setup["fields"]
    H, _ = barrier_matrix(fields)
    with pytest.raises(CompatibilityError):
        predicted_limit([0.0, 10.0], fields, [0, 1], H)


def test_local_max_set(bench_small_setup):
    H, _ = barrier_matrix(bench_small_setup["fields"])
    assert local_max_set([0.0, 0.0], H) == [0, 1]
    # dropping one anchor far below removes it from the represented set
    d = H[0, 1]
    assert local_max_set([-d - 0.5, 0.0], H) == [1]


def test_representation_fixed_point(small_sweep):
    # re-applying the max-representation to the limit's anchor values returns it
    rep = small_sweep
    values = [float(rep.predicted[int(round(a * rep.fields[0].grid.nx)), 0])
              for a in rep.anchors]
    B = local_max_set(values, rep.barrier_h)
    stack = [values[i] - rep.fields[i].h for i in B]
    again = np.maximum.reduce(stack)
    assert np.max(np.abs(again - rep.predicted)) <= 0.02


def test_anchor_compatibility_from_viscous(small_sweep):
    rep = small_sweep
    values = rep.anchor_values
    for i in range(len(values)):
        for j in range(len(values)):
            if i != j:
                assert values[j] - values[i] <= rep.barrier_h[i, j] + 2 * 0.02


def test_sweep_structure(small_sweep):
    rep = small_sweep
    assert rep.eps_list == [0.03, 0.02, 0.012]
    assert len(rep.c_records) == 3
    assert all(np.isfinite(rep.limit_errors))
    assert rep.selected == [1]
    assert rep.limit_errors[-1] <= rep.limit_errors[0]
    assert all(c <= 1e-6 for c in rep.c_records)


def test_sweep_rejects_nonmonotone_eps(bench_model):
    with pytest.raises(WeakKamError):
        sweep(Artifacts(bench_model, GridSpec(64, 8)), [0.01, 0.02, 0.03])


def test_slope_fit_synthetic():
    lam = 2 * math.pi
    eps = [0.02, 0.01, 0.005, 0.0025]
    c0 = 0.0
    cs = [c0 - lam * e + e ** 2 for e in eps]
    rep = SweepReport(
        eps_list=eps, c_records=cs, c0=c0,
        slope_secants=[(c - c0) / e for c, e in zip(cs, eps)],
        slope_fit=np.polyfit(eps[2:], cs[2:], 1)[0],
        lambda_bar=lam, lambdas=[lam], selected=[0], anchors=[0.5],
        limit_errors=[0.0] * 4, grad_errors=[0.0] * 4,
        lip_records=[1.0] * 4, semiconvexity_records=[1.0] * 4,
        anchor_values=[0.0])
    verdict = slope_fit(rep)
    assert verdict.lower_bound_ok
    assert abs(verdict.slope_fit + lam) <= eps[2] + eps[3] + 1e-12
    assert verdict.fit_ok


def test_slope_fit_detects_violation():
    lam = 1.0
    eps = [0.02, 0.01, 0.005]
    cs = [-2.0 * e for e in eps]   # secants at -2 lam: below the bound
    rep = SweepReport(
        eps_list=eps, c_records=cs, c0=0.0,
        slope_secants=[c / e for c, e in zip(cs, eps)], slope_fit=-2.0,
        lambda_bar=lam, lambdas=[lam], selected=[0], anchors=[0.5],
        limit_errors=[0.0] * 3, grad_errors=[0.0] * 3,
        lip_records=[1.0] * 3, semiconvexity_records=[1.0] * 3,
        anchor_values=[0.0])
    verdict = slope_fit(rep)
    assert not verdict.lower_bound_ok
    assert not verdict.fit_ok


def test_orbit_window(bench_orbits):
    assert orbit_window(bench_orbits) == 1


def test_rescale_check_vacuous(bench_model):
    rep = rescale_check(Artifacts(bench_model, GridSpec(64, 8)))
    assert rep.vacuous and rep.ok()


def test_rescale_check_traveling_wave(tw_model):
    rep = rescale_check(Artifacts(tw_model, GridSpec(256, 32), Numerics(shoot_tol=1e-5)))
    assert rep.N == 2 and not rep.vacuous
    assert rep.barrier_identity_error <= 0.04
    assert all(e <= 1e-6 for e in rep.lambda_errors)
    assert rep.c_rescaled == pytest.approx(rep.c_original / 2, abs=1e-9)


def test_example_verify_small(tw_model):
    rep = example_verify(Artifacts(tw_model, GridSpec(256, 32), Numerics(shoot_tol=1e-5)))
    assert rep.orbit_count_ok
    assert rep.translate_residual <= 1e-5
    assert all(e <= 1e-3 for e in rep.riccati_errors)
    assert all(d <= 0.05 for d in rep.fd_deviations)
    assert rep.shift_consistency_error <= 0.02
    assert rep.expected_curvatures == pytest.approx([math.sqrt(8) * math.pi])
    assert rep.ok()


def test_grad_errors_recorded(small_sweep):
    assert len(small_sweep.grad_errors) == 3
    assert all(np.isfinite(small_sweep.grad_errors))


@pytest.mark.parametrize("grid, numerics, error", [
    (GridSpec(32, 8), Numerics(max_periods=4, cell_tol=1e-14), ConvergenceError),
    (GridSpec(1000, 2), Numerics(), ConfigError),   # CFL-infeasible at eps = 0.05
])
def test_a_prefetched_solve_raises_what_the_solve_in_process_raises(
        bench_model, monkeypatch, grid, numerics, error):
    def raised(n_cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)),
                            raising=False)
        art = Artifacts(bench_model, grid, numerics)
        art.prefetch([0.05, 0.06])
        try:
            with pytest.raises(error) as info:
                art.solution(0.05)
            return type(info.value), str(info.value), vars(info.value)
        finally:
            art.close()

    serial = raised(1)
    assert raised(2) == serial
    assert serial[2]   # the trace, or the field
    assert multiprocessing.active_children() == []


def test_prefetched_solutions_equal_the_in_process_ones(bench_model, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    art = Artifacts(bench_model, GridSpec(48, 8))
    art.prefetch([0.05, 0.03, 0.05, 0.02])
    try:
        # read out of the order the workers solve in
        for eps in (0.02, 0.05, 0.03):
            sol, own = art.solution(eps), art._solve(eps)
            assert sol.c_eps == own.c_eps and np.array_equal(sol.phi, own.phi)
            assert art.wall[f"viscous_{eps}"] >= 0.0
    finally:
        art.close()
    assert multiprocessing.active_children() == []
