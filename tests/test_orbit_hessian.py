import dataclasses
import math

import numpy as np
import pytest

from weakkam.dynamics import PhasePoint, find_periodic_orbit, integrate
from weakkam.errors import WeakKamError
from weakkam.model import HamiltonianModel, PotentialSpec
from weakkam.orbit_hessian import (HessianCurve, fd_crosscheck, lambda_averages,
                                   unstable_hessian_curve)
from weakkam.variational import GridSpec, anchored_barrier, build_kernels, critical_value

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def bench_curves(bench_model, bench_orbits):
    return [unstable_hessian_curve(bench_model, o) for o in bench_orbits]


def test_fixed_point_hessian_constant(bench_model, bench_orbits, bench_curves):
    # oracle: P = sqrt(-V''(x_i)) at a mechanical fixed point
    for orbit, curve in zip(bench_orbits, bench_curves):
        lam = math.sqrt(-bench_model.potential.d2(orbit.anchor.x))
        assert np.max(np.abs(curve.P - lam)) <= 1e-9
        assert curve.lambda_i == pytest.approx(lam, abs=1e-3)


def test_benchmark_lambda_values(bench_curves, bench_orbits):
    by_anchor = {round(o.anchor.x, 3): c.lambda_i
                 for o, c in zip(bench_orbits, bench_curves)}
    assert by_anchor[0.0] == pytest.approx(TWO_PI * math.sqrt(3), abs=1e-3)
    assert by_anchor[0.5] == pytest.approx(TWO_PI, abs=1e-3)


def test_riccati_residual_and_periodicity(bench_curves):
    for curve in bench_curves:
        assert curve.riccati_residual <= 1e-6
        assert curve.periodicity_gap <= 1e-8


def test_lambda_positive(bench_curves):
    assert all(c.lambda_i > 0 for c in bench_curves)


@pytest.fixture(scope="module")
def tw_orbit(tw_model):
    return find_periodic_orbit(tw_model, PhasePoint(0.0, 0.0), 2, winding=-1,
                               shoot_tol=1e-5)


def test_traveling_wave_lambda_constant(tw_model, tw_orbit):
    curve = unstable_hessian_curve(tw_model, tw_orbit)
    lam = math.sqrt(8) * math.pi
    assert np.max(np.abs(curve.P - lam)) <= 1e-6
    assert curve.lambda_i == pytest.approx(lam, abs=1e-3)
    assert curve.riccati_residual <= 1e-6
    assert curve.periodicity_gap <= 1e-8


def test_curve_reads_the_orbit_frames_without_integrating(monkeypatch, bench_model,
                                                           bench_orbits, tw_model, tw_orbit):
    # reference: the period integrated afresh from the orbit's start
    cases = [(bench_model, o) for o in bench_orbits] + [(tw_model, tw_orbit)]
    refs = []
    for model, orbit in cases:
        traj = integrate(model, PhasePoint(orbit.x[0], orbit.p[0], 0.0),
                         float(orbit.period), steps=len(orbit.times) - 1)
        fresh = dataclasses.replace(orbit, times=traj.times, x=traj.x, p=traj.p,
                                    fundamental=traj.fundamental)
        refs.append(unstable_hessian_curve(model, fresh))

    def no_integration(*args, **kwargs):
        raise AssertionError("the Hessian curve integrated the flow again")

    monkeypatch.setattr("weakkam.dynamics.integrate", no_integration)
    for (model, orbit), ref in zip(cases, refs):
        curve = unstable_hessian_curve(model, orbit)
        assert np.array_equal(curve.times, ref.times)
        assert np.array_equal(curve.P, ref.P)
        assert curve.lambda_i == ref.lambda_i
        assert curve.riccati_residual == ref.riccati_residual
        assert curve.periodicity_gap == ref.periodicity_gap


def test_non_hyperbolic_rejected():
    m = HamiltonianModel(family="mechanical")
    orbit = find_periodic_orbit(m, PhasePoint(0.3, 0.0), 1)
    with pytest.raises(WeakKamError):
        unstable_hessian_curve(m, orbit)


def test_lambda_averages_benchmark(bench_curves, bench_orbits):
    rep = lambda_averages(bench_curves)
    assert rep.lambda_bar == pytest.approx(TWO_PI, abs=1e-3)
    sel = [bench_orbits[i].anchor.x for i in rep.argmin]
    assert sel == pytest.approx([0.5], abs=1e-9)


def test_lambda_averages_tie_symmetric_double_well():
    V = PotentialSpec.from_terms([(0, -0.5, 0.0), (2, 0.5, 0.0)])
    m = HamiltonianModel(family="mechanical", potential=V)
    from weakkam.dynamics import aubry_orbits

    orbits = aubry_orbits(m)
    curves = [unstable_hessian_curve(m, o) for o in orbits]
    rep = lambda_averages(curves)
    assert len(rep.argmin) == 2


def test_lambda_averages_single_and_empty(bench_curves):
    rep = lambda_averages(bench_curves[:1])
    assert rep.argmin == [0]
    assert rep.lambda_bar == bench_curves[0].lambda_i
    with pytest.raises(WeakKamError):
        lambda_averages([])


def test_fd_recovers_injected_quadratic(bench_small_setup, bench_orbits):
    # exact stencil on h = a (x - x0)^2: second difference returns 2a
    grid = bench_small_setup["grid"]
    a = 1.7
    nodes = grid.nodes()
    d = np.minimum(np.abs(nodes - 0.5), 1.0 - np.abs(nodes - 0.5))
    h = a * d ** 2
    field = dataclasses.replace(bench_small_setup["fields"][1],
                                h=np.repeat(h[:, None], grid.nt, axis=1))
    orbit = [o for o in bench_orbits if abs(o.anchor.x - 0.5) < 1e-9][0]
    curve = HessianCurve(times=np.array([0.0, 1.0]),
                         P=np.array([2 * a, 2 * a]), lambda_i=2 * a,
                         riccati_residual=0.0, periodicity_gap=0.0)
    rep = fd_crosscheck(field, orbit, curve)
    assert rep.fd_value == pytest.approx(2 * a, abs=1e-6)
    assert not rep.widened


def test_fd_crosscheck_benchmark_field(bench_small_setup, bench_orbits, bench_curves):
    # the velocity-quantization kink near the anchor forces a widened stencil
    for fld, orbit, curve in zip(bench_small_setup["fields"], bench_orbits,
                                 bench_curves):
        rep = fd_crosscheck(fld, orbit, curve)
        assert rep.deviation <= 0.12   # loose at nx=200; the 800-node run is tighter
        assert rep.widened


def test_fd_deviation_shrinks_with_refinement(bench_model, bench_orbits, bench_curves):
    devs = []
    for nx in (200, 400):
        grid = GridSpec(nx, 32)
        kernels = build_kernels(bench_model, grid)
        c = critical_value(kernels).c
        fld = anchored_barrier(kernels, c, 0.5, window=1)
        orbit = [o for o in bench_orbits if abs(o.anchor.x - 0.5) < 1e-9][0]
        curve = [c2 for o, c2 in zip(bench_orbits, bench_curves)
                 if abs(o.anchor.x - 0.5) < 1e-9][0]
        devs.append(fd_crosscheck(fld, orbit, curve).deviation)
    assert devs[1] <= devs[0] + 0.02
