import math

import numpy as np
import pytest

from weakkam.dynamics import (PhasePoint, aubry_orbits, classify_orbit,
                              find_periodic_orbit, integrate, potential_maxima)
from weakkam.errors import IntegrationError, WeakKamError
from weakkam.model import HamiltonianModel, PotentialSpec, benchmark_potential
from weakkam.variational import GridSpec
from weakkam.vv_analysis import Artifacts

TWO_PI = 2 * math.pi


def test_fixed_point_stays_fixed(bench_model):
    traj = integrate(bench_model, PhasePoint(0.5, 0.0), 3.0)
    assert np.max(np.abs(traj.x - 0.5)) <= 1e-12
    assert np.max(np.abs(traj.p)) <= 1e-12


def test_free_motion_shifted_kinetic():
    m = HamiltonianModel(family="shifted_kinetic", momentum_shift=0.3)
    traj = integrate(m, PhasePoint(0.2, 1.0), 2.0)
    expected = 0.2 + 1.3 * traj.times
    np.testing.assert_allclose(traj.x, expected, atol=1e-12)


def test_energy_drift(bench_model):
    # conserved H along the autonomous flow, duration 10 at 1e-3 step
    start = PhasePoint(0.3, 0.2)
    traj = integrate(bench_model, start, 10.0, steps=10000)
    e = traj.p ** 2 / 2 + bench_model.potential.value(traj.x)
    assert np.max(np.abs(e - e[0])) <= 1e-8


def test_reversibility(bench_model):
    fwd = integrate(bench_model, PhasePoint(0.3, 0.5), 1.0, steps=1000)
    x1, p1 = fwd.end
    back = integrate(bench_model, PhasePoint(x1, p1, 1.0), -1.0, steps=1000)
    assert abs(back.x[-1] - 0.3) <= 1e-8
    assert abs(back.p[-1] - 0.5) <= 1e-8


def test_blowup_reports_last_valid_time(bench_model):
    with pytest.raises(IntegrationError):
        integrate(bench_model, PhasePoint(0.2, math.nan), 1.0, steps=10)


def test_variational_flow_free_shear():
    m = HamiltonianModel(family="mechanical")
    traj = integrate(m, PhasePoint(0.1, 0.4), 2.0, steps=500)
    np.testing.assert_allclose(traj.fundamental[-1], [[1.0, 2.0], [0.0, 1.0]],
                               atol=1e-12)


def test_newton_from_exact_seed(bench_model):
    orb = find_periodic_orbit(bench_model, PhasePoint(0.5, 0.0), 1)
    assert orb.residual <= 1e-10
    assert abs(orb.anchor.x - 0.5) <= 1e-12


def test_newton_from_perturbed_seed(bench_model):
    orb = find_periodic_orbit(bench_model, PhasePoint(0.5 + 1e-2, 1e-2), 1)
    assert abs(orb.anchor.x - 0.5) <= 1e-9
    assert abs(orb.anchor.p) <= 1e-9
    assert orb.newton_iterations <= 6


def test_monodromy_multipliers_half(bench_model):
    orb = find_periodic_orbit(bench_model, PhasePoint(0.5, 0.0), 1)
    mult = np.exp(orb.floquet_exponents * orb.period)
    # oracle: eigenvalues of [[0,1],[-V'',0]] exponentiated over time 1
    np.testing.assert_allclose(sorted(np.abs(mult), reverse=True),
                               [math.exp(TWO_PI), math.exp(-TWO_PI)], rtol=1e-6)
    np.testing.assert_allclose(sorted(orb.floquet_exponents.real, reverse=True),
                               [TWO_PI, -TWO_PI], atol=1e-6)
    assert orb.hyperbolic


def test_monodromy_multipliers_zero(bench_model):
    orb = find_periodic_orbit(bench_model, PhasePoint(0.0, 0.0), 1)
    lam = TWO_PI * math.sqrt(3)
    np.testing.assert_allclose(sorted(orb.floquet_exponents.real, reverse=True),
                               [lam, -lam], atol=1e-6)


def test_floquet_exponent_oracle_sqrt_curvature(bench_model):
    # exponents of mechanical fixed points match +-sqrt(-V'') to 1e-6
    for x0 in (0.0, 0.5):
        orb = find_periodic_orbit(bench_model, PhasePoint(x0, 0.0), 1)
        lam = math.sqrt(-bench_model.potential.d2(x0))
        assert abs(max(orb.floquet_exponents.real) - lam) <= 1e-6


def test_non_hyperbolic_free_case():
    m = HamiltonianModel(family="mechanical")
    orb = find_periodic_orbit(m, PhasePoint(0.25, 0.0), 1)
    mult = np.exp(orb.floquet_exponents * orb.period)
    np.testing.assert_allclose(np.abs(mult), [1.0, 1.0], atol=1e-8)
    assert not orb.hyperbolic


def test_symplectic_determinant(bench_model, bench_orbits):
    for orb in bench_orbits:
        assert abs(orb.det_product - 1.0) <= 1e-8


def test_traveling_wave_orbit(tw_model):
    # oracle: gamma(t) = x_i - t/2 with p = 0 solves the flow, winding -1
    orb = find_periodic_orbit(tw_model, PhasePoint(0.0, 0.0), 2, winding=-1,
                              shoot_tol=1e-5)
    assert np.max(np.abs(orb.p)) <= 1e-6
    np.testing.assert_allclose(orb.x, -orb.times / 2, atol=1e-6)
    assert orb.hyperbolic
    lam = math.sqrt(8) * math.pi
    assert abs(max(orb.floquet_exponents.real) - lam) <= 1e-6
    assert abs(orb.det_product - 1.0) <= 1e-8


def test_potential_maxima(bench_model, tw_model):
    assert potential_maxima(bench_model) == pytest.approx([0.0, 0.5], abs=1e-10)
    assert potential_maxima(tw_model) == pytest.approx([0.0], abs=1e-10)


@pytest.mark.parametrize("shift", [3 / 32, 37 / 256])
def test_potential_maxima_on_scan_points(bench_potential, shift):
    # V_s(x) = V(x + shift) has its maxima at 1/2 - shift and 1 - shift, both
    # exactly on points of the 4096-point scan.  At 3/32 the maximum at 13/32
    # used to be dropped; at 37/256 brentq used to refuse the bracket.
    w = TWO_PI * np.array([k for k, _, _ in bench_potential.terms]) * shift
    terms = [(k, c * math.cos(a) + s * math.sin(a), s * math.cos(a) - c * math.sin(a))
             for (k, c, s), a in zip(bench_potential.terms, w)]
    m = HamiltonianModel(family="mechanical", potential=PotentialSpec.from_terms(terms))
    assert potential_maxima(m) == pytest.approx([0.5 - shift, 1.0 - shift], abs=1e-10)


def test_aubry_orbits_benchmark(bench_orbits):
    anchors = sorted(o.anchor.x for o in bench_orbits)
    assert anchors == pytest.approx([0.0, 0.5], abs=1e-9)
    assert all(o.hyperbolic and o.period == 1 and o.winding == 0
               for o in bench_orbits)


def test_aubry_orbits_single_maximum():
    V = PotentialSpec.from_terms([(0, -0.5, 0.0), (1, 0.5, 0.0)])
    m = HamiltonianModel(family="mechanical", potential=V)
    orbits = aubry_orbits(m)
    assert len(orbits) == 1
    assert orbits[0].anchor.x == pytest.approx(0.0, abs=1e-9)


def test_aubry_orbits_traveling_wave(tw_model):
    orbits = aubry_orbits(tw_model, shoot_tol=1e-5)
    assert len(orbits) == 1
    orb = orbits[0]
    assert orb.period == 2 and orb.winding == -1
    # the k translates of the maximum lie on the single orbit
    assert orb.position(1.0) % 1.0 == pytest.approx(0.5, abs=1e-6)


def test_aubry_orbits_with_confirmation(bench_model):
    # both maxima of the benchmark potential are at V = 0 and both are confirmed;
    # a maximum below max V is a hyperbolic candidate off the Aubry set, and
    # its own barrier diagonal (about 0.2 per period spent there) drops it
    grid = GridSpec(128, 16)
    assert len(Artifacts(bench_model, grid).orbits) == 2
    V = PotentialSpec.from_terms([(0, -0.6, 0.0), (1, 0.1, 0.0), (2, 0.5, 0.0)])
    m = HamiltonianModel(family="mechanical", potential=V)
    assert sorted(o.anchor.x for o in aubry_orbits(m)) == pytest.approx([0.0, 0.5], abs=1e-9)
    art = Artifacts(m, grid)
    assert [o.anchor.x for o in art.orbits] == pytest.approx([0.0], abs=1e-9)
    assert [f.anchor_x for f in art.fields] == [art.orbits[0].anchor.x]


def test_shifted_kinetic_rest_momentum():
    V = benchmark_potential()
    m = HamiltonianModel(family="shifted_kinetic", potential=V, momentum_shift=0.4)
    orbits = aubry_orbits(m)
    assert sorted(o.anchor.x for o in orbits) == pytest.approx([0.0, 0.5], abs=1e-9)
    for o in orbits:
        assert o.anchor.p == pytest.approx(-0.4, abs=1e-9)


def test_orbit_position_lift(tw_model):
    orb = find_periodic_orbit(tw_model, PhasePoint(0.0, 0.0), 2, winding=-1,
                              shoot_tol=1e-5)
    assert orb.position(3.0) == pytest.approx(orb.position(1.0) - 1.0, abs=1e-9)
    assert orb.momentum(2.5) == pytest.approx(orb.momentum(0.5), abs=1e-9)
