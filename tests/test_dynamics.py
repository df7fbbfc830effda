import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from weakkam.dynamics import (SCAN_POINTS, PhasePoint, aubry_orbits, classify_orbit,
                              find_periodic_orbit, integrate, potential_maxima)
from weakkam.errors import IntegrationError, OrbitNotFoundError, WeakKamError
from weakkam.model import (FAMILIES, TRAVELING_WAVE, HamiltonianModel, PotentialSpec,
                           benchmark_potential)
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
    # exact: criterion 4 compares the selected anchor with 0.5 by ==
    assert potential_maxima(bench_model) == [0.0, 0.5]
    assert potential_maxima(tw_model) == [0.0]


@pytest.mark.parametrize("shift", [3 / 32, 37 / 256])
def test_potential_maxima_on_scan_points(bench_potential, shift):
    # V_s(x) = V(x + shift) has its maxima at 1/2 - shift and 1 - shift, both
    # exactly on points of the 4096-point scan.  At 3/32 the maximum at 13/32
    # used to be dropped; at 37/256 a scalar root finder used to refuse the
    # bracket.
    w = TWO_PI * np.array([k for k, _, _ in bench_potential.terms]) * shift
    terms = [(k, c * math.cos(a) + s * math.sin(a), s * math.cos(a) - c * math.sin(a))
             for (k, c, s), a in zip(bench_potential.terms, w)]
    m = HamiltonianModel(family="mechanical", potential=PotentialSpec.from_terms(terms))
    assert potential_maxima(m) == pytest.approx([0.5 - shift, 1.0 - shift], abs=1e-10)


def circle_gap(a, b, period=1.0):
    d = np.abs(np.asarray(a) - np.asarray(b)) % period
    return np.minimum(d, period - d)


def test_potential_maxima_of_every_scan_translation(bench_potential):
    # V_s(x) = V(x + s) for each scan point s = j/4096 has its maxima at
    # 1/2 - s and 1 - s (mod 1), both exactly on points of the scan; this
    # extends the two cases above to every translation.
    ks = np.array([k for k, _, _ in bench_potential.terms])
    for j in range(SCAN_POINTS):
        s = j / SCAN_POINTS
        a = TWO_PI * ks * s
        terms = [(k, c * math.cos(t) + sn * math.sin(t), sn * math.cos(t) - c * math.sin(t))
                 for (k, c, sn), t in zip(bench_potential.terms, a)]
        m = HamiltonianModel(family="mechanical", potential=PotentialSpec.from_terms(terms))
        found = potential_maxima(m)
        expected = np.sort(np.mod([0.5 - s, 1.0 - s], 1.0))
        assert len(found) == 2 and all(0.0 <= x < 1.0 for x in found), j
        assert np.max(circle_gap(found, expected)) <= 1e-10, j


@st.composite
def cell_models(draw):
    """A family, k in {1, 2, 3} and a random 1/k-periodic trig potential.

    The traveling wave takes wind k, so its cell is [0, 1/k); the other
    families scan the whole circle.
    """
    family = draw(st.sampled_from(FAMILIES))
    k = draw(st.sampled_from((1, 2, 3)))
    coeff = st.floats(-1.0, 1.0)
    terms = [(k * n, draw(coeff), draw(coeff))
             for n in draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))]
    return HamiltonianModel(family=family, potential=PotentialSpec.from_terms(terms),
                            wind=k if family == TRAVELING_WAVE else 1)


@settings(max_examples=200, deadline=None)
@given(model=cell_models())
def test_potential_maxima_are_the_falling_roots_of_v_prime(model):
    cell = 1.0 / model.cells
    V = model.potential
    ref = np.arange(65536) / 65536 * cell
    slope = V.d1(ref)
    falling = (slope > 0.0) & (np.roll(slope, -1) <= 0.0)
    # the finder drops maxima with V'' >= -1e-8, which the reference cannot
    # resolve: leave out potentials with a near-degenerate one
    assume(np.all(np.abs(V.d2(ref[falling])) > 1e-6))
    found = np.array(potential_maxima(model))
    scale = 1.0 + sum(k * (abs(c) + abs(s)) for k, c, s in V.terms)
    assert found.size == np.count_nonzero(falling)
    assert np.all((0.0 <= found) & (found < cell))
    assert np.all(np.diff(found) > 0.0)
    if found.size:
        assert np.all(V.d2(found) < -1e-8)
        assert np.max(np.abs(V.d1(found))) <= 1e-10 * scale


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


@pytest.mark.parametrize("case", ["bench", "tw", "shifted", "single", "two_levels"])
def test_aubry_orbit_anchors_are_the_maxima(case, bench_model, tw_model):
    # each candidate is shot from its own rest orbit and stays there: the
    # anchors of the orbits found are the maxima whose shots succeed
    model = {
        "bench": bench_model,
        "tw": tw_model,
        "shifted": HamiltonianModel(family="shifted_kinetic", momentum_shift=0.4,
                                    potential=benchmark_potential()),
        "single": HamiltonianModel(family="mechanical", potential=PotentialSpec.from_terms(
            [(0, -0.5, 0.0), (1, 0.5, 0.0)])),
        "two_levels": HamiltonianModel(family="mechanical", potential=PotentialSpec.from_terms(
            [(0, -0.6, 0.0), (1, 0.1, 0.0), (2, 0.5, 0.0), (3, 0.05, 0.2)])),
    }[case]
    tol = 1e-5 if model.speed else 1e-10
    p_rest = -model.speed / model.mass - model.momentum_offset
    winding = -1 if model.speed else 0
    shot = []
    for xm in potential_maxima(model):
        try:
            find_periodic_orbit(model, PhasePoint(xm, p_rest), model.cells, winding,
                                shoot_tol=tol)
        except (OrbitNotFoundError, IntegrationError):
            continue
        shot.append(xm)
    anchors = [o.anchor.x for o in aubry_orbits(model, shoot_tol=tol)]
    assert len(anchors) == len(shot) > 0
    assert np.max(circle_gap(anchors, shot)) <= 1e-12


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
