import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakkam.dynamics import _rhs_jac
from weakkam.errors import ConfigError
from weakkam.model import (FAMILIES, MECHANICAL, SHIFTED_KINETIC, TRAVELING_WAVE,
                           HamiltonianModel, PotentialSpec, benchmark_potential,
                           model_from_config, verify_hypotheses)

RNG = np.random.default_rng(20240817)


def random_models():
    V = benchmark_potential()
    Vtw = PotentialSpec.from_terms([(0, -0.5, 0.0), (2, 0.5, 0.0)])
    return [
        HamiltonianModel(family=MECHANICAL, potential=V),
        HamiltonianModel(family=SHIFTED_KINETIC, potential=V, momentum_shift=0.7),
        HamiltonianModel(family=TRAVELING_WAVE, potential=Vtw, wind=2),
    ]


def test_mechanical_trivial_jet():
    # free particle: H = p^2/2, flow (p, 0), tangent matrix [[0, 1], [0, 0]]
    m = HamiltonianModel(family=MECHANICAL)
    assert m.hamiltonian(0.3, 2.0, 0.0) == pytest.approx(2.0)
    assert m.h_p_of_gradient(0.3, 2.0, 0.0) == pytest.approx(2.0)
    dx, dp, jac = _rhs_jac(m, 0.3, 2.0, 0.0)
    assert (dx, dp) == pytest.approx((2.0, 0.0))
    assert jac == pytest.approx((0.0, 1.0, 0.0, 0.0))


def test_shifted_kinetic_resting_value():
    m = HamiltonianModel(family=SHIFTED_KINETIC, momentum_shift=0.7)
    assert m.hamiltonian(0.1, 0.0, 0.0) == pytest.approx(0.245)


def test_traveling_wave_matches_direct_formula(tw_potential):
    # oracle: direct evaluation of p^2/2 - p/k + V(x + t/k)
    m = HamiltonianModel(family=TRAVELING_WAVE, potential=tw_potential, wind=2)
    x = RNG.random(200)
    p = RNG.normal(0, 2, 200)
    t = RNG.random(200) * 3
    direct = p ** 2 / 2 - p / 2 + tw_potential.value(x + t / 2)
    np.testing.assert_allclose(m.hamiltonian(x, p, t), direct, atol=1e-14)


def test_traveling_wave_lagrangian_shift(tw_potential):
    # L(x,v,t) = L_a(x + t/k, v + 1/k) with L_a = v^2/2 - V
    m = HamiltonianModel(family=TRAVELING_WAVE, potential=tw_potential, wind=2)
    x, v, t = RNG.random(100), RNG.normal(0, 2, 100), RNG.random(100)
    lval, lv = m.lagrangian(x, v, t)
    u = v + 0.5
    expected = u ** 2 / 2 - tw_potential.value(x + t / 2)
    np.testing.assert_allclose(lval, expected, atol=1e-14)
    np.testing.assert_allclose(lv, u, atol=1e-14)


def test_mechanical_legendre_pair():
    V = benchmark_potential()
    m = HamiltonianModel(family=MECHANICAL, potential=V)
    x, v = RNG.random(100), RNG.normal(0, 2, 100)
    lval, lv = m.lagrangian(x, v, 0.0)
    np.testing.assert_allclose(lval, v ** 2 / 2 - V.value(x), atol=1e-14)
    np.testing.assert_allclose(lv, v, atol=1e-14)


@pytest.mark.parametrize("model", random_models(),
                         ids=[m.family for m in random_models()])
def test_fenchel_duality(model):
    # L(x,v,t) + H(x, L_v, t) = v L_v at 1000 random samples
    x = RNG.random(1000)
    v = RNG.normal(0, 2, 1000)
    t = RNG.random(1000)
    lval, lv = model.lagrangian(x, v, t)
    gap = lval + model.hamiltonian(x, lv, t) - v * lv
    assert np.max(np.abs(gap)) <= 1e-10


@pytest.mark.parametrize("model", random_models(),
                         ids=[m.family for m in random_models()])
def test_jet_matches_finite_differences(model):
    # the flow's field (H_p, -H_x) and tangent matrix (H_xp, H_pp, -H_xx, -H_xp)
    # against central differences of H, on the family and its rescalings
    h = 1e-5
    for N in (1, 2, 3):
        m = model.rescaled(N)
        x, p, t = RNG.random(200), RNG.normal(0, 2, 200), RNG.random(200)
        flow = [_rhs_jac(m, *z) for z in zip(x.tolist(), p.tolist(), t.tolist())]
        field = np.array([f[:2] for f in flow])
        jac = np.array([f[2] for f in flow])

        def H(dx=0.0, dp=0.0):
            return m.hamiltonian(x + dx, p + dp, t)

        h_p = (H(dp=h) - H(dp=-h)) / (2 * h)
        h_x = (H(dx=h) - H(dx=-h)) / (2 * h)
        h_pp = (H(dp=h) - 2 * H() + H(dp=-h)) / h ** 2
        h_xx = (H(dx=h) - 2 * H() + H(dx=-h)) / h ** 2
        h_xp = (H(h, h) - H(h, -h) - H(-h, h) + H(-h, -h)) / (4 * h * h)
        scale = 1.0 + np.abs(field[:, 0]) + np.abs(field[:, 1])

        def rel(a, b):
            return np.max(np.abs(a - b) / scale)

        assert rel(field[:, 0], h_p) <= 1e-6, N
        assert rel(field[:, 1], -h_x) <= 1e-6, N
        assert rel(jac[:, 0], h_xp) <= 1e-4, N
        assert rel(jac[:, 1], h_pp) <= 1e-4, N
        assert rel(jac[:, 2], -h_xx) <= 1e-4, N
        assert rel(jac[:, 3], -h_xp) <= 1e-4, N


@pytest.mark.parametrize("model", random_models(),
                         ids=[m.family for m in random_models()])
def test_periodicity(model):
    x = RNG.random(300)
    p = RNG.normal(0, 2, 300)
    t = RNG.random(300)
    base = model.hamiltonian(x, p, t)
    assert np.max(np.abs(model.hamiltonian(x + 1.0, p, t) - base)) <= 1e-12
    assert np.max(np.abs(model.hamiltonian(x, p, t + 1.0) - base)) <= 1e-12


def test_traveling_wave_cell_periodicity(tw_potential):
    x = RNG.random(300)
    assert np.max(np.abs(tw_potential.value(x + 0.5) - tw_potential.value(x))) <= 1e-12


def test_benchmark_potential_curvatures():
    V = benchmark_potential()
    assert V.value(0.0) == pytest.approx(0.0, abs=1e-15)
    assert V.value(0.5) == pytest.approx(0.0, abs=1e-15)
    assert V.d2(0.0) == pytest.approx(-12 * math.pi ** 2, rel=1e-12)
    assert V.d2(0.5) == pytest.approx(-4 * math.pi ** 2, rel=1e-12)
    # benchmark profile against the closed form -sin^2(2 pi x)(1 + cos(2 pi x)/2)
    xs = RNG.random(500)
    direct = -np.sin(2 * np.pi * xs) ** 2 * (1 + 0.5 * np.cos(2 * np.pi * xs))
    np.testing.assert_allclose(V.value(xs), direct, atol=1e-14)


def band_growth_min(model):
    """Least growth expression over 64 values of |p| in [K, 3K] on the 128 x 32
    (x, t) lattice, the reference for verify_hypotheses' evaluation at |p| = K."""
    K = model.growth_constant
    xs, ts = np.arange(128) / 128, np.arange(32) / 32
    xg, tg = np.meshgrid(xs, ts, indexing="ij")
    inf_h0 = float(np.min(model.hamiltonian(xg, 0.0, tg)))
    band = np.linspace(K, 3.0 * K, 64)
    xg, pg = np.meshgrid(xs, np.concatenate([band, -band]), indexing="ij")
    out = math.inf
    for t in ts:
        h_x = model.potential.d1(model.wave_coordinate(xg, t))
        expr = (model.h_p_of_gradient(xg, pg, t) * pg - model.hamiltonian(xg, pg, t)
                + inf_h0) * K - np.abs(h_x)
        out = min(out, float(np.min(expr)))
    return out


def test_growth_check_trivial_and_benchmark():
    free = HamiltonianModel(family=MECHANICAL, growth_constant=0.3)
    rep = verify_hypotheses(free)
    assert rep.growth_ok and rep.ok
    assert rep.growth_min == pytest.approx(band_growth_min(free), rel=1e-12, abs=1e-12)

    bench = HamiltonianModel(family=MECHANICAL, potential=benchmark_potential(),
                             growth_constant=8.0)
    rep = verify_hypotheses(bench)
    assert rep.growth_ok and rep.ok and rep.min_h_pp == 1.0
    assert rep.growth_min == pytest.approx(band_growth_min(bench), rel=1e-12, abs=1e-12)

    # independent dense sampling of the growth expression on a finer lattice
    V = bench.potential
    K = 8.0
    xs = np.arange(512) / 512
    inf_h0 = np.min(V.value(xs))
    ps = np.concatenate([np.linspace(K, 3 * K, 64), -np.linspace(K, 3 * K, 64)])
    xg, pg = np.meshgrid(xs, ps, indexing="ij")
    expr = (pg * pg - (pg * pg / 2 + V.value(xg)) + inf_h0) * K - np.abs(V.d1(xg))
    assert np.min(expr) >= 0.0


def test_shifted_kinetic_growth_reduction():
    # for the shifted family the growth expression collapses to
    # (|p|^2/2 - |P|^2/2 - V + inf V) K - |V_x|
    V = benchmark_potential()
    m = HamiltonianModel(family=SHIFTED_KINETIC, potential=V, momentum_shift=0.7,
                         growth_constant=8.0)
    x = RNG.random(200)
    p = RNG.normal(0, 5, 200)
    K = m.growth_constant
    inf_h0 = np.min(m.hamiltonian(np.arange(4096) / 4096, 0.0, 0.0))
    inf_v = inf_h0 - 0.7 ** 2 / 2  # inf H(x,0,t) = inf V + P^2/2
    lhs = (m.h_p_of_gradient(x, p) * p - m.hamiltonian(x, p) + inf_h0) * K - np.abs(V.d1(x))
    rhs = (p * p / 2 - V.value(x) + inf_v) * K - np.abs(V.d1(x))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    rep = verify_hypotheses(m)
    assert rep.growth_ok
    assert rep.growth_min == pytest.approx(band_growth_min(m), rel=1e-12, abs=1e-12)


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        HamiltonianModel(family="anisotropic")
    with pytest.raises(ConfigError):
        model_from_config({"family": "quartic", "potential": {"terms": []}})


def test_traveling_wave_requires_subperiodic_potential():
    with pytest.raises(ConfigError):
        HamiltonianModel(family=TRAVELING_WAVE,
                         potential=PotentialSpec.from_terms([(1, 0.5, 0.0)]),
                         wind=2)


@pytest.mark.parametrize("block, field", [
    ({"family": "mechanical", "momentum_shift": 0.7}, "model.momentum_shift"),
    ({"family": "traveling_wave", "wind": 2, "momentum_shift": -0.1}, "model.momentum_shift"),
    ({"family": "mechanical", "wind": 3}, "model.wind"),
    ({"family": "shifted_kinetic", "momentum_shift": 0.7, "wind": 2}, "model.wind"),
])
def test_model_keys_another_family_reads_are_rejected(block, field):
    with pytest.raises(ConfigError) as info:
        model_from_config(block)
    assert info.value.field == field


def test_neutral_values_of_another_familys_keys_are_accepted():
    for family in FAMILIES:
        model = model_from_config({"family": family, "momentum_shift": 0.0, "wind": 1})
        assert (model.momentum_shift, model.wind) == (0.0, 1)


def test_model_from_config_roundtrip():
    block = {"family": "shifted_kinetic",
             "potential": {"terms": [[0, -0.5, 0.0], [2, 0.5, 0.0]]},
             "momentum_shift": 0.7, "growth_constant": 8.0}
    m = model_from_config(block)
    assert m.family == SHIFTED_KINETIC
    assert m.momentum_shift == 0.7
    assert m.potential.terms == ((0, -0.5, 0.0), (2, 0.5, 0.0))


COEFF = st.floats(-1.0, 1.0)


@st.composite
def base_models(draw):
    """A family with random (b, e0, k) and a random trig potential it admits."""
    family = draw(st.sampled_from(FAMILIES))
    wind = draw(st.sampled_from((1, 2, 3))) if family == TRAVELING_WAVE else 1
    freqs = draw(st.lists(st.sampled_from(range(0, 7, wind)), min_size=1, max_size=4))
    terms = [(k, draw(COEFF), draw(COEFF)) for k in freqs]
    return HamiltonianModel(family=family, potential=PotentialSpec.from_terms(terms),
                            momentum_shift=draw(COEFF), wind=wind)


@st.composite
def trig_models(draw):
    """A random base model, rescaled by N in {1, 2, 3}."""
    return draw(base_models()).rescaled(draw(st.sampled_from((1, 2, 3))))


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(base=base_models(), N=st.sampled_from((1, 2, 3)), x=st.floats(-1.0, 2.0),
       p=st.floats(-5.0, 5.0), t=st.floats(-1.0, 3.0))
def test_one_form_duality_and_rescaling(base, N, x, p, t):
    # Fenchel duality H(x, p, t) + L(x, H_p, t) = p H_p on the rescaled form;
    # H_N(x, p, t) = H(x, Np, Nt), H_N,p = N H_p(x, Np, Nt), and the dual
    # L_N(x, v, t) = L(x, v/N, Nt) with L_N,v = L_v / N
    model = base.rescaled(N)
    h_p = float(model.h_p_of_gradient(x, p, t))
    lval, lv = model.lagrangian(x, h_p, t)
    assert close(float(model.hamiltonian(x, p, t) + lval), p * h_p)
    assert close(float(lv), p)
    assert close(float(model.hamiltonian(x, p, t)), float(base.hamiltonian(x, N * p, N * t)))
    lval, lv = model.lagrangian(x, p, t)
    base_l, base_lv = base.lagrangian(x, p / N, N * t)
    assert close(float(lval), float(base_l))
    assert close(float(lv), float(base_lv) / N)
    assert close(h_p, N * float(base.h_p_of_gradient(x, N * p, N * t)))


@settings(max_examples=200, deadline=None)
@given(model=trig_models(), x=st.floats(-1.0, 2.0), p=st.floats(-5.0, 5.0),
       t=st.floats(-1.0, 3.0))
def test_scalar_jet_matches_array_jet(model, x, p, t):
    # the flow's float path and the vectorised path read one coefficient table
    y = model.wave_coordinate(x, t)
    v1, v2 = model.potential.jet(y)
    for n, value in ((1, v1), (2, v2)):
        assert type(value) is float, n
        assert value == pytest.approx(model.potential.derivative(y, n),
                                      rel=1e-12, abs=1e-12), n
    dx, dp, jac = _rhs_jac(model, x, p, t)
    assert all(type(v) is float for v in (dx, dp, *jac))
    assert (dx, dp) == (model.mass * (p + model.momentum_offset), -v1)
    assert jac == (0.0, model.mass, -v2, 0.0)


@settings(max_examples=200, deadline=None)
@given(model=trig_models(), taus=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6))
def test_angle_addition_table_matches_the_potential(model, taus):
    # the viscous march's W(x, tau) = V(x + w tau) from the nodes' cos/sin;
    # a row of a many-time source table has the bits of the one-time table
    from weakkam.viscous import _source_table

    xs = np.arange(48) / 48
    tau = np.array(taus)
    basis = model.potential.node_basis(xs)
    table = model.potential.translates(basis, model.speed * tau)
    tol = 1e-12 * (1 + sum(abs(c) + abs(s) for _, c, s in model.potential.terms))
    assert np.max(np.abs(table - model.potential_value(xs, tau[:, None]))) <= tol
    ds = 1.0 / 2848
    rows = _source_table(model, basis, tau, ds)
    assert rows.shape == ((len(tau) if model.speed else 1), xs.size)
    for i, row in enumerate(np.broadcast_to(rows, (len(tau), xs.size))):
        assert np.array_equal(row, _source_table(model, basis, tau[i:i + 1], ds)[0])


def _full_basis(terms, x, order):
    """cos(w x) @ A + sin(w x) @ B over both halves, (A, B) the order's coefficients."""
    k, c, s = (np.array(col, dtype=float) for col in zip(*terms))
    w = 2.0 * math.pi * k
    a, b = ((c, s), (s, -c), (-c, -s), (-s, c))[order % 4]
    ang = np.multiply.outer(np.asarray(x, dtype=float), w)
    return np.cos(ang) @ (a * w ** order) + np.sin(ang) @ (b * w ** order)


@st.composite
def wide_potentials(draw):
    """A family and a potential it admits with frequencies 0..8 (multiples of k)."""
    family = draw(st.sampled_from(FAMILIES))
    wind = draw(st.sampled_from((1, 2, 3))) if family == TRAVELING_WAVE else 1
    freqs = draw(st.lists(st.sampled_from(range(0, 9, wind)), min_size=1, max_size=5))
    no_sines = draw(st.booleans())
    terms = [(k, draw(COEFF), 0.0 if no_sines else draw(COEFF)) for k in freqs]
    return HamiltonianModel(family=family, potential=PotentialSpec.from_terms(terms),
                            wind=wind).potential


@settings(max_examples=300, deadline=None)
@given(V=wide_potentials(), ys=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
       order=st.integers(0, 3))
def test_clenshaw_value_matches_the_half_basis_sum(V, ys, order):
    # derivative sums the series by Clenshaw's recurrence; _full_basis is the
    # reference that takes a cos and a sin per term; value is derivative(x, 0)
    y = np.array(ys)
    tol = 1e-12 * (1 + sum((2 * math.pi * k) ** order * (abs(c) + abs(s))
                           for k, c, s in V.terms))
    assert np.max(np.abs(V.derivative(y, order) - _full_basis(V.terms, y, order))) <= tol
    value = V.derivative(ys[0], order)
    assert type(value) is float
    assert abs(value - _full_basis(V.terms, ys[0], order)) <= tol
    assert V.derivative(y, order).shape == y.shape
    assert np.array_equal(V.value(y), V.derivative(y))
    assert type(V.value(ys[0])) is float and V.value(ys[0]) == V.derivative(ys[0])


def test_zero_potential_is_exactly_zero():
    V = PotentialSpec.zero()
    assert V.value(0.3) == 0.0 and type(V.value(0.3)) is float
    xs = np.linspace(-50.0, 50.0, 101).reshape(101, 1)
    assert V.value(xs).shape == xs.shape and np.all(V.value(xs) == 0.0)


@settings(max_examples=40, deadline=None)
@given(model=trig_models(), K=st.floats(0.3, 20.0))
def test_growth_is_least_at_the_edge_of_the_band(model, K):
    # H_p p - H = m p^2/2 - m b^2/2 - e0 - V grows with |p|: sampling |p| = K
    # gives the minimum over the band [K, 3K]
    model = replace(model, growth_constant=K)
    assert verify_hypotheses(model).growth_min == pytest.approx(
        band_growth_min(model), rel=1e-12, abs=1e-12)
