import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakkam.errors import ConfigError, NumericalQualityError
from weakkam.model import (FAMILIES, SHIFTED_KINETIC, TRAVELING_WAVE, HamiltonianModel,
                           PotentialSpec)
from weakkam.variational import GridSpec
from weakkam.viscous import (_march_period, cfl_timestep, lipschitz_constant,
                             residual_check, semiconvexity_constant, solve_cell,
                             step_operator)

RNG = np.random.default_rng(99)


def test_free_case_constants():
    m = HamiltonianModel(family="mechanical")
    sol = solve_cell(m, 0.01, GridSpec(100, 16))
    assert sol.c_eps == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(sol.phi)) <= 1e-12
    assert residual_check(m, sol) <= 1e-12


def test_shifted_kinetic_constant_profile():
    m = HamiltonianModel(family="shifted_kinetic", momentum_shift=0.7)
    for eps in (0.05, 0.01):
        sol = solve_cell(m, eps, GridSpec(100, 16))
        assert sol.c_eps == pytest.approx(0.245, abs=1e-12)
        assert np.max(np.abs(sol.phi)) <= 1e-12


def test_benchmark_bracket(bench_model, bench_potential):
    sol = solve_cell(bench_model, 0.01, GridSpec(200, 32), normalize_node=100)
    assert bench_potential.min_on_grid() - 1e-6 <= sol.c_eps <= 1e-6
    assert sol.phi[100, 0] == 0.0


def test_translation_invariance(bench_model):
    a = solve_cell(bench_model, 0.02, GridSpec(128, 16))
    b = solve_cell(bench_model, 0.02, GridSpec(128, 16), initial_offset=5.0)
    assert a.c_eps == pytest.approx(b.c_eps, abs=1e-12)
    np.testing.assert_allclose(a.phi, b.phi, atol=1e-9)


def test_monotone_update_spot_check(bench_model):
    # bumping any neighboring value never decreases the update
    grid = GridSpec(64, 8)
    eps = 0.02
    from weakkam.viscous import cfl_timestep

    ds = cfl_timestep(grid, eps, 4.0)
    # monotonicity holds on the a-priori gradient range |D chi| <= lip_cap
    xs = np.arange(grid.nx) / grid.nx
    chi = 0.3 * np.sin(2 * np.pi * xs) + 0.1 * np.cos(6 * np.pi * xs)
    base = step_operator(bench_model, chi, 0.3, ds, grid, eps)
    bump = 0.4 * grid.dx   # keeps the bumped gradient inside the range
    for trial in range(40):
        i = int(RNG.integers(0, grid.nx))
        bumped = chi.copy()
        bumped[i] += bump
        out = step_operator(bench_model, bumped, 0.3, ds, grid, eps)
        others = np.arange(grid.nx) != i
        assert np.min(out[others] - base[others]) >= -1e-13


def test_regularity_report_trivial_and_injected():
    m = HamiltonianModel(family="mechanical")
    sol = solve_cell(m, 0.01, GridSpec(128, 8))
    assert sol.lip_x == 0.0 and sol.semiconvexity_const == 0.0

    nx = 400
    xs = np.arange(nx) / nx
    field = np.repeat(np.cos(2 * np.pi * xs)[:, None], 4, axis=1)
    assert lipschitz_constant(field, 1.0 / nx) == pytest.approx(2 * np.pi, rel=1e-3)
    assert semiconvexity_constant(field, 1.0 / nx) == pytest.approx(4 * np.pi ** 2,
                                                                    rel=1e-3)


def test_residual_check_scales_with_cell_tol(bench_model):
    res = {}
    for tol in (1e-4, 5e-5):
        sol = solve_cell(bench_model, 0.02, GridSpec(128, 16), cell_tol=tol)
        res[tol] = residual_check(bench_model, sol)
        assert res[tol] <= 10 * tol
    assert res[5e-5] <= res[1e-4] + 1e-12


def test_residual_check_marches_one_period(tw_model, monkeypatch):
    import weakkam.viscous as viscous

    sol = solve_cell(tw_model, 0.025, GridSpec(64, 8))
    march = viscous._march_period
    # the stored end state is the last period re-marched from its first snapshot
    again = march(tw_model, sol.reversed_snaps[:, 0], sol.n_periods - 1, sol.grid, sol.m_sub,
                  sol.ds, sol.epsilon, sol.lip_cap, np.empty_like(sol.reversed_snaps))
    assert np.array_equal(again, sol.end_state)
    starts = []

    def counted(model, chi, S, *args):
        starts.append(S)
        return march(model, chi, S, *args)

    monkeypatch.setattr(viscous, "_march_period", counted)
    assert residual_check(tw_model, sol) <= 10 * 1e-6
    assert starts == [sol.n_periods]


def test_cfl_guard():
    m = HamiltonianModel(family="mechanical")
    with pytest.raises(ConfigError):
        solve_cell(m, 500.0, GridSpec(4096, 64))


def test_traveling_wave_profile_drifts_backward(tw_model):
    # regression pin for the time-reversal sign: the profile crest follows the
    # orbit x_I - t/k in forward time
    sol = solve_cell(tw_model, 0.02, GridSpec(128, 16))
    nx, nt = 128, 16
    for j in (0, 4, 8, 12):
        crest = np.argmax(sol.phi[:, j])
        expected = (-(j / nt) / 2.0) % 0.5   # profile inherits the 1/2 cell period
        gap = abs(crest / nx % 0.5 - expected)
        gap = min(gap, 0.5 - gap)
        assert gap <= 6.0 / nx


def test_benchmark_c_eps_negative_and_scaling(bench_model):
    # c(eps) ~ -lambda_bar * eps for small eps
    s1 = solve_cell(bench_model, 0.02, GridSpec(200, 32), normalize_node=100)
    s2 = solve_cell(bench_model, 0.01, GridSpec(200, 32), normalize_node=100)
    assert s1.c_eps < 0 and s2.c_eps < 0
    ratio = s1.c_eps / s2.c_eps
    assert 1.7 <= ratio <= 2.3


@pytest.mark.parametrize("which, shape, eps", [("tw", (160, 16), 0.025),
                                               ("bench", (160, 32), 0.02)])
def test_tabulated_march_matches_single_steps(which, shape, eps, tw_model, bench_model):
    # one reversed period through the row-block table against step_operator,
    # which evaluates H itself at every substep: the two must agree bit for bit
    model = tw_model if which == "tw" else bench_model
    grid = GridSpec(*shape)
    lip_cap = 4.0
    ds_cfl = cfl_timestep(grid, eps, lip_cap + abs(model.momentum_offset))
    m_sub = math.ceil((1.0 / grid.nt) / ds_cfl)
    ds = 1.0 / (grid.nt * m_sub)
    xs = grid.nodes()
    chi0 = 0.3 * np.sin(2 * np.pi * xs) + 0.1 * np.cos(6 * np.pi * xs)
    S = 3
    snaps = np.empty((grid.nx, grid.nt))
    marched = _march_period(model, chi0, S, grid, m_sub, ds, eps, lip_cap, snaps=snaps)

    chi = chi0
    for j in range(grid.nt):
        assert np.array_equal(snaps[:, j], chi)
        for m in range(m_sub):
            chi = step_operator(model, chi, -(S + j / grid.nt + m * ds), ds, grid, eps,
                                lip_cap)
    assert np.array_equal(marched, chi)


def test_gradient_beyond_lip_cap_is_rejected(bench_model):
    # the benchmark profile's gradient is about 1.33 at eps = 0.02
    grid = GridSpec(64, 8)
    assert solve_cell(bench_model, 0.02, grid, lip_cap=1.5).lip_x <= 1.5
    with pytest.raises(NumericalQualityError, match=r"lip_x=1\.3.*lip_cap=0\.5"):
        solve_cell(bench_model, 0.02, grid, lip_cap=0.5)


def test_rescaled_model_marches_the_rescaled_cell_problem(tw_model):
    # phi_N(x, t) = phi(x, N t)/N solves the cell problem of H_N(x, p, t) =
    # H(x, Np, Nt) at viscosity N eps with the same c: N^2 q^2/2 in the step
    # and N^2 in the CFL bound.  At 128x8 the time step is set by diffusion,
    # so both marches take the same steps and agree to rounding.
    N, eps = 2, 0.05
    rmodel = tw_model.rescaled(N)
    sol = solve_cell(tw_model, eps, GridSpec(128, 8))
    rsol = solve_cell(rmodel, N * eps, GridSpec(128, 8 * N))
    assert rsol.m_sub == sol.m_sub
    assert rsol.c_eps == pytest.approx(sol.c_eps, abs=1e-9)
    np.testing.assert_allclose(rsol.phi, sol.phi[:, np.arange(8 * N) % 8] / N, atol=1e-9)
    # at 64 nodes transport sets the step: ds |H_p| <= 0.45 dx for every
    # |H_p| = m |p + b| the capped gradients allow
    coarse = solve_cell(rmodel, N * eps, GridSpec(64, 8 * N))
    h_p_max = rmodel.mass * (coarse.lip_cap + abs(rmodel.momentum_offset))
    assert coarse.ds * h_p_max <= 0.45 * coarse.grid.dx


def _unfolded_step(chi, w, ds, dx, eps, m, b, e0, q_cap):
    """The step before the folding: rolled neighbours and H assembled term by term."""
    left = np.concatenate((chi[-1:], chi[:-1]))
    right = np.concatenate((chi[1:], chi[:1]))
    pm = (chi - left) / dx
    pp = (right - chi) / dx
    lap = (left + right - 2.0 * chi) / (dx * dx)
    alpha = np.minimum(np.maximum(np.abs(pm + b), np.abs(pp + b)), q_cap)
    q = 0.5 * (pm + pp) + b
    half_m = 0.5 * m
    h_num = half_m * q * q + e0 + w + half_m * alpha * (pp - pm)
    return chi + ds * (eps * lap + h_num)


def _unfolded_march_period(model, chi, S, grid, m_sub, ds, eps, lip_cap, snaps):
    """``_march_period`` before the folding: W from ``potential_value`` at every node."""
    nt, nx = grid.nt, grid.nx
    xs = grid.nodes()
    m, b, e0 = model.mass, model.momentum_offset, model.energy_offset
    q_cap = lip_cap + abs(b)
    offsets = np.arange(m_sub) * ds
    for j in range(nt):
        snaps[:, j] = chi
        s = S + j / nt + offsets
        table = np.broadcast_to(model.potential_value(xs, -s[:, None]), (m_sub, nx))
        for w in table:
            chi = _unfolded_step(chi, w, ds, grid.dx, eps, m, b, e0, q_cap)
    return chi


@pytest.mark.parametrize("which, shape, eps", [("tw", (160, 16), 0.025),
                                               ("bench", (160, 32), 0.02),
                                               ("shifted", (100, 16), 0.01)])
def test_folded_step_matches_the_unfolded_reference(which, shape, eps, tw_model, bench_model,
                                                    monkeypatch):
    # the folded kernel and the angle-addition table are the same scheme in
    # exact arithmetic: whole solves agree to rounding, in the same periods
    import weakkam.viscous as viscous

    model = {"tw": tw_model, "bench": bench_model,
             "shifted": HamiltonianModel(family=SHIFTED_KINETIC, momentum_shift=0.7)}[which]
    grid = GridSpec(*shape)
    sol = solve_cell(model, eps, grid)
    monkeypatch.setattr(viscous, "_march_period", _unfolded_march_period)
    ref = solve_cell(model, eps, grid)
    assert sol.n_periods == ref.n_periods
    assert abs(sol.c_eps - ref.c_eps) <= 1e-12
    assert np.max(np.abs(sol.phi - ref.phi)) <= 1e-10


@st.composite
def small_models(draw):
    """A family and a mild random trig potential it admits."""
    family = draw(st.sampled_from(FAMILIES))
    wind = draw(st.sampled_from((1, 2))) if family == TRAVELING_WAVE else 1
    terms = [(k, draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3)))
             for k in draw(st.lists(st.sampled_from(range(wind, 4, wind)), min_size=1,
                                    max_size=3))]
    return HamiltonianModel(family=family, potential=PotentialSpec.from_terms(terms),
                            momentum_shift=draw(st.floats(-0.5, 0.5))
                            if family == SHIFTED_KINETIC else 0.0, wind=wind)


@settings(max_examples=15, deadline=None)
@given(model=small_models(), a=st.floats(-1.0, 1.0), eps=st.sampled_from((0.05, 0.1)))
def test_constant_added_to_v_shifts_c_and_keeps_phi(model, a, eps):
    # H + a has the cell solution (phi, c(eps) + a)
    grid = GridSpec(32, 8)
    shifted = HamiltonianModel(
        family=model.family, momentum_shift=model.momentum_shift, wind=model.wind,
        potential=PotentialSpec.from_terms(model.potential.terms + ((0, a, 0.0),)))
    sol, sol_a = solve_cell(model, eps, grid), solve_cell(shifted, eps, grid)
    assert abs(sol_a.c_eps - (sol.c_eps + a)) <= 1e-12
    assert np.max(np.abs(sol_a.phi - sol.phi)) <= 1e-10
