import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from weakkam.errors import ConfigError, ConvergenceError, WeakKamError
from weakkam.model import (FAMILIES, SHIFTED_KINETIC, TRAVELING_WAVE, HamiltonianModel,
                           PotentialSpec, benchmark_potential)
from weakkam.variational import (AGREEMENT_TOL, GridSpec, _dense_from_kernel,
                                 _karp_min_mean, _minplus_product, _power_min_mean,
                                 action_potential_pair, anchored_barrier, aubry_verify,
                                 barrier_matrix, build_kernels, compose_period,
                                 critical_value)

RNG = np.random.default_rng(7)


def test_kernel_no_move_cost(bench_model, bench_potential):
    grid = GridSpec(64, 16)
    kernels = build_kernels(bench_model, grid)
    i0 = int(np.where(kernels.offsets == 0)[0][0])
    expected = -bench_potential.value(grid.nodes()) / grid.nt
    np.testing.assert_allclose(kernels.costs[0][i0], expected, atol=1e-15)


def test_kernel_matches_segment_quadrature(bench_model, bench_potential):
    # oracle: 4096-point trapezoid of the Lagrangian along the straight segment
    errs = {}
    for nt in (16, 32):
        grid = GridSpec(128, nt)
        kernels = build_kernels(bench_model, grid)
        worst = 0.0
        for _ in range(100):
            d = int(RNG.integers(-kernels.dmax, kernels.dmax + 1))
            a = int(RNG.integers(0, grid.nx))
            irow = int(np.where(kernels.offsets == d)[0][0])
            xa = a / grid.nx
            v = d * nt / grid.nx
            s = np.linspace(0.0, 1.0 / nt, 4097)
            lvals = v * v / 2 - bench_potential.value(xa + v * s)
            quad = np.trapezoid(lvals, s)
            worst = max(worst, abs(kernels.costs[0][irow, a] - quad))
        errs[nt] = worst
    # midpoint rule: better than first-order decay; the constant carries the
    # v^2 factor of the longest segments (v up to vmax = 4)
    assert errs[32] <= errs[16] / 2
    assert errs[32] <= 3e-3


def test_kernel_requires_reachable_neighbors(bench_model):
    with pytest.raises(ConfigError):
        build_kernels(bench_model, GridSpec(400, 64), vmax=0.02)


def test_free_lagrangian_rest_cycle_is_optimal():
    m = HamiltonianModel(family="mechanical")
    cv = critical_value(build_kernels(m, GridSpec(64, 8)))
    assert cv.c == pytest.approx(0.0, abs=1e-12)


def test_benchmark_critical_value(bench_small_setup):
    assert bench_small_setup["cv"].c == pytest.approx(0.0, abs=1e-3)


def test_karp_power_agreement(bench_small_setup):
    cv = bench_small_setup["cv"]
    assert cv.agreement <= 1e-6


def _brute_force_min_mean(W):
    """Least mean weight over every simple cycle of W, self-loops included."""
    n = W.shape[0]
    return min(sum(W[c[i], c[(i + 1) % len(c)]] for i in range(len(c))) / len(c)
               for length in range(1, n + 1)
               for c in itertools.permutations(range(n), length))


@settings(max_examples=150, deadline=None)
@given(weights=st.integers(1, 6).flatmap(lambda n: st.lists(
    st.integers(-9, 9), min_size=n * n, max_size=n * n)))
def test_karp_and_power_iteration_find_the_brute_force_min_mean(weights):
    n = math.isqrt(len(weights))
    W = np.array(weights, dtype=float).reshape(n, n)
    exact = _brute_force_min_mean(W)
    assert _karp_min_mean(W) == pytest.approx(exact, abs=1e-12)
    mean, _, exact_regime = _power_min_mean(W)
    assert exact_regime
    assert abs(mean - exact) <= AGREEMENT_TOL


def test_in_place_composition_matches_the_allocating_loop(tw_model):
    # the time-dependent branch of compose_period against its loop with a
    # fresh temporary per offset: the same sums and minima, bit for bit
    kernels = build_kernels(tw_model, GridSpec(48, 8))
    assert not kernels.time_independent
    nx = kernels.grid.nx
    cols = np.arange(nx)
    W = _dense_from_kernel(kernels.costs[0], kernels.offsets, nx)
    for cj in kernels.costs[1:]:
        W_new = np.full((nx, nx), np.inf)
        for i, d in enumerate(kernels.offsets):
            src = (cols - d) % nx
            np.minimum(W_new, W[:, src] + cj[i, src][None, :], out=W_new)
        W = W_new
    assert np.array_equal(compose_period(kernels), W)


def _composition_by_gathers(kernels):
    """The time-dependent composition with a column gather per offset and substep."""
    nx = kernels.grid.nx
    cols = np.arange(nx)
    W = _dense_from_kernel(kernels.costs[0], kernels.offsets, nx)
    for cj in kernels.costs[1:]:
        W_new = np.full((nx, nx), np.inf)
        for i, d in enumerate(kernels.offsets):
            src = (cols - d) % nx
            np.minimum(W_new, W[:, src] + cj[i, src][None, :], out=W_new)
        W = W_new
    return W


def _composition_by_powers(kernels):
    """The time-independent composition: binary exponentiation, each product one
    broadcast minimum over the whole inner index."""
    power = _dense_from_kernel(kernels.costs[0], kernels.offsets, kernels.grid.nx)
    result, n = None, kernels.grid.nt
    while n:
        if n & 1:
            result = power if result is None else \
                np.min(result[:, :, None] + power[None], axis=1)
        n >>= 1
        if n:
            power = np.min(power[:, :, None] + power[None], axis=1)
    return result


@st.composite
def composition_cases(draw):
    """A traveling-wave trig potential and a grid whose kernels reach dmax offsets.

    The velocity cap puts dmax = floor(vmax nx / nt) anywhere from 2 to two
    past nx // 2, where ``build_kernels`` caps it.
    """
    wind = draw(st.sampled_from((1, 2)))
    terms = [(k, draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
             for k in draw(st.lists(st.sampled_from(range(0, 7, wind)), min_size=1,
                                    max_size=3, unique=True))]
    nx, nt = draw(st.integers(8, 64)), draw(st.integers(2, 8))
    return PotentialSpec.from_terms(terms), wind, GridSpec(nx, nt), \
        draw(st.integers(2, nx // 2 + 2))


@settings(max_examples=60, deadline=None)
@given(case=composition_cases())
def test_compose_period_matches_the_gather_loop_and_the_broadcast_powers(case):
    potential, wind, grid, dmax = case
    vmax = (dmax + 0.5) * grid.nt / grid.nx
    wave = build_kernels(HamiltonianModel(family=TRAVELING_WAVE, potential=potential,
                                          wind=wind), grid, vmax)
    assert not wave.time_independent
    assert wave.dmax == min(dmax, grid.nx // 2)
    assert np.array_equal(compose_period(wave), _composition_by_gathers(wave))
    still = build_kernels(HamiltonianModel(family="mechanical", potential=potential),
                          grid, vmax)
    assert still.time_independent
    assert np.array_equal(compose_period(still), _composition_by_powers(still))


@st.composite
def minplus_operands(draw):
    """Two square matrices of finite and +inf entries, some rows and columns all inf.

    Up to 40 rows, so that a product spans more than one block of ROW_CHUNK rows.
    """
    n = draw(st.integers(1, 40))
    entry = st.one_of(st.floats(-1e3, 1e3), st.just(np.inf))
    A, B = (draw(hnp.arrays(float, (n, n), elements=entry)) for _ in range(2))
    index = st.lists(st.integers(0, n - 1), max_size=2)
    A[draw(index)] = np.inf
    A[:, draw(index)] = np.inf
    B[draw(index)] = np.inf
    B[:, draw(index)] = np.inf
    return A, B


@settings(max_examples=200, deadline=None)
@given(operands=minplus_operands())
def test_minplus_product_is_the_broadcast_minimum(operands):
    A, B = operands
    assert np.array_equal(_minplus_product(A, B), np.min(A[:, :, None] + B[None], axis=1))


def test_constant_shift_property(bench_potential):
    # raising V by a adds -a to every kernel entry scaled: c drops by... the
    # Lagrangian gains +a when V drops by a; here shift V directly
    grid = GridSpec(96, 16)
    a = 0.37
    m1 = HamiltonianModel(family="mechanical", potential=bench_potential)
    shifted_terms = ((0, bench_potential.terms[0][1] - a, 0.0),) + bench_potential.terms[1:]
    m2 = HamiltonianModel(family="mechanical",
                          potential=PotentialSpec.from_terms(shifted_terms))
    c1 = critical_value(build_kernels(m1, grid)).c
    c2 = critical_value(build_kernels(m2, grid)).c
    assert c2 - c1 == pytest.approx(-a, abs=1e-12)


@st.composite
def mild_models(draw):
    """A family and a mild random trig potential it admits, resting on its maxima.

    Each frequency carries an amplitude of at least 0.1 and the momentum
    shift is at most 0.2, so the Aubry set rests at maxima of V as the
    paper assumes.  A weaker potential under a larger shift has a rotating
    Aubry set, on which the coarse grid's barrier iteration need not settle.
    """
    family = draw(st.sampled_from(FAMILIES))
    wind = draw(st.sampled_from((1, 2))) if family == TRAVELING_WAVE else 1
    terms = []
    for k in draw(st.lists(st.sampled_from(range(wind, 4, wind)), min_size=1, max_size=3,
                           unique=True)):
        r, angle = draw(st.floats(0.1, 0.3)), draw(st.floats(0.0, 2 * math.pi))
        terms.append((k, r * math.cos(angle), r * math.sin(angle)))
    return HamiltonianModel(family=family, potential=PotentialSpec.from_terms(terms),
                            momentum_shift=draw(st.floats(-0.2, 0.2))
                            if family == SHIFTED_KINETIC else 0.0, wind=wind)


@settings(max_examples=15, deadline=None)
@given(model=mild_models(), a=st.floats(-1.0, 1.0),
       shape=st.sampled_from(((32, 8), (64, 8))))
def test_constant_added_to_v_shifts_c0_and_keeps_the_barrier(model, a, shape):
    # the Lagrangian of V + a is L - a, so c(0) gains a and, charged at the
    # new c, every path's cost is unchanged: so is the anchored barrier
    grid = GridSpec(*shape)
    shifted = HamiltonianModel(
        family=model.family, momentum_shift=model.momentum_shift, wind=model.wind,
        potential=PotentialSpec.from_terms(model.potential.terms + ((0, a, 0.0),)))
    kernels, kernels_a = build_kernels(model, grid), build_kernels(shifted, grid)
    c, c_a = critical_value(kernels).c, critical_value(kernels_a).c
    assert abs(c_a - (c + a)) <= 1e-12
    nodes = grid.nodes()
    anchor = float(nodes[np.argmax(model.potential.value(nodes))])
    h = anchored_barrier(kernels, c, anchor, window=model.cells).h
    h_a = anchored_barrier(kernels_a, c_a, anchor, window=model.cells).h
    assert np.array_equal(np.isinf(h), np.isinf(h_a))
    finite = np.isfinite(h)
    assert np.max(np.abs(h_a[finite] - h[finite])) <= 1e-10


def test_unsettled_barrier_names_the_rest_orbit_hypothesis():
    # a weak potential under a large shift: the Aubry set rotates instead of
    # resting at the maximum of V, and the barrier iteration never settles
    model = HamiltonianModel(family=SHIFTED_KINETIC, momentum_shift=-0.483,
                             potential=PotentialSpec.from_terms([(2, 0.268, 0.005),
                                                                 (2, -0.218, 0.058)]))
    grid = GridSpec(32, 8)
    kernels = build_kernels(model, grid)
    nodes = grid.nodes()
    anchor = float(nodes[np.argmax(model.potential.value(nodes))])
    with pytest.raises(ConvergenceError, match="hyperbolic rest orbit"):
        anchored_barrier(kernels, critical_value(kernels).c, anchor, window=model.cells)


def test_shifted_kinetic_integer_velocity_grid():
    # with velocity quantum 1 the optimal cycle is the winding-1 loop at v=1:
    # min over integer windings of (w^2/2 - Pw) = -0.2
    m = HamiltonianModel(family="shifted_kinetic", momentum_shift=0.7)
    cv = critical_value(build_kernels(m, GridSpec(64, 64)))
    assert cv.c == pytest.approx(0.2, abs=1e-12)


def test_shifted_kinetic_velocity_refinement():
    # as the velocity quantum nt/nx refines, the minimum mean cycle approaches
    # the rotation bound P^2/2 = 0.245 from below
    m = HamiltonianModel(family="shifted_kinetic", momentum_shift=0.7)
    cs = []
    for nx in (64, 128, 256, 512):
        cs.append(critical_value(build_kernels(m, GridSpec(nx, 64))).c)
    assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))
    assert cs[-1] == pytest.approx(0.245, abs=2e-3)
    # at the 400 x 64 working grid the best constant-velocity cycle runs at
    # v = 0.64, giving exactly 0.64*0.7 - 0.64^2/2 = 0.2432
    c400 = critical_value(build_kernels(m, GridSpec(400, 64))).c
    assert c400 == pytest.approx(0.2432, abs=1e-12)


def test_disconnected_graph_rejected():
    m = HamiltonianModel(family="mechanical")
    kernels = build_kernels(m, GridSpec(64, 4), vmax=0.5)
    # vmax 0.5 still connects the period graph; shrink the offsets by hand to
    # sever it and check the guard fires
    kernels.offsets = np.array([0])
    kernels.costs = [c[kernels.dmax:kernels.dmax + 1] * 0 for c in kernels.costs]
    with pytest.raises(ConfigError):
        critical_value(kernels)


def test_barrier_diagonal_and_oracle(bench_small_setup, bench_oracle):
    grid = bench_small_setup["grid"]
    f0, f2 = bench_small_setup["fields"]
    assert abs(f2.h[grid.nx // 2, 0]) <= 0.02
    nodes = grid.nodes()
    for fld, anchor in ((f0, 0.0), (f2, 0.5)):
        oracle = bench_oracle.distance(nodes, anchor)
        assert np.max(np.abs(fld.h[:, 0] - oracle)) <= 0.03


def test_barrier_columns_time_independent(bench_small_setup):
    f0 = bench_small_setup["fields"][0]
    assert np.max(np.abs(f0.h - f0.h[:, :1])) <= 1e-9


def test_barrier_action_potential_bound(bench_small_setup):
    for fld in bench_small_setup["fields"]:
        assert np.max(fld.phi_pot - fld.h) <= 1e-12


def test_barrier_lipschitz(bench_small_setup):
    grid = bench_small_setup["grid"]
    for fld in bench_small_setup["fields"]:
        jump = np.max(np.abs(np.diff(fld.h[:, 0])))
        # gradient bound ~ max speed sqrt(-2 min V) ~ 1.46, with grid slack
        assert jump / grid.dx <= 2.5


def test_barrier_window_min_monotone(bench_model):
    # trailing-window minimum is non-increasing sweep over sweep: rebuild with
    # a trace-capturing window of 1 on a small grid and check the h updates
    grid = GridSpec(96, 16)
    kernels = build_kernels(bench_model, grid)
    c = critical_value(kernels).c
    for anchor in (0.0, 0.5):
        for window in (1, 2):
            trace = anchored_barrier(kernels, c, anchor, window=window).osc_trace
            assert all(b <= a + 1e-12 or not np.isfinite(a)
                       for a, b in zip(trace, trace[1:]))
    fld = anchored_barrier(kernels, c, 0.5, window=1)
    assert fld.window_osc <= 1e-7
    # the converged field is reproduced by one more sweep (fixed point)
    tgt = kernels.target_index()
    u = fld.h[:, 0].copy()
    from weakkam.variational import _backward_apply
    g = np.empty_like(fld.h)
    for j in range(grid.nt - 1, -1, -1):
        u = _backward_apply(kernels.costs[j], tgt, u) + c / grid.nt
        g[:, j] = u
    assert np.max(np.abs(g - fld.h)) <= 1e-9


def test_barrier_matrix_symmetry_and_triangle(bench_small_setup, bench_oracle):
    H, Phi = barrier_matrix(bench_small_setup["fields"])
    assert abs(H[0, 0]) <= 0.02 and abs(H[1, 1]) <= 0.02
    d = bench_oracle.distance(0.0, 0.5)
    assert H[0, 1] == pytest.approx(d, abs=0.02)
    assert H[1, 0] == pytest.approx(d, abs=0.02)
    # triangle through the other anchor
    assert H[0, 1] <= H[0, 0] + H[0, 1] + 2 * 0.02
    m = H.shape[0]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert H[i, j] <= H[i, k] + H[k, j] + 2 * 0.02
    assert np.all(Phi <= H + 1e-12)


def test_aubry_verify_benchmark(bench_small_setup, bench_orbits):
    residuals = aubry_verify(bench_small_setup["fields"], bench_orbits,
                             aubry_tol=0.02)
    assert all(r.ok for r in residuals)


def test_non_aubry_probe_strictly_positive(bench_small_setup, bench_oracle):
    # mid-well probe: barrier to the anchor plus return cost stays above zero
    grid = bench_small_setup["grid"]
    f0, f2 = bench_small_setup["fields"]
    probe = int(round(0.25 * grid.nx))
    d = bench_oracle.distance(0.25, 0.5)
    assert f2.h[probe, 0] >= d - 0.02
    assert f2.h[probe, 0] + d >= 0.3


def test_traveling_wave_barrier_translate_identity(tw_model, tw_oracle):
    # the barrier rides the wave: h(x, [t]) = min over the k translate anchors
    # of the autonomous distance evaluated at x + t/k
    grid = GridSpec(256, 32)
    kernels = build_kernels(tw_model, grid)
    c = critical_value(kernels).c
    fld = anchored_barrier(kernels, c, 0.0, window=2)
    nodes = grid.nodes()
    worst = 0.0
    for j in range(grid.nt):
        y = nodes + (j / grid.nt) / 2.0
        oracle = np.minimum(tw_oracle.distance(y, 0.0), tw_oracle.distance(y, 0.5))
        worst = max(worst, float(np.max(np.abs(fld.h[:, j] - oracle))))
    assert worst <= 0.02


def test_traveling_wave_diagonal_on_orbit(tw_model):
    from weakkam.dynamics import aubry_orbits

    grid = GridSpec(256, 32)
    kernels = build_kernels(tw_model, grid)
    c = critical_value(kernels).c
    orbits = aubry_orbits(tw_model, shoot_tol=1e-5)
    fld = anchored_barrier(kernels, c, orbits[0].anchor.x, window=2)
    residuals = aubry_verify([fld], orbits, aubry_tol=0.02)
    assert residuals[0].ok


def test_unreached_states_are_inf_not_sentinel(bench_model):
    grid = GridSpec(200, 8)
    kernels = build_kernels(bench_model, grid, vmax=0.5)
    c = critical_value(kernels).c
    fld = anchored_barrier(kernels, c, 0.0, window=1)
    # converged fields are finite everywhere and never NaN
    assert np.all(np.isfinite(fld.h))
    assert not np.any(np.isnan(fld.phi_pot))


def test_anchor_off_grid_lookup(bench_small_setup):
    f0, f2 = bench_small_setup["fields"]
    h, phi = action_potential_pair(f0, f2)
    assert phi <= h + 1e-12
    # mid-cell anchors snap to the nearest node with a recorded sub-cell offset
    import dataclasses
    f_mid = dataclasses.replace(f0, anchor_x=0.5 / f0.grid.nx)
    h_mid, _ = action_potential_pair(f_mid, f2)
    assert math.isfinite(h_mid)
    # only nonsensical anchors can sit more than a cell from every node
    f_bad = dataclasses.replace(f0, anchor_x=math.nan)
    with pytest.raises(WeakKamError):
        action_potential_pair(f_bad, f2)


def nearest_node(x, nx):
    return int(round((x % 1.0) * nx)) % nx


@st.composite
def circle_points(draw):
    """(nx, points) with half-cell ties, node points, negatives and values just below 1."""
    nx = draw(st.integers(2, 1024))
    cell = st.integers(-3 * nx, 3 * nx)
    x = st.one_of(st.floats(-1e3, 1e3), cell.map(lambda k: (k + 0.5) / nx),
                  cell.map(lambda k: k / nx),
                  st.sampled_from([math.nextafter(1.0, 0.0), 1.0 - 1e-12, -1e-300,
                                   -math.nextafter(1.0, 0.0), 0.5 / nx, 1.0 - 0.5 / nx]))
    return nx, draw(st.lists(x, min_size=1, max_size=20))


@settings(max_examples=300, deadline=None)
@given(case=circle_points())
@example(case=(4, [0.125, 0.375, -0.125, 0.875, 1.0 - 1e-17]))
@example(case=(1024, [math.nextafter(1.0, 0.0), -0.5 / 1024, 1023.5 / 1024]))
def test_node_is_the_nearest_node_lookup(case):
    nx, xs = case
    grid = GridSpec(nx, 1)
    for x in xs:
        node = grid.node(x)
        assert type(node) is int and node == nearest_node(x, nx)
    assert grid.node(np.array(xs)).tolist() == [nearest_node(x, nx) for x in xs]


def test_node_refuses_non_finite_positions(bench_small_setup):
    with pytest.raises(WeakKamError, match="non-finite"):
        GridSpec(8, 1).node(np.array([0.25, math.inf]))
    with pytest.raises(WeakKamError, match="non-finite"):
        anchored_barrier(bench_small_setup["kernels"], bench_small_setup["cv"].c, math.nan,
                         window=1)


def test_trace_is_the_substep_loop(bench_orbits, tw_model):
    from weakkam.dynamics import aubry_orbits

    tw_orbits = aubry_orbits(tw_model, shoot_tol=1e-5)
    assert {o.period for o in tw_orbits} == {2}
    for orbit in bench_orbits + tw_orbits:
        for grid in (GridSpec(160, 16), GridSpec(400, 64)):
            n = grid.nt * orbit.period
            xs, cols = grid.trace(orbit)
            loop = [float(orbit.position(j / grid.nt) % 1.0) for j in range(n)]
            assert np.array_equal(xs, loop)
            assert cols.tolist() == [j % grid.nt for j in range(n)]
            xs, cols = grid.trace(orbit, grid.nt)
            assert np.array_equal(xs, loop[:grid.nt]) and cols.tolist() == list(range(grid.nt))


def test_orbit_readings_equal_the_substep_loops(bench_model, bench_small_setup, bench_orbits):
    # aubry_verify and fd_crosscheck read through GridSpec.trace and node;
    # the per-substep loops they replaced are the reference, to the last bit
    from weakkam.orbit_hessian import fd_crosscheck, unstable_hessian_curve

    fields = bench_small_setup["fields"]
    nx, nt = fields[0].grid.nx, fields[0].grid.nt
    for fld, orbit, res in zip(fields, bench_orbits, aubry_verify(fields, bench_orbits)):
        xs = [float(orbit.position(j / nt) % 1.0) for j in range(nt * orbit.period)]
        nodes = [nearest_node(x, nx) for x in xs]
        assert res.residual == max(abs(float(fld.value_at(x, j % nt))) for j, x in enumerate(xs))
        rep = fd_crosscheck(fld, orbit, unstable_hessian_curve(bench_model, orbit))
        for s, fd, _ in rep.table:
            loop = [(fld.h[(i + s) % nx, j % nt] - 2.0 * fld.h[i, j % nt]
                     + fld.h[(i - s) % nx, j % nt]) / (s * fld.grid.dx) ** 2
                    for j, i in enumerate(nodes)]
            assert fd == float(np.mean(loop))


def test_grid_refinement_consistency(tw_model):
    # c changes slowly under refinement of nx at fixed velocity quantum
    c1 = critical_value(build_kernels(tw_model, GridSpec(200, 32))).c
    c2 = critical_value(build_kernels(tw_model, GridSpec(400, 64))).c
    assert abs(c2 - c1) <= 4.0 / 200
